import numpy as np
import pytest

from c2bnvae.autodiff import Tensor, concat, gradients
from c2bnvae.errors import ShapeError
from helpers import assert_grads_close, finite_diff_grads
from model_reference import leaky_relu


def test_square_gradient():
    p = Tensor(3.0, requires_grad=True)
    loss = p**2.0
    loss.backward()
    assert loss.item() == 9.0
    assert p.grad == pytest.approx(6.0)


def test_constant_loss_has_zero_gradients():
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    loss = (p * 0.0).sum()
    (grad,) = gradients(loss, [p])
    assert np.all(grad == 0.0)


def test_parameter_off_tape_raises():
    p = Tensor(1.0, requires_grad=True)
    q = Tensor(2.0, requires_grad=True)
    loss = p * p
    with pytest.raises(ShapeError, match="not on the tape"):
        gradients(loss, [p, q])


def test_backward_requires_scalar():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (p * 2.0).backward()


def test_matmul_shape_errors_name_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        a @ b


@pytest.mark.parametrize("seed", range(5))
def test_composite_graph_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b1 = Tensor(rng.normal(size=3), requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = rng.normal(size=(5, 4))
    params = [w1, b1, w2]

    def forward() -> float:
        h = leaky_relu(Tensor(x) @ w1 + b1, 0.01)
        h = (h @ w2).sigmoid()
        return float((h**2.0).mean())

    loss_t = leaky_relu(Tensor(x) @ w1 + b1, 0.01)
    loss_t = (loss_t @ w2).sigmoid()
    loss = (loss_t**2.0).mean()
    analytic = gradients(loss, params)
    numeric = finite_diff_grads(forward, [p.data for p in params])
    assert_grads_close(analytic, numeric)


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=4), requires_grad=True)

    def forward() -> float:
        t = (a + b) * c
        return float((t.exp()).sum())

    loss = ((a + b) * c).exp().sum()
    analytic = gradients(loss, [a, b, c])
    numeric = finite_diff_grads(forward, [a.data, b.data, c.data])
    assert_grads_close(analytic, numeric)


def test_concat_take_rows_clip_gradients():
    rng = np.random.default_rng(1)
    bank = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    idx = np.array([0, 2, 2, 1])

    def forward() -> float:
        rows = bank.take_rows(idx)
        joined = concat([x * rows, rows], axis=1)
        return float(joined.clip(-0.5, 0.5).mean())

    rows = bank.take_rows(idx)
    loss = concat([x * rows, rows], axis=1).clip(-0.5, 0.5).mean()
    analytic = gradients(loss, [bank, x])
    numeric = finite_diff_grads(forward, [bank.data, x.data])
    assert_grads_close(analytic, numeric)


def test_mean_axis_and_division_gradients():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(5, 3)) + 3.0, requires_grad=True)

    def forward() -> float:
        mu = a.mean(axis=0, keepdims=True)
        var = ((a - mu) ** 2.0).mean(axis=0, keepdims=True)
        return float(((a - mu) * ((var + 1e-5) ** -0.5)).sum())

    mu = a.mean(axis=0, keepdims=True)
    var = ((a - mu) ** 2.0).mean(axis=0, keepdims=True)
    loss = ((a - mu) * ((var + 1e-5) ** -0.5)).sum()
    analytic = gradients(loss, [a])
    numeric = finite_diff_grads(forward, [a.data])
    assert_grads_close(analytic, numeric)


def test_gradients_accumulate_over_reuse():
    p = Tensor(2.0, requires_grad=True)
    loss = p * p + p * 3.0  # d/dp = 2p + 3 = 7
    (grad,) = gradients(loss, [p])
    assert grad == pytest.approx(7.0)
