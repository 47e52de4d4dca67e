import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c2bnvae.errors import ShapeError
from c2bnvae.model import C2BNVAE, ModelConfig
from c2bnvae.nn import (CondBatchNorm1d, Linear, flatten_parameters, he_init,
                        leaky_relu, one_hot, sigmoid)

from helpers import assert_grads_close, finite_diff_grads


def make_linear(weights, bias):
    w = np.asarray(weights, dtype=np.float64)
    layer = Linear(w.shape[0], w.shape[1], np.random.default_rng(0))
    layer.weights[...] = w
    layer.bias[...] = np.asarray(bias, dtype=np.float64)
    return layer


class TestLinear:
    def test_hand_arithmetic(self):
        layer = make_linear([[1.0], [1.0]], [0.0])
        np.testing.assert_allclose(layer(np.array([[1.0, 2.0]])), [[3.0]])

    def test_zero_input_yields_bias(self):
        layer = make_linear([[4.0], [-7.0]], [5.0])
        np.testing.assert_allclose(layer(np.array([[0.0, 0.0]])), [[5.0]])

    def test_identity_case(self):
        layer = make_linear(np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(layer(x), x)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = Linear(3, 2, rng)
        layer.bias[...] = rng.normal(size=2)
        x = rng.normal(size=(5, 3))

        def forward() -> float:
            return float((layer(x) ** 2.0).sum())

        analytic = [layer.backward(2.0 * layer(x)), layer.grad_weights, layer.grad_bias]
        numeric = finite_diff_grads(forward, [x, layer.weights, layer.bias])
        assert_grads_close(analytic, numeric)


class TestLeakyRelu:
    def test_examples(self):
        # (output, multiplier): the multiplier is the local gradient
        for x, slope, out, multiplier in ((2.0, 0.01, 2.0, 1.0), (-1.0, 0.01, -0.01, 0.01),
                                          (0.0, 0.7, 0.0, 1.0)):
            got = leaky_relu(np.array([[x]]), slope)
            np.testing.assert_allclose(got[0], [[out]])
            assert got[1].tolist() == [[multiplier]]


class TestHeInit:
    def test_same_seed_identical(self):
        a = he_init(7, (5, 3), np.random.default_rng(123))
        b = he_init(7, (5, 3), np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_sample_variance_matches_two_over_fan_in(self):
        draws = he_init(100, (10000,), np.random.default_rng(42))
        target = 2.0 / 100
        assert abs(draws.var() - target) < 0.1 * target

    def test_sample_mean_near_zero(self):
        draws = he_init(100, (10000,), np.random.default_rng(7))
        se = np.sqrt(2.0 / 100) / np.sqrt(draws.size)
        assert abs(draws.mean()) < 5 * se

    def test_fan_in_validated(self):
        # every fan-in is an input width or a hidden width, and ModelConfig
        # rejects each below 1 before any layer is built
        for setting in ({"feature_dim": 0}, {"latent_dim": 0}, {"hidden_widths": (4, 0)}):
            with pytest.raises(ShapeError, match=next(iter(setting))):
                ModelConfig(**{"feature_dim": 1, "num_classes": 1, **setting})


def make_cbn(gamma, beta, eps=1e-12):
    gamma = np.atleast_2d(np.asarray(gamma, dtype=np.float64))
    bank = CondBatchNorm1d(gamma.shape[0], gamma.shape[1], eps=eps)
    bank.gamma[...] = gamma
    bank.beta[...] = np.atleast_2d(np.asarray(beta, dtype=np.float64))
    return bank


class TestCondBatchNorm:
    def test_single_class_hand_example(self):
        # mu=2, population var=1, so rows normalize to -1/+1 then gamma=2, beta=1
        bank = make_cbn([[2.0]], [[1.0]])
        out = bank(np.array([[1.0], [3.0]]), np.array([0, 0]), training=True)
        np.testing.assert_allclose(out, [[-1.0], [3.0]], atol=1e-9)

    def test_pooled_stats_per_row_affine(self):
        bank = make_cbn([[1.0], [3.0]], [[0.0], [-1.0]])
        out = bank(np.array([[0.0], [2.0]]), np.array([0, 1]), training=True)
        np.testing.assert_allclose(out, [[-1.0], [2.0]], atol=1e-9)

    def test_identity_affine_on_standardized_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 5))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        bank = make_cbn(np.ones((2, 5)), np.zeros((2, 5)))
        labels = rng.integers(0, 2, size=64)
        out = bank(x, labels, training=True)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_normalized_activations_have_unit_stats(self):
        rng = np.random.default_rng(11)
        x = rng.normal(loc=3.0, scale=2.0, size=(256, 4))
        bank = make_cbn(np.ones((3, 4)), np.zeros((3, 4)), eps=1e-12)
        labels = rng.integers(0, 3, size=256)
        normalized = bank(x, labels, training=True)
        assert np.all(np.abs(normalized.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(normalized.var(axis=0) - 1.0) < 1e-6)

    def test_eval_mode_uses_running_statistics(self):
        bank = make_cbn([[1.0]], [[0.0]], eps=1e-12)
        bank.running_mean = np.array([10.0])
        bank.running_var = np.array([4.0])
        out = bank(np.array([[12.0]]), np.array([0]), training=False)
        np.testing.assert_allclose(out, [[1.0]], atol=1e-6)

    def test_running_statistics_ema_update(self):
        bank = make_cbn([[1.0]], [[0.0]])
        bank.momentum = 0.1
        x = np.array([[1.0], [3.0]])  # batch mean 2, population var 1
        bank(x, np.array([0, 0]), training=True)
        assert bank.running_mean == pytest.approx([0.9 * 0.0 + 0.1 * 2.0])
        assert bank.running_var == pytest.approx([0.9 * 1.0 + 0.1 * 1.0])

    def test_cbn_reduces_to_bn_with_equal_banks(self):
        rng = np.random.default_rng(5)
        width, classes = 6, 4
        gamma = rng.normal(size=width)
        beta = rng.normal(size=width)
        bank = make_cbn(np.tile(gamma, (classes, 1)), np.tile(beta, (classes, 1)), eps=1e-5)
        bn = CondBatchNorm1d(1, width, eps=1e-5)
        bn.gamma[...] = gamma[None, :]
        bn.beta[...] = beta[None, :]
        x = rng.normal(size=(32, width))
        labels = rng.integers(0, classes, size=32)
        out_cbn = bank(x, labels, training=True)
        out_bn = bn(x, np.zeros(32, dtype=int), training=True)
        assert np.array_equal(out_cbn, out_bn)

    def test_gradients_flow_through_batch_statistics(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 3))
        bank = CondBatchNorm1d(2, 3, eps=1e-5)
        bank.gamma[...] = rng.normal(size=(2, 3))
        bank.beta[...] = rng.normal(size=(2, 3))
        labels = np.array([0, 1, 0, 1, 1, 0])

        def forward() -> float:
            return float((bank(x, labels, training=True) ** 2.0).mean())

        out = bank(x, labels, training=True)
        analytic = [bank.backward(2.0 * out / out.size), bank.grad_gamma, bank.grad_beta]
        numeric = finite_diff_grads(forward, [x, bank.gamma, bank.beta])
        assert_grads_close(analytic, numeric)


class TestBatchNorm:
    """Plain batch normalization: one bank, every row fed class 0."""

    def test_hand_example(self):
        bn = CondBatchNorm1d(1, 1, eps=1e-12)
        bn.gamma[...] = np.array([[2.0]])
        bn.beta[...] = np.array([[1.0]])
        out = bn(np.array([[1.0], [3.0]]), np.zeros(2, dtype=int), training=True)
        np.testing.assert_allclose(out, [[-1.0], [3.0]], atol=1e-9)

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        bn = CondBatchNorm1d(1, 3, eps=1e-12)
        np.testing.assert_allclose(bn(x, np.zeros(50, dtype=int), training=True), x,
                                   atol=1e-6)

    def test_equals_single_class_cbn(self):
        # the plain-BN generator holds one-bank layers and feeds them class 0
        rng = np.random.default_rng(12)
        x = rng.normal(size=(16, 4))
        model = C2BNVAE(ModelConfig(feature_dim=3, num_classes=5, latent_dim=2,
                                    hidden_widths=(4,), use_cbn=False))
        assert model.enc_norm.gamma.shape == model.dec_norm.gamma.shape == (1, 4)
        bank = CondBatchNorm1d(1, 4)
        out_bn = model.dec_norm(x, model._banks(rng.integers(0, 5, size=16)),
                                training=True)
        out_cbn = bank(x, np.zeros(16, dtype=int), training=True)
        assert np.array_equal(out_bn, out_cbn)


def test_one_hot_shape_and_range():
    oh = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_flatten_parameters_makes_views():
    rng = np.random.default_rng(1)
    lin = Linear(3, 2, rng)
    bank = CondBatchNorm1d(2, 2)
    before = [lin.weights.copy(), lin.bias.copy(), bank.gamma.copy(), bank.beta.copy()]
    params, grads = flatten_parameters([lin, bank])
    assert params.shape == grads.shape == (6 + 2 + 4 + 4,)
    assert np.array_equal(params, np.concatenate([b.ravel() for b in before]))
    params[:] = 0.5
    assert np.all(lin.weights == 0.5) and np.all(bank.beta == 0.5)
    lin(np.ones((4, 3)))
    lin.backward(np.ones((4, 2)), input_grad=False)
    assert np.array_equal(grads[:8], np.full(8, 4.0))
    assert np.all(grads[8:] == 0.0)


# --------------------------------------------------------------------------
# the fast forms equal, bit for bit, the forms the autodiff tape takes
# --------------------------------------------------------------------------

def signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])


# zeros of both signs and magnitudes from 1e-20 to 1e20
GRADIENT_VALUES = signed(st.one_of(st.just(0.0), st.floats(1e-20, 1e20)))


@st.composite
def cbn_cases(draw):
    """(banks, labels, upstream gradient, seed) with some banks absent."""
    banks = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    batch = draw(st.integers(2, 24))
    present = draw(st.lists(st.integers(0, banks - 1), min_size=1, max_size=banks,
                            unique=True))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=batch,
                                    max_size=batch)), dtype=np.int64)
    g = np.array(draw(st.lists(GRADIENT_VALUES, min_size=batch * width,
                               max_size=batch * width))).reshape(batch, width)
    return banks, labels, g, draw(st.integers(0, 2**32 - 1))


def scatter_add(banks: int, labels, rows):
    out = np.zeros((banks, rows.shape[1]))
    np.add.at(out, labels, rows)
    return out


@settings(max_examples=300, deadline=None)
@given(cbn_cases())
@example((1, np.zeros(2, dtype=np.int64), np.array([[-0.0, 1e20], [0.0, -1e-20]]), 0))
@example((5, np.array([4, 4]), np.array([[1.0, -0.0], [-1.0, 0.0]]), 1))
def test_cbn_affine_gradients_equal_a_scatter_add(case):
    banks, labels, g, seed = case
    rng = np.random.default_rng(seed)
    bank = CondBatchNorm1d(banks, g.shape[1])
    bank.gamma[...] = rng.normal(size=bank.gamma.shape)
    bank.beta[...] = rng.normal(size=bank.beta.shape)
    bank(rng.normal(size=g.shape), labels, training=True)
    normalized = bank._cache[4]
    bank.backward(g)
    assert bank.grad_gamma.tobytes() == scatter_add(banks, labels, g * normalized).tobytes()
    assert bank.grad_beta.tobytes() == scatter_add(banks, labels, g).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed(st.floats(0.0, 1e300)), GRADIENT_VALUES),
                min_size=1, max_size=40),
       st.sampled_from([0.0, 0.01, 0.2, 0.7, 1.0]))
@example([(np.nan, 1.0), (-np.nan, -1.0), (np.inf, 2.0), (-np.inf, -2.0),
          (0.0, 3.0), (-0.0, -3.0), (5e-324, 1e-20), (-5e-324, -1e-20),
          (800.0, 0.0), (-800.0, -0.0)], 0.01)
@example([(np.nan, -0.0), (np.inf, 1e20), (-0.0, 1.0), (-5e-324, 1.0)], 0.0)
@example([(np.nan, 1.0), (-np.inf, 1.0), (-0.0, -1.0), (-5e-324, 1.0)], 1.0)
def test_leaky_relu_multiplier_equals_the_recomputed_gradient(pairs, slope):
    x, g = (np.array(column) for column in zip(*pairs))
    out, multiplier = leaky_relu(x, slope)
    recomputed = np.where(x >= 0.0, 1.0, slope)
    assert out.tobytes() == (x * recomputed).tobytes()
    assert (g * multiplier).tobytes() == (g * recomputed).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(signed(st.floats(0.0, 800.0)), min_size=1, max_size=40))
@example([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 36.0, -745.2])
@example([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
          800.0, -800.0])
def test_sigmoid_equals_the_three_exp_form(values):
    x = np.array(values)
    three_exp = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert sigmoid(x).tobytes() == three_exp.tobytes()
