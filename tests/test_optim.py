import numpy as np
import pytest

from c2bnvae.errors import ShapeError
from c2bnvae.model import ModelConfig
from c2bnvae.optim import Adam

from model_reference import adam_step as adam_step_per_array


def step_with(opt: Adam, grads) -> None:
    opt.grads[...] = grads
    opt.step()


def test_zero_gradient_is_identity():
    params = np.array([1.0, -2.0, 3.0])
    opt = Adam(params, np.zeros(3), lr=0.5)
    before = params.copy()
    step_with(opt, np.zeros(3))
    assert np.array_equal(params, before)
    assert opt.step_count == 1


def test_hand_oracle_two_steps():
    # bias correction makes m_hat = v_hat = 1 on a constant unit gradient,
    # so each step moves the parameter by almost exactly lr
    params = np.array([1.0])
    opt = Adam(params, np.zeros(1), lr=0.1)
    step_with(opt, np.array([1.0]))
    assert abs((1.0 - params[0]) - 0.1) < 1e-6
    assert params[0] == pytest.approx(0.9, abs=1e-6)
    step_with(opt, np.array([1.0]))
    assert params[0] == pytest.approx(0.8, abs=1e-6)
    assert opt.step_count == 2


def test_learning_rate_validated():
    # the optimizer's rate is ModelConfig.lr, checked once when the config is made
    with pytest.raises(ShapeError, match="lr must be positive"):
        ModelConfig(feature_dim=1, num_classes=1, lr=0.0)


def test_second_moment_stays_nonnegative():
    params = np.array([0.5])
    opt = Adam(params, np.zeros(1), lr=0.01)
    rng = np.random.default_rng(0)
    for _ in range(50):
        step_with(opt, rng.normal(size=1))
    assert np.all(opt.second_moment >= 0.0)


def test_wrapper_steps_from_gradient_buffer():
    # d(p^2)/dp = 2p written into the gradient vector, as a backward pass would
    params = np.array([2.0])
    grads = np.zeros(1)
    opt = Adam(params, grads, lr=0.1)
    opt.zero_grad()
    grads[...] = 2.0 * params
    opt.step()
    assert params[0] == pytest.approx(1.9, abs=1e-6)


def test_zero_grad_clears_the_buffer():
    grads = np.ones(3)
    Adam(np.zeros(3), grads, lr=0.1).zero_grad()
    assert np.all(grads == 0.0)


def test_flat_update_matches_per_array_update_bit_for_bit():
    # one update over a concatenated vector must equal the per-array
    # expressions, step after step
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(4, 3)), rng.normal(size=3), rng.normal(size=(2, 5))]
    flat = np.concatenate([a.ravel() for a in arrays])
    grads = np.empty_like(flat)
    opt = Adam(flat, grads, lr=0.01)
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    for step in range(1, 6):
        parts = [rng.normal(size=a.shape) for a in arrays]
        grads[...] = np.concatenate([g.ravel() for g in parts])
        opt.step()
        adam_step_per_array(arrays, parts, moments, step, lr=0.01)
        assert flat.tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
