import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c2bnvae.losses import kl_gaussian, mse_loss


class TestMse:
    def test_identical_inputs_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert mse_loss(x, x.copy()).item() == 0.0

    def test_two_element_example(self):
        assert mse_loss(np.array([[0.0], [2.0]]),
                        np.array([[1.0], [1.0]])).item() == pytest.approx(1.0)

    def test_row_example(self):
        assert mse_loss(np.array([[0.0, 0.0]]),
                        np.array([[3.0, 4.0]])).item() == pytest.approx(12.5)


class TestKl:
    def test_prior_equals_posterior(self):
        assert kl_gaussian(np.zeros((3, 4)), np.zeros((3, 4))).item() == 0.0

    def test_unit_mean_closed_form(self):
        value = kl_gaussian(np.array([[1.0]]), np.array([[0.0]])).item()
        assert abs(value - 0.5) < 1e-12

    def test_log_four_closed_form(self):
        value = kl_gaussian(np.array([[0.0]]), np.array([[math.log(4.0)]])).item()
        assert value == pytest.approx(0.5 * (4.0 - math.log(4.0) - 1.0), abs=1e-12)

    def test_extreme_logvar_is_finite(self):
        # the clamp keeps exp() bounded
        value = kl_gaussian(np.zeros((2, 2)), np.full((2, 2), 1e6)).item()
        assert np.isfinite(value)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
                    min_size=1, max_size=8))
    @example([(0.0, -1.3737756355587687e-15)])  # rounds to -5.55e-17 unclipped
    def test_nonnegative_everywhere(self, pairs):
        mu = np.array([[m for m, _ in pairs]])
        logvar = np.array([[v for _, v in pairs]])
        value = kl_gaussian(mu, logvar).item()
        assert value >= 0.0
        # strict positivity away from the origin (tiny offsets underflow to 0)
        if any(abs(m) > 1e-3 or abs(v) > 1e-3 for m, v in pairs):
            assert value > 0.0
