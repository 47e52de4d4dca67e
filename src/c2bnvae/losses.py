"""Training objective terms: reconstruction MSE and the Gaussian KL regularizer.

Reductions: MSE averages over every element (batch x features), which keeps
the term scale-free in feature count. The KL term sums over latent
dimensions and averages over the batch. Log-variances are clamped to
[-10, 10] before exponentiation so the regularizer cannot overflow.

Each ``*_grad`` function gives the gradient of its loss, with every
operation in the order the autodiff tape takes it, so the two agree bit
for bit. Only the tape's ``x ** 1.0`` factors are left out: they copy
``x`` exactly. Arguments are float64 arrays of equal shape, as
``model.C2BNVAE`` builds them; nothing here checks them.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


def clip_logvar(logvar: Array) -> Array:
    """``logvar`` clamped to [LOGVAR_MIN, LOGVAR_MAX]: the values ``np.clip``
    gives, NaN and signed zeros included, without its argument handling."""
    return np.minimum(np.maximum(logvar, LOGVAR_MIN), LOGVAR_MAX)


def mse_loss(x: Array, x_hat: Array) -> np.float64:
    """Mean of squared elementwise differences over all samples and features."""
    return ((x + x_hat * -1.0) ** 2.0).sum() * (1.0 / x.size)


def mse_loss_grad(x: Array, x_hat: Array) -> Array:
    """Gradient of ``mse_loss`` with respect to ``x_hat``."""
    diff = x + x_hat * -1.0
    return (1.0 / diff.size) * 2.0 * diff * -1.0


def kl_gaussian(mu: Array, logvar: Array) -> np.float64:
    """KL(N(mu, exp(logvar)) || N(0, I)): sum over dims, mean over batch."""
    lv = clip_logvar(logvar)
    per_sample = ((lv + 1.0) + mu ** 2.0 * -1.0 + np.exp(lv) * -1.0).sum(axis=1) * -0.5
    # a true KL is never negative; rounding can leave a -1e-17 near the prior
    return np.maximum(per_sample.sum() * (1.0 / per_sample.size), 0.0)


def kl_gaussian_grad(mu: Array, logvar: Array, scale: float) -> tuple[Array, Array]:
    """Gradients of ``scale * kl_gaussian(mu, logvar)`` for mu and logvar."""
    g = scale * (1.0 / mu.shape[0]) * -0.5  # the same for every element
    lv = clip_logvar(logvar)
    kept = (logvar >= LOGVAR_MIN) & (logvar <= LOGVAR_MAX)
    return g * -1.0 * 2.0 * mu, (g + g * -1.0 * np.exp(lv)) * kept
