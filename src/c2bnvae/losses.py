"""Training objective terms: reconstruction MSE and the Gaussian KL regularizer.

Reductions: MSE averages over every element (batch x features), which keeps
the term scale-free in feature count. The KL term sums over latent
dimensions and averages over the batch. Log-variances are clamped to
[-10, 10] before exponentiation so the regularizer cannot overflow.

Each ``*_grad`` function gives the gradient of its loss, with every
operation in the order the autodiff tape takes it, so the two agree bit
for bit. Only the tape's ``x ** 1.0`` factors are left out: they copy
``x`` exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Array = np.ndarray

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


def clip_logvar(logvar: Array) -> Array:
    """``logvar`` clamped to [LOGVAR_MIN, LOGVAR_MAX]: the values ``np.clip``
    gives, NaN and signed zeros included, without its argument handling."""
    return np.minimum(np.maximum(logvar, LOGVAR_MIN), LOGVAR_MAX)


def _pair(name: str, a, b) -> tuple[Array, Array]:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"{name} shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse_loss(x, x_hat) -> np.float64:
    """Mean of squared elementwise differences over all samples and features."""
    a, b = _pair("mse_loss", x, x_hat)
    return ((a + b * -1.0) ** 2.0).sum() * (1.0 / a.size)


def mse_loss_grad(x: Array, x_hat: Array) -> Array:
    """Gradient of ``mse_loss`` with respect to ``x_hat``."""
    diff = x + x_hat * -1.0
    return (1.0 / diff.size) * 2.0 * diff * -1.0


def kl_gaussian(mu, logvar) -> np.float64:
    """KL(N(mu, exp(logvar)) || N(0, I)): sum over dims, mean over batch."""
    m, lv = _pair("kl_gaussian", mu, logvar)
    lv = clip_logvar(lv)
    per_sample = ((lv + 1.0) + m ** 2.0 * -1.0 + np.exp(lv) * -1.0).sum(axis=1) * -0.5
    # a true KL is never negative; rounding can leave a -1e-17 near the prior
    return np.maximum(per_sample.sum() * (1.0 / per_sample.size), 0.0)


def kl_gaussian_grad(mu: Array, logvar: Array, scale: float) -> tuple[Array, Array]:
    """Gradients of ``scale * kl_gaussian(mu, logvar)`` for mu and logvar."""
    g = scale * (1.0 / mu.shape[0]) * -0.5  # the same for every element
    lv = clip_logvar(logvar)
    kept = (logvar >= LOGVAR_MIN) & (logvar <= LOGVAR_MAX)
    return g * -1.0 * 2.0 * mu, (g + g * -1.0 * np.exp(lv)) * kept
