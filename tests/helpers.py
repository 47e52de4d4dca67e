"""Shared test utilities: central finite differences and tolerance checks."""

from __future__ import annotations

import numpy as np


def finite_diff_grads(f, arrays, h: float = 1e-5):
    """Central-difference gradient of the scalar ``f()`` w.r.t. each array.

    Entries are perturbed in place and restored, so ``f`` must read the
    arrays afresh on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel_tol: float = 1e-4, abs_floor: float = 1e-8):
    """Elementwise |a - n| < rel_tol * max(|a|, |n|) + abs_floor."""
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n)
        bound = rel_tol * np.maximum(np.abs(a), np.abs(n)) + abs_floor
        worst = np.max(err - bound)
        assert np.all(err < bound), (
            f"gradient mismatch: worst excess {worst:.3e}\nanalytic={a}\nnumeric={n}"
        )


def assert_backward_matches_finite_differences(model, x, labels, rel_tol: float = 1e-4):
    """``model.backward`` against central differences of ``model.loss`` over the
    whole flat parameter vector, with the reparameterization noise fixed."""
    from c2bnvae.model import reparameterize_t

    def forward():
        mu, logvar = model.encode(x, labels, training=True)
        z, sigma, noise = reparameterize_t(mu, logvar, np.random.default_rng(0))
        return mu, logvar, sigma, noise, model.decode(z, labels, training=True)

    mu, logvar, sigma, noise, x_hat = forward()
    model.backward(x, x_hat, mu, logvar, sigma, noise)
    analytic = model.grads.copy()

    def loss() -> float:
        mu, logvar, _, _, x_hat = forward()
        return float(model.loss(x, x_hat, mu, logvar)[0])

    # the parameters are views of model.params, so perturbing it moves them
    numeric = finite_diff_grads(loss, [model.params])
    assert_grads_close([analytic], numeric, rel_tol=rel_tol)
