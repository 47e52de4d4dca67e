"""Adam optimizer with bias correction, over one flat parameter vector.

Defaults follow the common convention: beta1=0.9, beta2=0.999, eps=1e-8,
with eps added outside the square root.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Array = np.ndarray


class Adam:
    """Updates a parameter vector in place from its gradient vector."""

    def __init__(self, params: Array, grads: Array, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ShapeError(f"learning rate must be positive, got {lr}")
        if params.shape != grads.shape:
            raise ShapeError(f"gradient shape {grads.shape} does not match "
                             f"parameters {params.shape}")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        # two buffers the update reuses, so a step allocates no temporaries
        self.scratch = (np.empty_like(params), np.empty_like(params))
        self.step_count = 0

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def step(self) -> None:
        """One Adam update of ``params`` in place, from ``grads``."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        m, v, grads = self.first_moment, self.second_moment, self.grads
        step, denom = self.scratch
        # each line keeps the operation order of
        #   m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g
        #   p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=step)
        step *= grads
        v += step
        np.divide(m, bias1, out=step)
        step *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self.params -= step
