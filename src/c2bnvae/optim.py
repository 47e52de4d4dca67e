"""Adam optimizer with bias correction, over one flat parameter vector.

Defaults follow the common convention: beta1=0.9, beta2=0.999, eps=1e-8,
with eps added outside the square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

Array = np.ndarray


@dataclass
class AdamState:
    first_moment: Array
    second_moment: Array
    # two buffers the update reuses, so a step allocates no temporaries
    scratch: tuple[Array, Array] = field(repr=False)
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: Array, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(first_moment=np.zeros_like(params),
                   second_moment=np.zeros_like(params),
                   scratch=(np.empty_like(params), np.empty_like(params)),
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: Array, grads: Array, state: AdamState, lr: float) -> None:
    """One Adam update of ``params`` in place, from ``grads``."""
    if lr <= 0:
        raise ShapeError(f"learning rate must be positive, got {lr}")
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ShapeError(f"params {params.shape}, grads {grads.shape} and state "
                         f"{state.first_moment.shape} must have matching shapes")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    m, v = state.first_moment, state.second_moment
    step, denom = state.scratch
    # each line keeps the operation order of
    #   m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g
    #   p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
    m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=step)
    m += step
    v *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=step)
    step *= grads
    v += step
    np.divide(m, bias1, out=step)
    step *= lr
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    params -= step


class Adam:
    """Drives ``adam_step`` over a parameter vector and its gradient vector."""

    def __init__(self, params: Array, grads: Array, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if params.shape != grads.shape:
            raise ShapeError(f"gradient shape {grads.shape} does not match "
                             f"parameters {params.shape}")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.state = AdamState.for_params(params, beta1=beta1, beta2=beta2, eps=eps)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def step(self) -> None:
        adam_step(self.params, self.grads, self.state, self.lr)
