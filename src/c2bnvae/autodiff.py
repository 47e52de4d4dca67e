"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array and remembers the operation that produced
it, so the computation graph built during a forward pass doubles as the
gradient tape. Calling ``backward()`` on a scalar walks the graph in reverse
topological order and accumulates exact gradients into every reachable
tensor created with ``requires_grad=True``.

Everything is float64: the gradient-check suite compares against central
finite differences at tight tolerances, which single precision cannot meet.

Training does not run on the tape. The layers' explicit backward passes
(``nn``, ``losses``, ``C2BNVAE.backward``) compute the gradients, and
``tests/model_reference.py`` composes the same step from ``Tensor``s as
their oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` over the axes numpy broadcast when producing it."""
    if grad.shape == shape:
        return grad
    # sum over leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were size 1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node of the computation graph: value, gradient and backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _op(data: Array, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor(data)
        out._parents = tuple(parents)
        out.requires_grad = any(p.requires_grad for p in parents)
        out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: Array) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(g: Array, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(g: Array, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * (-1.0)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        return self * as_tensor(other) ** (-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) * self ** (-1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise ShapeError("only scalar exponents are supported")
        n = float(exponent)
        out_data = self.data**n

        def backward(g: Array, a=self) -> None:
            if a.requires_grad:
                a._accumulate(g * n * a.data ** (n - 1.0))

        return Tensor._op(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-D operands, got {self.data.shape} @ {other.data.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}"
            )

        def backward(g: Array, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

        return Tensor._op(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # reductions and elementwise functions
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array, a=self) -> None:
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(ge, a.data.shape).copy())

        return Tensor._op(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: Array, a=self, y=out_data) -> None:
            if a.requires_grad:
                a._accumulate(g * y)

        return Tensor._op(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values to [lo, hi]; gradient is 1 inside the range, 0 outside."""
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: Array, a=self, m=mask) -> None:
            if a.requires_grad:
                a._accumulate(g * m)

        return Tensor._op(np.clip(self.data, lo, hi), (self,), backward)

    def sigmoid(self) -> "Tensor":
        # evaluated in a numerically safe split form to avoid exp overflow
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(g: Array, a=self, y=out_data) -> None:
            if a.requires_grad:
                a._accumulate(g * y * (1.0 - y))

        return Tensor._op(out_data, (self,), backward)

    def take_rows(self, indices: Array) -> "Tensor":
        """Gather rows: out[i] = self[indices[i]]. Backward scatter-adds."""
        idx = np.asarray(indices)

        def backward(g: Array, a=self, i=idx) -> None:
            if a.requires_grad:
                acc = np.zeros_like(a.data)
                np.add.at(acc, i, g)
                a._accumulate(acc)

        return Tensor._op(self.data[idx], (self,), backward)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Populate ``grad`` on every tensor this scalar depends on."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient back."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return Tensor._op(np.concatenate([t.data for t in tensors], axis=axis),
                      tensors, backward)


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS (graphs can be deeper than the recursion limit)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Exact reverse-mode gradients of a scalar loss for each parameter.

    Raises ShapeError if a parameter never entered the graph that produced
    ``loss`` (i.e. it is not on the tape).
    """
    for p in params:
        p.grad = None
    loss.backward()
    on_tape = {id(n) for n in _toposort(loss)}
    grads = []
    for i, p in enumerate(params):
        if id(p) not in on_tape:
            raise ShapeError(f"parameter {i} is not on the tape that produced the loss")
        grads.append(p.grad if p.grad is not None else np.zeros_like(p.data))
    return grads
