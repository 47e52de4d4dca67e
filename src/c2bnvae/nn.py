"""Dense layers, activations and conditional batch normalization.

Every layer works on plain float64 arrays. A forward call keeps what the
backward pass needs, and ``backward(g)`` takes the loss gradient with
respect to the layer's output, writes the gradients of the layer's
parameters into its ``grad_*`` arrays and returns the gradient with respect
to its input. Each expression repeats, operation for operation, the
autodiff tape's composition of the same layer (``tests/model_reference.py``),
so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import LabelError, ShapeError

Array = np.ndarray


def he_init(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> Array:
    """Zero-mean normal draw with variance 2/fan_in (He initialization)."""
    if fan_in < 1:
        raise ShapeError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def leaky_relu(x: Array, slope: float = 0.01) -> Array:
    """Elementwise max(x, slope*x); subgradient at 0 is taken as 1."""
    if not 0.0 <= slope < 1.0:
        raise ShapeError(f"leaky_relu slope must lie in [0, 1), got {slope}")
    return x * np.where(x >= 0.0, 1.0, slope)


def leaky_relu_grad(g: Array, x: Array, slope: float) -> Array:
    """Gradient through ``leaky_relu`` at input ``x``."""
    return g * np.where(x >= 0.0, 1.0, slope)


def sigmoid(x: Array) -> Array:
    """Logistic function, in a split form that cannot overflow ``exp``."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid_grad(g: Array, y: Array) -> Array:
    """Gradient through ``sigmoid`` given its output ``y``."""
    return g * y * (1.0 - y)


def check_labels(labels, num_classes: int) -> Array:
    """Labels as a 1-D int64 array; raises LabelError outside [0, num_classes).

    The layers and ``one_hot`` index with labels unchecked, so every entry
    point that takes labels from outside (``model.train``, ``model.generate``)
    calls this once.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise LabelError(f"label {bad} out of range for {num_classes} classes")
    return labels


def one_hot(labels: Array, num_classes: int) -> Array:
    """Label indices -> one-hot rows; labels come from ``check_labels``."""
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def flatten_parameters(layers) -> tuple[Array, Array]:
    """Move the parameters of ``layers`` into one contiguous float64 vector.

    Returns ``(params, grads)``. Each parameter array named in a layer's
    ``PARAMETERS`` becomes a view of ``params`` holding the same values, and
    its ``grad_<name>`` array the matching view of ``grads``, so one
    vectorised optimizer update covers every layer.
    """
    arrays = [(layer, name, getattr(layer, name))
              for layer in layers for name in layer.PARAMETERS]
    params = np.empty(sum(value.size for _, _, value in arrays))
    grads = np.zeros_like(params)
    offset = 0
    for layer, name, value in arrays:
        end = offset + value.size
        view = params[offset:end].reshape(value.shape)
        view[...] = value
        setattr(layer, name, view)
        setattr(layer, f"grad_{name}", grads[offset:end].reshape(value.shape))
        offset = end
    return params, grads


class Linear:
    """Affine map y = xW + b with He-initialized weights and zero bias."""

    PARAMETERS = ("weights", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weights = he_init(in_dim, (in_dim, out_dim), rng)
        self.bias = np.zeros(out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: Array | None = None

    def __call__(self, x: Array) -> Array:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"linear layer expects input [b x {self.in_dim}], got {x.shape}"
            )
        self._x = x
        return x @ self.weights + self.bias

    def backward(self, g: Array, input_grad: bool = True) -> Array | None:
        """Parameter gradients of the last forward; the input gradient unless
        ``input_grad`` is false (a first layer fed by data needs none)."""
        np.matmul(self._x.T, g, out=self.grad_weights)
        np.add.reduce(g, axis=0, out=self.grad_bias)
        return g @ self.weights.T if input_grad else None


class CondBatchNorm1d:
    """Batch normalization whose affine pair (gamma_i, beta_i) is picked per row
    by the row's class label.

    Batch statistics are pooled over the whole mini-batch (all classes
    together); only the affine transform is class-indexed. Variances are
    population (divide by b). Running statistics follow an exponential
    moving average with the given momentum and replace batch statistics in
    evaluation mode. Labels must lie in [0, num_classes) (``check_labels``).
    With ``num_classes=1`` and every label 0 this is plain batch
    normalization, one shared (gamma, beta) pair for all rows.
    """

    PARAMETERS = ("gamma", "beta")

    def __init__(self, num_classes: int, width: int,
                 eps: float = 1e-5, momentum: float = 0.1):
        if num_classes < 1 or width < 1:
            raise ShapeError("num_classes and width must be >= 1")
        if eps <= 0:
            raise ShapeError(f"eps must be positive, got {eps}")
        if not 0.0 < momentum < 1.0:
            raise ShapeError(f"momentum must lie in (0, 1), got {momentum}")
        self.num_classes = num_classes
        self.width = width
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones((num_classes, width))
        self.beta = np.zeros((num_classes, width))
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._cache: tuple | None = None

    def __call__(self, x: Array, labels: Array, training: bool) -> Array:
        if x.ndim != 2 or x.shape[1] != self.width:
            raise ShapeError(f"expected input [b x {self.width}], got {x.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        b = x.shape[0]
        if labels.shape != (b,):
            raise ShapeError(f"labels shape {labels.shape} does not match batch of {b}")
        gamma_rows = self.gamma[labels]
        if not training:
            normalized = ((x + self.running_mean * -1.0)
                          * ((self.running_var + self.eps) ** -0.5))
            return gamma_rows * normalized + self.beta[labels]
        if b < 2:
            raise ShapeError("training-mode normalization needs a batch of >= 2 "
                             "(variance of a single sample is undefined)")
        mean = x.sum(axis=0, keepdims=True) * (1.0 / b)
        centred = x + mean * -1.0
        var = (centred ** 2.0).sum(axis=0, keepdims=True) * (1.0 / b)
        self.running_mean = ((1.0 - self.momentum) * self.running_mean
                             + self.momentum * mean[0])
        self.running_var = ((1.0 - self.momentum) * self.running_var
                            + self.momentum * var[0])
        var_eps = var + self.eps
        scale = var_eps ** -0.5
        normalized = centred * scale
        self._cache = (labels, centred, var_eps, scale, normalized, gamma_rows)
        return gamma_rows * normalized + self.beta[labels]

    def backward(self, g: Array) -> Array:
        """Gradients of the last training forward; returns the input gradient."""
        labels, centred, var_eps, scale, normalized, gamma_rows = self._cache
        b = g.shape[0]
        self.grad_gamma.fill(0.0)
        np.add.at(self.grad_gamma, labels, g * normalized)
        self.grad_beta.fill(0.0)
        np.add.at(self.grad_beta, labels, g)
        g_normalized = g * gamma_rows
        g_centred = g_normalized * scale
        g_var = ((g_normalized * centred).sum(axis=0, keepdims=True)
                 * -0.5 * var_eps ** -1.5)
        g_var_branch = g_var * (1.0 / b) * 2.0 * centred ** 1.0
        g_mean = (g_var_branch.sum(axis=0, keepdims=True) * -1.0
                  + g_centred.sum(axis=0, keepdims=True) * -1.0)
        # the three paths into x add up in the tape's order
        return (g_var_branch + g_centred) + g_mean * (1.0 / b)
