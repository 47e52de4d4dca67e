"""Dense layers, activations and conditional batch normalization.

Every layer works on plain float64 arrays. A forward call keeps what the
backward pass needs, and ``backward(g)`` takes the loss gradient with
respect to the layer's output, writes the gradients of the layer's
parameters into its ``grad_*`` arrays and returns the gradient with respect
to its input. Each expression keeps every rounded operation of the
autodiff tape's composition of the same layer (``tests/model_reference.py``),
in the tape's order, so the two agree bit for bit; only where results are
stored may differ (a copy skipped, a sum written in place).

Nothing here checks its arguments. ``model.C2BNVAE`` is the only caller in
the package, and it passes arrays built from inputs that ``ModelConfig``,
``model.train``, ``model.generate`` and ``C2BNVAE.from_checkpoint`` have
already checked.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def he_init(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> Array:
    """Zero-mean normal draw with variance 2/fan_in (He initialization)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def leaky_relu(x: Array, slope: float) -> tuple[Array, Array]:
    """Elementwise max(x, slope*x) and the multiplier that gave it (1 or
    ``slope``; the subgradient at 0 is taken as 1).

    The multiplier is also the local gradient, so a backward pass keeps it
    and computes ``g * multiplier`` instead of comparing ``x`` again.

    ``slope`` must lie in [0, 1]. The multiplier is then the larger of the
    comparison (1.0 or 0.0) and ``slope``, which gives the bits of
    ``np.where(x >= 0.0, 1.0, slope)`` (NaN compares false and gets
    ``slope``) without its per-element branch.
    """
    multiplier = np.maximum(x >= 0.0, slope)
    return x * multiplier, multiplier


def sigmoid(x: Array) -> Array:
    """Logistic function, in a split form that cannot overflow ``exp``:
    1/(1+e) where x >= 0 and e/(1+e) elsewhere, with e = exp(-|x|).

    Since 0 <= e <= 1, the numerator is the larger of e and the comparison
    (1.0 or 0.0): the bits of ``np.where(x >= 0, 1.0, e)`` without its
    per-element branch (at NaN, e is NaN and ``np.maximum`` keeps it)."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid_grad(g: Array, y: Array) -> Array:
    """Gradient through ``sigmoid`` given its output ``y``."""
    return g * y * (1.0 - y)


def one_hot(labels: Array, num_classes: int) -> Array:
    """Label indices -> one-hot rows; the labels were checked where they
    entered (``EncodedDataset``, ``model.train``, ``model.generate``)."""
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
        self._x = x
        out = x @ self.weights
        out += self.bias
        return out

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
    evaluation mode. With ``num_classes=1`` and every label 0 this is plain
    batch normalization, one shared (gamma, beta) pair for all rows.

    The layer trusts its caller: ``model.C2BNVAE`` passes the constants
    ``NORM_EPS`` and ``NORM_MOMENTUM``, ``model.train`` and
    ``model.generate`` check the labels (int64, in [0, num_classes)), and
    ``train`` skips the singleton batches whose variance would be undefined.
    """

    PARAMETERS = ("gamma", "beta")

    def __init__(self, num_classes: int, width: int,
                 eps: float = 1e-5, momentum: float = 0.1):
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
        gamma_rows = self.gamma[labels]
        if not training:
            normalized = ((x + self.running_mean * -1.0)
                          * ((self.running_var + self.eps) ** -0.5))
            out = gamma_rows * normalized
            out += self.beta[labels]
            return out
        b = x.shape[0]
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
        out = gamma_rows * normalized
        out += self.beta[labels]
        return out

    def backward(self, g: Array) -> Array:
        """Gradients of the last training forward; returns the input gradient."""
        labels, centred, var_eps, scale, normalized, gamma_rows = self._cache
        b = g.shape[0]
        # each row's gradient goes to cell (label, column) of its bank;
        # bincount adds the rows in row order from 0.0, as a scatter-add
        # into zeros does, so the sums match the tape's bit for bit
        cells = (labels[:, None] * self.width + np.arange(self.width)).ravel()
        for grad, rows in ((self.grad_gamma, g * normalized), (self.grad_beta, g)):
            grad[...] = np.bincount(cells, rows.ravel(), grad.size).reshape(grad.shape)
        g_normalized = g * gamma_rows
        g_centred = g_normalized * scale
        g_var = ((g_normalized * centred).sum(axis=0, keepdims=True)
                 * -0.5 * var_eps ** -1.5)
        g_var_branch = g_var * (1.0 / b) * 2.0 * centred
        g_mean = (g_var_branch.sum(axis=0, keepdims=True) * -1.0
                  + g_centred.sum(axis=0, keepdims=True) * -1.0)
        # the three paths into x add up in the tape's order
        g_var_branch += g_centred
        g_var_branch += g_mean * (1.0 / b)
        return g_var_branch
