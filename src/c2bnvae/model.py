"""Conditional VAE with class-conditional batch normalization.

The class label conditions the model twice: it is one-hot concatenated onto
the encoder input and onto the latent code fed to the decoder, and it
selects the per-class affine pair inside each conditional normalization
layer. Setting ``use_cbn=False`` gives each normalization layer a single
affine pair and feeds it class 0 for every row, which is plain batch
normalization: the standard-CVAE baseline.

Layout (defaults reproduce the published shapes when feature_dim=123,
num_classes=5): encoder runs feature+label through four LeakyReLU hidden
layers, one width-60 normalization after the last activation, then twin
linear heads emit the posterior mean and log-variance. The decoder mirrors
it from latent+label and squashes its output to (0,1) with a logistic,
matching min-max scaled features.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DataError, LabelError, ShapeError, TrainingDiverged
from .losses import (LOGVAR_MAX, LOGVAR_MIN, clip_logvar, kl_gaussian, kl_gaussian_grad,
                     mse_loss, mse_loss_grad)
from .nn import (CondBatchNorm1d, Linear, flatten_parameters, leaky_relu, one_hot,
                 sigmoid, sigmoid_grad)
from .nslkdd import EncodedDataset
from .optim import Adam

Array = np.ndarray

# the layers' fixed constants: the LeakyReLU slope of every hidden layer and
# the normalization layers' variance epsilon and running-statistics momentum
LEAKY_SLOPE = 0.01
NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1

CBN_PLACEMENTS = ("decoder_only", "encoder_and_decoder")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# checks for the JSON value of a config field, by annotation
_FIELD_CHECKS = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(_is_int(w) for w in v),
}


def check_config_fields(cls, d, what: str) -> None:
    """Raise DataError unless ``d`` is a JSON object whose keys are fields of
    the dataclass ``cls`` and whose values fit those fields' annotations."""
    if not isinstance(d, dict):
        raise DataError(f"{what} must be a JSON object, got {type(d).__name__}")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(kinds))
    if unknown:
        raise DataError(f"unknown {what} keys {unknown}")
    for name, value in d.items():
        if not _FIELD_CHECKS[kinds[name]](value):
            raise DataError(f"{what} {name} has ill-typed value {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    num_classes: int
    latent_dim: int = 32
    hidden_widths: tuple[int, ...] = (60, 60, 60, 60)
    lr: float = 1e-4
    epochs: int = 120
    batch_size: int = 128
    kl_weight: float = 1.0
    cbn_placement: str = "encoder_and_decoder"
    use_cbn: bool = True
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        for name in ("feature_dim", "num_classes", "latent_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ShapeError(f"hidden_widths must be nonempty positive, got {self.hidden_widths}")
        if self.epochs < 0:
            raise ShapeError(f"epochs must be >= 0, got {self.epochs}")
        if not self.lr > 0:  # also rejects NaN
            raise ShapeError(f"lr must be positive, got {self.lr}")
        if not self.kl_weight >= 0:
            raise ShapeError(f"kl_weight must be >= 0, got {self.kl_weight}")
        if self.cbn_placement not in CBN_PLACEMENTS:
            raise ShapeError(f"cbn_placement must be one of {CBN_PLACEMENTS}, "
                             f"got {self.cbn_placement!r}")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")
        # every parameter lives in one float64 vector, and numpy cannot even
        # describe an array past this many bytes
        if 8 * self.parameter_count > np.iinfo(np.intp).max:
            raise ShapeError(f"these widths give {self.parameter_count} parameters, "
                             f"more than one array can hold")

    @property
    def parameter_count(self) -> int:
        """The length of the parameter vector of the ``C2BNVAE`` this builds."""
        widths = self.hidden_widths

        def linears(dims):
            return sum(a * b + b for a, b in zip(dims, dims[1:]))

        norms = 2 if self.cbn_placement == "encoder_and_decoder" else 1
        return (linears((self.encoder_input_dim,) + widths)
                + 2 * linears((widths[-1], self.latent_dim))
                + linears((self.decoder_input_dim,) + widths + (self.feature_dim,))
                + norms * 2 * (self.num_classes if self.use_cbn else 1) * widths[-1])

    @property
    def encoder_input_dim(self) -> int:
        return self.feature_dim + self.num_classes

    @property
    def decoder_input_dim(self) -> int:
        return self.latent_dim + self.num_classes

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_widths": list(self.hidden_widths)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; raises DataError for a key that is unknown,
        missing or ill-typed, and for a value the constructor rejects."""
        check_config_fields(cls, d, "model config")
        try:
            return cls(**d)
        except (TypeError, ShapeError) as exc:  # a required key is missing, or a bad value
            raise DataError(f"bad model config: {exc}") from exc


@dataclass
class Checkpoint:
    """All trainable parameters plus running statistics, serializable."""
    config: ModelConfig
    params: dict[str, Array]
    stats: dict[str, Array]
    schema_fingerprint: str

    def __post_init__(self):
        if not self.schema_fingerprint:
            raise DataError("checkpoint schema fingerprint must be non-empty")


class TraceRow(NamedTuple):
    epoch: int
    recon: float
    regu: float
    total: float


def _derive_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    # one stream each for initialization, shuffling and reparameterization noise
    init_ss, shuffle_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    return (np.random.default_rng(init_ss), np.random.default_rng(shuffle_ss),
            np.random.default_rng(noise_ss))


class C2BNVAE:
    """The generator: encoder, reparameterization and decoder.

    All parameters live in one contiguous vector ``params``, and every
    layer's weights are views of it; ``backward`` writes the matching views
    of ``grads``, so one ``Adam`` update over the two vectors trains every
    layer.

    Data is checked where it enters: ``EncodedDataset`` checks the arrays'
    shapes and the label range, ``train`` the feature width, the row count
    and the labels against the configured classes, ``generate`` the row
    count and the label, ``from_checkpoint`` the arrays' names and shapes,
    and ``ModelConfig`` every setting. The methods below trust their
    arguments: float64 arrays of the configured widths, int64 labels in
    [0, num_classes), and a batch of at least 2 rows in training mode.
    """

    def __init__(self, config: ModelConfig):
        try:
            self._build(config)
        except MemoryError:
            raise DataError(f"cannot allocate a generator of {config.parameter_count} "
                            f"parameters") from None

    def _build(self, config: ModelConfig) -> None:
        self.config = config
        rng = _derive_rngs(config.seed)[0]
        widths = config.hidden_widths
        norm_layer = partial(CondBatchNorm1d, config.num_classes if config.use_cbn else 1,
                             widths[-1], eps=NORM_EPS, momentum=NORM_MOMENTUM)
        dims = (config.encoder_input_dim,) + widths
        self.enc_linears = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.enc_norm = (norm_layer()
                         if config.cbn_placement == "encoder_and_decoder" else None)
        self.mu_head = Linear(widths[-1], config.latent_dim, rng)
        self.logvar_head = Linear(widths[-1], config.latent_dim, rng)
        dims = (config.decoder_input_dim,) + widths
        self.dec_linears = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.dec_norm = norm_layer()
        self.out_layer = Linear(widths[-1], config.feature_dim, rng)
        self.params, self.grads = flatten_parameters(
            [layer for _, layer in self.named_layers()])
        # what backward needs from the last forward: the hidden layers'
        # LeakyReLU multipliers and which raw log-variances lay inside the
        # clip range
        self._enc_multipliers: list[Array] = []
        self._dec_multipliers: list[Array] = []
        self._logvar_kept: Array | None = None

    # ------------------------------------------------------------------
    def named_layers(self) -> list[tuple[str, Linear | CondBatchNorm1d]]:
        """Every layer in parameter order, named ``enc.*`` or ``dec.*`` by the
        half of the model it belongs to."""
        named: list[tuple[str, Linear | CondBatchNorm1d]] = []
        named += [(f"enc.lin{i}", layer) for i, layer in enumerate(self.enc_linears)]
        if self.enc_norm is not None:
            named.append(("enc.norm", self.enc_norm))
        named += [("enc.mu", self.mu_head), ("enc.logvar", self.logvar_head)]
        named += [(f"dec.lin{i}", layer) for i, layer in enumerate(self.dec_linears)]
        named += [("dec.norm", self.dec_norm), ("dec.out", self.out_layer)]
        return named

    def named_parameters(self) -> dict[str, Array]:
        """Views of ``params``, one per layer parameter."""
        out: dict[str, Array] = {}
        for name, layer in self.named_layers():
            if isinstance(layer, Linear):
                out[f"{name}.W"] = layer.weights
                out[f"{name}.b"] = layer.bias
            else:
                out[f"{name}.gamma"] = layer.gamma
                out[f"{name}.beta"] = layer.beta
        return out

    def named_stats(self) -> dict[str, Array]:
        out: dict[str, Array] = {}
        for name, layer in self.named_layers():
            if isinstance(layer, CondBatchNorm1d):
                out[f"{name}.running_mean"] = layer.running_mean
                out[f"{name}.running_var"] = layer.running_var
        return out

    # ------------------------------------------------------------------
    def _hidden(self, linears: list[Linear], h: Array) -> tuple[Array, list[Array]]:
        multipliers = []
        for lin in linears:
            h, multiplier = leaky_relu(lin(h), LEAKY_SLOPE)
            multipliers.append(multiplier)
        return h, multipliers

    def _hidden_backward(self, linears: list[Linear], multipliers: list[Array], g: Array,
                         input_grad: bool) -> Array | None:
        for i in range(len(linears) - 1, -1, -1):
            g = linears[i].backward(g * multipliers[i], input_grad=input_grad or i > 0)
        return g

    def _banks(self, labels: Array) -> Array:
        """The normalization bank of each row: its class, or the one shared
        bank 0 of plain batch normalization."""
        return labels if self.config.use_cbn else np.zeros_like(labels)

    def encode(self, x: Array, labels: Array, training: bool = False,
               hot: Array | None = None) -> tuple[Array, Array]:
        """Posterior mean and clipped log-variance of each row; ``hot`` is
        ``one_hot(labels)`` if the caller has already built it."""
        if hot is None:
            hot = one_hot(labels, self.config.num_classes)
        h = np.concatenate([x, hot], axis=1)
        h, self._enc_multipliers = self._hidden(self.enc_linears, h)
        if self.enc_norm is not None:
            h = self.enc_norm(h, self._banks(labels), training)
        mu = self.mu_head(h)
        raw = self.logvar_head(h)
        self._logvar_kept = (raw >= LOGVAR_MIN) & (raw <= LOGVAR_MAX)
        return mu, clip_logvar(raw)

    def decode(self, z: Array, labels: Array, training: bool = False,
               hot: Array | None = None) -> Array:
        """Reconstructed features in (0, 1) for latent codes ``z``; ``hot`` as
        in ``encode``."""
        if hot is None:
            hot = one_hot(labels, self.config.num_classes)
        h = np.concatenate([z, hot], axis=1)
        h, self._dec_multipliers = self._hidden(self.dec_linears, h)
        h = self.dec_norm(h, self._banks(labels), training)
        return sigmoid(self.out_layer(h))

    def loss(self, x, x_hat, mu, logvar) -> tuple[float, float, float]:
        recon = mse_loss(x, x_hat)
        regu = kl_gaussian(mu, logvar)
        total = recon + self.config.kl_weight * regu
        return total, recon, regu

    def backward(self, x: Array, x_hat: Array, mu: Array, logvar: Array,
                 sigma: Array, noise: Array) -> None:
        """Write into ``grads`` the gradient of ``loss(x, x_hat, mu, logvar)``.

        ``mu`` and ``logvar`` come from the last training ``encode``, and
        ``x_hat`` from the last training ``decode`` of ``mu + sigma * noise``
        (``reparameterize_t``).
        """
        g = sigmoid_grad(mse_loss_grad(x, x_hat), x_hat)
        g = self.dec_norm.backward(self.out_layer.backward(g))
        g_z = self._hidden_backward(self.dec_linears, self._dec_multipliers, g,
                                    input_grad=True)[:, :self.config.latent_dim]
        g_mu, g_logvar = kl_gaussian_grad(mu, logvar, self.config.kl_weight)
        g_mu = g_mu + g_z
        # logvar is already clipped, so the clip inside reparameterize_t
        # passes every gradient through unchanged
        g_logvar = g_logvar + g_z * noise * sigma * 0.5
        g = (self.mu_head.backward(g_mu)
             + self.logvar_head.backward(g_logvar * self._logvar_kept))
        if self.enc_norm is not None:
            g = self.enc_norm.backward(g)
        self._hidden_backward(self.enc_linears, self._enc_multipliers, g,
                              input_grad=False)

    # ------------------------------------------------------------------
    def to_checkpoint(self, schema_fingerprint: str) -> Checkpoint:
        params = {k: v.copy() for k, v in self.named_parameters().items()}
        stats = {k: v.copy() for k, v in self.named_stats().items()}
        return Checkpoint(config=self.config, params=params, stats=stats,
                          schema_fingerprint=schema_fingerprint)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "C2BNVAE":
        model = cls(ckpt.config)
        for what, targets, values in (("parameter", model.named_parameters(), ckpt.params),
                                      ("statistic", model.named_stats(), ckpt.stats)):
            if set(targets) != set(values):
                raise DataError(f"checkpoint {what}s do not match the configured architecture")
            for name, target in targets.items():
                value = np.asarray(values[name], dtype=np.float64)
                if value.shape != target.shape:
                    raise DataError(f"checkpoint {what} {name} has shape {value.shape}, "
                                    f"expected {target.shape}")
                target[...] = value  # write into the layer's array; rebinding would detach it
        return model


def reparameterize_t(mu: Array, logvar: Array,
                     rng: np.random.Generator) -> tuple[Array, Array, Array]:
    """z = mu + exp(logvar / 2) * standard normal noise.

    Returns ``(z, sigma, noise)``; ``C2BNVAE.backward`` needs the last two.
    """
    sigma = np.exp(clip_logvar(logvar) * 0.5)
    noise = rng.standard_normal(mu.shape)
    return mu + sigma * noise, sigma, noise


def train(dataset: EncodedDataset,
          config: ModelConfig) -> tuple[Checkpoint, list[TraceRow]]:
    """Train on an encoded dataset; returns the checkpoint, which carries the
    dataset's schema fingerprint, and the per-epoch trace.

    ``EncodedDataset`` has already made ``features`` a float64 matrix and
    ``labels`` an int64 vector of as many rows, with no label below 0; this
    checks that the width is ``config.feature_dim``, that there are at least
    2 rows and that every label lies below ``config.num_classes``, which can
    be fewer than the dataset's categories.
    """
    features, labels = dataset.features, dataset.labels
    n = features.shape[0]
    if n < 2:
        raise DataError(f"training needs at least 2 rows (batch statistics), got {n}")
    if features.shape[1] != config.feature_dim:
        raise ShapeError(f"dataset features are {features.shape}, "
                         f"expected [n x {config.feature_dim}]")
    if labels.max() >= config.num_classes:
        raise LabelError(f"label {int(labels.max())} out of range for "
                         f"{config.num_classes} classes")

    model = C2BNVAE(config)
    _, shuffle_rng, noise_rng = _derive_rngs(config.seed)
    optimizer = Adam(model.params, model.grads, lr=config.lr)
    trace: list[TraceRow] = []
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        seen = 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue  # a singleton batch has undefined batch variance
            xb = features[idx]
            yb = labels[idx]
            hot = one_hot(yb, config.num_classes)
            mu, logvar = model.encode(xb, yb, training=True, hot=hot)
            z, sigma, noise = reparameterize_t(mu, logvar, noise_rng)
            x_hat = model.decode(z, yb, training=True, hot=hot)
            total, recon, regu = model.loss(xb, x_hat, mu, logvar)
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}")
            model.backward(xb, x_hat, mu, logvar, sigma, noise)
            optimizer.step()
            sums += idx.size * np.array([recon, regu, total])
            seen += idx.size
        if seen == 0:
            raise DataError("every batch was skipped; increase the dataset size")
        trace.append(TraceRow(epoch, *(sums / seen)))
    return model.to_checkpoint(dataset.schema.fingerprint), trace


def generate(label: int, n: int, checkpoint: Checkpoint,
             rng: np.random.Generator) -> Array:
    """Draw n rows for one class: z ~ N(0, I) decoded in evaluation mode."""
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    config = checkpoint.config
    if not 0 <= label < config.num_classes:
        raise LabelError(f"label {label} out of range for {config.num_classes} classes")
    model = C2BNVAE.from_checkpoint(checkpoint)
    z = rng.standard_normal((n, config.latent_dim))
    labels = np.full(n, label, dtype=np.int64)
    return model.decode(z, labels, training=False)

