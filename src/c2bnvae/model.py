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

import hashlib
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .costing import LinearSpec, NormSpec
from .errors import DataError, LabelError, ShapeError, TrainingDiverged
from .losses import (LOGVAR_MAX, LOGVAR_MIN, kl_gaussian, kl_gaussian_grad, mse_loss,
                     mse_loss_grad)
from .nn import (CondBatchNorm1d, Linear, check_labels, flatten_parameters, leaky_relu,
                 leaky_relu_grad, one_hot, sigmoid, sigmoid_grad)
from .optim import Adam

Array = np.ndarray

CHECKPOINT_FORMAT_VERSION = 1

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
    leaky_slope: float = 0.01
    norm_eps: float = 1e-5
    norm_momentum: float = 0.1
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
        if self.lr <= 0:
            raise ShapeError(f"lr must be positive, got {self.lr}")
        if self.cbn_placement not in CBN_PLACEMENTS:
            raise ShapeError(f"cbn_placement must be one of {CBN_PLACEMENTS}, "
                             f"got {self.cbn_placement!r}")

    @property
    def encoder_input_dim(self) -> int:
        return self.feature_dim + self.num_classes

    @property
    def decoder_input_dim(self) -> int:
        return self.latent_dim + self.num_classes

    def architecture(self) -> dict[str, list]:
        """Cost-accounting descriptor: one entry per component."""
        widths = self.hidden_widths
        enc: list = [LinearSpec(self.encoder_input_dim, widths[0])]
        enc += [LinearSpec(a, b) for a, b in zip(widths, widths[1:])]
        if self.cbn_placement == "encoder_and_decoder":
            enc.append(NormSpec(widths[-1], self.num_classes if self.use_cbn else 1))
        enc += [LinearSpec(widths[-1], self.latent_dim)] * 2  # twin heads
        dec: list = [LinearSpec(self.decoder_input_dim, widths[0])]
        dec += [LinearSpec(a, b) for a, b in zip(widths, widths[1:])]
        dec.append(NormSpec(widths[-1], self.num_classes if self.use_cbn else 1))
        dec.append(LinearSpec(widths[-1], self.feature_dim))
        return {"encoder": enc, "decoder": dec}

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
    format_version: int = CHECKPOINT_FORMAT_VERSION

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
    layer. Labels must lie in [0, num_classes): ``train`` and ``generate``
    check them once per call (``nn.check_labels``), not on every forward.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = _derive_rngs(config.seed)[0]
        widths = config.hidden_widths
        norm_layer = partial(CondBatchNorm1d, config.num_classes if config.use_cbn else 1,
                             widths[-1], eps=config.norm_eps, momentum=config.norm_momentum)
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
            [layer for _, layer in self._named_layers()])
        # what backward needs from the last forward: hidden pre-activations
        # and which raw log-variances lay inside the clip range
        self._enc_pre: list[Array] = []
        self._dec_pre: list[Array] = []
        self._logvar_kept: Array | None = None

    # ------------------------------------------------------------------
    def _named_layers(self) -> list[tuple[str, object]]:
        named: list[tuple[str, object]] = []
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
        for name, layer in self._named_layers():
            if isinstance(layer, Linear):
                out[f"{name}.W"] = layer.weights
                out[f"{name}.b"] = layer.bias
            else:
                out[f"{name}.gamma"] = layer.gamma
                out[f"{name}.beta"] = layer.beta
        return out

    def named_stats(self) -> dict[str, Array]:
        out: dict[str, Array] = {}
        for name, layer in self._named_layers():
            if isinstance(layer, CondBatchNorm1d):
                out[f"{name}.running_mean"] = layer.running_mean
                out[f"{name}.running_var"] = layer.running_var
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _inputs(x, labels, width: int, what: str) -> tuple[Array, Array]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != width:
            raise ShapeError(f"{what} [b x {width}], got {x.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (x.shape[0],):
            raise ShapeError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
        return x, labels

    def _hidden(self, linears: list[Linear], h: Array) -> tuple[Array, list[Array]]:
        pre = []
        for lin in linears:
            pre.append(lin(h))
            h = leaky_relu(pre[-1], self.config.leaky_slope)
        return h, pre

    def _hidden_backward(self, linears: list[Linear], pre: list[Array], g: Array,
                         input_grad: bool) -> Array | None:
        slope = self.config.leaky_slope
        for i in range(len(linears) - 1, -1, -1):
            g = linears[i].backward(leaky_relu_grad(g, pre[i], slope),
                                    input_grad=input_grad or i > 0)
        return g

    def _banks(self, labels: Array) -> Array:
        """The normalization bank of each row: its class, or the one shared
        bank 0 of plain batch normalization."""
        return labels if self.config.use_cbn else np.zeros_like(labels)

    def encode(self, x, labels: Array, training: bool = False) -> tuple[Array, Array]:
        """Posterior mean and clipped log-variance of each row."""
        x, labels = self._inputs(x, labels, self.config.feature_dim,
                                 "encoder expects features")
        h = np.concatenate([x, one_hot(labels, self.config.num_classes)], axis=1)
        h, self._enc_pre = self._hidden(self.enc_linears, h)
        if self.enc_norm is not None:
            h = self.enc_norm(h, self._banks(labels), training)
        mu = self.mu_head(h)
        raw = self.logvar_head(h)
        self._logvar_kept = (raw >= LOGVAR_MIN) & (raw <= LOGVAR_MAX)
        return mu, np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)

    def decode(self, z, labels: Array, training: bool = False) -> Array:
        """Reconstructed features in (0, 1) for latent codes ``z``."""
        z, labels = self._inputs(z, labels, self.config.latent_dim,
                                 "decoder expects latents")
        h = np.concatenate([z, one_hot(labels, self.config.num_classes)], axis=1)
        h, self._dec_pre = self._hidden(self.dec_linears, h)
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
        g_z = self._hidden_backward(self.dec_linears, self._dec_pre, g,
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
        self._hidden_backward(self.enc_linears, self._enc_pre, g, input_grad=False)

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
    if mu.shape != logvar.shape:
        raise ShapeError(f"reparameterize shape mismatch: {mu.shape} vs {logvar.shape}")
    sigma = np.exp(np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX) * 0.5)
    noise = rng.standard_normal(mu.shape)
    return mu + sigma * noise, sigma, noise


def fallback_fingerprint(config: ModelConfig) -> str:
    """Stable stand-in digest for datasets that carry no encoding schema."""
    text = f"unschema:{config.feature_dim}:{config.num_classes}"
    return hashlib.sha256(text.encode()).hexdigest()


def train(dataset, config: ModelConfig,
          schema_fingerprint: str | None = None) -> tuple[Checkpoint, list[TraceRow]]:
    """Train on an encoded dataset; returns the checkpoint and per-epoch trace.

    ``dataset`` needs ``features`` ([n x feature_dim], entries in [0,1]) and
    ``labels`` ([n], ints below num_classes); an attached ``schema`` supplies
    the checkpoint fingerprint unless one is passed explicitly.
    """
    features = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = features.shape[0]
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    if n < 2:
        raise DataError("training needs at least 2 rows (batch statistics)")
    if features.ndim != 2 or features.shape[1] != config.feature_dim:
        raise ShapeError(f"dataset features are {features.shape}, "
                         f"expected [n x {config.feature_dim}]")
    labels = check_labels(labels, config.num_classes)
    if labels.size != n:
        raise DataError(f"dataset has {n} feature rows but {labels.size} labels")

    if schema_fingerprint is None:
        schema = getattr(dataset, "schema", None)
        schema_fingerprint = (schema.fingerprint if schema is not None
                              else fallback_fingerprint(config))

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
            mu, logvar = model.encode(xb, yb, training=True)
            z, sigma, noise = reparameterize_t(mu, logvar, noise_rng)
            x_hat = model.decode(z, yb, training=True)
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
    return model.to_checkpoint(schema_fingerprint), trace


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

