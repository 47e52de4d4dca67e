"""The generator's training step composed on the autodiff tape.

This is the gradient oracle for the explicit forward/backward code in
``c2bnvae.nn``, ``c2bnvae.losses`` and ``C2BNVAE.backward``: every layer is
written as ``Tensor`` operations, ``Tensor.backward`` derives the gradients,
and Adam updates one array at a time. ``tape_train`` is the training loop
in the same form. The explicit code must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from c2bnvae.autodiff import Tensor, as_tensor, concat
from c2bnvae.losses import LOGVAR_MAX, LOGVAR_MIN
from c2bnvae.model import (LEAKY_SLOPE, NORM_EPS, NORM_MOMENTUM, C2BNVAE, Checkpoint,
                           TraceRow, _derive_rngs)


def leaky_relu(t: Tensor, slope: float) -> Tensor:
    mask = np.where(t.data >= 0.0, 1.0, slope)

    def backward(g, a=t, m=mask):
        if a.requires_grad:
            a._accumulate(g * m)

    return Tensor._op(t.data * mask, (t,), backward)


def mse_loss(x, x_hat) -> Tensor:
    return ((as_tensor(x) - as_tensor(x_hat)) ** 2.0).mean()


def kl_gaussian(mu, logvar) -> Tensor:
    lv = as_tensor(logvar).clip(LOGVAR_MIN, LOGVAR_MAX)
    per_sample = (1.0 + lv - as_tensor(mu) ** 2.0 - lv.exp()).sum(axis=1) * (-0.5)
    return per_sample.mean()


class TapeModel:
    """A ``C2BNVAE``'s parameters as leaf ``Tensor``s, composed on the tape."""

    def __init__(self, model: C2BNVAE):
        self.config = model.config
        self.params = {name: Tensor(value.copy(), requires_grad=True)
                       for name, value in model.named_parameters().items()}
        self.stats = {name: value.copy() for name, value in model.named_stats().items()}
        self.n_hidden = len(model.config.hidden_widths)

    def _linear(self, name: str, t: Tensor) -> Tensor:
        return t @ self.params[f"{name}.W"] + self.params[f"{name}.b"]

    def _norm(self, name: str, t: Tensor, labels, training: bool) -> Tensor:
        if not self.config.use_cbn:
            labels = np.zeros(t.data.shape[0], dtype=np.int64)
        momentum, eps = NORM_MOMENTUM, NORM_EPS
        mean_key, var_key = f"{name}.running_mean", f"{name}.running_var"
        if training:
            mu = t.mean(axis=0, keepdims=True)
            var = ((t - mu) ** 2.0).mean(axis=0, keepdims=True)
            self.stats[mean_key] = ((1.0 - momentum) * self.stats[mean_key]
                                    + momentum * mu.data[0])
            self.stats[var_key] = ((1.0 - momentum) * self.stats[var_key]
                                   + momentum * var.data[0])
            normalized = (t - mu) * ((var + eps) ** -0.5)
        else:
            normalized = ((t - self.stats[mean_key])
                          * ((self.stats[var_key] + eps) ** -0.5))
        gamma_rows = self.params[f"{name}.gamma"].take_rows(labels)
        beta_rows = self.params[f"{name}.beta"].take_rows(labels)
        return gamma_rows * normalized + beta_rows

    def _one_hot(self, labels) -> Tensor:
        out = np.zeros((len(labels), self.config.num_classes))
        out[np.arange(len(labels)), labels] = 1.0
        return Tensor(out)

    def encode(self, x, labels, training: bool):
        h = concat([as_tensor(x), self._one_hot(labels)], axis=1)
        for i in range(self.n_hidden):
            h = leaky_relu(self._linear(f"enc.lin{i}", h), LEAKY_SLOPE)
        if self.config.cbn_placement == "encoder_and_decoder":
            h = self._norm("enc.norm", h, labels, training)
        mu = self._linear("enc.mu", h)
        logvar = self._linear("enc.logvar", h).clip(LOGVAR_MIN, LOGVAR_MAX)
        return mu, logvar

    def decode(self, z, labels, training: bool) -> Tensor:
        h = concat([as_tensor(z), self._one_hot(labels)], axis=1)
        for i in range(self.n_hidden):
            h = leaky_relu(self._linear(f"dec.lin{i}", h), LEAKY_SLOPE)
        h = self._norm("dec.norm", h, labels, training)
        return self._linear("dec.out", h).sigmoid()

    def step_loss(self, x, labels, noise_rng):
        """The training forward of one batch: ``(total, recon, regu)``."""
        xb = Tensor(x)
        mu, logvar = self.encode(xb, labels, training=True)
        sigma = (logvar.clip(LOGVAR_MIN, LOGVAR_MAX) * 0.5).exp()
        z = mu + sigma * Tensor(noise_rng.standard_normal(mu.data.shape))
        x_hat = self.decode(z, labels, training=True)
        recon = mse_loss(xb, x_hat)
        regu = kl_gaussian(mu, logvar)
        return recon + self.config.kl_weight * regu, recon, regu

    def backward(self, total: Tensor) -> dict[str, np.ndarray]:
        for p in self.params.values():
            p.grad = None
        total.backward()
        return {name: p.grad for name, p in self.params.items()}


def adam_step(params, grads, moments, step_count: int, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Adam one array at a time, in the expression order the flat update keeps."""
    bias1 = 1.0 - beta1**step_count
    bias2 = 1.0 - beta2**step_count
    for p, g, (m, v) in zip(params, grads, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def tape_train(features, labels, config, schema_fingerprint: str):
    """``model.train``'s loop on the tape: ``(Checkpoint, trace)``."""
    tape = TapeModel(C2BNVAE(config))
    _, shuffle_rng, noise_rng = _derive_rngs(config.seed)
    params = list(tape.params.values())
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    n = len(labels)
    trace, steps = [], 0
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        seen = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue
            total, recon, regu = tape.step_loss(features[idx], labels[idx], noise_rng)
            grads = tape.backward(total)
            steps += 1
            adam_step([p.data for p in params], list(grads.values()), moments,
                      steps, config.lr)
            sums += idx.size * np.array([recon.item(), regu.item(), total.item()])
            seen += idx.size
        trace.append(TraceRow(epoch, *(sums / seen)))
    ckpt = Checkpoint(config=config,
                      params={k: p.data.copy() for k, p in tape.params.items()},
                      stats={k: v.copy() for k, v in tape.stats.items()},
                      schema_fingerprint=schema_fingerprint)
    return ckpt, trace
