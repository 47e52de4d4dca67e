"""The explicit training step against its tape composition, byte for byte.

``tests/model_reference.py`` builds the same step from autodiff ``Tensor``s.
The explicit forward/backward code repeats its float operations in order,
so the loss terms, every parameter gradient, the running statistics, the
evaluation-mode outputs and whole training runs must match exactly, not
within a tolerance.
"""

import numpy as np
import pytest

from c2bnvae.autodiff import Tensor
from c2bnvae.checkpoint import checkpoint_bytes
from c2bnvae.experiment import ExperimentConfig, load_encoded, preprocess
from c2bnvae.model import C2BNVAE, ModelConfig, reparameterize_t, train

import corpus
from model_reference import TapeModel, tape_train

PLACEMENTS = ("encoder_and_decoder", "decoder_only")


def desk_config(**overrides) -> ModelConfig:
    """The generator shape of the desk-train benchmark workload."""
    base = dict(feature_dim=123, num_classes=5, latent_dim=8, batch_size=32,
                lr=2e-3, kl_weight=5e-4, seed=11)
    base.update(overrides)
    return ModelConfig(**base)


def assert_step_matches_tape(model: C2BNVAE, x, labels) -> None:
    tape = TapeModel(model)

    mu, logvar = model.encode(x, labels, training=True)
    z, sigma, noise = reparameterize_t(mu, logvar, np.random.default_rng(5))
    x_hat = model.decode(z, labels, training=True)
    losses = model.loss(x, x_hat, mu, logvar)
    model.backward(x, x_hat, mu, logvar, sigma, noise)

    tape_losses = tape.step_loss(x, labels, np.random.default_rng(5))
    tape_grads = tape.backward(tape_losses[0])

    for ours, theirs in zip(losses, tape_losses):
        assert float(ours).hex() == theirs.item().hex()
    offset = 0
    for name, value in model.named_parameters().items():
        grad = model.grads[offset:offset + value.size].reshape(value.shape)
        offset += value.size
        assert grad.tobytes() == tape_grads[name].tobytes(), name
    for name, value in model.named_stats().items():
        assert value.tobytes() == tape.stats[name].tobytes(), name

    # evaluation mode, which generate uses, after the statistics moved
    z_eval = np.random.default_rng(6).standard_normal(z.shape)
    ours = model.decode(z_eval, labels, training=False)
    assert ours.tobytes() == tape.decode(Tensor(z_eval), labels, False).data.tobytes()
    mu_eval, logvar_eval = model.encode(x, labels, training=False)
    tape_mu, tape_logvar = tape.encode(Tensor(x), labels, False)
    assert mu_eval.tobytes() == tape_mu.data.tobytes()
    assert logvar_eval.tobytes() == tape_logvar.data.tobytes()


@pytest.mark.parametrize("latent", [8, 32])
@pytest.mark.parametrize("batch", [2, 3, 32, 128])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("use_cbn", [True, False])
def test_step_matches_tape(use_cbn, placement, batch, latent):
    model = C2BNVAE(desk_config(use_cbn=use_cbn, cbn_placement=placement,
                                latent_dim=latent))
    rng = np.random.default_rng(batch * 100 + latent)
    x = rng.random((batch, 123))
    # classes 1 and 3 never occur: their gamma/beta rows get zero gradients
    labels = rng.choice([0, 2, 4], size=batch)
    assert_step_matches_tape(model, x, labels)


@pytest.mark.parametrize("use_cbn", [True, False])
def test_step_matches_tape_with_clipped_logvars(use_cbn):
    model = C2BNVAE(desk_config(use_cbn=use_cbn, kl_weight=1.0))
    # push two thirds of the log-variance units outside [-10, 10]
    model.logvar_head.bias[0::3] = 12.0
    model.logvar_head.bias[1::3] = -12.0
    rng = np.random.default_rng(8)
    x = rng.random((16, 123))
    labels = rng.integers(0, 5, size=16)
    mu, raw = model.encode(x, labels)
    assert np.any(raw == 10.0) and np.any(raw == -10.0)
    assert np.any(np.abs(raw) < 10.0)
    assert_step_matches_tape(model, x, labels)


def test_consecutive_steps_match_tape():
    # the second step reads the moved running statistics and parameters
    model = C2BNVAE(desk_config(batch_size=3))
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.random((3, 123))
        labels = rng.integers(0, 5, size=3)
        assert_step_matches_tape(model, x, labels)
        model.params -= 0.01 * model.grads


@pytest.fixture(scope="module")
def desk_train_set(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("oracle")
    train_path, test_path = corpus.write_corpus(tmp)
    config = ExperimentConfig(train_path=str(train_path), test_path=str(test_path),
                              out_dir=str(tmp / "exp"))
    preprocess(config)
    return load_encoded(config)[0]


@pytest.mark.parametrize("use_cbn", [True, False])
def test_train_matches_tape_loop(desk_train_set, use_cbn):
    config = desk_config(use_cbn=use_cbn, epochs=3)
    ckpt, trace = train(desk_train_set, config)
    ref_ckpt, ref_trace = tape_train(desk_train_set.features, desk_train_set.labels,
                                     config, desk_train_set.schema.fingerprint)
    assert trace == ref_trace
    assert checkpoint_bytes(ckpt) == checkpoint_bytes(ref_ckpt)
