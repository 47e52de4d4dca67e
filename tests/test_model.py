import json
import struct

import numpy as np
import pytest

from c2bnvae.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from c2bnvae.errors import (CheckpointError, DataError, LabelError, ShapeError,
                            TrainingDiverged)
from c2bnvae.losses import LOGVAR_MAX, LOGVAR_MIN
from c2bnvae.model import (C2BNVAE, Checkpoint, ModelConfig, generate,
                           reparameterize_t, train)
from c2bnvae.nn import check_labels

from helpers import assert_backward_matches_finite_differences


class Blobs:
    """Two well-separated Gaussian blob classes in [0,1]^d."""

    def __init__(self, n=400, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        c0 = rng.normal(0.25, 0.04, size=(half, dim))
        c1 = rng.normal(0.75, 0.04, size=(n - half, dim))
        self.features = np.clip(np.vstack([c0, c1]), 0.0, 1.0)
        self.labels = np.array([0] * half + [1] * (n - half))
        self.centroids = np.vstack([c0.mean(axis=0), c1.mean(axis=0)])


def blob_config(**overrides) -> ModelConfig:
    base = dict(feature_dim=6, num_classes=2, latent_dim=4, hidden_widths=(16, 16),
                lr=3e-3, epochs=30, batch_size=64, seed=42)
    base.update(overrides)
    return ModelConfig(**base)


class TestEncodeDecode:
    def test_table_shapes(self):
        model = C2BNVAE(ModelConfig(feature_dim=123, num_classes=5))
        x = np.random.default_rng(0).random((4, 123))
        mu, logvar = model.encode(x, np.array([0, 1, 2, 3]))
        assert mu.shape == (4, 32)
        assert logvar.shape == (4, 32)

    def test_decoder_shapes_and_range(self):
        model = C2BNVAE(ModelConfig(feature_dim=123, num_classes=5))
        z = np.random.default_rng(1).normal(size=(2, 32))
        out = model.decode(z, np.array([0, 4]))
        assert out.shape == (2, 123)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_eval_mode_is_deterministic_per_row(self):
        model = C2BNVAE(ModelConfig(feature_dim=5, num_classes=3, latent_dim=2,
                                    hidden_widths=(8,)))
        x = np.tile(np.random.default_rng(2).random((1, 5)), (3, 1))
        mu, _ = model.encode(x, np.array([1, 1, 1]), training=False)
        assert np.array_equal(mu[0], mu[1])
        assert np.array_equal(mu[0], mu[2])
        again, _ = model.encode(x, np.array([1, 1, 1]), training=False)
        assert np.array_equal(mu, again)

    def test_label_reaches_the_network(self):
        data = Blobs(n=200)
        ckpt, _ = train(data, blob_config(epochs=10))
        model = C2BNVAE.from_checkpoint(ckpt)
        x = np.tile(data.features[:1], (2, 1))
        mu, _ = model.encode(x, np.array([0, 1]), training=False)
        assert not np.allclose(mu[0], mu[1])

    def test_encoder_validates_inputs(self):
        model = C2BNVAE(ModelConfig(feature_dim=5, num_classes=2))
        with pytest.raises(ShapeError):
            model.encode(np.zeros((2, 4)), np.array([0, 1]))
        with pytest.raises(ShapeError, match="labels shape"):
            model.encode(np.zeros((2, 5)), np.array([0, 1, 1]))
        # labels are range-checked once per train or generate call
        with pytest.raises(LabelError):
            check_labels(np.array([0, 2]), model.config.num_classes)

    def test_cbn_placement_decoder_only(self):
        model = C2BNVAE(ModelConfig(feature_dim=5, num_classes=2,
                                    cbn_placement="decoder_only"))
        assert model.enc_norm is None
        assert "dec.norm.gamma" in model.named_parameters()


class TestReparameterize:
    def test_clamp_floor_collapses_to_mean(self):
        mu = np.full((4, 3), 0.7)
        z, _, _ = reparameterize_t(mu, np.full((4, 3), -1e9), np.random.default_rng(0))
        assert np.max(np.abs(z - mu)) < 0.05  # sigma = exp(-5)

    def test_fixed_seed_reproducible(self):
        mu = np.zeros((3, 2))
        lv = np.zeros((3, 2))
        a, _, _ = reparameterize_t(mu, lv, np.random.default_rng(9))
        b, _, _ = reparameterize_t(mu, lv, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_statistical_moments(self):
        z, _, _ = reparameterize_t(np.zeros((100_000, 1)), np.zeros((100_000, 1)),
                                   np.random.default_rng(3))
        assert abs(z.mean()) < 5.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reparameterize_t(np.zeros((2, 2)), np.zeros((2, 3)), np.random.default_rng(0))


class TestLoss:
    def test_perfect_reconstruction_zero(self):
        model = C2BNVAE(blob_config())
        x = np.random.default_rng(0).random((3, 6))
        total, recon, regu = model.loss(x, x.copy(), np.zeros((3, 4)), np.zeros((3, 4)))
        assert (total.item(), recon.item(), regu.item()) == (0.0, 0.0, 0.0)

    def test_zero_kl_weight(self):
        model = C2BNVAE(blob_config(kl_weight=0.0))
        x = np.random.default_rng(1).random((3, 6))
        x_hat = np.random.default_rng(2).random((3, 6))
        mu = np.ones((3, 4))
        total, recon, _ = model.loss(x, x_hat, mu, np.zeros((3, 4)))
        assert total.item() == pytest.approx(recon.item())

    def test_additive_structure(self):
        model = C2BNVAE(blob_config(kl_weight=1.0))
        total, recon, regu = model.loss(np.zeros((1, 6)), np.ones((1, 6)) * 1.0,
                                        np.ones((1, 4)), np.zeros((1, 4)))
        assert total.item() == pytest.approx(recon.item() + regu.item())


class TestTrain:
    def test_loss_trace_decreases_on_blobs(self):
        data = Blobs()
        _, trace = train(data, blob_config())
        assert len(trace) == 30
        assert trace[-1].total < trace[0].total
        first5 = np.mean([r.total for r in trace[:5]])
        last5 = np.mean([r.total for r in trace[-5:]])
        assert last5 < first5

    def test_same_seed_bit_identical_checkpoints(self):
        data = Blobs()
        config = blob_config(epochs=5)
        ckpt_a, trace_a = train(data, config)
        ckpt_b, trace_b = train(data, config)
        assert trace_a == trace_b
        assert checkpoint_bytes(ckpt_a) == checkpoint_bytes(ckpt_b)

    def test_zero_epochs_equals_initialization(self):
        data = Blobs()
        config = blob_config(epochs=0)
        ckpt, trace = train(data, config)
        assert trace == []
        fresh = C2BNVAE(config).to_checkpoint(ckpt.schema_fingerprint)
        assert checkpoint_bytes(ckpt) == checkpoint_bytes(fresh)

    def test_empty_dataset_rejected(self):
        class Empty:
            features = np.zeros((0, 6))
            labels = np.zeros(0, dtype=int)

        with pytest.raises(DataError):
            train(Empty(), blob_config())

    def test_rejects_out_of_range_labels(self):
        data = Blobs(n=64)
        data.labels[3] = 2
        with pytest.raises(LabelError):
            train(data, blob_config(epochs=1))

    def test_rejects_label_count_mismatch(self):
        data = Blobs(n=64)
        data.labels = data.labels[:40]
        with pytest.raises(DataError, match="64 feature rows but 40 labels"):
            train(data, blob_config(epochs=1))

    def test_nan_features_abort_with_location(self):
        data = Blobs(n=64)
        data.features[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match=r"epoch 0, batch \d"):
            train(data, blob_config(epochs=1))


class TestGenerate:
    def test_range_and_shape(self):
        data = Blobs()
        ckpt, _ = train(data, blob_config(epochs=2))
        out = generate(1, 1000, ckpt, np.random.default_rng(0))
        assert out.shape == (1000, 6)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_fixed_seed_reproducible(self):
        data = Blobs()
        ckpt, _ = train(data, blob_config(epochs=2))
        a = generate(0, 10, ckpt, np.random.default_rng(5))
        b = generate(0, 10, ckpt, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_label_validation(self):
        data = Blobs()
        ckpt, _ = train(data, blob_config(epochs=1))
        with pytest.raises(LabelError):
            generate(2, 5, ckpt, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            generate(0, 0, ckpt, np.random.default_rng(0))

    def test_conditioning_blob_centroids(self):
        data = Blobs(n=600, seed=1)
        ckpt, _ = train(data, blob_config(epochs=60, seed=7))
        for label in (0, 1):
            samples = generate(label, 200, ckpt, np.random.default_rng(label))
            d_own = np.linalg.norm(samples - data.centroids[label], axis=1)
            d_other = np.linalg.norm(samples - data.centroids[1 - label], axis=1)
            assert np.mean(d_own < d_other) >= 0.9


class TestEndToEndGradients:
    def test_tiny_model_matches_finite_differences(self):
        config = ModelConfig(feature_dim=6, num_classes=2, latent_dim=2,
                             hidden_widths=(4,), seed=3)
        model = C2BNVAE(config)
        rng = np.random.default_rng(0)
        x = rng.random((5, 6))
        labels = np.array([0, 1, 0, 1, 1])
        assert_backward_matches_finite_differences(model, x, labels)


class TestCheckpointIO:
    def make_checkpoint(self):
        data = Blobs()
        ckpt, _ = train(data, blob_config(epochs=2))
        return ckpt

    def test_round_trip_bitwise(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "model.c2bn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == checkpoint_bytes(ckpt)
        a = generate(0, 8, ckpt, np.random.default_rng(11))
        b = generate(0, 8, loaded, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_corrupted_magic(self, tmp_path):
        ckpt = self.make_checkpoint()
        raw = bytearray(checkpoint_bytes(ckpt))
        raw[:4] = b"XXXX"
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bytes(raw))

    def test_truncated_file(self):
        ckpt = self.make_checkpoint()
        raw = checkpoint_bytes(ckpt)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(raw[: len(raw) // 2])

    def test_version_mismatch(self):
        ckpt = self.make_checkpoint()
        raw = bytearray(checkpoint_bytes(ckpt))
        raw[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bytes(raw))

    @staticmethod
    def with_header(raw: bytes, edit) -> bytes:
        """``raw`` with its JSON header replaced by ``edit(header)``."""
        (head_len,) = struct.unpack("<Q", raw[8:16])
        edited = edit(json.loads(raw[16:16 + head_len]))
        head = edited if isinstance(edited, bytes) else json.dumps(edited).encode()
        return raw[:8] + struct.pack("<Q", len(head)) + head + raw[16 + head_len:]

    @staticmethod
    def edit(key, value=None, sub=None, delete=False):
        def apply(header):
            target = header if sub is None else header[sub]
            if isinstance(target, list):
                target = target[0]
            if delete:
                del target[key]
            else:
                target[key] = value
            return header
        return apply

    @pytest.mark.parametrize("edit", [
        lambda h: [h],
        lambda h: "header",
        lambda h: b"\xff\xfe not utf-8",
        edit("config", delete=True),
        edit("config", 3),
        edit("bogus", 1, sub="config"),
        edit("feature_dim", "6", sub="config"),
        edit("feature_dim", True, sub="config"),
        edit("feature_dim", delete=True, sub="config"),
        edit("latent_dim", 0, sub="config"),
        edit("hidden_widths", ["16"], sub="config"),
        edit("use_cbn", "yes", sub="config"),
        edit("params", delete=True),
        edit("params", {}),
        edit("name", delete=True, sub="params"),
        edit("name", 3, sub="params"),
        edit("shape", "16", sub="params"),
        edit("shape", [-1], sub="params"),
        edit("shape", [True], sub="params"),
        edit("stats", delete=True),
        edit("schema_fingerprint", delete=True),
        edit("schema_fingerprint", 7),
    ])
    def test_malformed_header_is_checkpoint_error(self, edit):
        raw = checkpoint_bytes(self.make_checkpoint())
        with pytest.raises(CheckpointError):
            load_checkpoint(self.with_header(raw, edit))

    def test_block_of_partial_floats_is_checkpoint_error(self):
        raw = self.with_header(checkpoint_bytes(self.make_checkpoint()),
                               lambda h: h)
        (head_len,) = struct.unpack("<Q", raw[8:16])
        first = 16 + head_len
        (nbytes,) = struct.unpack("<Q", raw[first:first + 8])
        broken = (raw[:first] + struct.pack("<Q", nbytes - 3)
                  + raw[first + 8:first + 8 + nbytes - 3])
        with pytest.raises(CheckpointError, match="float64"):
            load_checkpoint(broken)

    def test_model_from_checkpoint_round_trips_bitwise(self):
        ckpt = self.make_checkpoint()
        again = C2BNVAE.from_checkpoint(ckpt).to_checkpoint(ckpt.schema_fingerprint)
        assert checkpoint_bytes(again) == checkpoint_bytes(ckpt)

    @pytest.mark.parametrize("case, match", [
        ("unknown parameter", "parameters do not match"),
        ("parameter shape", r"parameter dec\.out\.b has shape \(7,\)"),
        ("missing statistic", "statistics do not match"),
        ("statistic shape", r"statistic enc\.norm\.running_mean has shape \(3,\)"),
    ])
    def test_from_checkpoint_rejects_mismatched_arrays(self, case, match):
        ckpt = self.make_checkpoint()
        params, stats = dict(ckpt.params), dict(ckpt.stats)
        if case == "unknown parameter":
            params["enc.extra.W"] = np.zeros((2, 2))
        elif case == "parameter shape":
            params["dec.out.b"] = np.zeros(7)
        elif case == "missing statistic":
            del stats["dec.norm.running_var"]
        else:
            stats["enc.norm.running_mean"] = np.zeros(3)
        broken = Checkpoint(config=ckpt.config, params=params, stats=stats,
                            schema_fingerprint=ckpt.schema_fingerprint)
        with pytest.raises(DataError, match=match):
            C2BNVAE.from_checkpoint(broken)

    def test_fingerprint_required(self):
        with pytest.raises(DataError):
            Checkpoint(config=blob_config(), params={}, stats={}, schema_fingerprint="")


def test_config_defaults_match_published_setup():
    config = ModelConfig(feature_dim=123, num_classes=5)
    assert config.latent_dim == 32
    assert config.hidden_widths == (60, 60, 60, 60)
    assert config.lr == 1e-4
    assert config.epochs == 120
    assert config.batch_size == 128
    assert config.kl_weight == 1.0
    assert config.cbn_placement == "encoder_and_decoder"
    assert config.use_cbn
    assert config.encoder_input_dim == 128
    assert config.decoder_input_dim == 37


def test_logvar_head_output_is_clamped():
    model = C2BNVAE(blob_config())
    # blow up the logvar head bias so the clamp must engage
    model.logvar_head.bias[:] = 1e6
    _, logvar = model.encode(np.random.default_rng(0).random((3, 6)), np.array([0, 1, 0]))
    assert np.all(logvar <= LOGVAR_MAX)
    assert np.all(logvar >= LOGVAR_MIN)
