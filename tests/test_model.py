import json
import struct
import warnings

import numpy as np
import pytest

from c2bnvae.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from c2bnvae.errors import (CheckpointError, DataError, LabelError, ShapeError,
                            TrainingDiverged)
from c2bnvae.losses import LOGVAR_MAX, LOGVAR_MIN
from c2bnvae.model import (C2BNVAE, Checkpoint, ModelConfig, generate,
                           reparameterize_t, train)
from c2bnvae.nn import CondBatchNorm1d
from c2bnvae.nslkdd import EncodedDataset, synthetic_schema

from helpers import assert_backward_matches_finite_differences


def blobs(n=400, dim=6, seed=0) -> EncodedDataset:
    """Two well-separated Gaussian blob classes in [0,1]^d."""
    rng = np.random.default_rng(seed)
    half = n // 2
    c0 = rng.normal(0.25, 0.04, size=(half, dim))
    c1 = rng.normal(0.75, 0.04, size=(n - half, dim))
    return EncodedDataset(np.clip(np.vstack([c0, c1]), 0.0, 1.0),
                          np.array([0] * half + [1] * (n - half)), synthetic_schema(dim))


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
        data = blobs(n=200)
        ckpt, _ = train(data, blob_config(epochs=10))
        model = C2BNVAE.from_checkpoint(ckpt)
        x = np.tile(data.features[:1], (2, 1))
        mu, _ = model.encode(x, np.array([0, 1]), training=False)
        assert not np.allclose(mu[0], mu[1])

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
        data = blobs()
        _, trace = train(data, blob_config())
        assert len(trace) == 30
        assert trace[-1].total < trace[0].total
        first5 = np.mean([r.total for r in trace[:5]])
        last5 = np.mean([r.total for r in trace[-5:]])
        assert last5 < first5

    def test_same_seed_bit_identical_checkpoints(self):
        data = blobs()
        config = blob_config(epochs=5)
        ckpt_a, trace_a = train(data, config)
        ckpt_b, trace_b = train(data, config)
        assert trace_a == trace_b
        assert checkpoint_bytes(ckpt_a) == checkpoint_bytes(ckpt_b)

    def test_zero_epochs_equals_initialization(self):
        data = blobs()
        config = blob_config(epochs=0)
        ckpt, trace = train(data, config)
        assert trace == []
        fresh = C2BNVAE(config).to_checkpoint(ckpt.schema_fingerprint)
        assert checkpoint_bytes(ckpt) == checkpoint_bytes(fresh)

    def test_empty_dataset_rejected(self):
        empty = EncodedDataset(np.zeros((0, 6)), np.zeros(0, dtype=int), synthetic_schema(6))
        with pytest.raises(DataError, match="at least 2 rows"):
            train(empty, blob_config())

    def test_rejects_out_of_range_labels(self):
        # a valid category, but past the two classes the config trains
        data = blobs(n=64)
        labels = data.labels.copy()
        labels[3] = 2
        data = EncodedDataset(data.features, labels, data.schema)
        with pytest.raises(LabelError, match="label 2 out of range for 2 classes"):
            train(data, blob_config(epochs=1))

    def test_rejects_label_count_mismatch(self):
        # the dataset owns this check, so train never sees such a pair
        data = blobs(n=64)
        with pytest.raises(DataError, match=r"features \(64, 6\) and labels \(40,\)"):
            EncodedDataset(data.features, data.labels[:40], data.schema)

    def test_rejects_features_of_the_wrong_width(self):
        # the encoder's input is checked here, once, not on every forward
        data = blobs(n=64)
        with pytest.raises(ShapeError, match=r"expected \[n x 5\]"):
            train(data, blob_config(feature_dim=5, epochs=1))
        # a matrix that is not 2-D never becomes a dataset
        with pytest.raises(DataError, match="inconsistent"):
            EncodedDataset(data.features[:, 0], data.labels, data.schema)

    def test_singleton_batches_never_reach_the_normalization(self, monkeypatch):
        # 5 rows in batches of 2 leave a last batch of 1 each epoch, which
        # has no batch variance: train skips it
        sizes = []
        forward = CondBatchNorm1d.__call__

        def recording(self, x, labels, training):
            if training:
                sizes.append(x.shape[0])
            return forward(self, x, labels, training)

        monkeypatch.setattr(CondBatchNorm1d, "__call__", recording)
        train(blobs(n=5), blob_config(epochs=3, batch_size=2))
        assert sizes and min(sizes) == 2
        with pytest.raises(DataError, match="every batch was skipped"):
            train(blobs(n=5), blob_config(epochs=1, batch_size=1))
        with pytest.raises(DataError, match="at least 2 rows"):
            train(blobs(n=1), blob_config(epochs=1))

    def test_nan_features_abort_with_location(self):
        data = blobs(n=64)
        features = data.features.copy()
        features[0, 0] = np.nan
        data = EncodedDataset(features, data.labels, data.schema)
        with pytest.raises(TrainingDiverged, match=r"epoch 0, batch \d"):
            train(data, blob_config(epochs=1))

    def test_overflowing_training_diverges_without_a_warning(self):
        data = blobs(n=64)
        features = data.features.copy()
        features[0, 0] = 1e300  # the batch variance overflows
        data = EncodedDataset(features, data.labels, data.schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0"):
                train(data, blob_config(epochs=1))

    @pytest.mark.parametrize("poisoned", ["grads", "stats"])
    def test_non_finite_state_after_the_last_step_diverges(self, monkeypatch, poisoned):
        # one step, whose loss is finite: only the final check sees what the
        # step's NaN gradient or an overflowed running statistic left
        real_backward = C2BNVAE.backward

        def backward(self, *args):
            real_backward(self, *args)
            if poisoned == "grads":
                self.grads[0] = np.nan
            else:
                self.dec_norm.running_var[0] = np.inf

        monkeypatch.setattr(C2BNVAE, "backward", backward)
        with pytest.raises(TrainingDiverged, match=r"non-finite dec\.norm\.running_var "
                           if poisoned == "stats" else "non-finite enc"):
            train(blobs(n=64), blob_config(epochs=1, batch_size=64))


class TestGenerate:
    def test_range_and_shape(self):
        data = blobs()
        ckpt, _ = train(data, blob_config(epochs=2))
        out = generate(1, 1000, ckpt, np.random.default_rng(0))
        assert out.shape == (1000, 6)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_fixed_seed_reproducible(self):
        data = blobs()
        ckpt, _ = train(data, blob_config(epochs=2))
        a = generate(0, 10, ckpt, np.random.default_rng(5))
        b = generate(0, 10, ckpt, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_label_validation(self):
        data = blobs()
        ckpt, _ = train(data, blob_config(epochs=1))
        with pytest.raises(LabelError):
            generate(2, 5, ckpt, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            generate(0, 0, ckpt, np.random.default_rng(0))

    def test_conditioning_blob_centroids(self):
        data = blobs(n=600, seed=1)
        ckpt, _ = train(data, blob_config(epochs=60, seed=7))
        centroids = [data.features[data.labels == label].mean(axis=0) for label in (0, 1)]
        for label in (0, 1):
            samples = generate(label, 200, ckpt, np.random.default_rng(label))
            d_own = np.linalg.norm(samples - centroids[label], axis=1)
            d_other = np.linalg.norm(samples - centroids[1 - label], axis=1)
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
        data = blobs()
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["dec.out.W", "dec.norm.running_mean"])
    def test_non_finite_block_is_checkpoint_error(self, value, block):
        ckpt = self.make_checkpoint()
        arrays = ckpt.params if block in ckpt.params else ckpt.stats
        arrays[block].flat[-1] = value
        with pytest.raises(CheckpointError, match=f"block {block} holds a non-finite value"):
            load_checkpoint(checkpoint_bytes(ckpt))

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


@pytest.mark.parametrize("setting", [{"kl_weight": -1.0}, {"kl_weight": float("nan")},
                                     {"lr": float("nan")}, {"lr": 0.0}])
def test_config_rejects_bad_loss_and_step_settings(setting):
    with pytest.raises(ShapeError, match=next(iter(setting))):
        ModelConfig(feature_dim=123, num_classes=5, **setting)
    assert ModelConfig(feature_dim=123, num_classes=5, kl_weight=0.0).kl_weight == 0.0


@pytest.mark.parametrize("setting", [{"seed": -1}], ids=["seed=-1"])
def test_config_rejects_bad_layer_settings(setting):
    with pytest.raises(ShapeError, match=next(iter(setting))):
        ModelConfig(feature_dim=123, num_classes=5, **setting)


# a bad seed, and the layer constants that are not config fields: a header
# holding one of those is refused by name, whatever its value
BAD_LAYER_SETTINGS = [{"leaky_slope": 2.0}, {"leaky_slope": -0.1},
                      {"leaky_slope": float("nan")}, {"norm_eps": -1.0},
                      {"norm_eps": 0.0}, {"norm_eps": float("nan")},
                      {"norm_momentum": 1.5}, {"norm_momentum": 0.0},
                      {"norm_momentum": float("nan")}, {"seed": -1}]
BAD_LAYER_IDS = [f"{k}={v}" for d in BAD_LAYER_SETTINGS for k, v in d.items()]


@pytest.mark.parametrize("setting", BAD_LAYER_SETTINGS, ids=BAD_LAYER_IDS)
def test_checkpoint_with_a_bad_layer_setting_is_checkpoint_error(setting):
    raw = checkpoint_bytes(TestCheckpointIO().make_checkpoint())
    edited = TestCheckpointIO.with_header(
        raw, lambda h: {**h, "config": {**h["config"], **setting}})
    with pytest.raises(CheckpointError, match=next(iter(setting))):
        load_checkpoint(edited)


@pytest.mark.parametrize("setting", [
    {}, {"cbn_placement": "decoder_only"}, {"use_cbn": False},
    {"hidden_widths": (4,), "latent_dim": 2, "feature_dim": 6},
    {"hidden_widths": (8, 16, 3), "num_classes": 1, "cbn_placement": "decoder_only"}])
def test_parameter_count_is_the_built_vector(setting):
    config = ModelConfig(**{"feature_dim": 123, "num_classes": 5, **setting})
    assert config.parameter_count == C2BNVAE(config).params.size


def test_config_rejects_a_parameter_vector_past_numpy():
    with pytest.raises(ShapeError, match="more than one array can hold"):
        ModelConfig(feature_dim=123, num_classes=5, latent_dim=10 ** 20)


def test_unallocatable_generator_is_data_error():
    # 60 x 10**15 weights: 480 PB, past any process's address space
    config = ModelConfig(feature_dim=123, num_classes=5, hidden_widths=(60, 10 ** 15))
    with pytest.raises(DataError, match="cannot allocate"):
        C2BNVAE(config)


def test_logvar_head_output_is_clamped():
    model = C2BNVAE(blob_config())
    # blow up the logvar head bias so the clamp must engage
    model.logvar_head.bias[:] = 1e6
    _, logvar = model.encode(np.random.default_rng(0).random((3, 6)), np.array([0, 1, 0]))
    assert np.all(logvar <= LOGVAR_MAX)
    assert np.all(logvar >= LOGVAR_MIN)
