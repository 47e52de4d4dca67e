"""The binary container of encoded datasets (.c2ds) and checkpoints (.ckpt).

Golden digests pin both on-disk layouts across commits; the fuzz tests
require that every mutation of a valid file either loads or ends as the
loader's typed error, never as a raw numpy, memory or overflow error.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2bnvae.checkpoint import checkpoint_bytes, load_checkpoint
from c2bnvae.errors import CheckpointError, DataError
from c2bnvae.model import Checkpoint, ModelConfig
from c2bnvae.nslkdd import (EncodedDataset, load_dataset, save_dataset,
                            synthetic_schema)

from helpers import version_1_checkpoint

# sha256 of the two files below: the checkpoint as format version 2 writes
# it, the dataset as version 1 does; a change here is a change of the
# on-disk format
CHECKPOINT_SHA256 = "dd43a516bc3d3d83d657d4c9714395e3933820a3f0700c7ff5ea32be5bd334b0"
# the checkpoint below as checkpoint format version 1 wrote it
CHECKPOINT_V1_SHA256 = "56279f56cb79a5f951c62617c894c4ee80b39f52a3af88671cae25e4ccb193de"
DATASET_SHA256 = "32409a7d753f267f075b82dec8e1e026331a274147cd3cf004579100f4199ce3"
U64_MAX = 2 ** 64 - 1


def tiny_checkpoint() -> Checkpoint:
    config = ModelConfig(feature_dim=3, num_classes=2, latent_dim=2, hidden_widths=(4,),
                         epochs=1, batch_size=2, seed=9)
    params = {"enc.w": np.arange(12.0).reshape(3, 4) / 7.0,
              "dec.b": np.array([-0.5, 0.25, 1e-300])}
    stats = {"dec.norm.running_mean": np.array([[0.125, -2.0]])}
    return Checkpoint(config=config, params=params, stats=stats,
                      schema_fingerprint="ab" * 32)


def tiny_dataset() -> EncodedDataset:
    return EncodedDataset(features=np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0 / 3.0]]),
                          labels=np.array([0, 4]), schema=synthetic_schema(3))


def tiny_checkpoint_bytes() -> bytes:
    return checkpoint_bytes(tiny_checkpoint(), manifest={"seed": 7})


def tiny_dataset_bytes(tmp_path) -> bytes:
    path = tmp_path / "tiny.c2ds"
    save_dataset(tiny_dataset(), path, fmt="binary", manifest={"seed": 7})
    return path.read_bytes()


def length_offsets(raw: bytes) -> list[int]:
    """Offsets of every u64 length field: the header's, then each block's."""
    (head_len,) = struct.unpack_from("<Q", raw, 8)
    offsets, pos = [8], 16 + head_len
    while pos < len(raw):
        offsets.append(pos)
        (nbytes,) = struct.unpack_from("<Q", raw, pos)
        pos += 8 + nbytes
    return offsets


def with_u64(raw: bytes, offset: int, value: int) -> bytes:
    return raw[:offset] + struct.pack("<Q", value) + raw[offset + 8:]


class TestGoldenDigests:
    def test_checkpoint_layout(self):
        assert hashlib.sha256(tiny_checkpoint_bytes()).hexdigest() == CHECKPOINT_SHA256

    def test_dataset_layout(self, tmp_path):
        assert hashlib.sha256(tiny_dataset_bytes(tmp_path)).hexdigest() == DATASET_SHA256

    def test_version_1_checkpoint_is_refused(self):
        raw = version_1_checkpoint(tiny_checkpoint_bytes())
        assert hashlib.sha256(raw).hexdigest() == CHECKPOINT_V1_SHA256
        with pytest.raises(CheckpointError,
                           match="unsupported format version 1, expected 2"):
            load_checkpoint(raw)

    def test_fixtures_round_trip(self, tmp_path):
        raw = tiny_checkpoint_bytes()
        assert checkpoint_bytes(load_checkpoint(raw), manifest={"seed": 7}) == raw
        path = tmp_path / "tiny.c2ds"
        path.write_bytes(tiny_dataset_bytes(tmp_path))
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, tiny_dataset().features)
        assert np.array_equal(loaded.labels, tiny_dataset().labels)
        # the loader reads the file into a buffer of its own, shifted so
        # that the dataset's read-only view is aligned
        assert loaded.features.flags.aligned and loaded.features.flags.c_contiguous


def test_loaded_set_is_aligned_whatever_the_header_length(tmp_path):
    # the loader shifts its buffer by the header's length: every residue
    # mod 8 must still give aligned views of the same values
    residues = set()
    for pad in range(8):
        path = tmp_path / f"pad{pad}.c2ds"
        save_dataset(tiny_dataset(), path, fmt="binary", manifest={"pad": "x" * pad})
        residues.add(struct.unpack_from("<Q", path.read_bytes(), 8)[0] % 8)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, tiny_dataset().features)
        assert np.array_equal(loaded.labels, tiny_dataset().labels)
        assert loaded.features.flags.aligned and loaded.labels.flags.aligned
    assert residues == set(range(8))


class TestExplicitCorruption:
    """Each case raised a raw MemoryError, OverflowError or ValueError, or
    wrapped one error in another, before the loaders shared one reader."""

    @pytest.mark.parametrize("head_len", [2 ** 40, U64_MAX])
    def test_dataset_header_length_past_the_file(self, tmp_path, head_len):
        path = tmp_path / "bad.c2ds"
        path.write_bytes(with_u64(tiny_dataset_bytes(tmp_path), 8, head_len))
        with pytest.raises(DataError, match="truncated"):
            load_dataset(path)

    @pytest.mark.parametrize("head_len", [2 ** 40, U64_MAX])
    def test_checkpoint_header_length_past_the_file(self, head_len):
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(with_u64(tiny_checkpoint_bytes(), 8, head_len))

    def test_seven_byte_labels_block(self, tmp_path):
        raw = tiny_dataset_bytes(tmp_path)
        labels_at = length_offsets(raw)[1]
        (nbytes,) = struct.unpack_from("<Q", raw, labels_at)
        path = tmp_path / "bad.c2ds"
        path.write_bytes(raw[:labels_at] + struct.pack("<Q", 7) + raw[labels_at + 8:
                                                                      labels_at + 15]
                         + raw[labels_at + 8 + nbytes:])
        with pytest.raises(DataError, match="8-byte values"):
            load_dataset(path)

    def test_truncated_checkpoint_header_is_one_error(self):
        raw = tiny_checkpoint_bytes()
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(raw[:40])
        message = str(caught.value)
        assert message.count("truncated") == 1
        assert message.count("checkpoint") == 1
        assert caught.value.__cause__ is None and caught.value.__context__ is None


def mutations(raw: bytes):
    """A truncation, a u64 length field set to any value, or byte flips."""
    n = len(raw)
    truncated = st.integers(0, n - 1).map(lambda k: ("truncated", raw[:k]))
    lengths = st.tuples(st.sampled_from(length_offsets(raw)), st.integers(0, U64_MAX)).map(
        lambda a: ("length", with_u64(raw, *a)))

    def flip(edits):
        out = bytearray(raw)
        for offset, mask in edits:
            out[offset] ^= mask
        return "flipped", bytes(out)

    flipped = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                       min_size=1, max_size=8).map(flip)
    return st.one_of(truncated, lengths, flipped)


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(mutations(tiny_checkpoint_bytes()))
    def test_checkpoint_loads_or_is_checkpoint_error(self, case):
        kind, raw = case
        try:
            load_checkpoint(raw)
        except CheckpointError:
            return
        assert kind != "truncated", "a truncated checkpoint loaded"

    @pytest.fixture(scope="class")
    @staticmethod
    def dataset_raw(tmp_path_factory):
        return tiny_dataset_bytes(tmp_path_factory.mktemp("tiny"))

    def test_dataset_loads_or_is_data_error(self, dataset_raw, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.c2ds"

        @settings(max_examples=400, deadline=None)
        @given(mutations(dataset_raw))
        def check(case):
            kind, raw = case
            path.write_bytes(raw)
            try:
                load_dataset(path)
            except DataError:
                return
            assert kind != "truncated", "a truncated dataset loaded"

        check()
