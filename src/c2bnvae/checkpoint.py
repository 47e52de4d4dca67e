"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic "C2BN" | u32 format version | u64 header length | header JSON
    | one block per array: u64 byte length + raw float64 data (C order)

The header records the model config, the schema fingerprint and the array
names/shapes in block order, so a load is self-contained and a save of a
loaded checkpoint is byte-identical.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import CheckpointError, DataError
from .model import CHECKPOINT_FORMAT_VERSION, Checkpoint, ModelConfig

MAGIC = b"C2BN"


def checkpoint_bytes(ckpt: Checkpoint, manifest: dict | None = None) -> bytes:
    header = {
        "format_version": ckpt.format_version,
        "config": ckpt.config.to_dict(),
        "schema_fingerprint": ckpt.schema_fingerprint,
        "manifest": manifest or {},
        "params": [{"name": k, "shape": list(v.shape)} for k, v in ckpt.params.items()],
        "stats": [{"name": k, "shape": list(v.shape)} for k, v in ckpt.stats.items()],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", ckpt.format_version))
    out.write(struct.pack("<Q", len(head)))
    out.write(head)
    for arrays in (ckpt.params, ckpt.stats):
        for value in arrays.values():
            raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
            out.write(struct.pack("<Q", len(raw)))
            out.write(raw)
    return out.getvalue()


def save_checkpoint(ckpt: Checkpoint, sink, manifest: dict | None = None) -> None:
    """Write to a path (atomically) or a binary file object."""
    data = checkpoint_bytes(ckpt, manifest=manifest)
    if isinstance(sink, (str, Path)):
        write_atomic(sink, data)
    else:
        sink.write(data)


def _read_exact(buf, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} bytes of {what}, "
                              f"got {len(data)}")
    return data


def _block_entries(header: dict, key: str) -> list[tuple[str, tuple[int, ...]]]:
    """The ``[{"name": str, "shape": [int >= 0, ...]}, ...]`` list under ``key``."""
    entries = header.get(key)
    if not isinstance(entries, list):
        raise CheckpointError(f"checkpoint header {key!r} must be a list, got {entries!r}")
    out = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                        for d in entry["shape"])):
            raise CheckpointError(f"checkpoint header {key!r} has a malformed entry {entry!r}")
        out.append((entry["name"], tuple(entry["shape"])))
    return out


def load_checkpoint(source) -> Checkpoint:
    """Read from a path, bytes, or binary file object."""
    if isinstance(source, (str, Path)):
        buf = io.BytesIO(Path(source).read_bytes())
    elif isinstance(source, (bytes, bytearray)):
        buf = io.BytesIO(bytes(source))
    else:
        buf = source
    magic = _read_exact(buf, 4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic bytes {magic!r}; not a checkpoint file")
    (version,) = struct.unpack("<I", _read_exact(buf, 4, "version"))
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}, "
                              f"expected {CHECKPOINT_FORMAT_VERSION}")
    (head_len,) = struct.unpack("<Q", _read_exact(buf, 8, "header length"))
    try:
        header = json.loads(_read_exact(buf, head_len, "header"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    fingerprint = header.get("schema_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise CheckpointError("checkpoint header lacks a schema_fingerprint string")
    if "config" not in header:
        raise CheckpointError("checkpoint header lacks a config")
    try:
        config = ModelConfig.from_dict(header["config"])
    except DataError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    param_entries = _block_entries(header, "params")
    stat_entries = _block_entries(header, "stats")

    def read_blocks(entries) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, shape in entries:
            (nbytes,) = struct.unpack("<Q", _read_exact(buf, 8, "block length"))
            raw = _read_exact(buf, nbytes, f"block {name}")
            if nbytes % 8:
                raise CheckpointError(f"block {name} is {nbytes} bytes, not whole float64s")
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            if arr.size != int(np.prod(shape)):
                raise CheckpointError(f"block {name} holds {arr.size} values, "
                                      f"expected shape {shape}")
            out[name] = arr.reshape(shape)
        return out

    params = read_blocks(param_entries)
    stats = read_blocks(stat_entries)
    return Checkpoint(config=config, params=params, stats=stats,
                      schema_fingerprint=fingerprint, format_version=version)
