"""Checkpoint serialization in the binary container (see ``container``).

The header records the model config, the schema fingerprint and the array
names/shapes in block order, so a load is self-contained and a save of a
loaded checkpoint is byte-identical.

Format version 2 dropped the layer constants ``leaky_slope``, ``norm_eps``
and ``norm_momentum`` from the header's config. A version-1 file is refused
with a ``CheckpointError``, so ``experiment.train_generator`` retrains it.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from . import container
from .atomic import write_atomic
from .errors import CheckpointError, DataError
from .model import Checkpoint, ModelConfig

MAGIC = b"C2BN"
CHECKPOINT_FORMAT_VERSION = 2


def checkpoint_bytes(ckpt: Checkpoint, manifest: dict | None = None) -> bytes:
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "schema_fingerprint": ckpt.schema_fingerprint,
        "manifest": manifest or {},
        "params": [{"name": k, "shape": list(v.shape)} for k, v in ckpt.params.items()],
        "stats": [{"name": k, "shape": list(v.shape)} for k, v in ckpt.stats.items()],
    }
    out = io.BytesIO()
    container.write(out, MAGIC, CHECKPOINT_FORMAT_VERSION, header,
                    (np.ascontiguousarray(v, dtype="<f8")
                     for arrays in (ckpt.params, ckpt.stats) for v in arrays.values()))
    return out.getvalue()


def save_checkpoint(ckpt: Checkpoint, path, manifest: dict | None = None) -> None:
    """Write to ``path`` atomically."""
    write_atomic(path, checkpoint_bytes(ckpt, manifest=manifest))


def _block_entries(header: dict, key: str) -> list[tuple[str, tuple[int, ...]]]:
    """The ``[{"name": str, "shape": [int >= 0, ...]}, ...]`` list under ``key``."""
    entries = header.get(key)
    if not isinstance(entries, list):
        raise CheckpointError(f"checkpoint header {key!r} must be a list, got {entries!r}")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                        for d in entry["shape"])):
            raise CheckpointError(f"checkpoint header {key!r} has a malformed entry {entry!r}")
    return [(entry["name"], tuple(entry["shape"])) for entry in entries]


def load_checkpoint(source) -> Checkpoint:
    """Read from a path or from the bytes of a checkpoint file."""
    data = source if isinstance(source, (bytes, bytearray)) else Path(source).read_bytes()
    header, blocks = container.read(data, MAGIC, CHECKPOINT_FORMAT_VERSION,
                                    "checkpoint", CheckpointError)
    fingerprint = header.get("schema_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise CheckpointError("checkpoint header lacks a schema_fingerprint string")
    try:
        config = ModelConfig.from_dict(header.get("config"))
    except DataError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    param_entries = _block_entries(header, "params")
    stat_entries = _block_entries(header, "stats")
    entries = param_entries + stat_entries
    if len(blocks) != len(entries):
        raise CheckpointError(f"checkpoint holds {len(blocks)} blocks, its header "
                              f"lists {len(entries)} arrays (truncated or padded)")
    arrays = []
    for (name, shape), raw in zip(entries, blocks):
        if len(raw) // 8 != math.prod(shape):
            raise CheckpointError(f"block {name} holds {len(raw) // 8} float64 values, "
                                  f"expected shape {shape}")
        arrays.append((name, np.frombuffer(raw, dtype="<f8").astype(np.float64)
                       .reshape(shape)))
    return Checkpoint(config=config, params=dict(arrays[:len(param_entries)]),
                      stats=dict(arrays[len(param_entries):]),
                      schema_fingerprint=fingerprint)
