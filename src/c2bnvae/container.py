"""The binary container of encoded datasets and checkpoints.

Layout (all integers little-endian):

    magic (4 bytes) | u32 format version | u64 header length | header JSON
    | one block per array: u64 byte length + raw 8-byte values (C order)

The header is compact JSON with sorted keys, so equal headers and arrays
give equal bytes. A dataset (magic ``C2DS``) holds an int64 labels block and
a float64 features block; a checkpoint (magic ``C2BN``) holds one float64
block per parameter, then one per running statistic, in its header's order.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable

import numpy as np

from .errors import DataError


def write(fh, magic: bytes, version: int, header: dict,
          blocks: Iterable[np.ndarray]) -> None:
    """Write to the binary file ``fh`` one block at a time; each block is a
    C-contiguous array in its on-disk dtype."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    fh.write(magic + struct.pack("<IQ", version, len(head)) + head)
    for block in blocks:
        fh.write(struct.pack("<Q", block.nbytes))
        fh.write(block)


def read(data: bytes, magic: bytes, version: int, what: str,
         error: type[DataError] = DataError) -> tuple[dict, list[memoryview]]:
    """The JSON-object header and the raw blocks of the file ``data``.

    Each declared length is checked against the bytes that remain before
    anything is sliced. Any malformed content raises ``error``, with
    ``what`` naming the file.
    """
    view = memoryview(data)
    if bytes(view[:4]) != magic:
        raise error(f"{what}: bad magic bytes {bytes(view[:4])!r}, expected {magic!r}")
    found = int.from_bytes(view[4:8], "little")
    if len(view) >= 8 and found != version:
        raise error(f"{what}: unsupported format version {found}, expected {version}")
    segments, pos = [], 8  # the header, then each block
    while pos < len(view) or not segments:
        part = f"block {len(segments) - 1}" if segments else "the header"
        length = view[pos:pos + 8]
        nbytes = int.from_bytes(length, "little")
        if len(length) < 8 or nbytes > len(view) - pos - 8:
            raise error(f"{what}: truncated: {part} runs past the end of the file")
        if segments and nbytes % 8:
            raise error(f"{what}: {part} is {nbytes} bytes, not whole 8-byte values "
                        f"(float64 or int64)")
        segments.append(view[pos + 8:pos + 8 + nbytes])
        pos += 8 + nbytes
    try:
        header = json.loads(bytes(segments[0]))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise error(f"{what}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise error(f"{what}: header is not a JSON object")
    return header, segments[1:]
