"""Atomic artifact writes.

Every artifact is written to a temporary file in its destination's
directory, which is renamed over the destination only once it is complete.
A run killed mid-write therefore leaves either the old file or the new one,
never a truncated file that a later run would trust, and a write that
raises removes its temporary file.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """``open(path, mode)`` whose file replaces ``path`` when the block ends
    without an exception; on an exception ``path`` is left untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path, data: str | bytes) -> None:
    """Write text or bytes to ``path`` through ``atomic_write``."""
    with atomic_write(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
