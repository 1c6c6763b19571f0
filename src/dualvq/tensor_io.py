"""Binary dump format for dense float64 arrays.

Layout: magic ``DVQT``, version u32, ndim u32, extents u64[ndim], then the
values as little-endian float64 in row-major order. Writes are atomic: a
temp file is renamed into place, and a failed write removes it.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"DVQT"
VERSION = 1


def array_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")  # keeps 0-d arrays 0-d
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + arr.tobytes()


def bytes_to_array(blob: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one dump starting at ``offset``; returns (array, next offset).
    Raises ``ValueError`` if the blob ends before the dump does."""
    if len(blob) < offset + 12:
        raise ValueError(f"tensor dump at byte {offset} is cut inside its 12-byte header")
    if blob[offset : offset + 4] != MAGIC:
        raise ValueError(f"bad tensor dump magic {blob[offset:offset + 4]!r}")
    version, ndim = struct.unpack_from("<II", blob, offset + 4)
    if version != VERSION:
        raise ValueError(f"unsupported tensor dump version {version}")
    pos = offset + 12
    if len(blob) < pos + 8 * ndim:
        raise ValueError(f"tensor dump at byte {offset} is cut inside its {ndim} extents")
    shape = struct.unpack_from(f"<{ndim}Q", blob, pos)
    pos += 8 * ndim
    count = math.prod(shape)
    if len(blob) < pos + 8 * count:
        raise ValueError(f"tensor dump at byte {offset} declares shape {shape} but holds "
                         f"{(len(blob) - pos) // 8} of its {count} values")
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).astype(np.float64)
    return arr.reshape(shape), pos + 8 * count


def atomic_write_bytes(path: str, payload: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
