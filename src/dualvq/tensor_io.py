"""Binary layouts for dense float64 arrays, and the one container every
tensor file uses.

A dump is magic ``DVQT``, version u32, ndim u32, extents u64[ndim], then the
values as little-endian float64 in row-major order. A container is a header
line of compact sorted JSON whose ``tensors`` lists the array keys in order,
one dump per key, then a u32 little-endian CRC-32 of every byte before it;
``read_bundle`` checks the CRC before it parses anything. Writes are atomic:
a temp file is renamed into place, and a failed write removes it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"DVQT"
VERSION = 1


def array_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")  # keeps 0-d arrays 0-d
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + arr.tobytes()


def bytes_to_array(blob, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one dump in ``blob`` (bytes or memoryview) at ``offset``; returns (array,
    next offset). Raises ``ValueError`` if the blob ends before the dump does."""
    if len(blob) < offset + 12:
        raise ValueError(f"tensor dump at byte {offset} is cut inside its 12-byte header")
    if blob[offset : offset + 4] != MAGIC:
        raise ValueError(f"bad tensor dump magic {bytes(blob[offset:offset + 4])!r}")
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


def write_bundle(path: str, header: dict, arrays: dict):
    """``header`` with ``tensors`` naming ``arrays``' keys, one dump per array,
    and the CRC trailer, renamed into place as one file."""
    parts = [json.dumps({**header, "tensors": list(arrays)}, sort_keys=True,
                        separators=(",", ":")).encode(), b"\n"]
    parts += [array_to_bytes(arr) for arr in arrays.values()]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    atomic_write_bytes(path, b"".join(parts))


def read_bundle(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by key) of a ``write_bundle`` file; any fault in its
    bytes or framing is a ``ValueError`` naming ``path``."""
    with open(path, "rb") as f:
        blob = f.read()
    body = memoryview(blob)[:-4]
    if len(blob) < 4 or zlib.crc32(body) != struct.unpack_from("<I", blob, len(body))[0]:
        raise ValueError(f"{path}: CRC-32 trailer does not match the file: it is damaged, cut, "
                         "padded or not a tensor container")
    newline = blob.find(b"\n", 0, len(body))
    if newline < 0:
        raise ValueError(f"{path}: file is cut inside its header line")
    try:
        header = json.loads(blob[:newline])
    except ValueError as e:
        raise ValueError(f"{path}: header line is not JSON: {e}") from None
    keys = header.get("tensors") if isinstance(header, dict) else None
    if not (isinstance(keys, list) and all(type(k) is str for k in keys)):
        raise ValueError(f"{path}: header tensors {keys!r} is not a list of keys")
    arrays, pos = {}, newline + 1
    for key in keys:
        try:
            arrays[key], pos = bytes_to_array(body, pos)
        except ValueError as e:
            raise ValueError(f"{path}: tensor {key!r}: {e}") from None
    if pos != len(body):
        raise ValueError(f"{path}: {len(body) - pos} bytes after the last tensor dump")
    return header, arrays


def stored(tensors: dict | None, key: str, shape: tuple) -> np.ndarray | None:
    """``tensors[key]`` if ``tensors`` holds an array of ``shape`` there, else None."""
    arr = None if tensors is None else tensors.get(key)
    return arr if arr is not None and arr.shape == shape else None


def atomic_write_bytes(path: str, payload: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
