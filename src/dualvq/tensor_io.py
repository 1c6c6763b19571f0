"""The one container every tensor file uses, and atomic writes.

A container is one header line of compact sorted JSON ended by ``\\n``. Its
``tensors`` lists ``[key, [extents...]]`` pairs in file order. The values
follow with nothing between arrays: each array's values (as many as the
product of its extents, one for a 0-d array) as little-endian float64 in
row-major order. Last comes a u32 little-endian CRC-32 of every byte before
it, which ``read_bundle`` checks before it parses anything. It is the layout
of NumPy's ``.npy`` (NEP 1), with one header for many arrays. Writes are
atomic: a temp file is renamed into place, and a failed write removes it.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np


def write_bundle(path: str, header: dict, arrays: dict):
    """``header`` with ``tensors`` naming ``arrays``' keys and shapes, their
    values, and the CRC trailer, renamed into place as one file."""
    arrays = {key: np.asarray(arr, dtype="<f8") for key, arr in arrays.items()}  # keeps 0-d arrays 0-d
    entries = [[key, list(arr.shape)] for key, arr in arrays.items()]
    parts = [json.dumps({**header, "tensors": entries}, sort_keys=True, separators=(",", ":")).encode(),
             b"\n", *(arr.tobytes() for arr in arrays.values())]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(crc.to_bytes(4, "little"))
    atomic_write_bytes(path, b"".join(parts))


def read_bundle(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by key) of a ``write_bundle`` file; any fault in its
    bytes or header is a ``ValueError`` naming ``path``."""
    with open(path, "rb") as f:
        blob = f.read()
    body = memoryview(blob)[:-4]
    if len(blob) < 4 or zlib.crc32(body) != int.from_bytes(blob[-4:], "little"):
        raise ValueError(f"{path}: CRC-32 trailer does not match the file: it is damaged, cut, "
                         "padded or not a tensor container")
    newline = blob.find(b"\n", 0, len(body))
    if newline < 0:
        raise ValueError(f"{path}: file is cut inside its header line")
    try:
        header = json.loads(blob[:newline])
    except ValueError as e:
        raise ValueError(f"{path}: header line is not JSON: {e}") from None
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: header tensors {entries!r} is not a list")
    keys = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is str
                and isinstance(entry[1], list) and all(type(n) is int and n >= 0 for n in entry[1])):
            raise ValueError(f"{path}: header tensors entry {entry!r} is not a [key, [extents...]] pair")
        if entry[0] in keys:
            raise ValueError(f"{path}: header names tensor {entry[0]!r} twice")
        keys.add(entry[0])
    pos, counts = newline + 1, [math.prod(shape) for _, shape in entries]
    if pos + 8 * sum(counts) != len(body):
        raise ValueError(f"{path}: header shapes declare {8 * sum(counts)} bytes of values, "
                         f"the file holds {len(body) - pos}")
    arrays = {}
    for (key, shape), count in zip(entries, counts):
        try:   # numpy refuses more dimensions than it allows, and extents it cannot index
            arrays[key] = np.frombuffer(body, "<f8", count, pos).astype(np.float64).reshape(shape)
        except ValueError as e:
            raise ValueError(f"{path}: tensor {key!r}: {e}") from None
        pos += 8 * count
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
