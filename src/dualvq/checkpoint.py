"""Checkpoint directories and the step-metrics CSV.

A checkpoint is a directory holding the one file ``CHECKPOINT_FILE``: a
manifest line of compact sorted JSON (format version 5, config echo with
the seed, step, optimizer counters, usage ``counts`` and ``tensors``, the
list of tensor keys), then one ``tensor_io`` dump per key in that order,
ending exactly after the last. State keys (``global_cb``,
``tf.layer{i}.*``, ...) are kept; Adam moments are
``adam_m.<key>``/``adam_v.<key>``; ``counts`` maps each name
``codebooks()`` gives to its ``window`` and ``cumulative`` count vectors.
One ``atomic_write_bytes`` renames the whole file into place, so an
interrupted save leaves the previous checkpoint intact, never a mix of old
and new tensors.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import tensor_io
from .model import ModelState, TrainConfig, init_model

FORMAT_VERSION = 5
CHECKPOINT_FILE = "checkpoint.dvq"
_MANIFEST_KEYS = {"step", "config", "adam_t_gen", "adam_t_disc", "counts", "tensors"}


def _restore_counts(cb, blob, where):
    for name in ("window", "cumulative"):
        v = blob.get(name) if isinstance(blob, dict) else None
        if not (isinstance(v, list) and len(v) == cb.n_entries
                and all(type(c) is int and 0 <= c < 2**64 for c in v)):
            raise ValueError(f"{where}: {name} counts are not {cb.n_entries} non-negative integers")
    cb.window_counts = np.array(blob["window"], dtype=np.uint64)
    cb.counts = np.array(blob["cumulative"], dtype=np.uint64)


def save_checkpoint(state: ModelState, dirpath: str, experiment: dict | None = None,
                    experiment_hash: str | None = None):
    tensors = {name: p.data for name, p in state.all_params()}
    for name in state.adam_m:
        tensors[f"adam_m.{name}"] = state.adam_m[name]
        tensors[f"adam_v.{name}"] = state.adam_v[name]

    manifest = {
        "format_version": FORMAT_VERSION,
        "step": state.step,
        "config": state.config.to_dict(),
        "adam_t_gen": state.adam_t_gen,
        "adam_t_disc": state.adam_t_disc,
        "counts": {name: {"window": cb.window_counts.tolist(), "cumulative": cb.counts.tolist()}
                   for name, cb in state.quantizer.codebooks().items()},
        "tensors": list(tensors),
    }
    if experiment is not None:
        manifest["experiment"] = experiment
    if experiment_hash is not None:
        manifest["experiment_hash"] = experiment_hash
    parts = [json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode(), b"\n"]
    parts += [tensor_io.array_to_bytes(arr) for arr in tensors.values()]
    os.makedirs(dirpath, exist_ok=True)
    tensor_io.atomic_write_bytes(os.path.join(dirpath, CHECKPOINT_FILE), b"".join(parts))


def load_checkpoint(dirpath: str, config: TrainConfig | None = None) -> tuple[ModelState, dict]:
    """The state and manifest under ``dirpath``, the model built from ``config``
    if given (a forced resume), else from the manifest; its tensors must fit."""
    path = os.path.join(dirpath, CHECKPOINT_FILE)
    with open(path, "rb") as f:
        blob = f.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: checkpoint is cut inside its manifest line")
    try:
        manifest = json.loads(blob[:newline])
    except ValueError as e:
        raise ValueError(f"{path}: manifest line is not JSON: {e}") from None
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format {version}, expected {FORMAT_VERSION}")
    missing = _MANIFEST_KEYS - set(manifest)
    if missing:
        raise ValueError(f"{path}: manifest lacks {sorted(missing)}")
    if config is None:
        stored = manifest["config"]
        try:
            if not isinstance(stored, dict):
                raise TypeError(f"it is {stored!r}, not an object")
            config = TrainConfig.from_dict(stored)
            config.validate()
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: manifest config does not fit TrainConfig: {e}") from None
        missing = config.to_dict().keys() - stored.keys()
        if missing:  # a default filled in now could differ from the one the run used
            raise ValueError(f"{path}: manifest config lacks {sorted(missing)}")
    counters = [manifest[k] for k in ("step", "adam_t_gen", "adam_t_disc")]
    if any(type(v) is not int or v < 0 for v in counters):
        raise ValueError(f"{path}: manifest step/adam_t_gen/adam_t_disc {counters} are not all counts")
    state = init_model(config)
    state.step, state.adam_t_gen, state.adam_t_disc = counters

    params = dict(state.all_params())
    shapes = {prefix + k: p.data.shape
              for prefix in ("", "adam_m.", "adam_v.") for k, p in params.items()}
    if not (isinstance(manifest["tensors"], list) and all(type(k) is str for k in manifest["tensors"])):
        raise ValueError(f"{path}: manifest tensors {manifest['tensors']!r} is not a list of keys")
    keys = set(manifest["tensors"])
    if keys != shapes.keys():
        raise ValueError(f"{path}: tensors do not match the config's model: unknown "
                         f"{sorted(keys - shapes.keys())[:5]}, missing {sorted(shapes.keys() - keys)[:5]}")
    pos = newline + 1
    for key in manifest["tensors"]:
        try:
            arr, pos = tensor_io.bytes_to_array(blob, pos)
        except ValueError as e:
            raise ValueError(f"{path}: tensor {key!r}: {e}") from None
        if arr.shape != shapes[key]:
            raise ValueError(f"{path}: tensor {key!r} has shape {arr.shape}, expected {shapes[key]}")
        if key.startswith("adam_m."):
            state.adam_m[key[len("adam_m."):]] = arr
        elif key.startswith("adam_v."):
            state.adam_v[key[len("adam_v."):]] = arr
        else:
            params[key].data = arr
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes after the last tensor dump")

    counts = manifest["counts"] if isinstance(manifest["counts"], dict) else {}
    for name, cb in state.quantizer.codebooks().items():
        _restore_counts(cb, counts.get(name), f"{path}: codebook {name!r}")
    return state, manifest


# -- CSV logging ---------------------------------------------------------------


def format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class CsvLog:
    """Append-only CSV with a fixed header; floats keep full precision."""

    def __init__(self, path: str, columns):
        self.path = path
        self.columns = tuple(columns)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._fh = open(path, "a", buffering=1)
        if fresh:
            self._fh.write(",".join(self.columns) + "\n")

    def append(self, values):
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, header has {len(self.columns)}")
        self._fh.write(",".join(format_cell(v) for v in values) + "\n")

    def close(self):
        self._fh.close()


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows. A last row whose cell count differs from the
    header's is the tail of an interrupted write and is dropped."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if rows and len(rows[-1]) != len(header):
        rows.pop()
    return header, rows


def truncate_to_step(path: str, max_step: int):
    """Drop CSV rows past ``max_step`` (column 0 is the step)."""
    header, rows = read_rows(path)
    kept = [r for r in rows if int(r[0]) <= max_step]
    payload = "\n".join([",".join(header)] + [",".join(r) for r in kept]) + "\n"
    tensor_io.atomic_write_bytes(path, payload.encode())
