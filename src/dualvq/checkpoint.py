"""Checkpoint directories and the step-metrics CSV.

A checkpoint is a directory holding the one file ``CHECKPOINT_FILE``, a
``tensor_io`` container whose header line is the manifest: format version 8,
config echo with the seed, step, optimizer counters, usage ``counts`` and each
tensor's key and shape. State keys (``global_cb``, ``tf.layer{i}.*``, ...) are
kept; Adam moments are ``adam_m.<key>``/``adam_v.<key>``; ``counts`` maps each
name ``codebooks()`` gives to its ``window`` and ``cumulative`` count vectors.
The container is renamed into place whole, so an interrupted save leaves
the previous checkpoint intact, never a mix of old and new tensors.
"""

from __future__ import annotations

import os

import numpy as np

from . import tensor_io
from .model import ModelState, TrainConfig, init_model

FORMAT_VERSION = 8
CHECKPOINT_FILE = "checkpoint.dvq"
_MANIFEST_KEYS = {"step", "config", "adam_t_gen", "adam_t_disc", "counts"}


def _restore_counts(cb, blob, where):
    for name in ("window", "cumulative"):
        v = blob.get(name) if isinstance(blob, dict) else None
        if not (isinstance(v, list) and len(v) == cb.n_entries
                and all(type(c) is int and 0 <= c < 2**64 for c in v)):
            raise ValueError(f"{where}: {name} counts are not {cb.n_entries} non-negative integers")
    cb.window_counts = np.array(blob["window"], dtype=np.uint64)
    cb.counts = np.array(blob["cumulative"], dtype=np.uint64)


def save_checkpoint(state: ModelState, dirpath: str, experiment: dict | None = None):
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
    }
    if experiment is not None:
        manifest["experiment"] = experiment
    os.makedirs(dirpath, exist_ok=True)
    tensor_io.write_bundle(os.path.join(dirpath, CHECKPOINT_FILE), manifest, tensors)


def load_checkpoint(dirpath: str, config: TrainConfig | None = None) -> tuple[ModelState, dict]:
    """The state and manifest under ``dirpath``, the model built from ``config``
    if given (a forced resume), else from the manifest; its tensors must fit."""
    path = os.path.join(dirpath, CHECKPOINT_FILE)
    manifest, arrays = tensor_io.read_bundle(path)
    version = manifest.get("format_version")
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

    # init_model makes fresh what the arrays lack or hold in another shape; the checks refuse it
    state = init_model(config, tensors=arrays)
    state.step, state.adam_t_gen, state.adam_t_disc = counters
    shapes = {prefix + k: p.data.shape
              for prefix in ("", "adam_m.", "adam_v.") for k, p in state.all_params()}
    if arrays.keys() != shapes.keys():
        raise ValueError(f"{path}: tensors do not match the config's model: unknown "
                         f"{sorted(arrays.keys() - shapes.keys())[:5]}, "
                         f"missing {sorted(shapes.keys() - arrays.keys())[:5]}")
    for key, arr in arrays.items():
        if arr.shape != shapes[key]:
            raise ValueError(f"{path}: tensor {key!r} has shape {arr.shape}, expected {shapes[key]}")

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
    """A CSV log opened at a run's start ``step``: rows of an existing file
    past ``step`` (or torn) are dropped, then rows are appended. Floats keep
    full precision; column 0 is the step."""

    def __init__(self, path: str, columns, step: int):
        self.path = path
        self.columns = tuple(columns)
        header, rows = read_rows(path) if os.path.exists(path) else ([], [])
        if header and tuple(header) != self.columns:
            raise ValueError(f"{path}: header {','.join(header)} is not {','.join(self.columns)}")
        lines = [self.columns] + [r for r, s in zip(rows, column(path, rows, 0, int)) if s <= step]
        tensor_io.atomic_write_bytes(path, "".join(",".join(ln) + "\n" for ln in lines).encode())
        self._fh = open(path, "a", buffering=1)

    def append(self, values):
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, header has {len(self.columns)}")
        self._fh.write(",".join(format_cell(v) for v in values) + "\n")

    def close(self):
        self._fh.close()


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows, a blank line being a row of one empty cell; an empty
    file has neither. A last row whose cell count differs from the header's
    is the tail of an interrupted write and is dropped."""
    with open(path) as f:
        lines = [ln.rstrip("\n").split(",") for ln in f]
    header, rows = (lines[0], lines[1:]) if lines else ([], [])
    if rows and len(rows[-1]) != len(header):
        rows.pop()
    return header, rows


def column(path: str, rows, i: int, kind=float) -> list:
    """Cell ``i`` of each of ``path``'s ``rows`` (from ``read_rows``) as ``kind``;
    a missing cell or one that does not parse is refused with its file and line."""
    out = []
    for line, row in enumerate(rows, start=2):   # line 1 is the header
        if len(row) <= i:
            raise ValueError(f"{path}: line {line}: has {len(row)} cells, no cell {i}")
        try:
            out.append(kind(row[i]))
        except ValueError:
            raise ValueError(f"{path}: line {line}: cannot read {row[i]!r} as {kind.__name__}") from None
    return out
