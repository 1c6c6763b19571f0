"""Checkpoint directories and the step-metrics CSV.

A checkpoint is a directory: ``tensors/`` holds one binary dump per
parameter and per Adam moment, and ``manifest.json`` (written last, so a
manifest implies a complete checkpoint) carries the config echo, step,
seed, optimizer counters, and usage counters. Quantizer tensors keep
their state keys (``global_cb``, ``local_cb``, ``tf.layer{i}.*``); usage
counters are stored under the names the quantizer's ``codebooks()`` gives
(``global`` and ``local``, or ``global`` alone for the single-codebook
baseline).
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import tensor_io
from .model import ModelState, TrainConfig, init_model

FORMAT_VERSION = 1


def _counts_blob(cb):
    return {
        "window": [int(v) for v in cb.window_counts],
        "cumulative": [int(v) for v in cb.counts],
        "window_total": cb.window_total,
        "total": cb.total_assignments,
    }


def _restore_counts(cb, blob):
    cb.window_counts = np.asarray(blob["window"], dtype=np.uint64)
    cb.counts = np.asarray(blob["cumulative"], dtype=np.uint64)
    cb.window_total = int(blob["window_total"])
    cb.total_assignments = int(blob["total"])


def save_checkpoint(state: ModelState, dirpath: str, experiment: dict | None = None,
                    experiment_hash: str | None = None):
    os.makedirs(os.path.join(dirpath, "tensors"), exist_ok=True)
    index = []
    for name, p in state.all_params():
        fname = f"{name}.dvqt"
        tensor_io.save_array(os.path.join(dirpath, "tensors", fname), p.data)
        index.append({"key": name, "file": fname})
    for name in list(state.adam_m):
        for prefix, table in (("adam_m", state.adam_m), ("adam_v", state.adam_v)):
            fname = f"{prefix}.{name}.dvqt"
            tensor_io.save_array(os.path.join(dirpath, "tensors", fname), table[name])
            index.append({"key": f"{prefix}.{name}", "file": fname})

    manifest = {
        "format_version": FORMAT_VERSION,
        "step": state.step,
        "root_seed": state.config.seed,
        "config": state.config.to_dict(),
        "adam_t_gen": state.adam_t_gen,
        "adam_t_disc": state.adam_t_disc,
        "counts": {name: _counts_blob(cb) for name, cb in state.quantizer.codebooks().items()},
        "tensors": index,
    }
    if experiment is not None:
        manifest["experiment"] = experiment
    if experiment_hash is not None:
        manifest["experiment_hash"] = experiment_hash
    tensor_io.atomic_write_bytes(
        os.path.join(dirpath, "manifest.json"),
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )


def load_checkpoint(dirpath: str) -> tuple[ModelState, dict]:
    with open(os.path.join(dirpath, "manifest.json"), "rb") as f:
        manifest = json.loads(f.read())
    if manifest["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {manifest['format_version']}")
    config = TrainConfig.from_dict(manifest["config"])
    state = init_model(config)
    state.step = int(manifest["step"])
    state.adam_t_gen = int(manifest["adam_t_gen"])
    state.adam_t_disc = int(manifest["adam_t_disc"])

    params = dict(state.all_params())
    expected = set(params) | {f"adam_m.{k}" for k in params} | {f"adam_v.{k}" for k in params}
    seen = set()
    for entry in manifest["tensors"]:
        key = entry["key"]
        if key not in expected:
            raise ValueError(f"checkpoint tensor {key!r} does not match the config's model")
        arr = tensor_io.load_array(os.path.join(dirpath, "tensors", entry["file"]))
        if key.startswith("adam_m."):
            state.adam_m[key[len("adam_m."):]] = arr
        elif key.startswith("adam_v."):
            state.adam_v[key[len("adam_v."):]] = arr
        else:
            if arr.shape != params[key].data.shape:
                raise ValueError(f"checkpoint tensor {key!r} has shape {arr.shape}, "
                                 f"expected {params[key].data.shape}")
            params[key].data = arr
        seen.add(key)
    missing = expected - seen
    if missing:
        raise ValueError(f"checkpoint is missing tensors: {sorted(missing)[:5]}")

    for name, cb in state.quantizer.codebooks().items():
        _restore_counts(cb, manifest["counts"][name])
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
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def truncate_to_step(path: str, max_step: int):
    """Drop CSV rows past ``max_step`` (column 0 is the step)."""
    header, rows = read_rows(path)
    kept = [r for r in rows if int(r[0]) <= max_step]
    payload = "\n".join([",".join(header)] + [",".join(r) for r in kept]) + "\n"
    tensor_io.atomic_write_bytes(path, payload.encode())
