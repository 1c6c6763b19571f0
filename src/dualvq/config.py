"""Experiment configuration: JSON loading with typo safety, validation,
canonical hashing, and the ablation grid.

A config file is a flat JSON object of TrainConfig fields plus the
optional keys ``dataset`` (object), ``eval_every``, ``out_dir`` and
``grid`` (list of {split_global, split_local, transformer_on,
codebook_total[, label]}). Unknown keys are rejected. A minimal file is
``{"seed": 7}``.

``_fill_defaults`` is the one parse-and-check path, for config files and
stored checkpoint experiments alike. A grid entry is a plain dict (``label``
defaults to ``grid{i}``), checked by building its run config, ``grid_run``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field, fields

from .data import ppm_names, split_rows
from .model import TrainConfig
from . import tensor_io


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: dict = field(default_factory=dict)
    eval_every: int = 100
    out_dir: str | None = None
    grid: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**self.train.to_dict(), "dataset": dict(self.dataset), "eval_every": self.eval_every,
                "out_dir": self.out_dir, "grid": [dict(g) for g in self.grid]}


_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}
_TOP_FIELDS = {"dataset", "eval_every", "out_dir", "grid"}
_DATASET_FIELDS = {"synthetic": {"kind", "seed", "n", "size"}, "ppm_dir": {"kind", "path"}}
_GRID_AXES = ("split_global", "split_local", "transformer_on", "codebook_total")


def _integer(value, key: str) -> int:
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _fill_defaults(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _TRAIN_FIELDS - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    train_kwargs = {k: v for k, v in raw.items() if k in _TRAIN_FIELDS}
    try:
        train = TrainConfig.from_dict(train_kwargs)
        train.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None

    dataset = raw.get("dataset") or {}
    if not isinstance(dataset, dict):
        raise ConfigError(f"dataset must be an object, got {dataset!r}")
    dataset = dict(dataset)
    kind = dataset.setdefault("kind", "synthetic")
    if type(kind) is not str or kind not in _DATASET_FIELDS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    unknown = set(dataset) - _DATASET_FIELDS[kind]
    if unknown:
        raise ConfigError(f"unknown dataset keys for kind {kind!r}: {sorted(unknown)}")
    if kind == "synthetic":
        dataset.setdefault("seed", train.seed)
        dataset.setdefault("n", 256)
        dataset.setdefault("size", train.image_size)
        for k in ("seed", "n", "size"):
            _integer(dataset[k], f"dataset {k}")
        if dataset["size"] != train.image_size:
            raise ConfigError(
                f"dataset size {dataset['size']} does not match image_size {train.image_size}"
            )
        n = dataset["n"]
        what = f"dataset n {n}"
    else:
        path = dataset.get("path")
        if type(path) is not str or not os.path.isdir(path):
            raise ConfigError(f"dataset kind 'ppm_dir' needs a 'path' naming a directory, got {path!r}")
        n = len(ppm_names(path))
        what = f"dataset path {path} with {n} .ppm files"
    n_train, n_val = len(split_rows(n, "train")), len(split_rows(n, "val"))
    if n_val < 1 or n_train < train.batch:
        raise ConfigError(f"{what} is too small: its 80/10/10 split gives {n_train} "
                          f"train images (batch is {train.batch}) and {n_val} val images")

    cfg = ExperimentConfig(train=train, dataset=dataset,
                           eval_every=_integer(raw.get("eval_every", 100), "eval_every"),
                           out_dir=raw.get("out_dir"))
    if cfg.eval_every < 1:
        raise ConfigError(f"eval_every must be positive, got {cfg.eval_every}")
    grid = raw.get("grid") or []
    if not isinstance(grid, list):
        raise ConfigError(f"grid must be a list, got {grid!r}")
    for i, entry in enumerate(grid):
        if not isinstance(entry, dict):
            raise ConfigError(f"grid entry {i} must be an object, got {entry!r}")
        unknown = set(entry) - {*_GRID_AXES, "label"}
        missing = set(_GRID_AXES) - set(entry)
        if unknown or missing:
            raise ConfigError(f"grid entry {i}: unknown keys {sorted(unknown)}, "
                              f"missing keys {sorted(missing)}")
        entry = {"label": f"grid{i}", **entry}
        if type(entry["label"]) is not str:
            raise ConfigError(f"grid entry {i}: label must be a string, got {entry['label']!r}")
        try:
            grid_run(cfg, entry)
        except ConfigError as e:
            raise ConfigError(f"grid entry {i} ({entry['label']}): {e}") from None
        cfg.grid.append(entry)
    return cfg


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file; ``overrides`` replace top-level keys before defaults
    are filled in, so fields that default from them (``dataset.seed``) follow."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    raw.update(overrides or {})
    return _fill_defaults(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be an object, got {raw!r}")
    return _fill_defaults(copy.deepcopy(raw))


def grid_run(cfg: ExperimentConfig, entry: dict) -> ExperimentConfig:
    """The run config of one grid entry: the base config without its grid,
    with the entry's ablation axes and the dual quantizer."""
    raw = cfg.to_dict()
    del raw["grid"]
    raw.update({k: entry[k] for k in _GRID_AXES}, quantizer_mode="dual")
    return config_from_dict(raw)


def experiment_hash(cfg: ExperimentConfig) -> str:
    """Hash of everything that shapes a run's trajectory (output paths and
    the grid do not)."""
    d = cfg.to_dict()
    d.pop("out_dir", None)
    d.pop("grid", None)
    blob = json.dumps(d, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_echo(cfg: ExperimentConfig, out_dir: str) -> str:
    path = os.path.join(out_dir, "config.json")
    tensor_io.atomic_write_bytes(path, json.dumps(cfg.to_dict(), indent=1, sort_keys=True).encode())
    return path
