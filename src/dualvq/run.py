"""Run orchestration: training with logging and checkpoints, evaluation,
the ablation grid, and codebook export.

Every run directory is self-describing: the config echo plus the seed
reproduce the CSVs bit-for-bit. Evaluation metrics are per-image means in
dataset order, so up to rounding they do not depend on how eval is chunked.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor_io
from .autodiff import NonFiniteError, no_grad
from .checkpoint import (CHECKPOINT_FILE, CsvLog, column, format_cell, load_checkpoint, read_rows,
                         save_checkpoint)
from .config import (ConfigError, ExperimentConfig, config_from_dict, experiment_hash, grid_run, trajectory,
                     write_echo)
from .data import SPLITS, batch_indices, build_dataset, epoch_of_step
from .dual_quantizer import lookup_tables, usage_columns
from .metrics import (emit_utilization, frechet_gaussian, gaussian_stats, image_features, joint_basis,
                      l1_metric, l2_metric, psnr, sanitize_for_json)
from .model import ModelState, StepReport, init_model, reconstruct, training_step

EVAL_COLUMNS = ("step", "psnr", "l1", "l2", "fid_star")
ABLATION_COLUMNS = ("label", "global", "local", "codebook_total", "fid_star", "psnr", "l1", "l2")


@dataclass
class RunResult:
    out_dir: str
    steps_csv: str
    eval_csv: str
    final_checkpoint: str
    best_checkpoint: str
    utilization_json: str
    utilization_csv: str
    last_eval: dict


def _reconstruct_all(state: ModelState, images: np.ndarray) -> np.ndarray:
    out, size = np.empty_like(images), state.config.batch
    with no_grad():
        tables = lookup_tables(state.quantizer)   # refined once, not once per chunk
    for lo in range(0, images.shape[0], size):
        out[lo:lo + size] = reconstruct(state, images[lo:lo + size], tables)[0]
    return out


def evaluate_state(state: ModelState, images: np.ndarray) -> dict:
    """Reconstruction metrics plus the Gaussian Fréchet stand-in, from one
    forward-only pass per chunk of ``config.batch`` images: an evaluation
    holds at most one training batch of activations.

    fid_star is a closed-form Fréchet distance between Gaussians fit to the
    fixed ``image_features`` of the images and of their reconstructions,
    taken on the span of both (``joint_basis``). It depends on nothing but
    those two image sets, so it ranks models of any seed or quantizer on
    one scale; it is not Inception-FID.
    """
    recon = _reconstruct_all(state, images)
    psnrs = [psnr(images[i], recon[i]) for i in range(images.shape[0])]
    l1s = [l1_metric(images[i], recon[i]) for i in range(images.shape[0])]
    l2s = [l2_metric(images[i], recon[i]) for i in range(images.shape[0])]
    f1, f2 = image_features(images), image_features(recon)
    q = joint_basis(f1, f2)
    fid = frechet_gaussian(*gaussian_stats(f1 @ q), *gaussian_stats(f2 @ q))
    return {
        "step": state.step,
        "n_images": int(images.shape[0]),
        "psnr": float(np.mean(psnrs)),
        "l1": float(np.mean(l1s)),
        "l2": float(np.mean(l2s)),
        "fid_star": fid,
        "fid_note": "Gaussian Frechet distance on fixed random patch features; not Inception-FID",
    }


@contextlib.contextmanager
def _file_faults(path: str):
    """A missing, damaged or unwritable checkpoint or output ``path`` as a ``ConfigError`` naming it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:   # the checkpoint's own refusals name its file
        raise ConfigError(str(e)) from None


def run_train(cfg: ExperimentConfig, resume: str | None = None, force: bool = False,
              stop_after: int | None = None) -> RunResult:
    """Train to ``cfg.train.steps`` (or ``stop_after``, to simulate an
    interruption), logging every step and checkpointing at eval cadence."""
    if not cfg.out_dir:
        raise ConfigError("run_train needs an output directory (out_dir or --out)")
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    write_echo(cfg, out_dir)

    train_set = build_dataset(cfg.dataset, cfg.train.image_size, "train")
    val_set = build_dataset(cfg.dataset, cfg.train.image_size, "val")
    n_train = train_set.shape[0]

    steps_path = os.path.join(out_dir, "steps.csv")
    eval_path = os.path.join(out_dir, "eval.csv")
    final_dir = os.path.join(out_dir, "checkpoints", "final")
    best_dir = os.path.join(out_dir, "checkpoints", "best")

    if resume is None:
        state = init_model(cfg.train)
    else:
        # without force a mismatch is refused below, and a match means the same TrainConfig
        with _file_faults(resume):
            state, manifest = load_checkpoint(resume, cfg.train if force else None)
        stored, current = trajectory(manifest.get("experiment")), trajectory(cfg.to_dict())
        changed = sorted(k for k in stored.keys() | current.keys() if stored.get(k) != current.get(k))
        if changed and not force:
            raise ConfigError(f"resume refused: {resume} was trained with other {changed} "
                              "(pass --force to override)")

    # a fresh run and a resume start alike: each log keeps its rows up to state.step
    steps_csv = CsvLog(steps_path, StepReport.CSV_COLUMNS, state.step)
    eval_csv = CsvLog(eval_path, EVAL_COLUMNS, state.step)
    best_l1 = min(column(eval_path, read_rows(eval_path)[1], 2), default=float("inf"))
    last_dir = os.path.join(out_dir, "checkpoints", "last")
    last_eval: dict = {}
    target = cfg.train.steps if stop_after is None else min(cfg.train.steps, stop_after)
    prev_epoch = epoch_of_step(n_train, cfg.train.batch, state.step - 1)

    try:
        while state.step < target:
            step = state.step
            epoch = epoch_of_step(n_train, cfg.train.batch, step)
            if epoch > prev_epoch:
                for cb in state.quantizer.codebooks().values():
                    cb.reset_window()
            prev_epoch = epoch
            idx = batch_indices(cfg.train.seed, n_train, cfg.train.batch, step)
            report = training_step(state, train_set[idx])
            steps_csv.append(report.csv_values())
            if report.step % cfg.eval_every == 0 or report.step == cfg.train.steps:
                ev = evaluate_state(state, val_set)
                eval_csv.append((report.step, ev["psnr"], ev["l1"], ev["l2"], ev["fid_star"]))
                last_eval = ev
                save_checkpoint(state, last_dir, experiment=cfg.to_dict())
                if ev["l1"] < best_l1:
                    best_l1 = ev["l1"]
                    save_checkpoint(state, best_dir, experiment=cfg.to_dict())
    finally:
        steps_csv.close()
        eval_csv.close()

    save_checkpoint(state, final_dir, experiment=cfg.to_dict())
    if not os.path.exists(os.path.join(best_dir, CHECKPOINT_FILE)):
        save_checkpoint(state, best_dir, experiment=cfg.to_dict())
    util_json, util_csv = emit_utilization(state.quantizer.codebooks(), state.step, experiment_hash(cfg),
                                           os.path.join(out_dir, "utilization"))
    return RunResult(out_dir=out_dir, steps_csv=steps_path, eval_csv=eval_path,
                     final_checkpoint=final_dir, best_checkpoint=best_dir,
                     utilization_json=util_json, utilization_csv=util_csv, last_eval=last_eval)


def run_eval(checkpoint: str, split: str = "val", out_path: str | None = None) -> dict:
    """Evaluate a checkpoint on one split of the dataset its run trained on."""
    with _file_faults(checkpoint):
        state, manifest = load_checkpoint(checkpoint)
    stored = manifest.get("experiment")
    try:
        cfg = config_from_dict(stored)
        changed = sorted(k for k, v in cfg.to_dict().items() if stored.get(k) != v)
        if changed:  # a default filled in now could differ from the one the run used
            raise ConfigError(f"{changed} are not filled in")
    except ConfigError as e:
        raise ConfigError(f"{checkpoint}: stored experiment config: {e}") from None
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    ev = evaluate_state(state, build_dataset(cfg.dataset, state.config.image_size, split))
    ev["split"] = split
    ev["checkpoint"] = checkpoint
    ev.update(usage_columns(state.quantizer))
    if out_path:
        with _file_faults(out_path):
            tensor_io.atomic_write_bytes(
                out_path, json.dumps(sanitize_for_json(ev), indent=1, sort_keys=True).encode()
            )
    return ev


def _grid_worker(payload: tuple) -> tuple:
    """(row, reason): an entry that aborts gets nan metrics and its reason."""
    label, cfg = payload
    try:
        ev, reason = run_train(cfg).last_eval, None
    except NonFiniteError as e:
        ev, reason = dict.fromkeys(ABLATION_COLUMNS[4:], float("nan")), str(e)
    desc_g = f"{'T' if cfg.train.transformer_on else 'S'}-{cfg.train.split_global}"
    desc_l = f"S-{cfg.train.split_local}"
    return (label, desc_g, desc_l, cfg.train.codebook_total,
            *(ev[k] for k in ABLATION_COLUMNS[4:])), reason


def grid_width(n_entries: int) -> int:
    width = min(n_entries, os.cpu_count() or 1)
    cap = os.environ.get("DUALVQ_THREADS")
    if cap:
        try:
            width = max(1, min(width, int(cap)))
        except ValueError:
            raise ConfigError(f"DUALVQ_THREADS must be an integer, got {cap!r}") from None
    return width


def run_ablation(cfg: ExperimentConfig) -> str:
    """Train every grid entry and tabulate final metrics, one row per entry.
    The table keeps every row; if an entry aborted, ``NonFiniteError`` then
    names each one."""
    if not cfg.grid or not cfg.out_dir:
        raise ConfigError("run_ablation needs a non-empty grid and an output directory")
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)

    payloads = []
    for entry in cfg.grid:
        derived = grid_run(cfg, entry)
        derived.out_dir = os.path.join(out_dir, "runs", entry["label"])
        payloads.append((entry["label"], derived))

    width = grid_width(len(payloads))
    if width > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing; only here

        with ProcessPoolExecutor(max_workers=width) as pool:
            results = list(pool.map(_grid_worker, payloads))
    else:
        results = [_grid_worker(p) for p in payloads]

    path = os.path.join(out_dir, "ablation.csv")
    lines = [",".join(ABLATION_COLUMNS)]
    lines += [",".join([*map(str, row[:3]), *map(format_cell, row[3:])]) for row, _ in results]
    tensor_io.atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())
    failed = [f"{row[0]}: {reason}" for row, reason in results if reason]
    if failed:
        raise NonFiniteError(f"{path} has nan metrics for aborted entries; " + "; ".join(failed))
    return path


def export_codebook(checkpoint: str, which: str, out_path: str):
    """Write one codebook's ``entries``, name and cumulative ``counts`` as a container."""
    with _file_faults(checkpoint):
        state, _ = load_checkpoint(checkpoint)
    table = state.quantizer.codebooks()
    if which not in table:
        raise ConfigError(f"no {which!r} codebook in this checkpoint (have {sorted(table)})")
    cb = table[which]
    with _file_faults(out_path):
        tensor_io.write_bundle(out_path, {"codebook": which, "counts": cb.counts.tolist()},
                               {"entries": cb.entries.data})
