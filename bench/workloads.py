"""The dualvq workloads, the checks on their outputs, and their metrics.

Every workload is a closed loop in one process: the next call starts when
the previous one has returned.

- ``train_gan``, ``train_k512``: repeated ``run_train`` calls (what
  ``dualvq train`` runs) on the desk config, each in a fresh output
  directory with its own seed. A call is ``eval_every`` steps long, so it
  evaluates and checkpoints once, at the config's own cadence.
  - ``train_gan`` starts the discriminator at step 0: four backward passes
    and three discriminator forwards per step.
  - ``train_k512`` keeps the discriminator off for the whole call, so every
    step is reconstruction-only with one backward pass, and uses a
    paper-scale quantizer, 256 + 256 entries and a 6-layer refiner. A change
    to the GAN phase must leave it unchanged.
- ``eval``: repeated ``run_eval(checkpoint, split="val")`` (what
  ``dualvq eval`` runs) over EVAL_CHECKPOINTS reconstruction-only desk
  checkpoints trained in set-up by a child process, so the training does not
  count toward this process's peak memory.

A run measures for about its ``seconds``. On a shared 2-core machine the
same code ran in faster and slower spells of 20 to 40 s each, and a shorter
window lands in one of them. There are three workloads rather than more so
that each run can be that long.

Seeds. A call's seed picks both the synthetic dataset and the initial
weights. Call (or checkpoint) i > 0 of a run uses ``seed * 1000 + i``.
Call 0 always uses GUARD_SEED: the quality guards come from it, so they
compare code rather than data and are exact. Call 1 gives the same figures
for the run's own seed, printed as ``seeded.*``.

Times are wall times. The tail is p90 (TAIL_Q), fixed so that it stays the
same statistic when the code gets faster, over enough samples to leave ten
beyond it.
"""

from __future__ import annotations

import math
import resource
import shutil
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualvq.autodiff import Tensor
from dualvq.checkpoint import load_checkpoint, read_rows, save_checkpoint
from dualvq.config import ExperimentConfig, config_from_dict
from dualvq.data import batch_indices, build_dataset, split_dataset
from dualvq.dual_quantizer import channels_to_rows, split_channels
from dualvq.model import StepReport, encode, reconstruct
from dualvq.run import run_eval, run_train
from dualvq.transformer import refine

from layers import STEP, TARGETS, TRAINING_STEP, layer_metrics
from measure import TAIL_MIN_BEYOND, Tally, Tracer, patched, percentile

BENCH = Path(__file__).resolve().parent
STEPS_PER_CALL = ExperimentConfig.eval_every    # the desk config's eval cadence
WARMUP_STEPS = 2            # per call; the first steps of a call are not timed
MIN_TRAIN_CALLS = 2         # call 0 gives the guards, call 1 the run's own seed
GUARD_SEED = 0
EVAL_CHECKPOINTS = 2         # GUARD_SEED for the guards, then the run's own seed
FIXTURE_STEPS = 16          # training steps behind each eval checkpoint
IMPORT_SAMPLES = 5
TAIL_Q = 90
MIN_EVAL_CALLS = TAIL_MIN_BEYOND * 100 // (100 - TAIL_Q)
TIE_RTOL = 1e-9
EVAL_OP = "op.run_eval"

# config overrides per workload; eval's train its checkpoints
CONFIGS = {
    "train_gan": {"disc_start_step": 0},
    "train_k512": {"disc_start_step": STEPS_PER_CALL, "codebook_total": 512, "tf_layers": 6},
    "eval": {"disc_start_step": STEPS_PER_CALL},
}
WORKLOADS = tuple(CONFIGS)

END_TO_END = (
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("images_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("l1_rec", "1"),
    ("code_usage", "frac"),
    ("psnr_db", "dB"),
)


def call_seed(seed: int, i: int) -> int:
    return GUARD_SEED if i == 0 else seed * 1000 + i


def train_config(workload: str, seed: int, out_dir, steps: int = STEPS_PER_CALL):
    return config_from_dict({"seed": seed, "steps": steps, "out_dir": str(out_dir),
                             **CONFIGS[workload]})


@dataclass
class Outcome:
    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)     # name -> value
    extras: list = field(default_factory=list)      # (name, value, unit, note), report only


# -- output checks: each returns a list of problems -------------------------------


def check_steps_csv(path: str, cfg) -> list[list[str]]:
    """Problems per StepReport row, one list per step."""
    header, rows = read_rows(path)
    if tuple(header) != StepReport.CSV_COLUMNS:
        return [[f"steps.csv header {header}"]]
    t = cfg.train
    sizes = dict(zip("gl", t.resolved_codebooks()))
    out = []
    for row in rows:
        v = dict(zip(header, map(float, row)))
        problems = [f"step {row[0]}: non-finite {k}" for k, x in v.items() if not math.isfinite(x)]
        if not 0.0 <= v["lambda"] <= t.lambda_max:
            problems.append(f"step {row[0]}: lambda {v['lambda']} outside [0, {t.lambda_max}]")
        if int(row[0]) - 1 < t.disc_start_step and (v["lambda"] != 0.0 or v["d_loss"] != 0.0):
            problems.append(f"step {row[0]}: lambda or d_loss nonzero before disc_start_step")
        for half, k in sizes.items():
            if not 0.0 <= v[f"active_{half}"] <= 1.0:
                problems.append(f"step {row[0]}: active_{half} {v[f'active_{half}']}")
            if v[f"perplexity_{half}"] > k * (1 + 1e-12):
                problems.append(f"step {row[0]}: perplexity_{half} above K={k}")
        out.append(problems)
    return out


def brute_force_nearest(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Lowest index of the closest table entry, scanning entries in order."""
    best = np.full(rows.shape[0], np.inf)
    idx = np.zeros(rows.shape[0], dtype=np.int64)
    for k in range(table.shape[0]):
        d = ((rows - table[k]) ** 2).sum(axis=1)
        closer = d < best
        best[closer] = d[closer]
        idx[closer] = k
    return idx


def _index_problems(label, rows, table, got) -> list[str]:
    want = brute_force_nearest(rows, table)
    bad = 0
    for i in np.flatnonzero(got != want):
        d_got = ((rows[i] - table[got[i]]) ** 2).sum()
        d_want = ((rows[i] - table[want[i]]) ** 2).sum()
        # a near-tie may round either way; an exact tie must go to the lowest index
        if d_got == d_want or d_got > d_want * (1 + TIE_RTOL):
            bad += 1
    return [f"{label}: {bad} of {len(got)} indices differ from the brute-force scan"] if bad else []


def check_quantizer(checkpoint: str, seed: int) -> list[str]:
    """The quantizer's indices on one sampled training batch against a
    brute-force lowest-index nearest scan."""
    state, manifest = load_checkpoint(checkpoint)
    cfg = state.config
    train_set = split_dataset(build_dataset(manifest["experiment"]["dataset"], cfg.image_size))[0]
    batch = train_set[batch_indices(seed, train_set.shape[0], cfg.batch, state.step)]
    _, _, (res_g, res_l) = reconstruct(state, batch)
    q = state.quantizer
    zg, zl = split_channels(encode(state, Tensor(batch)), q.split_global)
    table_g = q.global_cb.entries if q.tf_params is None else refine(q.global_cb.entries, q.tf_params)
    return (_index_problems("global", channels_to_rows(zg).data, table_g.data, res_g.indices)
            + _index_problems("local", channels_to_rows(zl).data, q.local_cb.entries.data,
                              res_l.indices))


def _snapshot(state) -> dict:
    out = {name: p.data for name, p in state.all_params()}
    out.update({f"adam_m.{k}": v for k, v in state.adam_m.items()})
    out.update({f"adam_v.{k}": v for k, v in state.adam_v.items()})
    for half in ("global_cb", "local_cb"):
        cb = getattr(state.quantizer, half)
        out[f"{half}.counts"] = cb.counts
        out[f"{half}.window_counts"] = cb.window_counts
    return out


def check_roundtrip(checkpoint: str, scratch: Path) -> list[str]:
    """A checkpoint saved and loaded back is bit-identical to what was saved."""
    saved, _ = load_checkpoint(checkpoint)
    try:
        save_checkpoint(saved, str(scratch))
        loaded, _ = load_checkpoint(str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    a, b = _snapshot(saved), _snapshot(loaded)
    problems = [f"{k} differs after a save/load round trip" for k in a
                if k not in b or a[k].dtype != b[k].dtype or a[k].shape != b[k].shape
                or a[k].tobytes() != b[k].tobytes()]
    for attr in ("step", "adam_t_gen", "adam_t_disc"):
        if getattr(saved, attr) != getattr(loaded, attr):
            problems.append(f"{attr} differs after a save/load round trip")
    return problems


def check_same_files(dir_a: Path, dir_b: Path, names=("steps.csv", "eval.csv")) -> list[str]:
    return [f"{n} differs between the untraced and the traced run" for n in names
            if (dir_a / n).read_bytes() != (dir_b / n).read_bytes()]


EVAL_FIELDS = ("psnr", "l1", "l2", "fid_star", "perplexity_g", "perplexity_l",
               "active_g", "active_l")


def check_eval(ev: dict, first: dict) -> list[str]:
    problems = [f"{k} = {ev[k]!r} is not finite" for k in EVAL_FIELDS
                if not math.isfinite(ev[k])]
    if ev != first:
        changed = sorted(k for k in ev if ev[k] != first.get(k))
        problems.append(f"differs from the first call on this checkpoint in {changed}")
    return problems


# -- set-up -----------------------------------------------------------------------------


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing dualvq."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", "import dualvq"], check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def eval_checkpoints(fixture_dir: Path) -> list[str]:
    return [str(fixture_dir / f"ck{i}" / "checkpoints" / "final") for i in range(EVAL_CHECKPOINTS)]


def build_eval_fixture(seed: int, fixture_dir: Path):
    """Train the eval workload's checkpoints (run in a child process)."""
    for i in range(EVAL_CHECKPOINTS):
        run_train(train_config("eval", call_seed(seed, i), fixture_dir / f"ck{i}",
                               steps=FIXTURE_STEPS))


# -- train workloads ------------------------------------------------------------------


@dataclass
class TrainCall:
    step_s: list        # warm-up steps excluded
    call_s: float       # the whole run_train call
    prelude_s: float    # run_train entry to the first step
    rows: list
    psnr: float


def _train_call(workload, seed, out_dir: Path, tracer: Tracer, targets, out: Outcome):
    """One run_train call, timed through ``tracer``, then checked."""
    cfg = train_config(workload, seed, out_dir)
    first = len(tracer.spans)
    with patched(tracer, targets), tracer.span("op.run_train") as op:
        result = out.tally.attempt(f"run_train seed {seed}", run_train, cfg)
    if result is None:
        return None
    steps = [s for s in tracer.spans[first:] if s.name == TRAINING_STEP]
    for i, problems in enumerate(check_steps_csv(result.steps_csv, cfg)):
        out.tally.record(f"seed {seed} step {i + 1}", problems)
    out.tally.check("quantizer vs brute force", check_quantizer, result.final_checkpoint, seed)
    out.tally.check("checkpoint round trip", check_roundtrip, result.final_checkpoint,
                    out_dir / "roundtrip")
    _, rows = read_rows(result.steps_csv)
    return TrainCall(step_s=[s.duration for s in steps[WARMUP_STEPS:]], call_s=op.duration,
                     prelude_s=steps[0].start - op.start, rows=rows,
                     psnr=result.last_eval["psnr"])


def _quality(call: TrainCall, cfg) -> tuple[float, float, float]:
    """(l_rec_last, code_usage, psnr_db) of one call: mean l_rec over the
    last tenth of the steps, the size-weighted active fraction of both
    codebooks at the end, and the PSNR of the final evaluation."""
    kg, kl = cfg.train.resolved_codebooks()
    tail = call.rows[-max(1, len(call.rows) // 10):]
    last = call.rows[-1]
    usage = (float(last[8]) * kg + float(last[9]) * kl) / (kg + kl)
    return sum(float(r[1]) for r in tail) / len(tail), usage, call.psnr


def train_workload(workload, seed, seconds, trace, work: Path, out: Outcome):
    import_s = import_seconds()
    plain, traced = [], []
    layer_tracer = Tracer()
    deadline = time.perf_counter() + seconds
    i, last_s = 0, 0.0
    # start a call only if one as long as the last still ends by the deadline
    while i < MIN_TRAIN_CALLS or time.perf_counter() + last_s <= deadline:
        t0 = time.perf_counter()
        s = call_seed(seed, i)
        plain.append(_train_call(workload, s, work / f"plain{i}", Tracer(), (STEP,), out))
        if trace:
            traced.append(_train_call(workload, s, work / f"traced{i}", layer_tracer,
                                      (STEP, *TARGETS), out))
            if plain[-1] and traced[-1]:
                out.tally.check("tracing changes nothing", check_same_files,
                                work / f"plain{i}", work / f"traced{i}")
        shutil.rmtree(work / f"plain{i}", ignore_errors=True)
        shutil.rmtree(work / f"traced{i}", ignore_errors=True)
        last_s = time.perf_counter() - t0
        i += 1

    ok = [c for c in plain if c is not None]
    step_ms = [1e3 * t for c in ok for t in c.step_s]
    if trace:
        traced_ms = [1e3 * t for c in traced if c is not None for t in c.step_s]
        overhead = median(traced_ms) / median(step_ms) - 1.0
        out.metrics = layer_metrics(layer_tracer.spans, TRAINING_STEP, overhead)
        out.extras += [
            ("step_ms.p50", median(step_ms), "ms", f"untraced, n={len(step_ms)}"),
            ("traced.step_ms.p50", median(traced_ms), "ms", f"traced, n={len(traced_ms)}"),
        ]
        return

    cfg = train_config(workload, seed, work)
    tail = percentile(step_ms, TAIL_Q)
    guard = plain[0] or ok[0]
    l_rec, usage, psnr_db = _quality(guard, cfg)
    images = cfg.train.batch * STEPS_PER_CALL * len(ok) / sum(c.call_s for c in ok)
    out.metrics = {
        "op_ms.p50": median(step_ms),
        "op_ms.tail": tail,
        "images_per_s": images,
        "setup_s": import_s + median([c.prelude_s for c in ok]),
        "peak_rss_mb": peak_rss_mb(),
        "l1_rec": l_rec,
        "code_usage": usage,
        "psnr_db": psnr_db,
    }
    seeded = _quality(plain[1] or guard, cfg)
    out.extras += [
        ("step_ms.p50", median(step_ms), "ms",
               f"n={len(step_ms)} steps in {len(ok)} calls, first {WARMUP_STEPS} of each excluded"),
        (f"step_ms.p{TAIL_Q}", tail, "ms", f"n={len(step_ms)}"),
        ("train_images_per_s", images, "1/s",
         f"over {len(ok)} run_train calls of {STEPS_PER_CALL} steps"),
        ("l_rec_last", l_rec, "1", f"seed {GUARD_SEED}"),
        ("seeded.l_rec_last", seeded[0], "1", f"seed {call_seed(seed, 1)}"),
        ("seeded.code_usage", seeded[1], "frac", f"seed {call_seed(seed, 1)}"),
        ("seeded.psnr_db", seeded[2], "dB", f"seed {call_seed(seed, 1)}"),
    ]


# -- eval workload ---------------------------------------------------------------------


def _eval_quality(ev: dict, kg: int, kl: int) -> tuple[float, float, float]:
    """(l1, code_usage, psnr_db) of one run_eval result."""
    return ev["l1"], (ev["active_g"] * kg + ev["active_l"] * kl) / (kg + kl), ev["psnr"]


def eval_workload(seed, seconds, trace, work: Path, out: Outcome):
    fixture = work / "fixture"
    subprocess.run([sys.executable, str(BENCH / "fixture.py"), str(fixture), str(seed)],
                   check=True, timeout=170)
    checkpoints = eval_checkpoints(fixture)
    for i, ck in enumerate(checkpoints):
        out.tally.check("quantizer vs brute force", check_quantizer, ck, call_seed(seed, i))
        out.tally.check("checkpoint round trip", check_roundtrip, ck, work / "roundtrip")
    import_s = import_seconds()

    first: dict[str, dict] = {}
    calls = []                        # (traced, span, ok) per call
    plain_tracer, layer_tracer = Tracer(), Tracer()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_EVAL_CALLS or time.perf_counter() < deadline:
        ck = checkpoints[i % len(checkpoints)]
        for tracer, targets in ((plain_tracer, ()), (layer_tracer, TARGETS))[:1 + trace]:
            with patched(tracer, targets), tracer.span(EVAL_OP) as op:
                ev = out.tally.attempt("run_eval", run_eval, ck, split="val")
            calls.append((tracer is layer_tracer, op, ev is not None))
            if ev is not None:
                out.tally.check(f"run_eval {ck}", check_eval, ev, first.setdefault(ck, ev))
        i += 1

    plain = [op.duration for tr, op, ok in calls if ok and not tr]
    traced = [op.duration for tr, op, ok in calls if ok and tr]
    eval_ms = [1e3 * t for t in plain]
    if trace:
        overhead = median(traced) / median(plain) - 1.0
        out.metrics = layer_metrics(layer_tracer.spans, EVAL_OP, overhead)
        out.extras += [
            ("eval_ms.p50", median(eval_ms), "ms", f"untraced, n={len(plain)}"),
            ("traced.eval_ms.p50", 1e3 * median(traced), "ms", f"traced, n={len(traced)}"),
        ]
        return

    kg, kl = train_config("eval", seed, work).train.resolved_codebooks()
    tail = percentile(eval_ms, TAIL_Q)
    l1, usage, psnr_db = _eval_quality(first[checkpoints[0]], kg, kl)
    out.metrics = {
        "op_ms.p50": median(eval_ms),
        "op_ms.tail": tail,
        "images_per_s": first[checkpoints[0]]["n_images"] / median(plain),
        "setup_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
        "l1_rec": l1,
        "code_usage": usage,
        "psnr_db": psnr_db,
    }
    seeded = _eval_quality(first[checkpoints[1]], kg, kl)
    out.extras += [
        ("eval_ms.p50", median(eval_ms), "ms",
               f"n={len(eval_ms)} run_eval calls over {len(checkpoints)} checkpoints"),
        (f"eval_ms.p{TAIL_Q}", tail, "ms", f"n={len(eval_ms)}"),
        ("seeded.l1_rec", seeded[0], "1", f"seed {call_seed(seed, 1)}"),
        ("seeded.code_usage", seeded[1], "frac", f"seed {call_seed(seed, 1)}"),
        ("seeded.psnr_db", seeded[2], "dB", f"seed {call_seed(seed, 1)}"),
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, out: Outcome):
    """Run one workload, filling ``out`` as it goes, so that the operations
    counted before an exception are still there after it."""
    if workload == "eval":
        eval_workload(seed, seconds, trace, work, out)
    else:
        train_workload(workload, seed, seconds, trace, work, out)
