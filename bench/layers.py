"""Which dualvq functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each target is replaced in the module that calls it, because the package
binds its functions with ``from ... import``. A metric whose name ends in
``.ms`` or ``.mb`` is a mean per call of that function, wherever it was
called; ``graph_nodes`` and ``grad_leaves`` are means per backward call and
``diff_mb`` is the largest call's. Every other metric is per operation and
counts only the work inside operations: a training step on ``train_*``, a
``run_eval`` call on ``eval``. A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import os
from collections import defaultdict

from measure import self_times

MIB = float(1 << 20)
BACKWARD = "autodiff.backward"
TRAINING_STEP = "model.training_step"
CONVS = ("autodiff.conv2d", "autodiff.conv_transpose2d")
# ``training_step`` calls backward once per step before disc_start_step and
# four times from then on; the call order fixes each call's role.
ROLES_BY_COUNT = {1: ("gen",), 4: ("probe_rec", "probe_gan", "gen", "disc")}
ROLES = ("probe_rec", "probe_gan", "gen", "disc")


def _graph_counts(args, kwargs, result):
    """Nodes reachable from the loss, and the leaves among them holding a
    gradient after the call."""
    loss = args[0]
    seen = {id(loss)}
    stack = [loss]
    leaves = 0
    while stack:
        node = stack.pop()
        if not node._parents and node.grad is not None:
            leaves += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return {"graph_nodes": len(seen), "grad_leaves": leaves}


def _conv_flop(args, kwargs, result):
    # 2 * multiply-adds: one per output pixel, output channel and kernel tap
    b, _, oh, ow = result.shape
    o, c, kh, kw = args[1].shape
    return {"gflop": 2.0 * b * o * oh * ow * c * kh * kw / 1e9}


def _deconv_flop(args, kwargs, result):
    # the adjoint of conv2d does the same multiply-adds, counted on its input
    b, _, h, w = args[0].shape
    o, c, kh, kw = args[1].shape
    return {"gflop": 2.0 * b * o * h * w * c * kh * kw / 1e9}


def _diff_mb(args, kwargs, result):
    """Size of the float64 (N, K, d) difference tensor nearest_indices forms."""
    n, d = args[0].shape
    k = args[1].shape[0]
    return {"mb": 8.0 * n * k * d / MIB}


def _checkpoint_mb(args, kwargs, result):
    total = 0
    for base, _, files in os.walk(args[1]):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return {"mb": total / MIB}


# (owner, attribute, span name[, annotate]); an untraced run wraps only STEP.
STEP = ("dualvq.run", "training_step", TRAINING_STEP)
TARGETS = (
    ("dualvq.run", "batch_indices", "data.batch_indices"),
    ("dualvq.run", "build_dataset", "data.build_dataset"),
    ("dualvq.run", "init_model", "model.init_model"),
    ("dualvq.checkpoint", "init_model", "model.init_model"),
    ("dualvq.run", "evaluate_state", "run.evaluate_state"),
    ("dualvq.run", "reconstruct", "model.reconstruct"),
    ("dualvq.run", "frechet_gaussian", "metrics.frechet_gaussian"),
    ("dualvq.run", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("dualvq.run", "save_checkpoint", "checkpoint.save_checkpoint", _checkpoint_mb),
    ("dualvq.checkpoint.CsvLog", "append", "checkpoint.CsvLog.append"),
    ("dualvq.model", "encode", "model.encode"),
    ("dualvq.model", "decode", "model.decode"),
    ("dualvq.model", "discriminate", "model.discriminate"),
    ("dualvq.model", "quantize_dual", "dual_quantizer.quantize"),
    ("dualvq.model", "backward", BACKWARD, _graph_counts),
    ("dualvq.model", "conv2d", "autodiff.conv2d", _conv_flop),
    ("dualvq.model", "conv_transpose2d", "autodiff.conv_transpose2d", _deconv_flop),
    ("dualvq.dual_quantizer", "refine", "transformer.refine"),
    ("dualvq.codebook", "nearest_indices", "codebook.nearest_indices", _diff_mb),
)

PER_LAYER = (
    *((f"autodiff.backward.self_ms.{r}", "ms") for r in ROLES),
    *((f"autodiff.backward.graph_nodes.{r}", "count") for r in ROLES),
    *((f"autodiff.backward.grad_leaves.{r}", "count") for r in ROLES),
    ("autodiff.backward.calls", "count"),
    ("model.discriminate.calls", "count"),
    ("model.discriminate.self_ms", "ms"),
    ("autodiff.conv2d.fwd_ms", "ms"),
    ("autodiff.conv2d.calls", "count"),
    ("autodiff.conv_transpose2d.fwd_ms", "ms"),
    ("autodiff.conv_transpose2d.calls", "count"),
    ("autodiff.conv.fwd_gflop", "GFLOP"),
    ("autodiff.conv.fwd_gflop_per_s", "GFLOP/s"),
    ("model.encode.self_ms", "ms"),
    ("model.decode.self_ms", "ms"),
    ("model.training_step.self_ms", "ms"),
    ("dual_quantizer.quantize.self_ms", "ms"),
    ("transformer.refine.self_ms", "ms"),
    ("codebook.nearest_indices.self_ms", "ms"),
    ("codebook.nearest_indices.diff_mb", "MiB"),
    ("data.batch_indices.ms", "ms"),
    ("data.build_dataset.ms", "ms"),
    ("model.init_model.ms", "ms"),
    ("run.evaluate_state.ms", "ms"),
    ("model.reconstruct.calls", "count"),
    ("model.reconstruct.self_ms", "ms"),
    ("metrics.frechet_gaussian.ms", "ms"),
    ("checkpoint.load_checkpoint.ms", "ms"),
    ("checkpoint.save_checkpoint.ms", "ms"),
    ("checkpoint.save_checkpoint.mb", "MiB"),
    ("checkpoint.CsvLog.append.ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans, op_name: str, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from one run's traced spans, per span named
    ``op_name``."""
    own = self_times(spans)
    inside = []                   # span i is op_name or runs within one
    self_s = defaultdict(float)   # per-op sums, over spans inside operations
    busy_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)     # per-call figures, over every span
    call_s = defaultdict(list)
    children = defaultdict(list)
    for i, (s, t) in enumerate(zip(spans, own)):
        inside.append(s.name == op_name or (s.parent is not None and inside[s.parent]))
        call_s[s.name].append(s.duration)
        if s.attrs:
            attrs[s.name].append(s.attrs)
        if s.parent is not None:
            children[s.parent].append(i)
        if inside[i]:
            self_s[s.name] += t
            busy_s[s.name] += s.duration
            calls[s.name] += 1
    n_ops = calls[op_name]

    role_self = defaultdict(float)
    role_attrs = defaultdict(list)
    for i, s in enumerate(spans):
        if s.name != TRAINING_STEP:
            continue
        passes = [j for j in children[i] if spans[j].name == BACKWARD]
        for role, j in zip(ROLES_BY_COUNT.get(len(passes), ()), passes):
            role_self[role] += own[j]
            role_attrs[role].append(spans[j].attrs)

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def self_ms(name):
        return 1e3 * per_op(self_s[name])

    def ms_per_call(name):
        return 1e3 * _mean(call_s[name])

    m = {}
    for r in ROLES:
        m[f"autodiff.backward.self_ms.{r}"] = 1e3 * per_op(role_self[r])
        m[f"autodiff.backward.graph_nodes.{r}"] = _mean([a["graph_nodes"] for a in role_attrs[r]])
        m[f"autodiff.backward.grad_leaves.{r}"] = _mean([a["grad_leaves"] for a in role_attrs[r]])
    m["autodiff.backward.calls"] = per_op(calls[BACKWARD])
    m["model.discriminate.calls"] = per_op(calls["model.discriminate"])
    m["model.discriminate.self_ms"] = self_ms("model.discriminate")
    for name in CONVS:
        m[f"{name}.fwd_ms"] = 1e3 * per_op(busy_s[name])
        m[f"{name}.calls"] = per_op(calls[name])
    gflop = sum(spans[i].attrs["gflop"] for i in range(len(spans))
                if inside[i] and spans[i].name in CONVS)
    conv_s = sum(busy_s[name] for name in CONVS)
    m["autodiff.conv.fwd_gflop"] = per_op(gflop)
    m["autodiff.conv.fwd_gflop_per_s"] = gflop / conv_s if conv_s else 0.0
    for name in ("model.encode", "model.decode", TRAINING_STEP, "dual_quantizer.quantize",
                 "transformer.refine", "codebook.nearest_indices"):
        m[f"{name}.self_ms"] = self_ms(name)
    m["codebook.nearest_indices.diff_mb"] = max(
        (a["mb"] for a in attrs["codebook.nearest_indices"]), default=0.0)
    for name in ("data.batch_indices", "data.build_dataset", "model.init_model",
                 "run.evaluate_state", "metrics.frechet_gaussian", "checkpoint.load_checkpoint",
                 "checkpoint.save_checkpoint", "checkpoint.CsvLog.append"):
        m[f"{name}.ms"] = ms_per_call(name)
    m["model.reconstruct.calls"] = per_op(calls["model.reconstruct"])
    m["model.reconstruct.self_ms"] = self_ms("model.reconstruct")
    m["checkpoint.save_checkpoint.mb"] = _mean([a["mb"] for a in attrs["checkpoint.save_checkpoint"]])
    m["trace.overhead_frac"] = overhead_frac
    return m
