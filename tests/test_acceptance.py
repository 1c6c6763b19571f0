"""Acceptance suite: one test per criterion, each recording a PASS/FAIL
line that the conftest hook prints in the terminal summary."""

import functools
import os
import time

import numpy as np

from conftest import record_criterion

from dualvq.autodiff import (
    Tensor,
    attention,
    backward,
    concat,
    conv2d,
    conv_transpose2d,
    gather_rows,
    gelu,
    l1_loss,
    layernorm,
    leaky_relu,
    matmul,
    mse_loss,
    mul,
    narrow,
    relu,
    sigmoid,
    softmax,
    straight_through,
)
from dualvq.checkpoint import read_rows
from dualvq.codebook import Codebook, nearest_indices, quantize_st
from dualvq.config import config_from_dict
from dualvq.dual_quantizer import quantize_dual
from dualvq.metrics import compression_ratio, frechet_gaussian, l1_metric, l2_metric, psnr
from dualvq.model import LAMBDA_DELTA, TrainConfig, adaptive_lambda
from dualvq.run import run_ablation, run_train
from dualvq.transformer import TransformerParams

from test_dual_quantizer import dual_state, enumeration_oracle


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as e:
                record_criterion(number, description, False, str(e)[:160])
                raise
            record_criterion(number, description, True, detail)

        return wrapper

    return deco


# -- criterion 1: gradient suite -------------------------------------------------


def _fd_of(loss_fn, data, h=1e-5):
    fd = np.zeros_like(data)
    flat, fflat = data.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = loss_fn()
        flat[i] = keep - h
        lo = loss_fn()
        flat[i] = keep
        fflat[i] = (hi - lo) / (2.0 * h)
    return fd


def _sweep_op(name, make, tol, trials=5, seed_base=0):
    for trial in range(trials):
        rng = np.random.default_rng(hash((name, trial, seed_base)) % 2**32)
        leaves, forward = make(rng, trial)
        loss = forward(leaves)
        backward(loss)
        for li, leaf in enumerate(leaves):
            if not leaf.requires_grad:
                continue
            fd = _fd_of(lambda: forward([Tensor(t.data) for t in leaves]).item(), leaf.data)
            scale = max(np.abs(fd).max(), 1e-10)
            err = np.abs((leaf.grad if leaf.grad is not None else np.zeros_like(fd)) - fd).max() / scale
            assert err < tol, f"{name} trial {trial} leaf {li}: rel err {err:.2e} >= {tol}"


def _rand_leaves(rng, *shapes, shift=0.0, scale=1.0):
    return [Tensor(rng.normal(size=s) * scale + shift, requires_grad=True) for s in shapes]


# (input shape, kernel shape, stride, pad) combos with integral output extents
CONV_CASES = [
    ((1, 2, 5, 5), (2, 2, 3, 3), 2, 1),
    ((1, 1, 7, 7), (2, 1, 3, 3), 2, 0),
    ((2, 2, 4, 4), (1, 2, 2, 2), 2, 1),
    ((1, 3, 6, 6), (2, 3, 3, 3), 1, 1),
    ((2, 1, 6, 6), (1, 1, 4, 4), 2, 1),
]


def _ew_builder(op, broadcast=False, shift=0.0):
    """Binary op on freshly drawn random shapes, weighted and summed."""

    def make(rng, trial):
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        shapes = [(m, n), (n,) if broadcast else (m, n)]
        leaves = _rand_leaves(rng, *shapes, shift=shift)
        probe = op(Tensor(leaves[0].data), Tensor(leaves[1].data))
        weights = Tensor(rng.normal(size=probe.shape))
        return leaves, lambda L: mul(op(L[0], L[1]), weights).sum()

    return make


def _unary_builder(op, shift=0.0, leading=1):
    def make(rng, trial):
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        leaves = _rand_leaves(rng, (m, n), shift=shift)
        weights = Tensor(rng.normal(size=(m, n)))
        return leaves, lambda L: mul(op(L[0]), weights).sum()

    return make


def _matmul_builder(rng, trial):
    m, k, n = (int(v) for v in rng.integers(2, 6, size=3))
    leaves = _rand_leaves(rng, (m, k), (k, n))
    weights = Tensor(rng.normal(size=(m, n)))
    return leaves, lambda L: mul(matmul(L[0], L[1]), weights).sum()


def _conv_builder(transpose=False):
    def make(rng, trial):
        x_shape, w_shape, stride, pad = CONV_CASES[trial % len(CONV_CASES)]
        if transpose:
            op = lambda x, w: conv_transpose2d(x, w, stride=stride, pad=pad)
            probe_in = Tensor(np.zeros((x_shape[0], w_shape[0]) + x_shape[2:]))
            leaves = _rand_leaves(rng, probe_in.shape, w_shape)
        else:
            op = lambda x, w: conv2d(x, w, stride=stride, pad=pad)
            leaves = _rand_leaves(rng, x_shape, w_shape)
        out_shape = op(Tensor(leaves[0].data), Tensor(leaves[1].data)).shape
        weights = Tensor(rng.normal(size=out_shape))
        return leaves, lambda L: mul(op(L[0], L[1]), weights).sum()

    return make


# (heads, queries, keys, key dim, value dim)
ATTENTION_CASES = [(1, 3, 3, 2, 2), (2, 4, 4, 2, 2), (2, 2, 5, 3, 1), (3, 1, 4, 2, 3), (1, 5, 2, 4, 2)]


def _attention_builder(rng, trial):
    h, t, s, dh, dv = ATTENTION_CASES[trial % len(ATTENTION_CASES)]
    leaves = _rand_leaves(rng, (h, t, dh), (h, s, dh), (h, s, dv))
    weights = Tensor(rng.normal(size=(h, t, dv)))
    scale = 1.0 / np.sqrt(dh)
    return leaves, lambda L: mul(attention(L[0], L[1], L[2], scale), weights).sum()


def _structural_builder(rng, trial):
    m = int(rng.integers(2, 5))
    a, b = _rand_leaves(rng, (m, 3), (m, 2))
    weights = Tensor(rng.normal(size=(m, 3)))
    return [a, b], lambda L: mul(narrow(concat([L[0], L[1]], axis=1), 1, 1, 3), weights).sum()


def _gather_builder(rng, trial):
    k = int(rng.integers(3, 8))
    leaves = _rand_leaves(rng, (k, 3))
    idx = rng.integers(0, k, size=k + 1)
    weights = Tensor(rng.normal(size=(k + 1, 3)))
    return leaves, lambda L: mul(gather_rows(L[0], idx), weights).sum()


def _reduction_builder(rng, trial):
    dims = tuple(int(v) for v in rng.integers(2, 5, size=3))
    leaves = _rand_leaves(rng, dims)
    return leaves, lambda L: L[0].mean(axis=(0, 2)).sum() + mul(L[0].sum(), 0.25)


def _layernorm_builder(rng, trial):
    m, d = (int(v) for v in rng.integers(2, 7, size=2))
    leaves = _rand_leaves(rng, (m, d), (d,), (d,))
    weights = Tensor(rng.normal(size=(m, d)))
    return leaves, lambda L: mul(layernorm(L[0], L[1], L[2]), weights).sum()


@criterion(1, "gradient suite: finite differences across >=5 random shapes per op")
def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    linear = {
        "add": _ew_builder(lambda a, b: a + b, broadcast=True),
        "sub": _ew_builder(lambda a, b: a - b),
        "mul": _ew_builder(mul),
        "matmul": _matmul_builder,
        "conv2d": _conv_builder(transpose=False),
        "conv_transpose2d": _conv_builder(transpose=True),
        "concat_narrow": _structural_builder,
        "gather_rows": _gather_builder,
        "reductions": _reduction_builder,
        "mse_loss": _ew_builder(mse_loss),
    }
    nonlinear = {
        "relu": _unary_builder(relu, shift=2.0),
        "relu_neg": _unary_builder(relu, shift=-2.0),
        "leaky_relu": _unary_builder(leaky_relu, shift=-2.0),
        "gelu": _unary_builder(gelu),
        "sigmoid": _unary_builder(sigmoid),
        "softmax": _unary_builder(softmax),
        "attention": _attention_builder,
        "layernorm": _layernorm_builder,
        "l1_loss": _ew_builder(l1_loss),
    }
    for name, make in linear.items():
        _sweep_op(name, make, tol=1e-6)
    for name, make in nonlinear.items():
        _sweep_op(name, make, tol=1e-4)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    return f"{len(linear)} linear + {len(nonlinear)} nonlinear ops, {elapsed:.1f}s"


# -- criterion 2: quantizer oracle ------------------------------------------------


@criterion(2, "quantizer oracle: nearest scan exact on >=100 instances; dual losses to 1e-10")
def test_criterion_2_quantizer_oracle():
    rng = np.random.default_rng(200)
    for _ in range(100):
        n, k, d = (int(v) for v in rng.integers(2, 12, size=3))
        feats = rng.normal(size=(n, d))
        entries = rng.normal(size=(k, d))
        got = nearest_indices(feats, entries)
        for i in range(n):
            best, best_d = 0, np.inf
            for j in range(k):
                dist = float(((feats[i] - entries[j]) ** 2).sum())
                if dist < best_d:
                    best, best_d = j, dist
            assert got[i] == best

    worst = 0.0
    for _ in range(100):
        b, h, ww = (int(v) for v in rng.integers(1, 3, size=3))
        sg, sl = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kg, kl = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        st = dual_state(rng.normal(size=(kg, sg)), rng.normal(size=(kl, sl)), beta=0.25)
        z = rng.normal(size=(b, sg + sl, h, ww))
        _, res_g, res_l = quantize_dual(Tensor(z), st)
        oracle = enumeration_oracle(z, st.global_cb.entries.data, st.local_cb.entries.data, sg, 0.25)
        for res, tag in ((res_g, "g"), (res_l, "l")):
            idx, _, cb_term, commit = oracle[tag]
            assert np.array_equal(res.indices, idx)
            worst = max(worst, abs(res.codebook_term.item() - cb_term),
                        abs(res.commitment_term.item() - commit))
    assert worst < 1e-10
    return f"100 nearest-scan + 100 dual-loss instances, worst loss gap {worst:.1e}"


# -- criterion 3: straight-through exactness ---------------------------------------


@criterion(3, "straight-through: feature grad bit-equals decoder grad; entries get zero")
def test_criterion_3_straight_through_exact():
    rng = np.random.default_rng(300)
    for _ in range(20):
        n, k, d = int(rng.integers(2, 9)), int(rng.integers(2, 7)), int(rng.integers(1, 5))
        cb = Codebook(k, d, entries=rng.normal(size=(k, d)))
        feats = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        res = quantize_st(feats, cb)
        downstream = rng.normal(size=(n, d))
        backward(mul(res.z_q, Tensor(downstream)).sum())
        assert np.array_equal(feats.grad, downstream)       # bit-exact pass-through
        assert cb.entries.grad is None                       # decoder path never reaches entries

        feats.zero_grad()
        res2 = quantize_st(Tensor(feats.data, requires_grad=True), cb, update_usage=False)
        total = mul(res2.z_q, Tensor(downstream)).sum() + res2.codebook_term + res2.commitment_term
        backward(total)
        unselected = np.setdiff1d(np.arange(k), res2.indices)
        for j in unselected:
            assert np.array_equal(cb.entries.grad[j], np.zeros(d))

    # through the dual path with a live transformer
    tf = TransformerParams(2, 1, 1, 4, rng=np.random.default_rng(301))
    st = dual_state(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), tf_params=tf)
    z = Tensor(rng.normal(size=(2, 4, 2, 2)), requires_grad=True)
    z_q, _, _ = quantize_dual(z, st)
    downstream = rng.normal(size=z.shape)
    backward(mul(z_q, Tensor(downstream)).sum())
    assert np.array_equal(z.grad, downstream)
    return "pass-through bit-exact on 20 instances and the dual path"


# -- criterion 4: adaptive weight --------------------------------------------------


@criterion(4, "Eq-2 conformance: direct value within 1e-12 and scale invariance")
def test_criterion_4_adaptive_lambda():
    assert abs(adaptive_lambda(0.04, 0.02) - 0.04 / (0.02 + 1e-6)) < 1e-12
    rng = np.random.default_rng(400)
    for _ in range(200):
        r, g = rng.uniform(1e-3, 10.0, size=2)
        s = rng.uniform(0.05, 50.0)
        lam, lam_s = adaptive_lambda(r, g), adaptive_lambda(s * r, s * g)
        # joint scaling moves lambda by at most delta over the smaller gan norm
        assert abs(lam_s - lam) / lam <= LAMBDA_DELTA / min(g, s * g) + 1e-12
    return "value exact to 1e-12; invariance within delta bound on 200 draws"


# -- criterion 5: degeneracy over 20 training steps --------------------------------


@criterion(5, "degeneracy: zero-residual transformer run equals simple-dual run")
def test_criterion_5_degeneracy(tmp_path):
    base = {"seed": 31, "steps": 20, "batch": 4, "disc_start_step": 8, "eval_every": 10,
            "dataset": {"kind": "synthetic", "n": 40}}
    cfg_zero = config_from_dict({**base, "tf_zero_residual": True,
                                 "out_dir": str(tmp_path / "zero")})
    cfg_simple = config_from_dict({**base, "transformer_on": False,
                                   "out_dir": str(tmp_path / "simple")})

    # same assignments and loss terms on a turned model state
    rng = np.random.default_rng(500)
    tf = TransformerParams(2, 2, 2, 8, rng=rng, zero_residual=True)
    entries_g, entries_l = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    z = rng.normal(size=(2, 4, 3, 3))
    st_zero = dual_state(entries_g.copy(), entries_l.copy(), tf_params=tf)
    st_simple = dual_state(entries_g.copy(), entries_l.copy())
    zq_a, ga, la = quantize_dual(Tensor(z), st_zero)
    zq_b, gb, lb = quantize_dual(Tensor(z), st_simple)
    assert np.array_equal(ga.indices, gb.indices) and np.array_equal(la.indices, lb.indices)
    assert ga.codebook_term.item() == gb.codebook_term.item()
    assert la.commitment_term.item() == lb.commitment_term.item()
    assert np.array_equal(zq_a.data, zq_b.data)

    run_train(cfg_zero)
    run_train(cfg_simple)
    steps_zero = open(os.path.join(cfg_zero.out_dir, "steps.csv")).read()
    steps_simple = open(os.path.join(cfg_simple.out_dir, "steps.csv")).read()
    assert steps_zero == steps_simple
    eval_zero = open(os.path.join(cfg_zero.out_dir, "eval.csv")).read()
    eval_simple = open(os.path.join(cfg_simple.out_dir, "eval.csv")).read()
    assert eval_zero == eval_simple
    return "assignments, losses, and 20-step CSVs bit-identical"


# -- criterion 6: desk-scale training ----------------------------------------------


@criterion(6, "desk training: L_rec halves and dual utilization >= single-64 baseline")
def test_criterion_6_desk_training(tmp_path):
    t0 = time.monotonic()
    dual_cfg = config_from_dict({"seed": 11, "steps": 3000, "out_dir": str(tmp_path / "dual")})
    single_cfg = config_from_dict({"seed": 11, "steps": 3000, "quantizer_mode": "single",
                                   "out_dir": str(tmp_path / "single")})
    assert dual_cfg.train.image_size == 32
    assert dual_cfg.train.latent_channels == 8
    assert dual_cfg.train.resolved_codebooks() == (32, 32)
    assert single_cfg.train.codebook_total == 64

    res_dual = run_train(dual_cfg)
    res_single = run_train(single_cfg)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"training pair took {elapsed:.0f}s"

    header, rows = read_rows(res_dual.steps_csv)
    assert list(header) == ["step", "l_rec", "l_quant_g", "l_quant_l", "lambda", "d_loss",
                            "perplexity_g", "perplexity_l", "active_g", "active_l"]
    l_rec = np.array([float(r[1]) for r in rows])
    early = l_rec[:100].mean()
    final = l_rec[-1]
    assert final < 0.5 * early, f"final {final:.4f} vs early mean {early:.4f}"

    act_g, act_l = float(rows[-1][8]), float(rows[-1][9])
    kg, kl = dual_cfg.train.resolved_codebooks()
    weighted_dual = (act_g * kg + act_l * kl) / (kg + kl)
    _, srows = read_rows(res_single.steps_csv)
    act_single = float(srows[-1][8])
    assert weighted_dual >= act_single, f"dual {weighted_dual:.4f} < single {act_single:.4f}"
    return (f"final/early={final / early:.3f}; utilization dual={weighted_dual:.3f} "
            f"(global {act_g:.3f}) vs single={act_single:.3f}; {elapsed / 60:.1f} min")


# -- criterion 7: ablation harness -------------------------------------------------


@criterion(7, "ablation harness: four analog configs complete; default is config (v)")
def test_criterion_7_ablation(tmp_path):
    raw = {
        "seed": 23, "steps": 40, "batch": 4, "disc_start_step": 20, "eval_every": 20,
        "dataset": {"kind": "synthetic", "n": 40}, "out_dir": str(tmp_path / "abl"),
        "grid": [
            {"label": "ii", "split_global": 4, "split_local": 4, "transformer_on": False,
             "codebook_total": 64},
            {"label": "iii", "split_global": 6, "split_local": 2, "transformer_on": True,
             "codebook_total": 64},
            {"label": "iv", "split_global": 2, "split_local": 6, "transformer_on": True,
             "codebook_total": 64},
            {"label": "v", "split_global": 4, "split_local": 4, "transformer_on": True,
             "codebook_total": 64},
        ],
    }
    path = run_ablation(config_from_dict(raw))
    header, rows = read_rows(path)
    assert list(header) == ["label", "global", "local", "codebook_total",
                            "fid_star", "psnr", "l1", "l2"]
    assert len(rows) == 4
    for r in rows:
        assert all(np.isfinite(float(c)) for c in r[3:])

    # the default configuration is exactly the transformer-on equal-split variant
    default = TrainConfig()
    v_row = rows[3]
    assert v_row[0] == "v" and v_row[1] == "T-4" and v_row[2] == "S-4"
    assert default.transformer_on is True
    assert default.split_global == default.split_local == 4
    assert default.quantizer_mode == "dual"
    return "4 rows with full column set; default config matches variant (v)"


# -- criterion 8: determinism and resume --------------------------------------------


@criterion(8, "determinism and resume: bit-identical CSVs over 200 steps")
def test_criterion_8_determinism_resume(tmp_path):
    base = {"seed": 41, "steps": 200, "batch": 4, "disc_start_step": 100, "eval_every": 50,
            "dataset": {"kind": "synthetic", "n": 64}}
    run_train(config_from_dict({**base, "out_dir": str(tmp_path / "a")}))
    run_train(config_from_dict({**base, "out_dir": str(tmp_path / "b")}))
    a_steps = open(tmp_path / "a" / "steps.csv").read()
    b_steps = open(tmp_path / "b" / "steps.csv").read()
    assert a_steps == b_steps
    assert open(tmp_path / "a" / "eval.csv").read() == open(tmp_path / "b" / "eval.csv").read()

    partial = run_train(config_from_dict({**base, "out_dir": str(tmp_path / "c")}), stop_after=100)
    run_train(config_from_dict({**base, "out_dir": str(tmp_path / "c")}),
              resume=os.path.join(partial.out_dir, "checkpoints", "last"))
    assert open(tmp_path / "c" / "steps.csv").read() == a_steps
    assert open(tmp_path / "c" / "eval.csv").read() == open(tmp_path / "a" / "eval.csv").read()
    return "rerun and resume CSVs byte-identical (200 steps, GAN phase included)"


# -- criterion 9: metric examples ----------------------------------------------------


@criterion(9, "metrics: PSNR/L1/L2/Frechet examples and the 768x compression ratio")
def test_criterion_9_metrics():
    x = np.zeros((3, 4, 4))
    assert abs(psnr(x, x + 0.1) - 20.0) < 1e-9
    assert abs(psnr(x, x + 0.5) - 6.0206) < 1e-4
    assert psnr(x, x.copy()) == float("inf")
    assert abs(l1_metric(x, x + 0.1) - 0.1) < 1e-12
    assert abs(l2_metric(x, x + 0.1) - 0.01) < 1e-12
    assert frechet_gaussian([0.0], [[1.0]], [0.0], [[1.0]]) < 1e-9
    assert abs(frechet_gaussian([0.0], [[1.0]], [3.0], [[1.0]]) - 9.0) < 1e-9
    assert abs(frechet_gaussian([0.0], [[1.0]], [0.0], [[4.0]]) - 1.0) < 1e-9
    assert compression_ratio((256, 256, 3), (16, 16)) == 768.0
    assert compression_ratio((32, 32, 3), (8, 8)) == 48.0
    return "all stated values hit their tolerances; ratios 768x and 48x confirmed"
