import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualvq import codebook
from dualvq.autodiff import ShapeError, Tensor, backward, mul, stop_gradient
from dualvq.codebook import (
    Codebook,
    nearest_indices,
    quantize_st,
    usage_stats,
    vq_terms,
)
from dualvq.checkpoint import load_checkpoint, save_checkpoint
from dualvq.model import TrainConfig, init_model


def make_cb(entries):
    entries = np.asarray(entries, dtype=np.float64)
    return Codebook(entries.shape[0], entries.shape[1], entries=entries)


class TestNearest:
    def test_distance_comparison(self):
        cb = make_cb([[0.0, 0.0], [1.0, 1.0]])
        idx = nearest_indices(np.array([[0.9, 0.8]]), cb.entries)
        assert idx.tolist() == [1]

    def test_tie_breaks_low(self):
        cb = make_cb([[0.0, 0.0], [5.0, 5.0], [2.0, 0.0]])
        idx = nearest_indices(np.array([[1.0, 0.0]]), cb.entries)
        assert idx.tolist() == [0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(30)
        feats = rng.normal(size=(64, 5))
        entries = rng.normal(size=(16, 5))
        idx = nearest_indices(feats, entries)
        for n in range(64):
            best, best_d = 0, np.inf
            for k in range(16):
                d = float(((feats[n] - entries[k]) ** 2).sum())
                if d < best_d:
                    best, best_d = k, d
            assert idx[n] == best

    def test_row_blocks_match_one_block_with_ties(self, monkeypatch):
        rng = np.random.default_rng(31)
        entries = rng.integers(-2, 3, size=(12, 3)).astype(np.float64)
        entries[7] = entries[2]
        feats = rng.integers(-4, 5, size=(300, 3)) / 2.0
        diff = feats[:, None, :] - entries[None, :, :]
        dist = np.einsum("nkd,nkd->nk", diff, diff)
        unblocked = np.argmin(dist, axis=1)
        assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum() > 30
        for block in (1, entries.size * 7, entries.size * 300, 1 << 30):
            monkeypatch.setattr(codebook, "NEAREST_BLOCK_ELEMS", block)
            assert np.array_equal(nearest_indices(feats, entries), unblocked), block

    def test_peak_memory_bounded_by_block(self):
        rng = np.random.default_rng(32)
        n, k, d = 8192, 1024, 4
        feats, entries = rng.normal(size=(n, d)), rng.normal(size=(k, d))
        tracemalloc.start()
        try:
            nearest_indices(feats, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole (N, K) distance table alone would be 64 MiB
        assert peak <= 2 * codebook.NEAREST_BLOCK_ELEMS * 8 + 16 * n

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            nearest_indices(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_empty_codebook(self):
        with pytest.raises(ValueError):
            nearest_indices(np.zeros((2, 3)), np.zeros((0, 3)))


class TestQuantizeST:
    def test_fixed_point(self):
        cb = make_cb([[1.0, -2.0], [3.0, 4.0]])
        feats = Tensor(np.tile([1.0, -2.0], (5, 1)), requires_grad=True)
        res = quantize_st(feats, cb)
        assert np.array_equal(res.z_q.data, feats.data)
        assert res.codebook_term.item() == 0.0
        assert res.commitment_term.item() == 0.0
        assert res.indices.tolist() == [0] * 5

    def test_forward_equals_entries_exactly(self):
        rng = np.random.default_rng(31)
        cb = make_cb(rng.normal(size=(7, 3)))
        feats = Tensor(rng.normal(size=(11, 3)), requires_grad=True)
        res = quantize_st(feats, cb)
        assert np.array_equal(res.z_q.data, cb.entries.data[res.indices])

    def test_straight_through_gradients(self):
        cb = make_cb(np.random.default_rng(32).normal(size=(4, 3)))
        feats = Tensor(np.random.default_rng(33).normal(size=(6, 3)), requires_grad=True)
        res = quantize_st(feats, cb)
        backward(res.z_q.sum())
        assert np.array_equal(feats.grad, np.ones((6, 3)))
        assert cb.entries.grad is None   # decoder path never reaches entries

    def test_downstream_grad_bit_exact(self):
        rng = np.random.default_rng(34)
        cb = make_cb(rng.normal(size=(5, 2)))
        feats = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        res = quantize_st(feats, cb)
        weights = rng.normal(size=(8, 2))
        backward(mul(res.z_q, Tensor(weights)).sum())
        assert np.array_equal(feats.grad, weights)

    def test_nonselected_entries_zero_grad(self):
        cb = make_cb([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
        feats = Tensor(np.array([[0.1, 0.1], [0.2, -0.1]]), requires_grad=True)
        res = quantize_st(feats, cb)
        total = res.z_q.sum() + res.codebook_term + res.commitment_term
        backward(total)
        assert res.indices.tolist() == [0, 0]
        assert np.array_equal(cb.entries.grad[1], [0.0, 0.0])
        assert np.array_equal(cb.entries.grad[2], [0.0, 0.0])
        assert not np.array_equal(cb.entries.grad[0], [0.0, 0.0])

    def test_codebook_term_grad_matches_fd_frozen_assignments(self):
        rng = np.random.default_rng(35)
        entries = rng.normal(size=(4, 3))
        feats = rng.normal(size=(9, 3))
        cb = make_cb(entries)
        res = quantize_st(Tensor(feats), cb)
        idx = res.indices
        backward(res.codebook_term)
        analytic = cb.entries.grad.copy()

        h = 1e-5
        fd = np.zeros_like(entries)
        for k in range(4):
            for d in range(3):
                for sgn, store in ((+1, 0), (-1, 1)):
                    probe = entries.copy()
                    probe[k, d] += sgn * h
                    val = ((feats - probe[idx]) ** 2).mean()
                    if store == 0:
                        hi = val
                    else:
                        lo = val
                fd[k, d] = (hi - lo) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-10)
        assert np.abs(analytic - fd).max() / scale < 1e-5

    def test_idempotent(self):
        rng = np.random.default_rng(36)
        cb = make_cb(rng.normal(size=(6, 4)))
        feats = Tensor(rng.normal(size=(10, 4)))
        res1 = quantize_st(feats, cb)
        res2 = quantize_st(Tensor(res1.z_q.data), cb)
        assert np.array_equal(res1.indices, res2.indices)
        assert np.array_equal(res1.z_q.data, res2.z_q.data)

    def test_duplicate_entries_same_value(self):
        base = np.random.default_rng(37).normal(size=(4, 2))
        dup_a = base.copy()
        dup_a[2] = dup_a[0]
        dup_b = dup_a.copy()
        dup_b[[0, 2]] = dup_b[[2, 0]]
        feats = Tensor(np.random.default_rng(38).normal(size=(7, 2)))
        res_a = quantize_st(feats, make_cb(dup_a))
        res_b = quantize_st(feats, make_cb(dup_b))
        assert np.array_equal(res_a.z_q.data, res_b.z_q.data)

    def test_usage_counting(self):
        cb = make_cb([[0.0], [1.0]])
        quantize_st(Tensor(np.array([[0.1], [0.9], [1.2]])), cb)
        assert cb.counts.tolist() == [1, 2]
        assert int(cb.counts.sum()) == 3
        quantize_st(Tensor(np.array([[0.0]])), cb, update_usage=False)
        assert cb.counts.tolist() == [1, 2]
        assert cb.window_counts.tolist() == [1, 2]

    def test_window_reset_keeps_cumulative(self):
        cb = make_cb([[0.0], [1.0]])
        quantize_st(Tensor(np.array([[0.1], [0.9]])), cb)
        cb.reset_window()
        quantize_st(Tensor(np.array([[0.1]])), cb)
        assert cb.window_counts.tolist() == [1, 0]
        assert cb.counts.tolist() == [2, 1]


class TestVqTerms:
    def test_hand_case_mean_convention(self):
        cbt, cmt = vq_terms(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]]), beta=1.0)
        assert cbt.item() == 0.5
        assert cmt.item() == 0.5

    def test_coincidence(self):
        x = Tensor(np.random.default_rng(39).normal(size=(3, 2)))
        cbt, cmt = vq_terms(x, Tensor(x.data.copy()), beta=1.0)
        assert cbt.item() == 0.0 and cmt.item() == 0.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(40)
        f = rng.normal(size=(8, 5))
        q = rng.normal(size=(8, 5))
        cbt, cmt = vq_terms(Tensor(f), Tensor(q), beta=0.25)
        acc = 0.0
        for n in range(8):
            for d in range(5):
                acc += (f[n, d] - q[n, d]) ** 2
        acc /= 40.0
        assert abs(cbt.item() - acc) < 1e-12
        assert abs(cmt.item() - 0.25 * acc) < 1e-12

    def test_symmetric_roles(self):
        rng = np.random.default_rng(41)
        f = Tensor(rng.normal(size=(4, 3)))
        q = Tensor(rng.normal(size=(4, 3)))
        cbt1, cmt1 = vq_terms(f, q, beta=1.0)
        cbt2, cmt2 = vq_terms(q, f, beta=1.0)
        assert cbt1.item() == cmt2.item()
        assert cmt1.item() == cbt2.item()

    def test_gradient_direction(self):
        f = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        q = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        cbt, cmt = vq_terms(f, q, beta=0.5)
        backward(cbt)
        assert f.grad is None         # stop-gradient side
        assert q.grad is not None
        backward(cmt)
        assert f.grad is not None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vq_terms(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))), 1.0)


class TestUsageStats:
    def test_uniform(self):
        cb = make_cb(np.zeros((4, 1)))
        cb.record(np.array([0, 1, 2, 3]))
        perp, active = usage_stats(cb)
        assert abs(perp - 4.0) < 1e-12
        assert active == 1.0

    def test_single_entry(self):
        cb = make_cb(np.zeros((8, 1)))
        cb.record(np.array([3, 3, 3]))
        perp, active = usage_stats(cb)
        assert abs(perp - 1.0) < 1e-12
        assert active == 1.0 / 8.0

    def test_half_half(self):
        cb = make_cb(np.zeros((4, 1)))
        cb.record(np.array([0, 0, 1, 1]))
        perp, active = usage_stats(cb)
        assert abs(perp - 2.0) < 1e-12
        assert active == 0.5

    def test_empty(self):
        cb = make_cb(np.zeros((4, 1)))
        perp, active = usage_stats(cb)
        assert perp == 0.0 and active == 0.0


def explicit_scan(feats, entries):
    """Brute-force nearest entry: every explicit-difference distance, lowest
    index among the minima (the first, for a row whose distances are all NaN)."""
    with np.errstate(invalid="ignore"):   # inf - inf where a row and the table hold one
        diff = feats[:, None, :] - entries[None, :, :]
    return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 512), d=st.integers(1, 8), n=st.integers(1, 48), on_grid=st.booleans(),
       log_scale=st.floats(-4.0, 2.0), seed=st.integers(0, 2**32 - 1),
       bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
       bad_entry=st.sampled_from([None, np.nan, np.inf]))
def test_nearest_matches_explicit_scan(k, d, n, on_grid, log_scale, seed, bad, bad_entry):
    """The screened search returns the brute-force scan's index on generic
    data, exact ties, 1-ulp near-ties, magnitudes 1e-4 to 1e2, rows holding
    NaN or ±inf, and a table holding one."""
    rng = np.random.default_rng(seed)
    if on_grid:   # small integers times a power of two: exact ties abound
        step = 2.0 ** round(log_scale / math.log10(2.0))
        entries = rng.integers(-3, 4, size=(k, d)) * step
        feats = rng.integers(-6, 7, size=(n, d)) * (step / 2)
    else:
        entries = rng.normal(size=(k, d)) * 10.0 ** log_scale
        feats = rng.normal(size=(n, d)) * 10.0 ** log_scale
    pick = rng.integers(0, k, size=(n, 2))
    for i in range(0, n, 3):   # a feature between two entries: an exact tie on the grid
        entries[pick[i, 1]] = 2.0 * feats[i] - entries[pick[i, 0]]
    for i in range(1, n, 3):   # a feature on an entry whose twin sits one ulp away
        a, b = pick[i]
        feats[i] = entries[a]
        entries[b] = np.nextafter(entries[a], np.inf * rng.choice([-1.0, 1.0], size=d))
    for value in bad:
        feats[rng.integers(0, n), rng.integers(0, d)] = value
    if bad_entry is not None:
        entries[rng.integers(0, k), rng.integers(0, d)] = bad_entry
    assert np.array_equal(nearest_indices(feats, entries), explicit_scan(feats, entries))


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 24), data=st.data())
def test_usage_state_is_two_histograms(k, data):
    """Under any sequence of record/reset_window calls the two count vectors
    are bincounts, usage_stats follows from them, and a checkpoint keeps them."""
    ops = data.draw(st.lists(st.none() | st.lists(st.integers(0, k - 1), max_size=20), max_size=8))
    state = init_model(TrainConfig(quantizer_mode="single", codebook_total=k, image_size=8,
                                   enc_channels=(2,), disc_channels=(2,), latent_channels=2))
    cb = state.quantizer.codebooks()["global"]
    seen, window = [], []
    for op in ops:
        if op is None:
            cb.reset_window()
            window = []
        else:
            cb.record(np.array(op, dtype=np.int64))
            seen += op
            window += op
    hist = [seen.count(i) for i in range(k)]
    assert cb.counts.dtype == cb.window_counts.dtype == np.uint64
    assert cb.counts.tolist() == hist
    assert cb.window_counts.tolist() == [window.count(i) for i in range(k)]
    perp, active = usage_stats(cb)
    assert active == sum(c > 0 for c in hist) / k
    n = len(seen)
    entropy = -sum(c / n * math.log(c / n) for c in hist if c)
    assert perp == 0.0 if n == 0 else math.isclose(perp, math.exp(entropy), rel_tol=1e-12)
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(state, d)
        back = load_checkpoint(d)[0].quantizer.codebooks()["global"]
    for a, b in ((cb.counts, back.counts), (cb.window_counts, back.window_counts)):
        assert b.dtype == np.uint64 and a.tobytes() == b.tobytes()
