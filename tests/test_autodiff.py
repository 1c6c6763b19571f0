import json
import math
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.special   # the reference for the engine's own erf and expit kernels

from dualvq import autodiff as ad
from dualvq.autodiff import (
    NonFiniteError,
    ShapeError,
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
    no_grad,
    relu,
    sigmoid,
    softmax,
    stop_gradient,
    straight_through,
)
from dualvq import tensor_io


def rel_err(analytic, reference):
    analytic = np.asarray(analytic)
    reference = np.asarray(reference)
    scale = max(np.abs(reference).max(), 1e-10)
    return np.abs(analytic - reference).max() / scale


def fd_grad(make_loss, param_data, h=1e-5):
    """Central finite differences of a scalar loss w.r.t. one flat parameter."""
    grad = np.zeros_like(param_data)
    flat = param_data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = make_loss(param_data)
        flat[i] = keep - h
        lo = make_loss(param_data)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def check_op_grad(build, shapes, seed, tol, n_shapes=5, shift=0.0):
    """FD-check gradients of a scalar built from several random leaf tensors."""
    rng = np.random.default_rng(seed)
    for trial in range(n_shapes):
        datas = [rng.normal(size=s) + shift for s in shapes(rng, trial)]
        leaves = [Tensor(d.copy(), requires_grad=True) for d in datas]
        loss = build(leaves)
        backward(loss)
        for li, d in enumerate(datas):
            def loss_of(_pd, li=li):
                probe = [Tensor(x) for x in datas]
                probe[li] = Tensor(datas[li])
                return build(probe).item()

            fd = fd_grad(lambda _pd: loss_of(_pd), datas[li])
            assert rel_err(leaves[li].grad, fd) < tol, f"trial {trial} leaf {li}"


def weighted(t, w):
    return (t * Tensor(w)).sum()


class TestElementwise:
    def test_add_trivial(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_add_zero_identity_grad(self):
        x = Tensor([1.5, -2.0, 3.0], requires_grad=True)
        loss = (x + Tensor(np.zeros(3))).sum()
        backward(loss)
        assert np.array_equal(loss.data, x.data.sum())
        assert np.array_equal(x.grad, np.ones(3))

    def test_add_broadcast_fd(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4,))
        w = rng.normal(size=(3, 4))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        backward(weighted(a + b, w))
        fd_a = fd_grad(lambda _: float(((a_data + b_data) * w).sum()), a_data)
        fd_b = fd_grad(lambda _: float(((a_data + b_data) * w).sum()), b_data)
        assert rel_err(a.grad, fd_a) < 1e-6
        assert rel_err(b.grad, fd_b) < 1e-6
        assert a.grad.shape == a_data.shape
        assert b.grad.shape == b_data.shape

    def test_mul_sub_fd(self):
        check_op_grad(
            lambda ts: weighted(mul(ts[0], ts[1]) - ts[0], np.linspace(-1, 1, 12).reshape(3, 4)),
            lambda rng, t: [(3, 4), (4,) if t % 2 else (3, 4)],
            seed=1, tol=1e-6,
        )

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError) as ei:
            Tensor(np.zeros((3, 2))) + Tensor(np.zeros((4,)))
        assert "(3, 2)" in str(ei.value) and "(4,)" in str(ei.value)


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(2).normal(size=(4, 4))
        out = matmul(Tensor(a), Tensor(np.eye(4)))
        assert np.array_equal(out.data, a @ np.eye(4))

    def test_hand(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_fd(self):
        def shapes(rng, t):
            m, k, n = rng.integers(2, 6, size=3)
            return [(m, k), (k, n)]

        check_op_grad(
            lambda ts: weighted(matmul(ts[0], ts[1]),
                                np.arange(ts[0].shape[0] * ts[1].shape[1], dtype=float).reshape(
                                    ts[0].shape[0], ts[1].shape[1]) - 3.0),
            shapes, seed=3, tol=1e-6,
        )

    def test_fd_5x7_7x3(self):
        rng = np.random.default_rng(4)
        a_data, b_data = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        w = rng.normal(size=(5, 3))
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        backward(weighted(matmul(a, b), w))
        fd = fd_grad(lambda _: float((a_data @ b_data * w).sum()), a_data)
        assert rel_err(a.grad, fd) < 1e-6
        fd = fd_grad(lambda _: float((a_data @ b_data * w).sum()), b_data)
        assert rel_err(b.grad, fd) < 1e-6

    def test_batched(self):
        rng = np.random.default_rng(5)
        a_data, b_data = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        backward(matmul(a, b).sum())
        fd = fd_grad(lambda _: float(np.matmul(a_data, b_data).sum()), b_data)
        assert rel_err(b.grad, fd) < 1e-6

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def conv2d_loops(x, w, stride, pad):
    """Independent six-loop conv oracle."""
    b, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((b, o, oh, ow))
    for bi in range(b):
        for oi in range(o):
            for y in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[bi, ci, y * stride + i, xx * stride + j] * w[oi, ci, i, j]
                    out[bi, oi, y, xx] = acc
    return out


class TestConv:
    def test_one_by_one_doubles(self):
        x = np.random.default_rng(6).normal(size=(1, 1, 4, 4))
        w = np.full((1, 1, 1, 1), 2.0)
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=0)
        assert np.allclose(out.data, 2.0 * x, atol=0, rtol=0)

    def test_delta_kernel_identity(self):
        x = np.random.default_rng(7).normal(size=(2, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=1)
        assert np.array_equal(out.data, x)

    def test_against_loop_oracle_with_grads(self):
        # 7x7 rather than 6x6: a 3x3 kernel at stride 2 needs an odd extent
        # for the output arithmetic to come out integral.
        rng = np.random.default_rng(8)
        x_data = rng.normal(size=(1, 2, 7, 7))
        w_data = rng.normal(size=(3, 2, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        out = conv2d(x, w, stride=2, pad=0)
        expected = conv2d_loops(x_data, w_data, 2, 0)
        assert np.abs(out.data - expected).max() < 1e-10

        g = rng.normal(size=out.shape)
        backward(weighted(out, g))
        # loop-oracle gradients by linearity of conv in each argument
        gx = np.zeros_like(x_data)
        for bi in range(1):
            for ci in range(2):
                for y in range(7):
                    for xx in range(7):
                        probe = np.zeros_like(x_data)
                        probe[bi, ci, y, xx] = 1.0
                        gx[bi, ci, y, xx] = (conv2d_loops(probe, w_data, 2, 0) * g).sum()
        assert np.abs(x.grad - gx).max() < 1e-10
        gw = np.zeros_like(w_data)
        it = np.nditer(w_data, flags=["multi_index"])
        while not it.finished:
            probe = np.zeros_like(w_data)
            probe[it.multi_index] = 1.0
            gw[it.multi_index] = (conv2d_loops(x_data, probe, 2, 0) * g).sum()
            it.iternext()
        assert np.abs(w.grad - gw).max() < 1e-10

    def test_fd_small(self):
        def shapes(rng, t):
            return [(1, 2, 5, 5), (2, 2, 3, 3)]

        check_op_grad(
            lambda ts: conv2d(ts[0], ts[1], stride=2, pad=1).sum(),
            shapes, seed=9, tol=1e-6,
        )

    def test_non_integral_extent(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 2, 2))), stride=2, pad=0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), 1, 1)


class TestConvTranspose:
    @pytest.mark.parametrize("shape,kshape,stride,pad", [
        ((1, 3, 4, 4), (3, 2, 3, 3), 1, 1),
        ((2, 2, 3, 5), (2, 4, 4, 4), 2, 1),
        ((1, 1, 6, 6), (1, 1, 2, 2), 2, 0),
        ((2, 3, 4, 3), (3, 2, 3, 2), 3, 0),
    ])
    def test_adjoint_identity(self, shape, kshape, stride, pad):
        rng = np.random.default_rng(hash((shape, stride)) % 2**32)
        y = rng.normal(size=shape)           # conv output side
        w = rng.normal(size=kshape)
        xt = conv_transpose2d(Tensor(y), Tensor(w), stride=stride, pad=pad)
        x = rng.normal(size=xt.shape)        # conv input side
        lhs = (conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data * y).sum()
        rhs = (x * xt.data).sum()
        assert abs(lhs - rhs) < 1e-10

    def test_one_by_one_equals_conv(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 1, 1))
        out_t = conv_transpose2d(Tensor(x), Tensor(w), stride=1, pad=0)
        out_c = conv2d(Tensor(x), Tensor(np.swapaxes(w, 0, 1)), stride=1, pad=0)
        assert np.allclose(out_t.data, out_c.data, atol=1e-12)

    def test_stride2_upsample_shape(self):
        x = Tensor(np.zeros((1, 4, 8, 8)))
        w = Tensor(np.zeros((4, 2, 4, 4)))
        assert conv_transpose2d(x, w, stride=2, pad=1).shape == (1, 2, 16, 16)

    def test_fd(self):
        def shapes(rng, t):
            return [(1, 2, 3, 3), (2, 2, 3, 3)]

        check_op_grad(
            lambda ts: conv_transpose2d(ts[0], ts[1], stride=2, pad=1).sum(),
            shapes, seed=11, tol=1e-6,
        )


def conv2d_loops_grads(x, w, g, stride, pad):
    """Input and kernel gradients of conv2d_loops for output gradient g, by the same loops."""
    b, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for bi, oi, y, xx in np.ndindex(b, o, g.shape[2], g.shape[3]):
        for ci, i, j in np.ndindex(c, kh, kw):
            gxp[bi, ci, y * stride + i, xx * stride + j] += g[bi, oi, y, xx] * w[oi, ci, i, j]
            gw[oi, ci, i, j] += g[bi, oi, y, xx] * xp[bi, ci, y * stride + i, xx * stride + j]
    return gxp[:, :, pad : pad + h, pad : pad + ww], gw


def conv_geometries(stride):
    """Input extents, kernel extents and pad for every integral conv geometry
    with pad 0-2, kernels 1-4 (square and not) and 1-3 output rows/columns.
    At stride 2-3 this includes kernels smaller than the stride and input
    extents smaller than the stride."""
    for pad in (0, 1, 2):
        for kh, kw in ((1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (4, 2), (3, 1)):
            for oh, ow in ((1, 2), (3, 1), (2, 3)):
                h = (oh - 1) * stride + kh - 2 * pad
                ww = (ow - 1) * stride + kw - 2 * pad
                if h >= 1 and ww >= 1:
                    yield (h, ww), (kh, kw), pad


def full_and_restricted_grads(op, a, b, g, stride, pad):
    """([grad a], [grad b]) of sum(op(a, b) * g), each from a full pass and from
    a pass restricted to that argument, which leaves the other without a gradient."""
    full = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
    backward(weighted(op(*full, stride=stride, pad=pad), g))
    grads = ([full[0].grad], [full[1].grad])
    for k in (0, 1):
        ts = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
        backward(weighted(op(*ts, stride=stride, pad=pad), g), wrt=[ts[k]])
        assert ts[1 - k].grad is None
        grads[k].append(ts[k].grad)
    return grads


# (C, O) per conv: a correlation side with at most THIN_CHANNELS channels is
# expanded over the taps and a wider one looped over them; at stride s the
# correlation sees C·s² input channels, so each path meets every stride
CHANNEL_PAIRS = ((1, 1), (1, 4), (4, 1), (2, 3), (4, 5))


def check_conv2d_matches_loops(rng, stride, c, o, geometries):
    for (h, ww), (kh, kw), pad in geometries:
        where = (c, o, h, ww, kh, kw, pad)
        x = rng.normal(size=(2, c, h, ww))
        w = rng.normal(size=(o, c, kh, kw))
        expected = conv2d_loops(x, w, stride, pad)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
        assert out.shape == expected.shape
        assert np.abs(out.data - expected).max() < 1e-10, where
        g = rng.normal(size=expected.shape)
        gx, gw = conv2d_loops_grads(x, w, g, stride, pad)
        got_x, got_w = full_and_restricted_grads(conv2d, x, w, g, stride, pad)
        for got in got_x:
            assert np.abs(got - gx).max() < 1e-10, where
        for got in got_w:
            assert np.abs(got - gw).max() < 1e-10, where


def check_conv_transpose2d_matches_loops(rng, stride, c, o, geometries):
    for (h, ww), (kh, kw), pad in geometries:
        where = (c, o, h, ww, kh, kw, pad)
        w = rng.normal(size=(o, c, kh, kw))
        y = rng.normal(size=conv2d_loops(np.zeros((2, c, h, ww)), w, stride, pad).shape)
        # conv_transpose2d is conv2d's input gradient; its own gradients
        # are conv2d (w.r.t. y) and conv2d's kernel gradient (w.r.t. w)
        expected, _ = conv2d_loops_grads(np.zeros((2, c, h, ww)), w, y, stride, pad)
        out = conv_transpose2d(Tensor(y), Tensor(w), stride=stride, pad=pad)
        assert out.shape == expected.shape
        assert np.abs(out.data - expected).max() < 1e-10, where
        g = rng.normal(size=expected.shape)
        gy = conv2d_loops(g, w, stride, pad)
        _, gw = conv2d_loops_grads(g, w, y, stride, pad)
        got_y, got_w = full_and_restricted_grads(conv_transpose2d, y, w, g, stride, pad)
        for got in got_y:
            assert np.abs(got - gy).max() < 1e-10, where
        for got in got_w:
            assert np.abs(got - gw).max() < 1e-10, where


class TestConvGeometryGrid:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv2d_matches_loops(self, stride):
        rng = np.random.default_rng(40 + stride)
        for c, o in CHANNEL_PAIRS:
            check_conv2d_matches_loops(rng, stride, c, o, conv_geometries(stride))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv_transpose2d_matches_loops(self, stride):
        rng = np.random.default_rng(50 + stride)
        for c, o in CHANNEL_PAIRS:
            check_conv_transpose2d_matches_loops(rng, stride, c, o, conv_geometries(stride))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_row_blocks_match_loops(self, stride, monkeypatch):
        # blocks of a few rows, so every path splits its rows into several
        # blocks and ends on a ragged one
        monkeypatch.setattr(ad, "CORRELATE_BLOCK_BYTES", 8 * 9 * 7)
        rng = np.random.default_rng(45 + stride)
        geometries = [((7, 9), (3, 3), 1), ((6, 8), (4, 4), 1), ((5, 6), (3, 2), 0)]
        for c, o in CHANNEL_PAIRS:
            check_conv2d_matches_loops(rng, stride, c, o, geometries)
            check_conv_transpose2d_matches_loops(rng, stride, c, o, geometries)

    @pytest.mark.parametrize("op,x_shape,w_shape,stride", [
        (conv2d, (8, 24, 32, 32), (24, 24, 3, 3), 1),
        (conv_transpose2d, (8, 24, 16, 16), (24, 24, 4, 4), 2),
        (conv2d, (8, 24, 32, 32), (3, 24, 3, 3), 1),    # dec.out: thin output
        (conv2d, (8, 32, 8, 8), (1, 32, 3, 3), 1),      # disc.out: one output channel
    ])
    def test_peak_memory_has_no_column_tensor(self, op, x_shape, w_shape, stride):
        # A k²-expanded column tensor alone is 4.5x (3x3) or 3.2x (4x4 at
        # stride 2) the input-plus-output bytes of the wide shapes, and 8.0x
        # (dec.out) or 8.7x (disc.out) those of the thin ones, on top of the
        # grids. Expanding only a thin side, a row block at a time, stays
        # under the same bound.
        rng = np.random.default_rng(60)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        tracemalloc.start()
        try:
            out = op(x, w, stride=stride, pad=1)
            backward(out.sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (x.data.nbytes + out.data.nbytes)


class TestFusedConv:
    UNFUSED = {None: lambda t: t, "relu": relu, "leaky_relu": leaky_relu, "sigmoid": sigmoid}

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("act", [None, "relu", "leaky_relu", "sigmoid"])
    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    def test_bias_and_act_bit_exact_with_unfused_chain(self, op, act, stride):
        rng = np.random.default_rng(70 + stride)
        k = 4 if stride == 2 else 3
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(5, 3, k, k) if op is conv2d else (3, 5, k, k))
        b = rng.normal(size=(1, 5, 1, 1))
        g = rng.normal(size=op(Tensor(x), Tensor(w), stride=stride, pad=1).shape)

        def run(fused, wrt_w):
            ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
            if fused:
                y = op(ts[0], ts[1], stride=stride, pad=1, bias=ts[2], act=act)
            else:
                y = self.UNFUSED[act](op(ts[0], ts[1], stride=stride, pad=1) + ts[2])
            backward(weighted(y, g), wrt=[ts[1]] if wrt_w else None)
            return y.data, [t.grad for t in ts]

        for wrt_w in (False, True):
            y_f, grads_f = run(True, wrt_w)
            y_u, grads_u = run(False, wrt_w)
            assert np.array_equal(y_f, y_u)
            # a pass restricted to w leaves x and b without a gradient
            assert [t is None for t in grads_f] == [t is None for t in grads_u] == [wrt_w, False, wrt_w]
            for got, want in zip(grads_f, grads_u):
                assert want is None or np.array_equal(got, want)

    def test_activations_keep_their_expressions(self):
        # fused and standalone activations share one table; pin its arithmetic
        rng = np.random.default_rng(72)
        x, g = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        s = 1.0 / (1.0 + np.exp(-x))
        for fn, y, gx in ((relu, np.maximum(x, 0.0), g * (x > 0.0)),
                          (leaky_relu, np.where(x > 0.0, x, 0.2 * x), g * np.where(x > 0.0, 1.0, 0.2)),
                          (sigmoid, s, g * s * (1.0 - s))):
            t = Tensor(x, requires_grad=True)
            out = fn(t)
            backward(weighted(out, g))
            assert np.array_equal(out.data, y) and np.array_equal(t.grad, gx), fn.__name__

    def test_bias_shape_checked(self):
        x, w = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, w, pad=1, bias=np.zeros((3,)))


class TestNormActivations:
    def test_layernorm_constant_row(self):
        gain = Tensor(np.full(4, 2.0))
        bias = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = layernorm(Tensor(np.full((2, 4), 7.0)), gain, bias)
        assert np.allclose(out.data, np.broadcast_to(bias.data, (2, 4)), atol=1e-9)

    def test_layernorm_hand(self):
        out = layernorm(Tensor([[2.0, 4.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layernorm_fd(self):
        def build(ts):
            return weighted(layernorm(ts[0], ts[1], ts[2]), np.linspace(-2, 1, 12).reshape(3, 4))

        check_op_grad(build, lambda rng, t: [(3, 4), (4,), (4,)], seed=12, tol=1e-5)

    def test_layernorm_dim_mismatch(self):
        with pytest.raises(ShapeError):
            layernorm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)), Tensor(np.zeros(4)))

    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(13).normal(size=(6, 9)) * 30
        out = softmax(Tensor(x))
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_softmax_fd(self):
        check_op_grad(
            lambda ts: weighted(softmax(ts[0]), np.linspace(0, 2, 15).reshape(3, 5)),
            lambda rng, t: [(3, 5)], seed=14, tol=1e-5,
        )

    @pytest.mark.parametrize("heads_view", [False, True])
    def test_attention_bit_exact_with_unfused_chain(self, heads_view):
        # heads_view builds q, k, v as the transformer does: (T, H·dh) rows
        # reshaped and swapped into (H, T, dh) strided views
        rng = np.random.default_rng(73)
        for h, t, s, dh, dv in ((2, 5, 5, 3, 3), (1, 4, 6, 2, 5), (3, 7, 7, 4, 4)):
            if heads_view:
                t = s
                dv = dh
            arrays = [rng.normal(size=(h, n, m)) for n, m in ((t, dh), (s, dh), (s, dv))]
            g = rng.normal(size=(h, t, dv))
            scale = 1.0 / np.sqrt(dh)

            def run(fused):
                leaves = [Tensor(a.swapaxes(0, 1).reshape(a.shape[1], -1) if heads_view else a,
                                 requires_grad=True) for a in arrays]
                q, k, v = (x.reshape(x.shape[0], h, -1).swapaxes(0, 1) if heads_view else x
                           for x in leaves)
                if fused:
                    y = attention(q, k, v, scale)
                else:
                    y = matmul(softmax(mul(matmul(q, k.swapaxes(1, 2)), scale)), v)
                backward(weighted(y, g))
                return y.data, [x.grad for x in leaves]

            y_f, grads_f = run(True)
            y_u, grads_u = run(False)
            assert np.array_equal(y_f, y_u)
            for got, want in zip(grads_f, grads_u):
                assert np.array_equal(got, want)

    def test_attention_shapes_checked(self):
        q, k = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError, match="attention"):
            attention(q, k, Tensor(np.zeros((2, 4, 4))), 0.5)
        with pytest.raises(ShapeError, match="attention"):
            attention(q, Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((2, 5, 4))), 0.5)

    @pytest.mark.parametrize("fn,shift", [(relu, 0.0), (leaky_relu, 0.0), (gelu, 0.0),
                                          (sigmoid, 0.0)])
    def test_pointwise_fd(self, fn, shift):
        def build(ts):
            return weighted(fn(ts[0]), np.linspace(-1, 1.5, ts[0].size).reshape(ts[0].shape))

        # keep samples away from the relu kink
        check_op_grad(build, lambda rng, t: [(4, 5)], seed=15, tol=1e-5, shift=3.0)
        check_op_grad(build, lambda rng, t: [(2, 7)], seed=16, tol=1e-5, shift=-3.0)

    def test_losses_fd(self):
        check_op_grad(lambda ts: l1_loss(ts[0], ts[1]),
                      lambda rng, t: [(3, 4), (3, 4)], seed=17, tol=1e-5, shift=0.3)
        check_op_grad(lambda ts: mse_loss(ts[0], ts[1]),
                      lambda rng, t: [(3, 4), (3, 4)], seed=18, tol=1e-5)

    def test_loss_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# bounds fixed before the kernels were written: the erf port differs from
# Cephes only through numpy's exp, the sigmoid through exp and 1/(1 + e)
ERF_ULPS = 1
EXPIT_ULPS = 4


def ulp_distance(a, b):
    """Units in the last place between float64 arrays, counted on a
    monotone integer line through zero."""
    ia, ib = (np.where(v.view(np.int64) < 0, np.iinfo(np.int64).min - v.view(np.int64), v.view(np.int64))
              for v in (a, b))
    return np.abs(ia - ib)


def kernel_sweep(specials):
    rng = np.random.default_rng(80)
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, 1.0, ad.ERF_CLIP, 5e-324, tiny / 2, tiny, 1e-300, 1e154, 1e300, np.inf]
    edges += [np.nextafter(e, np.inf) for e in (1.0, ad.ERF_CLIP)]
    edges += [np.nextafter(e, 0.0) for e in (1.0, ad.ERF_CLIP)]
    pos = np.concatenate([edges, specials, rng.exponential(size=20000), rng.exponential(size=20000) * 4,
                          np.linspace(0.0, 8.0, 40001)])
    return np.concatenate([pos, -pos, [np.nan]])


def strict_kernel(fn, x):
    """``fn(x)`` with numpy's default floating-point warnings (all but
    underflow) raised as errors."""
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        return fn(x)


class TestSpecialFunctions:
    def test_erf_within_one_ulp_of_cephes(self):
        x = kernel_sweep([0.5, 2.0, 3.5, 26.5, 27.0, 710.0, 1e10])
        got, want = strict_kernel(ad.erf, x), scipy.special.erf(x)
        same = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~same)
        assert np.array_equal(np.signbit(got[same]), np.signbit(want[same]))   # -0.0 stays -0.0
        assert ulp_distance(got[same], want[same]).max() <= ERF_ULPS

    def test_erf_edges_exact(self):
        x = np.array([0.0, -0.0, ad.ERF_CLIP, -ad.ERF_CLIP, 1e300, np.inf, -np.inf, 5e-324, -5e-324])
        got = strict_kernel(ad.erf, x)
        assert got.tobytes() == np.array([0.0, -0.0, 1.0, -1.0, 1.0, 1.0, -1.0, 5e-324, -5e-324]).tobytes()
        assert np.isnan(strict_kernel(ad.erf, np.array([np.nan]))).all()
        assert strict_kernel(ad.erf, np.array(2.0)).shape == ()
        assert strict_kernel(ad.erf, np.array(2.0)) == scipy.special.erf(2.0)

    def test_erf_of_any_layout(self):
        # the |x| > 1 cells go by flat index: a transposed or strided input keeps its cells
        x = np.random.default_rng(83).normal(size=(7, 10)) * 2
        want = ad.erf(x)
        assert np.array_equal(strict_kernel(ad.erf, x.T), want.T)
        assert np.array_equal(strict_kernel(ad.erf, x[:, ::3]), want[:, ::3])

    def test_expit_within_four_ulp_of_scipy(self):
        x = kernel_sweep([-705.0, -709.0, -709.5, -709.78, -710.0, -745.0, -746.0, -800.0, -1e300,
                          36.0, 37.0, 40.0])
        x = np.concatenate([x, -np.linspace(700.0, 760.0, 6001)])
        got, want = strict_kernel(ad.expit, x), scipy.special.expit(x)
        same = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~same)
        assert ulp_distance(got[same], want[same]).max() <= EXPIT_ULPS
        below = x[same] <= -710.0   # exp(-x) overflows: the value is 0, with no warning
        assert below.sum() > 100 and not got[same][below].any()

    def test_expit_edges_exact(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0])
        assert strict_kernel(ad.expit, x).tobytes() == np.array([0.5, 0.5, 1.0, 0.0, 1.0, 0.0]).tobytes()

    def test_gelu_uses_the_kernel(self):
        x = np.random.default_rng(81).normal(size=(6, 7)) * 3
        phi = 0.5 * (1.0 + ad.erf(x * (1.0 / np.sqrt(2.0))))
        assert np.array_equal(gelu(Tensor(x)).data, x * phi)


class TestNoGrad:
    def test_no_graph_inside_and_restored_after(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with no_grad():
            y = gelu(mul(x, x))
            with no_grad():
                pass
            z = sigmoid(y)   # the inner scope's exit keeps the outer one
        assert not y.requires_grad and y._parents == () and not z.requires_grad
        assert x.requires_grad
        w = mul(x, x)
        assert w.requires_grad and w._parents == (x, x)

    def test_scope_ends_on_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError), no_grad():
            matmul(x, x)
        assert mul(x, x).requires_grad

    def test_same_values(self):
        rng = np.random.default_rng(82)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)

        def forward():
            return gelu(conv2d(x, w, pad=1, act="sigmoid")).data

        with no_grad():
            off = forward()
        assert forward().tobytes() == off.tobytes()


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        backward(mul(x, x).sum())
        assert np.array_equal(x.grad, [6.0])

    def test_composite_graph_fd(self):
        rng = np.random.default_rng(19)
        x_data = rng.normal(size=(1, 2, 6, 6))
        w_data = rng.normal(size=(2, 2, 4, 4)) * 0.5
        m_data = rng.normal(size=(2 * 3 * 3, 4))
        target = rng.normal(size=(1, 4))

        def forward(xd, wd, md):
            out = conv2d(Tensor(xd), Tensor(wd), stride=2, pad=1)
            act = relu(out)
            flat = act.reshape((1, -1))
            pred = matmul(flat, Tensor(md))
            return mse_loss(pred, Tensor(target))

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        m = Tensor(m_data, requires_grad=True)
        out = conv2d(x, w, stride=2, pad=1)
        loss = mse_loss(matmul(relu(out).reshape((1, -1)), m), Tensor(target))
        backward(loss)
        for leaf, data, idx in ((x, x_data, 0), (w, w_data, 1), (m, m_data, 2)):
            fd = fd_grad(lambda _: forward(x_data, w_data, m_data).item(), data)
            assert rel_err(leaf.grad, fd) < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x + x)

    def test_grad_accumulates_across_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = x.sum()
        backward(loss)
        backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_shared_first_gradients_accumulate_apart(self):
        # add hands both operands views of one gradient array; later passes
        # must not add into that shared memory
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        w = np.array([0.5, -1.0])
        loss = weighted(a + b, w)
        backward(loss)
        assert np.shares_memory(a.grad, b.grad)
        backward(loss)
        backward(weighted(a, w))
        assert np.array_equal(a.grad, 3 * w) and np.array_equal(b.grad, 2 * w)

    def test_scalar_gradient_stays_a_0d_array(self):
        x = Tensor(3.0, requires_grad=True)
        backward(x * x)   # two contributions to one 0-d gradient
        assert type(x.grad) is np.ndarray and x.grad.shape == () and x.grad == 6.0

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(20)
            x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            gain = Tensor(np.ones(3), requires_grad=True)
            bias = Tensor(np.zeros(3), requires_grad=True)
            h = relu(conv2d(x, w, stride=1, pad=1))
            h = h.swapaxes(1, 3)
            h = layernorm(h.reshape((-1, 3)).reshape((2, 6, 6, 4)).reshape((-1, 4)),
                          Tensor(np.ones(4)), Tensor(np.zeros(4)))
            loss = mse_loss(h, Tensor(np.zeros(h.shape)))
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_restricted_pass_matches_full_pass(self):
        rng = np.random.default_rng(22)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((2, 3, 8, 8), (4, 3, 4, 4), (2, 3, 3, 3), (128, 5))]

        def loss_of(x, w1, w2, m):
            h = relu(conv2d(x, w1, stride=2, pad=1))
            up = conv_transpose2d(h, w1, stride=2, pad=1)  # w1 feeds two nodes
            g = conv2d(up + x, w2, stride=1, pad=1).reshape((2, 128))
            return mse_loss(matmul(g, m), Tensor(np.zeros((2, 5))))

        backward(loss_of(*leaves))
        full = [leaf.grad.copy() for leaf in leaves]
        for target in range(len(leaves)):
            for leaf in leaves:
                leaf.grad = None
            backward(loss_of(*leaves), wrt=[leaves[target]])
            assert np.array_equal(leaves[target].grad, full[target])
            assert all(leaf.grad is None for i, leaf in enumerate(leaves) if i != target)
        assert ad._wanted is None


class TestStructural:
    def test_narrow_concat_roundtrip(self):
        x_data = np.random.default_rng(21).normal(size=(2, 6, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        a = narrow(x, 1, 0, 2)
        b = narrow(x, 1, 2, 4)
        back = concat([a, b], axis=1)
        assert np.array_equal(back.data, x_data)
        backward(weighted(back, np.ones_like(x_data)))
        assert np.array_equal(x.grad, np.ones_like(x_data))

    def test_narrow_out_of_range(self):
        with pytest.raises(ShapeError):
            narrow(Tensor(np.zeros((1, 4, 2, 2))), 1, 2, 3)

    def test_gather_rows_scatter_grad(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = gather_rows(table, np.array([1, 1, 3]))
        backward(out.sum())
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_straight_through(self):
        f = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        q = Tensor(np.array([[5.0, 7.0]]))
        out = straight_through(f, q)
        assert np.array_equal(out.data, q.data)
        backward(weighted(out, np.array([[3.0, 4.0]])))
        assert np.array_equal(f.grad, [[3.0, 4.0]])

    def test_stop_gradient_blocks(self):
        x = Tensor([2.0], requires_grad=True)
        y = mul(stop_gradient(x), x)
        backward(y.sum())
        assert np.array_equal(x.grad, [2.0])   # only the live factor contributes

    def test_mean_axis(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = x.mean(axis=(0, 2))
        assert out.shape == (3,)
        backward(out.sum())
        assert np.allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))


class TestFiniteAndDump:
    def test_leaf_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_first_nonfinite_names_earliest(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        y.data[0] = np.inf   # simulate a blow-up inside the graph
        z = y + y
        node = ad.first_nonfinite(z)
        assert node is y

    ARRAYS = {"cube": np.random.default_rng(22).normal(size=(3, 4, 5)), "scalar": np.array(3.5),
              "empty": np.zeros((0, 4)), "row": np.arange(6.0)}

    def test_dump_roundtrip(self, tmp_path):
        path = tmp_path / "t.dvq"
        tensor_io.write_bundle(str(path), {"name": "t"}, self.ARRAYS)
        header, arrays = tensor_io.read_bundle(str(path))
        assert header == {"name": "t", "tensors": [[k, list(a.shape)] for k, a in self.ARRAYS.items()]}
        assert list(arrays) == list(self.ARRAYS)
        for key, arr in self.ARRAYS.items():
            assert arrays[key].shape == arr.shape and arrays[key].dtype == np.float64, key
            assert arrays[key].tobytes() == arr.tobytes(), key
            assert arrays[key].flags.writeable, key
        assert arrays["scalar"] == 3.5

    def test_dump_scalar(self, tmp_path):
        path = tmp_path / "s.dvq"
        tensor_io.write_bundle(str(path), {}, {"s": np.array(3.5)})
        header, arrays = tensor_io.read_bundle(str(path))
        assert header == {"tensors": [["s", []]]}
        assert arrays["s"].shape == ()
        assert arrays["s"] == 3.5

    def test_every_cut_container_rejected(self, tmp_path):
        path = tmp_path / "t.dvq"
        tensor_io.write_bundle(str(path), {"name": "t"}, self.ARRAYS)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                tensor_io.read_bundle(str(path))

    def test_repeated_key_refused(self, tmp_path):
        path = tmp_path / "t.dvq"
        tensor_io.write_bundle(str(path), {}, {"a": np.ones(3), "b": np.ones(3)})
        line, _, values = path.read_bytes()[:-4].partition(b"\n")
        path.write_bytes(stamped(line.replace(b'"b"', b'"a"') + b"\n" + values))
        with pytest.raises(ValueError, match=re.escape(f"{path}: header names tensor 'a' twice")):
            tensor_io.read_bundle(str(path))

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.sampled_from(["keep", "no shape", "negative", "bool", "float", "64 dims",
                                           "65 dims", "one short", "one past", "flattened", "renamed"]),
                          min_size=4, max_size=4),
           plain_keys=st.booleans())
    @example(edits=["keep"] * 4, plain_keys=False).via("the file as written")
    @example(edits=["keep"] * 4, plain_keys=True).via("a format-7 header")
    @example(edits=["64 dims", "flattened", "64 dims", "flattened"], plain_keys=False).via("reshapes")
    @example(edits=["one short", "one past", "keep", "keep"], plain_keys=False).via("sizes that still add up")
    @example(edits=["keep", "65 dims", "keep", "keep"], plain_keys=False).via("numpy's own refusal")
    @example(edits=["renamed", "keep", "keep", "keep"], plain_keys=False).via("a repeated key")
    def test_edited_tensor_entries_load_only_if_consistent(self, tmp_path_factory, edits, plain_keys):
        path = tmp_path_factory.mktemp("container") / "t.dvq"
        tensor_io.write_bundle(str(path), {"name": "t"}, self.ARRAYS)
        line, _, values = path.read_bytes()[:-4].partition(b"\n")
        header = json.loads(line)
        entries = []
        for (key, shape), edit in zip(header["tensors"], edits):
            shape = {"keep": shape, "negative": [-1] + shape, "bool": [True] + shape, "float": shape + [1.0],
                     "64 dims": shape + [1] * (64 - len(shape)), "65 dims": shape + [1] * (65 - len(shape)),
                     "one short": [math.prod(shape) - 1], "one past": [math.prod(shape) + 1],
                     "flattened": [math.prod(shape)], "renamed": shape}.get(edit)
            entries.append([key] if shape is None else ["row" if edit == "renamed" else key, shape])
        header["tensors"] = [key for key, *_ in entries] if plain_keys else entries   # the format-7 header
        path.write_bytes(stamped(json.dumps(header).encode() + b"\n" + values))
        well_formed = all(len(e) == 2 and len(e[1]) <= 64 and all(type(n) is int and n >= 0 for n in e[1])
                          for e in entries)
        consistent = (not plain_keys and well_formed and len({e[0] for e in entries}) == len(entries)
                      and 8 * sum(math.prod(e[1]) for e in entries) == len(values))
        try:
            loaded, arrays = tensor_io.read_bundle(str(path))
        except ValueError as e:
            assert not consistent and str(path) in str(e)
        else:
            assert consistent and loaded == header
            assert [[k, list(a.shape)] for k, a in arrays.items()] == entries
            assert b"".join(a.tobytes() for a in arrays.values()) == values

    @settings(max_examples=300, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), max_size=3), cut=st.integers(0, 200),
           edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4))
    def test_cut_or_changed_dump_parses_or_raises_value_error(self, tmp_path_factory, shape, cut, edits):
        arr = np.arange(float(np.prod(shape))).reshape(shape)
        path = tmp_path_factory.mktemp("container") / "t.dvq"
        tensor_io.write_bundle(str(path), {"name": "t"}, {"a": arr})
        saved = path.read_bytes()
        blob = bytearray(saved)
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        blob = bytes(blob[: len(blob) - cut % (len(blob) + 1)])
        path.write_bytes(blob)
        try:
            header, arrays = tensor_io.read_bundle(str(path))
        except ValueError as e:
            assert str(path) in str(e)
        else:   # only an unchanged file loads
            assert blob == saved and header == {"name": "t", "tensors": [["a", shape]]}
            assert arrays["a"].tobytes() == arr.tobytes() and arrays["a"].shape == arr.shape


def stamped(body: bytes) -> bytes:
    """``body`` and the CRC-32 trailer that ends a container, so an edited
    header gets past the checksum to the check the edit targets."""
    return body + struct.pack("<I", zlib.crc32(body))
