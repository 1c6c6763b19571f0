import numpy as np
import pytest

from dualvq.autodiff import ShapeError, Tensor, backward
from dualvq.codebook import Codebook, nearest_indices
from dualvq.dual_quantizer import (
    DualQuantizerState,
    SingleQuantizerState,
    channels_to_rows,
    quant_loss_total,
    quantize_dual,
    quantize_single,
    split_channels,
)
from dualvq.rng import component_rng
from dualvq.model import TrainConfig, init_model
from dualvq.transformer import TransformerParams, refine
from dualvq.autodiff import concat


def dual_state(entries_g, entries_l, tf_params=None, beta=0.25):
    entries_g = np.asarray(entries_g, dtype=np.float64)
    entries_l = np.asarray(entries_l, dtype=np.float64)
    return DualQuantizerState(
        global_cb=Codebook(entries_g.shape[0], entries_g.shape[1], entries=entries_g),
        local_cb=Codebook(entries_l.shape[0], entries_l.shape[1], entries=entries_l),
        tf_params=tf_params,
        split_global=entries_g.shape[1],
        split_local=entries_l.shape[1],
        beta=beta,
    )


def enumeration_oracle(z, entries_g, entries_l, split_g, beta):
    """Brute-force assignments and the four loss terms, plain loops."""
    b, c, h, w = z.shape
    rows = z.transpose(0, 2, 3, 1).reshape(-1, c)
    rows_g, rows_l = rows[:, :split_g], rows[:, split_g:]
    out = {}
    for tag, feats, entries in (("g", rows_g, entries_g), ("l", rows_l, entries_l)):
        idx = []
        for n in range(feats.shape[0]):
            best, best_d = 0, np.inf
            for k in range(entries.shape[0]):
                d = float(((feats[n] - entries[k]) ** 2).sum())
                if d < best_d:
                    best, best_d = k, d
            idx.append(best)
        idx = np.array(idx)
        sel = entries[idx]
        cb_term = float(((feats - sel) ** 2).mean())
        out[tag] = (idx, sel, cb_term, beta * cb_term)
    return out


class TestSplit:
    def test_paper_width_halves(self):
        z = Tensor(np.zeros((1, 256, 2, 2)))
        a, b = split_channels(z, 128)
        assert a.shape == (1, 128, 2, 2)
        assert b.shape == (1, 128, 2, 2)

    def test_desk_roundtrip_bit_exact(self):
        z_data = np.random.default_rng(50).normal(size=(2, 8, 4, 4))
        z = Tensor(z_data, requires_grad=True)
        a, b = split_channels(z, 4)
        back = concat([a, b], axis=1)
        assert np.array_equal(back.data, z_data)

    def test_unequal_split_192_64(self):
        z = Tensor(np.zeros((1, 256, 2, 2)))
        a, b = split_channels(z, 192)
        assert a.shape == (1, 192, 2, 2)
        assert b.shape == (1, 64, 2, 2)

    def test_split_exceeding_c(self):
        with pytest.raises(ShapeError):
            split_channels(Tensor(np.zeros((1, 4, 2, 2))), 5)

    def test_gradients_route_to_halves(self):
        z = Tensor(np.random.default_rng(51).normal(size=(1, 4, 2, 2)), requires_grad=True)
        a, _ = split_channels(z, 1)
        backward(a.sum())
        assert np.array_equal(z.grad[:, 0], np.ones((1, 2, 2)))
        assert np.array_equal(z.grad[:, 1:], np.zeros((1, 3, 2, 2)))


class TestRefine:
    def test_fresh_params_are_identity(self):
        rng = component_rng(0, "tf")
        params = TransformerParams(6, 3, 2, 16, rng=rng)   # output projections start at zero
        entries = Tensor(np.random.default_rng(52).normal(size=(10, 6)))
        out = refine(entries, params)
        assert np.array_equal(out.data, entries.data)

    def test_shape_contract(self):
        params = TransformerParams(4, 2, 2, 8, rng=component_rng(1, "tf"))
        for t in params.tensors.values():          # randomize everything
            t.data = np.random.default_rng(t._nid).normal(size=t.shape) * 0.3
        for k in (1, 5, 12):
            out = refine(Tensor(np.random.default_rng(k).normal(size=(k, 4))), params)
            assert out.shape == (k, 4)

    def test_gradients_vs_fd(self):
        params = TransformerParams(4, 1, 2, 6, rng=component_rng(2, "tf"))
        rng = np.random.default_rng(53)
        for t in params.tensors.values():
            t.data = rng.normal(size=t.shape) * 0.4
        entries_data = rng.normal(size=(5, 4))

        def loss_value():
            entries = Tensor(entries_data)
            return refine(entries, params).sum().item()

        entries = Tensor(entries_data, requires_grad=True)
        backward(refine(entries, params).sum())

        h = 1e-5
        for name in ("layer0.wq", "layer0.wv", "layer0.wo", "layer0.w1", "layer0.w2",
                     "layer0.ln1_g", "layer0.b1"):
            t = params[name]
            analytic = t.grad
            fd = np.zeros_like(t.data)
            flat_d = t.data.reshape(-1)
            flat_fd = fd.reshape(-1)
            for i in range(flat_d.size):
                keep = flat_d[i]
                flat_d[i] = keep + h
                hi = loss_value()
                flat_d[i] = keep - h
                lo = loss_value()
                flat_d[i] = keep
                flat_fd[i] = (hi - lo) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-10)
            assert np.abs(analytic - fd).max() / scale < 1e-4, name

        fd = np.zeros_like(entries_data)
        flat_d = entries_data.reshape(-1)
        flat_fd = fd.reshape(-1)
        for i in range(flat_d.size):
            keep = flat_d[i]
            flat_d[i] = keep + h
            hi = loss_value()
            flat_d[i] = keep - h
            lo = loss_value()
            flat_d[i] = keep
            flat_fd[i] = (hi - lo) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-10)
        assert np.abs(entries.grad - fd).max() / scale < 1e-4

    def test_zero_residual_grads_vanish(self):
        params = TransformerParams(4, 2, 2, 8, rng=component_rng(3, "tf"), zero_residual=True)
        entries = Tensor(np.random.default_rng(54).normal(size=(6, 4)), requires_grad=True)
        out = refine(entries, params)
        weights = np.random.default_rng(55).normal(size=(6, 4))
        backward((out * Tensor(weights)).sum())
        assert np.array_equal(entries.grad, weights)
        for name, t in params.named():
            assert t.grad is None or not np.any(t.grad), name

    def test_embed_heads_divisibility(self):
        with pytest.raises(ValueError):
            TransformerParams(4, 1, 3, 8, rng=component_rng(4, "tf"))

    def test_dim_mismatch(self):
        params = TransformerParams(4, 1, 2, 8, rng=component_rng(4, "tf"))
        with pytest.raises(ShapeError):
            refine(Tensor(np.zeros((3, 6))), params)


class TestQuantizeDual:
    def test_fixed_point(self):
        entries_g = np.array([[1.0, 2.0], [-1.0, 0.5]])
        entries_l = np.array([[0.0, 3.0], [2.0, -2.0]])
        tf = TransformerParams(2, 2, 1, 8, rng=component_rng(5, "tf"), zero_residual=True)
        st = dual_state(entries_g, entries_l, tf_params=tf)
        z = np.zeros((1, 4, 1, 2))
        z[0, :2, 0, 0] = entries_g[0]
        z[0, 2:, 0, 0] = entries_l[1]
        z[0, :2, 0, 1] = entries_g[1]
        z[0, 2:, 0, 1] = entries_l[0]
        z_q, res_g, res_l = quantize_dual(Tensor(z), st)
        assert np.array_equal(z_q.data, z)
        for term in (res_g.codebook_term, res_g.commitment_term,
                     res_l.codebook_term, res_l.commitment_term):
            assert term.item() == 0.0

    def test_desk_instance_matches_enumeration(self):
        entries_g = np.array([[0.5, 0.5], [-0.5, -0.5]])
        entries_l = np.array([[1.0, 0.0], [0.0, 1.0]])
        tf = TransformerParams(2, 1, 1, 4, rng=component_rng(6, "tf"), zero_residual=True)
        st = dual_state(entries_g, entries_l, tf_params=tf, beta=0.25)
        z = np.array([0.4, 0.6, 0.2, 0.9]).reshape(1, 4, 1, 1)
        z_q, res_g, res_l = quantize_dual(Tensor(z), st)
        oracle = enumeration_oracle(z, entries_g, entries_l, 2, 0.25)
        for res, tag in ((res_g, "g"), (res_l, "l")):
            idx, sel, cb_term, commit = oracle[tag]
            assert np.array_equal(res.indices, idx)
            assert abs(res.codebook_term.item() - cb_term) < 1e-10
            assert abs(res.commitment_term.item() - commit) < 1e-10
        assert np.array_equal(z_q.data[0, :2, 0, 0], oracle["g"][1][0])
        assert np.array_equal(z_q.data[0, 2:, 0, 0], oracle["l"][1][0])

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            b, h, w = (int(v) for v in rng.integers(1, 3, size=3))
            sg, sl = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            kg, kl = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            entries_g = rng.normal(size=(kg, sg))
            entries_l = rng.normal(size=(kl, sl))
            st = dual_state(entries_g, entries_l, beta=0.25)
            z = rng.normal(size=(b, sg + sl, h, w))
            z_q, res_g, res_l = quantize_dual(Tensor(z), st)
            oracle = enumeration_oracle(z, entries_g, entries_l, sg, 0.25)
            for res, tag in ((res_g, "g"), (res_l, "l")):
                idx, _, cb_term, commit = oracle[tag]
                assert np.array_equal(res.indices, idx)
                assert abs(res.codebook_term.item() - cb_term) < 1e-10
                assert abs(res.commitment_term.item() - commit) < 1e-10
            assert z_q.shape == z.shape

    def test_independence_of_halves(self):
        rng = np.random.default_rng(57)
        entries_g = rng.normal(size=(3, 2))
        entries_l = rng.normal(size=(3, 2))
        z = rng.normal(size=(1, 4, 2, 2))
        st = dual_state(entries_g, entries_l)
        _, res_g, res_l = quantize_dual(Tensor(z), st)
        st2 = dual_state(entries_g, entries_l + 10.0)
        _, res_g2, _ = quantize_dual(Tensor(z), st2)
        assert np.array_equal(res_g.indices, res_g2.indices)
        st3 = dual_state(entries_g - 3.0, entries_l)
        _, _, res_l3 = quantize_dual(Tensor(z), st3)
        assert np.array_equal(res_l.indices, res_l3.indices)

    def test_local_path_ignores_transformer(self):
        # configuration-(v) mirror: perturbing every transformer parameter
        # must leave the local result bit-identical
        rng = np.random.default_rng(58)
        entries_g = rng.normal(size=(4, 2))
        entries_l = rng.normal(size=(4, 2))
        z = rng.normal(size=(1, 4, 2, 2))
        tf = TransformerParams(2, 1, 2, 4, rng=component_rng(7, "tf"))
        st = dual_state(entries_g, entries_l, tf_params=tf)
        _, _, res_l = quantize_dual(Tensor(z), st)
        for t in tf.tensors.values():
            t.data = t.data + rng.normal(size=t.shape)
        _, _, res_l2 = quantize_dual(Tensor(z), st)
        assert np.array_equal(res_l.indices, res_l2.indices)
        assert np.array_equal(res_l.z_q.data, res_l2.z_q.data)

    def test_degenerate_transformer_equals_simple(self):
        rng = np.random.default_rng(59)
        entries_g = rng.normal(size=(4, 2))
        entries_l = rng.normal(size=(4, 2))
        z = rng.normal(size=(2, 4, 3, 3))
        tf = TransformerParams(2, 2, 2, 8, rng=component_rng(8, "tf"), zero_residual=True)
        st_tf = dual_state(entries_g.copy(), entries_l.copy(), tf_params=tf)
        st_simple = dual_state(entries_g.copy(), entries_l.copy(), tf_params=None)
        zq1, g1, l1 = quantize_dual(Tensor(z), st_tf)
        zq2, g2, l2 = quantize_dual(Tensor(z), st_simple)
        assert np.array_equal(zq1.data, zq2.data)
        assert np.array_equal(g1.indices, g2.indices)
        assert g1.codebook_term.item() == g2.codebook_term.item()
        assert g1.commitment_term.item() == g2.commitment_term.item()

    def test_transformer_receives_gradient_when_cb_term_positive(self):
        rng = np.random.default_rng(60)
        tf = TransformerParams(2, 1, 2, 4, rng=component_rng(9, "tf"))
        st = dual_state(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), tf_params=tf)
        z = Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True)
        _, res_g, res_l = quantize_dual(z, st)
        assert res_g.codebook_term.item() > 0
        backward(quant_loss_total([res_g, res_l]))
        got_any = any(t.grad is not None and np.any(t.grad) for _, t in tf.named())
        assert got_any

    def test_split_state_mismatch(self):
        st = dual_state(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            quantize_dual(Tensor(np.zeros((1, 4, 2, 2))), st)


class TestSingle:
    def test_matches_manual_scan(self):
        rng = np.random.default_rng(61)
        entries = rng.normal(size=(6, 4))
        st = SingleQuantizerState(cb=Codebook(6, 4, entries=entries), beta=0.25)
        z = rng.normal(size=(2, 4, 2, 2))
        z_q, res = quantize_single(Tensor(z), st)
        rows = z.transpose(0, 2, 3, 1).reshape(-1, 4)
        assert np.array_equal(res.indices, nearest_indices(rows, entries))
        assert z_q.shape == z.shape

    def test_rows_layout_roundtrip(self):
        z_data = np.random.default_rng(62).normal(size=(2, 3, 2, 4))
        rows = channels_to_rows(Tensor(z_data))
        assert rows.shape == (16, 3)
        assert np.array_equal(rows.data[0], z_data[0, :, 0, 0])
        assert np.array_equal(rows.data[1], z_data[0, :, 0, 1])


class TestMakeState:
    def test_component_rngs_isolated(self):
        a = init_model(TrainConfig(seed=7)).quantizer
        b = init_model(TrainConfig(seed=7, transformer_on=False)).quantizer
        assert np.array_equal(a.global_cb.entries.data, b.global_cb.entries.data)
        assert np.array_equal(a.local_cb.entries.data, b.local_cb.entries.data)
        assert a.tf_params is not None and b.tf_params is None
