import copy
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualvq.autodiff import NonFiniteError, ShapeError, Tensor, backward, l1_loss, stop_gradient
from dualvq.checkpoint import CHECKPOINT_FILE, load_checkpoint, save_checkpoint
from dualvq.tensor_io import array_to_bytes, bytes_to_array
from dualvq.data import batch_indices, synth_dataset
from dualvq.model import (
    ADAM_EPS,
    LAMBDA_DELTA,
    ModelState,
    TrainConfig,
    _gen_gan_term,
    adaptive_lambda,
    decode,
    discriminate,
    discriminator_loss,
    encode,
    generator_losses,
    init_model,
    quant_loss_total,
    quantize_latents,
    training_step,
)


def desk_config(**overrides):
    base = dict(seed=3, steps=50, batch=4, disc_start_step=10)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_batch(seed=0, n=4, size=32):
    return synth_dataset(seed, n, size)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(checkpoint file path, its bytes) of a fresh desk model."""
    ck = tmp_path_factory.mktemp("saved") / "ck"
    save_checkpoint(init_model(desk_config(seed=19)), str(ck))
    path = ck / CHECKPOINT_FILE
    return path, path.read_bytes()


class TestLayerTable:
    @pytest.mark.parametrize("overrides,digest", [
        ({}, "7d84e822b7d50ed9baac90588ceab7be00416d37ab0afe776bd3fad8e0e48698"),
        ({"enc_channels": (24, 48, 64)},
         "273f8cee534c9b13c9382ee61c15d83cd83eb743d36f94819bca9ceba66dc1c4"),
    ])
    def test_init_params_pinned(self, overrides, digest):
        # names, order, shapes and bytes of every parameter: the draw order
        # and the checkpoint key order the table walk must keep
        h = hashlib.sha256()
        for name, t in init_model(TrainConfig(**overrides)).all_params():
            h.update(f"{name}:{t.data.shape};".encode())
            h.update(t.data.tobytes())
        assert h.hexdigest() == digest


class TestShapes:
    def test_encode_desk_latent(self):
        state = init_model(desk_config())
        z = encode(state, Tensor(tiny_batch(n=2)))
        assert z.shape == (2, 8, 8, 8)

    def test_encode_paper_factor(self):
        # 16x downsampling structure at a thin width: 256x256 -> 16x16
        cfg = desk_config(image_size=256, enc_channels=(2, 2, 2, 2), latent_channels=2,
                          split_global=1, split_local=1, tf_heads=1, codebook_total=4)
        state = init_model(cfg)
        x = Tensor(np.zeros((1, 3, 256, 256)))
        z = encode(state, x)
        assert z.shape == (1, 2, 16, 16)

    def test_encode_indivisible(self):
        state = init_model(desk_config())
        with pytest.raises(ShapeError):
            encode(state, Tensor(np.zeros((1, 3, 30, 30))))

    def test_encode_finite(self):
        state = init_model(desk_config(seed=9))
        z = encode(state, Tensor(tiny_batch(seed=9, n=3)))
        assert np.all(np.isfinite(z.data))

    def test_decode_shape(self):
        state = init_model(desk_config())
        out = decode(state, Tensor(np.zeros((2, 8, 8, 8))))
        assert out.shape == (2, 3, 32, 32)

    def test_decode_channel_mismatch(self):
        state = init_model(desk_config())
        with pytest.raises(ShapeError):
            decode(state, Tensor(np.zeros((2, 5, 8, 8))))

    def test_discriminator_patch_extents(self):
        # two stride-2 halvings of 32 then a 3x3: logits on an 8x8 grid
        state = init_model(desk_config())
        logits = discriminate(state, Tensor(tiny_batch(n=2)))
        assert logits.shape == (2, 1, 8, 8)

    def test_end_to_end_batch_preserved(self):
        state = init_model(desk_config())
        x = Tensor(tiny_batch(n=3))
        z_q, _ = quantize_latents(state, encode(state, x), update_usage=False)
        x_hat = decode(state, z_q)
        assert x_hat.shape == (3, 3, 32, 32)
        assert np.all((x_hat.data > 0) & (x_hat.data < 1))


class TestAdaptiveLambda:
    def test_direct_evaluation(self):
        lam = adaptive_lambda(0.04, 0.02)
        assert abs(lam - 0.04 / (0.02 + 1e-6)) < 1e-12
        assert abs(lam - 1.9999000049997502) < 1e-9

    def test_zero_gan_norm_clamps(self):
        assert adaptive_lambda(1.0, 0.0, lambda_max=1e4) == 1e4
        assert adaptive_lambda(1e-9, 0.0, lambda_max=1e4) == pytest.approx(1e-3)

    def test_equal_norms_near_one(self):
        for n in (0.5, 3.0, 100.0):
            assert abs(adaptive_lambda(n, n) - 1.0) < 1e-4

    def test_scale_invariance_within_delta_bound(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            r, g = rng.uniform(0.01, 10.0, size=2)
            s = rng.uniform(0.1, 100.0)
            lam1 = adaptive_lambda(r, g)
            lam2 = adaptive_lambda(s * r, s * g)
            assert abs(lam2 - lam1) / lam1 <= LAMBDA_DELTA / min(g, s * g) + 1e-12


class TestObjectives:
    def test_lambda_zero_ignores_logits(self):
        rng = np.random.default_rng(71)
        x = Tensor(rng.uniform(size=(2, 3, 8, 8)))
        x_hat = Tensor(rng.uniform(size=(2, 3, 8, 8)))
        quant = Tensor(0.37)
        a = generator_losses(x, x_hat, Tensor(rng.normal(size=(2, 1, 2, 2))), 0.0, quant)
        b = generator_losses(x, x_hat, Tensor(rng.normal(size=(2, 1, 2, 2)) * 100), 0.0, quant)
        assert a.total.item() == b.total.item()

    def test_zero_reconstruction_case(self):
        rng = np.random.default_rng(72)
        x = Tensor(rng.uniform(size=(1, 3, 4, 4)))
        logits = Tensor(rng.normal(size=(1, 1, 2, 2)))
        lam = 2.0
        parts = generator_losses(x, Tensor(x.data.copy()), logits, lam, Tensor(0.0))
        assert abs(parts.total.item() - lam * 0.8 * (-logits.data.mean())) < 1e-12

    def test_scalar_recomposition_oracle(self):
        rng = np.random.default_rng(73)
        x = rng.uniform(size=(2, 3, 4, 4))
        x_hat = rng.uniform(size=(2, 3, 4, 4))
        logits = rng.normal(size=(2, 1, 2, 2))
        quant = 0.123
        lam = 1.7
        parts = generator_losses(Tensor(x), Tensor(x_hat), Tensor(logits), lam, Tensor(quant))
        manual = np.abs(x - x_hat).mean() + quant + lam * 0.8 * (-logits.mean())
        assert abs(parts.total.item() - manual) < 1e-12

    def test_discriminator_margins_satisfied(self):
        d_real = Tensor(np.ones((2, 1, 3, 3)))
        d_fake = Tensor(-np.ones((2, 1, 3, 3)))
        assert discriminator_loss(d_real, d_fake).item() == 0.0

    def test_discriminator_at_zero(self):
        zeros = Tensor(np.zeros((1, 1, 2, 2)))
        assert discriminator_loss(zeros, Tensor(np.zeros((1, 1, 2, 2)))).item() == 1.0

    def test_discriminator_loop_oracle(self):
        rng = np.random.default_rng(74)
        d_real = rng.normal(size=(2, 1, 3, 3))
        d_fake = rng.normal(size=(2, 1, 3, 3))
        got = discriminator_loss(Tensor(d_real), Tensor(d_fake)).item()
        acc_r = acc_f = 0.0
        for v in d_real.reshape(-1):
            acc_r += max(0.0, 1.0 - v)
        for v in d_fake.reshape(-1):
            acc_f += max(0.0, 1.0 + v)
        manual = 0.5 * (acc_r / d_real.size + acc_f / d_fake.size)
        assert abs(got - manual) < 1e-12


def run_steps(cfg, n_steps, data=None):
    state = init_model(cfg)
    if data is None:
        data = synth_dataset(cfg.seed, 32, cfg.image_size)
    reports = []
    for s in range(n_steps):
        idx = batch_indices(cfg.seed, data.shape[0], cfg.batch, s)
        reports.append(training_step(state, data[idx]))
    return state, reports


class TestTrainingStep:
    def test_same_seed_bit_identical(self):
        cfg = desk_config(seed=5, disc_start_step=4)
        _, r1 = run_steps(cfg, 10)
        _, r2 = run_steps(cfg, 10)
        for a, b in zip(r1, r2):
            assert a == b

    def test_disc_params_frozen_before_start(self):
        cfg = desk_config(seed=6, disc_start_step=1000)
        state = init_model(cfg)
        before = {k: v.data.copy() for k, v in state.disc_params.items()}
        data = tiny_batch(seed=6, n=8)
        for s in range(3):
            rep = training_step(state, data[batch_indices(6, 8, cfg.batch, s)])
            assert rep.lambda_ == 0.0
            assert rep.d_loss == 0.0
        for k, v in state.disc_params.items():
            assert np.array_equal(before[k], v.data), k

    def test_alternation_gen_update_leaves_disc(self):
        cfg = desk_config(seed=7, disc_start_step=0)
        state = init_model(cfg)
        data = tiny_batch(seed=7, n=8)
        gen_before = {k: v.data.copy() for k, v in state.gen_params.items()}
        disc_before = {k: v.data.copy() for k, v in state.disc_params.items()}
        training_step(state, data[batch_indices(7, 8, cfg.batch, 0)])
        assert any(not np.array_equal(gen_before[k], v.data) for k, v in state.gen_params.items())
        assert any(not np.array_equal(disc_before[k], v.data) for k, v in state.disc_params.items())

    def test_lambda_probes_match_full_backward(self):
        # the probes restrict backward to dec.out.w; a full pass gives the same bits
        state = init_model(desk_config(seed=9, disc_start_step=0))
        x = Tensor(tiny_batch(seed=9))
        z_q, _ = quantize_latents(state, encode(state, x))
        x_hat = decode(state, z_q)
        d_fake = discriminate(state, x_hat)
        last_w = state.gen_params["dec.out.w"]
        for loss_of in (lambda: l1_loss(x, x_hat), lambda: _gen_gan_term(d_fake)):
            state.zero_grads()
            backward(loss_of())
            full = last_w.grad.copy()
            state.zero_grads()
            backward(loss_of(), wrt=[last_w])
            assert np.array_equal(last_w.grad, full)
            assert all(p.grad is None for name, p in state.all_params() if p is not last_w)

    def test_disc_update_reuses_generator_pass(self):
        # backward restricted to the discriminator through the generator's d_fake
        # gives the bits of a full pass over a separate stop_gradient(x_hat) pass
        state = init_model(desk_config(seed=10, disc_start_step=0))
        x = Tensor(tiny_batch(seed=10))
        z_q, _ = quantize_latents(state, encode(state, x))
        x_hat = decode(state, z_q)
        d_fake = discriminate(state, x_hat)
        state.zero_grads()
        d_real = discriminate(state, x)
        backward(discriminator_loss(d_real, discriminate(state, stop_gradient(x_hat))))
        separate = {k: p.grad.copy() for k, p in state.disc_params.items()}
        state.zero_grads()
        backward(discriminator_loss(discriminate(state, x), d_fake),
                 wrt=list(state.disc_params.values()))
        for k, p in state.disc_params.items():
            assert np.array_equal(p.grad, separate[k]), k
        assert all(p.grad is None for p in state.gen_params.values())

    def test_generator_backward_fills_only_generator(self):
        # the generator update restricts backward to gen params; the bits match
        # a full pass, which also filled the discriminator kernels
        state = init_model(desk_config(seed=11, disc_start_step=0))
        x = Tensor(tiny_batch(seed=11))
        z_q, results = quantize_latents(state, encode(state, x))
        x_hat = decode(state, z_q)
        total = generator_losses(x, x_hat, discriminate(state, x_hat), 0.5,
                                 quant_loss_total(results)).total
        state.zero_grads()
        backward(total)
        full = {k: p.grad.copy() for k, p in state.gen_params.items()}
        assert all(p.grad is not None for p in state.disc_params.values())
        state.zero_grads()
        backward(total, wrt=list(state.gen_params.values()))
        for k, p in state.gen_params.items():
            assert np.array_equal(p.grad, full[k]), k
        assert all(p.grad is None for p in state.disc_params.values())

    def test_lambda_positive_after_start(self):
        cfg = desk_config(seed=8, disc_start_step=0)
        _, reports = run_steps(cfg, 3)
        assert all(r.lambda_ > 0 for r in reports)

    def test_single_sample_overfit(self):
        cfg = desk_config(seed=12, disc_start_step=10**9, batch=1)
        state = init_model(cfg)
        sample = synth_dataset(12, 1, 32)
        l_at = {}
        for s in range(300):
            rep = training_step(state, sample)
            l_at[rep.step] = rep.l_rec
        assert l_at[300] < 0.5 * l_at[10]

    def test_reports_finite(self):
        cfg = desk_config(seed=13, disc_start_step=30)
        _, reports = run_steps(cfg, 60)
        for r in reports:
            for v in r.csv_values():
                assert np.isfinite(v)

    def test_nonfinite_abort_names_node(self):
        cfg = desk_config(seed=14)
        state = init_model(cfg)
        state.gen_params["enc.down0.w"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError) as ei:
            training_step(state, tiny_batch(seed=14, n=4))
        assert "op=" in str(ei.value)

    def test_nonfinite_abort_names_layer(self):
        state = init_model(desk_config(seed=14))
        state.gen_params["enc.down0.w"].data[...] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=r"op='enc\.down0'"):
            training_step(state, tiny_batch(seed=14, n=4))

    def test_single_mode_columns(self):
        cfg = desk_config(seed=15, quantizer_mode="single", disc_start_step=5)
        _, reports = run_steps(cfg, 6)
        for r in reports:
            assert r.l_quant_l == 0.0
            assert r.perplexity_l == 0.0 and r.active_l == 0.0
            assert r.l_quant_g > 0


class TestCheckpointRoundTrip:
    def test_next_step_bit_identical(self, tmp_path):
        cfg = desk_config(seed=16, disc_start_step=3)
        data = synth_dataset(16, 24, 32)
        state, _ = run_steps(cfg, 6, data)
        save_checkpoint(state, str(tmp_path / "ck"))
        loaded, manifest = load_checkpoint(str(tmp_path / "ck"))
        assert manifest["step"] == 6
        idx = batch_indices(cfg.seed, data.shape[0], cfg.batch, 6)
        rep_a = training_step(state, data[idx])
        rep_b = training_step(loaded, data[idx])
        assert rep_a == rep_b

    def test_roundtrip_preserves_everything(self, tmp_path):
        cfg = desk_config(seed=17, disc_start_step=2)
        state, _ = run_steps(cfg, 5)
        save_checkpoint(state, str(tmp_path / "ck"))
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for (ka, pa), (kb, pb) in zip(state.all_params(), loaded.all_params()):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data), ka
        for k in state.adam_m:
            assert np.array_equal(state.adam_m[k], loaded.adam_m[k])
            assert np.array_equal(state.adam_v[k], loaded.adam_v[k])
        assert state.adam_t_gen == loaded.adam_t_gen
        assert state.adam_t_disc == loaded.adam_t_disc
        q1, q2 = state.quantizer, loaded.quantizer
        assert np.array_equal(q1.global_cb.counts, q2.global_cb.counts)
        assert np.array_equal(q1.local_cb.window_counts, q2.local_cb.window_counts)

    def test_wrong_shape_rejected(self, tmp_path):
        cfg = desk_config(seed=18)
        state, _ = run_steps(cfg, 1)
        save_checkpoint(state, str(tmp_path / "ck"))
        other = desk_config(seed=18, latent_channels=6, split_global=3, split_local=3,
                            tf_heads=3)
        path = tmp_path / "ck" / CHECKPOINT_FILE
        line, _, dumps = path.read_bytes().partition(b"\n")
        manifest = json.loads(line)
        manifest["config"] = other.to_dict()
        path.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + dumps)
        with pytest.raises(ValueError):
            load_checkpoint(str(tmp_path / "ck"))

    def test_one_file_cut_or_padded_rejected_with_path(self, tmp_path):
        state, _ = run_steps(desk_config(seed=18), 1)
        save_checkpoint(state, str(tmp_path / "ck"))
        assert os.listdir(tmp_path / "ck") == [CHECKPOINT_FILE]
        path = tmp_path / "ck" / CHECKPOINT_FILE
        blob = path.read_bytes()
        line, _, dumps = blob.partition(b"\n")
        manifest = json.loads(line)

        def with_manifest(drop=(), **extra):
            kept = {k: v for k, v in manifest.items() if k not in drop}
            return json.dumps({**kept, **extra}).encode() + b"\n" + dumps

        renamed = with_manifest(drop=["adam_t_disc"], adam_t_discriminator=manifest["adam_t_disc"])
        old_format = with_manifest(format_version=3)
        unknown_key = with_manifest(config={**manifest["config"], "tf_positional": True})
        no_local = with_manifest(counts={"global": manifest["counts"]["global"]})
        short = {**manifest["counts"]["local"], "window": manifest["counts"]["local"]["window"][:-1]}
        short_counts = with_manifest(counts={**manifest["counts"], "local": short})
        keys = [k.replace("enc.proj.b", "enc.proj.bias") for k in manifest["tensors"]]
        narrower = with_manifest(config={**manifest["config"], "enc_channels": [24, 40]})
        no_window = with_manifest(counts={**manifest["counts"],
                                          "local": {"cumulative": short["cumulative"]}})
        not_object = with_manifest(counts={**manifest["counts"], "local": 5})
        bad_counts = [with_manifest(counts={**manifest["counts"], "local": {**short, "window": w}})
                      for w in ([-1] + short["window"], ["x"] + short["window"],
                                [1.5] + short["window"])]
        refused_config = with_manifest(config={**manifest["config"], "latent_channels": 0})
        partial_config = with_manifest(config={k: v for k, v in manifest["config"].items()
                                               if k != "disc_start_step"})
        arrays, pos = [], 0
        for key in manifest["tensors"]:
            arr, pos = bytes_to_array(dumps, pos)
            arrays.append(np.zeros(1) if key == "adam_m.dec.out.w" else arr)
        bad_moment = line + b"\n" + b"".join(array_to_bytes(a) for a in arrays)
        for bad in (blob[:-8], line, blob + b"\0" * 8, b"{" + blob,
                    with_manifest(drop=["step"]), renamed, unknown_key, no_local, short_counts,
                    with_manifest(tensors=keys), narrower, no_window, not_object, *bad_counts,
                    with_manifest(step="ten"), refused_config, bad_moment, partial_config,
                    with_manifest(config=[]), with_manifest(tensors=5), with_manifest(tensors=None),
                    with_manifest(format_version=4), old_format):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(str(tmp_path / "ck"))
        with pytest.raises(ValueError, match="format 3"):
            load_checkpoint(str(tmp_path / "ck"))
        path.write_bytes(with_manifest(format_version=4))
        with pytest.raises(ValueError, match="format 4"):
            load_checkpoint(str(tmp_path / "ck"))

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(["adam_t_disc", "adam_t_gen", "config", "counts", "format_version",
                                "step", "tensors"]), value=JSON_VALUES)
    @example(key="config", value=[]).via("a config that parses as every default")
    @example(key="tensors", value=5).via("not a list of keys")
    def test_any_manifest_field_value_loads_or_names_the_file(self, saved_checkpoint, key, value):
        # a loaded state's config is the manifest's, with no default filled in
        path, blob = saved_checkpoint
        line, _, dumps = blob.partition(b"\n")
        manifest = json.loads(line)
        assert key in manifest
        manifest[key] = value
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + dumps)
        try:
            state, _ = load_checkpoint(str(path.parent))
        except ValueError as e:
            assert str(path) in str(e)
        else:
            assert state.config.to_dict() == manifest["config"]


class TestDegenerateTransformerTraining:
    def test_zero_residual_matches_transformer_off(self):
        data = synth_dataset(19, 24, 32)
        cfg_on = desk_config(seed=19, tf_zero_residual=True, disc_start_step=4)
        cfg_off = desk_config(seed=19, transformer_on=False, disc_start_step=4)
        state_on, reports_on = run_steps(cfg_on, 12, data)
        state_off, reports_off = run_steps(cfg_off, 12, data)
        for a, b in zip(reports_on, reports_off):
            assert a == b
        for name, t in state_on.quantizer.tf_params.named():
            if "ln" in name and name.endswith("_g"):
                assert np.array_equal(t.data, np.ones_like(t.data)), name
            else:
                assert not np.any(t.data), name
        assert np.array_equal(state_on.quantizer.global_cb.entries.data,
                              state_off.quantizer.global_cb.entries.data)
