import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualvq.codebook import BETA
from dualvq.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    experiment_hash,
    grid_run,
    load_config,
)
from dualvq.data import (
    SPLITS,
    batch_indices,
    build_dataset,
    epoch_of_step,
    load_ppm,
    load_ppm_dir,
    save_ppm,
    split_dataset,
    split_rows,
    synth_dataset,
)
from dualvq.model import DISC_WEIGHT, init_model


class TestSynthetic:
    def test_deterministic_checksums(self):
        a = synth_dataset(7, 64, 32)
        b = synth_dataset(7, 64, 32)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(synth_dataset(7, 16, 32), synth_dataset(8, 16, 32))

    def test_value_range(self):
        imgs = synth_dataset(3, 48, 32)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0
        assert imgs.shape == (48, 3, 32, 32)

    def test_class_balance(self):
        n = 256
        counts = [0, 0, 0]
        for i in range(n):
            counts[i % 3] += 1
        assert max(counts) - min(counts) <= 1
        assert all(abs(c - n / 3) <= 1 for c in counts)

    def test_images_not_constant(self):
        imgs = synth_dataset(5, 9, 32)
        for img in imgs:
            assert img.std() > 0.01


class TestSplitAndBatches:
    def test_split_80_10_10(self):
        imgs = synth_dataset(1, 100, 16)
        tr, va, te = split_dataset(imgs)
        assert tr.shape[0] == 80 and va.shape[0] == 10 and te.shape[0] == 10
        assert np.array_equal(np.concatenate([tr, va, te]), imgs)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(10, 64), seed=st.integers(0, 2**31), split=st.sampled_from(SPLITS))
    def test_one_split_built_equals_split_of_whole(self, n, seed, split):
        spec = {"kind": "synthetic", "seed": seed, "n": n}
        whole = split_dataset(build_dataset(spec, 16))[SPLITS.index(split)]
        part = build_dataset(spec, 16, split)
        assert part.shape == whole.shape and part.tobytes() == whole.tobytes()
        assert len(split_rows(n, split)) == part.shape[0]

    def test_batch_stream_pure_function_of_step(self):
        for step in (0, 3, 25, 26, 100):
            a = batch_indices(9, 41, 8, step)
            b = batch_indices(9, 41, 8, step)
            assert np.array_equal(a, b)

    def test_batch_covers_epoch(self):
        n, batch = 40, 8
        seen = np.concatenate([batch_indices(2, n, batch, s) for s in range(5)])
        assert sorted(seen.tolist()) == list(range(n))

    def test_epoch_boundary_wraps(self):
        n, batch = 10, 8
        idx = batch_indices(2, n, batch, 1)   # crosses into epoch 1
        assert idx.shape == (8,)
        assert epoch_of_step(n, batch, 0) == 0
        assert epoch_of_step(n, batch, 2) == 1

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            batch_indices(0, 4, 8, 0)


class TestPpm:
    def test_roundtrip_exact_at_8bit(self, tmp_path):
        img = np.round(np.random.default_rng(90).uniform(size=(3, 8, 6)) * 255) / 255
        path = str(tmp_path / "img.ppm")
        save_ppm(path, img)
        back = load_ppm(path)
        assert back.shape == (3, 8, 6)
        assert np.abs(back - img).max() < 1e-12

    def test_dir_loader(self, tmp_path):
        for i in range(3):
            save_ppm(str(tmp_path / f"im{i}.ppm"), np.full((3, 4, 4), i / 4))
        imgs = load_ppm_dir(str(tmp_path), 4)
        assert imgs.shape == (3, 3, 4, 4)

    def test_dir_loader_size_check(self, tmp_path):
        save_ppm(str(tmp_path / "im.ppm"), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            load_ppm_dir(str(tmp_path), 8)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "cut.ppm"
        path.write_bytes(b"P6\n4 ")
        with pytest.raises(ValueError, match="truncated PPM header") as err:
            load_ppm(str(path))
        assert str(path) in str(err.value)

    def test_header_field_not_an_integer(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\nab 4\n255\n")
        with pytest.raises(ValueError, match="not all integers") as err:
            load_ppm(str(path))
        assert str(path) in str(err.value)

    def test_build_dataset_ppm(self, tmp_path):
        save_ppm(str(tmp_path / "a.ppm"), np.zeros((3, 16, 16)))
        imgs = build_dataset({"kind": "ppm_dir", "path": str(tmp_path)}, 16)
        assert imgs.shape == (1, 3, 16, 16)

    def test_build_dataset_ppm_split(self, tmp_path):
        spec = {"kind": "ppm_dir", "path": str(tmp_path)}
        for i in range(12):
            save_ppm(str(tmp_path / f"im{i:02d}.ppm"), np.full((3, 4, 4), i / 12))
        whole = split_dataset(build_dataset(spec, 4))
        for i, split in enumerate(SPLITS):
            assert build_dataset(spec, 4, split).tobytes() == whole[i].tobytes()
        # only the split's own files are read: a bad file in another split goes unnoticed
        (tmp_path / "im00.ppm").write_bytes(b"P6\n4 ")
        assert build_dataset(spec, 4, "test").tobytes() == whole[2].tobytes()

    def test_build_dataset_ppm_empty_split_names_dir(self, tmp_path):
        for i in range(5):
            save_ppm(str(tmp_path / f"im{i}.ppm"), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="5 .ppm files leave the val split empty") as ei:
            build_dataset({"kind": "ppm_dir", "path": str(tmp_path)}, 4, "val")
        assert str(tmp_path) in str(ei.value)


class TestConfig:
    def test_minimal_config_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 7}')
        cfg = load_config(str(path))
        assert cfg.train.seed == 7
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.disc_start_step == 500
        assert DISC_WEIGHT == 0.8
        assert BETA == 0.25 and not hasattr(init_model(cfg.train).quantizer, "beta")
        assert cfg.train.lambda_max == 1e4 and "lambda_max" not in cfg.train.to_dict()
        assert cfg.train.image_size == 32
        assert cfg.train.latent_channels == 8
        assert cfg.train.codebook_total == 64
        assert cfg.train.resolved_codebooks() == (32, 32)
        assert cfg.train.split_global == 4 and cfg.train.split_local == 4
        assert cfg.eval_every == 100
        assert cfg.dataset == {"kind": "synthetic", "seed": 7, "n": 256}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "learning_rte": 0.1}')
        with pytest.raises(ConfigError) as ei:
            load_config(str(path))
        assert "learning_rte" in str(ei.value)
        axes = {"split_global": 4, "split_local": 4, "transformer_on": True, "codebook_total": 64}
        for raw, key in (({"learning_rate": "fast"}, "learning_rate"), ({"batch": 2.5}, "batch"),
                         ({"enc_channels": [24, "a"]}, "enc_channels"),
                         ({"transformer_on": 1}, "transformer_on"), ({"seed": True}, "seed"),
                         ({"dataset": {"n": 2.5}}, "dataset n"), ({"dataset": "abc"}, "dataset"),
                         ({"dataset": {"kind": "ppm_dir", "path": 5}}, "path"),
                         ({"enc_channels": 5}, "enc_channels"), ({"grid": [5]}, "grid entry 0"),
                         ({"dataset": {"kind": "ppm_dir", "path": str(tmp_path / "absent")}}, "absent"),
                         ({"grid": 5}, "grid"),
                         ({"grid": [{**axes, "transformer_on": "no"}]}, "grid entry 0.*transformer_on"),
                         ({"grid": [{**axes, "label": 7}]}, "grid entry 0: label"),
                         ({"dataset": {"kind": "ppm_dir", "path": str(tmp_path), "n": "x",
                                       "seed": 2.5, "size": 99}}, r"\['n', 'seed', 'size'\]"),
                         ({"dataset": {"path": str(tmp_path)}}, "path"),
                         ({"dataset": {"kind": ["ppm_dir"]}}, "dataset kind"),
                         ({"dataset": {"n": 8}, "batch": 2, "eval_every": 2}, "dataset n 8"),
                         ({"dataset": {"n": 40}, "batch": 33}, "dataset n 40"),
                         ({"gan_loss": "hinge"}, "gan_loss"), ({"disc_weight": 0.8}, "disc_weight"),
                         ({"beta": 0.25}, "beta"), ({"tf_ff_dim": 64}, "tf_ff_dim"),
                         ({"lambda_max": 1e4}, "lambda_max"),
                         ({"dataset": {"size": 32}}, r"unknown dataset keys .*\['size'\]"),
                         # a label names its run directory runs/<label>: one plain component, once
                         ({"grid": [{**axes, "label": "a"}, {**axes, "label": "a"}]},
                          "grid entry 1: label 'a' repeats"),
                         ({"grid": [{**axes, "label": "grid1"}, axes]}, "grid entry 1: label 'grid1' repeats"),
                         *(({"grid": [{**axes, "label": bad}]}, "grid entry 0: label .* cannot name")
                           for bad in ("", ".", "..", "../x", "a/b", f"a{os.sep}b"))):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"seed": 1, **raw})

    def test_ppm_dir_smaller_than_batch_names_dir(self, tmp_path):
        for i in range(10):
            save_ppm(str(tmp_path / f"im{i}.ppm"), np.zeros((3, 4, 4)))
        spec = {"kind": "ppm_dir", "path": str(tmp_path)}
        with pytest.raises(ConfigError, match=r"8 train images \(batch is 9\)") as ei:
            config_from_dict({"seed": 1, "batch": 9, "dataset": spec})
        assert str(tmp_path) in str(ei.value)
        assert config_from_dict({"seed": 1, "batch": 8, "dataset": spec}).dataset == spec

    def test_split_mismatch_names_both_values(self):
        with pytest.raises(ConfigError) as ei:
            config_from_dict({"seed": 1, "split_global": 5, "split_local": 4})
        msg = str(ei.value)
        assert "5" in msg and "4" in msg and "8" in msg

    def test_parse_error_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,\n  "steps": }')
        with pytest.raises(ConfigError) as ei:
            load_config(str(path))
        assert "line 2" in str(ei.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_table3_grid_expands_to_four_runs(self, tmp_path):
        raw = {
            "seed": 3,
            "grid": [
                {"label": "ii", "split_global": 4, "split_local": 4,
                 "transformer_on": False, "codebook_total": 64},
                {"label": "iii", "split_global": 6, "split_local": 2,
                 "transformer_on": True, "codebook_total": 64},
                {"label": "iv", "split_global": 2, "split_local": 6,
                 "transformer_on": True, "codebook_total": 64},
                {"label": "v", "split_global": 4, "split_local": 4,
                 "transformer_on": True, "codebook_total": 64},
            ],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert len(cfg.grid) == 4
        derived = [grid_run(cfg, g) for g in cfg.grid]
        assert [d.train.transformer_on for d in derived] == [False, True, True, True]
        assert [d.train.split_global for d in derived] == [4, 6, 2, 4]
        for d in derived:
            d.train.validate()

    def test_grid_entry_validated(self):
        with pytest.raises(ConfigError) as ei:
            config_from_dict({"seed": 1, "grid": [
                {"split_global": 5, "split_local": 4, "transformer_on": True,
                 "codebook_total": 64}]})
        assert "grid entry 0" in str(ei.value)

    def test_heads_divisibility_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "split_global": 5, "split_local": 3, "tf_heads": 2})
        config_from_dict({"seed": 1, "split_global": 5, "split_local": 3, "tf_heads": 2,
                          "transformer_on": False})

    def test_hash_ignores_out_dir(self):
        a = config_from_dict({"seed": 1, "out_dir": "/tmp/a"})
        b = config_from_dict({"seed": 1, "out_dir": "/tmp/b"})
        c = config_from_dict({"seed": 2, "out_dir": "/tmp/a"})
        assert experiment_hash(a) == experiment_hash(b)
        assert experiment_hash(a) != experiment_hash(c)

    def test_single_mode_skips_split_checks(self):
        cfg = config_from_dict({"seed": 1, "quantizer_mode": "single",
                                "split_global": 3, "split_local": 9})
        assert cfg.train.quantizer_mode == "single"
