import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualvq
from dualvq import run
from dualvq.autodiff import NonFiniteError
from dualvq.checkpoint import (CHECKPOINT_FILE, CsvLog, load_checkpoint, read_rows, save_checkpoint,
                               truncate_to_step)
from dualvq.codebook import load_codebook
from dualvq.config import ConfigError, config_from_dict, experiment_hash
from dualvq.data import batch_indices, build_dataset, save_ppm, split_dataset, split_rows
from dualvq.model import StepReport, training_step
from dualvq.rng import component_rng
from dualvq.run import export_codebook, run_ablation, run_eval, run_train


def small_raw(out_dir, **overrides):
    raw = {
        "seed": 21,
        "steps": 12,
        "batch": 4,
        "disc_start_step": 6,
        "eval_every": 4,
        "dataset": {"kind": "synthetic", "n": 40},
        "out_dir": str(out_dir),
    }
    raw.update(overrides)
    return raw


def assert_states_identical(a, b):
    assert (a.step, a.adam_t_gen, a.adam_t_disc) == (b.step, b.adam_t_gen, b.adam_t_disc)
    for (ka, pa), (kb, pb) in zip(a.all_params(), b.all_params(), strict=True):
        assert ka == kb
        assert pa.data.tobytes() == pb.data.tobytes(), ka
    for k in b.adam_m:
        assert a.adam_m[k].tobytes() == b.adam_m[k].tobytes(), k
        assert a.adam_v[k].tobytes() == b.adam_v[k].tobytes(), k
    for (na, ca), (nb, cb) in zip(a.quantizer.codebooks().items(),
                                  b.quantizer.codebooks().items(), strict=True):
        assert na == nb
        assert np.array_equal(ca.counts, cb.counts)
        assert np.array_equal(ca.window_counts, cb.window_counts)
        assert ca.counts.dtype == ca.window_counts.dtype == cb.counts.dtype == np.uint64


class TestRunTrain:
    def test_artifacts_and_eval_consistency(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "run"))
        result = run_train(cfg)
        assert os.path.exists(result.steps_csv)
        assert os.path.exists(result.eval_csv)
        assert os.path.exists(os.path.join(result.out_dir, "config.json"))
        assert os.path.exists(os.path.join(result.final_checkpoint, CHECKPOINT_FILE))
        assert os.path.exists(os.path.join(result.best_checkpoint, CHECKPOINT_FILE))
        assert os.path.exists(result.utilization_json)
        assert os.path.exists(result.utilization_csv)

        header, rows = read_rows(result.steps_csv)
        assert list(header) == ["step", "l_rec", "l_quant_g", "l_quant_l", "lambda", "d_loss",
                                "perplexity_g", "perplexity_l", "active_g", "active_l"]
        assert len(rows) == 12

        # the final eval row reproduces bit-exactly from the saved checkpoint
        _, eval_rows = read_rows(result.eval_csv)
        last = eval_rows[-1]
        assert int(last[0]) == 12
        ev = run_eval(result.final_checkpoint, split="val")
        assert float(last[1]) == ev["psnr"]
        assert float(last[2]) == ev["l1"]
        assert float(last[3]) == ev["l2"]
        assert float(last[4]) == ev["fid_star"]

    def test_same_seed_rerun_bit_identical(self, tmp_path):
        cfg_a = config_from_dict(small_raw(tmp_path / "a"))
        cfg_b = config_from_dict(small_raw(tmp_path / "b"))
        ra = run_train(cfg_a)
        rb = run_train(cfg_b)
        assert open(ra.steps_csv).read() == open(rb.steps_csv).read()
        assert open(ra.eval_csv).read() == open(rb.eval_csv).read()

    def test_resume_equivalence(self, tmp_path):
        full_cfg = config_from_dict(small_raw(tmp_path / "full", steps=16))
        run_train(full_cfg)

        part_cfg = config_from_dict(small_raw(tmp_path / "part", steps=16))
        partial = run_train(part_cfg, stop_after=8)
        resumed_cfg = config_from_dict(small_raw(tmp_path / "part", steps=16))
        run_train(resumed_cfg, resume=os.path.join(partial.out_dir, "checkpoints", "last"))

        full = open(os.path.join(tmp_path, "full", "steps.csv")).read()
        part = open(os.path.join(tmp_path, "part", "steps.csv")).read()
        assert full == part
        full_eval = open(os.path.join(tmp_path, "full", "eval.csv")).read()
        part_eval = open(os.path.join(tmp_path, "part", "eval.csv")).read()
        assert full_eval == part_eval

    def test_truncate_drops_a_cut_last_row_at_every_offset(self, tmp_path):
        path = str(tmp_path / "steps.csv")
        log = CsvLog(path, StepReport.CSV_COLUMNS)
        for step in range(1, 17):
            log.append((step, *(0.1 * step + 1.0 / k for k in range(1, 10))))
        log.close()
        text = open(path).read()
        kept, last = text[: text.rindex("\n", 0, -1) + 1], text[text.rindex("\n", 0, -1) + 1 :]
        assert last.startswith("16,")
        for cut in range(1, len(last)):
            with open(path, "w") as f:
                f.write(kept + last[:cut])
            truncate_to_step(path, 15)
            assert open(path).read() == kept, repr(last[:cut])

    def test_resume_after_a_one_byte_row_fragment(self, tmp_path):
        run_train(config_from_dict(small_raw(tmp_path / "full", steps=16)))
        cfg = config_from_dict(small_raw(tmp_path / "part", steps=16))
        last = os.path.join(run_train(cfg, stop_after=10).out_dir, "checkpoints", "last")
        # a crash inside an append leaves the first byte of a row: steps.csv's
        # row 10 is cut to "1", and eval.csv ends in "1" of a later row
        steps_path = tmp_path / "part" / "steps.csv"
        text = steps_path.read_text()
        assert text.endswith("\n") and text.splitlines()[-1].startswith("10,")
        steps_path.write_text(text[: text.rindex("\n", 0, -1) + 1] + "1")
        with open(tmp_path / "part" / "eval.csv", "a") as f:
            f.write("1")
        run_train(config_from_dict(small_raw(tmp_path / "part", steps=16)), resume=last)
        for name in ("steps.csv", "eval.csv"):
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_torn_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails at any of its renames leaves the step-A checkpoint
        whole, and resuming from it reproduces an uninterrupted run."""
        run_train(config_from_dict(small_raw(tmp_path / "full", steps=16)))
        cfg = config_from_dict(small_raw(tmp_path / "part", steps=16))
        last = os.path.join(run_train(cfg, stop_after=8).out_dir, "checkpoints", "last")
        saved, manifest = load_checkpoint(last)

        # train on from step A = 8 to step B = 10
        state, _ = load_checkpoint(last)
        train_set = split_dataset(build_dataset(cfg.dataset, cfg.train.image_size))[0]
        for step in (8, 9):
            training_step(state, train_set[batch_indices(cfg.train.seed, train_set.shape[0],
                                                         cfg.train.batch, step)])

        # count the renames of a whole save, then fail each save at one of them
        real_replace = os.replace
        calls = []
        fail_at = 0

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(state, str(tmp_path / "probe"))
        renames = len(calls)
        for fail_at in sorted({1, (renames + 1) // 2, renames}):
            calls.clear()
            with pytest.raises(OSError, match="simulated crash"):
                save_checkpoint(state, last, experiment=manifest["experiment"],
                                experiment_hash=manifest["experiment_hash"])
            assert os.listdir(last) == [CHECKPOINT_FILE]
            loaded, _ = load_checkpoint(last)
            assert_states_identical(loaded, saved)
        monkeypatch.undo()

        run_train(config_from_dict(small_raw(tmp_path / "part", steps=16)), resume=last)
        for name in ("steps.csv", "eval.csv"):
            with open(tmp_path / "full" / name, "rb") as full, \
                    open(tmp_path / "part" / name, "rb") as resumed:
                assert full.read() == resumed.read()

    def test_resume_hash_mismatch_refused(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "r1"))
        result = run_train(cfg)
        other = config_from_dict(small_raw(tmp_path / "r2", seed=99))
        with pytest.raises(ConfigError):
            run_train(other, resume=result.final_checkpoint)
        run_train(other, resume=result.final_checkpoint, force=True)
        # a forced resume trains under the new config, and records it
        faster = config_from_dict(small_raw(tmp_path / "r3", steps=16, learning_rate=0.05))
        resumed = run_train(faster, resume=result.final_checkpoint, force=True)
        assert load_checkpoint(resumed.final_checkpoint)[0].config == faster.train
        narrower = config_from_dict(small_raw(tmp_path / "r4", enc_channels=[24, 40]))
        with pytest.raises(ValueError, match=CHECKPOINT_FILE):
            run_train(narrower, resume=result.final_checkpoint, force=True)

    def test_utilization_matches_dump(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "run"))
        result = run_train(cfg)
        with open(result.utilization_json) as f:
            by_name = {s["name"]: s for s in json.load(f)["series"]}
        for which in ("global", "local"):
            out = str(tmp_path / f"{which}.dvqc")
            export_codebook(result.final_checkpoint, which, out)
            cb = load_codebook(out)
            assert cb.counts.tolist() == by_name[which]["counts"]
            assert by_name[which]["total_assignments"] == int(cb.counts.sum())
        state, _ = load_checkpoint(result.final_checkpoint)
        cb = load_codebook(str(tmp_path / "global.dvqc"))
        assert np.array_equal(cb.entries.data, state.quantizer.global_cb.entries.data)
        assert (cb.n_entries, cb.dim) == (32, 4)


class TestRunEval:
    def test_eval_writes_json(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "run", steps=4, eval_every=2))
        result = run_train(cfg)
        out = str(tmp_path / "metrics.json")
        ev = run_eval(result.final_checkpoint, split="test", out_path=out)
        blob = json.load(open(out))
        assert blob["split"] == "test"
        assert blob["l1"] == ev["l1"]
        assert "not Inception-FID" in blob["fid_note"]

    def test_eval_deterministic(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "run", steps=4, eval_every=2))
        result = run_train(cfg)
        a = run_eval(result.final_checkpoint)
        b = run_eval(result.final_checkpoint)
        for k in ("psnr", "l1", "l2", "fid_star"):
            assert a[k] == b[k]

    def test_unknown_split(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "run", steps=2, eval_every=2))
        result = run_train(cfg)
        with pytest.raises(ConfigError):
            run_eval(result.final_checkpoint, split="holdout")

    def test_only_the_used_rows_are_synthesized(self, tmp_path, monkeypatch):
        drawn = []

        def counting_rng(seed, *labels):
            if labels[0] == "synth":
                drawn.append(labels[1])
            return component_rng(seed, *labels)

        monkeypatch.setattr(dualvq.data, "component_rng", counting_rng)
        result = run_train(config_from_dict(small_raw(tmp_path / "run", steps=2, eval_every=2)))
        assert drawn == [*split_rows(40, "train"), *split_rows(40, "val")]
        drawn.clear()
        run_eval(result.final_checkpoint, split="val")
        assert drawn == list(split_rows(40, "val"))

    def test_bad_stored_dataset_refused(self, tmp_path):
        result = run_train(config_from_dict(small_raw(tmp_path / "run", steps=2, eval_every=2)))
        ckpt = result.final_checkpoint
        state, manifest = load_checkpoint(ckpt)
        experiment = manifest["experiment"]
        no_seed = {k: v for k, v in experiment["dataset"].items() if k != "seed"}
        for dataset in ({**experiment["dataset"], "n": "x"}, no_seed):
            save_checkpoint(state, ckpt, experiment={**experiment, "dataset": dataset},
                            experiment_hash=manifest["experiment_hash"])
            with pytest.raises(ConfigError, match="dataset") as ei:
                run_eval(ckpt)
            assert ckpt in str(ei.value)


def single_raw(out_dir, **overrides):
    return small_raw(out_dir, quantizer_mode="single", **overrides)


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    # 32 training images at batch 4: the epoch boundary falls after step 8
    return run_train(config_from_dict(single_raw(tmp_path_factory.mktemp("single") / "run")))


class TestSingleMode:
    def test_trains_across_epoch_boundary_and_evaluates(self, single_run):
        _, rows = read_rows(single_run.steps_csv)
        assert [int(r[0]) for r in rows] == list(range(1, 13))
        assert all(r[3] == r[7] == r[9] == "0.0" for r in rows)
        _, eval_rows = read_rows(single_run.eval_csv)
        assert [int(r[0]) for r in eval_rows] == [4, 8, 12]
        state, manifest = load_checkpoint(single_run.final_checkpoint)
        assert sorted(manifest["counts"]) == ["global"]
        cb = state.quantizer.codebooks()["global"]
        rows_per_step = 4 * 8 * 8
        assert int(cb.counts.sum()) == 12 * rows_per_step
        assert int(cb.window_counts.sum()) == 4 * rows_per_step

    def test_resume_bit_identical(self, tmp_path, single_run):
        part = run_train(config_from_dict(single_raw(tmp_path / "part")), stop_after=6)
        run_train(config_from_dict(single_raw(tmp_path / "part")),
                  resume=os.path.join(part.out_dir, "checkpoints", "last"))
        for name in ("steps.csv", "eval.csv"):
            with open(os.path.join(single_run.out_dir, name)) as full, \
                    open(os.path.join(part.out_dir, name)) as resumed:
                assert full.read() == resumed.read()

    def test_eval_reports_no_local_codebook(self, single_run):
        ev = run_eval(single_run.final_checkpoint, split="test")
        assert ev["perplexity_l"] == ev["active_l"] == 0.0
        assert ev["perplexity_g"] > 0.0 and ev["active_g"] > 0.0

    def test_export_local_refused(self, tmp_path, single_run):
        with pytest.raises(ConfigError, match="local"):
            export_codebook(single_run.final_checkpoint, "local", str(tmp_path / "l.dvqc"))
        export_codebook(single_run.final_checkpoint, "global", str(tmp_path / "g.dvqc"))
        assert load_codebook(str(tmp_path / "g.dvqc")).dim == 8


TABLE3_GRID = [
    {"label": "ii", "split_global": 4, "split_local": 4, "transformer_on": False,
     "codebook_total": 64},
    {"label": "iii", "split_global": 6, "split_local": 2, "transformer_on": True,
     "codebook_total": 64},
    {"label": "iv", "split_global": 2, "split_local": 6, "transformer_on": True,
     "codebook_total": 64},
    {"label": "v", "split_global": 4, "split_local": 4, "transformer_on": True,
     "codebook_total": 64},
]


class TestAblation:
    def test_grid_rows_and_columns(self, tmp_path):
        raw = small_raw(tmp_path / "abl", steps=6, eval_every=3)
        raw["grid"] = TABLE3_GRID
        cfg = config_from_dict(raw)
        path = run_ablation(cfg)
        header, rows = read_rows(path)
        assert list(header) == ["label", "global", "local", "codebook_total",
                                "fid_star", "psnr", "l1", "l2"]
        assert [r[0] for r in rows] == ["ii", "iii", "iv", "v"]
        assert [r[1] for r in rows] == ["S-4", "T-6", "T-2", "T-4"]
        assert [r[2] for r in rows] == ["S-4", "S-2", "S-6", "S-4"]
        for r in rows:
            for cell in r[3:]:
                assert np.isfinite(float(cell))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_aborted_entry_keeps_the_table(self, tmp_path, monkeypatch, threads):
        train = run.run_train

        def abort_iii(cfg, **kw):
            if os.path.basename(cfg.out_dir) == "iii":
                raise NonFiniteError("step 3: non-finite loss")
            return train(cfg, **kw)

        monkeypatch.setattr(run, "run_train", abort_iii)
        monkeypatch.setenv("DUALVQ_THREADS", threads)
        cfg = config_from_dict(small_raw(tmp_path / "abl", steps=4, eval_every=2,
                                         grid=TABLE3_GRID[:2]))
        with pytest.raises(NonFiniteError) as ei:
            run_ablation(cfg)
        path = str(tmp_path / "abl" / "ablation.csv")
        assert str(ei.value) == f"{path} has nan metrics for aborted entries; iii: step 3: non-finite loss"
        header, rows = read_rows(path)
        assert header == ["label", "global", "local", "codebook_total", "fid_star", "psnr", "l1", "l2"]
        assert rows[0][:4] == ["ii", "S-4", "S-4", "64"]
        assert all(np.isfinite(float(cell)) for cell in rows[0][4:])
        assert rows[1] == ["iii", "T-6", "S-2", "64"] + ["nan"] * 4

    def test_empty_grid_rejected(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "abl"))
        with pytest.raises(ConfigError):
            run_ablation(cfg)

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        from dualvq.run import grid_width

        monkeypatch.setenv("DUALVQ_THREADS", "1")
        assert grid_width(4) == 1
        monkeypatch.setenv("DUALVQ_THREADS", "2")
        assert grid_width(4) <= 2
        monkeypatch.delenv("DUALVQ_THREADS")
        assert grid_width(1) == 1
        monkeypatch.setenv("DUALVQ_THREADS", "two")
        with pytest.raises(ConfigError, match="DUALVQ_THREADS"):
            grid_width(4)
        raw = small_raw(tmp_path / "abl", grid=[{"split_global": 4, "split_local": 4,
                                                 "transformer_on": True, "codebook_total": 16}])
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        proc = run_cli(["ablate", "--config", str(tmp_path / "cfg.json")])
        assert proc.returncode == 2
        assert "DUALVQ_THREADS" in proc.stderr and "Traceback" not in proc.stderr


def run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src"),
                                         env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "dualvq", *args],
                          capture_output=True, text=True, env=env, **kw)


class TestCli:
    def test_train_eval_export_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_raw(tmp_path / "run", steps=4, eval_every=2)))
        proc = run_cli(["train", "--config", str(cfg_path)])
        assert proc.returncode == 0, proc.stderr
        ckpt = str(tmp_path / "run" / "checkpoints" / "final")
        proc = run_cli(["eval", "--checkpoint", ckpt])
        assert proc.returncode == 0, proc.stderr
        assert "psnr" in proc.stdout
        proc = run_cli(["export", "--checkpoint", ckpt, "--which", "local",
                        "--out", str(tmp_path / "cb.dvqc")])
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "cb.dvqc")

    def test_config_error_exit_two(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        grid = [{"split_global": "a", "split_local": 4, "transformer_on": True, "codebook_total": 64}]
        images = tmp_path / "images"   # 10 images: 8 train, fewer than a batch of 9
        images.mkdir()
        for i in range(10):
            save_ppm(str(images / f"{i}.ppm"), np.zeros((3, 32, 32)))
        for raw, key in (({"nonsense_key": True}, "nonsense_key"), ({"steps": "ten"}, "steps"),
                         ({"eval_every": "x"}, "eval_every"),
                         ({"dataset": {"size": "big"}}, "dataset size"),
                         ({"grid": grid}, "split_global"),
                         ({"dataset": {"kind": "ppm_dir", "path": str(images)}, "batch": 9},
                          f"dataset path {images} with 10 .ppm files")):
            cfg_path.write_text(json.dumps({"seed": 1, **raw}))
            proc = run_cli(["train", "--config", str(cfg_path)])
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("config error:") and key in proc.stderr, proc.stderr

    def test_eval_of_moved_ppm_dir_exit_two(self, tmp_path):
        images = tmp_path / "images"
        images.mkdir()
        for i in range(10):
            save_ppm(str(images / f"{i}.ppm"), np.full((3, 32, 32), i / 10))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_raw(tmp_path / "run", steps=2, eval_every=2, batch=2,
                                                 dataset={"kind": "ppm_dir", "path": str(images)})))
        assert run_cli(["train", "--config", str(cfg_path)]).returncode == 0
        images.rename(tmp_path / "moved")
        for args in (["train", "--config", str(cfg_path)],
                     ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoints" / "final")]):
            proc = run_cli(args)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("config error:") and str(images) in proc.stderr

    def test_missing_config_exit_two(self, tmp_path):
        proc = run_cli(["train", "--config", str(tmp_path / "absent.json")])
        assert proc.returncode == 2

    def test_nonfinite_abort_exit_three(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        raw = small_raw(tmp_path / "run", steps=4, eval_every=2)
        cfg_path.write_text(json.dumps(raw))
        assert run_cli(["train", "--config", str(cfg_path)]).returncode == 0
        ckpt = str(tmp_path / "run" / "checkpoints" / "final")
        # corrupt one parameter, then resume: training must abort with code 3
        state, manifest = load_checkpoint(ckpt)
        state.gen_params["enc.down0.w"].data[0, 0, 0, 0] = np.nan
        save_checkpoint(state, ckpt, experiment=manifest["experiment"],
                        experiment_hash=manifest["experiment_hash"])
        raw["steps"] = 8
        cfg_path.write_text(json.dumps(raw))
        proc = run_cli(["train", "--config", str(cfg_path), "--resume", ckpt, "--force"])
        assert proc.returncode == 3
        assert "non-finite" in proc.stderr

    def test_seed_override_changes_hash(self, tmp_path):
        raw = small_raw(tmp_path / "x", steps=2, eval_every=2)
        a = config_from_dict(raw)
        raw2 = dict(raw)
        raw2["seed"] = 99
        b = config_from_dict(raw2)
        assert experiment_hash(a) != experiment_hash(b)

    def test_train_seed_and_out_override(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_raw(tmp_path / "from_file", steps=2, eval_every=2)))
        out = tmp_path / "override"
        proc = run_cli(["train", "--config", str(cfg_path), "--seed", "7", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        echo = json.loads((out / "config.json").read_text())
        assert echo["seed"] == 7 and echo["dataset"]["seed"] == 7
        assert echo["out_dir"] == str(out)
        assert (out / "steps.csv").exists()
        assert (out / "checkpoints" / "final" / CHECKPOINT_FILE).exists()
        assert not (tmp_path / "from_file").exists()


def test_every_export_resolves():
    namespace = {}
    exec("from dualvq import *", namespace)  # a stale name in __all__ raises here
    assert set(dualvq.__all__) <= namespace.keys()


def test_every_traced_target_resolves(monkeypatch):
    """The benchmark's traced run replaces each ``owner.__dict__[attr]`` that
    bench/layers.py lists, so each must exist where it is listed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from layers import STEP, TARGETS
    from measure import _resolve

    for owner_path, attr, *_ in (STEP, *TARGETS):
        assert callable(_resolve(owner_path).__dict__.get(attr)), f"{owner_path}.{attr}"
