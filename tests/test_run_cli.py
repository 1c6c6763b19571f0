import contextlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualvq
from dualvq import autodiff as ad
from dualvq import cli, dual_quantizer, model
from dualvq import run
from dualvq.autodiff import NonFiniteError, ShapeError
from dualvq.checkpoint import (CHECKPOINT_FILE, CsvLog, column, format_cell, load_checkpoint, read_rows,
                               save_checkpoint)
from dualvq.config import ConfigError, config_from_dict, experiment_hash
from dualvq.data import batch_indices, build_dataset, save_ppm, split_dataset, split_rows
from dualvq.model import StepReport, TrainConfig, init_model, training_step
from dualvq.rng import component_rng
from dualvq.run import export_codebook, run_ablation, run_eval, run_train
from dualvq.tensor_io import read_bundle


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
        log = CsvLog(path, StepReport.CSV_COLUMNS, 0)
        for step in range(1, 17):
            log.append((step, *(0.1 * step + 1.0 / k for k in range(1, 10))))
        log.close()
        text = open(path).read()
        kept, last = text[: text.rindex("\n", 0, -1) + 1], text[text.rindex("\n", 0, -1) + 1 :]
        assert last.startswith("16,")
        for cut in range(1, len(last)):
            with open(path, "w") as f:
                f.write(kept + last[:cut])
            CsvLog(path, StepReport.CSV_COLUMNS, 15).close()
            assert open(path).read() == kept, repr(last[:cut])

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.integers(1, 10**6), unique=True, max_size=8).map(sorted),
           cells=st.lists(st.floats(allow_nan=False) | st.integers(-10**9, 10**9), min_size=4, max_size=4),
           start=st.integers(0, 10**6), later=st.integers(1, 10**6), cut=st.integers(0, 200))
    def test_log_keeps_exactly_the_rows_up_to_its_start_step(self, tmp_path_factory, steps, cells,
                                                             start, later, cut):
        path = str(tmp_path_factory.mktemp("log") / "eval.csv")
        log = CsvLog(path, run.EVAL_COLUMNS, 0)
        for step in steps:
            log.append((step, *cells))
        log.close()
        # a crash inside the append of a later step leaves any prefix of its row
        row = ",".join(map(format_cell, (start + later, *cells))) + "\n"
        with open(path, "a") as f:
            f.write(row[:cut])
        CsvLog(path, run.EVAL_COLUMNS, start).close()
        header, rows = read_rows(path)
        assert header == list(run.EVAL_COLUMNS)
        assert [int(r[0]) for r in rows] == [s for s in steps if s <= start]
        assert all(r[1:] == [format_cell(c) for c in cells] for r in rows)

    @pytest.mark.parametrize("cell", ["x", "1.5", ""])
    def test_log_refuses_a_step_it_cannot_read(self, tmp_path, cell):
        path = tmp_path / "steps.csv"
        text = "step,l_rec\n1,0.5\n" + cell + ",0.25\n3,0.125\n"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: cannot read {cell!r} as int")):
            CsvLog(str(path), ("step", "l_rec"), 1)
        assert path.read_text() == text

    def test_resume_refuses_an_l1_it_cannot_read(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "part", steps=12))
        last = os.path.join(run_train(cfg, stop_after=8).out_dir, "checkpoints", "last")
        eval_path = tmp_path / "part" / "eval.csv"
        lines = eval_path.read_text().splitlines(keepends=True)
        assert [ln.split(",")[0] for ln in lines] == ["step", "4", "8"]
        cells = lines[2].split(",")
        eval_path.write_text(lines[0] + lines[1] + ",".join([cells[0], cells[1], "x", *cells[3:]]))
        with pytest.raises(ValueError, match=re.escape(f"{eval_path}: line 3: cannot read 'x' as float")):
            run_train(config_from_dict(small_raw(tmp_path / "part", steps=12)), resume=last)

    def test_column_refuses_a_short_row_with_its_line(self, tmp_path):
        path = tmp_path / "eval.csv"
        path.write_text("step,psnr,l1,l2,fid_star\n1,9.0,0.5,0.25,3.0\n2,1.0\n3,9.0,0.5,0.25,3.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: has 2 cells, no cell 2")):
            column(str(path), read_rows(str(path))[1], 2)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "steps.csv"
        text = "step,l_rec\n1,0.5\n\n2,0.25\nx,0.1\n"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: cannot read '' as int")):
            CsvLog(str(path), ("step", "l_rec"), 2)
        assert path.read_text() == text
        path.write_text("step,l_rec\n1,0.5\n\n")   # a cut last row is dropped, blank or not
        CsvLog(str(path), ("step", "l_rec"), 2).close()
        assert path.read_text() == "step,l_rec\n1,0.5\n"

    def test_log_refuses_another_header(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("step,psnr\n1,2.0\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            CsvLog(str(path), StepReport.CSV_COLUMNS, 1)
        assert path.read_text() == "step,psnr\n1,2.0\n"

    def test_two_fresh_runs_into_one_directory_equal_one(self, tmp_path):
        run_train(config_from_dict(small_raw(tmp_path / "once", steps=6, eval_every=3)))
        for _ in range(2):
            run_train(config_from_dict(small_raw(tmp_path / "twice", steps=6, eval_every=3)))
        for name in ("steps.csv", "eval.csv"):
            assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()

    def test_resume_over_an_empty_log(self, tmp_path):
        cfg = config_from_dict(small_raw(tmp_path / "part", steps=12))
        last = os.path.join(run_train(cfg, stop_after=8).out_dir, "checkpoints", "last")
        (tmp_path / "part" / "steps.csv").write_bytes(b"")
        run_train(config_from_dict(small_raw(tmp_path / "part", steps=12)), resume=last)
        header, rows = read_rows(str(tmp_path / "part" / "steps.csv"))
        assert header == list(StepReport.CSV_COLUMNS)
        assert [int(r[0]) for r in rows] == list(range(9, 13))
        _, eval_rows = read_rows(str(tmp_path / "part" / "eval.csv"))
        assert [int(r[0]) for r in eval_rows] == [4, 8, 12]

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
                save_checkpoint(state, last, experiment=manifest["experiment"])
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
        assert "experiment_hash" not in load_checkpoint(result.final_checkpoint)[1]
        # the other seed is also the dataset's default seed
        other = config_from_dict(small_raw(tmp_path / "r2", seed=99))
        with pytest.raises(ConfigError, match=re.escape("other ['dataset', 'seed']")):
            run_train(other, resume=result.final_checkpoint)
        # the output path and the grid are not part of a run's trajectory
        moved = config_from_dict(small_raw(tmp_path / "r5", grid=TABLE3_GRID[:1]))
        run_train(moved, resume=result.final_checkpoint)
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
        state, _ = load_checkpoint(result.final_checkpoint)
        for which, cb in state.quantizer.codebooks().items():
            out = str(tmp_path / f"{which}.dvq")
            export_codebook(result.final_checkpoint, which, out)
            # read as the tensor_io docstring gives the layout, with no dualvq code
            with open(out, "rb") as f:
                blob = f.read()
            assert zlib.crc32(blob[:-4]).to_bytes(4, "little") == blob[-4:]
            line, _, values = blob[:-4].partition(b"\n")
            header = json.loads(line)
            assert header["codebook"] == which and header["tensors"] == [["entries", [32, 4]]]
            entries = np.frombuffer(values, dtype="<f8").reshape(32, 4)
            assert entries.tobytes() == cb.entries.data.tobytes()
            counts = np.array(header["counts"], dtype=np.uint64)
            assert counts.tobytes() == cb.counts.tobytes()
            assert header["counts"] == by_name[which]["counts"]
            assert by_name[which]["total_assignments"] == int(counts.sum())
            loaded, arrays = read_bundle(out)
            assert loaded == header and list(arrays) == ["entries"]
            assert arrays["entries"].tobytes() == entries.tobytes() and arrays["entries"].shape == (32, 4)


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

    def test_eval_builds_no_graph(self, tmp_path, monkeypatch):
        cfg = config_from_dict(small_raw(tmp_path / "run", steps=2, eval_every=2))
        state, _ = load_checkpoint(run_train(cfg).final_checkpoint)
        images = build_dataset(cfg.dataset, cfg.train.image_size, "val")
        with_graph = []
        make = ad._make

        def recording_make(data, parents, backward_fn, op):
            out = make(data, parents, backward_fn, op)
            with_graph.append(out.requires_grad)
            return out

        monkeypatch.setattr(ad, "_make", recording_make)
        ev = run.evaluate_state(state, images)
        assert with_graph and not any(with_graph)
        for owner in (run, model):   # the same pass with a graph
            monkeypatch.setattr(owner, "no_grad", contextlib.nullcontext)
        ev_graph = run.evaluate_state(state, images)
        assert any(with_graph)
        for k in ("psnr", "l1", "l2", "fid_star"):
            assert ev[k] == ev_graph[k], k

    def test_fid_star_depends_only_on_images_and_reconstructions(self, monkeypatch):
        images = np.random.default_rng(5).uniform(size=(12, 3, 32, 32))
        dual, single = (init_model(TrainConfig(seed=s, quantizer_mode=m))
                        for s, m in ((1, "dual"), (2, "single")))
        monkeypatch.setattr(run, "reconstruct", lambda state, batch, tables=None: (0.8 * batch + 0.1, None, None))
        fids = [run.evaluate_state(state, images)["fid_star"] for state in (dual, single)]
        assert fids[0] == fids[1] > 0.0
        monkeypatch.setattr(run, "reconstruct", lambda state, batch, tables=None: (batch.copy(), None, None))
        assert abs(run.evaluate_state(dual, images)["fid_star"]) <= 1e-9

    def test_eval_encodes_each_chunk_once(self, monkeypatch):
        state = init_model(TrainConfig(seed=4))
        images = np.random.default_rng(6).uniform(size=(40, 3, 32, 32))
        calls = []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda *a: calls.append(1) or encode(*a))
        run.evaluate_state(state, images)
        assert len(calls) == -(-40 // state.config.batch) == 5

    def test_eval_chunking_leaves_the_metrics(self):
        images = np.random.default_rng(7).uniform(size=(40, 3, 32, 32))
        small, whole = (run.evaluate_state(init_model(TrainConfig(seed=4, batch=b)), images)
                        for b in (8, 40))
        for k in ("psnr", "l1", "l2"):
            assert small[k] == pytest.approx(whole[k], rel=1e-12, abs=0.0), k
        assert small["fid_star"] == pytest.approx(whole["fid_star"], rel=1e-8, abs=0.0)

    def test_eval_refines_once(self, monkeypatch):
        state = init_model(TrainConfig(seed=4))
        images = np.random.default_rng(6).uniform(size=(40, 3, 32, 32))
        calls = []
        refine = dual_quantizer.refine
        monkeypatch.setattr(dual_quantizer, "refine", lambda *a: calls.append(1) or refine(*a))
        run.evaluate_state(state, images)
        assert len(calls) == 1

    def test_eval_working_set_does_not_grow_with_the_split(self):
        state = init_model(TrainConfig(seed=4))
        images = np.random.default_rng(8).uniform(size=(64, 3, 32, 32))
        peaks = []
        for n in (8, 64):
            tracemalloc.start()
            try:
                run.evaluate_state(state, images[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

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
            save_checkpoint(state, ckpt, experiment={**experiment, "dataset": dataset})
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
            export_codebook(single_run.final_checkpoint, "local", str(tmp_path / "l.dvq"))
        assert not os.path.exists(tmp_path / "l.dvq")
        export_codebook(single_run.final_checkpoint, "global", str(tmp_path / "g.dvq"))
        assert read_bundle(str(tmp_path / "g.dvq"))[1]["entries"].shape[1] == 8

    def test_export_cut_padded_or_flipped_rejected_with_path(self, tmp_path, single_run):
        path = tmp_path / "g.dvq"
        export_codebook(single_run.final_checkpoint, "global", str(path))
        blob = path.read_bytes()
        flipped = [blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1:]
                   for i in (0, blob.index(b"\n"), blob.index(b'"entries",[') + 11, blob.index(b"\n") + 20,
                             len(blob) - 5, len(blob) - 1)]
        for bad in [blob[:n] for n in range(len(blob))] + [blob + b"\0", blob + blob[-4:]] + flipped:
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_bundle(str(path))


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

    def test_worker_count_leaves_every_byte(self, tmp_path, monkeypatch):
        for threads in ("1", "2"):
            monkeypatch.setenv("DUALVQ_THREADS", threads)
            run_ablation(config_from_dict(small_raw(tmp_path / threads, steps=6, eval_every=3,
                                                    grid=TABLE3_GRID[:2])))
        names = ["ablation.csv"] + [os.path.join("runs", e["label"], log) for e in TABLE3_GRID[:2]
                                    for log in ("steps.csv", "eval.csv")]
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

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


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src"),
                                         env.get("PYTHONPATH", "")])
    return env


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "dualvq", *args],
                          capture_output=True, text=True, env=src_env(), **kw)


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
                         ({"dataset": {"size": "big"}}, "unknown dataset keys for kind 'synthetic': ['size']"),
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

    def test_missing_or_damaged_checkpoint_or_output_exit_two(self, tmp_path, monkeypatch):
        result = run_train(config_from_dict(small_raw(tmp_path / "run", steps=2, eval_every=2)))
        ckpt = result.final_checkpoint
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_raw(tmp_path / "resumed", steps=4, eval_every=2)))
        damaged, absent = tmp_path / "damaged", tmp_path / "absent"
        damaged.mkdir()
        (damaged / CHECKPOINT_FILE).write_bytes(b"not a container")
        cases = [(args, str(bad)) for bad in (absent, damaged) for args in (
            ["eval", "--checkpoint", str(bad)],
            ["export", "--checkpoint", str(bad), "--which", "global", "--out", str(tmp_path / "g.dvq")],
            ["train", "--config", str(cfg_path), "--resume", str(bad)])]
        cases += [(["eval", "--checkpoint", ckpt, "--out", str(absent / "m.json")], str(absent / "m.json")),
                  (["export", "--checkpoint", ckpt, "--which", "global", "--out", str(absent / "g.dvq")],
                   str(absent / "g.dvq"))]
        for args, path in cases:
            proc = run_cli(args)
            assert proc.returncode == 2, proc.stderr
            assert path in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
            assert len(proc.stderr.splitlines()) == 1, proc.stderr

        def shape_error(*args):
            raise ShapeError("internal")

        # a fault inside the program is not the file's: it keeps its traceback
        monkeypatch.setattr(run, "evaluate_state", shape_error)
        with pytest.raises(ShapeError, match="internal"):
            cli.main(["eval", "--checkpoint", ckpt])

    def test_nonfinite_abort_exit_three(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        raw = small_raw(tmp_path / "run", steps=4, eval_every=2)
        cfg_path.write_text(json.dumps(raw))
        assert run_cli(["train", "--config", str(cfg_path)]).returncode == 0
        ckpt = str(tmp_path / "run" / "checkpoints" / "final")
        # corrupt one parameter, then resume: training must abort with code 3
        state, manifest = load_checkpoint(ckpt)
        state.gen_params["enc.down0.w"].data[0, 0, 0, 0] = np.nan
        save_checkpoint(state, ckpt, experiment=manifest["experiment"])
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


def test_no_scipy_on_the_import_path():
    """numpy is the only runtime dependency: neither the package nor the
    CLI loads scipy in a fresh interpreter, nor the process pool that only
    a parallel ablation uses."""
    probe = ("import runpy, sys\n"
             "{}\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
             "             or m == 'concurrent.futures.process'))\n")
    cli = ("sys.argv = ['dualvq', '--help']\n"
           "try:\n"
           "    runpy.run_module('dualvq', run_name='__main__', alter_sys=True)\n"
           "except SystemExit as e:\n"
           "    assert e.code == 0, e.code")
    for body in ("import dualvq", cli):
        proc = subprocess.run([sys.executable, "-c", probe.format(body)], capture_output=True, text=True,
                              env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_every_export_resolves():
    namespace = {}
    exec("from dualvq import *", namespace)  # a stale name in __all__ raises here
    assert set(dualvq.__all__) <= namespace.keys()
