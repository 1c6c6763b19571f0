"""Tests of the benchmark's own measurement code.

    python3 -m pytest -q bench
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import PER_LAYER, TRAINING_STEP, layer_metrics  # noqa: E402
from measure import (METRIC_NAME, Span, Tally, Tracer, patched, percentile,  # noqa: E402
                     self_times)
from workloads import END_TO_END, WORKLOADS  # noqa: E402
import run  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("n", [100, 150, 333, 1000])
def test_p90_is_fixed_and_leaves_ten_beyond(n):
    samples = list(range(n, 0, -1))          # 1..n, distinct, in reverse order
    value = percentile(samples, 90)
    assert value == math.ceil(0.9 * n)       # nearest rank, whatever n is
    assert sum(1 for x in samples if x > value) >= 10


@pytest.mark.parametrize("n, q", [(99, 90), (49, 80), (10, 1)])
def test_percentile_refuses_fewer_than_ten_beyond(n, q):
    with pytest.raises(ValueError):
        percentile(range(n), q)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
        Span("b.x", 3, 5.0, 7.0),
        Span("b.y", 3, 6.0, 8.0),        # overlaps b.x: covered once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 3, 2, 2])


def test_tracer_records_nesting_and_patched_restores_on_error(monkeypatch):
    owner = types.ModuleType("fake_layer")
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    original_inner, original_outer = owner.inner, owner.outer
    monkeypatch.setitem(sys.modules, "fake_layer", owner)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer, [("fake_layer", "outer", "outer"), ("fake_layer", "inner", "inner")]):
            assert owner.outer(1) == 4
            raise RuntimeError("boom")
    assert owner.inner is original_inner and owner.outer is original_outer
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_failing_operation_is_counted_not_raised():
    tally = Tally()

    def fails():
        raise ValueError("bad input")

    assert tally.attempt("op", fails) is None
    assert tally.attempt("op", lambda: 7) == 7
    assert tally.check("check", fails) is False
    assert tally.check("check", lambda: ["wrong value"]) is False
    assert tally.check("check", lambda: []) is True
    assert (tally.attempted, tally.failed) == (4, 3)
    assert "ValueError: bad input" in tally.messages[0]


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(PER_LAYER)
    # the traced run reports exactly those names, with no spans at all too
    assert set(layer_metrics([], TRAINING_STEP, 0.0)) == {n for n, _ in PER_LAYER}


def test_failing_workload_still_prints_counts(monkeypatch, capsys):
    import workloads

    def breaks(workload, seed, seconds, trace, work, out):
        out.tally.record("a check that passed", [])
        out.tally.attempt("run_train", lambda: 1 / 0)
        raise ValueError("no call succeeded")

    monkeypatch.setattr(workloads, "run", breaks)
    # main pins BLAS threads and the import path for the process; undo that after the test
    for key in (*run.BLAS_PIN, "PYTHONPATH"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "train_gan", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert all(m["value"] is None for m in result["metrics"].values())
