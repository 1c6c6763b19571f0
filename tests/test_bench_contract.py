"""What bench/ relies on in the package: the names its traced run replaces,
and the quantizer, checkpoint and eval checks it runs on the workloads' output.
A refactor that breaks one of them shows up here rather than as failed bench
checks."""

from pathlib import Path

import pytest

from dualvq.config import config_from_dict
from dualvq.run import run_eval, run_train


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))


def test_every_traced_target_resolves(bench):
    """The benchmark's traced run replaces each ``owner.__dict__[attr]`` that
    bench/layers.py lists, so each must exist where it is listed."""
    from layers import STEP, TARGETS
    from measure import _resolve

    for owner_path, attr, *_ in (STEP, *TARGETS):
        assert callable(_resolve(owner_path).__dict__.get(attr)), f"{owner_path}.{attr}"


def test_workload_checks_pass_on_a_dual_run(bench, tmp_path):
    from workloads import check_eval, check_quantizer, check_roundtrip, check_steps_csv

    seed = 21
    cfg = config_from_dict({"seed": seed, "steps": 4, "batch": 4, "disc_start_step": 2,
                            "eval_every": 4, "dataset": {"kind": "synthetic", "n": 40},
                            "out_dir": str(tmp_path / "run")})
    result = run_train(cfg)
    # reads lambda_max, disc_start_step, resolved_codebooks() and StepReport.CSV_COLUMNS
    assert check_steps_csv(result.steps_csv, cfg) == [[]] * 4
    final = result.final_checkpoint
    assert check_quantizer(final, seed) == []
    assert check_roundtrip(final, tmp_path / "roundtrip") == []
    first = run_eval(final, split="val")
    assert check_eval(run_eval(final, split="val"), first) == []
