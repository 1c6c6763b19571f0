"""Run one dualvq benchmark workload in this process.

    python3 bench/run.py --workload train_gan --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports dualvq from ``src/``
next to this directory and refuses to run without it. The readable report
goes to stdout first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured with only the
training step timed; with ``--trace 1`` they are the per-layer ones, from
traced calls that alternate with untraced calls on the same seed.

Outputs go to a directory under ``.bench_out/`` in the checkout, removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("train_gan", "train_k512", "eval")
# Float results depend on the BLAS thread count, and the quality guards
# must be exact for a seed, so every process of a run uses one BLAS thread.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualvq" / "__init__.py").is_file():
        print(f"error: no dualvq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    import dualvq  # after the BLAS pin, which numpy reads when it loads

    if SRC not in Path(dualvq.__file__).resolve().parents:
        print(f"error: dualvq imported from {dualvq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_out"))
    out = workloads.Outcome()
    try:
        workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work, out)
    except Exception as exc:  # e.g. every call failed: report the counts, not a traceback
        traceback.print_exc()
        out.tally.record("workload", [f"{type(exc).__name__}: {exc}"])
        out.metrics, out.extras = {}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(layers.PER_LAYER if args.trace else workloads.END_TO_END)
    tally = out.tally
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    values = {name: out.metrics.get(name, math.nan) for name in units}
    rows = [*out.extras, *((name, values[name], unit, "") for name, unit in units.items()),
            ("failed_frac", tally.failed / max(tally.attempted, 1), "frac",
             f"{tally.failed} of {tally.attempted} operations and checks")]
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:16.10g} {unit:8s} {note}".rstrip())
    for message in tally.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and all(map(math.isfinite, values.values())),
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a metric that could not be measured is null, which keeps the line strict JSON
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
