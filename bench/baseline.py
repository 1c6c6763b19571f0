"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py [--runs 10] [--first-seed 1] [--workloads eval ...]

Each run is a fresh ``run.py`` process, so peak memory is per process, and
runs go one after another. Run i of a workload uses seed first-seed + i.
After the untraced runs, one traced run per workload gives the per-layer
figures, including ``trace.overhead_frac``. The result goes to
``bench/baseline.json``:

- the machine: nproc, CPU model, BLAS vendor, version and thread count,
  numpy and scipy versions;
- per workload and end-to-end metric: every value, the median, the
  quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
  spread (quartile distance over median) next to the metric's bound;
- the same for the report's ``seeded.*`` quality figures, which show how
  far loss and codebook usage move between seeds;
- per workload, the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# readable-report rows summarised next to the metrics: the quality figures
# for each run's own seed
REPORTED = ("seeded.",)


def machine() -> dict:
    import numpy
    import scipy

    from run import BLAS_PIN

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_PIN["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stderr[-2000:], file=sys.stderr)
    # the readable report's "name value unit" rows, for the figures outside the JSON
    result["report"] = {}
    for line in lines[1:-1]:
        name, value = line.split()[:2]
        result["report"][name] = float(value)
    return result


def summarize(values: list, bound: float | None = None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2), "bound": bound}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        results = [one_run(workload, seed, 0) for seed in report["seeds"]]
        traced = one_run(workload, args.first_seed, 1)
        all_correct &= all(r["correct"] for r in results + [traced])
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results], bound)
                   for name, bound in bounds.items()}
        extras = {name: summarize([r["report"][name] for r in results])
                  for name in results[0]["report"] if name.startswith(REPORTED)}
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "report": extras,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: {report['workloads'][workload]['failed']} failed of "
              f"{report['workloads'][workload]['attempted']}")
        for name, s in metrics.items():
            # setup_s is held to its bound by medians only, not by spread
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  WIDE"
            print(f"  {name:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:.4f} (bound {s['bound']}){flag}")
        for name, s in extras.items():
            print(f"  {name:22s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
        print(f"  trace.overhead_frac {traced['metrics']['trace.overhead_frac']['value']:.4f}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
