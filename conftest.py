"""Pins the test run to the benchmark's one BLAS thread (``BLAS_PIN`` in
``bench/run.py``) before anything loads numpy: float bits depend on the
thread count, and the suite compares bits. A value already set in the
environment is kept. Subprocesses the tests start inherit the pin."""

import importlib.util
import os
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).parent / "bench" / "run.py")
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
for _name, _value in _bench_run.BLAS_PIN.items():
    os.environ.setdefault(_name, _value)
