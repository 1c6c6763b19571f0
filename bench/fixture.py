"""Train the eval workload's checkpoints in a process of their own.

    python3 bench/fixture.py OUT_DIR SEED

Expects dualvq on PYTHONPATH and the BLAS thread pin in the environment,
as ``run.py`` sets them for its children.
"""

import sys
from pathlib import Path

from workloads import build_eval_fixture

if __name__ == "__main__":
    build_eval_fixture(int(sys.argv[2]), Path(sys.argv[1]))
