"""Benchmark of adjointkit: three seeded workloads, one job after another.

Usage, from the repository root:

    python3 perfbench/run.py --workload inverse --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, fixed before NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "adjointkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program's source is missing ({SRC / 'adjointkit'})\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
