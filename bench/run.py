"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``--workload all`` (the default) runs
every workload in turn. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package, BLAS and OpenMP are pinned to one thread before numpy is
imported: unpinned, OpenBLAS keeps a second core busy even at
``NILFOURIER_THREADS=1``, so cpu time exceeds wall time and the figures
depend on what else runs on the machine.
"""

import os
import sys
import time
from pathlib import Path

PINNED = {"NILFOURIER_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    start = time.perf_counter()
    import numpy  # noqa: F401  (imports count toward set-up time)

    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:], PINNED, import_s=time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
