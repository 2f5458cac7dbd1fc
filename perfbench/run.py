"""Run one gvvad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload module-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The program is imported
from ``src/`` next to this directory; without it the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# One BLAS/OpenMP thread, set before numpy loads OpenBLAS.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_program() -> None:
    """Import gvvad from ``ROOT/src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gvvad

    where = Path(gvvad.__file__).resolve().parent
    if where != (src / "gvvad").resolve():
        raise ImportError(f"gvvad was imported from {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINNED_THREADS)
    start = perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import gvvad from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import harness

    import_s = perf_counter() - start
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s)


if __name__ == "__main__":
    raise SystemExit(main())
