"""Process start-up shared by the benchmark's entry point and its worker.

Both must pin the BLAS thread count before numpy is first imported, and
both must import the library from this checkout's ``src`` directory and
nowhere else, so that a stray installed copy is never measured.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """Cap BLAS at one thread per usable core; call before importing numpy."""
    n = nproc()
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_library():
    """Import ``kvcompactor`` from ``src/`` of this checkout, or exit with code 2."""
    pkg = SRC / "kvcompactor"
    if not (pkg / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: library sources not found at {pkg}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import kvcompactor

    if Path(kvcompactor.__file__).resolve().parent != pkg:
        sys.stderr.write(f"perfbench: imported kvcompactor from {kvcompactor.__file__}, not {pkg}\n")
        raise SystemExit(2)
    return kvcompactor
