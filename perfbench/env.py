"""Process set-up shared by the benchmark's scripts.

`prepare()` must run before NumPy is imported: it pins the BLAS and OpenMP
thread pools to one thread and puts the checkout's `src/` first on the
import path, so the benchmark always measures the rcint of the checkout it
runs in.  One thread, not `nproc`: on a host that lends the benchmark two
shared cores, a two-thread pool spends its time waiting for the scheduler,
and its repetitions spread further.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def have_source() -> bool:
    return (SRC / "rcint" / "jets.py").is_file()


def record() -> dict:
    """Machine and library facts that the timings depend on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "ram_gb": round(ram / 2 ** 30, 2),
        "machine": platform.machine(),
    }
