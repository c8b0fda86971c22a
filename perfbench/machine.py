"""Describe the machine a result was measured on.

The BLAS thread count is read three ways: the environment variables the
benchmark sets before numpy loads, numpy's build configuration, and the
count each OpenBLAS library loaded into the process reports at run time.
"""

from __future__ import annotations

import ctypes
import os
import platform

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(func())
                break
    return counts


def describe() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": available_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_loaded": _loaded_blas_threads(),
    }
