"""Machine record attached to every benchmark result.

Everything here is read from read-only sources: the interpreter, numpy's
build configuration, the BLAS library already loaded into this process,
/proc/cpuinfo and the scheduler's CPU affinity.
"""

from __future__ import annotations

import ctypes
import os
import platform

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_thread_env() -> dict:
    """Environment that caps BLAS at one thread per CPU this process may use.

    Without it OpenBLAS sizes its pool from the host's CPU count, which can be
    larger than the affinity mask in a container.
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(nproc()))
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def machine_record(loadavg_at_start) -> dict:
    """Versions, BLAS and CPU facts of the process that ran the workload."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(loadavg_at_start),
    }
