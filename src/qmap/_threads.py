"""The one reader of QMAP_THREADS, the worker threads of a run, and the
run-time size of numpy's BLAS pool.

`import qmap` calls cap_thread_env before anything loads numpy, while
the BLAS pools have not read their environment knobs yet, so this module
imports no numpy at module level.  worker_map reads QMAP_THREADS for the
worker threads of the Monte Carlo correlator (qmap.classical, one task
per block of samples) and of the conjugation-route correlator
(qmap.ergodicity, one task per block of columns).

blas_threads and set_blas_threads read and resize numpy's OpenBLAS pool
while it runs, through the scipy_openblas entry points that numpy's
extension module links against (the wheels' scipy-openblas64 build).
They import numpy when called.  Where numpy's BLAS lacks those entry
points, the getter returns None and the setter does nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os

from .errors import ConfigurationError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def requested_threads() -> int:
    """QMAP_THREADS as a count; 0 (automatic) when it is unset.

    Anything but a non-negative integer is a ConfigurationError.
    """
    raw = os.environ.get("QMAP_THREADS")
    if raw is None:
        return 0
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigurationError(
            f"QMAP_THREADS must be a non-negative integer, got {raw!r}")
    return n


def cap_thread_env() -> None:
    """Copy a valid QMAP_THREADS above 0 into every BLAS and OpenMP
    thread knob; an invalid value is left for the command line to report."""
    try:
        n = requested_threads()
    except ConfigurationError:
        return
    if n > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


@contextlib.contextmanager
def worker_map(tasks: int):
    """Yield a map over the run's worker threads: QMAP_THREADS of them if
    it is above 0, else the CPU affinity, never above 8 or tasks.  It is a
    thread pool's map, the pool shut down when the block exits, or for one
    worker the builtin map, which runs inline."""
    n = requested_threads()
    if n == 0:
        # sched_getaffinity is Linux only
        n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(n, 8, tasks)
    if workers == 1:
        yield map
        return
    # imported here, so commands that start no pool never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield pool.map


@functools.cache
def _openblas_pool():
    """numpy's OpenBLAS (getter, setter) of the pool size, or None.

    Loading numpy's extension module by path resolves the symbols through
    its dependencies, whichever file the BLAS library is.
    """
    import ctypes

    import numpy

    lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if getter is None or setter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return getter, setter


def blas_threads() -> int | None:
    """Threads of numpy's OpenBLAS pool now; None where it cannot be read."""
    pool = _openblas_pool()
    return None if pool is None else pool[0]()


def set_blas_threads(n: int) -> None:
    """Run numpy's OpenBLAS on n threads from its next call on; a no-op
    where the pool cannot be resized."""
    pool = _openblas_pool()
    if pool is not None:
        pool[1](n)
