"""The one reader of QMAP_THREADS, the worker threads of a run, and the
run-time size of numpy's BLAS pool.  qmap.cli states the thread rule
these serve.

`import qmap` calls cap_thread_env before anything loads numpy, while
the BLAS pools have not read their environment variables yet, so this
module imports no numpy at module level.  worker_map gives the
correlators (qmap.classical, qmap.ergodicity) their worker threads, and
head_start gives a full-grid sweep (qmap.sweep) its one background
thread.  blas_threads and set_blas_threads read and resize numpy's
OpenBLAS pool while it runs, through the scipy_openblas entry points
that numpy's extension module links against (the wheels'
scipy-openblas64 build); where numpy's BLAS lacks them, the getter
returns None and the setter does nothing.
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

# an idle OpenBLAS thread spins 2^SPIN_EXPONENT cycles (0.5 ms at 2.1 GHz)
# before it sleeps.  OpenBLAS's own 2^28 (0.13 s) burns a core after the
# pool starts and after every threaded call; 2^4 makes every threaded
# call at N = 512 wake the pool, and costs about 5% wall on `qmap scaling`
SPIN_EXPONENT = 20


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
    """Set OPENBLAS_THREAD_TIMEOUT to SPIN_EXPONENT unless it is set, then
    copy a valid QMAP_THREADS above 0 into every BLAS and OpenMP thread
    knob; an invalid value is left for the command line to report.

    OpenBLAS reads both once, as it loads, so neither reaches a BLAS that
    numpy loaded before this ran.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(SPIN_EXPONENT))
    try:
        n = requested_threads()
    except ConfigurationError:
        return
    if n > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


def _worker_count(tasks: int) -> int:
    """QMAP_THREADS if it is above 0, else the CPU affinity, never above 8
    or tasks."""
    n = requested_threads()
    if n == 0:
        # sched_getaffinity is Linux only
        n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(n, 8, tasks)


@contextlib.contextmanager
def worker_map(tasks: int):
    """Yield a map over the run's worker threads (_worker_count).  It is a
    thread pool's map, the pool shut down when the block exits, or for one
    worker the builtin map, which runs inline."""
    workers = _worker_count(tasks)
    if workers == 1:
        yield map
        return
    # imported here, so commands that start no pool never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield pool.map


@contextlib.contextmanager
def head_start():
    """Yield start(fn, *args), which runs fn(*args) on one background
    thread and returns a function of no arguments that waits for that call
    and gives its result or re-raises what it raised; or yield None, and
    the caller runs its calls itself.

    The thread exists with two workers (_worker_count) and numpy's BLAS
    pool at one thread.  It is named qmap-head-start_0, so that a stack
    dump names it, and runs the calls in the order started.  When the
    block exits, calls not yet begun are cancelled, the running one is
    waited for, and the thread is gone.  fn must call no public function
    of a layer module: bench/traced.py keeps one span stack per process.
    """
    if _worker_count(2) < 2 or blas_threads() != 1:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="qmap-head-start")
    try:
        yield lambda fn, *args: pool.submit(fn, *args).result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
