"""The process's BLAS thread budget.

NumPy's bundled OpenBLAS starts one thread per core in every process.  A
worker pool on ``C`` cores then runs ``n_workers + 1`` processes with ``C``
BLAS threads each, and the threads spin against each other for the same
cores.  This module lets the library own that budget:

* :func:`blas_threads` / :func:`set_blas_threads` read and set the count of
  numpy's bundled OpenBLAS through ctypes (no extra dependency; both are
  no-ops returning ``None`` when that library is not found);
* :func:`cpu_budget` is the fair share of the usable cores for one of
  ``n_procs`` busy processes;
* :class:`BlasBudget` is a process-wide, refcounted hold on a lowered
  count: the first holder saves the original count, every holder may only
  *lower* the current one, and the last holder out restores the original.

An explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` in the
environment always wins: a budget is then a no-op.  The float64 serial
goldens and the determinism suites pass both at the default count and
under ``OPENBLAS_NUM_THREADS=1`` (a stage of ``scripts/ci_check.sh``).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import numpy as np

#: Environment variables through which a user pins the BLAS thread count.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@functools.lru_cache(maxsize=None)
def _openblas():
    """numpy's bundled OpenBLAS (``numpy.libs``), or ``None`` if absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        return lib
    return None


def blas_threads() -> "int | None":
    """The current OpenBLAS thread count, or ``None`` without OpenBLAS."""
    lib = _openblas()
    if lib is None:
        return None
    return int(lib.scipy_openblas_get_num_threads64_())


def set_blas_threads(n: int) -> None:
    """Set the OpenBLAS thread count (a no-op without OpenBLAS)."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(max(1, int(n)))


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def cpu_budget(n_procs: int) -> int:
    """BLAS threads for each of ``n_procs`` processes sharing the cores."""
    return max(1, usable_cores() // max(1, int(n_procs)))


def explicit_thread_env(environ=None) -> bool:
    """Whether ``environ`` (default: this process's) pins a thread count."""
    environ = os.environ if environ is None else environ
    return any(environ.get(name) for name in THREAD_ENV_VARS)


_lock = threading.Lock()
_holders = 0
_original: "int | None" = None


class BlasBudget:
    """One hold on the process-wide BLAS thread budget.

    ``acquire`` lowers the count to ``n_threads`` if it is higher (never
    raises it); ``release`` drops the hold, and the last hold out restores
    the count from before the first.  Both are idempotent, and usable as a
    context manager.  Forked children inherit the lowered count.
    """

    def __init__(self, n_threads: int):
        self.n_threads = max(1, int(n_threads))
        self._held = False

    def acquire(self) -> "BlasBudget":
        global _holders, _original
        if self._held or explicit_thread_env():
            return self
        with _lock:
            current = blas_threads()
            if current is None:
                return self
            if _holders == 0:
                _original = current
            _holders += 1
            self._held = True
            if self.n_threads < current:
                set_blas_threads(self.n_threads)
        return self

    def release(self) -> None:
        global _holders, _original
        if not self._held:
            return
        with _lock:
            self._held = False
            _holders -= 1
            if _holders == 0:
                set_blas_threads(_original)
                _original = None

    def __enter__(self) -> "BlasBudget":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
