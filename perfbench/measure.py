"""The benchmark's own ruler: clocks, percentiles, phase samples, environment.

Nothing here calls ``repro.obs.latency_summary``, the log-bucketed
histograms or ``repro.bench.harness``: percentiles are exact, computed
with numpy on raw samples, and every duration comes from this process's
``time.perf_counter``.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import subprocess
from collections import defaultdict

import numpy as np

from repro.obs.profile import PhaseTimer

#: Set-ups per untraced run; ``setup_s`` reports their median.
N_SETUPS = 3

#: Environment variables that set thread counts in numeric libraries.  The
#: benchmark records the inherited values and never sets them.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def percentile_ms(seconds, q: float) -> float:
    """Exact ``q``-th percentile of raw durations in seconds, in ms."""
    if len(seconds) == 0:
        return 0.0
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q) * 1e3)


def layer_metrics(prefix: str, seconds) -> dict:
    """``calls``, ``busy_s``, ``p50_ms`` and ``p90_ms`` of one layer."""
    return {
        f"{prefix}.calls": (len(seconds), "count"),
        f"{prefix}.busy_s": (float(sum(seconds)), "s"),
        f"{prefix}.p50_ms": (percentile_ms(seconds, 50), "ms"),
        f"{prefix}.p90_ms": (percentile_ms(seconds, 90), "ms"),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far: this one or any
    reaped descendant (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_threads() -> "int | None":
    """OpenBLAS thread count of numpy's bundled library, read, never set."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return int(getter())
    return None


def _git_commit(root: str) -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: str, workload: str, seed: int, trace: bool) -> dict:
    """The record every result carries."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        affinity = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
    }


class LayerTimer(PhaseTimer):
    """A :class:`PhaseTimer` that keeps every phase duration.

    Attached through the public ``RLPartitioner.profiler`` hook.  Forked
    rollout workers inherit a copy; there each duration is appended as one
    line to ``<spill_dir>/phases-<pid>.txt`` (one ``os.write`` per line, so
    nothing is lost when the worker exits without flushing), and
    :meth:`worker_samples` reads them back.
    """

    def __init__(self, spill_dir: str) -> None:
        super().__init__()
        self.samples: "dict[str, list]" = defaultdict(list)
        self._owner = os.getpid()
        self._spill_dir = spill_dir
        self._fd: "int | None" = None
        self._fd_pid: "int | None" = None

    def add(self, name: str, seconds: float) -> None:
        pid = os.getpid()
        if pid == self._owner:
            super().add(name, seconds)
            self.samples[name].append(seconds)
            return
        if self._fd_pid != pid:
            path = os.path.join(self._spill_dir, f"phases-{pid}.txt")
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self._fd_pid = pid
        os.write(self._fd, f"{name} {seconds!r}\n".encode())

    def worker_samples(self) -> "dict[str, list]":
        """Phase durations recorded by forked workers."""
        out: "dict[str, list]" = defaultdict(list)
        for path in sorted(glob.glob(os.path.join(self._spill_dir, "phases-*.txt"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    name, _, value = line.partition(" ")
                    out[name].append(float(value))
        return out
