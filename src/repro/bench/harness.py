"""Shared machinery for the paper-reproduction benchmarks.

Every figure/table bench does the same thing: run several search methods on
one or more graphs for a fixed sample budget, collect best-so-far
improvement curves, and aggregate.  ``REPRO_BENCH_SCALE`` (environment
variable, float >= 0.05) scales sample budgets and problem sizes toward the
paper's full configuration; the default keeps a full benchmark run at
laptop timescales.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.baselines import SearchResult
from repro.parallel.search import ParallelConfig, make_executor
from repro.utils.threads import blas_threads


@dataclass(frozen=True)
class BenchScale:
    """Scaled-down benchmark sizing derived from ``REPRO_BENCH_SCALE``.

    ``scale = 1.0`` is the default quick configuration; the paper-scale
    configuration corresponds to roughly ``scale = 8`` (full BERT, 36
    chips, full sample budgets).
    """

    scale: float

    def samples(self, base: int, cap: "int | None" = None) -> int:
        """Scale a sample budget."""
        out = max(int(round(base * self.scale)), 8)
        return min(out, cap) if cap is not None else out

    def chips(self, base: int, cap: int) -> int:
        """Scale a chip count (at least 2, at most ``cap``)."""
        return int(np.clip(round(base * self.scale), 2, cap))

    def layers(self, base: int, cap: int) -> int:
        """Scale a transformer layer count."""
        return int(np.clip(round(base * self.scale), 1, cap))


def bench_scale(default: float = 1.0) -> BenchScale:
    """Read ``REPRO_BENCH_SCALE`` from the environment."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    try:
        scale = float(raw) if raw else default
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE must be a float, got {raw!r}") from exc
    if scale < 0.05:
        raise ValueError("REPRO_BENCH_SCALE must be >= 0.05")
    return BenchScale(scale=scale)


@dataclass
class MethodCurve:
    """Best-so-far improvement curve of one method on one graph."""

    method: str
    graph: str
    curve: np.ndarray

    @property
    def final(self) -> float:
        """Improvement at the end of the budget."""
        return float(self.curve[-1]) if self.curve.size else 0.0


def run_methods(
    methods: "dict[str, Callable[[object, int], SearchResult]]",
    env_factory: "Callable[[], object]",
    n_samples: int,
    graph_name: str = "graph",
) -> list[MethodCurve]:
    """Run each method on a fresh environment; return its best-so-far curve.

    ``methods`` maps a display name to ``fn(env, n_samples) -> SearchResult``.
    Each method gets its own environment instance so sample counters and
    baselines are independent.
    """
    curves = []
    for name, fn in methods.items():
        env = env_factory()
        result = fn(env, n_samples)
        curves.append(
            MethodCurve(method=name, graph=graph_name, curve=result.best_so_far())
        )
    return curves


def repeat_methods(
    methods_factory: "Callable[[int], dict]",
    env_factory: "Callable[[], object]",
    n_samples: int,
    n_repeats: int,
    graph_name: str = "graph",
) -> tuple[dict, dict]:
    """Run every method ``n_repeats`` times with distinct seeds.

    The paper runs each experiment 5 times and reports mean and standard
    deviation; ``methods_factory(seed)`` must return the method dict for
    one seed.  Returns ``(mean_curves, std_curves)`` keyed by method.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    per_method: dict[str, list[np.ndarray]] = {}
    for repeat in range(n_repeats):
        methods = methods_factory(repeat)
        curves = run_methods(methods, env_factory, n_samples, graph_name)
        for curve in curves:
            per_method.setdefault(curve.method, []).append(curve.curve)
    means = {}
    stds = {}
    for name, runs in per_method.items():
        length = min(r.size for r in runs)
        stack = np.stack([r[:length] for r in runs])
        means[name] = stack.mean(axis=0)
        stds[name] = stack.std(axis=0)
    return means, stds


def interleaved_medians(
    runs: "dict[str, Callable[[], float]]", n_repeats: int
) -> "dict[str, dict]":
    """Interleave repeated runs of each config and report medians.

    Throughput on one box is trajectory-noisy (solver difficulty swings with
    the policy RNG seed and box load drifts), so the ROADMAP methodology is
    to never compare single shots: this helper runs the configs round-robin
    (``A B C  A B C  ...``) so load drift hits them evenly, and reports the
    per-config median alongside the raw runs.

    ``runs`` maps a config name to a zero-argument callable returning one
    scalar measurement (conventionally samples/sec).
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    record: dict[str, list[float]] = {name: [] for name in runs}
    for _ in range(n_repeats):
        for name, fn in runs.items():
            record[name].append(float(fn()))
    return {
        name: {"runs": values, "median": float(np.median(values))}
        for name, values in record.items()
    }


def blas_thread_counts(worker_counts: "Sequence[int]") -> dict:
    """The parent's BLAS thread count inside an executor of each worker
    count (``in_pool``) and after it has closed (``after``).

    Bench rows record it next to ``cpu_count``: a forked pool pins its
    parent to a share of the cores while it is open (see
    :mod:`repro.utils.threads`), so the count outside a pool says nothing
    about the count the parallel rows ran at.
    """
    in_pool = {}
    for w in worker_counts:
        with make_executor(None, [], [], ParallelConfig(n_workers=w)):
            in_pool[f"workers{w}"] = blas_threads()
    return {"in_pool": in_pool, "after": blas_threads()}


def geomean_curves(curves: "Sequence[MethodCurve]", method: str) -> np.ndarray:
    """Geometric-mean best-so-far curve of one method across graphs.

    Invalid (zero) prefixes are floored at a small epsilon so the geomean
    is defined before the first valid sample.
    """
    selected = [c.curve for c in curves if c.method == method]
    if not selected:
        raise ValueError(f"no curves recorded for method {method!r}")
    length = min(c.size for c in selected)
    stack = np.stack([np.maximum(c[:length], 1e-9) for c in selected])
    return np.exp(np.log(stack).mean(axis=0))
