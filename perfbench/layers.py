"""The per-layer metric catalogue: every name a traced run prints.

Each workload measures the layers it runs; a layer it never enters
reports zero calls and zero time, so every traced result carries the
same names.
"""

from __future__ import annotations

from routing import CLASSES, LAYERS as SERVE_LAYERS
from training import PHASES

_TIMED = (("calls", "count", "lower"), ("busy_s", "s", "lower"),
          ("p50_ms", "ms", "lower"), ("p90_ms", "ms", "lower"))


def catalogue() -> "list[tuple[str, str, str]]":
    """``(name, unit, better)`` of every per-layer metric."""
    out = [
        ("rl.featurize.calls", "count", "lower"),
        ("rl.featurize.busy_s", "s", "lower"),
    ]
    for prefix in PHASES.values():
        out += [(f"{prefix}.{q}", unit, better) for q, unit, better in _TIMED]
    out += [
        ("hardware.evaluate.valid_ratio", "ratio", "higher"),
        ("parallel.wait_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("process.cpu_per_wall", "ratio", "lower"),
        ("process.blas_threads", "count", "lower"),
    ]
    for layer in SERVE_LAYERS:
        for cls in CLASSES:
            out += [(f"{layer}.{cls}.{q}", unit, better) for q, unit, better in _TIMED]
    for cls in CLASSES:
        out += [
            (f"client.{cls}.calls", "count", "higher"),
            (f"client.{cls}.p50_ms", "ms", "lower"),
            (f"client.{cls}.p90_ms", "ms", "lower"),
        ]
    out += [
        ("serve.cache.hit_ratio", "ratio", "higher"),
        ("serve.cache.evictions", "count", "lower"),
        ("serve.router.hedges_fired", "count", "lower"),
        ("serve.router.hedge_wins", "count", "higher"),
        ("serve.router.failovers", "count", "lower"),
        ("serve.registry.weight_loads", "count", "lower"),
        ("serve.hit_tail.behind_miss_ratio", "ratio", "lower"),
        ("serve.hit_body.behind_miss_ratio", "ratio", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
        ("bench.failed_ratio", "ratio", "lower"),
    ]
    return out


def complete(metrics: dict) -> dict:
    """``metrics`` plus a zero for each catalogued layer the run never
    entered; rejects names missing from the catalogue."""
    known = {name: unit for name, unit, _ in catalogue()}
    unknown = sorted(set(metrics) - set(known))
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    out = {name: (0, unit) for name, unit in known.items()}
    out.update(metrics)
    return out
