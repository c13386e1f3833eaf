"""Typed metric primitives with bounded memory.

Three primitives back every counter/latency dict the serving stack used to
assemble by hand:

* :class:`Counter` — monotonically increasing integer, thread-safe.
* :class:`Gauge` — a settable scalar (optionally computed via callback).
* :class:`Histogram` — log-bucketed streaming distribution with p50/p95/p99
  and associative :meth:`Histogram.merge` (a router can aggregate shard
  histograms in any grouping and get the same result).

The histogram's bucket boundaries grow geometrically by ``2**(1/16)`` per
bucket, so any reported percentile is within ~4.4% relative error of the
exact value while memory stays bounded by the number of *distinct occupied
buckets* (≈640 over twelve decades), never by the observation count.

:class:`MetricsRegistry` names metrics and renders the lot as Prometheus
text exposition; :func:`prometheus_from_snapshot` additionally flattens an
arbitrary nested JSON snapshot (the existing ``/metrics`` shape) into
gauges so the Prometheus view covers everything the JSON view does.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "latency_summary",
    "prometheus_from_snapshot",
]

# Per-bucket growth factor.  2**(1/16) = 16 buckets per octave: relative
# percentile error is at most (sqrt(growth) - 1) ~ 2.2% at the geometric
# bucket midpoint, <= 4.4% worst case across a bucket.
_GROWTH_PER_OCTAVE = 16
_GROWTH = 2.0 ** (1.0 / _GROWTH_PER_OCTAVE)
_LOG_GROWTH = math.log(_GROWTH)
# Observations below this are counted in a single underflow bucket: the
# serving stack measures milliseconds/seconds, where 1e-9 is already far
# below clock resolution.
_MIN_TRACKED = 1e-9


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A scalar that can go up and down, or track a live callback."""

    __slots__ = ("name", "_value", "_fn", "_lock")

    def __init__(self, name: str = "", fn=None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


def _bucket_index(value: float) -> int:
    """Bucket index for ``value``; bucket ``i`` covers [growth^i, growth^(i+1))."""
    return math.floor(math.log(value) / _LOG_GROWTH)


class Histogram:
    """Log-bucketed streaming histogram with mergeable state.

    Buckets are sparse (a dict keyed by integer bucket index), so memory is
    bounded by the number of *occupied* buckets regardless of how many
    observations stream through.  Exact count/sum/min/max are kept
    alongside, so means are exact; only percentiles are approximated (to
    within the bucket width, ~4.4% relative).
    """

    __slots__ = ("name", "_buckets", "_zero", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: dict[int, int] = {}
        self._zero = 0  # observations below _MIN_TRACKED (incl. 0 and negatives)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value < _MIN_TRACKED:
                self._zero += 1
            else:
                idx = _bucket_index(value)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def n_buckets(self) -> int:
        """Occupied bucket count — the memory bound, independent of count."""
        return len(self._buckets)

    def percentile(self, q: float) -> "float | None":
        """Approximate q-th percentile (q in [0, 100])."""
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> "float | None":
        if self._count == 0:
            return None
        rank = q / 100.0 * self._count
        seen = self._zero
        if rank <= seen:
            # All sub-threshold observations report as the true minimum.
            return float(min(self._min, 0.0) if self._min < math.inf else 0.0)
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank <= seen:
                # Geometric bucket midpoint, clamped to the observed range
                # so single-observation histograms report exact values.
                mid = _GROWTH ** (idx + 0.5)
                return float(min(max(mid, self._min), self._max))
        return float(self._max)

    def merge(self, other: "Histogram") -> "Histogram":
        """Return a new histogram equal to observing both streams.

        Associative and commutative: a router may aggregate shard
        histograms in any grouping.
        """
        out = Histogram(self.name or other.name)
        for h in (self, other):
            with h._lock:
                for idx, n in h._buckets.items():
                    out._buckets[idx] = out._buckets.get(idx, 0) + n
                out._zero += h._zero
                out._count += h._count
                out._sum += h._sum
                out._min = min(out._min, h._min)
                out._max = max(out._max, h._max)
        return out

    def summary(self) -> dict:
        """Streaming summary: count, mean, p50/p95/p99, min/max."""
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0,
                    "mean": None,
                    "p50": None,
                    "p95": None,
                    "p99": None,
                    "min": None,
                    "max": None,
                }
            return {
                "count": self._count,
                "mean": self._sum / self._count,
                "p50": self._percentile_locked(50),
                "p95": self._percentile_locked(95),
                "p99": self._percentile_locked(99),
                "min": self._min,
                "max": self._max,
            }

    def percentiles_ms(self) -> dict:
        """The ``/metrics`` latency shape of a histogram of milliseconds:
        ``count`` with ``p50_ms``/``p95_ms``/``p99_ms``.  Empty, it reports
        ``p50_ms``/``p95_ms`` as None and carries no ``p99_ms`` key."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "p50_ms": None, "p95_ms": None}
            return {
                "count": self._count,
                "p50_ms": self._percentile_locked(50),
                "p95_ms": self._percentile_locked(95),
                "p99_ms": self._percentile_locked(99),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self._count})"


def latency_summary(values_ms) -> dict:
    """Exact percentile summary of a finished latency list (bench helper).

    For *post-hoc* analysis of a bounded list — benches, not servers —
    where exactness beats streaming.  Matches the row shape benches write:
    ``{"n", "p50_ms", "p95_ms", "p99_ms", "mean_ms"}``.
    """
    import numpy as np

    arr = np.asarray(list(values_ms), dtype=np.float64)
    if arr.size == 0:
        return {"n": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None, "mean_ms": None}
    return {
        "n": int(arr.size),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
    }


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


class MetricsRegistry:
    """Named home for a process's metrics, renderable as Prometheus text.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object, so subsystems can share a
    registry without coordinating construction order.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = _sanitize(namespace)
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, **kwargs):
        name = _sanitize(name)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str, fn=None) -> Gauge:
        return self._get_or_create(name, Gauge, fn=fn)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        ns = self.namespace
        for name, metric in metrics:
            full = f"{ns}_{name}"
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {_fmt(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.extend(_render_histogram(full, metric))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _render_histogram(full: str, hist: Histogram) -> "list[str]":
    lines = [f"# TYPE {full} histogram"]
    with hist._lock:
        buckets = sorted(hist._buckets.items())
        zero, count, total = hist._zero, hist._count, hist._sum
    cumulative = zero
    if zero:
        lines.append(f'{full}_bucket{{le="{_fmt(_MIN_TRACKED)}"}} {cumulative}')
    for idx, n in buckets:
        cumulative += n
        upper = _GROWTH ** (idx + 1)
        lines.append(f'{full}_bucket{{le="{_fmt(upper)}"}} {cumulative}')
    lines.append(f'{full}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{full}_sum {_fmt(total)}")
    lines.append(f"{full}_count {count}")
    return lines


def prometheus_from_snapshot(snapshot: dict, prefix: str = "repro") -> str:
    """Flatten a nested ``/metrics`` JSON snapshot into Prometheus gauges.

    Every numeric leaf of the nested dict becomes one gauge named by its
    path (``cache.hit_rate`` -> ``repro_cache_hit_rate``); booleans render
    as 0/1; None and non-numeric leaves are skipped.  This keeps the
    Prometheus view in lockstep with the JSON view without a second
    bookkeeping path.
    """
    lines: list[str] = []
    prefix = _sanitize(prefix)

    def walk(path: str, node) -> None:
        if isinstance(node, dict):
            for key in sorted(node, key=str):
                walk(f"{path}_{_sanitize(str(key))}" if path else _sanitize(str(key)), node[key])
        elif isinstance(node, bool):
            lines.append(f"# TYPE {prefix}_{path} gauge")
            lines.append(f"{prefix}_{path} {1 if node else 0}")
        elif isinstance(node, (int, float)):
            lines.append(f"# TYPE {prefix}_{path} gauge")
            lines.append(f"{prefix}_{path} {_fmt(node)}")
        # strings / None / lists: not representable as a scalar sample.

    walk("", snapshot)
    return "\n".join(lines) + "\n"
