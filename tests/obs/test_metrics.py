"""Metrics registry: typed primitives, histogram accuracy, bounded memory."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    latency_summary,
    prometheus_from_snapshot,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("reqs")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_thread_safety(self):
        c = Counter("reqs")

        def work():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("inflight")
        g.set(3.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 2.0

    def test_callback_wins(self):
        g = Gauge("size", fn=lambda: 42.0)
        g.set(7.0)  # ignored: the callback is authoritative
        assert g.value == 42.0


class TestHistogramAccuracy:
    """Streaming percentiles must stay within the log-bucket error bound.

    Bucket growth is 2**(1/16), so a bucket's geometric midpoint is within
    ~2.2% of any value in it; we assert a 5% relative error ceiling against
    exact np.percentile to leave room for interpolation differences.
    """

    REL_ERR = 0.05

    @pytest.mark.parametrize(
        "name,values",
        [
            ("uniform", np.random.default_rng(0).uniform(0.1, 100, 20_000)),
            ("lognormal", np.random.default_rng(1).lognormal(0.0, 2.0, 20_000)),
            # Adversarial: heavy tail spanning 9 decades.
            ("heavy_tail", np.random.default_rng(2).pareto(0.5, 20_000) + 1e-3),
            # Adversarial: bimodal with a 1000x gap between modes (40/60
            # split so every tested percentile falls *inside* a mode — the
            # gap itself has no well-defined percentile to agree on).
            (
                "bimodal",
                np.concatenate(
                    [
                        np.random.default_rng(3).normal(1.0, 0.05, 8_000),
                        np.random.default_rng(4).normal(1000.0, 10.0, 12_000),
                    ]
                ).clip(min=1e-6),
            ),
            # Adversarial: constant stream (every value one bucket).
            ("constant", np.full(5_000, 3.7)),
        ],
    )
    def test_percentile_error_bounds(self, name, values):
        hist = Histogram(f"lat_{name}")
        for v in values:
            hist.observe(float(v))
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            approx = hist.percentile(q)
            assert approx == pytest.approx(exact, rel=self.REL_ERR), (
                f"{name} p{q}: approx {approx} vs exact {exact}"
            )

    def test_min_max_exact(self):
        hist = Histogram("h")
        values = [0.5, 12.0, 7.3, 0.9]
        for v in values:
            hist.observe(v)
        s = hist.summary()
        assert s["min"] == 0.5 and s["max"] == 12.0
        assert s["count"] == 4
        assert s["mean"] == pytest.approx(np.mean(values))

    def test_zero_and_negative_go_to_underflow_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(-5.0)
        hist.observe(1.0)
        assert hist.count == 3
        assert hist.percentile(1) <= 1e-9

    def test_empty_summary_is_none_filled(self):
        s = Histogram("h").summary()
        assert s["count"] == 0
        assert s["p50"] is None and s["p95"] is None and s["p99"] is None

    def test_percentiles_ms_keeps_the_metrics_shapes(self):
        """The frozen ``/metrics`` latency shape: an empty histogram has no
        ``p99_ms`` key at all; a non-empty one reports all three."""
        hist = Histogram("h")
        assert hist.percentiles_ms() == {
            "count": 0, "p50_ms": None, "p95_ms": None,
        }
        for v in (1.0, 2.0, 40.0):
            hist.observe(v)
        assert hist.percentiles_ms() == {
            "count": 3,
            "p50_ms": hist.percentile(50),
            "p95_ms": hist.percentile(95),
            "p99_ms": hist.percentile(99),
        }


class TestHistogramBoundedMemory:
    def test_one_million_observations_bounded_buckets(self):
        hist = Histogram("big")
        rng = np.random.default_rng(7)
        # 1M observations across 12 decades: bucket count must stay bounded
        # by the value *range*, never the observation count.
        for chunk in range(100):
            values = rng.lognormal(mean=chunk % 10, sigma=3.0, size=10_000)
            for v in values:
                hist.observe(float(v))
        assert hist.count == 1_000_000
        # 16 buckets/octave; 12 decades ~ 40 octaves -> ~640 buckets max.
        assert hist.n_buckets < 1_000


class TestHistogramMerge:
    def _filled(self, name, seed, n=2_000):
        h = Histogram(name)
        for v in np.random.default_rng(seed).lognormal(0, 1.5, n):
            h.observe(float(v))
        return h

    def test_merge_matches_union(self):
        a, b = self._filled("a", 0), self._filled("b", 1)
        merged = a.merge(b)
        assert merged.count == a.count + b.count
        assert merged.sum == pytest.approx(a.sum + b.sum)
        va = np.random.default_rng(0).lognormal(0, 1.5, 2_000)
        vb = np.random.default_rng(1).lognormal(0, 1.5, 2_000)
        exact = float(np.percentile(np.concatenate([va, vb]), 95))
        assert merged.percentile(95) == pytest.approx(exact, rel=0.05)

    def test_merge_associative(self):
        a, b, c = (self._filled(n, s) for n, s in (("a", 0), ("b", 1), ("c", 2)))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count
        assert left.sum == pytest.approx(right.sum)
        for q in (50, 95, 99):
            assert left.percentile(q) == pytest.approx(right.percentile(q))

    def test_merge_leaves_operands_untouched(self):
        a, b = self._filled("a", 0, n=100), self._filled("b", 1, n=50)
        a.merge(b)
        assert a.count == 100 and b.count == 50


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_render_prometheus_text(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("requests_total").inc(3)
        reg.gauge("in_flight").set(2)
        h = reg.histogram("latency_ms")
        for v in (1.0, 2.0, 400.0):
            h.observe(v)
        text = reg.render()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "repro_in_flight 2" in text
        assert 'le="+Inf"' in text
        assert "repro_latency_ms_count 3" in text
        # Cumulative buckets: the +Inf bucket carries the full count.
        inf_line = [
            l for l in text.splitlines() if 'le="+Inf"' in l and "latency_ms" in l
        ][0]
        assert inf_line.endswith(" 3")


class TestSnapshotFlattening:
    def test_numeric_leaves_become_gauges(self):
        snap = {
            "cache": {"hits": 10, "hit_rate": 0.5, "name": "lru"},
            "pool": {"size": 2},
            "flag": True,
            "none": None,
        }
        text = prometheus_from_snapshot(snap, prefix="repro")
        assert "repro_cache_hits 10" in text
        assert "repro_cache_hit_rate 0.5" in text
        assert "repro_pool_size 2" in text
        assert "name" not in text and "none" not in text

    def test_output_is_parseable_lines(self):
        text = prometheus_from_snapshot({"a": {"b": 1}}, prefix="p")
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)


class TestLatencySummary:
    def test_shape_and_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        s = latency_summary(values)
        assert s["n"] == 5
        assert s["p50_ms"] == pytest.approx(np.percentile(values, 50))
        assert s["p99_ms"] == pytest.approx(np.percentile(values, 99))
        assert s["mean_ms"] == pytest.approx(np.mean(values))
        json.dumps(s)

    def test_empty_is_none_filled(self):
        s = latency_summary([])
        assert s["n"] == 0 and s["p50_ms"] is None
