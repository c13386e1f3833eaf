"""Admission batching + per-source rate limits (ROADMAP "Admission
batching invariants").

Contracts:

* **Coalescing is a pure throughput win.** Concurrent cache misses that
  land inside ``batch_window_ms`` of each other flush as one replay
  batch, and every member's partition is bit-identical to the answer a
  sequential submission would have produced — results are seeded by
  fingerprint, never by batch composition.
* **Failure isolation survives coalescing.** One doomed member raises in
  *its* caller only; coalesced siblings still get their partitions.
* **Rate limiting is per-source backpressure, not failure.** An
  over-limit source gets ``ServiceOverloadError`` with a concrete
  ``retry_after`` (HTTP 429 + ``Retry-After``), counted under
  ``rate_limited`` — never ``throttled`` (the in-flight gate) and never
  ``errors``.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.graphs.zoo import build_cnn, build_mlp
from repro.reliability import Fault, FaultPlan
from repro.serve import (
    CheckpointRegistry,
    PartitionRequest,
    PartitionServer,
    ServiceError,
    ServiceOverloadError,
)
from tests.conftest import random_dag
from tests.serve.conftest import tiny_rl_config, tiny_service


def _concurrent_submit(service, requests, sources=None):
    """Submit all requests from separate threads as one concurrent burst.

    The threads are released by one barrier, and the service's coalescing
    lock is held until all of them are admitted, so the window's leader
    sees the others in flight however the OS schedules the threads (a
    leader that finds itself the only admitted submission flushes at
    once).  Returns a list of responses or captured exceptions, in
    request order.
    """
    barrier = threading.Barrier(len(requests))
    results = [None] * len(requests)

    def run(i):
        barrier.wait()
        try:
            source = sources[i] if sources else None
            results[i] = service.submit(requests[i], source=source)
        except BaseException as exc:  # noqa: BLE001 - test captures all
            results[i] = exc

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(requests))
    ]
    with service._coalesce_lock:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30.0
        while service.in_flight < len(requests) and time.monotonic() < deadline:
            time.sleep(0.001)
    for t in threads:
        t.join()
    return results


class TestCoalescing:
    def test_cross_connection_misses_bit_identical_to_sequential(self):
        """Four concurrent cold misses coalesce into one flush, and each
        caller's partition matches a sequential run exactly."""
        graphs = [random_dag(seed, 14 + seed) for seed in range(4)]
        requests = [PartitionRequest(graph=g, n_chips=4) for g in graphs]

        sequential = [
            tiny_service().submit(PartitionRequest(graph=g, n_chips=4))
            for g in graphs
        ]
        service = tiny_service(batch_window_ms=500.0, batch_max_size=4)
        coalesced = _concurrent_submit(service, requests)

        for got, want in zip(coalesced, sequential):
            assert not isinstance(got, BaseException)
            np.testing.assert_array_equal(got.assignment, want.assignment)
            assert got.fingerprint == want.fingerprint
            assert got.improvement == want.improvement

        batching = service.metrics()["batching"]
        assert batching["batches_flushed"] == 1
        assert batching["coalesced_requests"] == 4
        assert batching["batch_size_histogram"] == {"4": 1}

    def test_full_batch_flushes_before_window_expires(self):
        """Hitting ``batch_max_size`` flushes immediately — the window is
        an upper bound on waiting, not a fixed delay."""
        service = tiny_service(batch_window_ms=30_000.0, batch_max_size=2)
        requests = [
            PartitionRequest(graph=random_dag(s, 12), n_chips=4)
            for s in (10, 11)
        ]
        t0 = time.monotonic()
        results = _concurrent_submit(service, requests)
        elapsed = time.monotonic() - t0
        assert all(not isinstance(r, BaseException) for r in results)
        assert elapsed < 25.0  # nowhere near the 30 s window
        assert service.metrics()["batching"]["batch_size_histogram"] == {"2": 1}

    def test_lone_request_flushes_after_window(self):
        """A solo miss flushes as a batch of one, which is not 'coalesced'
        (the counter measures saved admissions only)."""
        service = tiny_service(batch_window_ms=10.0)
        response = service.submit(
            PartitionRequest(graph=build_mlp(), n_chips=4)
        )
        assert response.source == "cold"
        batching = service.metrics()["batching"]
        assert batching["batches_flushed"] == 1
        assert batching["coalesced_requests"] == 0
        assert batching["batch_size_histogram"] == {"1": 1}

    def test_lone_leader_does_not_wait_out_the_window(self):
        """A leader that is the only admitted submission flushes at once:
        with nobody to join, a 30 s window would be pure latency."""
        service = tiny_service(batch_window_ms=30_000.0)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(
                service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "lone leader waited out the window"
        assert done[0].source == "cold"
        assert service.metrics()["batching"]["batch_size_histogram"] == {"1": 1}

    def test_closed_loop_clients_under_thread_churn(self):
        """Stress: more closed-loop clients than cores and a 10 us switch
        interval; every submission still gets its own partition (no lost
        wake-up strands a leader, no member reads another's slot)."""
        graphs = [random_dag(40 + s, 10) for s in range(12)]
        want = [
            tiny_service().submit(PartitionRequest(graph=g, n_chips=4))
            for g in graphs
        ]
        service = tiny_service(batch_window_ms=50.0, batch_max_size=3)
        got = [None] * len(graphs)

        def client(c):
            for i in range(c, len(graphs), 4):
                got[i] = service.submit(
                    PartitionRequest(graph=graphs[i], n_chips=4)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(c,), daemon=True)
                for c in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert g.fingerprint == w.fingerprint
            np.testing.assert_array_equal(g.assignment, w.assignment)

    def test_window_zero_never_batches(self):
        service = tiny_service()  # batch_window_ms defaults to 0.0
        service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
        batching = service.metrics()["batching"]
        assert batching["window_ms"] == 0.0
        assert batching["batches_flushed"] == 0

    def test_coalesced_duplicates_share_one_search(self):
        """Identical requests arriving on different connections dedupe
        exactly like an explicit ``submit_many`` batch: one cold search,
        the twin served from the fresh entry."""
        graph = build_mlp()
        service = tiny_service(batch_window_ms=500.0, batch_max_size=2)
        results = _concurrent_submit(
            service,
            [PartitionRequest(graph=graph, n_chips=4) for _ in range(2)],
        )
        assert all(not isinstance(r, BaseException) for r in results)
        sources = sorted(r.source for r in results)
        assert sources == ["cached", "cold"]
        a, b = results
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert service.metrics()["cache"]["misses"] == 1

    def test_cached_hits_still_coalesce_safely(self):
        """Warm traffic through the coalesced path returns cache hits —
        batching never changes what a request observes."""
        graph = build_mlp()
        service = tiny_service(batch_window_ms=20.0, batch_max_size=4)
        cold = service.submit(PartitionRequest(graph=graph, n_chips=4))
        hit = service.submit(PartitionRequest(graph=graph, n_chips=4))
        assert hit.cached
        np.testing.assert_array_equal(hit.assignment, cold.assignment)

    def test_wait_percentiles_recorded(self):
        service = tiny_service(batch_window_ms=500.0, batch_max_size=2)
        _concurrent_submit(
            service,
            [
                PartitionRequest(graph=random_dag(s, 12), n_chips=4)
                for s in (20, 21)
            ],
        )
        waits = service.metrics()["batching"]["batch_wait_ms"]
        assert waits["count"] == 2
        assert 0.0 <= waits["p50_ms"] <= waits["p95_ms"]


class TestMemberIsolation:
    def _registry(self, tmp_path, fault_plan=None):
        path = str(tmp_path / "reg")
        clean = CheckpointRegistry(path)
        seed = tiny_service(registry=clean)
        partitioner, _ = seed.pool.get(4)
        clean.publish_partitioner("pol", partitioner)
        return CheckpointRegistry(path, fault_plan=fault_plan)

    def test_failed_member_raises_only_in_its_caller(self, tmp_path):
        """A member the warm pool rejects (4-chip checkpoint asked for 8
        chips) fails its own caller; coalesced siblings are served."""
        registry = self._registry(tmp_path)
        service = tiny_service(
            registry=registry, batch_window_ms=500.0, batch_max_size=3
        )
        good_a = PartitionRequest(graph=build_mlp(), n_chips=4)
        good_b = PartitionRequest(graph=build_cnn(), n_chips=4)
        bad = PartitionRequest(
            graph=random_dag(3, 12), n_chips=8, checkpoint="pol"
        )
        results = _concurrent_submit(service, [good_a, bad, good_b])
        assert isinstance(results[1], ServiceError)
        assert "trained for" in str(results[1])
        for r in (results[0], results[2]):
            assert not isinstance(r, BaseException)
            assert r.source == "cold"
        metrics = service.metrics()
        assert metrics["errors"] == 1
        assert metrics["batching"]["coalesced_requests"] == 3

    def test_degraded_member_is_served_not_raised(self, tmp_path):
        """A registry I/O fault degrades only the member that needed the
        checkpoint; its coalesced sibling serves at full quality."""
        plan = FaultPlan(
            [Fault(site="registry", kind="io_error", at=("load",), times=-1)]
        )
        registry = self._registry(tmp_path, fault_plan=plan)
        service = tiny_service(
            registry=registry,
            fault_plan=plan,
            batch_window_ms=500.0,
            batch_max_size=2,
        )
        needs_ckpt = PartitionRequest(
            graph=random_dag(4, 12), n_chips=4, checkpoint="pol"
        )
        plain = PartitionRequest(graph=build_mlp(), n_chips=4)
        results = _concurrent_submit(service, [needs_ckpt, plain])
        assert not isinstance(results[0], BaseException)
        assert results[0].degraded and results[0].source == "degraded"
        assert not isinstance(results[1], BaseException)
        assert not results[1].degraded and results[1].source == "cold"
        metrics = service.metrics()
        assert metrics["by_source"]["degraded"] == 1
        assert metrics["reliability"]["degraded_serves"] == 1


class TestRateLimiting:
    def test_over_limit_is_429_semantics_not_error(self):
        service = tiny_service(rate_limit_rps=0.1, rate_limit_burst=1)
        graph = build_mlp()
        first = service.submit(
            PartitionRequest(graph=graph, n_chips=4), source="client-a"
        )
        assert first.source == "cold"
        with pytest.raises(ServiceOverloadError, match="rate limit") as exc:
            service.submit(
                PartitionRequest(graph=build_cnn(), n_chips=4),
                source="client-a",
            )
        assert exc.value.retry_after > 0.0
        metrics = service.metrics()
        assert metrics["reliability"]["rate_limited"] == 1
        assert metrics["throttled"] == 0  # separate from the in-flight gate
        assert metrics["errors"] == 0  # backpressure, not failure

    def test_sources_are_independent(self):
        service = tiny_service(rate_limit_rps=0.1, rate_limit_burst=1)
        service.submit(
            PartitionRequest(graph=build_mlp(), n_chips=4), source="a"
        )
        with pytest.raises(ServiceOverloadError):
            service.submit(
                PartitionRequest(graph=build_cnn(), n_chips=4), source="a"
            )
        # b has its own bucket: admitted immediately.
        response = service.submit(
            PartitionRequest(graph=build_cnn(), n_chips=4), source="b"
        )
        assert not response.cached

    def test_anonymous_sources_share_one_bucket(self):
        service = tiny_service(rate_limit_rps=0.1, rate_limit_burst=1)
        service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
        with pytest.raises(ServiceOverloadError):
            service.submit(PartitionRequest(graph=build_cnn(), n_chips=4))

    def test_disabled_by_default(self):
        service = tiny_service()
        for seed in range(3):
            service.submit(
                PartitionRequest(graph=random_dag(seed, 12), n_chips=4),
                source="same",
            )
        assert service.metrics()["reliability"]["rate_limited"] == 0

    def test_http_429_with_retry_after_header(self):
        """Over the wire: second request from the same ``X-Repro-Source``
        gets 429 + Retry-After (raw urllib — the client helper would
        transparently back off and retry)."""
        from repro.graphs.serialization import graph_to_dict

        service = tiny_service(rate_limit_rps=0.05, rate_limit_burst=1)
        with PartitionServer(service, port=0).start() as srv:
            url = f"http://127.0.0.1:{srv.port}/partition"

            def post():
                body = json.dumps(
                    {"graph": graph_to_dict(build_mlp()), "chips": 4}
                ).encode()
                req = urllib.request.Request(
                    url,
                    data=body,
                    headers={
                        "Content-Type": "application/json",
                        "X-Repro-Source": "tenant-1",
                    },
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return json.loads(resp.read())

            assert post()["source"] == "cold"
            with pytest.raises(urllib.error.HTTPError) as err:
                post()
            assert err.value.code == 429
            assert float(err.value.headers["Retry-After"]) > 0.0
            payload = json.loads(err.value.read())
            assert payload["retry_after_s"] > 0.0
            assert "rate limit" in payload["error"]


class TestConfigSurface:
    def test_metrics_echo_batching_config(self):
        service = tiny_service(batch_window_ms=5.0, batch_max_size=3)
        batching = service.metrics()["batching"]
        assert batching["window_ms"] == 5.0
        assert batching["max_size"] == 3

    def test_invalid_config_rejected(self):
        from repro.serve import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(batch_window_ms=1.0, batch_max_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(rate_limit_rps=-0.5)
        with pytest.raises(ValueError):
            ServiceConfig(rate_limit_burst=-1)

    def test_router_forwards_batching_flags(self):
        """spawn_shard only appends the flags when a window is set, so
        seed-era shard commands stay byte-identical."""
        from unittest import mock

        from repro.serve import router as router_mod

        def spawn_argv(**kwargs):
            with mock.patch.object(
                router_mod.subprocess, "Popen"
            ) as popen, mock.patch.object(
                router_mod,
                "_read_line",
                return_value="serving on 127.0.0.1:8100",
            ):
                popen.return_value = mock.Mock(pid=1234)
                router_mod.spawn_shard("s0", **kwargs)
                return popen.call_args[0][0]

        argv = spawn_argv(batch_window_ms=5.0, batch_max_size=4)
        assert argv[argv.index("--batch-window-ms") + 1] == "5.0"
        assert argv[argv.index("--batch-max-size") + 1] == "4"
        assert "--batch-window-ms" not in spawn_argv()
