"""Serving-layer latency benchmark: cold / warm / cached request classes.

The serving pitch is operational: the expensive transferability machinery
(policy build, checkpoint load, zero-shot search) is paid once per
checkpoint and once per distinct request, after which repeated requests are
a fingerprint lookup.  This bench measures the three request classes the
``/metrics`` endpoint distinguishes:

* **cold** — first request on a fresh service: partitioner build +
  checkpoint load from the registry + environment baseline + zero-shot
  search;
* **warm** — cache miss on a live service: the partitioner and weights are
  already resident, only the per-graph work remains;
* **cached** — repeat request: fingerprint + LRU lookup, no policy/solver.

It reports p50/p95/p99 latency per class, sustained requests/sec for an
all-hit stream and an all-miss stream, and pins the core guarantees in the
JSON: the cached reply is bit-identical to the cold one and >= 10x faster
(the tier-1 suite pins the same bound in
``tests/serve/test_service.py::test_cached_request_is_10x_faster_and_identical``).

A **coalescing** sweep measures the admission-batching hot path: all-miss
sustained req/s at 1/4/8 concurrent clients with cross-connection
coalescing off vs on (``batch_window_ms``), on a 2-worker service — the
win is the replay pool's fork/broadcast/teardown amortized across batch
members.  A **precision** section compares the int8 inference-only
deployment's cold p50 (checkpoint install + weight quantization) against
float32, with the installed weights' worst-case dequantization error.

Two reliability rows ride along:

* **degraded** — every checkpoint load fails (injected registry fault):
  p50/p95 of the greedy-heuristic fallback path, the latency floor the
  service guarantees under total checkpoint loss;
* **restart** — a service with a persistent cache is killed and rebuilt
  on the same journal: warm-start hit rate and hit latency vs the
  cold-start recompute cost it avoids.

A **router** section drives the replicated tier (2 ``repro serve``
subprocesses behind the consistent-hash router, replication 2) under a
sustained request stream and reports p50/p95/p99 — tail latency is the
whole point of hedging — for three deployments: healthy with hedging,
healthy without hedging, and one shard SIGKILLed mid-stream (failover
cost), plus the failover/hedge counters for each.

Run as a script (``python benchmarks/bench_serve.py``); writes
``BENCH_serve.json`` at the repo root.  ``--tiny`` shrinks repeats for the
CI smoke and redirects output under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bench.harness import blas_thread_counts
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.zoo import build_dataset
from repro.obs import latency_summary
from repro.reliability import Fault, FaultPlan
from repro.serve import (
    CheckpointRegistry,
    PartitionRequest,
    PartitionService,
    ServiceConfig,
)
from repro.serve.registry import default_serving_config

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_serve.json"
REGISTRY_DIR = REPO_ROOT / "benchmarks" / ".cache" / "serve_registry"

N_CHIPS = 4
SAMPLES = 16


def _rl_config() -> RLPartitionerConfig:
    """Exactly the network ``repro serve`` runs: the bench must measure the
    configuration the service actually serves."""
    return default_serving_config()


def _registry() -> CheckpointRegistry:
    """A registry with one published serving checkpoint (built once)."""
    registry = CheckpointRegistry(str(REGISTRY_DIR))
    if not registry.versions("bench"):
        registry.publish_partitioner(
            "bench",
            RLPartitioner(N_CHIPS, config=_rl_config(), rng=0),
            metadata={"purpose": "bench_serve"},
        )
    return registry


def _service() -> PartitionService:
    return PartitionService(
        ServiceConfig(default_samples=SAMPLES, cache_capacity=512, seed=0),
        registry=_registry(),
        partitioner_config=_rl_config(),
    )


def _request(graph) -> PartitionRequest:
    return PartitionRequest(
        graph=graph, n_chips=N_CHIPS, checkpoint="bench", samples=SAMPLES
    )


def _perturbed(graph, k: int):
    """A content-distinct variant of ``graph`` (same size, same difficulty).

    Adds ``k`` nanoseconds (``k * 1e-3`` µs) to one node's compute cost:
    enough to change the content fingerprint (exact float64 bytes are
    hashed), far too small to change what the search or cost model does.
    """
    from repro.graphs.graph import CompGraph

    compute = graph.compute_us.copy()
    compute[0] += k * 1e-3
    return CompGraph(
        names=graph.names,
        op_types=graph.op_types,
        compute_us=compute,
        output_bytes=graph.output_bytes,
        param_bytes=graph.param_bytes,
        src=graph.src,
        dst=graph.dst,
        name=f"{graph.name}~{k}",
    )


def bench_request_classes(graphs, n_repeats: int) -> dict:
    """Per-class latency percentiles + the cached-vs-cold guarantees.

    Cold latencies come from *fresh services* (one per repeat, first
    request each); warm from cache misses on a live service; cached from
    repeat requests.  The identity check compares the cold and cached
    assignments of the same request on every service.
    """
    cold_ms, warm_ms, cached_ms = [], [], []
    bit_identical = True
    for repeat in range(n_repeats):
        service = _service()
        # Rotate which graph lands in the cold slot so every class samples
        # the same workload mix (graphs differ in search cost).
        rotated = graphs[repeat % len(graphs):] + graphs[: repeat % len(graphs)]
        for i, graph in enumerate(rotated):
            response = service.submit(_request(graph))
            (cold_ms if i == 0 else warm_ms).append(response.latency_ms)
            assert response.source == ("cold" if i == 0 else "warm")
            hit = service.submit(_request(graph))
            assert hit.cached
            cached_ms.append(hit.latency_ms)
            bit_identical &= bool(
                np.array_equal(hit.assignment, response.assignment)
            )
    cold = latency_summary(cold_ms)
    cached = latency_summary(cached_ms)
    return {
        "cold": cold,
        "warm": latency_summary(warm_ms),
        "cached": cached,
        "cached_bit_identical_to_cold": bit_identical,
        "speedup_cached_vs_cold_p50": round(cold["p50_ms"] / cached["p50_ms"], 1),
    }


def bench_sustained(graphs, n_requests: int) -> dict:
    """Requests/sec for an all-hit stream and an all-miss stream.

    The hit stream cycles over pre-warmed entries (the steady serving
    state); the miss stream feeds distinct graph variants so every request
    pays a zero-shot search (the worst case, bounded by search throughput).
    """
    service = _service()
    for graph in graphs:
        service.submit(_request(graph))

    start = time.perf_counter()
    for k in range(n_requests):
        response = service.submit(_request(graphs[k % len(graphs)]))
        assert response.cached
    hit_elapsed = time.perf_counter() - start

    # Distinct fingerprints per request via distinct graph *content* (an
    # epsilon on one node's compute cost changes the content hash without
    # changing search difficulty), so every miss runs a real search at the
    # same SAMPLES budget the JSON reports.
    service_miss = _service()
    miss_budget = max(n_requests // 4, 2)
    start = time.perf_counter()
    for k in range(miss_budget):
        response = service_miss.submit(
            _request(_perturbed(graphs[0], k + 1))
        )
        assert not response.cached
    miss_elapsed = time.perf_counter() - start
    return {
        "hit_stream": {
            "n": n_requests,
            "requests_per_sec": n_requests / max(hit_elapsed, 1e-9),
        },
        "miss_stream": {
            "n": miss_budget,
            "requests_per_sec": miss_budget / max(miss_elapsed, 1e-9),
        },
    }


def bench_coalescing(graphs, per_client: int) -> dict:
    """All-miss sustained req/s under concurrent clients, coalescing on/off.

    Each client thread drives its own stream of content-distinct graph
    variants (every request a zero-shot search), released together by a
    barrier.  The coalescing deployment sets ``batch_max_size`` to the
    client count so a synchronized round flushes immediately; the window
    only bounds straggler waiting.  Services run ``n_workers=2``: the win
    comes from amortizing the replay pool's fork/broadcast/teardown over
    batch members, so it needs a forked pool to exist at all.
    """
    import threading

    def run_cell(concurrency: int, coalesce: bool) -> dict:
        service = PartitionService(
            ServiceConfig(
                default_samples=SAMPLES,
                cache_capacity=512,
                seed=0,
                n_workers=2,
                batch_window_ms=20.0 if coalesce else 0.0,
                batch_max_size=max(concurrency, 2),
            ),
            registry=_registry(),
            partitioner_config=_rl_config(),
        )
        # One throwaway cold request warms the pool (partitioner build +
        # checkpoint load), so the timed region measures steady all-miss
        # throughput, not one-time setup.
        service.submit(_request(_perturbed(graphs[0], 10_000)))
        barrier = threading.Barrier(concurrency)
        errors = []

        def client(cid: int):
            barrier.wait()
            for j in range(per_client):
                k = cid * per_client + j + 1
                response = service.submit(_request(_perturbed(graphs[0], k)))
                if response.cached:  # all-miss by construction
                    errors.append(f"unexpected hit for variant {k}")

        threads = [
            threading.Thread(target=client, args=(cid,))
            for cid in range(concurrency)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors
        batching = service.metrics()["batching"]
        n = concurrency * per_client
        return {
            "n_requests": n,
            "requests_per_sec": n / max(elapsed, 1e-9),
            "coalesced_requests": batching["coalesced_requests"],
            "batches_flushed": batching["batches_flushed"],
        }

    rows = []
    for concurrency in (1, 4, 8):
        off = run_cell(concurrency, coalesce=False)
        on = run_cell(concurrency, coalesce=True)
        rows.append(
            {
                "concurrency": concurrency,
                "coalescing_off": off,
                "coalescing_on": on,
                "speedup": round(
                    on["requests_per_sec"] / max(off["requests_per_sec"], 1e-9),
                    3,
                ),
            }
        )
    return {
        "n_workers": 2,
        "batch_window_ms": 20.0,
        "per_client_requests": per_client,
        "sweep": rows,
    }


def bench_precision_cold(graphs, n_repeats: int) -> dict:
    """Cold/miss latency of the int8 inference deployment vs float32.

    One fresh service per repeat and precision; the first request is the
    cold row (build + checkpoint install — for int8 that includes weight
    quantization), the rest are warm misses.  The int8 row also reports
    the worst-case dequantization error of the installed weights, the
    number /metrics exports as ``int8_quantization``.
    """
    rows = {}
    for precision in ("float32", "int8"):
        cold_ms, miss_ms = [], []
        quant_err = None
        for repeat in range(n_repeats):
            service = PartitionService(
                ServiceConfig(
                    default_samples=SAMPLES,
                    cache_capacity=512,
                    seed=0,
                    precision=precision,
                ),
                registry=_registry(),
                # An explicit partitioner_config's own precision wins, so
                # build it at the deployment's precision.
                partitioner_config=default_serving_config(precision=precision),
            )
            rotated = (
                graphs[repeat % len(graphs):] + graphs[: repeat % len(graphs)]
            )
            for i, graph in enumerate(rotated):
                response = service.submit(_request(graph))
                assert not response.cached
                (cold_ms if i == 0 else miss_ms).append(response.latency_ms)
            if precision == "int8":
                quant = service.metrics()["int8_quantization"]
                quant_err = max(s["max_abs_err"] for s in quant.values())
        rows[precision] = {
            "cold": latency_summary(cold_ms),
            "miss": latency_summary(miss_ms),
        }
        if quant_err is not None:
            rows[precision]["max_abs_quantization_error"] = quant_err
    rows["int8_vs_float32_cold_p50"] = round(
        rows["int8"]["cold"]["p50_ms"] / rows["float32"]["cold"]["p50_ms"], 3
    )
    return rows


def bench_degraded(graphs, n_repeats: int) -> dict:
    """Latency of the graceful-degradation path under total checkpoint loss.

    An always-firing injected registry fault makes every weights load
    fail, so every request is served by the greedy-heuristic fallback
    (``source="degraded"``, never cached — each repeat pays the full
    path).  This is the availability floor: what a client sees while the
    checkpoint store is down.
    """
    plan = FaultPlan(
        [Fault(site="registry", kind="io_error", at=("load",), times=-1)]
    )
    service = PartitionService(
        ServiceConfig(
            default_samples=SAMPLES,
            cache_capacity=512,
            seed=0,
            fault_plan=plan,
        ),
        registry=CheckpointRegistry(str(REGISTRY_DIR), fault_plan=plan),
        partitioner_config=_rl_config(),
    )
    degraded_ms = []
    for _ in range(n_repeats):
        for graph in graphs:
            response = service.submit(_request(graph))
            assert response.degraded and response.source == "degraded"
            degraded_ms.append(response.latency_ms)
    metrics = service.metrics()
    return {
        "degraded": latency_summary(degraded_ms),
        "degraded_serves": metrics["reliability"]["degraded_serves"],
        "faults_fired": metrics["reliability"]["faults_fired"],
    }


def bench_restart_recovery(graphs) -> dict:
    """Kill a persistent-cache service, rebuild on the journal, re-request.

    Reports the cold-start cost (first boot: every request a miss), the
    restarted service's hit rate over the same workload (1.0 = the journal
    replayed everything), and the warm hit latency that replaces those
    recomputes.
    """
    cache_dir = REPO_ROOT / "benchmarks" / ".cache" / "serve_restart"
    shutil.rmtree(cache_dir, ignore_errors=True)

    def _persistent_service() -> PartitionService:
        return PartitionService(
            ServiceConfig(
                default_samples=SAMPLES,
                cache_capacity=512,
                seed=0,
                cache_dir=str(cache_dir),
            ),
            registry=_registry(),
            partitioner_config=_rl_config(),
        )

    first_boot_ms = []
    service = _persistent_service()
    for graph in graphs:
        response = service.submit(_request(graph))
        assert not response.cached
        first_boot_ms.append(response.latency_ms)
    service.close()  # the clean half; the journal also survives kill -9

    restarted = _persistent_service()
    warm_hit_ms, hits = [], 0
    for graph in graphs:
        response = restarted.submit(_request(graph))
        hits += int(response.cached)
        warm_hit_ms.append(response.latency_ms)
    stats = restarted.metrics()["cache"]
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold_start": latency_summary(first_boot_ms),
        "restarted_hit_rate": hits / len(graphs),
        "restarted_hit": latency_summary(warm_hit_ms),
        "warm_entries_recovered": stats["warm_entries"],
        "corrupt_skipped": stats["corrupt_skipped"],
    }


def bench_router(graphs, n_requests: int) -> dict:
    """Sustained load on the replicated tier: 2 shard processes, R=2.

    Three deployments over the same request stream (cycling the graph set,
    so the steady state is cache hits — the regime where routing overhead
    and tail behaviour are visible):

    * ``healthy`` — both shards up, hedging on;
    * ``hedging_off`` — both shards up, no hedge (the control for what
      hedging buys/costs at the tail);
    * ``one_shard_killed`` — the stream's first primary is SIGKILLed
      before the stream starts: every request that hashes to it pays
      failover until the breaker opens, then skips it outright.

    Every reply must be non-degraded 200 — one replica is always enough.
    """
    from repro.graphs.serialization import graph_to_dict
    from repro.serve import RouterConfig, ShardRouter

    cycle = [
        {"graph": graph_to_dict(g), "chips": N_CHIPS, "samples": SAMPLES}
        for g in graphs
    ]
    payloads = [cycle[k % len(cycle)] for k in range(n_requests)]
    deployments = (
        ("healthy", True, False),
        ("hedging_off", False, False),
        ("one_shard_killed", True, True),
    )
    rows = {}
    for name, hedge, kill in deployments:
        router = ShardRouter.spawn(
            2,
            config=RouterConfig(
                replication=2,
                probe_interval_s=1.0,
                failure_threshold=2,
                breaker_reset_s=1.0,
                hedge=hedge,
            ),
            seed=0,
        )
        try:
            for payload in cycle:  # warm the primaries' caches
                status, _ = router.handle_partition(payload)
                assert status == 200
            if kill:
                victim = router.ring.replicas(
                    router.routing_key(payloads[0]), 1
                )[0]
                router._shards[victim].endpoint.kill()
            latencies_ms = []
            for payload in payloads:
                start = time.perf_counter()
                status, reply = router.handle_partition(payload)
                latencies_ms.append((time.perf_counter() - start) * 1e3)
                assert status == 200 and not reply.get("degraded")
            router.probe_all()
            metrics = router.metrics()
            rows[name] = {
                **latency_summary(latencies_ms),
                "requests_per_sec": len(payloads)
                / max(sum(latencies_ms) / 1e3, 1e-9),
                "failovers": metrics["failovers"],
                "hedges_fired": metrics["hedges_fired"],
                "hedge_wins": metrics["hedge_wins"],
                "degraded_serves": metrics["degraded_serves"],
                "shard_blas_threads": {
                    sid: shard["health"]["shard"].get("blas_threads")
                    for sid, shard in metrics["shards"].items()
                },
            }
        finally:
            router.close()
    return {"n_shards": 2, "replication": 2, "deployments": rows}


def bench_tracing_overhead(graphs, n_requests: int) -> dict:
    """End-to-end cost of request tracing on the cached-hit HTTP path.

    Two identical in-process servers driven over real HTTP with the same
    all-hit stream — one with tracing off, one writing every trace
    (``trace_sample=1.0``, the worst case).  The cached hit is the
    shortest request the service serves, so it is where per-request span
    bookkeeping would show up first; the row records the p50/mean overhead
    against the < 2% zero-perturbation target from the observability
    invariants (ROADMAP.md).
    """
    import tempfile

    from repro.graphs.serialization import graph_to_dict
    from repro.serve import PartitionServer, request_partition

    payload = {
        "graph": graph_to_dict(graphs[0]),
        "chips": N_CHIPS,
        "samples": SAMPLES,
    }

    def run_cell(trace_dir: "str | None") -> "list[float]":
        service = PartitionService(
            ServiceConfig(
                default_samples=SAMPLES,
                cache_capacity=512,
                seed=0,
                trace_dir=trace_dir,
            ),
            registry=_registry(),
            partitioner_config=_rl_config(),
        )
        server = PartitionServer(service, host="127.0.0.1", port=0).start()
        try:
            request_partition(payload, port=server.port)  # cold: warm the cache
            for _ in range(20):  # connection/interpreter warm-up, untimed
                request_partition(payload, port=server.port)
            latencies_ms = []
            for _ in range(n_requests):
                start = time.perf_counter()
                reply = request_partition(payload, port=server.port)
                latencies_ms.append((time.perf_counter() - start) * 1e3)
                assert reply["cached"]
            return latencies_ms
        finally:
            server.shutdown()
            service.close()

    # Interleaved off/on rounds so machine drift (GC, turbo, neighbours)
    # hits both arms equally instead of masquerading as tracing cost.
    rounds = 2
    off_ms: "list[float]" = []
    on_ms: "list[float]" = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            off_ms.extend(run_cell(None))
            on_ms.extend(run_cell(tmp))
    off = latency_summary(off_ms)
    on = latency_summary(on_ms)
    return {
        "n_requests": n_requests * rounds,
        "trace_sample": 1.0,
        "tracing_off": off,
        "tracing_on": on,
        "overhead_pct_p50": round(
            (on["p50_ms"] / max(off["p50_ms"], 1e-9) - 1.0) * 100, 2
        ),
        "overhead_pct_mean": round(
            (on["mean_ms"] / max(off["mean_ms"], 1e-9) - 1.0) * 100, 2
        ),
        "target_pct": 2.0,
    }


def main(argv=None) -> dict:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    n_graphs = 3 if tiny else 6
    n_repeats = 2 if tiny else 5
    n_requests = 50 if tiny else 400

    dataset = build_dataset(seed=0)
    graphs = list(dataset.test[:n_graphs])

    results = {
        "bench": "serve",
        "tiny": tiny,
        "cpu_count": os.cpu_count(),
        # The coalescing rows run n_workers=2 services.
        "blas_threads": blas_thread_counts((2,)),
        "n_chips": N_CHIPS,
        "samples_per_miss": SAMPLES,
        "checkpoint": "bench@1",
        "graphs": [g.name for g in graphs],
        "n_repeats": n_repeats,
        "latency": bench_request_classes(graphs, n_repeats),
        "sustained": bench_sustained(graphs, n_requests),
        "coalescing": bench_coalescing(graphs, 2 if tiny else 4),
        "precision": bench_precision_cold(graphs, n_repeats),
        "reliability": {
            **bench_degraded(graphs, n_repeats),
            "restart": bench_restart_recovery(graphs),
        },
        "router": bench_router(graphs, max(n_requests // 4, 12)),
        "tracing": bench_tracing_overhead(graphs, max(n_requests, 100)),
    }

    out_path = (
        RESULT_PATH
        if not tiny
        else REPO_ROOT / "benchmarks" / "results" / "BENCH_serve_tiny.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    latency = results["latency"]
    for cls in ("cold", "warm", "cached"):
        row = latency[cls]
        print(
            f"{cls:>7}: p50 {row['p50_ms']:8.3f} ms   p95 {row['p95_ms']:8.3f} ms"
            f"   (n={row['n']})"
        )
    print(
        f"cached vs cold p50 speedup: {latency['speedup_cached_vs_cold_p50']}x"
        f"  | bit-identical: {latency['cached_bit_identical_to_cold']}"
    )
    sustained = results["sustained"]
    print(
        f"sustained: {sustained['hit_stream']['requests_per_sec']:9.1f} req/s"
        f" all-hit | {sustained['miss_stream']['requests_per_sec']:6.2f} req/s"
        f" all-miss"
    )
    for row in results["coalescing"]["sweep"]:
        on, off = row["coalescing_on"], row["coalescing_off"]
        print(
            f"coalescing @ {row['concurrency']} clients: "
            f"{off['requests_per_sec']:6.2f} req/s off | "
            f"{on['requests_per_sec']:6.2f} req/s on "
            f"({row['speedup']}x, {on['coalesced_requests']} coalesced)"
        )
    precision = results["precision"]
    print(
        f"precision: cold p50 float32 "
        f"{precision['float32']['cold']['p50_ms']:.1f} ms | int8 "
        f"{precision['int8']['cold']['p50_ms']:.1f} ms "
        f"(quant err {precision['int8']['max_abs_quantization_error']:.4f})"
    )
    reliability = results["reliability"]
    row = reliability["degraded"]
    print(
        f"degraded: p50 {row['p50_ms']:8.3f} ms   p95 {row['p95_ms']:8.3f} ms"
        f"   (n={row['n']}, checkpoint store down)"
    )
    restart = reliability["restart"]
    print(
        f"restart: hit rate {restart['restarted_hit_rate']:.2f} "
        f"({restart['warm_entries_recovered']} entries recovered), "
        f"hit p50 {restart['restarted_hit']['p50_ms']:.3f} ms vs "
        f"cold-start p50 {restart['cold_start']['p50_ms']:.3f} ms"
    )
    tracing = results["tracing"]
    print(
        f"tracing: cached-hit p50 {tracing['tracing_off']['p50_ms']:.3f} ms off"
        f" | {tracing['tracing_on']['p50_ms']:.3f} ms on "
        f"({tracing['overhead_pct_p50']:+.1f}% p50, "
        f"{tracing['overhead_pct_mean']:+.1f}% mean; "
        f"target < {tracing['target_pct']:.0f}%)"
    )
    for name, row in results["router"]["deployments"].items():
        print(
            f"router/{name:>16}: p50 {row['p50_ms']:8.3f} ms  "
            f"p95 {row['p95_ms']:8.3f} ms  p99 {row['p99_ms']:8.3f} ms  "
            f"(failovers {row['failovers']}, hedges {row['hedges_fired']})"
        )
    return results


if __name__ == "__main__":
    main()
