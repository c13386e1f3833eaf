#!/usr/bin/env bash
# CI gate: tier-1 test suite + a tiny-scale throughput-bench smoke run.
#
# The bench smoke run both exercises the search/pretrain/zero-shot loops
# end-to-end (catching integration breaks the unit suite can miss) and
# refreshes BENCH_search_throughput.json so samples/sec regressions are
# visible in the diff.  The smoke includes a 2-worker pool sweep under a
# hard timeout: a deadlocked worker pool must fail the gate fast, not hang
# the suite (the pool also has its own recv timeout; the outer `timeout`
# is the belt-and-braces kill switch).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== float64 contract under a pinned BLAS thread count =="
# A forked pool runs its parent at a share of the cores while the inline
# fallback keeps the process count (repro.utils.threads), so the float64
# serial goldens and the pool's determinism must not depend on the count.
# If this ever fails, the count becomes part of the frozen float64
# contract and is documented; the tests are not loosened.
timeout --kill-after=30 300 env OPENBLAS_NUM_THREADS=1 \
    python -m pytest -q tests/core/test_serial_goldens.py tests/parallel/

echo "== benchmark checker (Eq. 2-4 against validate_partition) =="
# perfbench judges every partition a benchmark run returns with its own
# Eq. 2-4 checker; its tests pin that checker to the library validator,
# so a drift between the two fails here rather than in a benchmark run.
timeout --kill-after=15 120 python -m pytest -q perfbench/test_checks.py

echo "== throughput bench (tiny smoke, 2-worker pool) =="
timeout --kill-after=30 300 \
    python benchmarks/bench_search_throughput.py --tiny --workers 2

echo "== float32 backend smoke (fused kernels vs float64 reference) =="
# A tiny search at both precisions from the same seed: the float32 fused
# path (wide SAGE GEMM, tiled policy head, flat Adam) must produce the
# same best partition as the frozen float64 reference and stay inside the
# backend's drift tolerance — the precision seam's end-to-end invariant,
# under a hard timeout so a wedged fused kernel fails the gate fast.
timeout --kill-after=15 120 env PYTHONPATH=src python - <<'PY'
import numpy as np
from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.zoo import build_mlp
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.rl.ppo import PPOConfig

def run(precision):
    cfg = RLPartitionerConfig(
        hidden=32, n_sage_layers=2,
        ppo=PPOConfig(n_rollouts=10, n_minibatches=2, n_epochs=3),
        precision=precision,
    )
    p = RLPartitioner(4, config=cfg, rng=7)
    env = PartitionEnvironment(
        build_mlp(), AnalyticalCostModel(MCMPackage(n_chips=4)), 4
    )
    return p, p.search(env, 30)

p64, r64 = run("float64")
p32, r32 = run("float32")
assert r32.best_assignment is not None
np.testing.assert_array_equal(r64.best_assignment, r32.best_assignment)
s64, s32 = p64.state_dict(), p32.state_dict()
assert all(v.dtype == np.float32 for v in s32.values())
drift = max(
    float(np.max(np.abs(s64[k].astype(np.float64) - s32[k].astype(np.float64))))
    for k in s64
)
assert drift < 1e-4, f"float32 weight drift {drift} exceeds bound"
print(f"float32 smoke OK: same best partition, weight drift {drift:.2e}")
PY

echo "== cross-topology smoke (mesh 2x2 + biring) =="
# A partition search on each non-ring interconnect: catches topology
# plumbing breaks (solver general mode, reachability cost models, CLI)
# end-to-end, under a hard timeout so a wedged solver fails fast.
timeout --kill-after=15 120 env PYTHONPATH=src python -m repro partition mlp \
    --topology mesh --mesh-dims 2x2 --method random --samples 4 --seed 0 \
    > /dev/null
timeout --kill-after=15 120 env PYTHONPATH=src python -m repro partition mlp \
    --topology biring --chips 3 --method random --samples 4 --seed 0 \
    > /dev/null

echo "== serve smoke (HTTP server, 2 requests, metrics) =="
# Start the serving endpoint, issue two identical requests over HTTP (the
# second must be a cache hit), assert the metrics counters, and shut down
# cleanly — all under a hard timeout so a wedged server fails the gate
# fast.  Exercises the full serve stack end-to-end: fingerprinting, the
# partition cache, the warm pool, the JSON endpoint, and /metrics.
timeout --kill-after=15 120 env PYTHONPATH=src python - <<'PY'
from repro.cli import _resolve_zoo_graph
from repro.serve import (
    PartitionServer, PartitionService, ServiceConfig,
    fetch_metrics, request_partition,
)

# Wired exactly like `repro serve`: the zoo-names-only resolver (a network
# client must never make the server read server-local .npz paths).
service = PartitionService(ServiceConfig(default_samples=6))
with PartitionServer(service, port=0, graph_resolver=_resolve_zoo_graph).start() as server:
    first = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
    assert first["cached"] is False and first["source"] == "cold", first
    second = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
    assert second["cached"] is True, second
    assert second["assignment"] == first["assignment"]
    metrics = fetch_metrics(port=server.port)
    assert metrics["requests_total"] == 2, metrics
    assert metrics["cache"]["hits"] == 1 and metrics["cache"]["misses"] == 1, metrics
    assert metrics["by_source"]["cached"] == 1 and metrics["by_source"]["cold"] == 1
print("serve smoke OK: cold -> cache hit, metrics consistent, clean shutdown")
PY

echo "== coalescing smoke (concurrent cold misses over HTTP) =="
# Four concurrent clients send distinct cold requests inside one admission
# window: they must coalesce into a shared replay flush (coalesced_requests
# >= 1 in /metrics) and each still get a valid partition.  Exercises the
# cross-connection batching path end-to-end: threaded HTTP handlers ->
# leader/follower admission -> one replay_batch fan-out.  Hard timeout: a
# batch whose leader never flushes (or whose followers never wake) must
# fail the gate fast, not hang it.
timeout --kill-after=15 120 env PYTHONPATH=src python - <<'PY'
import threading
from repro.cli import _resolve_zoo_graph
from repro.serve import (
    PartitionServer, PartitionService, ServiceConfig,
    fetch_metrics, request_partition,
)

service = PartitionService(
    ServiceConfig(default_samples=6, batch_window_ms=200.0, batch_max_size=4)
)
names = ["mlp", "cnn", "gru", "bert"]
replies, barrier = [None] * 4, threading.Barrier(4)
with PartitionServer(service, port=0, graph_resolver=_resolve_zoo_graph).start() as server:
    def client(i):
        barrier.wait()
        replies[i] = request_partition(
            {"graph": names[i], "chips": 4}, port=server.port
        )
    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for t in threads: t.start()
    for t in threads: t.join()
    assert all(r is not None and not r["cached"] for r in replies), replies
    metrics = fetch_metrics(port=server.port)
assert metrics["batching"]["coalesced_requests"] >= 1, metrics["batching"]
print(
    "coalescing smoke OK: 4 concurrent cold requests, "
    f"{metrics['batching']['coalesced_requests']} coalesced in "
    f"{metrics['batching']['batches_flushed']} flush(es)"
)
PY

echo "== int8 serve smoke (quantized inference-only deployment) =="
# An int8 service must serve a valid partition whose request fingerprint
# matches the float64 deployment's (precision is not identity), surface
# its quantization error in /metrics, and refuse to train.  Hard timeout:
# a wedged quantized GEMM fails the gate fast.
timeout --kill-after=15 120 env PYTHONPATH=src python - <<'PY'
from repro.graphs.zoo import build_mlp
from repro.serve import PartitionRequest, PartitionService, ServiceConfig

s8 = PartitionService(ServiceConfig(default_samples=6, precision="int8"))
s64 = PartitionService(ServiceConfig(default_samples=6))
r8 = s8.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
r64 = s64.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
assert r8.source == "cold" and r8.assignment.max() < 4, r8
assert r8.fingerprint == r64.fingerprint
quant = s8.metrics()["int8_quantization"]
assert quant and all(s["max_abs_err"] > 0 for s in quant.values()), quant
assert "int8_quantization" not in s64.metrics()
print(f"int8 smoke OK: valid partition, quantization stats {list(quant)}")
PY

echo "== router smoke (2 shards x 2 replicas, SIGKILL one mid-burst) =="
# The replicated tier's acceptance bar, end-to-end with real shard
# subprocesses: an armed shard_kill fault SIGKILLs a shard under the
# router mid-burst, and every client request must still succeed (failover
# + fingerprint-seeded determinism make the loss invisible).  The hard
# timeout is the gate: a router that hangs on a dead shard instead of
# failing over must fail fast.
timeout --kill-after=30 300 env PYTHONPATH=src python - <<'PY'
from repro.cli import _resolve_zoo_graph
from repro.reliability import Fault, FaultPlan
from repro.serve import RouterConfig, ShardRouter

plan = FaultPlan([Fault(site="shard_kill", kind="kill", at=())])
router = ShardRouter.spawn(
    2,
    config=RouterConfig(
        replication=2,
        probe_interval_s=0.5,
        failure_threshold=2,
        breaker_reset_s=1.0,
        hedge=False,  # failover, not the hedge, must absorb the kill
        fault_plan=plan,
    ),
    graph_resolver=_resolve_zoo_graph,
    seed=0,
)
try:
    payload = {"graph": "mlp", "chips": 4, "samples": 4}
    replies = [router.handle_partition(payload) for _ in range(6)]
    assert all(status == 200 for status, _ in replies), replies
    assert all(not reply.get("degraded") for _, reply in replies), replies
    first = replies[0][1]["assignment"]
    assert all(reply["assignment"] == first for _, reply in replies)
    metrics = router.metrics()
    assert metrics["failovers"] >= 1, metrics
    assert metrics["faults"]["fired_by_site"] == {"shard_kill": 1}, metrics
    dead = [s for s in metrics["shards"].values() if not s["process_alive"]]
    assert len(dead) == 1, metrics
finally:
    router.close()
print("router smoke OK: shard SIGKILLed, zero failed requests, failovers counted")
PY

echo "== trace smoke (2-shard router, X-Repro-Trace end to end) =="
# A traced request through a router with two shard subprocesses: the
# client-supplied trace id must be echoed back, force-sample the trace,
# and appear in BOTH processes' JSONL sinks — router.attempt on the
# router side, cache.lookup + search.replay_batch on the shard side.
# Hard timeout: a tracing layer that wedges the request path (or a
# writer thread that never drains) must fail the gate fast.
timeout --kill-after=30 300 env PYTHONPATH=src python - <<'PY'
import glob, json, os, tempfile, time
from repro.cli import _resolve_zoo_graph
from repro.serve import RouterConfig, ShardRouter

trace_dir = tempfile.mkdtemp(prefix="repro-trace-smoke-")
router = ShardRouter.spawn(
    2,
    config=RouterConfig(trace_dir=trace_dir, trace_sample=0.0),
    graph_resolver=_resolve_zoo_graph,
    seed=0,
)
try:
    # Same shape as the HTTP front's do_POST: a client-supplied header id
    # forces sampling; handle_partition forwards it to the shard.
    trace = router.tracer.start(trace_id="ci-trace-smoke-01")
    status, reply = router.handle_partition(
        {"graph": "mlp", "chips": 4, "samples": 4}, trace=trace
    )
    router.tracer.finish(trace, status=status)
    assert status == 200 and "assignment" in reply, (status, reply)
    # The writer threads are asynchronous (and the shard is another
    # process): poll the JSONL sinks until both sides have landed.
    deadline = time.time() + 30
    rows = []
    while time.time() < deadline:
        router.tracer.flush(timeout=1.0)
        rows = []
        for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
            with open(path) as fh:
                rows.extend(json.loads(line) for line in fh)
        rows = [r for r in rows if r["trace_id"] == "ci-trace-smoke-01"]
        names = {s["name"] for r in rows for s in r["spans"]}
        if {"router.attempt", "cache.lookup", "search.replay_batch"} <= names:
            break
        time.sleep(0.1)
    assert len(rows) == 2, f"expected router+shard traces, got {rows}"
    names = {s["name"] for r in rows for s in r["spans"]}
    assert "router.attempt" in names, names
    assert "cache.lookup" in names and "search.replay_batch" in names, names
    for r in rows:  # every non-root span links into its own trace
        ids = {s["span_id"] for s in r["spans"]}
        assert all(
            s["parent_id"] in ids for s in r["spans"] if s["span_id"] != "s0"
        ), r
finally:
    router.close()
print("trace smoke OK: id echoed, router+shard spans linked in JSONL")
PY

echo "== chaos suite (fault injection: killed workers, SIGKILLed shards) =="
# The full fault-injection suite (tier-1 deselects the marker): worker
# kills mid-replay must stay bit-identical, and subprocess shards SIGKILLed
# behind the router's HTTP front must cost no client a failed request.  The
# hard timeout is the point: a recovery path that wedges instead of
# respawning or failing over must fail the gate fast.
timeout --kill-after=30 300 python -m pytest -q -m chaos

echo "== ci_check OK =="
