"""Replicated sharded serving: consistent-hash router over shard processes.

One :class:`PartitionService` process is a single point of failure and a
single-core ceiling.  This module runs *N* of them (``repro serve``
subprocesses, or any addresses you attach) behind one front door:

* **Consistent-hash routing** (:class:`HashRing`) — each request's routing
  fingerprint lands on a *replica set* of ``replication`` distinct shards,
  so every fingerprint has R independent homes and the cache-key → shard
  mapping moves minimally when shards join or leave.  Because every cache
  miss is seeded purely from ``(service seed, request fingerprint)``
  (the PR-4 serving invariant), *which* replica answers cannot change the
  result — replicas are interchangeable bit-for-bit.
* **Health-checked failover** — a monitor thread probes each shard's
  ``/healthz`` (readiness, not liveness) and feeds a per-shard
  :class:`CircuitBreaker`; requests fail over to the next replica on
  breaker-open, connection loss, timeout, 429, or 5xx.
* **Hedged requests** — when the primary replica has not answered within a
  p95-derived delay, the same request is fired at the second replica and
  the first answer wins (the loser's reply is discarded — with stdlib
  ``urllib`` there is no true cancel, and shard work is idempotent and
  cache-warming anyway).
* **Last-resort degradation** — only when *every* replica is down does the
  router itself answer, from the greedy heuristic
  (:func:`repro.serve.service.greedy_fallback`), marked
  ``degraded_reason="all_replicas_down"`` and never cached.

Client errors (4xx other than 429) are *answers*, not failures: they are
forwarded verbatim from the first replica that produced one, never failed
over (every replica would say the same thing), and never trip a breaker.

Chaos hooks (:class:`repro.reliability.FaultPlan` sites): ``shard_kill``
SIGKILLs a spawned shard right before a forward, ``shard_stall`` sleeps a
forward (a wedged shard, as seen by hedging), ``network_partition`` makes
the transport to one shard fail without sending (process stays alive).

CLI: ``repro route --shards 2 --replication 2`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import os
import queue
import select
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import MetricsRegistry, prometheus_from_snapshot
from repro.obs.trace import NULL_SPAN, TRACE_HEADER, Tracer
from repro.serve.fingerprint import PlatformDescriptor, canonical_form, request_fingerprint
from repro.serve.server import request_from_payload, response_to_payload
from repro.serve.service import (
    PartitionRequest,
    PartitionResponse,
    ServiceError,
    greedy_fallback,
)
from repro.utils.threads import cpu_budget, explicit_thread_env

#: Successful-request latencies retained for the hedge-delay percentile.
_HEDGE_WINDOW = 256

#: Minimum latency samples before the p95 is trusted over ``hedge_min_s``.
_HEDGE_MIN_SAMPLES = 8


def _hash64(token: str) -> int:
    """Stable 64-bit point on the ring (sha256 prefix — never ``hash()``,
    which is salted per process and would re-route every restart)."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard contributes ``vnodes`` points on a 64-bit ring; a key's
    replica set is the first ``r`` *distinct* shards clockwise from the
    key's own point.  Adding or removing one shard therefore moves only the
    keyspace slices adjacent to its points (~1/N of keys), never reshuffles
    everything — the property that keeps shard-local result caches warm
    across membership changes.
    """

    def __init__(self, shard_ids=(), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._shards: "set[str]" = set()
        self._hashes: "list[int]" = []
        self._points: "list[tuple[int, str]]" = []
        for shard_id in shard_ids:
            self.add(shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    def shard_ids(self) -> "list[str]":
        return sorted(self._shards)

    def add(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        for v in range(self.vnodes):
            self._points.append((_hash64(f"{shard_id}#{v}"), shard_id))
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise KeyError(shard_id)
        self._shards.discard(shard_id)
        self._points = [(h, s) for h, s in self._points if s != shard_id]
        self._hashes = [h for h, _ in self._points]

    def replicas(self, key: str, r: int) -> "list[str]":
        """The first ``r`` distinct shards clockwise from ``key``'s point.

        Deterministic for a given membership; returns fewer than ``r`` when
        the ring holds fewer shards.
        """
        if not self._points or r < 1:
            return []
        start = bisect.bisect_right(self._hashes, _hash64(key))
        out: "list[str]" = []
        seen: "set[str]" = set()
        n = len(self._points)
        for step in range(n):
            shard_id = self._points[(start + step) % n][1]
            if shard_id in seen:
                continue
            seen.add(shard_id)
            out.append(shard_id)
            if len(out) == r:
                break
        return out


class CircuitBreaker:
    """Closed → open on consecutive failures → half-open probe → closed.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures open it.
    * **open** — requests skip the shard; after ``reset_timeout_s`` the
      next :meth:`admit` converts to half-open and admits one trial.
    * **half-open** — exactly one in-flight trial; success closes, failure
      re-opens.  The health monitor's probes also feed
      :meth:`record_success` / :meth:`record_failure`, so a recovered
      shard is usually closed again by the next probe without spending a
      client request on the trial.

    Thread-safe; ``clock`` is injectable so the state machine is testable
    without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._state = "closed"
        self._opened_at = 0.0
        self._trial_in_flight = False
        self.consecutive_failures = 0
        self.opened_total = 0
        self.transitions: "dict[str, int]" = {}
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _move(self, new_state: str) -> None:
        key = f"{self._state}->{new_state}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        self._state = new_state
        if new_state == "open":
            self.opened_total += 1
            self._opened_at = self._clock()

    def admit(self) -> bool:
        """May a request be sent to this shard right now?

        Open breakers admit nothing until ``reset_timeout_s`` has elapsed,
        then exactly one trial (the half-open probe); further requests are
        refused until that trial resolves.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._move("half_open")
                self._trial_in_flight = True
                return True
            if self._trial_in_flight:
                return False
            self._trial_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self._trial_in_flight = False
            if self._state != "closed":
                self._move("closed")

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self._state == "half_open":
                self._trial_in_flight = False
                self._move("open")
            elif (
                self._state == "closed"
                and self.consecutive_failures >= self.failure_threshold
            ):
                self._move("open")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self.consecutive_failures,
                "opened_total": self.opened_total,
                "transitions": dict(self.transitions),
            }


@dataclass
class ShardEndpoint:
    """One shard's address, optionally with the process the router spawned.

    ``process=None`` is attach mode: the shard belongs to someone else and
    the router never signals it (``shard_kill`` faults are then no-ops).
    """

    shard_id: str
    host: str
    port: int
    process: "subprocess.Popen | None" = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is None or self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the impolite death the chaos tests inject."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)

    def terminate(self, timeout: float = 10.0) -> None:
        """Polite shutdown (SIGTERM, then SIGKILL after ``timeout``)."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """First stdout line of a child, with a deadline (never block forever
    on a shard that wedges before printing its address)."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout_s
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(
                f"shard did not announce its address within {timeout_s:g}s"
            )
        ready, _, _ = select.select([fd], [], [], min(left, 0.25))
        if not ready:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard exited with code {proc.returncode} before "
                    "announcing its address"
                )
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(
                "shard closed stdout before announcing its address"
            )
        buf += chunk
    return buf.split(b"\n", 1)[0].decode("utf-8", "replace")


def spawn_shard(
    shard_id: str,
    samples: int = 16,
    seed: int = 0,
    cache_capacity: int = 256,
    registry: "str | None" = None,
    cache_dir: "str | None" = None,
    max_in_flight: int = 0,
    precision: str = "float64",
    batch_window_ms: float = 0.0,
    batch_max_size: int = 8,
    trace_dir: "str | None" = None,
    trace_sample: float = 1.0,
    trace_slow_ms: float = 0.0,
    extra_args: tuple = (),
    startup_timeout_s: float = 60.0,
    blas_threads: "int | None" = None,
) -> ShardEndpoint:
    """Spawn one ``repro serve`` process on an ephemeral port.

    All shards of a deployment must share ``seed``, ``samples``, and
    ``precision``: the replica-independence guarantee (any replica answers
    bit-identically) holds because a miss is seeded purely from ``(service
    seed, request fingerprint)`` and evaluated on one numeric backend — a
    seed or precision mismatch between replicas would break it.
    ``batch_window_ms``/``batch_max_size`` enable admission coalescing on
    the shard (composition-invariant, so safe to vary per shard — but a
    uniform window keeps tail latencies comparable across the ring).
    ``blas_threads`` becomes the shard's ``OPENBLAS_NUM_THREADS`` unless
    this process's environment already pins a thread count.
    """
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--samples", str(int(samples)),
        "--seed", str(int(seed)),
        "--cache-capacity", str(int(cache_capacity)),
        "--shard-id", shard_id,
    ]
    if precision != "float64":
        cmd += ["--precision", precision]
    if batch_window_ms > 0:
        cmd += [
            "--batch-window-ms", repr(float(batch_window_ms)),
            "--batch-max-size", str(int(batch_max_size)),
        ]
    if registry is not None:
        cmd += ["--registry", str(registry)]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if max_in_flight:
        cmd += ["--max-in-flight", str(int(max_in_flight))]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
        if trace_sample != 1.0:
            cmd += ["--trace-sample", repr(float(trace_sample))]
        if trace_slow_ms > 0:
            cmd += ["--trace-slow-ms", repr(float(trace_slow_ms))]
    cmd += list(extra_args)
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    if blas_threads is not None and not explicit_thread_env(env):
        env["OPENBLAS_NUM_THREADS"] = str(int(blas_threads))
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        line = _read_line(proc, startup_timeout_s)
        # `repro serve`'s machine-readable first line: "serving on host:port".
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected shard start-up line {line!r}")
        host, _, port = line[len("serving on "):].rpartition(":")
        return ShardEndpoint(
            shard_id=shard_id, host=host, port=int(port), process=proc
        )
    except Exception:
        proc.kill()
        proc.wait(timeout=30)
        raise


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of one :class:`ShardRouter`.

    ``replication``
        Replica-set size R: how many independent homes each fingerprint
        has.  Failover and hedging both draw from this set.
    ``default_samples``
        Folded into the routing fingerprint when a request omits
        ``samples`` — must match the shards' ``--samples`` default for the
        routing key to equal the shard's cache key.
    ``probe_interval_s``
        Health-monitor period (``0`` disables the background probes;
        breakers then learn only from request outcomes).
    ``shard_timeout_s``
        Per-attempt forward timeout; an expired attempt is a failure
        (failover material), not a client error.
    ``failure_threshold`` / ``breaker_reset_s``
        Circuit-breaker consecutive-failure trip point and open→half-open
        cool-down.
    ``hedge`` / ``hedge_p95_factor`` / ``hedge_min_s`` / ``hedge_max_s``
        Tail-latency hedging: after ``clamp(p95 * factor, min, max)``
        seconds without an answer, fire the next replica.  The p95 is over
        recent successful forwards; until enough samples exist,
        ``hedge_min_s`` is the delay.  ``hedge=False`` disables (failover
        still applies).
    ``fault_plan``
        Chaos hooks (``shard_kill`` / ``shard_stall`` /
        ``network_partition`` sites), constructor-wired like every other
        layer's.
    ``trace_dir`` / ``trace_sample`` / ``trace_slow_ms``
        End-to-end tracing (see :mod:`repro.obs.trace`): the router opens
        a trace per request, records each forward/failover/hedge attempt
        as a child span, and — for *sampled* traces — forwards the trace
        id in ``X-Repro-Trace`` so the shard's spans land in its own JSONL
        under the same id.  :meth:`ShardRouter.spawn` passes these flags
        through to every spawned shard.  The keep/drop decision hashes the
        id deterministically, so router and shards always agree.
    """

    replication: int = 2
    vnodes: int = 64
    default_samples: int = 16
    probe_interval_s: float = 2.0
    probe_timeout_s: float = 1.0
    shard_timeout_s: float = 60.0
    failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    hedge: bool = True
    hedge_p95_factor: float = 1.5
    hedge_min_s: float = 0.05
    hedge_max_s: float = 2.0
    fault_plan: "object | None" = None
    trace_dir: "str | None" = None
    trace_sample: float = 1.0
    trace_slow_ms: float = 0.0

    def __post_init__(self):
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.default_samples < 1:
            raise ValueError("default_samples must be >= 1")
        if self.shard_timeout_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.hedge_min_s < 0 or self.hedge_max_s < self.hedge_min_s:
            raise ValueError("need 0 <= hedge_min_s <= hedge_max_s")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if self.trace_slow_ms < 0:
            raise ValueError("trace_slow_ms must be >= 0 (0 disables slow-force)")


class _ShardState:
    """Router-side view of one shard: breaker, health, counters."""

    def __init__(self, endpoint: ShardEndpoint, config: RouterConfig):
        self.endpoint = endpoint
        self.breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold,
            reset_timeout_s=config.breaker_reset_s,
        )
        self.healthy: "bool | None" = None  # None until first probe
        self.consecutive_probe_failures = 0
        self.probe_ewma_ms: "float | None" = None
        self.last_probe_unix: "float | None" = None
        self.last_health: dict = {}
        self.requests = 0
        self.failures = 0


def routing_key(request: PartitionRequest, default_samples: int = 16) -> str:
    """The fingerprint the ring hashes for one request.

    Identical to the shard's cache fingerprint except that the checkpoint
    spec stays *unresolved* (the router holds no registry, so
    ``version=None`` is hashed as "latest" rather than a concrete number).
    Uncheckpointed requests — and any request pinning an explicit version —
    therefore route exactly by their cache key; ``version=None`` requests
    for one checkpoint name all land on the same replica set, which is
    precisely the cache affinity sharding needs.
    """
    graph_fp, _ = canonical_form(request.graph)
    checkpoint = None
    if request.checkpoint is not None:
        checkpoint = (
            request.checkpoint,
            -1 if request.version is None else int(request.version),
        )
    samples = (
        default_samples if request.samples is None else int(request.samples)
    )
    return request_fingerprint(
        graph_fp,
        PlatformDescriptor.of(request.n_chips, request.topology),
        objective=request.objective,
        cost_model=request.cost_model,
        samples=samples,
        checkpoint=checkpoint,
    )


class ShardRouter:
    """Routes partition requests across replicated shard processes.

    Construct with shard endpoints (:func:`spawn_shard` /
    :meth:`ShardRouter.spawn`, or attach to addresses you already run),
    then call :meth:`handle_partition` per request — or serve it over HTTP
    with :class:`repro.serve.server.PartitionServer`, the same front a
    shard uses.
    """

    server_version = "repro-route/1"

    def __init__(
        self,
        shards: "list[ShardEndpoint]",
        config: "RouterConfig | None" = None,
        graph_resolver=None,
    ):
        if not shards:
            raise ValueError("a router needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        self.config = config or RouterConfig()
        self.graph_resolver = graph_resolver
        self.ring = HashRing(ids, vnodes=self.config.vnodes)
        self._shards: "dict[str, _ShardState]" = {
            s.shard_id: _ShardState(s, self.config) for s in shards
        }
        self._spawned: "list[ShardEndpoint]" = []
        self._metrics_lock = threading.Lock()
        # Routing counters live in the typed registry (one source of truth
        # for the JSON and Prometheus views); the attribute names below are
        # kept as read-only properties.
        self.metrics_registry = MetricsRegistry()
        reg = self.metrics_registry
        self._requests_total = reg.counter("router_requests_total")
        self._failovers = reg.counter("router_failovers_total")
        self._hedges_fired = reg.counter("router_hedges_fired_total")
        self._hedge_wins = reg.counter("router_hedge_wins_total")
        self._degraded_serves = reg.counter("router_degraded_serves_total")
        self._all_replicas_down = reg.counter("router_all_replicas_down_total")
        self._client_errors = reg.counter("router_client_errors_total")
        self._latency_ms_hist = reg.histogram("router_request_latency_ms")
        # The hedge-delay *control signal* stays a bounded window of raw
        # latencies: hedging tracks the recent p95, not the lifetime one —
        # a histogram over all history would stop adapting.  This deque is
        # control state, not observability (the histogram above is).
        self._latency_s: "deque[float]" = deque(maxlen=_HEDGE_WINDOW)
        self.tracer = Tracer(
            trace_dir=self.config.trace_dir,
            sample=self.config.trace_sample,
            slow_ms=self.config.trace_slow_ms,
            service="router",
        )
        self._stop = threading.Event()
        self._monitor: "threading.Thread | None" = None
        if self.config.probe_interval_s > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-router-health",
                daemon=True,
            )
            self._monitor.start()

    # Read-only counter views (the names the pre-registry attributes had).
    @property
    def requests_total(self) -> int:
        return self._requests_total.value

    @property
    def failovers(self) -> int:
        return self._failovers.value

    @property
    def hedges_fired(self) -> int:
        return self._hedges_fired.value

    @property
    def hedge_wins(self) -> int:
        return self._hedge_wins.value

    @property
    def degraded_serves(self) -> int:
        return self._degraded_serves.value

    @property
    def all_replicas_down(self) -> int:
        return self._all_replicas_down.value

    @property
    def client_errors(self) -> int:
        return self._client_errors.value

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def spawn(
        cls,
        n_shards: int,
        config: "RouterConfig | None" = None,
        graph_resolver=None,
        seed: int = 0,
        registry: "str | None" = None,
        cache_capacity: int = 256,
        max_in_flight: int = 0,
        precision: str = "float64",
        batch_window_ms: float = 0.0,
        batch_max_size: int = 8,
    ) -> "ShardRouter":
        """Spawn ``n_shards`` ``repro serve`` processes and route over them.

        The spawned processes are owned: :meth:`close` terminates them.
        Every shard gets the same seed, sample budget, precision, and
        coalescing window (replica interchangeability — see
        :func:`spawn_shard`), and an equal share of the cores as its BLAS
        thread count.
        """
        config = config or RouterConfig()
        blas_threads = cpu_budget(n_shards)
        shards: "list[ShardEndpoint]" = []
        try:
            for i in range(int(n_shards)):
                shards.append(
                    spawn_shard(
                        f"s{i}",
                        samples=config.default_samples,
                        seed=seed,
                        cache_capacity=cache_capacity,
                        registry=registry,
                        max_in_flight=max_in_flight,
                        precision=precision,
                        batch_window_ms=batch_window_ms,
                        batch_max_size=batch_max_size,
                        trace_dir=config.trace_dir,
                        trace_sample=config.trace_sample,
                        trace_slow_ms=config.trace_slow_ms,
                        blas_threads=blas_threads,
                    )
                )
        except Exception:
            for shard in shards:
                shard.terminate()
            raise
        router = cls(shards, config=config, graph_resolver=graph_resolver)
        router._spawned = list(shards)
        return router

    def close(self) -> None:
        """Stop the health monitor and terminate owned shard processes."""
        self.tracer.close()
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for shard in self._spawned:
            shard.terminate()
        self._spawned = []

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval_s):
            self.probe_all()

    def probe_all(self) -> None:
        """One synchronous health sweep (the monitor's body; callable from
        tests to avoid timing-dependent waits)."""
        for state in list(self._shards.values()):
            self._probe(state)

    def _probe(self, state: _ShardState) -> None:
        url = f"http://{state.endpoint.address}/healthz"
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(
                url, timeout=self.config.probe_timeout_s
            ) as resp:
                payload = json.loads(resp.read())
            ok = True
        except urllib.error.HTTPError as exc:
            # A 503 readiness reply is a *diagnosed* unready shard: keep
            # its payload for the metrics view, count it as a failure.
            try:
                payload = json.loads(exc.read())
            except (ValueError, OSError):
                payload = {"error": str(exc.reason)}
            ok = False
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            ConnectionError,
            TimeoutError,
            socket.timeout,
            OSError,
            ValueError,
        ) as exc:
            payload = {"error": str(exc)}
            ok = False
        latency_ms = (time.perf_counter() - t0) * 1e3
        state.last_probe_unix = time.time()
        state.last_health = payload
        ewma = state.probe_ewma_ms
        state.probe_ewma_ms = (
            latency_ms if ewma is None else 0.8 * ewma + 0.2 * latency_ms
        )
        state.healthy = ok
        if ok:
            state.consecutive_probe_failures = 0
            state.breaker.record_success()
        else:
            state.consecutive_probe_failures += 1
            state.breaker.record_failure()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def parse_request(self, payload: dict) -> PartitionRequest:
        return request_from_payload(payload, graph_resolver=self.graph_resolver)

    def routing_key(self, payload: dict) -> str:
        return routing_key(
            self.parse_request(payload), self.config.default_samples
        )

    def _hedge_delay_s(self) -> float:
        with self._metrics_lock:
            samples = list(self._latency_s)
        if len(samples) < _HEDGE_MIN_SAMPLES:
            return self.config.hedge_min_s
        p95 = float(np.percentile(np.asarray(samples), 95))
        return min(
            max(p95 * self.config.hedge_p95_factor, self.config.hedge_min_s),
            self.config.hedge_max_s,
        )

    def _attempt(
        self,
        state: _ShardState,
        body: bytes,
        out: queue.Queue,
        span=NULL_SPAN,
        trace_id: "str | None" = None,
    ) -> None:
        """One forward to one shard; classified outcome onto ``out``.

        Outcome kinds: ``ok`` (200), ``client_error`` (4xx except 429 —
        an answer, not a shard failure), ``failure`` (429/5xx, connection
        loss, timeout, injected partition).  ``span`` (a child span of the
        request's trace, created by the launcher) is ended here with the
        outcome; ``trace_id`` is forwarded in ``X-Repro-Trace`` so the
        shard's trace correlates with the router's.
        """
        plan = self.config.fault_plan
        shard_id = state.endpoint.shard_id
        t0 = time.perf_counter()
        if plan is not None:
            if plan.fire("shard_kill", "kill", (shard_id,)) is not None:
                # The chaos hook: the process dies *now*, and this very
                # attempt discovers it the way production would — a
                # connection error, then failover.
                state.endpoint.kill()
            stall = plan.fire("shard_stall", "stall", (shard_id,))
            if stall is not None:
                time.sleep(stall.delay_s)
            if plan.fire("network_partition", "partition", (shard_id,)) is not None:
                span.end(outcome="failure", error="network_partition")
                out.put((shard_id, "failure", 0,
                         {"error": "network partition (injected)"},
                         time.perf_counter() - t0))
                return
        url = f"http://{state.endpoint.address}/partition"
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        req = urllib.request.Request(url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(
                req, timeout=self.config.shard_timeout_s
            ) as resp:
                payload = json.loads(resp.read())
            span.end(outcome="ok", status=200)
            out.put((shard_id, "ok", 200, payload, time.perf_counter() - t0))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except (ValueError, OSError):
                payload = {"error": str(exc.reason)}
            kind = (
                "client_error"
                if 400 <= exc.code < 500 and exc.code != 429
                else "failure"
            )
            span.end(outcome=kind, status=exc.code)
            out.put((shard_id, kind, exc.code, payload,
                     time.perf_counter() - t0))
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            ConnectionError,
            TimeoutError,
            socket.timeout,
            OSError,
            ValueError,
        ) as exc:
            span.end(outcome="failure", error=type(exc).__name__)
            out.put((shard_id, "failure", 0, {"error": str(exc)},
                     time.perf_counter() - t0))

    def handle_partition(
        self, payload: dict, trace=None, source: "str | None" = None
    ) -> "tuple[int, dict]":
        """Serve one request: ``(HTTP status, JSON-safe reply)``.

        Routing: hash the request fingerprint onto its replica set; launch
        the primary; hedge onto the next replica after the p95-derived
        delay; fail over to further replicas on any shard failure; first
        ``ok`` (or first client error) wins.  Only when every replica has
        failed or is breaker-open does the router answer degraded itself.

        ``trace`` (from the HTTP front, or any caller holding one) gets a
        ``router.routing`` span plus one ``router.attempt`` child span per
        forward; sampled traces forward their id to the shard.  Attempt
        threads receive their span explicitly — context vars do not cross
        thread starts.  ``source`` (the front's client id) is ignored:
        shards rate-limit, not the router.
        """
        self._requests_total.inc()
        t_request = time.perf_counter()
        routing_span = (
            trace.start_span("router.routing") if trace is not None else NULL_SPAN
        )
        try:
            request = self.parse_request(payload)
            key = routing_key(request, self.config.default_samples)
        except ServiceError as exc:
            self._client_errors.inc()
            routing_span.end(error="ServiceError")
            return 422, {"error": str(exc)}
        replicas = self.ring.replicas(key, self.config.replication)
        routing_span.end(replicas=list(replicas))
        # Forward the trace id only for sampled traces: an unsampled
        # router trace must not force shard-side writes (the deterministic
        # id hash means a shard seeing the id would agree anyway, but
        # forced=True on arrival would override that).
        trace_id = (
            trace.trace_id if trace is not None and trace.sampled else None
        )
        body = json.dumps(payload).encode("utf-8")
        results: "queue.Queue" = queue.Queue()
        reasons: "dict[str, str]" = {}
        next_idx = 0
        active = 0

        def launch(reason: str) -> "str | None":
            """Start the next breaker-admitted replica; None when spent."""
            nonlocal next_idx, active
            while next_idx < len(replicas):
                shard_id = replicas[next_idx]
                next_idx += 1
                state = self._shards[shard_id]
                if not state.breaker.admit():
                    continue
                reasons[shard_id] = reason
                with self._metrics_lock:
                    state.requests += 1
                active += 1
                attempt_span = (
                    trace.start_span(
                        "router.attempt", shard=shard_id, reason=reason
                    )
                    if trace is not None
                    else NULL_SPAN
                )
                threading.Thread(
                    target=self._attempt,
                    args=(state, body, results, attempt_span, trace_id),
                    name=f"repro-route-{shard_id}",
                    daemon=True,
                ).start()
                return shard_id
            return None

        launch("primary")
        hedge_spent = not self.config.hedge
        failures: "list[str]" = []
        while active:
            timeout = None
            if not hedge_spent and next_idx < len(replicas):
                timeout = self._hedge_delay_s()
            try:
                shard_id, kind, status, reply, latency_s = results.get(
                    timeout=timeout
                )
            except queue.Empty:
                # Primary slow past the hedge delay: fire the next replica.
                hedge_spent = True
                if launch("hedge") is not None:
                    self._hedges_fired.inc()
                continue
            active -= 1
            state = self._shards[shard_id]
            if kind == "ok":
                state.breaker.record_success()
                with self._metrics_lock:
                    self._latency_s.append(latency_s)
                if reasons.get(shard_id) == "hedge":
                    self._hedge_wins.inc()
                self._latency_ms_hist.observe(
                    (time.perf_counter() - t_request) * 1e3
                )
                return 200, reply
            if kind == "client_error":
                # A real answer: the request is wrong, not the shard.
                state.breaker.record_success()
                self._client_errors.inc()
                return status, reply
            state.breaker.record_failure()
            with self._metrics_lock:
                state.failures += 1
            failures.append(
                f"{shard_id}: {reply.get('error', f'status {status}')}"
            )
            # ``failovers`` counts failed attempts whose request continued
            # on another replica — whether that replica is launched right
            # now or was already in flight as a hedge.
            if launch("failover") is not None or active:
                self._failovers.inc()
        return self._serve_degraded(request, key, failures, trace=trace)

    def _serve_degraded(
        self,
        request: PartitionRequest,
        key: str,
        failures: "list[str]",
        trace=None,
    ) -> "tuple[int, dict]":
        """Every replica down: the router's own greedy heuristic answer.

        Mirrors the shard-side degraded contract — marked, honest about
        cost, and **never cached** anywhere (the router has no cache, and
        shards never saw the request).
        """
        t0 = time.perf_counter()
        self._all_replicas_down.inc()
        degraded_span = (
            trace.start_span("router.degraded_fallback")
            if trace is not None
            else NULL_SPAN
        )
        try:
            assignment, sample = greedy_fallback(request)
        except ServiceError as exc:
            degraded_span.end(error="ServiceError")
            return 503, {
                "error": (
                    f"all replicas down ({'; '.join(failures) or 'breakers open'}) "
                    f"and degraded fallback failed: {exc}"
                ),
                "retry_after_s": self.config.breaker_reset_s,
            }
        degraded_span.end()
        self._degraded_serves.inc()
        return 200, response_to_payload(
            PartitionResponse(
                fingerprint=key,
                assignment=assignment,
                improvement=float(sample.improvement),
                objective=request.objective,
                cached=False,
                source="degraded",
                latency_ms=(time.perf_counter() - t0) * 1e3,
                samples=0,
                n_chips=int(request.n_chips),
                checkpoint=(
                    None
                    if request.checkpoint is None
                    else (request.checkpoint, request.version)
                ),
                throughput=float(sample.result.throughput),
                latency_us=float(sample.result.latency_us),
                degraded=True,
                degraded_reason="all_replicas_down",
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> "tuple[bool, dict]":
        """Router readiness: 200 while at least one shard's breaker would
        admit work (degraded-only routing still answers, but a 503 here
        lets an orchestrator see the difference)."""
        states = {
            shard_id: state.breaker.snapshot()["state"]
            for shard_id, state in self._shards.items()
        }
        any_up = any(s != "open" for s in states.values())
        return any_up, {
            "ok": any_up,
            "router": True,
            "shards": states,
            "degraded_only": not any_up,
        }

    def metrics(self) -> dict:
        """JSON-safe router metrics: routing counters, per-shard breaker
        state and health, hedge configuration, armed fault plan."""
        snap = {
            "router": True,
            "replication": self.config.replication,
            "requests_total": self.requests_total,
            "failovers": self.failovers,
            "hedges_fired": self.hedges_fired,
            "hedge_wins": self.hedge_wins,
            "degraded_serves": self.degraded_serves,
            "all_replicas_down": self.all_replicas_down,
            "client_errors": self.client_errors,
        }
        snap["latency_ms"] = self._latency_ms_hist.percentiles_ms()
        snap["hedge"] = {
            "enabled": self.config.hedge,
            "delay_s": self._hedge_delay_s(),
            "p95_factor": self.config.hedge_p95_factor,
            "min_s": self.config.hedge_min_s,
            "max_s": self.config.hedge_max_s,
        }
        shards = {}
        for shard_id, state in self._shards.items():
            shards[shard_id] = {
                "address": state.endpoint.address,
                "process_alive": state.endpoint.alive,
                "requests": state.requests,
                "failures": state.failures,
                "breaker": state.breaker.snapshot(),
                "health": {
                    "healthy": state.healthy,
                    "consecutive_probe_failures": state.consecutive_probe_failures,
                    "probe_ewma_ms": state.probe_ewma_ms,
                    "last_probe_unix": state.last_probe_unix,
                    "shard": state.last_health,
                },
            }
        snap["shards"] = shards
        plan = self.config.fault_plan
        if plan is not None:
            snap["faults"] = plan.counts()
            describe = getattr(plan, "describe", None)
            if describe is not None:
                snap["fault_plan"] = describe()
        return snap

    def prometheus(self) -> str:
        """``GET /metrics?format=prometheus`` for the router tier."""
        snap = self.metrics()
        extra = {
            key: snap[key] for key in ("hedge", "shards") if key in snap
        }
        return self.metrics_registry.render() + prometheus_from_snapshot(extra)
