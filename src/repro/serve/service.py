"""Partition-as-a-service: the in-process request/response front end.

:class:`PartitionService` wraps the whole stack — fingerprinting, the
result cache, the checkpoint registry's warm partitioner pool, environment
construction, and the parallel pool's batched zero-shot replay — behind one
call::

    service = PartitionService()
    response = service.submit(PartitionRequest(graph=my_graph, n_chips=4))

Request lifecycle (see the "Serving invariants" section of ROADMAP.md):

1. the request is canonicalised to a content fingerprint (graph hash +
   platform descriptor + objective + cost model + sample budget + resolved
   checkpoint version);
2. a cache hit returns the bit-identical stored partition without touching
   the policy or the solver;
3. misses are grouped by (checkpoint, platform semantics), each group gets
   a warm partitioner from the pool (weights load once per checkpoint, not
   per request), and the group's searches fan over the parallel executor as
   one replay batch — each request seeded purely by its own fingerprint, so
   results are independent of batch composition and worker count;
4. results are stored in the cache and latency is recorded per source
   (``cached`` / ``warm`` / ``cold`` / ``degraded``) for the ``/metrics``
   view.

The service is thread-safe: one lock serialises submission (searches are
CPU-bound; concurrency comes from the worker pool underneath, not from
overlapping submits).

Resilience (see the "Reliability invariants" section of ROADMAP.md):

* **Admission gate** — ``max_in_flight > 0`` bounds concurrent
  submissions; excess load fails fast with
  :class:`ServiceOverloadError` (HTTP 429 + ``Retry-After`` at the
  server) instead of queueing unboundedly behind the submission lock.
* **Deadlines** — ``request_deadline`` caps a batch's wall time; a group
  whose budget is exhausted (or whose search times out) is answered by
  the degraded path rather than erroring.
* **Graceful degradation** — when policy weights cannot be loaded
  (registry IO error, corrupt checkpoint) or the search misses its
  deadline, the service falls back to the greedy heuristic baseline:
  the response carries ``source="degraded"``/``degraded=True`` and is
  **never cached**, so a later healthy request recomputes the real
  answer.
* **Crash-safe cache** — ``cache_dir`` swaps the in-memory result cache
  for :class:`repro.serve.persist.PersistentPartitionCache`, whose
  journal survives restarts.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import greedy_partition
from repro.core.environment import PartitionEnvironment
from repro.obs.metrics import MetricsRegistry, prometheus_from_snapshot
from repro.obs.trace import Tracer, span
from repro.core.partitioner import RLPartitionerConfig, _topology_semantics
from repro.nn.backend import SERVE_PRECISIONS
from repro.graphs.graph import CompGraph
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.hardware.simulator import PipelineSimulator
from repro.parallel.search import ParallelConfig, replay_batch
from repro.rl.features import featurize
from repro.serve.cache import CachedPartition, PartitionCache
from repro.serve.fingerprint import (
    PlatformDescriptor,
    canonical_form,
    request_fingerprint,
)
from repro.serve.persist import PersistentPartitionCache
from repro.serve.registry import (
    CheckpointRegistry,
    RegistryError,
    WarmPartitionerPool,
    default_serving_config,
)
from repro.solver.engine import MAX_CHIPS
from repro.utils.threads import blas_threads

#: Seed-key tag namespacing serving replays (0/1 are the training pool's).
SERVE_SEED_TAG = 2

#: How many recent per-source latencies the metrics retain for percentiles.
_LATENCY_WINDOW = 4096

#: How long a coalescing leader with nobody else in flight, now or during
#: the last window, waits for others before flushing alone: long enough for
#: a burst of clients released together to join it (2 ms split 8-client
#: bursts on a 2-core box), short against a typical window.
_LONE_GRACE_S = 0.005

#: Largest sample budget one request may ask for: a search runs this many
#: solver draws before it answers, so an unbounded budget would hold a
#: worker (and the client) indefinitely.
MAX_SAMPLES = 4096


class ServiceError(RuntimeError):
    """A request the service cannot fulfil (bad spec, no valid partition)."""


class ServiceOverloadError(ServiceError):
    """Admission gate rejection: too many requests already in flight.

    Carries ``retry_after`` (seconds) so transports can emit a structured
    backpressure signal (HTTP 429 + ``Retry-After``) instead of letting
    callers pile up behind the submission lock.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass
class PartitionRequest:
    """One partitioning request.

    Attributes
    ----------
    graph:
        The workload to partition.
    n_chips:
        Package size.
    topology:
        Interconnect (:mod:`repro.hardware.topology`); ``None`` is the
        paper's uni-ring.
    objective:
        ``"throughput"`` (default) or ``"latency"``.
    cost_model:
        ``"analytical"`` (default) or ``"simulator"``.
    samples:
        Zero-shot draw budget for a cache miss (``None`` uses the service
        default).
    checkpoint / version:
        Registry checkpoint supplying policy weights (``None`` serves the
        untrained policy; ``version=None`` resolves to the latest).
    """

    graph: CompGraph
    n_chips: int = 4
    topology: object = None
    objective: str = "throughput"
    cost_model: str = "analytical"
    samples: "int | None" = None
    checkpoint: "str | None" = None
    version: "int | None" = None


@dataclass(frozen=True)
class PartitionResponse:
    """The service's reply for one request.

    ``source`` records how the result was produced: ``"cached"`` (hit),
    ``"warm"`` (searched on an already-live partitioner), ``"cold"``
    (the partitioner had to be built and its weights loaded first), or
    ``"degraded"`` (heuristic fallback; see ``degraded``).

    ``degraded=True`` marks a best-effort answer from the greedy
    heuristic baseline, produced because the real search could not run
    (checkpoint load failure, deadline exhausted, worker pool gave up);
    ``degraded_reason`` says why.  Degraded results are never cached.
    """

    fingerprint: str
    assignment: np.ndarray
    improvement: float
    objective: str
    cached: bool
    source: str
    latency_ms: float
    samples: int
    n_chips: int
    checkpoint: "tuple | None" = None
    throughput: float = 0.0
    latency_us: float = 0.0
    degraded: bool = False
    degraded_reason: str = ""


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`PartitionService` instance.

    Reliability knobs (all off by default, preserving prior behaviour):

    ``max_in_flight``
        ``> 0`` bounds concurrent submissions; excess raises
        :class:`ServiceOverloadError` (transports map it to HTTP 429).
    ``request_deadline``
        Wall-clock budget in seconds for one ``submit`` /
        ``submit_many`` call; an exhausted budget serves the degraded
        heuristic answer instead of blocking.
    ``retry_after_s``
        The hint carried by overload rejections.
    ``cache_dir``
        When set, results persist to a crash-safe journal there
        (:class:`repro.serve.persist.PersistentPartitionCache`).
    ``task_deadline`` / ``max_respawns``
        Forwarded to the worker pool's supervisor: stuck-worker
        detection and the respawn budget.
    ``fault_plan``
        Optional :class:`repro.reliability.FaultPlan` threaded into the
        registry, cache, and worker pool (tests/chaos only).
    ``shard_id``
        Identity of this process in a replicated deployment (set by the
        router's shard spawner); echoed in ``/metrics`` and ``/healthz``
        so probes and dashboards can tell shards apart.
    ``precision``
        Numeric backend of the warm pool's policy networks (``"float64"``
        / ``"float32"`` / ``"int8"``, see :mod:`repro.nn.backend`).  Like
        ``seed`` this is a per-deployment invariant, not part of the
        request fingerprint: all replicas (and any persisted
        cache/journal) of one deployment must agree on it, since the
        float32 fast path is tolerance-equivalent, not bit-identical, to
        float64 (and int8 is argmax-equivalent).  ``"int8"`` is
        inference-only — this serving config is its sole entry point.
        Ignored when an explicit ``partitioner_config`` is passed (that
        config's own ``precision`` wins).

    Admission batching (``batch_window_ms > 0`` enables coalescing):

    ``batch_window_ms``
        How long :meth:`PartitionService.submit` may hold a cache miss
        open for other concurrent submissions to join, so misses landing
        together run as **one** ``replay_batch`` fan-out instead of one
        per connection.  Fingerprint seeding makes results independent of
        batch composition, so coalescing is purely a throughput win.
        ``0`` (default) keeps the unbatched path byte-for-byte.  A leader
        that is the only admitted submission, with no other in flight
        during the last window either, waits only a 5 ms grace: with
        nobody to join, the window would only add latency (a closed-loop
        single client).
    ``batch_max_size``
        Immediate-flush cap: a window holding this many requests flushes
        without waiting out the remainder of the window.

    Per-source rate limiting (``rate_limit_rps > 0`` enables it):

    ``rate_limit_rps`` / ``rate_limit_burst``
        Token-bucket admission per client source id (the transport's
        ``X-Repro-Source`` header, falling back to the peer address).
        Over-limit submissions raise :class:`ServiceOverloadError`
        (HTTP 429 + ``Retry-After``), counted as ``rate_limited`` in
        ``/metrics`` — separate from the ``throttled`` in-flight gate.

    Request tracing (``trace_dir`` enables it; see ROADMAP "Observability
    invariants"):

    ``trace_dir``
        Directory receiving per-process ``trace-<pid>.jsonl`` files, one
        line per completed sampled trace.  ``None`` (default) disables
        tracing entirely — the hot path then sees only a context-var read.
    ``trace_sample``
        Probability a fresh trace is written, decided by a deterministic
        hash of the trace id (never an RNG).  Requests carrying an
        ``X-Repro-Trace`` header are always sampled.
    ``trace_slow_ms``
        Traces slower than this are written even when the sampler dropped
        them (``0`` disables the slow-force).
    """

    cache_capacity: int = 256
    registry_path: "str | None" = None
    pool_capacity: int = 4
    n_workers: int = 1
    default_samples: int = 16
    seed: int = 0
    timeout: float = 600.0
    max_in_flight: int = 0
    request_deadline: "float | None" = None
    retry_after_s: float = 1.0
    cache_dir: "str | None" = None
    task_deadline: "float | None" = None
    max_respawns: int = 3
    fault_plan: "object | None" = None
    shard_id: "str | None" = None
    precision: str = "float64"
    batch_window_ms: float = 0.0
    batch_max_size: int = 8
    rate_limit_rps: float = 0.0
    rate_limit_burst: int = 0
    trace_dir: "str | None" = None
    trace_sample: float = 1.0
    trace_slow_ms: float = 0.0

    def __post_init__(self):
        if self.precision not in SERVE_PRECISIONS:
            raise ValueError(
                f"precision must be one of {SERVE_PRECISIONS}"
            )
        if not 1 <= self.default_samples <= MAX_SAMPLES:
            raise ValueError(f"default_samples must be in [1, {MAX_SAMPLES}]")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.max_in_flight < 0:
            raise ValueError("max_in_flight must be >= 0 (0 disables the gate)")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive when set")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0 (0 disables coalescing)")
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        if self.rate_limit_rps < 0:
            raise ValueError("rate_limit_rps must be >= 0 (0 disables the limiter)")
        if self.rate_limit_burst < 0:
            raise ValueError("rate_limit_burst must be >= 0")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if self.trace_slow_ms < 0:
            raise ValueError("trace_slow_ms must be >= 0 (0 disables slow-force)")


#: The response-source classes ``/metrics`` breaks requests down by.
_SOURCES = ("cached", "warm", "cold", "degraded")


class ServiceMetrics:
    """The ``/metrics`` view, backed by the typed registry primitives.

    Counters and histograms live in a :class:`repro.obs.MetricsRegistry`
    (so ``?format=prometheus`` renders the *same* objects the JSON view
    reads); latency percentiles come from bounded-memory log-bucketed
    histograms instead of raw reservoirs.  The JSON ``snapshot()`` shape is
    byte-compatible with the pre-registry implementation (pinned by the
    serve tests), except that non-empty percentile blocks additionally
    carry ``p99_ms``.

    Never guarded by the service's submission lock: a monitoring scrape
    must not block behind an in-flight search.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.started = time.perf_counter()
        self.started_unix = time.time()
        self._requests_total = reg.counter("requests_total")
        self._errors = reg.counter("errors_total")
        self._throttled = reg.counter("throttled_total")
        self._rate_limited = reg.counter("rate_limited_total")
        self._by_source = {
            source: reg.counter(f"requests_by_source_{source}")
            for source in _SOURCES
        }
        self._latency_ms = {
            source: reg.histogram(f"request_latency_ms_{source}")
            for source in _SOURCES
        }
        self._degraded_at = deque(maxlen=_LATENCY_WINDOW)
        # Admission-batching observability: flushed-batch sizes (kept as an
        # exact small-integer histogram — batch sizes are bounded by
        # ``batch_max_size``, log-bucketing them would only blur the view),
        # per-member window waits, and how many requests actually shared a
        # flush with at least one other (``coalesced_requests``).
        self._batches_flushed = reg.counter("batches_flushed_total")
        self._coalesced_requests = reg.counter("coalesced_requests_total")
        self._batch_sizes: dict = {}
        self._batch_wait_ms = reg.histogram("batch_wait_ms")
        self._lock = threading.Lock()

    # Read-only views kept for callers that used the plain attributes.
    @property
    def requests_total(self) -> int:
        return self._requests_total.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def throttled(self) -> int:
        return self._throttled.value

    @property
    def rate_limited(self) -> int:
        return self._rate_limited.value

    @property
    def by_source(self) -> dict:
        return {source: c.value for source, c in self._by_source.items()}

    def record(self, source: str, latency_ms: float) -> None:
        self._requests_total.inc()
        self._by_source[source].inc()
        self._latency_ms[source].observe(float(latency_ms))
        if source == "degraded":
            with self._lock:
                self._degraded_at.append(time.monotonic())

    def degraded_recent(self, window_s: float = 60.0) -> int:
        """Degraded serves within the last ``window_s`` seconds — the
        readiness probe's "currently limping" signal, as opposed to the
        lifetime ``by_source`` counter."""
        cutoff = time.monotonic() - window_s
        with self._lock:
            return sum(1 for t in self._degraded_at if t >= cutoff)

    def record_error(self) -> None:
        self._errors.inc()

    def record_throttled(self) -> None:
        self._throttled.inc()

    def record_rate_limited(self) -> None:
        self._rate_limited.inc()

    def record_batch(self, size: int, waits_ms) -> None:
        """One coalescing flush of ``size`` members with the given
        per-member window waits (milliseconds spent parked before the
        flush started)."""
        self._batches_flushed.inc()
        if size >= 2:
            self._coalesced_requests.inc(int(size))
        with self._lock:
            self._batch_sizes[int(size)] = self._batch_sizes.get(int(size), 0) + 1
        for wait in waits_ms:
            self._batch_wait_ms.observe(float(wait))

    def snapshot(self) -> dict:
        uptime = max(time.perf_counter() - self.started, 1e-9)
        requests_total = self._requests_total.value
        with self._lock:
            batch_sizes = dict(sorted(self._batch_sizes.items()))
        return {
            "requests_total": requests_total,
            "errors": self._errors.value,
            "throttled": self._throttled.value,
            "rate_limited": self._rate_limited.value,
            "uptime_s": uptime,
            "requests_per_sec": requests_total / uptime,
            "by_source": self.by_source,
            "latency_ms": {
                source: hist.percentiles_ms()
                for source, hist in self._latency_ms.items()
            },
            "batching": {
                "batches_flushed": self._batches_flushed.value,
                "coalesced_requests": self._coalesced_requests.value,
                "batch_size_histogram": {
                    str(k): v for k, v in batch_sizes.items()
                },
                "batch_wait_ms": self._batch_wait_ms.percentiles_ms(),
            },
        }


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Not self-locking — the service's admission lock guards all access.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def try_acquire(self, now: float) -> float:
        """0.0 when a token was taken; else seconds until one accrues."""
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


#: Distinct client sources the rate limiter tracks before LRU-evicting the
#: stalest bucket (an eviction only ever *grants* a fresh burst).
_RATE_LIMIT_SOURCES = 1024


class _PendingBatch:
    """One open coalescing window: requests parked waiting for the flush.

    The leader (first submitter) owns the window timer and the flush; every
    member (leader included) reads its own slot of ``results`` once
    ``done`` is set.  ``closed`` flips under the service's coalescing lock
    — after that no submission may join.
    """

    __slots__ = ("requests", "joined_at", "results", "closed", "full", "done")

    def __init__(self):
        self.requests: list = []
        self.joined_at: list = []
        self.results: list = []
        self.closed = False
        self.full = threading.Event()
        self.done = threading.Event()


def build_environment(request: PartitionRequest) -> PartitionEnvironment:
    """The environment a request describes (package + cost model + graph).

    Module-level because two layers need it: the service's search and
    degraded paths here, and the router's last-resort degraded serve
    (:mod:`repro.serve.router`), which answers from the greedy heuristic
    when every shard replica is down and has no service instance at all.
    """
    package = MCMPackage(
        n_chips=int(request.n_chips), topology=request.topology
    )
    cost_model = (
        PipelineSimulator(package)
        if request.cost_model == "simulator"
        else AnalyticalCostModel(package)
    )
    try:
        return PartitionEnvironment(
            request.graph,
            cost_model,
            int(request.n_chips),
            objective=request.objective,
        )
    except ValueError as exc:
        raise ServiceError(str(exc)) from None


def greedy_fallback(request: PartitionRequest):
    """``(assignment, evaluated sample)`` of the degraded-path heuristic.

    Raises :class:`ServiceError` when even the heuristic cannot produce a
    valid partition for the platform (the caller reports *that* together
    with why the real search was unavailable).
    """
    env = build_environment(request)
    assignment = greedy_partition(env.graph, int(request.n_chips))
    sample = env.evaluate(assignment)
    if not sample.result.valid:
        raise ServiceError(
            f"degraded fallback for graph {request.graph.name!r} is "
            f"invalid ({sample.result.failure_reason})"
        )
    return np.asarray(assignment, dtype=np.int64), sample


class PartitionService:
    """Long-lived serving front end over the partitioning stack."""

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        registry: "CheckpointRegistry | None" = None,
        partitioner_config: "RLPartitionerConfig | None" = None,
    ):
        self.config = config or ServiceConfig()
        if registry is None and self.config.registry_path is not None:
            registry = CheckpointRegistry(
                self.config.registry_path, fault_plan=self.config.fault_plan
            )
        self.registry = registry
        if self.config.cache_dir is not None:
            self.cache: PartitionCache = PersistentPartitionCache(
                self.config.cache_capacity,
                directory=self.config.cache_dir,
                fault_plan=self.config.fault_plan,
            )
        else:
            self.cache = PartitionCache(self.config.cache_capacity)
        if partitioner_config is None and self.config.precision != "float64":
            partitioner_config = default_serving_config(
                precision=self.config.precision
            )
        self.pool = WarmPartitionerPool(
            registry=registry,
            capacity=self.config.pool_capacity,
            seed=self.config.seed,
            config=partitioner_config,
        )
        self.metrics_state = ServiceMetrics()
        self.tracer = Tracer(
            trace_dir=self.config.trace_dir,
            sample=self.config.trace_sample,
            slow_ms=self.config.trace_slow_ms,
            service=(
                f"shard:{self.config.shard_id}"
                if self.config.shard_id is not None
                else "service"
            ),
        )
        self._lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._in_flight = 0
        # When two or more submissions were last in flight together (see
        # _submit_coalesced).
        self._shared_at = float("-inf")
        # Per-source token buckets (rate limiting), LRU-bounded.
        self._buckets: "OrderedDict[str, _TokenBucket]" = OrderedDict()
        # Coalescing state: the currently open window, if any.
        self._coalesce_lock = threading.Lock()
        self._open_batch: "_PendingBatch | None" = None

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Submissions currently admitted (includes any waiting on the
        submission lock)."""
        return self._in_flight

    def _admit(self, source: "str | None" = None) -> None:
        limit = self.config.max_in_flight
        rate = self.config.rate_limit_rps
        with self._admit_lock:
            if rate > 0:
                # The per-source bucket is checked before the in-flight
                # gate: a source over its budget must not consume capacity
                # other clients could use.  ``None`` sources (in-process
                # callers, transports that send no id) share one bucket.
                with span("admission.rate_limit", source=source or ""):
                    key = source if source is not None else ""
                    now = time.monotonic()
                    bucket = self._buckets.get(key)
                    if bucket is None:
                        burst = max(self.config.rate_limit_burst, 1)
                        bucket = _TokenBucket(rate, burst, now)
                        self._buckets[key] = bucket
                        while len(self._buckets) > _RATE_LIMIT_SOURCES:
                            self._buckets.popitem(last=False)
                    self._buckets.move_to_end(key)
                    wait = bucket.try_acquire(now)
                    if wait > 0.0:
                        self.metrics_state.record_rate_limited()
                        raise ServiceOverloadError(
                            f"source {source or 'anonymous'!r} over its rate "
                            f"limit ({rate:g} req/s); retry after {wait:.3g}s",
                            retry_after=wait,
                        )
            with span("admission.in_flight", in_flight=self._in_flight):
                if limit > 0 and self._in_flight >= limit:
                    self.metrics_state.record_throttled()
                    raise ServiceOverloadError(
                        f"service over capacity: {self._in_flight} requests "
                        f"in flight (max_in_flight={limit}); retry after "
                        f"{self.config.retry_after_s:g}s",
                        retry_after=self.config.retry_after_s,
                    )
                self._in_flight += 1
                if self._in_flight > 1:
                    self._shared_at = time.monotonic()

    def _release(self) -> None:
        with self._admit_lock:
            if self._in_flight > 1:
                self._shared_at = time.monotonic()
            self._in_flight -= 1

    def close(self) -> None:
        """Flush persistent state (compacts the journal when one exists)."""
        close = getattr(self.cache, "close", None)
        if close is not None:
            close()
        self.tracer.close()

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def _validate(self, request: PartitionRequest) -> None:
        if request.objective not in ("throughput", "latency"):
            raise ServiceError(
                f"objective must be 'throughput' or 'latency', "
                f"got {request.objective!r}"
            )
        if request.cost_model not in ("analytical", "simulator"):
            raise ServiceError(
                f"cost_model must be 'analytical' or 'simulator', "
                f"got {request.cost_model!r}"
            )
        if not 1 <= request.n_chips <= MAX_CHIPS:
            raise ServiceError(f"n_chips must be in [1, {MAX_CHIPS}]")
        samples = self._samples(request)
        if not 1 <= samples <= MAX_SAMPLES:
            raise ServiceError(f"samples must be in [1, {MAX_SAMPLES}]")
        if (
            request.topology is not None
            and request.topology.n_chips != request.n_chips
        ):
            raise ServiceError(
                f"topology is for {request.topology.n_chips} chips, request "
                f"targets {request.n_chips}"
            )

    def _samples(self, request: PartitionRequest) -> int:
        return int(
            self.config.default_samples
            if request.samples is None
            else request.samples
        )

    def fingerprint(self, request: PartitionRequest) -> str:
        """The request's cache key (checkpoint version resolved)."""
        return self._fingerprint_resolved(request)[0]

    def _fingerprint_resolved(self, request: PartitionRequest) -> tuple:
        """``(fingerprint, resolved checkpoint, canonical node order)`` —
        one registry resolve and one graph canonicalisation per request,
        threaded through the whole submission path.  The node order is
        what lets a cache hit be remapped onto a same-content graph with
        permuted node ids (:meth:`CachedPartition.aligned_assignment`)."""
        self._validate(request)
        try:
            ckpt = self.pool.resolve_checkpoint(request.checkpoint, request.version)
        except KeyError as exc:
            raise ServiceError(str(exc)) from None
        graph_fp, order = canonical_form(request.graph)
        fp = request_fingerprint(
            graph_fp,
            PlatformDescriptor.of(request.n_chips, request.topology),
            objective=request.objective,
            cost_model=request.cost_model,
            samples=self._samples(request),
            checkpoint=ckpt,
        )
        return fp, ckpt, order

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, request: PartitionRequest, source: "str | None" = None
    ) -> PartitionResponse:
        """Serve one request (cache hit or zero-shot search).

        With ``batch_window_ms > 0``, concurrent submissions coalesce:
        this call may park for up to the window so cache misses arriving
        together run as one ``replay_batch`` fan-out.  Fingerprint seeding
        makes the answer identical either way — coalescing only changes
        wall-clock, never results.
        """
        if self.config.batch_window_ms <= 0:
            return self.submit_many([request], source=source)[0]
        return self._submit_coalesced(request, source)

    def submit_many(
        self,
        requests: "list[PartitionRequest]",
        source: "str | None" = None,
    ) -> "list[PartitionResponse]":
        """Serve a batch: hits answered inline, misses fanned over the pool.

        Misses sharing a (checkpoint, platform-semantics) group run as one
        :func:`repro.parallel.replay_batch`; each request's search is seeded
        by its own fingerprint, so the returned partition for a given
        request is identical whether it arrives alone or in any batch.
        Duplicate requests inside one batch are deduplicated: the search
        runs once and the copies are served from the fresh cache entry.

        An invalid or unsatisfiable request does not abort the rest: every
        other member still runs (and its result is cached) before a single
        :class:`ServiceError` summarising the failures is raised — so a
        retry without the failing requests is answered entirely from
        cache.  Members processed before such a raise are still counted in
        the metrics: their work really ran and their results are retained.

        With ``max_in_flight`` set, a submission arriving while that many
        are already admitted raises :class:`ServiceOverloadError`
        immediately (no queueing); with ``request_deadline`` set, the
        batch's wall clock starts here — groups that can't finish in
        budget are served degraded heuristic answers.
        """
        t_batch = time.perf_counter()
        self._admit(source)
        try:
            with self._lock:
                try:
                    return self._submit_locked(list(requests), t_batch)
                except ServiceError:
                    self.metrics_state.record_error()
                    raise
        finally:
            self._release()

    # ------------------------------------------------------------------
    # Cross-connection coalescing
    # ------------------------------------------------------------------
    def _submit_coalesced(
        self, request: PartitionRequest, source: "str | None"
    ) -> PartitionResponse:
        """Join (or open) the current coalescing window and await its flush.

        The first submission in a window is the *leader*: it waits out
        ``batch_window_ms`` (or until ``batch_max_size`` members joined),
        closes the window, and runs the whole batch as one locked
        submission.  A leader that is the only admitted submission, with no
        other in flight during the last window either (a closed-loop single
        client), waits only a short grace instead: nobody is there to join,
        and every miss is seeded by its own fingerprint, so the result bits
        are the same either way.  Followers park on the
        batch's ``done`` event and read their own slot.  Admission (rate
        limit + in-flight gate) happens per member *before* joining, so an
        over-limit client is rejected without delaying the window.
        """
        t_join = time.perf_counter()
        self._admit(source)
        try:
            with self._coalesce_lock:
                batch = self._open_batch
                leader = batch is None or batch.closed
                if leader:
                    batch = _PendingBatch()
                    self._open_batch = batch
                index = len(batch.requests)
                batch.requests.append(request)
                batch.joined_at.append(t_join)
                if len(batch.requests) >= self.config.batch_max_size:
                    batch.closed = True
                    if self._open_batch is batch:
                        self._open_batch = None
                    batch.full.set()
            if leader:
                window = self.config.batch_window_ms / 1e3
                with self._admit_lock:
                    alone = (
                        self._in_flight == 1
                        and time.monotonic() - self._shared_at > window
                    )
                with span("admission.batch_wait", role="leader"):
                    # Even alone, give submissions released in the same
                    # instant (a burst from idle) a moment to join.
                    batch.full.wait(
                        timeout=min(_LONE_GRACE_S, window) if alone else window
                    )
                with self._coalesce_lock:
                    batch.closed = True
                    if self._open_batch is batch:
                        self._open_batch = None
                try:
                    self._flush_batch(batch)
                finally:
                    batch.done.set()
            else:
                with span("admission.batch_wait", role="follower"):
                    batch.done.wait()
            result = batch.results[index]
            if isinstance(result, BaseException):
                raise result
            return result
        finally:
            self._release()

    def _flush_batch(self, batch: _PendingBatch) -> None:
        """Run one closed window as a single locked submission.

        Per-member outcomes: successful members get their response,
        failed members get a :class:`ServiceError` carrying *their own*
        message — member isolation identical to sequential submission
        (a failure never contaminates siblings, PR-4/6 invariants).
        """
        t_flush = time.perf_counter()
        n = len(batch.requests)
        batch.results = [None] * n
        try:
            with self._lock:
                responses, failures = self._submit_locked_core(
                    list(batch.requests), t_flush
                )
            for i in range(n):
                batch.results[i] = responses[i]
            for indices, message in failures:
                error = ServiceError(message)
                for i in indices:
                    batch.results[i] = error
                    self.metrics_state.record_error()
            for i in range(n):
                if batch.results[i] is None:
                    batch.results[i] = ServiceError(
                        "internal: batch member produced no result"
                    )
        except BaseException as exc:
            for i in range(n):
                if batch.results[i] is None:
                    batch.results[i] = exc
        self.metrics_state.record_batch(
            n, [(t_flush - t) * 1e3 for t in batch.joined_at]
        )

    def _submit_locked(self, requests, t_batch: float) -> list:
        responses, failures = self._submit_locked_core(requests, t_batch)
        if failures:
            raise ServiceError("; ".join(message for _, message in failures))
        return responses

    def _submit_locked_core(self, requests, t_batch: float) -> tuple:
        """``(responses, failures)`` for one locked batch.

        ``failures`` is a list of ``(member indices, message)`` tuples so
        callers can either combine them into one raise
        (:meth:`submit_many`'s contract) or hand each member its own
        error (the coalesced path's member isolation)."""
        responses: list = [None] * len(requests)
        groups: dict = {}
        in_flight: set = set()
        duplicates: list = []
        failures: list = []
        failed_fps: dict = {}
        degraded_fps: dict = {}
        for i, request in enumerate(requests):
            t0 = time.perf_counter()
            try:
                with span("fingerprint", graph=request.graph.name):
                    fp, ckpt, order = self._fingerprint_resolved(request)
            except ServiceError as exc:
                # An invalid member must not abort its siblings (the
                # batch-isolation contract of submit_many).
                failures.append(([i], str(exc)))
                continue
            if fp in in_flight:
                # Same fingerprint already queued in this batch: search
                # once, serve this copy from the entry it will store.  No
                # cache probe here — the primary's miss is already counted.
                duplicates.append((i, request, fp, ckpt, order))
                continue
            with span("cache.lookup") as _sp:
                entry = self.cache.get(fp)
                _sp.set(hit=entry is not None)
            if entry is not None:
                latency_ms = (time.perf_counter() - t0) * 1e3
                self.metrics_state.record("cached", latency_ms)
                responses[i] = self._response_from_entry(
                    request, fp, ckpt, order, entry, latency_ms
                )
                continue
            in_flight.add(fp)
            group_key = (
                ckpt,
                int(request.n_chips),
                _topology_semantics(request.topology, int(request.n_chips)),
            )
            groups.setdefault(group_key, []).append((i, request, fp, ckpt, order))

        fresh: dict = {}
        for members in groups.values():
            group_failures = self._run_group(
                members, responses, fresh, t_batch, degraded_fps
            )
            failures.extend(group_failures)
            for indices, message in group_failures:
                for member in members:
                    if member[0] in indices:
                        failed_fps.setdefault(member[2], message)
        for i, request, fp, ckpt, order in duplicates:
            # Served from the entry the primary stored this batch (held in
            # ``fresh`` so a tiny cache whose LRU already evicted it can't
            # leave the duplicate unanswered).  The cache-serve step is
            # timed on its own: the duplicate's wait on the primary's
            # search is already accounted under the primary's cold/warm
            # record, and folding it into the "cached" class would corrupt
            # the sub-millisecond hit percentiles.
            t0 = time.perf_counter()
            entry = fresh.get(fp)
            if entry is None:
                if fp in degraded_fps:
                    # The primary was answered degraded (nothing cached to
                    # copy) — degrade this duplicate the same way.
                    failure = self._serve_degraded(
                        (i, request, fp, ckpt, order),
                        degraded_fps[fp],
                        responses,
                        t0,
                    )
                    if failure is not None:
                        failures.append(([i], failure))
                elif fp in failed_fps:
                    # The primary failed; this copy fails with the same
                    # message (per-member delivery on the coalesced path;
                    # submit_many folds it into the combined raise).
                    failures.append(([i], failed_fps[fp]))
                continue
            latency_ms = (time.perf_counter() - t0) * 1e3
            self.metrics_state.record("cached", latency_ms)
            responses[i] = self._response_from_entry(
                request, fp, ckpt, order, entry, latency_ms
            )
        return responses, failures

    def _deadline_left(self, t_batch: float) -> "float | None":
        """Seconds of ``request_deadline`` budget remaining (``None`` =
        no deadline configured; may be <= 0 when already exhausted)."""
        if self.config.request_deadline is None:
            return None
        return self.config.request_deadline - (time.perf_counter() - t_batch)

    def _run_group(
        self,
        members,
        responses,
        fresh: "dict | None" = None,
        t_batch: "float | None" = None,
        degraded_fps: "dict | None" = None,
    ) -> "list[tuple]":
        """Search one miss group; returns ``(indices, message)`` failure
        tuples (never raises past a member, so sibling requests always
        complete).  Stored entries are also recorded into ``fresh`` for
        in-batch duplicates.

        Latency accounting starts at *group* start, so a member's cold/
        warm record covers its own group's work — earlier groups in the
        same batch don't inflate it (members within a group share the
        batch's wall time, which is what each of them actually waited).

        Degradation: a group whose deadline budget is already spent,
        whose checkpoint bytes can't be loaded, or whose search times
        out/fails is answered by :meth:`_serve_degraded` for every
        member instead of erroring (client errors still fail)."""
        t_group = time.perf_counter()
        if t_batch is None:
            t_batch = t_group
        first, first_ckpt = members[0][1], members[0][3]
        left = self._deadline_left(t_batch)
        if left is not None and left <= 0:
            return self._degrade_group(
                members, "request deadline exhausted before search",
                responses, t_group, degraded_fps,
            )
        try:
            # Hand the pool the *already resolved* (name, version) pair,
            # not the raw request spec: a checkpoint published between
            # fingerprinting and here must not shift a version=None
            # request to different weights than its cache key claims (and
            # the pool then skips a redundant registry re-resolve).
            with span("checkpoint.install") as _sp:
                partitioner, cold = self.pool.get(
                    first.n_chips,
                    topology=first.topology,
                    resolved=first_ckpt,
                )
                _sp.set(cold=cold)
        except RegistryError as exc:
            if not exc.degradable:
                return [([m[0] for m in members], str(exc))]
            return self._degrade_group(
                members, f"checkpoint unusable ({exc})",
                responses, t_group, degraded_fps,
            )
        except OSError as exc:
            return self._degrade_group(
                members, f"checkpoint load failed ({exc})",
                responses, t_group, degraded_fps,
            )
        except KeyError as exc:
            return [([m[0] for m in members], str(exc))]
        source = "cold" if cold else "warm"
        failures: list = []
        runnable, envs, feats, seeds, budgets = [], [], [], [], []
        for member in members:
            request, fp = member[1], member[2]
            try:
                env = self._build_env(request)
            except ServiceError as exc:
                failures.append(([member[0]], str(exc)))
                continue
            runnable.append(member)
            envs.append(env)
            feats.append(featurize(env.graph, partitioner.effective_topology(env)))
            seeds.append((self.config.seed, SERVE_SEED_TAG, int(fp[:15], 16)))
            budgets.append(self._samples(request))
        members = runnable
        if not members:
            return failures
        timeout = self.config.timeout
        left = self._deadline_left(t_batch)
        if left is not None:
            # The search may use whatever deadline budget the batch still
            # has (earlier groups included); a late timeout degrades
            # rather than errors.
            timeout = min(timeout, max(left, 0.05))
        try:
            with span("search.replay_batch", n_requests=len(envs)):
                results = replay_batch(
                    partitioner,
                    envs,
                    budgets,
                    seeds,
                    config=ParallelConfig(
                        n_workers=self.config.n_workers,
                        seed=0,
                        timeout=timeout,
                        task_deadline=self.config.task_deadline,
                        max_respawns=self.config.max_respawns,
                        fault_plan=self.config.fault_plan,
                    ),
                    features=feats,
                )
        except TimeoutError:
            failures.extend(
                self._degrade_group(
                    members,
                    f"search exceeded its deadline ({timeout:.3g}s)",
                    responses, t_group, degraded_fps,
                )
            )
            return failures
        except RuntimeError as exc:
            failures.extend(
                self._degrade_group(
                    members, f"search worker pool failed ({exc})",
                    responses, t_group, degraded_fps,
                )
            )
            return failures
        for (i, request, fp, ckpt, order), env, result in zip(members, envs, results):
            if result.best_assignment is None:
                failures.append((
                    [i],
                    f"no valid partition found for graph "
                    f"{request.graph.name!r} within {self._samples(request)} "
                    "samples (raise the budget or relax the platform)",
                ))
                continue
            check = env.evaluate(result.best_assignment)
            entry = CachedPartition(
                fingerprint=fp,
                assignment=result.best_assignment,
                improvement=float(result.best_improvement),
                node_order=order,
                objective=request.objective,
                throughput=float(check.result.throughput),
                latency_us=float(check.result.latency_us),
                metadata={
                    "samples": self._samples(request),
                    "source": source,
                    "graph": request.graph.name,
                },
            )
            self.cache.put(fp, entry)
            if fresh is not None:
                fresh[fp] = entry
            latency_ms = (time.perf_counter() - t_group) * 1e3
            self.metrics_state.record(source, latency_ms)
            responses[i] = self._response_from_entry(
                request, fp, ckpt, order, entry, latency_ms,
                cached=False, source=source,
            )
        return failures

    def _degrade_group(
        self, members, reason, responses, t_start, degraded_fps
    ) -> "list[tuple]":
        """Answer every group member with the heuristic fallback."""
        failures = []
        for member in members:
            if degraded_fps is not None:
                degraded_fps[member[2]] = reason
            failure = self._serve_degraded(member, reason, responses, t_start)
            if failure is not None:
                failures.append(([member[0]], failure))
        return failures

    def _serve_degraded(
        self, member, reason: str, responses, t_start: float
    ) -> "str | None":
        """Serve one member from the greedy heuristic baseline.

        This is the graceful-degradation path: no policy weights, no
        solver — just the fastest always-available heuristic, evaluated
        once for honest cost numbers.  The response is marked
        ``degraded`` and is **never cached**: a cache must only ever
        hold the answers the service actually promises, and a later
        request (once the fault clears) must get the real search.
        Returns a failure message instead when even the heuristic can't
        produce a valid partition."""
        i, request, fp, ckpt, order = member
        try:
            assignment, sample = greedy_fallback(request)
        except ServiceError as exc:
            return f"{exc}; real search unavailable: {reason}"
        latency_ms = (time.perf_counter() - t_start) * 1e3
        self.metrics_state.record("degraded", latency_ms)
        responses[i] = PartitionResponse(
            fingerprint=fp,
            assignment=assignment,
            improvement=float(sample.improvement),
            objective=request.objective,
            cached=False,
            source="degraded",
            latency_ms=latency_ms,
            samples=0,
            n_chips=int(request.n_chips),
            checkpoint=ckpt,
            throughput=float(sample.result.throughput),
            latency_us=float(sample.result.latency_us),
            degraded=True,
            degraded_reason=reason,
        )
        return None

    def _response_from_entry(
        self,
        request: PartitionRequest,
        fp: str,
        ckpt: "tuple | None",
        order: "np.ndarray | None",
        entry: CachedPartition,
        latency_ms: float,
        cached: bool = True,
        source: str = "cached",
    ) -> PartitionResponse:
        with span("assignment.remap"):
            assignment = entry.aligned_assignment(order)
        return PartitionResponse(
            fingerprint=fp,
            assignment=assignment,
            improvement=entry.improvement,
            objective=entry.objective,
            cached=cached,
            source=source,
            latency_ms=latency_ms,
            samples=self._samples(request),
            n_chips=int(request.n_chips),
            checkpoint=ckpt,
            throughput=entry.throughput,
            latency_us=entry.latency_us,
        )

    def _build_env(self, request: PartitionRequest) -> PartitionEnvironment:
        return build_environment(request)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> "tuple[bool, dict]":
        """Readiness probe: ``(ready, JSON payload)`` for ``GET /healthz``.

        Liveness is implied by answering at all; *readiness* is what the
        payload decides, and the transport maps ``ready=False`` to a 503 so
        a router/orchestrator can stop sending work without killing the
        process.  Not ready when:

        * **saturated** — the admission gate is full (``in_flight`` has
          reached ``max_in_flight``); new work would only earn 429s; or
        * **registry unreachable** — a *configured* checkpoint registry's
          root directory has gone missing (every checkpointed request would
          degrade).  A service deliberately running without a registry is
          ready: serving the untrained policy is its normal job.

        ``degraded_recent`` (last 60 s) rides along so probes can tell a
        healthy shard from one that is alive but limping on fallbacks, and
        ``shard_id`` / ``registry_versions`` / ``uptime_s`` make one probe
        log line attributable without a second ``/metrics`` scrape.
        ``blas_threads`` is the effective OpenBLAS thread count (``None``
        when numpy's bundled OpenBLAS is not found).
        """
        limit = self.config.max_in_flight
        in_flight = self._in_flight
        saturated = limit > 0 and in_flight >= limit
        registry_ok = self.registry is None or os.path.isdir(self.registry.root)
        ready = not saturated and registry_ok
        registry_versions = None
        if self.registry is not None and registry_ok:
            try:
                registry_versions = sum(
                    len(self.registry.versions(name))
                    for name in self.registry.names()
                )
            except OSError:
                registry_versions = None
        payload = {
            "ok": ready,
            "shard_id": self.config.shard_id,
            "uptime_s": time.perf_counter() - self.metrics_state.started,
            "in_flight": in_flight,
            "max_in_flight": limit,
            "saturated": saturated,
            "registry_configured": self.registry is not None,
            "registry_ok": registry_ok,
            "registry_versions": registry_versions,
            "degraded_recent": self.metrics_state.degraded_recent(60.0),
            "blas_threads": blas_threads(),
        }
        return ready, payload

    def metrics(self) -> dict:
        """JSON-safe snapshot: request counters, hit rate, latency percentiles.

        Deliberately does **not** take the submission lock (a scrape must
        not block behind an in-flight search); counters are guarded by the
        metrics' own lock, and the cache/pool gauges are simple reads whose
        worst case is being one request stale.
        """
        snap = self.metrics_state.snapshot()
        snap["cache"] = self.cache.stats()
        snap["pool"] = {
            "size": len(self.pool),
            "capacity": self.pool.capacity,
            "builds": self.pool.builds,
            "weight_loads": self.pool.weight_loads,
        }
        snap["batching"]["window_ms"] = self.config.batch_window_ms
        snap["batching"]["max_size"] = self.config.batch_max_size
        snap["reliability"] = {
            "in_flight": self._in_flight,
            "max_in_flight": self.config.max_in_flight,
            "request_deadline_s": self.config.request_deadline,
            "degraded_serves": snap["by_source"]["degraded"],
            "throttled": snap["throttled"],
            "rate_limited": snap["rate_limited"],
            "rate_limit_rps": self.config.rate_limit_rps,
        }
        quant = self.pool.quantization_stats()
        if quant is not None:
            snap["int8_quantization"] = quant
        if self.config.shard_id is not None:
            snap["shard"] = {"id": self.config.shard_id}
        if self.config.fault_plan is not None:
            counts = self.config.fault_plan.counts()
            snap["reliability"]["faults_armed"] = counts["armed"]
            snap["reliability"]["faults_fired"] = counts["fired_total"]
            snap["reliability"]["faults_by_site"] = counts["fired_by_site"]
            describe = getattr(self.config.fault_plan, "describe", None)
            if describe is not None:
                snap["reliability"]["fault_plan"] = describe()
        return snap

    def prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: the registry as text exposition.

        The typed metrics (counters + log-bucketed latency histograms with
        real ``le=`` buckets) render from the same registry the JSON view
        reads; the derived subsystem gauges (cache, pool, reliability) are
        flattened from the same snapshot, so the two formats can never
        drift apart.
        """
        snap = self.metrics()
        extra = {
            key: snap[key]
            for key in ("cache", "pool", "reliability")
            if key in snap
        }
        return self.metrics_state.registry.render() + prometheus_from_snapshot(
            extra
        )
