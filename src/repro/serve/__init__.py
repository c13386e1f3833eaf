"""Partition-as-a-service: a long-lived serving layer over the partitioner.

The paper's transferability claim — a pretrained policy produces good
partitions for unseen graphs in seconds — pays off operationally only when
the system runs as a service: weights loaded once, repeated requests
answered from a cache, metrics observable.  This package provides exactly
that, with four pieces:

* :mod:`repro.serve.fingerprint` — canonical content hashes for graphs and
  requests (insertion-order and serialisation-roundtrip invariant);
* :mod:`repro.serve.cache` — a bounded LRU mapping request fingerprints to
  bit-identical stored partitions;
* :mod:`repro.serve.registry` — named, versioned policy checkpoints on disk
  plus a warm pool of live partitioners;
* :mod:`repro.serve.service` / :mod:`repro.serve.server` — the in-process
  :class:`PartitionService` front end and the one stdlib-HTTP JSON front
  that serves it, or the router (CLI: ``repro serve`` / ``repro request``);
* :mod:`repro.serve.persist` — the crash-safe journal-backed variant of
  the result cache (``--cache-dir``), surviving restarts;
* :mod:`repro.serve.router` — the replicated sharded tier: a
  consistent-hash router over N shard processes with health-checked
  failover, per-shard circuit breakers, and hedged requests (CLI:
  ``repro route``).

See the "Serving invariants" and "Reliability invariants" sections of
ROADMAP.md for what may be cached, what keys it, what invalidates it, and
how the service degrades under faults.
"""

from repro.serve.cache import CachedPartition, PartitionCache
from repro.serve.persist import PersistentPartitionCache
from repro.serve.fingerprint import (
    PlatformDescriptor,
    canonical_form,
    graph_fingerprint,
    request_fingerprint,
)
from repro.serve.registry import (
    CheckpointRegistry,
    RegistryError,
    WarmPartitionerPool,
)
from repro.serve.router import (
    CircuitBreaker,
    HashRing,
    RouterConfig,
    ShardEndpoint,
    ShardRouter,
    routing_key,
    spawn_shard,
)
from repro.serve.server import (
    PartitionServer,
    fetch_metrics,
    request_from_payload,
    request_partition,
    response_to_payload,
)
from repro.serve.service import (
    PartitionRequest,
    PartitionResponse,
    PartitionService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadError,
)

__all__ = [
    "CachedPartition",
    "CheckpointRegistry",
    "CircuitBreaker",
    "HashRing",
    "PartitionCache",
    "PartitionRequest",
    "PartitionResponse",
    "PartitionServer",
    "PartitionService",
    "PersistentPartitionCache",
    "PlatformDescriptor",
    "RegistryError",
    "RouterConfig",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadError",
    "ShardEndpoint",
    "ShardRouter",
    "WarmPartitionerPool",
    "canonical_form",
    "fetch_metrics",
    "graph_fingerprint",
    "request_from_payload",
    "request_partition",
    "request_fingerprint",
    "response_to_payload",
    "routing_key",
    "spawn_shard",
]
