"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``       summarise a graph (zoo name or .npz file)
``partition``  search a partition and print the per-chip report
``validate``   check an assignment file against the static constraints
``zoo``        list the built-in zoo graphs
``serve``      run the partition-as-a-service HTTP endpoint (one shard)
``route``      run the replicated sharded tier: spawn N shards behind a
               consistent-hash router with failover and hedging
``request``    ask a running server for a partition
``metrics``    fetch a server's /metrics snapshot and pretty-print it

Examples
--------
``python -m repro partition bert --method rl --samples 200``
    Serial constrained-RL search (the default single-process path).
``python -m repro partition bert --method rl --samples 200 --workers 4``
    Same search with rollouts fanned over 4 worker processes
    (:mod:`repro.parallel`); ``--workers 1`` is the serial path,
    bit-for-bit.
``python -m repro partition bert --chips 8 --eager-frontier on``
    Force the solver's eager triangle-frontier strengthening above its
    4-chip heuristic default.
``python -m repro partition cnn --topology mesh --mesh-dims 2x2``
    Re-target the whole framework to a 2x2 mesh interconnect; ``biring``
    and ``crossbar`` work the same way (``uniring`` is the paper's
    platform and the default).
``python -m repro serve --port 8080 --registry ./checkpoints``
    Long-lived serving mode: fingerprint-keyed result cache, warm policy
    pool over the checkpoint registry, ``/metrics`` endpoint.
``python -m repro request bert --port 8080 --chips 8``
    Ask the running server for a partition (repeat requests are cache
    hits and come back in microseconds).
``python -m repro route --shards 3 --replication 2 --port 8080``
    Replicated deployment: three shard processes behind one router; each
    request consistent-hashes onto 2 replicas, fails over on shard death,
    hedges the tail.  ``repro request`` works against it unchanged.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import analyze_partition, format_partition_report
from repro.core.baselines import (
    HillClimbing,
    RandomSearch,
    SimulatedAnnealing,
    greedy_partition,
)
from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.graph import CompGraph
from repro.graphs.serialization import load_graph
from repro.graphs.zoo import (
    build_autoencoder,
    build_bert,
    build_cnn,
    build_decoder,
    build_gru,
    build_inception_cnn,
    build_lstm,
    build_mlp,
    build_mobilenet,
    build_residual_cnn,
    build_unet,
)
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.hardware.simulator import PipelineSimulator
from repro.hardware.topology import TOPOLOGY_NAMES, make_topology, parse_mesh_dims
from repro.parallel import ParallelConfig, parallel_search
from repro.rl.ppo import PPOConfig
from repro.solver.constraints import validate_partition

_ZOO = {
    "bert": lambda: build_bert(layers=4, hidden=256, heads=8, seq=128, target_nodes=None),
    "bert-large": build_bert,
    "cnn": build_cnn,
    "resnet": build_residual_cnn,
    "inception": build_inception_cnn,
    "lstm": build_lstm,
    "gru": build_gru,
    "mlp": build_mlp,
    "autoencoder": build_autoencoder,
    "decoder": build_decoder,
    "unet": build_unet,
    "mobilenet": build_mobilenet,
}


def _resolve_graph(spec: str) -> CompGraph:
    """A zoo name or a path to a ``.npz`` saved graph."""
    if spec in _ZOO:
        return _ZOO[spec]()
    if spec.endswith(".npz"):
        return load_graph(spec)
    raise SystemExit(
        f"unknown graph {spec!r}: expected one of {sorted(_ZOO)} or a .npz path"
    )


def _resolve_zoo_graph(spec: str) -> CompGraph:
    """Zoo names only — the resolver the HTTP server gets.

    Unlike :func:`_resolve_graph` this never touches the filesystem: a
    network client must not be able to make the server read server-local
    ``.npz`` paths (``repro request`` inlines local files instead).
    """
    if spec in _ZOO:
        return _ZOO[spec]()
    raise KeyError(spec)


def _cmd_info(args) -> int:
    graph = _resolve_graph(args.graph)
    print(graph.summary())
    return 0


def _cmd_zoo(args) -> int:
    for name in sorted(_ZOO):
        print(name)
    return 0


def _resolve_mesh(args) -> tuple:
    """``(chips, dims)`` from ``--chips`` / ``--topology`` / ``--mesh-dims``.

    The one contract for every verb taking topology flags (``partition``,
    ``validate``, ``request``): dims only apply to a mesh, and they pin the
    chip count.  ``chips`` stays ``None`` when neither flag decides it.
    """
    chips = args.chips
    dims = None
    if getattr(args, "mesh_dims", None):
        if args.topology != "mesh":
            raise SystemExit("--mesh-dims applies to --topology mesh only")
        try:
            dims = parse_mesh_dims(args.mesh_dims)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if chips is None:
            chips = dims[0] * dims[1]
        elif chips != dims[0] * dims[1]:
            raise SystemExit(
                f"--chips {chips} conflicts with --mesh-dims "
                f"{dims[0]}x{dims[1]} ({dims[0] * dims[1]} chips)"
            )
    return chips, dims


def _resolve_package(args) -> MCMPackage:
    """Build the package from ``--chips`` / ``--topology`` / ``--mesh-dims``."""
    chips, dims = _resolve_mesh(args)
    if chips is None:
        chips = 4
    try:
        topology = make_topology(args.topology, chips, dims)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return MCMPackage(n_chips=chips, topology=topology)


def _cmd_partition(args) -> int:
    graph = _resolve_graph(args.graph)
    package = _resolve_package(args)
    n_chips = package.n_chips
    cost_model = (
        PipelineSimulator(package) if args.platform == "simulator"
        else AnalyticalCostModel(package)
    )
    env = PartitionEnvironment(graph, cost_model, n_chips, objective=args.objective)
    if args.workers > 1 and args.method != "rl":
        print("--workers applies to --method rl only", file=sys.stderr)
        return 2
    if args.eager_frontier != "auto" and args.method != "rl":
        # Only the RL partitioner's solver plumbing honours the flag; fail
        # loudly rather than silently benchmark the wrong configuration.
        print("--eager-frontier applies to --method rl only", file=sys.stderr)
        return 2
    if args.precision != "float64" and args.method != "rl":
        print("--precision applies to --method rl only", file=sys.stderr)
        return 2
    profiler = None
    if args.profile or args.profile_log:
        if args.method != "rl":
            print("--profile applies to --method rl only", file=sys.stderr)
            return 2
        from repro.obs.profile import PhaseTimer

        profiler = PhaseTimer(log_path=args.profile_log)

    if args.method == "greedy":
        assignment = greedy_partition(graph, n_chips)
        improvement = env.evaluate(assignment).improvement
    else:
        eager_frontier = {"auto": None, "on": True, "off": False}[args.eager_frontier]
        # The default uni-ring stays on the legacy path (topology=None:
        # legacy solver engine and feature width, bit-for-bit); any other
        # interconnect runs the topology-conditioned partitioner.
        rl_topology = None if package.topology.is_total_order else package.topology
        searchers = {
            "random": lambda: RandomSearch(rng=args.seed),
            "sa": lambda: SimulatedAnnealing(rng=args.seed),
            "hill": lambda: HillClimbing(rng=args.seed),
            "rl": lambda: RLPartitioner(
                n_chips,
                config=RLPartitionerConfig(
                    hidden=64, n_sage_layers=4,
                    triangle_frontier=eager_frontier,
                    precision=args.precision,
                    ppo=PPOConfig(n_rollouts=10, n_minibatches=2, n_epochs=4),
                ),
                rng=args.seed,
                topology=rl_topology,
            ),
        }
        searcher = searchers[args.method]()
        if profiler is not None:
            # Zero-perturbation hook: the partitioner only reads this to
            # pick a timing context; the search path is otherwise identical.
            searcher.profiler = profiler
        if args.method == "rl" and args.workers > 1:
            # Parallel rollout pool; --workers 1 stays the serial path
            # (bit-for-bit identical to earlier releases).
            result = parallel_search(
                searcher,
                env,
                args.samples,
                config=ParallelConfig(n_workers=args.workers, seed=args.seed),
            )
        else:
            result = searcher.search(env, args.samples)
        if result.best_assignment is None:
            print("no valid partition found", file=sys.stderr)
            return 1
        assignment, improvement = result.best_assignment, result.best_improvement

    print(format_partition_report(analyze_partition(graph, assignment, package)))
    print(f"\n{args.objective} improvement over greedy heuristic: {improvement:.3f}x")
    if profiler is not None:
        print()
        print(profiler.format())
        profiler.log_event(
            "partition_profile",
            graph=args.graph,
            method=args.method,
            samples=args.samples,
            workers=args.workers,
            **profiler.breakdown(),
        )
    if args.output:
        np.save(args.output, assignment)
        print(f"assignment written to {args.output}")
    return 0


def _cmd_validate(args) -> int:
    graph = _resolve_graph(args.graph)
    assignment = np.load(args.assignment)
    package = _resolve_package(args)
    report = validate_partition(
        graph, assignment, package.n_chips, topology=package.topology
    )
    if report.ok:
        print("valid: all static constraints satisfied")
        return 0
    print(f"INVALID: {', '.join(report.violated)}")
    return 1


def _parse_fault_plan(args):
    """``--fault-plan``/``--fault-seed`` → armed :class:`FaultPlan` (or None).

    A malformed spec is a usage error (exit 2 with the grammar), not a
    server that silently runs without its chaos schedule.
    """
    if getattr(args, "fault_plan", None) is None:
        return None
    from repro.reliability import FaultPlan

    try:
        return FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(f"--fault-plan: {exc}")


def _cmd_serve(args) -> int:
    """Run the partition-as-a-service HTTP endpoint (foreground)."""
    from repro.serve import PartitionServer, PartitionService, ServiceConfig

    config = ServiceConfig(
        cache_capacity=args.cache_capacity,
        registry_path=args.registry,
        n_workers=args.workers,
        default_samples=args.samples,
        seed=args.seed,
        max_in_flight=args.max_in_flight,
        request_deadline=args.request_deadline,
        cache_dir=args.cache_dir,
        fault_plan=_parse_fault_plan(args),
        shard_id=args.shard_id,
        precision=args.precision,
        batch_window_ms=args.batch_window_ms,
        batch_max_size=args.batch_max_size,
        rate_limit_rps=args.rate_limit,
        rate_limit_burst=args.rate_limit_burst,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
        trace_slow_ms=args.trace_slow_ms,
    )
    # The warm pool's untrained-policy network defaults to
    # repro.serve.registry.default_serving_config (the CLI's 64x4 sizing).
    service = PartitionService(config)
    server = PartitionServer(
        service,
        host=args.host,
        port=args.port,
        graph_resolver=_resolve_zoo_graph,
        verbose=args.verbose,
        # Single-threaded HTTP when (a) a bounded run must finish each
        # request before counting it (see PartitionServer docstring), or
        # (b) cache misses fork a worker pool — fork() from one of many
        # live handler threads can inherit a lock held mid-operation and
        # deadlock the forked worker.
        threaded=args.max_requests is None and args.workers < 2,
    )
    # Machine-readable first line: smoke tests / scripts bind --port 0 and
    # parse the ephemeral port from here.
    print(f"serving on {server.host}:{server.port}", flush=True)
    try:
        if args.max_requests is not None:
            for _ in range(args.max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        service.close()  # compacts the persistent cache journal, if any
    return 0


def _cmd_route(args) -> int:
    """Spawn N shards and run the consistent-hash router in front of them."""
    from repro.serve import PartitionServer, RouterConfig, ShardRouter

    config = RouterConfig(
        replication=args.replication,
        vnodes=args.vnodes,
        default_samples=args.samples,
        probe_interval_s=args.probe_interval,
        shard_timeout_s=args.shard_timeout,
        failure_threshold=args.failure_threshold,
        breaker_reset_s=args.breaker_reset,
        hedge=not args.no_hedge,
        fault_plan=_parse_fault_plan(args),
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
        trace_slow_ms=args.trace_slow_ms,
    )
    router = ShardRouter.spawn(
        args.shards,
        config=config,
        graph_resolver=_resolve_zoo_graph,
        seed=args.seed,
        registry=args.registry,
        cache_capacity=args.cache_capacity,
        max_in_flight=args.max_in_flight,
        precision=args.precision,
        batch_window_ms=args.batch_window_ms,
        batch_max_size=args.batch_max_size,
    )
    server = PartitionServer(
        router, host=args.host, port=args.port, verbose=args.verbose
    )
    # Same machine-readable first line as `repro serve`: the router is
    # wire-compatible with a shard, so scripts parse both identically.
    print(f"serving on {server.host}:{server.port}", flush=True)
    for shard_id, info in sorted(router.metrics()["shards"].items()):
        print(f"shard {shard_id} on {info['address']}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        router.close()  # terminates the spawned shard processes
    return 0


def _cmd_request(args) -> int:
    """Send one request to a running server and print the reply."""
    import json

    from repro.graphs.serialization import graph_to_dict
    from repro.serve import ServiceError, request_partition

    if args.graph in _ZOO:
        graph_payload: "str | dict" = args.graph
    elif args.graph.endswith(".npz"):
        # Local file: inline it — the server need not share our filesystem.
        graph_payload = graph_to_dict(load_graph(args.graph))
    else:
        raise SystemExit(
            f"unknown graph {args.graph!r}: expected one of {sorted(_ZOO)} "
            "or a .npz path"
        )
    chips, _ = _resolve_mesh(args)
    payload = {
        "graph": graph_payload,
        "chips": chips if chips is not None else 4,
        "topology": args.topology,
        "mesh_dims": args.mesh_dims,
        "objective": args.objective,
        "platform": args.platform,
    }
    if args.samples is not None:
        payload["samples"] = args.samples
    if args.checkpoint is not None:
        payload["checkpoint"] = args.checkpoint
    if args.checkpoint_version is not None:
        payload["checkpoint_version"] = args.checkpoint_version
    try:
        reply = request_partition(
            payload,
            host=args.host,
            port=args.port,
            timeout=args.timeout,
            retries=args.retries,
            trace_id=args.trace_id,
        )
    except (ServiceError, OSError) as exc:
        print(f"request failed: {exc}", file=sys.stderr)
        return 1
    assignment = np.asarray(reply["assignment"], dtype=np.int64)
    if args.output:
        np.save(args.output, assignment)
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if reply.get("degraded"):
        source = f"DEGRADED: {reply.get('degraded_reason', 'fallback')}"
    elif reply["cached"]:
        source = "cache hit"
    else:
        source = f"computed ({reply['source']})"
    print(f"fingerprint: {reply['fingerprint'][:16]}…  [{source}]")
    print(
        f"{reply['objective']} improvement over greedy heuristic: "
        f"{reply['improvement']:.3f}x  ({reply['latency_ms']:.1f} ms)"
    )
    counts = np.bincount(assignment, minlength=reply["chips"])
    print("ops per chip:", " ".join(str(int(c)) for c in counts))
    if args.output:
        print(f"assignment written to {args.output}")
    return 0


def _cmd_metrics(args) -> int:
    """Fetch /metrics from a running server and pretty-print it."""
    import json
    import time as _time

    from repro.analysis.report import format_service_metrics
    from repro.serve import fetch_metrics

    while True:
        try:
            snapshot = fetch_metrics(
                host=args.host, port=args.port, timeout=args.timeout, retries=0
            )
        except OSError as exc:
            print(f"metrics fetch failed: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(format_service_metrics(snapshot))
        if not args.watch:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0
        print()


def _add_topology_args(parser) -> None:
    parser.add_argument(
        "--topology",
        choices=list(TOPOLOGY_NAMES),
        default="uniring",
        help="interconnect topology (uniring is the paper's platform)",
    )
    parser.add_argument(
        "--mesh-dims",
        default=None,
        metavar="RxC",
        help="mesh grid dimensions, e.g. 2x3 (--topology mesh only; "
        "defaults to the most-square factorisation of --chips)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MCM model partitioning toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarise a graph")
    p_info.add_argument("graph", help="zoo name or .npz path")
    p_info.set_defaults(fn=_cmd_info)

    p_zoo = sub.add_parser("zoo", help="list built-in zoo graphs")
    p_zoo.set_defaults(fn=_cmd_zoo)

    p_part = sub.add_parser("partition", help="search a partition")
    p_part.add_argument("graph", help="zoo name or .npz path")
    p_part.add_argument(
        "--chips",
        type=int,
        default=None,
        help="number of chiplets (default 4, or rows*cols with --mesh-dims)",
    )
    _add_topology_args(p_part)
    p_part.add_argument(
        "--method", choices=["greedy", "random", "sa", "hill", "rl"], default="rl"
    )
    p_part.add_argument("--samples", type=int, default=50)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument(
        "--platform", choices=["analytical", "simulator"], default="analytical"
    )
    p_part.add_argument(
        "--objective", choices=["throughput", "latency"], default="throughput"
    )
    p_part.add_argument(
        "--workers",
        type=int,
        default=1,
        help="rollout worker processes for --method rl (1 = serial path, "
        "bit-for-bit identical to previous releases; >= 2 fans rollouts "
        "over a deterministic multiprocessing pool)",
    )
    p_part.add_argument(
        "--eager-frontier",
        choices=["auto", "on", "off"],
        default="auto",
        help="solver eager triangle-frontier strengthening: 'auto' enables "
        "it only at <= 4 chips (the heuristic default), 'on'/'off' force it "
        "— 'on' helps wedge-heavy instances above 4 chips",
    )
    p_part.add_argument(
        "--precision",
        choices=["float64", "float32"],
        default="float64",
        help="policy-network numeric backend: 'float64' is the frozen "
        "bit-for-bit default, 'float32' the fused-GEMM fast path "
        "(tolerance-pinned; ~1.5x+ search samples/sec)",
    )
    p_part.add_argument("--output", help="write the assignment to this .npy path")
    p_part.add_argument(
        "--profile", action="store_true",
        help="attribute search wall time to rollout / solver / encoder / "
             "ppo_update / pool_ipc phases and print the breakdown "
             "(--method rl only; zero-perturbation — results are identical)",
    )
    p_part.add_argument(
        "--profile-log", default=None, metavar="PATH",
        help="append the phase breakdown as a JSONL event here "
             "(implies --profile)",
    )
    p_part.set_defaults(fn=_cmd_partition)

    p_val = sub.add_parser("validate", help="validate an assignment file")
    p_val.add_argument("graph", help="zoo name or .npz path")
    p_val.add_argument("assignment", help=".npy assignment path")
    p_val.add_argument("--chips", type=int, default=None)
    _add_topology_args(p_val)
    p_val.set_defaults(fn=_cmd_validate)

    p_serve = sub.add_parser(
        "serve", help="run the partition-as-a-service HTTP endpoint"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 binds an ephemeral port, printed on start-up)",
    )
    p_serve.add_argument(
        "--registry", default=None,
        help="checkpoint registry directory (enables --checkpoint requests)",
    )
    p_serve.add_argument("--cache-capacity", type=int, default=256)
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="rollout workers for cache-miss searches (1 = in-process)",
    )
    p_serve.add_argument(
        "--samples", type=int, default=16,
        help="default zero-shot draw budget per cache miss",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="persist the result cache to a crash-safe journal here "
             "(restarts warm-start from it)",
    )
    p_serve.add_argument(
        "--max-in-flight", type=int, default=0,
        help="admission gate: concurrent requests beyond this get HTTP 429 "
             "+ Retry-After (0 = unbounded)",
    )
    p_serve.add_argument(
        "--request-deadline", type=float, default=None,
        help="per-request wall-clock budget in seconds; an exhausted budget "
             "serves the greedy-heuristic fallback marked 'degraded'",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after serving this many requests (smoke tests)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None,
        help="arm a deterministic fault schedule, e.g. "
             "'server:drop:times=2;registry:io_error:at=load' "
             "(sites: pool/registry/cache/server/shard_*; echoed in /metrics)",
    )
    p_serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed recorded on the armed fault plan",
    )
    p_serve.add_argument(
        "--shard-id", default=None,
        help="shard identity within a routed deployment "
             "(set by `repro route`; echoed in /metrics and /healthz)",
    )
    p_serve.add_argument(
        "--precision",
        choices=["float64", "float32", "int8"],
        default="float64",
        help="warm-pool policy backend; a per-deployment invariant like "
             "--seed (all replicas of a deployment must agree), not part "
             "of the request fingerprint; int8 is the inference-only "
             "quantized encoder (serve/route only)",
    )
    p_serve.add_argument(
        "--batch-window-ms", type=float, default=0.0,
        help="admission coalescing: hold a cache miss open this long so "
             "concurrent misses run as one replay batch (0 = off; results "
             "are batch-composition invariant either way)",
    )
    p_serve.add_argument(
        "--batch-max-size", type=int, default=8,
        help="flush a coalescing window immediately once this many "
             "requests joined",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-source token-bucket admission rate in req/s; over-limit "
             "requests get HTTP 429 + Retry-After (0 = off)",
    )
    p_serve.add_argument(
        "--rate-limit-burst", type=int, default=0,
        help="token-bucket burst capacity (defaults to 1 when --rate-limit "
             "is set)",
    )
    p_serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="append sampled request traces as JSONL under this directory "
             "(enables X-Repro-Trace propagation)",
    )
    p_serve.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of traces written (deterministic per trace id; "
             "client-supplied ids are always written)",
    )
    p_serve.add_argument(
        "--trace-slow-ms", type=float, default=0.0,
        help="requests at or above this duration are written even when "
             "not sampled (0 = off)",
    )
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(fn=_cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="spawn N shard processes behind a consistent-hash router "
             "with health-checked failover, circuit breakers, and hedging",
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument(
        "--port", type=int, default=8080,
        help="router port (0 binds an ephemeral port, printed on stdout)",
    )
    p_route.add_argument(
        "--shards", type=int, default=2,
        help="number of shard processes to spawn (each a `repro serve`)",
    )
    p_route.add_argument(
        "--replication", type=int, default=2,
        help="replica-set size R: distinct shards each request may land on",
    )
    p_route.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per shard on the consistent-hash ring",
    )
    p_route.add_argument(
        "--samples", type=int, default=16,
        help="zero-shot draw budget given to every shard (and folded "
             "into routing keys)",
    )
    p_route.add_argument(
        "--seed", type=int, default=0,
        help="service seed shared by all shards (replica interchangeability)",
    )
    p_route.add_argument(
        "--registry", default=None,
        help="checkpoint registry directory passed to every shard",
    )
    p_route.add_argument("--cache-capacity", type=int, default=256)
    p_route.add_argument(
        "--max-in-flight", type=int, default=0,
        help="per-shard admission bound (0 = unbounded)",
    )
    p_route.add_argument(
        "--probe-interval", type=float, default=2.0,
        help="seconds between /healthz probes of each shard (0 disables)",
    )
    p_route.add_argument(
        "--shard-timeout", type=float, default=60.0,
        help="per-attempt forward timeout; expiry fails over",
    )
    p_route.add_argument(
        "--failure-threshold", type=int, default=3,
        help="consecutive failures that open a shard's circuit breaker",
    )
    p_route.add_argument(
        "--breaker-reset", type=float, default=5.0,
        help="seconds an open breaker waits before its half-open probe",
    )
    p_route.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged requests (failover still applies)",
    )
    p_route.add_argument(
        "--fault-plan", default=None,
        help="arm router-side chaos, e.g. 'shard_kill:kill:at=s1' or "
             "'shard_stall:stall:at=s0:delay=2'",
    )
    p_route.add_argument("--fault-seed", type=int, default=0)
    p_route.add_argument(
        "--precision",
        choices=["float64", "float32", "int8"],
        default="float64",
        help="policy backend forwarded to every spawned shard (a "
             "deployment-wide invariant, like --seed); int8 is the "
             "inference-only quantized encoder",
    )
    p_route.add_argument(
        "--batch-window-ms", type=float, default=0.0,
        help="admission-coalescing window forwarded to every shard "
             "(0 = off)",
    )
    p_route.add_argument(
        "--batch-max-size", type=int, default=8,
        help="per-shard coalescing flush cap",
    )
    p_route.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="append sampled request traces as JSONL under this directory "
             "(enables X-Repro-Trace propagation; forwarded to every shard so one id links router and shard spans)",
    )
    p_route.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of traces written (deterministic per trace id; "
             "client-supplied ids are always written)",
    )
    p_route.add_argument(
        "--trace-slow-ms", type=float, default=0.0,
        help="requests at or above this duration are written even when "
             "not sampled (0 = off)",
    )
    p_route.add_argument("--verbose", action="store_true",
                         help="log HTTP requests to stderr")
    p_route.set_defaults(fn=_cmd_route)

    p_metrics = sub.add_parser(
        "metrics", help="fetch a server's /metrics snapshot and pretty-print it"
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, default=8080)
    p_metrics.add_argument("--timeout", type=float, default=10.0)
    p_metrics.add_argument("--json", action="store_true",
                           help="print the raw JSON snapshot")
    p_metrics.add_argument("--watch", action="store_true",
                           help="refresh every --interval seconds until ^C")
    p_metrics.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --watch (seconds)",
    )
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_req = sub.add_parser(
        "request", help="ask a running server for a partition"
    )
    p_req.add_argument("graph", help="zoo name or .npz path (inlined)")
    p_req.add_argument("--host", default="127.0.0.1")
    p_req.add_argument("--port", type=int, default=8080)
    p_req.add_argument("--chips", type=int, default=None)
    _add_topology_args(p_req)
    p_req.add_argument(
        "--objective", choices=["throughput", "latency"], default="throughput"
    )
    p_req.add_argument(
        "--platform", choices=["analytical", "simulator"], default="analytical"
    )
    p_req.add_argument("--samples", type=int, default=None)
    p_req.add_argument("--checkpoint", default=None,
                       help="registry checkpoint name for the policy weights")
    p_req.add_argument("--checkpoint-version", type=int, default=None)
    p_req.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-attempt HTTP timeout in seconds (fail fast; see --retries)",
    )
    p_req.add_argument(
        "--retries", type=int, default=2,
        help="retry budget for 429/503/connection failures "
             "(jittered exponential backoff, honours Retry-After)",
    )
    p_req.add_argument(
        "--trace-id", default=None,
        help="X-Repro-Trace id to send: a tracing-enabled server "
             "force-samples the request and echoes the id, so its trace "
             "can be found in the server's --trace-dir JSONL",
    )
    p_req.add_argument("--json", action="store_true",
                       help="print the raw JSON reply")
    p_req.add_argument("--output", help="write the assignment to this .npy path")
    p_req.set_defaults(fn=_cmd_request)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
