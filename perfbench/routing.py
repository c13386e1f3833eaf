"""``route_mix``: the replicated serving tier, driven over HTTP.

Set-up publishes a seeded checkpoint to a fresh registry, starts ``repro
route`` (2 shards, replication 2, hedging on) and warms a seeded set of
test-split graphs.  The timed part is a closed loop of two client
connections: 4 in 5 requests repeat a warmed graph (hits), 1 in 5 send a
content-distinct variant of a test graph (misses).  Every request body is
generated and JSON-encoded during set-up, and the client never retries.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import repro
from checks import eq_report, geomean
from measure import N_SETUPS, layer_metrics, percentile_ms, peak_rss_mb
from repro.core.partitioner import RLPartitioner
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.graphs.zoo import build_dataset
from repro.graphs.zoo.dataset import N_TEST
from repro.serve import CheckpointRegistry
from repro.serve.registry import default_serving_config

N_WARM = 12
MISS_EVERY = 5
MIN_PER_CLASS = 100
#: Requests per block of the plan: one cycle of the 16 test graphs' misses.
BLOCK = N_TEST * MISS_EVERY
N_CLIENTS = 2
CHIPS = 4
#: The one serving checkpoint, seeded 0 whatever the workload seed: the
#: cost of a miss varies by up to 2x between untrained policies, and the
#: seed draws the traffic, not the model.
CHECKPOINT = "bench"
CHECKPOINT_SEED = 0
#: Small enough that the misses of one run evict older misses.
CACHE_CAPACITY = 48
TIMEOUT_S = 60.0

#: Trace span name -> layer, per process kind.
ROUTER_SPANS = {
    "request": "serve.router.request",
    "router.routing": "serve.router.routing",
    "router.attempt": "serve.router.attempt",
}
SHARD_SPANS = {
    "request": "serve.shard.request",
    "admission.in_flight": "serve.admission",
    "admission.rate_limit": "serve.admission",
    "admission.batch_wait": "serve.admission",
    "fingerprint": "serve.fingerprint",
    "cache.lookup": "serve.cache.lookup",
    "checkpoint.install": "serve.registry.install",
    "search.replay_batch": "serve.search",
    "assignment.remap": "serve.remap",
}
LAYERS = tuple(dict.fromkeys(list(ROUTER_SPANS.values()) + list(SHARD_SPANS.values())))
CLASSES = ("hit", "miss")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Everything the client sends, generated from the seed."""

    test: tuple
    warm: "list[int]"
    warm_bodies: "list[bytes]"
    entries: "list[tuple]" = field(default_factory=list)  # (class, ref)
    bodies: "list[bytes]" = field(default_factory=list)
    variants: "list[tuple]" = field(default_factory=list)  # (test idx, factor)

    def graph(self, cls: str, ref: int):
        if cls == "hit":
            return self.test[self.warm[ref]]
        base, factor = self.variants[ref]
        return graph_from_dict(_variant(self.test[base], factor))


def _variant(graph, factor: float) -> dict:
    """Content-distinct copy of ``graph``: every compute cost scaled."""
    payload = graph_to_dict(graph)
    payload["compute_us"] = [c * factor for c in payload["compute_us"]]
    return payload


def _body(graph_payload: dict) -> bytes:
    return json.dumps(
        {"graph": graph_payload, "chips": CHIPS, "checkpoint": CHECKPOINT}
    ).encode("utf-8")


def build_plan(seed: int, n_requests: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    test = build_dataset(0).test
    warm = [int(i) for i in rng.choice(len(test), size=N_WARM, replace=False)]
    plan = Plan(
        test=test,
        warm=warm,
        warm_bodies=[_body(graph_to_dict(test[g])) for g in warm],
    )
    # Both classes cycle through their graphs in seeded orders, so every
    # stretch of the plan sends each graph about equally often.
    miss_bases = _cycle(rng, len(test))
    hit_refs = _cycle(rng, N_WARM)
    for i in range(n_requests):
        if i % MISS_EVERY == MISS_EVERY - 1:
            k = len(plan.variants)
            base = next(miss_bases)
            factor = 1.0 + (k + 1) * 1e-4
            plan.variants.append((base, factor))
            plan.entries.append(("miss", k))
            plan.bodies.append(_body(_variant(test[base], factor)))
        else:
            ref = next(hit_refs)
            plan.entries.append(("hit", ref))
            plan.bodies.append(plan.warm_bodies[ref])
    return plan


def _cycle(rng, n: int):
    """Endless run of seeded permutations of ``range(n)``."""
    while True:
        yield from (int(i) for i in rng.permutation(n))


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
def _split(address: str) -> "tuple[str, int]":
    host, _, port = address.rpartition(":")
    return host, int(port)


def http_call(address: str, method: str, path: str, body=None, headers=None):
    """One request on a fresh connection: ``(status, bytes)``; no retries."""
    host, port = _split(address)
    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


class Deployment:
    """One ``repro route`` process and the shards it spawns."""

    def __init__(self, registry: str, log_path: str, trace_dir=None):
        cmd = [
            sys.executable, "-m", "repro", "route",
            "--port", "0",
            "--registry", registry,
            "--cache-capacity", str(CACHE_CAPACITY),
        ]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        # The router and its shards import the same program as this process.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        self.address = ""
        self.shards: "dict[str, str]" = {}
        self.survivors: "list[int]" = []
        self.stopped = False
        try:
            lines = self._read_lines(3, deadline=time.monotonic() + 120.0)
        except BaseException:
            self.stop()
            raise
        self.address = lines[0].split()[-1]
        for line in lines[1:]:
            _, shard_id, _, address = line.split()
            self.shards[shard_id] = address

    def _read_lines(self, n: int, deadline: float) -> "list[str]":
        fd = self.proc.stdout.fileno()
        buf = b""
        while buf.count(b"\n") < n:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("repro route did not announce its shards")
            ready, _, _ = select.select([fd], [], [], min(left, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("repro route exited during start-up")
                buf += chunk
        return buf.decode().splitlines()[:n]

    def get_json(self, address: str, path: str):
        status, data = http_call(address, "GET", path)
        return status, json.loads(data)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Until the router answers /healthz with every shard healthy."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, health = self.get_json(self.address, "/healthz")
                ready = status == 200 and all(
                    state == "closed" for state in health["shards"].values()
                ) and all(
                    self.get_json(addr, "/healthz")[0] == 200
                    for addr in self.shards.values()
                )
            except (OSError, ValueError, KeyError):
                ready = False
            if ready:
                return
            time.sleep(0.02)
        raise TimeoutError("deployment did not become healthy")

    def counters(self) -> dict:
        """Router and summed shard counters from /metrics."""
        _, router = self.get_json(self.address, "/metrics")
        out = {k: router[k] for k in ("failovers", "hedges_fired", "hedge_wins")}
        for key in ("hits", "misses", "evictions", "weight_loads"):
            out[key] = 0
        for address in self.shards.values():
            _, shard = self.get_json(address, "/metrics")
            for key in ("hits", "misses", "evictions"):
                out[key] += shard["cache"][key]
            out["weight_loads"] += shard["pool"]["weight_loads"]
        return out

    def _children(self) -> "list[int]":
        pids = []
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/children"):
            try:
                with open(path, encoding="ascii") as fh:
                    pids += [int(p) for p in fh.read().split()]
            except OSError:
                pass
        return pids

    def stop(self) -> "list[int]":
        """SIGINT the router, then kill any shard that outlived it.

        Returns the pids that had to be killed (a failed teardown).  Only
        the first call acts: later calls must not signal reused pids."""
        if self.stopped:
            return self.survivors
        self.stopped = True
        shard_pids = self._children()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.survivors = [pid for pid in shard_pids if _alive(pid)]
        for pid in self.survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            # Anything else still in the router's process group.
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in self.survivors) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.proc.stdout.close()
        self._log.close()
        return self.survivors


# ----------------------------------------------------------------------
# Set-up and the closed loop
# ----------------------------------------------------------------------
def _parse(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def setup(seed: int, n_requests: int, work_dir: str, tag: str, trace_dir=None):
    """Plan, registry, deployment, warm set.  Returns the pieces and the
    warm responses (the misses every later hit must repeat)."""
    plan = build_plan(seed, n_requests)
    registry = os.path.join(work_dir, f"registry-{tag}")
    partitioner = RLPartitioner(
        CHIPS, config=default_serving_config(), rng=CHECKPOINT_SEED
    )
    CheckpointRegistry(registry).publish_partitioner(CHECKPOINT, partitioner)
    deployment = Deployment(
        registry, os.path.join(work_dir, f"route-{tag}.log"), trace_dir
    )
    try:
        deployment.wait_ready()
        warm = []
        for body in plan.warm_bodies:
            status, data = http_call(
                deployment.address, "POST", "/partition", body,
                {"Content-Type": "application/json"},
            )
            reply = _parse(data) if status == 200 else None
            if reply is None or reply.get("degraded"):
                raise RuntimeError(f"warming request failed with status {status}")
            warm.append(reply)
    except BaseException:
        deployment.stop()
        raise
    return plan, deployment, warm


@dataclass
class Record:
    index: int
    cls: str
    t_send: float
    t_recv: float
    status: int
    data: bytes


def closed_loop(deployment: Deployment, plan: Plan, seconds: float, trace: bool) -> dict:
    """Two clients, each sending its next request when the last returns."""
    lock = threading.Lock()
    cursor = iter(range(len(plan.entries)))
    done = {"hit": 0, "miss": 0}
    records: "list[Record]" = []
    start = time.perf_counter()
    hard_stop = start + seconds + 60.0

    def enough(now: float) -> bool:
        return now >= hard_stop or (
            now - start >= seconds and min(done.values()) >= MIN_PER_CLASS
        )

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
                if index is None or enough(time.perf_counter()):
                    return
            cls, _ = plan.entries[index]
            headers = {"Content-Type": "application/json"}
            if trace:
                headers["X-Repro-Trace"] = f"{cls[0]}{index:08d}"
            t_send = time.perf_counter()
            try:
                status, data = http_call(
                    deployment.address, "POST", "/partition", plan.bodies[index], headers
                )
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, repr(exc).encode()
            t_recv = time.perf_counter()
            with lock:
                records.append(Record(index, cls, t_send, t_recv, status, data))
                if status == 200:
                    done[cls] += 1

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r.index)
    return {"records": records, "rate": block_rate(records)}


def block_rate(records: "list[Record]") -> float:
    """Requests per second: BLOCK over the median time a block took.

    A block is BLOCK consecutive requests of the plan: one full cycle of
    the miss graphs and the hits between them, so every block is nearly
    the same work.  A block's time runs from the last reply of the block
    before it to its own last reply.  The median over blocks moves less
    with a slow moment of the machine than the overall mean does.
    """
    ends = [
        max(r.t_recv for r in records[i:i + BLOCK])
        for i in range(0, len(records) - BLOCK + 1, BLOCK)
    ]
    spans = np.diff([records[0].t_send] + ends)
    return BLOCK / float(np.median(spans))


def check(plan: Plan, warm: list, records: "list[Record]") -> "tuple[int, list, list]":
    """``(failed, problems, miss replies in plan order)``."""
    failed, problems, misses = 0, [], []
    for rec in records:
        reply = _parse(rec.data) if rec.status == 200 else None
        if reply is None or reply.get("degraded"):
            failed += 1
            if reply is None and rec.status == 200:
                problems.append(f"request {rec.index}: unreadable reply")
            continue
        _, ref = plan.entries[rec.index]
        graph = plan.graph(rec.cls, ref)
        if not all(eq_report(graph, reply["assignment"], CHIPS)):
            failed += 1
            problems.append(f"request {rec.index}: partition breaks Eq. 2-4")
            continue
        if rec.cls == "hit":
            stored = warm[ref]
            if (
                reply["assignment"] != stored["assignment"]
                or reply["improvement"] != stored["improvement"]
            ):
                problems.append(f"request {rec.index}: hit differs from its miss")
        else:
            misses.append(reply)
    return failed, problems, misses


def improvement_geomean(warm: list, misses: list) -> float:
    """Over the warm set and the first MIN_PER_CLASS misses of the plan."""
    values = [r["improvement"] for r in warm]
    values += [r["improvement"] for r in misses[:MIN_PER_CLASS]]
    return geomean(values)


def client_latency(records: "list[Record]") -> dict:
    out = {}
    for cls in CLASSES:
        lat = [r.t_recv - r.t_send for r in records if r.cls == cls and r.status == 200]
        out[f"client.{cls}.calls"] = (len(lat), "count")
        out[f"client.{cls}.p50_ms"] = (percentile_ms(lat, 50), "ms")
        out[f"client.{cls}.p90_ms"] = (percentile_ms(lat, 90), "ms")
    return out


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def _union_ms(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _self_times(trace: dict):
    """``(span, self ms)`` for each span of one process's trace."""
    spans = trace["spans"]
    children = defaultdict(list)
    for sp in spans:
        if sp["parent_id"] is not None:
            children[sp["parent_id"]].append(sp)
    for sp in spans:
        if sp["dur_ms"] is None:
            continue
        a, b = sp["start_ms"], sp["start_ms"] + sp["dur_ms"]
        covered = _union_ms(
            (max(k["start_ms"], a), min(k["start_ms"] + (k["dur_ms"] or 0.0), b))
            for k in children[sp["span_id"]]
        )
        yield sp, sp["dur_ms"] - covered


def span_layers(trace_dir: str, records: "list[Record]") -> dict:
    """Per-class self time of each layer, and the hit-behind-miss test."""
    router, shards = {}, defaultdict(dict)
    for path in glob.glob(os.path.join(trace_dir, "trace-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                trace = json.loads(line)
                if trace["service"] == "router":
                    router[trace["trace_id"]] = trace
                else:
                    shard_id = trace["service"].partition(":")[2]
                    shards[trace["trace_id"]][shard_id] = trace
    per_request = {cls: defaultdict(list) for cls in CLASSES}
    calls = {cls: defaultdict(int) for cls in CLASSES}
    primary = {}
    for trace_id, trace in router.items():
        cls = "hit" if trace_id[0] == "h" else "miss"
        acc = defaultdict(float)
        for sp, self_ms in _self_times(trace):
            layer = ROUTER_SPANS.get(sp["name"])
            if layer is None:
                continue
            attrs = sp.get("attrs", {})
            if sp["name"] == "router.routing" and attrs.get("replicas"):
                primary[trace_id] = attrs["replicas"][0]
            if sp["name"] == "router.attempt":
                shard_trace = shards.get(trace_id, {}).get(attrs.get("shard"))
                if shard_trace is not None and shard_trace["dur_ms"] is not None:
                    self_ms -= shard_trace["dur_ms"]
            acc[layer] += self_ms
            calls[cls][layer] += 1
        for shard_trace in shards.get(trace_id, {}).values():
            for sp, self_ms in _self_times(shard_trace):
                layer = SHARD_SPANS.get(sp["name"])
                if layer is not None:
                    acc[layer] += self_ms
                    calls[cls][layer] += 1
        for layer, ms in acc.items():
            per_request[cls][layer].append(ms / 1e3)
    out = {}
    for cls in CLASSES:
        for layer in LAYERS:
            values = per_request[cls][layer]
            metrics = layer_metrics(f"{layer}.{cls}", values)
            metrics[f"{layer}.{cls}.calls"] = (calls[cls][layer], "count")
            out.update(metrics)
    out.update(_behind_miss(records, primary))
    return out


def _behind_miss(records: "list[Record]", primary: dict) -> dict:
    """Share of slow and of typical hits that overlapped a miss in flight
    on the same primary shard (client-side intervals)."""
    def shard(rec):
        return primary.get(f"{rec.cls[0]}{rec.index:08d}")

    misses = [r for r in records if r.cls == "miss" and shard(r) is not None]
    hits = [r for r in records if r.cls == "hit" and r.status == 200 and shard(r) is not None]
    if not hits:
        return {
            "serve.hit_tail.behind_miss_ratio": (0.0, "ratio"),
            "serve.hit_body.behind_miss_ratio": (0.0, "ratio"),
        }
    lat = np.array([h.t_recv - h.t_send for h in hits])
    p50, p90 = np.percentile(lat, 50), np.percentile(lat, 90)

    def behind(h) -> bool:
        s = shard(h)
        return any(
            shard(m) == s and m.t_send < h.t_recv and m.t_recv > h.t_send
            for m in misses
        )

    tail = [behind(h) for h, x in zip(hits, lat) if x > p90]
    body = [behind(h) for h, x in zip(hits, lat) if x <= p50]
    return {
        "serve.hit_tail.behind_miss_ratio": (float(np.mean(tail)) if tail else 0.0, "ratio"),
        "serve.hit_body.behind_miss_ratio": (float(np.mean(body)) if body else 0.0, "ratio"),
    }


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _counter_delta(before: dict, after: dict) -> dict:
    d = {k: after[k] - before[k] for k in after}
    lookups = d["hits"] + d["misses"]
    return {
        "serve.cache.hit_ratio": (d["hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.cache.evictions": (d["evictions"], "count"),
        "serve.router.hedges_fired": (d["hedges_fired"], "count"),
        "serve.router.hedge_wins": (d["hedge_wins"], "count"),
        "serve.router.failovers": (d["failovers"], "count"),
        "serve.registry.weight_loads": (d["weight_loads"], "count"),
    }


def run_route(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    n_requests = int(MIN_PER_CLASS * MISS_EVERY * 2 + 150 * seconds)
    setup_times, geomeans, problems = [], [], []
    failed = attempted = 0
    metrics = {}
    runs = []  # (plan, warm, result)
    n_setups = 1 if trace else N_SETUPS
    # A traced invocation splits its time between an untraced and a traced run.
    seconds = seconds / 2 if trace else seconds
    deployments = []
    try:
        for k in range(n_setups):
            t0 = time.perf_counter()
            plan, dep, warm = setup(seed, n_requests, work_dir, f"u{k}")
            setup_times.append(time.perf_counter() - t0)
            deployments.append(dep)
            geomeans.append(geomean([r["improvement"] for r in warm]))
            if k < n_setups - 1:
                problems += _stopped(dep)
        before = dep.counters()
        result = closed_loop(dep, plan, seconds, trace=False)
        after = dep.counters()
        problems += _stopped(dep)
        runs.append((plan, warm, result))
        if trace:
            trace_dir = os.path.join(work_dir, "traces")
            plan_t, dep_t, warm_t = setup(seed, n_requests, work_dir, "t", trace_dir)
            deployments.append(dep_t)
            geomeans.append(geomean([r["improvement"] for r in warm_t]))
            traced = closed_loop(dep_t, plan_t, seconds, trace=True)
            time.sleep(0.3)  # let the shards' trace writers drain
            problems += _stopped(dep_t)
            runs.append((plan_t, warm_t, traced))
    finally:
        for dep in deployments:
            dep.stop()
    miss_replies = []
    for plan, warm, res in runs:
        f, p, misses = check(plan, warm, res["records"])
        failed += f
        attempted += len(res["records"])
        problems += p
        miss_replies.append(misses)
        if min(sum(1 for r in res["records"] if r.cls == c) for c in CLASSES) < MIN_PER_CLASS:
            problems.append("a run yielded fewer than 100 requests of a class")
    if len(set(geomeans)) != 1:
        problems.append("warm-set improvement_geomean did not repeat exactly")
    geo = [improvement_geomean(warm, m) for (_, warm, _), m in zip(runs, miss_replies)]
    if len(set(geo)) != 1:
        problems.append("improvement_geomean did not repeat exactly")
    untraced = runs[0][2]
    if trace:
        traced = runs[1][2]
        metrics.update(client_latency(untraced["records"]))
        metrics.update(_counter_delta(before, after))
        metrics.update(span_layers(os.path.join(work_dir, "traces"), traced["records"]))
        metrics["obs.trace_overhead_pct"] = (
            (untraced["rate"] - traced["rate"]) / untraced["rate"] * 100.0, "%"
        )
    else:
        metrics = {
            "ops_per_s": (untraced["rate"], "1/s"),
            "improvement_geomean": (geo[0], "x"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "setup_times": setup_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def _stopped(dep: Deployment) -> "list[str]":
    survivors = dep.stop()
    if survivors:
        return [f"shard processes {survivors} outlived repro route; killed"]
    return []
