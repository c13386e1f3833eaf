"""HTTP front: JSON roundtrips, cache provenance, metrics, error codes.

The ``server`` fixture runs every wire-level case against both apps the
front serves: a shard, and a router over two thread-backed shards.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.serialization import graph_to_dict
from repro.graphs.zoo import build_cnn, build_mlp
from repro.serve import (
    PartitionServer,
    RouterConfig,
    ServiceError,
    ShardRouter,
    fetch_metrics,
    request_partition,
)
from repro.utils.threads import blas_threads
from tests.serve.conftest import Cluster, tiny_service

_RESOLVER = {"mlp": build_mlp, "cnn": build_cnn}


def _resolve(name):
    return _RESOLVER[name]()


def _router_config(**overrides):
    # No hedging: a repeated request must reach the same (now warm)
    # primary, so cache provenance is deterministic through the router.
    kwargs = dict(replication=2, probe_interval_s=0.0, hedge=False)
    kwargs.update(overrides)
    return RouterConfig(**kwargs)


@pytest.fixture
def shard_server():
    with PartitionServer(
        tiny_service(), port=0, graph_resolver=_resolve
    ).start() as srv:
        yield srv


@pytest.fixture(params=["shard", "router"])
def server(request):
    if request.param == "shard":
        yield request.getfixturevalue("shard_server")
        return
    with Cluster(config=_router_config(), graph_resolver=_resolve) as cluster:
        with PartitionServer(cluster.router, port=0).start() as srv:
            yield srv


class TestPartitionEndpoint:
    def test_cold_then_cached(self, server):
        first = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        assert first["cached"] is False and first["source"] == "cold"
        assert len(first["assignment"]) == build_mlp().n_nodes
        assert first["improvement"] > 0
        second = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        assert second["cached"] is True and second["source"] == "cached"
        assert second["assignment"] == first["assignment"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_inline_graph_equals_zoo_name(self, server):
        """The wire format preserves content fingerprints: an inlined copy
        of the zoo graph hits the name-resolved entry."""
        request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        inline = request_partition(
            {"graph": graph_to_dict(build_mlp()), "chips": 4}, port=server.port
        )
        assert inline["cached"] is True

    def test_full_request_surface(self, server):
        reply = request_partition(
            {
                "graph": "mlp",
                "chips": 4,
                "topology": "mesh",
                "mesh_dims": "2x2",
                "objective": "latency",
                "samples": 4,
            },
            port=server.port,
        )
        assert reply["objective"] == "latency"
        assert max(reply["assignment"]) <= 3

    def test_assignment_is_valid_partition(self, server):
        reply = request_partition({"graph": "cnn", "chips": 4}, port=server.port)
        from repro.solver.constraints import validate_partition

        report = validate_partition(
            build_cnn(), np.asarray(reply["assignment"]), 4
        )
        assert report.ok


class TestMetricsEndpoint:
    def test_counters_over_http(self, shard_server):
        request_partition({"graph": "mlp", "chips": 4}, port=shard_server.port)
        request_partition({"graph": "mlp", "chips": 4}, port=shard_server.port)
        metrics = fetch_metrics(port=shard_server.port)
        assert metrics["requests_total"] == 2
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["latency_ms"]["cached"]["count"] == 1

    def test_healthz(self, shard_server):
        """Readiness probe: load, registry reachability, degraded counts."""
        with urllib.request.urlopen(
            f"http://127.0.0.1:{shard_server.port}/healthz", timeout=30
        ) as resp:
            payload = json.loads(resp.read())
        assert payload["ok"] is True
        assert payload["saturated"] is False
        assert payload["in_flight"] == 0
        assert payload["max_in_flight"] == 0
        # No registry configured is a legitimate deployment (untrained
        # policy), not an unready one.
        assert payload["registry_configured"] is False
        assert payload["registry_ok"] is True
        assert payload["degraded_recent"] == 0
        assert payload["shard_id"] is None
        assert payload["blas_threads"] == blas_threads()

    def test_healthz_503_when_saturated(self):
        """A saturated shard reports unready so routers stop sending work."""
        service = tiny_service(max_in_flight=2)
        service._in_flight = 2  # pin the gauge at the admission bound
        try:
            with PartitionServer(service, port=0).start() as srv:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{srv.port}/healthz", timeout=30
                    )
                assert err.value.code == 503
                payload = json.loads(err.value.read())
                assert payload["ok"] is False
                assert payload["saturated"] is True
        finally:
            service._in_flight = 0

    def test_metrics_echo_shard_id_and_armed_fault_plan(self):
        """A routed shard's identity and its armed chaos schedule are both
        observable from /metrics (the `--shard-id`/`--fault-plan` flags)."""
        from repro.reliability import FaultPlan

        plan = FaultPlan.parse("registry:io_error:at=load:times=2", seed=5)
        service = tiny_service(shard_id="s7", fault_plan=plan)
        with PartitionServer(service, port=0).start() as srv:
            metrics = fetch_metrics(port=srv.port)
        assert metrics["shard"] == {"id": "s7"}
        assert metrics["reliability"]["fault_plan"] == [
            {
                "site": "registry", "kind": "io_error", "at": ["load"],
                "delay_s": 0.0, "times": 2, "remaining": 2,
            }
        ]

    def test_healthz_503_when_registry_root_lost(self, tmp_path):
        """A configured registry whose root vanished means the shard can no
        longer resolve checkpoints: alive, but not ready."""
        root = tmp_path / "registry"
        root.mkdir()
        service = tiny_service(registry_path=str(root))
        with PartitionServer(service, port=0).start() as srv:
            root.rmdir()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.port}/healthz", timeout=30
                )
            assert err.value.code == 503
            payload = json.loads(err.value.read())
            assert payload["registry_configured"] is True
            assert payload["registry_ok"] is False


class TestErrorHandling:
    def test_unknown_graph_is_422(self, server):
        with pytest.raises(ServiceError, match="422.*unknown graph"):
            request_partition({"graph": "ghost"}, port=server.port)

    def test_missing_graph_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition({"chips": 4}, port=server.port)

    def test_bad_topology_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition(
                {"graph": "mlp", "topology": "moebius"}, port=server.port
            )

    def test_malformed_mesh_dims_is_422_not_dropped_connection(self, server):
        """Junk-shaped mesh_dims (dict, list of junk, number) must come
        back as a clean 422 — never crash the handler thread."""
        for junk in ({"a": 1}, [None], 7, "2y3"):
            with pytest.raises(ServiceError, match="422"):
                request_partition(
                    {"graph": "mlp", "topology": "mesh", "mesh_dims": junk},
                    port=server.port,
                )

    def test_unknown_checkpoint_error_is_clean_text(self, server):
        """RegistryError messages reach the client without KeyError's
        repr-quoting noise."""
        with pytest.raises(ServiceError) as exc_info:
            request_partition(
                {"graph": "mlp", "checkpoint": "ghost"}, port=server.port
            )
        assert "''" not in str(exc_info.value)
        assert "registry" in str(exc_info.value)

    def test_bad_chips_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition(
                {"graph": "mlp", "chips": "lots"}, port=server.port
            )

    def test_mesh_dims_without_mesh_topology_is_422(self, server):
        """Same contract as the CLI: dims on a non-mesh topology are an
        error, not silently dropped."""
        with pytest.raises(ServiceError, match="422.*mesh"):
            request_partition(
                {"graph": "mlp", "chips": 6, "mesh_dims": "2x3"},
                port=server.port,
            )

    def test_negative_content_length_is_400(self, server):
        """A hostile Content-Length must not wedge the handler thread."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest("POST", "/partition")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_oversized_content_length_is_413(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest("POST", "/partition")
            conn.putheader("Content-Length", str(2**31))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_unknown_path_is_404(self, server):
        req = urllib.request.Request(f"http://127.0.0.1:{server.port}/nope")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 404

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/partition",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 400

    def test_shutdown_is_idempotent(self):
        server = PartitionServer(tiny_service(), port=0).start()
        server.shutdown()
        server.shutdown()

    def test_server_header_names_the_app(self, server):
        expected = (
            "repro-route/1"
            if isinstance(server.app, ShardRouter)
            else "repro-serve/1"
        )
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/healthz", timeout=30
        ) as resp:
            assert resp.headers["Server"].split()[0] == expected


class TestRouterFront:
    def test_failed_fallback_is_503_with_retry_after(self):
        """Every shard down and the greedy fallback refusing the request:
        503, with ``Retry-After`` equal to the breaker reset window."""
        config = _router_config(breaker_reset_s=7.5)
        with Cluster(config=config, graph_resolver=_resolve) as cluster:
            cluster.kill("s0")
            cluster.kill("s1")
            with PartitionServer(cluster.router, port=0).start() as front:
                req = urllib.request.Request(
                    f"http://127.0.0.1:{front.port}/partition",
                    # The router accepts any objective string; building
                    # the fallback's environment is what refuses it.
                    data=json.dumps(
                        {"graph": "mlp", "objective": "nonsense"}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=30)
                assert err.value.code == 503
                assert err.value.headers["Retry-After"] == "7.5"
                reply = json.loads(err.value.read())
        assert reply["retry_after_s"] == 7.5
        assert "degraded fallback failed" in reply["error"]
        assert cluster.router.metrics()["all_replicas_down"] == 1

    def test_trace_header_echoed_and_spans_written(self, tmp_path):
        from repro.obs.trace import TRACE_HEADER

        config = _router_config(trace_dir=str(tmp_path))
        with Cluster(config=config, graph_resolver=_resolve) as cluster:
            with PartitionServer(cluster.router, port=0).start() as front:
                req = urllib.request.Request(
                    f"http://127.0.0.1:{front.port}/partition",
                    data=json.dumps({"graph": "mlp", "chips": 4}).encode(),
                    headers={
                        "Content-Type": "application/json",
                        TRACE_HEADER: "router-front-trace-01",
                    },
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    assert resp.headers[TRACE_HEADER] == "router-front-trace-01"
                # The handler finishes the trace after replying: poll the
                # asynchronous JSONL sink until the row lands.
                deadline = time.monotonic() + 10.0
                rows = []
                while not rows and time.monotonic() < deadline:
                    cluster.router.tracer.flush(timeout=1.0)
                    rows = [
                        json.loads(line)
                        for path in tmp_path.glob("*.jsonl")
                        for line in path.read_text().splitlines()
                    ]
        assert [r["trace_id"] for r in rows] == ["router-front-trace-01"]
        spans = rows[0]["spans"]
        assert [sp["name"] for sp in spans] == [
            "request", "router.routing", "router.attempt",
        ]
        assert spans[0]["attrs"] == {"status": 200}


# ---------------------------------------------------------------------------
# Wire fuzzing: every POST /partition body gets a 2xx or 4xx answer.
# ---------------------------------------------------------------------------
_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_MLP_WIRE = graph_to_dict(build_mlp())


@st.composite
def _inline_graph(draw):
    """The mlp's wire form with one field replaced by junk."""
    graph = dict(_MLP_WIRE)
    key = draw(st.sampled_from(sorted(graph)))
    n = len(graph["names"])
    graph[key] = draw(
        _JSON
        | st.lists(st.integers(-3, n + 3), min_size=n, max_size=n)
        | st.lists(
            st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n
        )
    )
    return graph


# Each known key gets plausible values (so requests reach the service)
# and arbitrary JSON.  Sample budgets stay small or out of range: a valid
# budget in between is only slow, not a wire failure.
_FIELDS = {
    "graph": st.sampled_from(["mlp", "cnn", "ghost", ""]) | _inline_graph() | _JSON,
    "chips": st.integers(-2, 70) | st.integers(min_value=2**40) | _JSON,
    "topology": st.sampled_from(["uniring", "biring", "mesh", "crossbar", "x"]) | _JSON,
    "mesh_dims": st.sampled_from(["2x2", "1x4", "0x0", "2x", "ax2"]) | _JSON,
    "objective": st.sampled_from(["throughput", "latency", "energy"]) | _JSON,
    "platform": st.sampled_from(["analytical", "simulator", "fpga"]) | _JSON,
    "samples": st.integers(-2, 4)
    | st.integers(min_value=2**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.none(),
    "checkpoint": st.none() | st.text(max_size=6) | _JSON,
    "checkpoint_version": st.integers(-2, 3) | _JSON,
}
_PAYLOAD = st.fixed_dictionaries({"graph": _FIELDS["graph"]}, optional={
    key: strategy for key, strategy in _FIELDS.items() if key != "graph"
})
_BODY = st.one_of(
    _PAYLOAD.map(lambda p: json.dumps(p).encode()),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=32),
)


def _post_status(port: int, body: bytes) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", "/partition", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


class TestWireFuzz:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=_BODY)
    def test_any_body_gets_2xx_or_4xx(self, server, body):
        """No body may crash the handler (500) or drop the connection
        (which raises here)."""
        status = _post_status(server.port, body)
        assert 200 <= status < 500, (status, body)
