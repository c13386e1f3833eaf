"""The one stdlib HTTP/JSON front, for a shard and for the router.

:class:`PartitionServer` serves an *app*: a shard (:class:`ShardApp`, a
:class:`PartitionService` plus its graph resolver) or a
:class:`repro.serve.router.ShardRouter`.  An app exposes
``handle_partition(payload, trace=None, source=None) -> (status, reply)``,
``metrics()``, ``prometheus()``, ``health() -> (ready, payload)``, a
``tracer``, and its ``Server`` header as the class constant
``server_version`` (``repro-serve/1`` or ``repro-route/1``).

Endpoints
---------
``POST /partition``
    Body: a JSON request (see :func:`request_from_payload`); the graph is a
    zoo name (resolved server-side) or an inline
    :func:`repro.graphs.serialization.graph_to_dict` dict.  Reply: the
    partition, its improvement, and cache provenance.
``GET /metrics``
    The app's metrics snapshot; ``?format=prometheus`` renders the same
    registry as Prometheus text exposition.
``GET /healthz``
    Readiness probe; 503 when the app is alive but unable to take work.

The front owns what both apps share: body framing (400/413), the 400 on
bad JSON, the 404, the last-resort 500, and the ``server``-site drop
fault.  With tracing configured, every ``POST /partition`` opens a trace
(adopting the client's ``X-Repro-Trace`` id, which forces sampling) and
echoes its id in the same header for correlation with the JSONL sink.

Backpressure & retries: a 429 or 503 reply whose body carries
``retry_after_s`` is sent with a ``Retry-After`` header (a shard's full
admission gate; a router with every replica down and no fallback).  The
client helpers (:func:`request_partition`, :func:`fetch_metrics`) wrap
``urllib`` and back off exponentially with jitter on 429/503/connection
failures, honouring ``Retry-After`` — so a burst against a bounded server
drains instead of failing, without a thundering-herd retry spike.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

from repro.graphs.serialization import graph_from_dict
from repro.obs.trace import TRACE_HEADER, activate, deactivate
from repro.hardware.topology import make_topology
from repro.serve.service import (
    PartitionRequest,
    PartitionService,
    ServiceError,
    ServiceOverloadError,
)
from repro.solver.engine import MAX_CHIPS

#: Client-helper defaults: fail fast (a minute, not ten) and retry twice.
DEFAULT_TIMEOUT_S = 60.0
DEFAULT_RETRIES = 2
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 4.0

#: Upper bound on an inline-graph request body (a graph_to_dict of a
#: 100k-node graph is ~20 MB; anything bigger is a framing error or abuse).
_MAX_BODY_BYTES = 64 * 2**20

#: How often ``serve_forever`` checks for :meth:`PartitionServer.shutdown`
#: (socketserver's default of 0.5 s made every shutdown wait that long).
_POLL_INTERVAL_S = 0.05


def request_from_payload(
    payload: dict, graph_resolver=None
) -> PartitionRequest:
    """Build a :class:`PartitionRequest` from a JSON payload.

    Payload keys: ``graph`` (zoo name string or inline graph dict),
    ``chips``, ``topology`` (+ ``mesh_dims``), ``objective``, ``platform``
    (``analytical``/``simulator``), ``samples``, ``checkpoint``,
    ``checkpoint_version``.  ``graph_resolver`` maps name strings to
    :class:`CompGraph` (the CLI passes the zoo table; inline dicts always
    work).
    """
    spec = payload.get("graph")
    if isinstance(spec, str):
        if graph_resolver is None:
            raise ServiceError(
                "this server only accepts inline graphs; send a "
                "graph_to_dict payload instead of a name"
            )
        try:
            graph = graph_resolver(spec)
        except (KeyError, SystemExit, OSError, ValueError):
            # Whatever the resolver rejects — unknown name, or a
            # path-shaped probe it refuses to read — is the client's
            # problem, reported as a 422, never a dropped connection.
            raise ServiceError(f"unknown graph {spec!r}") from None
    elif isinstance(spec, dict):
        try:
            graph = graph_from_dict(spec)
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ServiceError(f"bad inline graph: {exc}") from None
    else:
        raise ServiceError("payload must carry 'graph' (name or inline dict)")

    n_chips = _int_field(payload, "chips", 4)
    if not 1 <= n_chips <= MAX_CHIPS:
        # Checked before any topology is built: its tables are C x C.
        raise ServiceError(f"chips must be in [1, {MAX_CHIPS}], got {n_chips}")
    topology = None
    topo_name = payload.get("topology")
    if payload.get("mesh_dims") is not None and topo_name != "mesh":
        # Same contract as the CLI (`--mesh-dims applies to --topology
        # mesh only`): silently ignoring the dims would hand back a
        # partition for a platform the client didn't ask for.
        raise ServiceError("mesh_dims applies to topology 'mesh' only")
    if topo_name is not None and topo_name != "uniring":
        try:
            topology = make_topology(
                topo_name, n_chips, payload.get("mesh_dims")
            )
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            # Whatever shape of junk arrived in topology/mesh_dims: a 422,
            # never a crashed handler.
            raise ServiceError(
                f"bad topology spec: {exc or type(exc).__name__}"
            ) from None
    return PartitionRequest(
        graph=graph,
        n_chips=n_chips,
        topology=topology,
        objective=str(payload.get("objective", "throughput")),
        cost_model=str(payload.get("platform", "analytical")),
        samples=_int_field(payload, "samples", None),
        checkpoint=payload.get("checkpoint"),
        version=_int_field(payload, "checkpoint_version", None),
    )


def _int_field(payload: dict, key: str, default: "int | None") -> "int | None":
    """``payload[key]`` as an int, ``default`` when absent (and null when
    ``default`` is None); any value ``int()`` refuses, ``inf`` included, is
    the client's 422."""
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(f"bad {key} value {value!r}") from None


def response_to_payload(response) -> dict:
    """JSON-safe dict form of a :class:`PartitionResponse`."""
    return {
        "fingerprint": response.fingerprint,
        "assignment": response.assignment.tolist(),
        "improvement": response.improvement,
        "objective": response.objective,
        "cached": response.cached,
        "source": response.source,
        "latency_ms": response.latency_ms,
        "samples": response.samples,
        "chips": response.n_chips,
        "checkpoint": (
            None
            if response.checkpoint is None
            else {
                "name": response.checkpoint[0],
                "version": response.checkpoint[1],
            }
        ),
        "throughput": response.throughput,
        "latency_us": response.latency_us,
        "degraded": response.degraded,
        "degraded_reason": response.degraded_reason,
    }


class ShardApp:
    """The shard behind the front: one :class:`PartitionService` plus the
    resolver for graphs sent by zoo name.

    Refusals map onto status codes here: admission backpressure is a 429
    whose ``retry_after_s`` the front turns into ``Retry-After``; any other
    :class:`ServiceError` is a 422.  ``trace`` is unused — the front has
    already activated it on the handler thread, where the service's spans
    find it.
    """

    server_version = "repro-serve/1"

    def __init__(self, service: PartitionService, graph_resolver=None):
        self.service = service
        self.graph_resolver = graph_resolver
        self.tracer = service.tracer
        self.metrics = service.metrics
        self.prometheus = service.prometheus
        self.health = service.health

    def handle_partition(
        self, payload: dict, trace=None, source: "str | None" = None
    ) -> "tuple[int, dict]":
        try:
            request = request_from_payload(
                payload, graph_resolver=self.graph_resolver
            )
            response = self.service.submit(request, source=source)
        except ServiceOverloadError as exc:
            # Structured backpressure, not a failure: the client helpers
            # sleep Retry-After (± backoff) and resubmit.
            return 429, {"error": str(exc), "retry_after_s": exc.retry_after}
        except ServiceError as exc:
            return 422, {"error": str(exc)}
        return 200, response_to_payload(response)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's app; JSON in, JSON out."""

    def version_string(self) -> str:
        return f"{self.server.app.server_version} {self.sys_version}"

    def _reply(
        self, code: int, payload: dict, headers: "dict | None" = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if code in (429, 503) and "retry_after_s" in payload:
            self.send_header(
                "Retry-After", f"{max(payload['retry_after_s'], 0):g}"
            )
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _drop_fault(self) -> bool:
        """Injected connection drop (chaos tests of the client's retry
        path): close the socket without a reply, like a crashed peer."""
        plan = self.server.fault_plan
        if plan is None or plan.fire("server", "drop", (self.path,)) is None:
            return False
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return True

    def log_message(self, fmt, *args):  # pragma: no cover - quiet by default
        if self.server.verbose:
            super().log_message(fmt, *args)

    def do_GET(self) -> None:
        if self._drop_fault():
            return
        app = self.server.app
        split = urllib.parse.urlsplit(self.path)
        if split.path == "/metrics":
            fmt = urllib.parse.parse_qs(split.query).get("format", [""])[0]
            if fmt == "prometheus":
                self._reply_text(200, app.prometheus())
            else:
                self._reply(200, app.metrics())
        elif split.path == "/healthz":
            # Readiness, not just liveness: 503 when the app is alive but
            # cannot usefully take work, so routers/orchestrators can drain
            # it instead of timing out.
            ready, payload = app.health()
            self._reply(200 if ready else 503, payload)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        if self._drop_fault():
            return
        if urllib.parse.urlsplit(self.path).path != "/partition":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        # One trace per POST when the app has tracing configured: a
        # client-supplied X-Repro-Trace id is adopted (and forces
        # sampling), otherwise a fresh id is minted; either way the id is
        # echoed back in the same header so the reply correlates with the
        # JSONL sink.
        tracer = self.server.app.tracer
        trace = (
            tracer.start(trace_id=self.headers.get(TRACE_HEADER))
            if tracer.enabled
            else None
        )
        # Only pay for span recording when the trace can actually be kept:
        # an unsampled trace with no slow-force threshold is write-never,
        # so the service path stays on the shared no-op span.
        record = trace is not None and (trace.sampled or tracer.slow_ms > 0)
        token = activate(trace) if record else None
        status = 500
        try:
            status, reply = self._partition(trace)
            self._reply(
                status,
                reply,
                headers=None if trace is None else {TRACE_HEADER: trace.trace_id},
            )
        finally:
            deactivate(token)
            if trace is not None:
                tracer.finish(trace, status=status)

    def _partition(self, trace) -> "tuple[int, dict]":
        """``(status, reply)`` for this POST's body; never raises."""
        try:
            length = int(self.headers.get("Content-Length", 0))
            # Never trust the client's framing: a negative length would
            # turn read() into read-until-EOF (a thread wedged on a held
            # connection), an absurd one into unbounded buffering.
            if length < 0:
                return 400, {"error": "bad Content-Length"}
            if length > _MAX_BODY_BYTES:
                return 413, {"error": f"request body over {_MAX_BODY_BYTES} bytes"}
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                return 400, {"error": "bad request: body must be a JSON object"}
            # Client source id for per-source rate limiting: an explicit
            # header wins (routers/proxies forward the original client);
            # otherwise the peer address identifies the source.
            source = self.headers.get("X-Repro-Source") or self.client_address[0]
            return self.server.app.handle_partition(
                payload, trace=trace, source=source
            )
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        except Exception as exc:  # noqa: BLE001 - last-resort: a handler
            # crash must surface as an HTTP error, not a dropped connection.
            return 500, {"error": f"internal error: {exc!r}"}


class PartitionServer:
    """The HTTP front for one app: a shard or a router.

    ``app`` is a :class:`repro.serve.router.ShardRouter` or a
    :class:`PartitionService`.  A service is served as a shard
    (:class:`ShardApp`) that resolves graph names with ``graph_resolver``
    and, unless ``fault_plan`` is given, takes its ``server``-site drop
    faults from its own plan.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  ``start()`` serves in a daemon thread (tests, CLI
    foreground mode calls :meth:`serve_forever` directly).
    ``threaded=False`` switches to a single-threaded ``HTTPServer`` whose
    :meth:`handle_request` fully serves one request before returning — the
    right mode for bounded ``--max-requests`` smoke runs, where a threaded
    accept loop could exit before an in-flight handler thread replies.
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        graph_resolver=None,
        verbose: bool = False,
        threaded: bool = True,
        fault_plan=None,
    ):
        if isinstance(app, PartitionService):
            if fault_plan is None:
                fault_plan = app.config.fault_plan
            app = ShardApp(app, graph_resolver=graph_resolver)
        self.app = app
        server_cls = ThreadingHTTPServer if threaded else HTTPServer
        self._httpd = server_cls((host, port), _Handler)
        self._httpd.app = app
        self._httpd.verbose = verbose
        self._httpd.fault_plan = fault_plan
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "PartitionServer":
        """Serve in a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever(poll_interval=_POLL_INTERVAL_S)

    def handle_request(self) -> None:
        """Serve exactly one request (the CLI's ``--max-requests`` loop)."""
        self._httpd.handle_request()

    def shutdown(self) -> None:
        """Stop serving and release the socket; idempotent."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "PartitionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Client helpers
# ----------------------------------------------------------------------
_RETRYABLE_CODES = (429, 503)


def _backoff_s(attempt: int, retry_after: "float | None") -> float:
    """Capped exponential backoff with full jitter (AWS-style).

    A server-supplied ``Retry-After`` is a *floor* — backing off less
    than the server asked for would just earn another 429."""
    delay = min(_BACKOFF_BASE_S * (2 ** attempt), _BACKOFF_CAP_S)
    delay *= 0.5 + random.random() * 0.5
    if retry_after is not None:
        delay = max(delay, retry_after)
    return delay


def _http_json(
    url: str,
    data: "bytes | None" = None,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    source: "str | None" = None,
    trace_id: "str | None" = None,
) -> dict:
    """One JSON round trip with bounded retries.

    Retried: 429/503 replies (honouring ``Retry-After``) and transport
    failures where no reply arrived at all (connection refused/reset,
    socket timeout) — these are either explicit backpressure or ambiguous
    network loss, and every server endpoint is idempotent (a retried
    search is answered from cache or recomputed bit-identically).  Any
    other HTTP error is a real answer and raises immediately."""
    last_error: "Exception | None" = None
    for attempt in range(int(retries) + 1):
        headers = {"Content-Type": "application/json"} if data else {}
        if source is not None:
            headers["X-Repro-Source"] = str(source)
        if trace_id is not None:
            headers[TRACE_HEADER] = str(trace_id)
        req = urllib.request.Request(url, data=data, headers=headers)
        retry_after: "float | None" = None
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (ValueError, OSError):
                detail = ""
            error = ServiceError(
                f"server replied {exc.code}: {detail or exc.reason}"
            )
            if exc.code not in _RETRYABLE_CODES:
                raise error from None
            try:
                retry_after = float(exc.headers.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
            last_error = error
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            ConnectionError,
            TimeoutError,
            socket.timeout,
            OSError,
        ) as exc:
            last_error = ServiceError(f"request to {url} failed: {exc}")
        if attempt < retries:
            time.sleep(_backoff_s(attempt, retry_after))
    raise last_error from None


def request_partition(
    payload: dict,
    host: str = "127.0.0.1",
    port: int = 8080,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    source: "str | None" = None,
    trace_id: "str | None" = None,
) -> dict:
    """POST one request payload to a running server; returns the reply.

    Fails fast (``timeout`` seconds, default 60) and retries
    429/503/connection loss with jittered exponential backoff —
    resubmission is safe because serving is deterministic and cached.
    ``source`` sets the ``X-Repro-Source`` header, the client identity the
    server's per-source rate limiter keys on (defaults to peer address);
    ``trace_id`` sets ``X-Repro-Trace`` so a tracing-enabled server
    force-samples this request under the given id."""
    return _http_json(
        f"http://{host}:{port}/partition",
        data=json.dumps(payload).encode("utf-8"),
        timeout=timeout,
        retries=retries,
        source=source,
        trace_id=trace_id,
    )


def fetch_metrics(
    host: str = "127.0.0.1",
    port: int = 8080,
    timeout: float = 60.0,
    retries: int = DEFAULT_RETRIES,
) -> dict:
    """GET the server's metrics snapshot."""
    return _http_json(
        f"http://{host}:{port}/metrics", timeout=timeout, retries=retries
    )
