"""Stdlib HTTP JSON front-end for :class:`~repro.service.engine.NCEngine`.

Every route lives under the versioned ``/v1/`` prefix; any other path
answers ``404`` with ``code: "not_found"``. Routing is data-driven:
:data:`ROUTES` declares ``(method, path, name, handler)`` rows and the
dispatch table is derived from it, so adding an endpoint means adding a
row, not an ``if/elif`` arm.

Endpoints (full request/response reference: ``docs/OPERATIONS.md``)
---------

``GET /v1/healthz``
    Liveness + graph summary::

        {"status": "ok", "version_id": 3, "uptime_s": 12.5,
         "snapshot_source": "registry:/srv/serving", "graph_version": 3,
         "nodes": 2188, "edges": 15466, ...}

``GET /v1/stats``
    Engine counters (requests, cache hits, coalescing, LRU stats; hot
    swaps and drained versions when serving a snapshot registry).

``GET /v1/metrics``
    Prometheus text exposition (``text/plain; version=0.0.4``) of every
    layer's counters, latency histograms and gauges
    (:mod:`repro.service.metrics`). The one route that answers text,
    not JSON.

``GET /v1/search?query=Angela_Merkel&query=Barack_Obama[&context_size=50][&alpha=0.05][&timeout_ms=500]``
``POST /v1/search`` with body ``{"query": [...], "context_size": 50, "alpha": 0.05, "timeout_ms": 500}``
    Run FindNC and return the notable characteristics. ``query`` accepts
    node names (exact or fuzzy) or integer node ids; the GET form also
    accepts one comma-separated ``query`` parameter. ``timeout_ms``
    bounds the request (overriding the engine's default deadline);
    expiry answers ``504`` with ``code: "deadline_exceeded"``. A
    saturated engine sheds with ``503``, ``code: "saturated"`` and a
    ``Retry-After`` header; every error body carries a stable
    machine-readable ``code`` next to the human-readable ``error``.

``GET /v1/debug/traces`` and ``GET /v1/debug/traces/<trace-id>``
    The tracer's ring buffer: recent retained-trace summaries (newest
    first, ``?limit=N``) and one full span tree as nested JSON. Empty
    unless tracing is on (``--trace-sample-rate`` / ``--slow-query-ms``).
    Every response echoes the request's trace id in an ``X-Trace-Id``
    header when a trace is being recorded, and inbound W3C
    ``traceparent`` headers are adopted (sampled flag forces capture).

``POST /v1/admin/reload``
    Hot-swap onto the newest registry version (``repro serve
    --snapshot-dir`` only): re-reads the manifest, and when it names a
    version newer than the pinned one, swaps the engine onto it while
    in-flight requests drain on the old pin
    (:meth:`~repro.service.engine.NCEngine.swap_snapshot`). Idempotent —
    reloading with nothing new published answers ``{"swapped": false}``.
    The same code path runs on a timer when ``--poll-interval`` is set
    (:class:`RegistryPoller` watches the manifest mtime).

``POST /v1/admin/ingest[?format=nt|tsv][&wait=1]``
    Live delta ingest (registry-backed servers only): the body is a
    batch of statements — N-Triples by default, TSV with
    ``?format=tsv`` — each line optionally prefixed ``+`` (add, the
    default) or ``-`` (remove). The batch is canonicalized and appended
    to the chain's delta log **synchronously** (durable when the
    response leaves), then merged into a fresh snapshot version and
    adopted through the same hot-swap path as ``/v1/admin/reload`` in a
    background thread — reads never block and never drop. ``?wait=1``
    runs merge + swap before responding (deterministic for tests and
    benchmarks). Unparseable or truncated bodies answer ``400`` with
    ``code: "bad_batch"`` and write nothing; batches that net out to
    nothing answer ``{"accepted": false}`` without writing anything.

Both ``POST`` routes read at most :data:`MAX_BODY_BYTES` (a longer
``Content-Length`` answers ``413`` with ``code: "payload_too_large"``),
and a connection whose reads stall for :attr:`NCRequestHandler.timeout`
seconds is closed without an answer.

Every request is recorded in the engine's metrics registry
(``nc_http_requests_total{route,method,status}`` and the per-route
latency histogram), labeled by route name.

Built on :class:`http.server.ThreadingHTTPServer` (one thread per
connection, stdlib-only); actual query concurrency is bounded by the
engine's executor, and identical concurrent requests coalesce there.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import DeadlineExceededError, EngineSaturatedError, ReproError
from repro.graph.model import KnowledgeGraph
from repro.disk.store import StaleSnapshotError
from repro.service import metrics as metrics_mod
from repro.service.engine import NCEngine, SearchOutcome
from repro.service.tracing import (
    get_log_format,
    log_event,
    parse_traceparent,
    trace_tree,
)
from repro.service.workers import RemoteQueryError, WorkerCrashError

#: Stable machine-readable error codes, keyed by HTTP status, used when
#: a handler does not pass a more specific ``code``. Clients switch on
#: ``code``, never on the human-readable ``error`` message.
DEFAULT_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    500: "internal_error",
    503: "unavailable",
    504: "deadline_exceeded",
}

#: Largest request body ``POST /v1/search`` and ``/v1/admin/ingest``
#: accept. A longer ``Content-Length`` answers 413 ``payload_too_large``
#: without reading the body; larger batches go through ``repro ingest``.
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class RouteSpec:
    """One row of the route table: method, path, route name, handler.

    ``name`` is the stable route label used by the HTTP metrics series
    (and the OPERATIONS.md reference); ``handler`` names the
    :class:`NCRequestHandler` method invoked with the split URL.
    ``prefix`` routes match any path that *starts with* ``path`` (the
    trace-detail route embeds the trace id in the path), so they live
    outside the exact-match table.
    """

    method: str
    path: str
    name: str
    handler: str
    prefix: bool = False


#: The service's full HTTP surface. Dispatch is derived from this table;
#: extend it (rather than the verb methods) to add endpoints.
ROUTES: "tuple[RouteSpec, ...]" = (
    RouteSpec("GET", "/v1/healthz", "healthz", "_handle_healthz"),
    RouteSpec("GET", "/v1/stats", "stats", "_handle_stats"),
    RouteSpec("GET", "/v1/metrics", "metrics", "_handle_metrics"),
    RouteSpec("GET", "/v1/search", "search", "_handle_search_get"),
    RouteSpec("POST", "/v1/search", "search", "_handle_search_post"),
    RouteSpec("POST", "/v1/admin/reload", "admin_reload", "_handle_admin_reload"),
    RouteSpec("POST", "/v1/admin/ingest", "admin_ingest", "_handle_admin_ingest"),
    RouteSpec("GET", "/v1/debug/traces", "debug_traces", "_handle_debug_traces"),
    RouteSpec(
        "GET",
        "/v1/debug/traces/",
        "debug_trace",
        "_handle_debug_trace",
        prefix=True,
    ),
)


def _build_dispatch(
    routes: "tuple[RouteSpec, ...]",
) -> "dict[tuple[str, str], RouteSpec]":
    """``(method, path) -> route`` lookup table.

    Prefix routes are excluded: they cannot be keyed by exact path and
    are scanned by :meth:`NCRequestHandler._dispatch` as a fallback.
    """
    return {
        (spec.method, spec.path): spec for spec in routes if not spec.prefix
    }


_DISPATCH = _build_dispatch(ROUTES)
_PREFIX_ROUTES: "tuple[RouteSpec, ...]" = tuple(
    spec for spec in ROUTES if spec.prefix
)


def reload_from_registry(
    engine: NCEngine,
    registry,
    *,
    retain: "int | None" = None,
    lock: "threading.Lock | None" = None,
) -> dict:
    """Swap ``engine`` onto the registry's newest version, if newer.

    The one reload path shared by ``POST /v1/admin/reload`` and the
    :class:`RegistryPoller`: refresh the manifest, compare the latest
    version against the engine's pin, and — only when the registry moved
    forward — open the new file and
    :meth:`~repro.service.engine.NCEngine.swap_snapshot` onto it. With
    ``retain`` set, drained-out versions beyond the newest ``retain``
    are garbage-collected afterwards (the version still draining is kept
    until a later reload finds it drained). Returns the JSON-ready
    outcome dict; raises
    :class:`~repro.disk.registry.RegistryError` for a broken registry
    and ``ValueError`` for a backwards registry.
    """
    from repro.disk import open_snapshot_view

    with lock if lock is not None else threading.Lock():
        registry.refresh()
        latest = registry.latest()
        if latest is None:
            return {"swapped": False, "reason": "registry is empty"}
        current = engine.graph.version
        if latest.version <= current:
            return {
                "swapped": False,
                "version": current,
                "latest_published": latest.version,
            }
        view = open_snapshot_view(latest.path)
        try:
            outcome = engine.swap_snapshot(view)
        except BaseException:
            view.close()
            raise
        if not outcome.swapped:  # pragma: no cover - raced reload
            view.close()
        # retain < 1 is rejected at the CLI; guard here too so a
        # misconfigured embedder cannot turn a *successful* swap into a
        # reported failure by raising inside post-swap GC.
        if retain is not None and retain >= 1 and outcome.swapped:
            stats = engine.stats()
            keep = {outcome.new_version, *stats.draining_versions}
            registry.gc(retain=retain, keep=keep)
        if outcome.swapped:
            log_event(
                "snapshot_swap",
                old_version=outcome.old_version,
                new_version=outcome.new_version,
                file=latest.file,
            )
        return {
            "swapped": outcome.swapped,
            "old_version": outcome.old_version,
            "new_version": outcome.new_version,
            "file": latest.file,
        }


def run_ingest_merge(server, appended_at: "float | None" = None) -> dict:
    """Fold pending delta runs into a fresh version and adopt it.

    The merge half of live ingest, shared by the request handler's
    background thread and the synchronous ``?wait=1`` path: serialize on
    the server's ``ingest_lock``, fold every pending run
    (:meth:`~repro.disk.registry.SnapshotRegistry.merge_pending`), then
    hot-swap through the same :func:`reload_from_registry` path as
    ``POST /v1/admin/reload``. Updates the ingest-lag histogram (durable
    append → engine adoption) and the delta-depth gauge. Returns a
    JSON-ready outcome; no-op (``{"merged": None}``) when another merge
    already drained the log.
    """
    engine = server.engine
    registry = server.registry
    with server.ingest_lock:
        entry = registry.merge_pending()
        outcome = None
        if entry is not None:
            outcome = reload_from_registry(
                engine,
                registry,
                retain=server.retain,
                lock=server.reload_lock,
            )
        bundle = getattr(engine, "metrics", None)
        if bundle is not None:
            bundle.delta_depth.set(float(len(registry.pending_runs())))
            if entry is not None and appended_at is not None:
                bundle.ingest_lag.observe(
                    max(0.0, time.perf_counter() - appended_at)
                )
        if entry is not None:
            log_event(
                "ingest_merged",
                version=entry.version,
                base=entry.base,
                deltas=len(entry.deltas),
                swapped=bool(outcome and outcome.get("swapped")),
            )
        return {
            "merged_version": entry.version if entry is not None else None,
            "swap": outcome,
        }


def _ingest_merge_worker(server, appended_at: float) -> None:
    """Background-thread wrapper: a failed merge must not kill serving."""
    try:
        run_ingest_merge(server, appended_at)
    except Exception as error:  # noqa: BLE001 - keep serving on old version
        bundle = getattr(server.engine, "metrics", None)
        if bundle is not None:
            bundle.ingest_batches.inc(status="failed")
        log_event("ingest_merge_failed", error=repr(error))


class RegistryPoller(threading.Thread):
    """Watch a registry manifest and hot-swap when it advances.

    The optional push-free deployment mode of ``repro serve
    --snapshot-dir --poll-interval N``: every ``interval`` seconds the
    manifest's ``(mtime, size)`` token is compared; on change the
    poller runs the same :func:`reload_from_registry` path as
    ``POST /v1/admin/reload``. Reload failures are logged to stderr and
    retried on the next tick (a half-published registry heals itself).
    """

    def __init__(
        self,
        engine: NCEngine,
        registry,
        *,
        interval: float = 5.0,
        retain: "int | None" = None,
        lock: "threading.Lock | None" = None,
    ) -> None:
        super().__init__(name="nc-registry-poller", daemon=True)
        if interval <= 0:
            raise ValueError(f"poll interval must be > 0, got {interval}")
        self.engine = engine
        self.registry = registry
        self.interval = interval
        self.retain = retain
        self._lock = lock
        self._halt = threading.Event()
        self._token = registry.mtime_token()

    def run(self) -> None:
        """Poll until :meth:`stop`; swallow (and log) reload failures."""
        while not self._halt.wait(self.interval):
            token = self.registry.mtime_token()
            if token == self._token:
                continue
            try:
                outcome = reload_from_registry(
                    self.engine,
                    self.registry,
                    retain=self.retain,
                    lock=self._lock,
                )
            except Exception as error:  # noqa: BLE001 - keep serving
                # Token deliberately NOT advanced: a transient failure
                # (unreadable manifest, fd pressure) is retried on the
                # next tick instead of being skipped forever.
                log_event("registry_poll_failed", error=repr(error))
                continue
            self._token = token
            if outcome.get("swapped"):
                log_event(
                    "registry_poll_swapped",
                    old_version=outcome["old_version"],
                    new_version=outcome["new_version"],
                )

    def stop(self, *, timeout: float = 5.0) -> None:
        """Stop polling and join the thread."""
        self._halt.set()
        self.join(timeout=timeout)


def outcome_to_json(outcome: SearchOutcome, graph: KnowledgeGraph) -> dict:
    """The wire shape of one served search."""
    result = outcome.result
    return {
        "query": [graph.node_name(n) for n in result.query],
        "graph_version": outcome.graph_version,
        "cached": outcome.cached,
        "coalesced": outcome.coalesced,
        "context": {
            "algorithm": result.context.algorithm,
            "size": len(result.context),
        },
        "candidates_evaluated": len(result.results),
        "notable": [
            {
                "label": item.label,
                "score": item.score,
                "channel": item.channel,
                "p_value": item.p_value,
                "explanation": item.explanation(graph),
            }
            for item in result.notable
        ],
        "elapsed": {
            "context_s": result.elapsed_context,
            "discrimination_s": result.elapsed_discrimination,
            "request_s": outcome.elapsed_seconds,
        },
    }


class NCServiceServer(ThreadingHTTPServer):
    """A threading HTTP server owning one engine.

    ``registry`` (a :class:`~repro.disk.registry.SnapshotRegistry`)
    enables the ``POST /v1/admin/reload`` hot-swap endpoint; ``retain``
    is the registry's GC knob applied after each successful swap.
    ``reload_lock`` serializes handler- and poller-initiated reloads.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: NCEngine,
        *,
        registry=None,
        retain: "int | None" = None,
    ) -> None:
        super().__init__(address, NCRequestHandler)
        self.engine = engine
        self.registry = registry
        self.retain = retain
        self.reload_lock = threading.Lock()
        #: Serializes merge+publish jobs so overlapping ingest batches
        #: fold into versions one at a time (appends stay concurrent).
        self.ingest_lock = threading.Lock()
        #: Live background merge threads (joined by tests / shutdown).
        self.ingest_threads: "list[threading.Thread]" = []


class NCRequestHandler(BaseHTTPRequestHandler):
    """Dispatches the :data:`ROUTES` table onto the engine."""

    server_version = "repro-nc-service/1.0"
    #: Silenced by default; ``repro serve --verbose`` re-enables it.
    quiet = True
    #: Seconds a socket read or write may stall before the connection is
    #: dropped, so a client that never sends its declared body cannot
    #: hold a handler thread forever.
    timeout = 30.0

    # -- helpers -----------------------------------------------------------

    def _engine(self) -> NCEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def _send_body(
        self,
        body: bytes,
        content_type: str,
        status: int = 200,
        extra_headers: "dict[str, str] | None" = None,
    ) -> None:
        """The one response writer: every route answers through here.

        Records the status for the HTTP metrics and echoes the trace id
        in ``X-Trace-Id`` when the request is being traced.
        """
        self._response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace = getattr(self, "_trace", None)
        if trace is not None:
            self.send_header("X-Trace-Id", trace.trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        extra_headers: "dict[str, str] | None" = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(
            body,
            "application/json; charset=utf-8",
            status,
            extra_headers,
        )

    def _send_error_json(
        self,
        status: int,
        message: str,
        *,
        code: "str | None" = None,
        retry_after: "float | None" = None,
    ) -> None:
        """One JSON error shape for every failure: ``{"error", "code"}``.

        ``code`` is the stable machine-readable identifier (defaulted
        from the status via :data:`DEFAULT_ERROR_CODES`). Every 503
        carries a ``Retry-After`` header — shedding without telling
        clients when to come back just moves the retry storm earlier.
        """
        if code is None:
            code = DEFAULT_ERROR_CODES.get(status, "error")
        headers: "dict[str, str]" = {}
        if status == 503 and retry_after is None:
            retry_after = 1.0
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, round(retry_after)))
        self._send_json(
            {"error": message, "code": code},
            status=status,
            extra_headers=headers or None,
        )

    def _read_body(self, code: str) -> "bytes | None":
        """The request body, or ``None`` after answering an error.

        ``Content-Length`` must be a non-negative integer (a negative one
        would make ``rfile.read`` block until the client half-closes) and
        the client must send all of it; either failure answers 400 with
        ``code``. A length above :data:`MAX_BODY_BYTES` answers 413.
        """
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send_error_json(
                400,
                f"Content-Length must be a non-negative integer, got {raw!r}",
                code=code,
            )
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                code="payload_too_large",
            )
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            self._send_error_json(
                400,
                f"request body ended after {len(body)} of {length} bytes",
                code=code,
            )
            return None
        return body

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Per-request stderr logging, silenced unless ``--verbose``."""
        if not self.quiet:  # pragma: no cover - exercised only with --verbose
            super().log_message(format, *args)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        """Route one request through the table; record HTTP metrics.

        Exact-path routes resolve through :data:`_DISPATCH`; prefix
        routes (the trace-detail endpoint) are scanned as a fallback.
        The handler owns the request's root span: an inbound
        ``traceparent`` is adopted as the remote parent, the trace id
        is echoed via ``X-Trace-Id`` (:meth:`_send_body`), and the
        trace is finished — and retained when sampled, slow, or
        errored — after the response is written.
        """
        url = urlsplit(self.path)
        spec = _DISPATCH.get((method, url.path))
        if spec is None:
            for candidate in _PREFIX_ROUTES:
                if candidate.method == method and url.path.startswith(
                    candidate.path
                ):
                    spec = candidate
                    break
        route_name = spec.name if spec is not None else "unknown"
        self._response_status = 0
        tracer = getattr(self._engine(), "tracer", None)
        self._trace = None
        if tracer is not None and tracer.enabled and spec is not None:
            inbound = parse_traceparent(self.headers.get("traceparent"))
            self._trace = tracer.begin(f"http.{route_name}", parent=inbound)
            if self._trace is not None:
                self._trace.root.set(method=method, path=url.path)
        started = time.perf_counter()
        try:
            if spec is None:
                self._send_error_json(404, f"unknown path {url.path!r}")
            else:
                getattr(self, spec.handler)(url)
        finally:
            status = self._response_status
            elapsed = time.perf_counter() - started
            trace, self._trace = self._trace, None
            bundle = getattr(self._engine(), "metrics", None)
            if bundle is not None:
                bundle.http_requests.inc(
                    route=route_name,
                    method=method,
                    status=str(status),
                )
                bundle.http_latency.observe(
                    elapsed,
                    route=route_name,
                    exemplar=(
                        {"trace_id": trace.trace_id}
                        if trace is not None
                        else None
                    ),
                )
            if trace is not None:
                trace.root.set(status=status)
                tracer.finish(trace, error=status >= 500)
            if get_log_format() == "json":
                log_event(
                    "http_request",
                    trace_id=trace.trace_id if trace is not None else None,
                    route=route_name,
                    method=method,
                    status=status,
                    latency_ms=round(elapsed * 1000.0, 3),
                )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Dispatch GET routes (healthz, stats, metrics, search)."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Dispatch POST routes (search, admin/reload, admin/ingest)."""
        self._dispatch("POST")

    # -- route handlers ----------------------------------------------------

    def _handle_healthz(self, url) -> None:
        """``GET /v1/healthz``: liveness, provenance, and graph summary."""
        engine = self._engine()
        graph = engine.graph
        # "degraded" still answers 200: the engine is alive and
        # serving (cached + fallback paths) — load balancers should
        # keep routing; operators watch the status/reason fields.
        payload = dict(engine.health())
        version_id = engine.pinned_version
        payload.update(
            {
                "version_id": (
                    version_id if version_id is not None else graph.version
                ),
                "uptime_s": round(engine.uptime_s, 3),
                "snapshot_source": engine.snapshot_source,
                "graph": graph.name,
                "graph_version": graph.version,
                "nodes": graph.node_count,
                "edges": graph.edge_count,
                "executor": engine.config.executor,
            }
        )
        self._send_json(payload)

    def _handle_stats(self, url) -> None:
        """``GET /v1/stats``: the engine's counter snapshot as JSON."""
        self._send_json(self._engine().stats().as_dict())

    def _handle_metrics(self, url) -> None:
        """``GET /v1/metrics``: Prometheus text exposition of the registry."""
        text = self._engine().metrics.registry.render()
        self._send_body(text.encode("utf-8"), metrics_mod.CONTENT_TYPE)

    def _handle_search_get(self, url) -> None:
        """``GET /v1/search``: query params → the shared search path."""
        raw = parse_qs(url.query)
        query = [
            part
            for value in raw.get("query", [])
            for part in value.split(",")
            if part
        ]
        params: dict = {"query": query}
        if "context_size" in raw:
            params["context_size"] = raw["context_size"][0]
        if "alpha" in raw:
            params["alpha"] = raw["alpha"][0]
        if "timeout_ms" in raw:
            params["timeout_ms"] = raw["timeout_ms"][0]
        self._run_search(params)

    def _handle_search_post(self, url) -> None:
        """``POST /v1/search``: JSON body → the shared search path."""
        body = self._read_body("bad_request")
        if body is None:
            return
        try:
            params = json.loads(body or b"{}")
        except ValueError:
            self._send_error_json(400, "request body is not valid JSON")
            return
        if not isinstance(params, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return
        self._run_search(params)

    def _handle_admin_reload(self, url) -> None:
        """``POST /v1/admin/reload``: hot-swap onto the registry's newest
        version (no-op when nothing newer is published)."""
        registry = getattr(self.server, "registry", None)
        if registry is None:
            self._send_error_json(
                400,
                "no snapshot registry configured (serve with --snapshot-dir)",
            )
            return
        try:
            outcome = reload_from_registry(
                self._engine(),
                registry,
                retain=getattr(self.server, "retain", None),
                lock=getattr(self.server, "reload_lock", None),
            )
        except (ReproError, ValueError) as error:
            # broken manifest / missing file / non-monotonic registry
            self._send_error_json(500, str(error))
            return
        except RuntimeError as error:  # engine closed (server draining)
            self._send_error_json(503, str(error))
            return
        self._send_json(outcome)

    def _handle_admin_ingest(self, url) -> None:
        """``POST /v1/admin/ingest``: append a delta batch, merge, adopt.

        The append is synchronous — when the response leaves, the run
        file is durable and crash recovery will merge it. The merge +
        hot-swap run in a background thread (or inline with
        ``?wait=1``), so the write path never blocks the read path.
        """
        registry = getattr(self.server, "registry", None)
        if registry is None:
            self._send_error_json(
                400,
                "no snapshot registry configured (serve with --snapshot-dir)",
            )
            return
        from repro.disk.delta import parse_delta_lines

        engine = self._engine()
        bundle = getattr(engine, "metrics", None)
        raw = parse_qs(url.query)
        fmt = raw.get("format", ["nt"])[0]
        wait = raw.get("wait", ["0"])[0] not in ("", "0", "false")
        raw_body = self._read_body("bad_batch")
        if raw_body is None:
            if bundle is not None:
                bundle.ingest_batches.inc(status="rejected")
            return
        try:
            body = raw_body.decode("utf-8")
        except UnicodeDecodeError:
            if bundle is not None:
                bundle.ingest_batches.inc(status="rejected")
            self._send_error_json(
                400, "request body is not valid UTF-8 text", code="bad_batch"
            )
            return
        try:
            ops = parse_delta_lines(body.splitlines(), fmt)
        except (ReproError, ValueError) as error:
            if bundle is not None:
                bundle.ingest_batches.inc(status="rejected")
            self._send_error_json(400, str(error), code="bad_batch")
            return
        appended_at = time.perf_counter()
        try:
            run = registry.append_delta(ops)
        except (ReproError, ValueError) as error:
            # empty registry, torn append (delta.append fault), bad names
            if bundle is not None:
                bundle.ingest_batches.inc(status="failed")
            self._send_error_json(500, str(error), code="ingest_failed")
            return
        if run is None:
            if bundle is not None:
                bundle.ingest_batches.inc(status="noop")
            self._send_json(
                {"accepted": False, "reason": "batch nets out to no change"}
            )
            return
        depth = len(registry.pending_runs())
        if bundle is not None:
            bundle.ingest_batches.inc(status="accepted")
            if run.adds:
                bundle.ingest_triples.inc(run.adds, op="add")
            if run.removes:
                bundle.ingest_triples.inc(run.removes, op="remove")
            bundle.delta_depth.set(float(depth))
        log_event(
            "ingest_append",
            run=run.file,
            base=run.base_version,
            adds=run.adds,
            removes=run.removes,
            pending=depth,
        )
        payload = {
            "accepted": True,
            "run": run.file,
            "base_version": run.base_version,
            "adds": run.adds,
            "removes": run.removes,
            "pending_runs": depth,
        }
        if wait:
            try:
                payload.update(run_ingest_merge(self.server, appended_at))
            except (ReproError, ValueError, RuntimeError) as error:
                # the run IS durable: recovery merges it on the next
                # ingest/reload, so report the merge failure honestly
                # without pretending the append failed too.
                if bundle is not None:
                    bundle.ingest_batches.inc(status="failed")
                self._send_error_json(500, str(error), code="merge_failed")
                return
            self._send_json(payload)
            return
        worker = threading.Thread(
            target=_ingest_merge_worker,
            args=(self.server, appended_at),
            name="nc-ingest-merge",
            daemon=True,
        )
        threads = self.server.ingest_threads  # type: ignore[attr-defined]
        threads[:] = [t for t in threads if t.is_alive()]
        threads.append(worker)
        worker.start()
        self._send_json(payload, status=202)

    def _handle_debug_traces(self, url) -> None:
        """``GET /v1/debug/traces``: recent retained-trace summaries."""
        raw = parse_qs(url.query)
        limit = 50
        if "limit" in raw:
            try:
                limit = int(raw["limit"][0])
            except (TypeError, ValueError):
                limit = -1
            if limit < 1:
                self._send_error_json(
                    400,
                    f"limit must be a positive integer, got {raw['limit'][0]!r}",
                )
                return
        tracer = self._engine().tracer
        self._send_json(
            {
                "traces": tracer.buffer.summaries(limit=limit),
                **tracer.stats(),
            }
        )

    def _handle_debug_trace(self, url) -> None:
        """``GET /v1/debug/traces/<id>``: one full span tree as JSON."""
        trace_id = url.path[len("/v1/debug/traces/"):]
        exported = self._engine().tracer.buffer.get(trace_id)
        if exported is None:
            self._send_error_json(
                404,
                f"no retained trace {trace_id!r} (buffer is bounded; "
                "only sampled, slow, or errored requests are kept)",
                code="trace_not_found",
            )
            return
        self._send_json({**exported, "tree": trace_tree(exported)})

    # -- search ------------------------------------------------------------

    def _run_search(self, params: dict) -> None:
        query = params.get("query")
        if isinstance(query, (str, int)):
            query = [query]
        if not isinstance(query, list) or not query:
            self._send_error_json(400, "missing or empty 'query'")
            return
        try:
            context_size = params.get("context_size")
            alpha = params.get("alpha")
            timeout_ms = params.get("timeout_ms")
            timeout = None
            if timeout_ms is not None:
                try:
                    timeout = float(timeout_ms) / 1000.0
                except (TypeError, ValueError):
                    timeout = -1.0  # rejected just below, same error shape
                if timeout <= 0:
                    self._send_error_json(
                        400,
                        f"timeout_ms must be a positive number, got {timeout_ms}",
                        code="invalid_timeout",
                    )
                    return
            outcome = self._engine().request(
                query,
                context_size=int(context_size) if context_size is not None else None,
                alpha=float(alpha) if alpha is not None else None,
                timeout=timeout,
                trace=getattr(self, "_trace", None),
            )
        except EngineSaturatedError as error:
            # admission control shed the request: bounded queueing beats
            # unbounded latency. Retry-After tells clients when.
            self._send_error_json(
                503,
                str(error),
                code="saturated",
                retry_after=getattr(error, "retry_after", 1.0),
            )
            return
        except DeadlineExceededError as error:
            self._send_error_json(504, str(error), code="deadline_exceeded")
            return
        except StaleSnapshotError as error:
            # every dispatch found its snapshot swapped out before a worker
            # attached it (retry budget exhausted) — transient
            self._send_error_json(
                503, str(error), code="snapshot_retired", retry_after=1.0
            )
            return
        except (ReproError, ValueError, TypeError) as error:
            # bad query contents (unknown entity, float ids, bad numbers)
            self._send_error_json(400, str(error))
            return
        except (RemoteQueryError, WorkerCrashError):
            # worker-backend failure: deterministic for this request, so
            # not a retry-me 503 — and the remote traceback stays out of
            # the response body (it is in the exception for server logs).
            self._send_error_json(
                500,
                "internal error while executing the query on a worker",
                code="worker_error",
            )
            return
        except RuntimeError as error:
            # engine closed (server draining) — tell the client to retry
            self._send_error_json(503, str(error))
            return
        self._send_json(outcome_to_json(outcome, self._engine().graph))


def create_server(
    engine: NCEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 8099,
    registry=None,
    retain: "int | None" = None,
) -> NCServiceServer:
    """Bind an :class:`NCServiceServer` (``port=0`` picks a free port).

    Pass a :class:`~repro.disk.registry.SnapshotRegistry` as ``registry``
    to enable ``POST /v1/admin/reload`` (and ``retain`` for post-swap GC).
    """
    return NCServiceServer((host, port), engine, registry=registry, retain=retain)
