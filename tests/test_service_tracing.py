"""Tests for request tracing: propagation, retention, cross-process stitching."""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.service.engine import EngineConfig, NCEngine
from repro.service.metrics import validate_exposition
from repro.service.server import create_server
from repro.service.tracing import (
    SpanContext,
    Trace,
    Tracer,
    WorkerSpanRecorder,
    log_event,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_log_format,
    trace_tree,
)

TRACE_ID = "0af7651916cd43dd8448eb211c80319c"
SPAN_ID = "b7ad6b7169203331"

#: Families ``/v1/metrics`` must type on a process-executor server: the
#: HTTP layer, hot swaps, micro-batching and live ingest.
SERVING_FAMILIES = {
    "nc_http_requests_total": "counter",
    "nc_http_request_latency_seconds": "histogram",
    "nc_engine_swaps_total": "counter",
    "nc_worker_batch_size": "histogram",
    "nc_ingest_batches_total": "counter",
    "nc_delta_depth": "gauge",
}


class TestTraceparent:
    def test_valid_header_parses(self):
        parsed = parse_traceparent(f"00-{TRACE_ID}-{SPAN_ID}-01")
        assert parsed is not None
        assert parsed.trace_id == TRACE_ID
        assert parsed.span_id == SPAN_ID
        assert parsed.sampled is True

    def test_unsampled_flag(self):
        parsed = parse_traceparent(f"00-{TRACE_ID}-{SPAN_ID}-00")
        assert parsed is not None
        assert parsed.sampled is False

    def test_round_trip(self):
        context = SpanContext(new_trace_id(), new_span_id(), True)
        parsed = parse_traceparent(context.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        assert parsed.sampled is context.sampled

    def test_surrounding_whitespace_tolerated(self):
        parsed = parse_traceparent(f"  00-{TRACE_ID}-{SPAN_ID}-01 ")
        assert parsed is not None
        assert parsed.trace_id == TRACE_ID

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            f"00-{TRACE_ID}-{SPAN_ID}",  # missing flags
            f"00-{TRACE_ID[:-2]}-{SPAN_ID}-01",  # short trace id
            f"00-{TRACE_ID}-{SPAN_ID}ab-01",  # long span id
            f"00-{TRACE_ID.upper()}-{SPAN_ID}-01",  # uppercase hex
            f"ff-{TRACE_ID}-{SPAN_ID}-01",  # forbidden version
            f"00-{'0' * 32}-{SPAN_ID}-01",  # all-zero trace id
            f"00-{TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"00-{TRACE_ID}-{SPAN_ID}-01-extra",  # trailing field
        ],
    )
    def test_malformed_headers_rejected(self, header):
        assert parse_traceparent(header) is None


class TestTracerPolicy:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.begin("http.search") is None
        assert tracer.finish(None) is False

    def test_head_sampling_retains(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.begin("http.search")
        assert trace is not None and trace.sampled
        assert tracer.finish(trace) is True
        exported = tracer.buffer.get(trace.trace_id)
        assert exported is not None
        assert exported["retained"] == "sampled"

    def test_seeded_sampling_is_reproducible(self):
        decisions = []
        for _ in range(2):
            tracer = Tracer(sample_rate=0.5, seed=42)
            decisions.append(
                [tracer.begin("r") is not None for _ in range(64)]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_tail_capture_fast_request_not_retained(self):
        tracer = Tracer(slow_query_ms=10_000.0)
        trace = tracer.begin("http.search")
        assert trace is not None and not trace.sampled  # records anyway
        assert tracer.finish(trace) is False
        assert len(tracer.buffer) == 0

    def test_tail_capture_slow_request_retained(self):
        tracer = Tracer(slow_query_ms=0.001)
        trace = tracer.begin("http.search")
        time.sleep(0.002)
        assert tracer.finish(trace) is True
        exported = tracer.buffer.get(trace.trace_id)
        assert exported["retained"] == "slow"
        assert tracer.stats()["retained_slow"] == 1

    def test_errors_force_retention(self):
        tracer = Tracer(slow_query_ms=10_000.0)
        trace = tracer.begin("http.search")
        assert tracer.finish(trace, error=True) is True
        exported = tracer.buffer.get(trace.trace_id)
        assert exported["retained"] == "error"
        assert exported["error"] is True

    def test_inbound_sampled_parent_forces_continuity(self):
        tracer = Tracer(sample_rate=0.0, slow_query_ms=10_000.0)
        parent = SpanContext(TRACE_ID, SPAN_ID, True)
        trace = tracer.begin("http.search", parent=parent)
        assert trace is not None and trace.sampled
        assert trace.trace_id == TRACE_ID  # id continuity
        assert trace.root.parent_id == SPAN_ID  # child of the remote span
        assert tracer.finish(trace) is True

    def test_buffer_ring_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        traces = [tracer.begin(f"r{i}") for i in range(3)]
        for trace in traces:
            tracer.finish(trace)
        assert tracer.buffer.get(traces[0].trace_id) is None  # evicted
        assert tracer.buffer.get(traces[2].trace_id) is not None
        stats = tracer.stats()
        assert stats["retained"] == 2
        assert stats["dropped"] == 1
        assert stats["started"] == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"sample_rate": -0.1}, {"sample_rate": 1.5}, {"slow_query_ms": 0.0}],
    )
    def test_rejects_bad_policy(self, kwargs):
        with pytest.raises(ValueError):
            Tracer(**kwargs)


class TestSpanStitching:
    def test_remote_spans_rebase_monotonically(self):
        """Worker offset spans land inside their ``pool.worker`` parent."""
        trace = Trace("http.search", sampled=True)
        dispatched_ns = time.monotonic_ns()

        recorder = WorkerSpanRecorder()  # worker-side, origin after dispatch
        start = recorder.now()
        time.sleep(0.001)
        recorder.record("worker.ppr", start, batch_size=2)
        recorder.record("worker.sweep", recorder.now())

        worker = trace.add_span(
            "pool.worker",
            start_ns=dispatched_ns,
            end_ns=time.monotonic_ns(),
        )
        trace.add_remote_spans(
            recorder.export(), base_ns=dispatched_ns, parent=worker
        )
        exported = trace.as_dict()

        by_id = {span["span_id"]: span for span in exported["spans"]}
        remote = [
            span
            for span in exported["spans"]
            if span["name"].startswith("worker.")
        ]
        assert {span["name"] for span in remote} == {
            "worker.ppr",
            "worker.sweep",
        }
        for span in remote:
            parent = by_id[span["parent_id"]]
            assert parent["name"] == "pool.worker"
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
        ppr = next(span for span in remote if span["name"] == "worker.ppr")
        assert ppr["attributes"] == {"batch_size": 2}

    def test_member_scoped_spans_export_per_member(self):
        """Unscoped spans go to every member, scoped ones to their own."""
        recorder = WorkerSpanRecorder()
        recorder.record("worker.attach", recorder.now())
        recorder.record("worker.ppr", recorder.now(), members=[0, 2])
        recorder.record("worker.discriminate", recorder.now(), members=(2,))

        def names(member):
            return [span["name"] for span in recorder.export(member)]

        assert names(0) == ["worker.attach", "worker.ppr"]
        assert names(1) == ["worker.attach"]
        assert names(2) == ["worker.attach", "worker.ppr", "worker.discriminate"]
        assert len(recorder.export()) == 3

    def test_trace_tree_nests_by_parent(self):
        trace = Trace("http.search", sampled=True)
        child = trace.start_span("engine.submit")
        grandchild = trace.start_span("engine.compute", parent=child)
        grandchild.end()
        child.end()
        tree = trace_tree(trace.as_dict())
        assert [node["name"] for node in tree] == ["http.search"]
        assert [node["name"] for node in tree[0]["children"]] == [
            "engine.submit"
        ]
        assert [
            node["name"] for node in tree[0]["children"][0]["children"]
        ] == ["engine.compute"]

    def test_remote_parent_makes_root(self):
        """An inbound traceparent's span id is absent: root stays a root."""
        trace = Trace("http.search", sampled=True, remote_parent=SPAN_ID)
        tree = trace_tree(trace.as_dict())
        assert len(tree) == 1
        assert tree[0]["name"] == "http.search"


class TestStructuredLogging:
    def teardown_method(self):
        set_log_format("text")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            set_log_format("xml")

    def test_text_line(self):
        stream = io.StringIO()
        log_event("http_request", trace_id="abc", stream=stream, status=200)
        assert stream.getvalue() == "http_request trace_id=abc status=200\n"

    def test_json_line(self):
        set_log_format("json")
        stream = io.StringIO()
        log_event("http_request", trace_id="abc", stream=stream, status=200)
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "http_request"
        assert payload["trace_id"] == "abc"
        assert payload["status"] == 200
        assert payload["ts"] > 0


def _serve_traced(max_batch: int):
    """A live server sampling every request over one process worker."""
    engine = NCEngine(
        figure1_graph(),
        config=EngineConfig(
            context_size=3,
            max_workers=1,
            executor="process",
            max_batch=max_batch,
            batch_window_ms=5.0,
            seed=7,
            trace_sample_rate=1.0,
            trace_buffer=64,
            metrics_exemplars=True,
        ),
    )
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, engine
    server.shutdown()
    server.server_close()
    engine.close()


@pytest.fixture(scope="module")
def traced_service():
    """A live server sampling every request, process workers + batching."""
    yield from _serve_traced(max_batch=4)


@pytest.fixture(scope="module")
def unbatched_traced_service():
    """The same server with batching off (``max_batch=1``)."""
    yield from _serve_traced(max_batch=1)


def _get(server, path, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), json.loads(
            response.read()
        )


def _fetch_trace(server, trace_id, timeout_s=5.0):
    """GET one trace, retrying briefly: the server retains it *after*
    writing the search response, so an immediate fetch can race it."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            _, _, trace = _get(server, f"/v1/debug/traces/{trace_id}")
            return trace
        except urllib.error.HTTPError as error:
            if error.code != 404 or time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


def _assert_stitched_tree(server):
    """Check one traced search's tree: http → engine → pool → worker."""
    _, headers, _ = _get(
        server, "/v1/search?query=Matteo_Renzi,Francois_Hollande"
    )
    trace_id = headers["X-Trace-Id"]
    trace = _fetch_trace(server, trace_id)
    assert trace["trace_id"] == trace_id

    names = {span["name"] for span in trace["spans"]}
    assert "http.search" in names
    assert "engine.submit" in names
    assert "engine.compute" in names
    assert "pool.worker" in names
    # worker.attach only appears on the segment's first job, which an
    # earlier test in this module may already have consumed. Every member
    # runs as part of a batch, whatever --max-batch is, so the per-phase
    # spans are always there and no whole-task span is.
    assert {"worker.ppr", "worker.sweep", "worker.discriminate"} <= names
    assert "worker.execute" not in names

    # Every child nests inside its parent's interval — the pickle
    # boundary rebase must keep cross-process timestamps monotonic.
    by_id = {span["span_id"]: span for span in trace["spans"]}
    nested = 0
    for span in trace["spans"]:
        parent = by_id.get(span["parent_id"])
        if parent is None:
            continue
        nested += 1
        assert parent["start_ns"] <= span["start_ns"], span["name"]
        assert span["end_ns"] <= parent["end_ns"], span["name"]
    assert nested >= 5

    # Worker phase time is a subset of the whole request.
    worker_ms = sum(
        span["duration_ms"]
        for span in trace["spans"]
        if span["name"] in ("worker.ppr", "worker.sweep", "worker.discriminate")
    )
    assert 0 < worker_ms <= trace["duration_ms"]

    # The rendered tree roots at the HTTP span.
    tree = trace["tree"]
    assert tree[0]["name"] == "http.search"
    assert tree[0]["children"]


class TestHttpTracing:
    def test_inbound_traceparent_id_is_echoed(self, traced_service):
        server, _ = traced_service
        sent = SpanContext(new_trace_id(), new_span_id(), True)
        status, headers, _ = _get(
            server,
            "/v1/search?query=Angela_Merkel,Barack_Obama",
            headers={"traceparent": sent.to_traceparent()},
        )
        assert status == 200
        assert headers["X-Trace-Id"] == sent.trace_id

    def test_malformed_traceparent_gets_fresh_id(self, traced_service):
        server, _ = traced_service
        _, headers, _ = _get(
            server,
            "/v1/search?query=Vladimir_Putin",
            headers={"traceparent": "zz-not-a-trace-parent"},
        )
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 32
        assert set(trace_id) <= set("0123456789abcdef")
        assert set(trace_id) != {"0"}

    def test_error_traces_are_retained(self, traced_service):
        server, engine = traced_service
        port = server.server_address[1]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/search?query=No_Such_Entity_Xyz"
            )
        trace_id = excinfo.value.headers["X-Trace-Id"]
        deadline = time.monotonic() + 5.0
        exported = engine.tracer.buffer.get(trace_id)
        while exported is None and time.monotonic() < deadline:
            time.sleep(0.02)  # retention happens after the response write
            exported = engine.tracer.buffer.get(trace_id)
        assert exported is not None  # head-sampled; 4xx is not an error span
        root = exported["spans"][0]
        assert root["name"] == "http.search"
        assert root["attributes"]["status"] == 400

    def test_cross_process_stitching_is_monotonic(self, traced_service):
        """The full span tree: http → engine → pool → worker, nested."""
        server, _ = traced_service
        _assert_stitched_tree(server)

    def test_metrics_exemplar_and_serving_families(self, traced_service):
        """A traced worker search leaves its trace id as an exemplar on the
        HTTP latency histogram, in an exposition that validates strictly
        and types every serving, batching and ingest family."""
        server, _ = traced_service
        _, headers, _ = _get(server, "/v1/search?query=Vladimir_Putin,Matteo_Renzi")
        exemplar = f'# {{trace_id="{headers["X-Trace-Id"]}"}}'
        port = server.server_address[1]
        deadline = time.monotonic() + 5.0
        while True:  # the exemplar is recorded after the response write
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/metrics"
            ) as response:
                text = response.read().decode("utf-8")
            buckets = [
                line
                for line in text.splitlines()
                if line.startswith(
                    'nc_http_request_latency_seconds_bucket{route="search",'
                )
            ]
            if any(exemplar in line for line in buckets):
                break
            assert time.monotonic() < deadline, buckets
            time.sleep(0.02)
        families = validate_exposition(text)
        assert {
            family: families.get(family) for family in SERVING_FAMILIES
        } == SERVING_FAMILIES

    def test_span_shape_does_not_depend_on_batching(
        self, unbatched_traced_service
    ):
        """With batching off a lone task is a batch of one: same tree."""
        server, _ = unbatched_traced_service
        _assert_stitched_tree(server)

    def test_debug_listing_and_stats(self, traced_service):
        server, _ = traced_service
        _get(server, "/v1/search?query=Brad_Pitt")
        status, _, body = _get(server, "/v1/debug/traces?limit=5")
        assert status == 200
        assert body["traces"]
        assert len(body["traces"]) <= 5
        newest = body["traces"][0]
        assert newest["retained"] == "sampled"
        assert newest["spans"] >= 1
        assert body["capacity"] == 64
        assert body["sample_rate"] == 1.0
        assert body["started"] >= len(body["traces"])

    def test_debug_trace_not_found(self, traced_service):
        server, _ = traced_service
        port = server.server_address[1]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/debug/traces/{'ab' * 16}"
            )
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["code"] == "trace_not_found"

    def test_debug_listing_rejects_bad_limit(self, traced_service):
        server, _ = traced_service
        port = server.server_address[1]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/debug/traces?limit=0"
            )
        assert excinfo.value.code == 400
