"""Tests for the HTTP JSON front-end (and the `repro serve` wiring)."""

import contextlib
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry
from repro.service import faults
from repro.service.engine import EngineConfig, NCEngine
from repro.service.server import (
    MAX_BODY_BYTES,
    NCRequestHandler,
    create_server,
    outcome_to_json,
)


@pytest.fixture(scope="module")
def service():
    """A live server on an ephemeral port, shared across this module."""
    graph = figure1_graph()
    engine = NCEngine(graph, config=EngineConfig(context_size=3, max_workers=2, seed=5))
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, engine, graph
    server.shutdown()
    server.server_close()
    engine.close()


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, service):
        server, _, graph = service
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["nodes"] == graph.node_count
        assert body["graph_version"] == graph.version

    def test_search_get_end_to_end(self, service):
        server, _, _ = service
        status, body = _get(
            server, "/v1/search?query=Angela_Merkel,Barack_Obama&context_size=3"
        )
        assert status == 200
        assert sorted(body["query"]) == ["Angela_Merkel", "Barack_Obama"]
        assert body["context"]["size"] <= 3
        assert body["candidates_evaluated"] > 0
        assert isinstance(body["notable"], list)
        assert body["elapsed"]["request_s"] > 0

    def test_search_repeated_query_params(self, service):
        server, _, _ = service
        status, body = _get(
            server, "/v1/search?query=Angela_Merkel&query=Barack_Obama"
        )
        assert status == 200
        assert len(body["query"]) == 2

    def test_search_post_hits_cache_of_get(self, service):
        server, _, _ = service
        _get(server, "/v1/search?query=Vladimir_Putin&context_size=3")
        status, body = _post(
            server, "/v1/search", {"query": ["Vladimir_Putin"], "context_size": 3}
        )
        assert status == 200
        assert body["cached"] is True

    def test_stats(self, service):
        server, engine, _ = service
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert body["requests"] == engine.stats().requests
        assert "cache" in body


class TestErrors:
    def test_unknown_path_404(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_missing_query_400(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v1/search")
        assert excinfo.value.code == 400

    def test_unresolvable_entity_400(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v1/search?query=Completely_Unknown_Entity_42")
        error = excinfo.value
        assert error.code == 400
        assert "error" in json.loads(error.read())

    def test_invalid_json_body_400(self, service):
        server, _, _ = service
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/search", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_post_wrong_path_404(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/v1/healthz", {})
        assert excinfo.value.code == 404


class TestSerialization:
    def test_outcome_to_json_shape(self, service):
        _, engine, graph = service
        outcome = engine.request(["Angela_Merkel"])
        payload = outcome_to_json(outcome, graph)
        assert payload["query"] == ["Angela_Merkel"]
        assert set(payload["elapsed"]) == {
            "context_s",
            "discrimination_s",
            "request_s",
        }
        for item in payload["notable"]:
            assert set(item) == {
                "label",
                "score",
                "channel",
                "p_value",
                "explanation",
            }
        json.dumps(payload)  # must be JSON-serializable end to end


class TestServeCommand:
    pytestmark = pytest.mark.slow

    def test_serve_subprocess_answers_search(self, tmp_path):
        """`repro serve` end-to-end: spawn the CLI, hit /v1/search over HTTP."""
        import os
        import subprocess
        import sys
        import time as time_mod

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            # the CLI prints "listening on http://host:port (...)" once ready
            port = None
            deadline = time_mod.monotonic() + 60
            while time_mod.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(line.split("http://", 1)[1].split("(")[0].strip().rsplit(":", 1)[1])
                    break
            assert port, "server did not report its port"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/search?query=Angela_Merkel,Barack_Obama",
                timeout=30,
            ) as response:
                body = json.loads(response.read())
            assert sorted(body["query"]) == ["Angela_Merkel", "Barack_Obama"]
            assert body["candidates_evaluated"] > 0
        finally:
            process.terminate()
            process.wait(timeout=10)


@contextlib.contextmanager
def _serving(engine, registry=None):
    """A live server over ``engine`` on an ephemeral port."""
    server = create_server(engine, port=0, registry=registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


class TestResilienceSurface:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.reset()
        yield
        faults.reset()

    def test_error_bodies_carry_stable_codes(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v1/search")
        assert json.loads(excinfo.value.read())["code"] == "bad_request"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert json.loads(excinfo.value.read())["code"] == "not_found"

    @pytest.mark.parametrize("value", ["0", "-50", "soon"])
    def test_invalid_timeout_ms_400(self, service, value):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, f"/v1/search?query=Angela_Merkel&timeout_ms={value}")
        error = excinfo.value
        assert error.code == 400
        assert json.loads(error.read())["code"] == "invalid_timeout"

    def test_stats_expose_resilience_counters(self, service):
        server, _, _ = service
        _, body = _get(server, "/v1/stats")
        for field in ("timeouts", "retries", "shed", "fallbacks"):
            assert field in body

    def test_deadline_expiry_is_504(self):
        engine = NCEngine(
            figure1_graph(),
            config=EngineConfig(context_size=3, max_workers=1, seed=5),
        )
        with _serving(engine) as server:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.8, limit=1)]
                )
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(
                    server,
                    "/v1/search?query=Angela_Merkel,Barack_Obama&timeout_ms=150",
                )
            error = excinfo.value
            assert error.code == 504
            assert json.loads(error.read())["code"] == "deadline_exceeded"

    def test_saturated_engine_sheds_503_with_retry_after(self):
        engine = NCEngine(
            figure1_graph(),
            config=EngineConfig(context_size=3, max_workers=1, seed=5, max_pending=1),
        )
        with _serving(engine) as server:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.8, limit=1)]
                )
            )
            blocker, *_ = engine.submit(["Angela_Merkel", "Barack_Obama"])
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/v1/search?query=Vladimir_Putin")
            error = excinfo.value
            assert error.code == 503
            assert error.headers["Retry-After"] == "1"
            assert json.loads(error.read())["code"] == "saturated"
            blocker.result(timeout=5.0)

    def test_degraded_breaker_reported_by_healthz(self):
        # A tripped worker-pool breaker must surface on /v1/healthz (still
        # HTTP 200: the engine keeps answering from the fallback, so
        # load balancers should keep routing).
        engine = NCEngine(
            figure1_graph(),
            config=EngineConfig(
                context_size=3,
                max_workers=1,
                executor="process",
                seed=5,
                breaker_threshold=1,
            ),
        )
        engine.breaker.record_failure("simulated crash storm")
        with _serving(engine) as server:
            status, body = _get(server, "/v1/healthz")
            assert status == 200
            assert body["status"] == "degraded"
            assert "circuit breaker is open" in body["reason"]
            _, stats = _get(server, "/v1/stats")
            assert stats["breaker"]["state"] == "open"


class TestGracefulShutdown:
    pytestmark = pytest.mark.slow

    def test_sigterm_drains_and_exits_cleanly(self):
        """SIGTERM to `repro serve`: drain, close, exit 0."""
        import os
        import signal
        import subprocess
        import sys
        import time as time_mod

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--port",
                "0",
                "--drain-timeout",
                "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time_mod.monotonic() + 60
            while time_mod.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(
                        line.split("http://", 1)[1]
                        .split("(")[0]
                        .strip()
                        .rsplit(":", 1)[1]
                    )
                    break
            assert port, "server did not report its port"
            # One request proves the server is live before the signal.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/healthz", timeout=30
            ) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0
        assert "draining and shutting down" in output
        assert "shut down cleanly" in output


class TestNonStringQueryItems:
    def test_float_query_id_is_400_not_dropped_connection(self, service):
        server, _, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/v1/search", {"query": [1.5]})
        error = excinfo.value
        assert error.code == 400
        assert "error" in json.loads(error.read())

    def test_get_integer_node_id_resolves(self, service):
        server, _, graph = service
        node_id = graph.node_id("Angela_Merkel")
        status, body = _get(server, f"/v1/search?query={node_id}")
        assert status == 200
        assert body["query"] == ["Angela_Merkel"]


def _raw(server, path, *, method="GET", payload=None):
    """(status, headers, raw body bytes) — for parity/header assertions."""
    port = server.server_address[1]
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestV1Api:
    """The versioned surface: every route lives under /v1/."""

    def test_v1_routes_answer(self, service):
        server, _, graph = service
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body["nodes"] == graph.node_count
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert "requests" in body
        status, body = _get(server, "/v1/search?query=Angela_Merkel,Barack_Obama")
        assert status == 200
        assert len(body["query"]) == 2

    def test_healthz_serving_metadata(self, service):
        server, engine, graph = service
        _, body = _get(server, "/v1/healthz")
        assert body["version_id"] == graph.version
        assert body["uptime_s"] > 0
        assert body["snapshot_source"] == "live-graph"
        assert body["uptime_s"] == pytest.approx(engine.uptime_s, abs=5.0)

    def test_metrics_route_serves_prometheus_text(self, service):
        from repro.service.metrics import CONTENT_TYPE, validate_exposition

        server, _, _ = service
        status, headers, body = _raw(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = validate_exposition(body.decode("utf-8"))
        assert "nc_http_requests_total" in families

    def test_unknown_v1_path_is_404(self, service):
        server, _, _ = service
        status, _, body = _raw(server, "/v1/nope")
        assert status == 404
        assert json.loads(body)["code"] == "not_found"

    def test_every_route_is_under_v1(self):
        from repro.service.server import ROUTES

        assert all(spec.path.startswith("/v1/") for spec in ROUTES)

    @pytest.mark.parametrize("path", ["/search", "/healthz"])
    def test_unprefixed_paths_are_not_found(self, service, path):
        server, _, _ = service
        status, headers, body = _raw(server, path)
        assert status == 404
        assert json.loads(body)["code"] == "not_found"
        assert "Deprecation" not in headers


def _raw_post(server, path, length, body=b"", half_close=False):
    """POST ``Content-Length: length`` then ``body`` over a raw socket.

    The client half-closes only when ``half_close`` is set. Returns the
    raw response bytes, ``b""`` when the server closed without answering.
    A server that waits for bytes that never come fails the test on the
    socket timeout.
    """
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n".encode() + body
        )
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


def _parse(response):
    """``(status, JSON body)`` of a raw HTTP response."""
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


#: One N-Triples add line, 32 bytes: sent under a larger declared length.
PARTIAL_BATCH = b"+ <short_a> <knows> <short_b> .\n"


@contextlib.contextmanager
def _ingest_server(tmp_path):
    """A registry-backed live server over figure 1 (version 1)."""
    registry = SnapshotRegistry(tmp_path / "serving")
    registry.publish_graph(figure1_graph())
    engine = NCEngine(registry.open_view(), config=EngineConfig(context_size=3))
    with _serving(engine, registry=registry) as server:
        yield server, registry, engine


class TestNegativeContentLength:
    def test_search_answers_400_without_waiting_for_eof(self, service):
        server, _, _ = service
        status, body = _parse(_raw_post(server, "/v1/search", -1))
        assert status == 400
        assert body["code"] == "bad_request"

    def test_ingest_answers_400_without_waiting_for_eof(self, tmp_path):
        with _ingest_server(tmp_path) as (server, _, _):
            status, body = _parse(_raw_post(server, "/v1/admin/ingest", -1))
        assert status == 400
        assert body["code"] == "bad_batch"

    def test_search_short_body_answers_400(self, service):
        server, _, _ = service
        complete_json = b'{"query": ["Angela_Merkel", "Barack_Obama"]}'
        response = _raw_post(server, "/v1/search", 100, complete_json, half_close=True)
        status, body = _parse(response)
        assert status == 400
        assert body["code"] == "bad_request"

    def test_ingest_short_body_appends_nothing(self, tmp_path):
        with _ingest_server(tmp_path) as (server, registry, engine):
            response = _raw_post(
                server,
                "/v1/admin/ingest?wait=1",
                100,
                PARTIAL_BATCH,
                half_close=True,
            )
            rejected = engine.metrics.ingest_batches.value(status="rejected")
        status, body = _parse(response)
        assert status == 400
        assert body["code"] == "bad_batch"
        assert rejected == 1
        assert registry.pending_runs() == []
        assert registry.latest().version == 1

    def test_silent_client_is_dropped(self, service, monkeypatch):
        # The stdlib default is None: block on the socket forever.
        assert NCRequestHandler.timeout is not None
        assert NCRequestHandler.timeout > 0
        monkeypatch.setattr(NCRequestHandler, "timeout", 0.3)
        server, _, _ = service
        assert _raw_post(server, "/v1/search", 100) == b""

    def test_oversized_length_answers_413_unread(self, tmp_path):
        with _ingest_server(tmp_path) as (server, registry, engine):
            status, body = _parse(
                _raw_post(server, "/v1/admin/ingest", MAX_BODY_BYTES + 1)
            )
            rejected = engine.metrics.ingest_batches.value(status="rejected")
        assert status == 413
        assert body["code"] == "payload_too_large"
        assert rejected == 1
        assert registry.latest().version == 1
