"""Tests for the metrics layer: primitives, exposition, engine wiring,
and the scrape-while-loaded acceptance path."""

import math
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.service.engine import EngineConfig, NCEngine
from repro.service.metrics import (
    CONTENT_TYPE,
    MetricsRegistry,
    ServiceMetrics,
    validate_exposition,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_requests_total", "requests")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_hits_total", "hits", labelnames=("route",))
        counter.inc(route="a")
        counter.inc(5, route="b")
        assert counter.value(route="a") == 1
        assert counter.value(route="b") == 5
        assert counter.value(route="missing") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("t_total", "t")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_concurrent_increments_are_exact(self):
        counter = MetricsRegistry().counter(
            "t_concurrent_total", "t", labelnames=("slot",)
        )
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def hammer(slot):
            barrier.wait()
            for _ in range(per_thread):
                counter.inc(slot=str(slot % 2))

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = counter.value(slot="0") + counter.value(slot="1")
        assert total == threads * per_thread


class TestHistogram:
    def test_bucket_math(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_latency_seconds", "latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        # cumulative: le=0.1 -> 1, le=1.0 -> 3, le=10.0 -> 4, +Inf -> 5
        assert snap["buckets"][0.1] == 1
        assert snap["buckets"][1.0] == 3
        assert snap["buckets"][10.0] == 4
        assert snap["buckets"][math.inf] == 5

    def test_boundary_lands_in_its_bucket(self):
        histogram = MetricsRegistry().histogram(
            "t_edge_seconds", "edges", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)  # le="1.0" is inclusive, Prometheus-style
        assert histogram.snapshot()["buckets"][1.0] == 1

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram(
                "t_bad_seconds", "bad", buckets=(1.0, 1.0)
            )

    def test_concurrent_observations_are_exact(self):
        histogram = MetricsRegistry().histogram(
            "t_par_seconds", "par", buckets=(0.5,)
        )
        threads = 6
        per_thread = 3000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                histogram.observe(0.25 if i % 2 else 0.75)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = histogram.snapshot()
        assert snap["count"] == threads * per_thread
        assert snap["buckets"][0.5] == threads * per_thread // 2


class TestGauge:
    def test_set_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_gauge", "g")
        gauge.set(4.0)
        assert "t_gauge 4" in registry.render()
        gauge.set_function(lambda: 7.5)
        assert "t_gauge 7.5" in registry.render()

    def test_raising_callback_renders_nan(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_boom", "g")
        gauge.set_function(lambda: 1 / 0)
        assert "t_boom NaN" in registry.render()
        assert validate_exposition(registry.render())


class TestRegistry:
    def test_idempotent_registration_shares_series(self):
        registry = MetricsRegistry()
        first = registry.counter("t_shared_total", "shared")
        second = registry.counter("t_shared_total", "shared")
        assert first is second

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_kind_total", "k")
        with pytest.raises(ValueError):
            registry.histogram("t_kind_total", "k", buckets=(1.0,))
        registry.counter("t_labels_total", "k", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("t_labels_total", "k", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad", "starts with a digit")
        with pytest.raises(ValueError):
            registry.counter("t_ok_total", "le is reserved", labelnames=("le",))

    def test_render_passes_strict_validation(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_req_total", "req", labelnames=("route",))
        counter.inc(route='weird "quoted" \\ multi\nline')
        histogram = registry.histogram("t_lat_seconds", "lat", buckets=(0.1,))
        histogram.observe(0.05)
        families = validate_exposition(registry.render())
        assert families["t_req_total"] == "counter"
        assert families["t_lat_seconds"] == "histogram"

    def test_validator_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            validate_exposition("this is { not metrics\n")
        with pytest.raises(ValueError):
            # histogram family without its +Inf bucket
            validate_exposition(
                "# HELP h x\n# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n'
            )


class TestEngineConfig:
    def test_validation_messages_preserved(self):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            EngineConfig(max_workers=0)
        with pytest.raises(ValueError, match="executor must be"):
            EngineConfig(executor="fiber")
        with pytest.raises(ValueError, match="request_timeout must be positive"):
            EngineConfig(request_timeout=0)

    def test_max_batch_needs_the_process_executor(self):
        with pytest.raises(ValueError, match="requires the process executor"):
            EngineConfig(max_batch=4)
        assert EngineConfig(executor="process", max_batch=4).max_batch == 4

    def test_config_is_the_only_construction_form(self):
        graph = figure1_graph()
        with pytest.raises(TypeError):
            NCEngine(graph, context_size=3)
        with pytest.raises(TypeError):
            NCEngine(graph, config={"cache_size": 4})
        with NCEngine(graph) as engine:
            assert engine.config == EngineConfig()

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            NCEngine(figure1_graph(), turbo=True)


@pytest.fixture(scope="module")
def engine():
    graph = figure1_graph()
    with NCEngine(
        graph,
        config=EngineConfig(context_size=3, max_workers=2, seed=5),
    ) as engine:
        engine.pin()
        yield engine


class TestEngineWiring:
    def test_request_paths_are_counted(self, engine):
        metrics = engine.metrics
        engine.cache.clear()
        before = metrics.computed.value(backend="thread")
        engine.request(["Angela_Merkel", "Barack_Obama"])
        engine.request(["Angela_Merkel", "Barack_Obama"])  # cache hit
        assert metrics.computed.value(backend="thread") == before + 1
        assert metrics.cache_events.value(event="hit") >= 1
        assert metrics.cache_events.value(event="miss") >= 1
        lat = metrics.compute_latency.snapshot(backend="thread")
        assert lat["count"] >= 1

    def test_gauges_render(self, engine):
        text = engine.metrics.render()
        families = validate_exposition(text)
        assert families["nc_engine_inflight"] == "gauge"
        assert "nc_engine_uptime_seconds" in families
        assert "nc_breaker_state" in families
        assert engine.uptime_s > 0
        assert engine.snapshot_source == "live-graph"

    def test_service_metrics_render_is_valid_when_empty(self):
        assert validate_exposition(ServiceMetrics().render()) != {}


class TestScrapeUnderTraffic:
    def test_metrics_endpoint_valid_under_concurrent_load(self):
        """The acceptance bar: /v1/metrics stays well-formed while the
        server is actively serving search traffic."""
        from repro.service.server import create_server

        graph = figure1_graph()
        engine = NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=2, seed=5),
        )
        server = create_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        base = f"http://127.0.0.1:{port}"
        stop = threading.Event()
        errors = []

        def traffic():
            queries = ("Angela_Merkel,Barack_Obama", "Vladimir_Putin,Angela_Merkel")
            i = 0
            while not stop.is_set():
                i += 1
                try:
                    with urllib.request.urlopen(
                        f"{base}/v1/search?query={queries[i % 2]}&context_size=3"
                    ) as response:
                        response.read()
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)
                    return

        clients = [threading.Thread(target=traffic) for _ in range(3)]
        try:
            for c in clients:
                c.start()
            for _ in range(10):
                with urllib.request.urlopen(f"{base}/v1/metrics") as response:
                    assert response.status == 200
                    assert response.headers["Content-Type"] == CONTENT_TYPE
                    families = validate_exposition(
                        response.read().decode("utf-8")
                    )
                assert "nc_http_requests_total" in families
                assert families["nc_http_request_latency_seconds"] == "histogram"
        finally:
            stop.set()
            for c in clients:
                c.join()
            server.shutdown()
            server.server_close()
            engine.close()
        assert not errors

    def test_http_metrics_label_routes(self):
        from repro.service.server import create_server

        graph = figure1_graph()
        engine = NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=2, seed=5),
        )
        server = create_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        base = f"http://127.0.0.1:{port}"
        try:
            for path in ("/v1/healthz", "/v1/stats"):
                with urllib.request.urlopen(base + path) as response:
                    response.read()
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/healthz")
            requests = engine.metrics.http_requests
            # The handler records its metrics after flushing the response
            # body, so give the server thread a beat to finish its
            # finally-block before asserting.
            deadline = time.monotonic() + 5.0
            while (
                requests.value(route="healthz", method="GET", status="200") < 1
                or requests.value(route="stats", method="GET", status="200") < 1
                or requests.value(route="unknown", method="GET", status="404") < 1
            ) and time.monotonic() < deadline:
                time.sleep(0.01)
            # an unprefixed spelling is an unknown path, not a healthz hit
            assert requests.value(route="healthz", method="GET", status="200") == 1
            assert requests.value(route="stats", method="GET", status="200") == 1
            assert requests.value(route="unknown", method="GET", status="404") == 1
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
