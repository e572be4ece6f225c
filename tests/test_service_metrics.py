"""Tests for the metrics layer: primitives, exposition, engine wiring,
the scrape-while-loaded acceptance path, and ``/v1/stats`` reading the
same series ``/v1/metrics`` renders."""

import json
import math
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry
from repro.errors import DeadlineExceededError, EngineSaturatedError
from repro.service import faults
from repro.service.engine import EngineConfig, NCEngine
from repro.service.metrics import (
    CONTENT_TYPE,
    MetricsRegistry,
    ServiceMetrics,
    validate_exposition,
)
from repro.service.server import create_server
from repro.service.workers import ProcessWorkerPool

QUERY = ["Angela_Merkel", "Barack_Obama"]


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


#: Every key of a process-executor ``/v1/stats`` body, nested keys dotted.
STATS_KEYS = frozenset({
    "requests", "cache_hits", "coalesced", "computed", "swaps",
    "pinned_version", "drained_versions", "draining_versions", "inflight",
    "max_workers", "executor", "timeouts", "retries", "shed", "fallbacks",
    "cache.hits", "cache.misses", "cache.evictions", "cache.purged",
    "cache.size", "cache.maxsize", "cache.hit_rate",
    "workers.workers", "workers.alive", "workers.dispatched",
    "workers.completed", "workers.stale_retries", "workers.respawns",
    "workers.inflight", "workers.deadline_abandons",
    "workers.respawns_suppressed", "workers.batches", "workers.batched_members",
    "breaker.state", "breaker.consecutive_failures", "breaker.trips",
    "breaker.reason",
})

#: Every family a process-executor engine's ``/v1/metrics`` renders.
FAMILIES = frozenset({
    "nc_http_requests_total", "nc_http_request_latency_seconds",
    "nc_engine_requests_total", "nc_cache_events_total",
    "nc_engine_coalesced_total", "nc_engine_computed_total",
    "nc_compute_latency_seconds", "nc_engine_timeouts_total",
    "nc_engine_shed_total", "nc_engine_fallbacks_total",
    "nc_engine_backend_retries_total", "nc_engine_swaps_total",
    "nc_engine_drained_versions_total", "nc_worker_events_total",
    "nc_worker_batch_size", "nc_ingest_batches_total",
    "nc_ingest_triples_total", "nc_ingest_lag_seconds", "nc_delta_depth",
    "nc_engine_inflight", "nc_engine_pinned_version", "nc_breaker_state",
    "nc_engine_uptime_seconds", "nc_cache_entries",
})

#: ``/v1/stats`` field -> the ``/v1/metrics`` sample it must equal.
STATS_SERIES = {
    "requests": ("nc_engine_requests_total", {"executor": "process"}),
    "cache_hits": ("nc_cache_events_total", {"event": "hit"}),
    "coalesced": ("nc_engine_coalesced_total", {}),
    "computed": ("nc_engine_computed_total", {"backend": "process"}),
    "swaps": ("nc_engine_swaps_total", {}),
    "timeouts": ("nc_engine_timeouts_total", {}),
    "retries": ("nc_engine_backend_retries_total", {}),
    "shed": ("nc_engine_shed_total", {}),
    "fallbacks": ("nc_engine_fallbacks_total", {}),
    "pinned_version": ("nc_engine_pinned_version", {}),
    "inflight": ("nc_engine_inflight", {}),
    "cache.hits": ("nc_cache_events_total", {"event": "hit"}),
    "cache.misses": ("nc_cache_events_total", {"event": "miss"}),
    "cache.evictions": ("nc_cache_events_total", {"event": "eviction"}),
    "cache.purged": ("nc_cache_events_total", {"event": "purged"}),
    "cache.size": ("nc_cache_entries", {}),
    "workers.dispatched": ("nc_worker_events_total", {"event": "dispatch"}),
    "workers.completed": ("nc_worker_events_total", {"event": "complete"}),
    "workers.stale_retries": ("nc_worker_events_total", {"event": "stale"}),
    "workers.respawns": ("nc_worker_events_total", {"event": "respawn"}),
    "workers.deadline_abandons": (
        "nc_worker_events_total", {"event": "deadline_abandon"}
    ),
    "workers.respawns_suppressed": (
        "nc_worker_events_total", {"event": "respawn_suppressed"}
    ),
    "workers.batches": ("nc_worker_batch_size_count", {}),
    "workers.batched_members": ("nc_worker_batch_size_sum", {}),
}

#: Numeric ``/v1/stats`` fields that are configuration or live state with
#: no registry series.
STATE_FIELDS = frozenset({
    "max_workers", "cache.maxsize", "cache.hit_rate", "workers.workers",
    "workers.alive", "workers.inflight", "breaker.consecutive_failures",
    "breaker.trips",
})

_SAMPLE = re.compile(r"^(\w+)(?:\{([^}]*)\})? (\S+)$")


def _flatten(body: dict, prefix: str = "") -> dict:
    """``body`` with nested objects' keys dotted (``cache.hits``)."""
    fields = {}
    for key, value in body.items():
        if isinstance(value, dict):
            fields.update(_flatten(value, f"{prefix}{key}."))
        else:
            fields[prefix + key] = value
    return fields


def _samples(text: str) -> dict:
    """``(name, frozenset(label pairs)) -> value`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, labels, value = _SAMPLE.match(line).groups()
            pairs = frozenset(re.findall(r'(\w+)="([^"]*)"', labels or ""))
            samples[name, pairs] = float(value)
    return samples


class TestOneTelemetrySource:
    """``/v1/stats`` reads the series ``/v1/metrics`` renders."""

    def test_stats_equal_their_series_after_a_scripted_mix(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        registry.publish_graph(figure1_graph())
        engine = NCEngine(
            registry.open_view(1),
            config=EngineConfig(
                context_size=3,
                max_workers=1,
                executor="process",
                seed=5,
                cache_size=2,
                max_pending=1,
                retries=1,
                retry_backoff=0.01,
            ),
        )
        server = create_server(engine, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            # Fault specs are read at spawn, and each spawned worker fires
            # its rule on its first batches only. No worker is killed: a
            # SIGKILL can land while the worker still holds the shared
            # result queue's write lock, which wedges every later reply.
            # Crash retries: the first worker and its respawn crash, so
            # the retry budget runs out into the fallback; the next one
            # crashes too, and its respawn answers the retry.
            monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash=1:0:1")
            pool = ProcessWorkerPool(
                1, watchdog_tick=0.05, crash_grace_s=0.2, metrics=engine.metrics
            )
            engine._pool = pool  # noqa: SLF001 - test harness
            engine.search(["Francois_Hollande"])
            # The healthy respawn stalls 1 s on each of its first two batches.
            monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:1.0:2")
            engine.search(["Brad_Pitt"])
            monkeypatch.delenv(faults.FAULTS_ENV)

            # Behind the second stall: a coalesced pair, a shed, a timeout.
            slow, *_ = engine.submit(QUERY, timeout=0.5)
            joined, _, coalesced, _ = engine.submit(QUERY)
            assert joined is slow and coalesced
            with pytest.raises(EngineSaturatedError):
                engine.submit(["Vladimir_Putin"])
            with pytest.raises(DeadlineExceededError):
                slow.result(timeout=10.0)

            # Three misses into a full two-entry cache, then one hit.
            for query in (QUERY, ["Vladimir_Putin"], ["Matteo_Renzi"]):
                engine.search(query)
            assert engine.request(["Matteo_Renzi"]).cached

            # A swap purges the cached v1 entries; v1 drains at once.
            assert engine.swap_snapshot(registry.open_view(2)).swapped
            engine.search(QUERY)

            with urllib.request.urlopen(base + "/v1/stats") as response:
                fields = _flatten(json.loads(response.read()))
            with urllib.request.urlopen(base + "/v1/metrics") as response:
                text = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

        assert set(validate_exposition(text)) == FAMILIES
        samples = _samples(text)
        assert set(fields) == STATS_KEYS
        for field, (name, labels) in STATS_SERIES.items():
            series = samples.get((name, frozenset(labels.items())), 0.0)
            assert fields[field] == series, field
        assert len(fields["drained_versions"]) == samples[
            "nc_engine_drained_versions_total", frozenset()
        ]
        numeric = {
            field
            for field, value in fields.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        assert numeric == set(STATS_SERIES) | STATE_FIELDS
        # The mix reached every event it scripts.
        assert fields["coalesced"] == fields["shed"] == fields["timeouts"] == 1
        assert fields["fallbacks"] == fields["swaps"] == 1
        assert fields["drained_versions"] == [1]
        for field in (
            "cache_hits", "cache.misses", "cache.evictions", "cache.purged",
            "retries", "workers.respawns", "workers.deadline_abandons",
        ):
            assert fields[field] >= 1, field

