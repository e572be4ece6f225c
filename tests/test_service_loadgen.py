"""Tests for the Zipf load harness: schedules, determinism, execution."""

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.service.engine import EngineConfig, NCEngine
from repro.service.loadgen import (
    LoadEvent,
    LoadProfile,
    build_schedule,
    engine_target,
    entity_ranking,
    run_load,
)

ENTITIES = [f"entity_{i}" for i in range(20)]


class TestProfileValidation:
    def test_defaults_are_valid(self):
        LoadProfile()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "burst"},
            {"rate": 0.0},
            {"duration_s": 0.0},
            {"requests": 0},
            {"concurrency": 0},
            {"zipf_s": 0.0},
            {"session_length": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadProfile(**kwargs)


class TestBuildSchedule:
    def test_same_seed_same_schedule(self):
        profile = LoadProfile(mode="open", rate=100.0, duration_s=2.0, seed=3)
        first, first_skew = build_schedule(ENTITIES, profile)
        second, second_skew = build_schedule(ENTITIES, profile)
        assert first == second
        assert first_skew == second_skew

    def test_different_seed_different_schedule(self):
        base = LoadProfile(mode="open", rate=100.0, duration_s=2.0, seed=3)
        other = LoadProfile(mode="open", rate=100.0, duration_s=2.0, seed=4)
        assert build_schedule(ENTITIES, base) != build_schedule(ENTITIES, other)

    def test_open_loop_respects_duration_and_rate(self):
        profile = LoadProfile(mode="open", rate=200.0, duration_s=1.0, seed=0)
        schedule, _ = build_schedule(ENTITIES, profile)
        assert all(request.at_s < 1.0 for request in schedule)
        assert schedule == sorted(schedule, key=lambda r: r.at_s)
        # Poisson arrivals: expect rate*duration +- a generous band
        assert 100 <= len(schedule) <= 320

    def test_closed_loop_has_exact_count_and_no_arrival_times(self):
        profile = LoadProfile(mode="closed", requests=37, seed=0)
        schedule, _ = build_schedule(ENTITIES, profile)
        assert len(schedule) == 37
        assert all(request.at_s == 0.0 for request in schedule)

    def test_queries_are_entity_pairs_from_pool(self):
        profile = LoadProfile(mode="closed", requests=50, seed=1)
        schedule, _ = build_schedule(ENTITIES, profile)
        for request in schedule:
            assert len(request.query) == 2
            assert request.query[0] != request.query[1]
            assert set(request.query) <= set(ENTITIES)

    def test_zipf_skew_concentrates_head(self):
        flat = LoadProfile(mode="closed", requests=400, zipf_s=0.5, seed=2)
        steep = LoadProfile(mode="closed", requests=400, zipf_s=2.5, seed=2)
        _, flat_skew = build_schedule(ENTITIES, flat)
        _, steep_skew = build_schedule(ENTITIES, steep)
        assert steep_skew["head_10pct_share"] > flat_skew["head_10pct_share"]
        assert 0.0 < flat_skew["top_pair_share"] <= 1.0

    def test_sessions_group_consecutive_requests(self):
        profile = LoadProfile(mode="closed", requests=60, session_length=5, seed=0)
        schedule, skew = build_schedule(ENTITIES, profile)
        sessions = {request.session for request in schedule}
        assert skew["sessions"] == len(sessions)
        assert 1 <= len(sessions) < len(schedule)

    def test_needs_two_entities(self):
        with pytest.raises(ValueError):
            build_schedule(["only_one"], LoadProfile())


class TestRunLoad:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = figure1_graph()
        with NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=2, seed=5),
        ) as engine:
            engine.pin()
            yield engine

    def test_closed_loop_completes_all(self, engine):
        profile = LoadProfile(mode="closed", requests=24, concurrency=3, seed=0)
        entities = entity_ranking(engine.graph, limit=8)
        schedule, _ = build_schedule(entities, profile)
        report = run_load(engine_target(engine), schedule, profile)
        assert report.completed == 24
        assert report.errors == {}
        assert len(report.latencies_s) == 24
        assert report.quantile(0.5) > 0
        summary = report.summary()
        assert summary["latency_s"]["p99"] >= summary["latency_s"]["p50"]

    def test_open_loop_measures_from_scheduled_arrival(self, engine):
        profile = LoadProfile(mode="open", rate=60.0, duration_s=0.5, seed=1)
        entities = entity_ranking(engine.graph, limit=8)
        schedule, _ = build_schedule(entities, profile)
        report = run_load(engine_target(engine), schedule, profile)
        assert report.completed == len(schedule)
        assert report.achieved_rps > 0
        assert report.dispatch_lag_p99_s >= 0.0

    def test_errors_are_counted_not_raised(self):
        profile = LoadProfile(mode="closed", requests=5, concurrency=2, seed=0)
        schedule, _ = build_schedule(ENTITIES, profile)

        def broken(query):
            raise RuntimeError("boom")

        report = run_load(broken, schedule, profile)
        assert report.completed == 0
        assert report.errors == {"RuntimeError": 5}

    def test_events_fire_and_failures_recorded(self, engine):
        profile = LoadProfile(mode="closed", requests=8, concurrency=2, seed=0)
        entities = entity_ranking(engine.graph, limit=8)
        schedule, _ = build_schedule(entities, profile)
        fired = []
        events = (
            LoadEvent(at_s=0.0, name="mark", action=lambda: fired.append(1)),
            LoadEvent(
                at_s=0.0,
                name="boom",
                action=lambda: (_ for _ in ()).throw(RuntimeError("x")),
            ),
        )
        report = run_load(engine_target(engine), schedule, profile, events=events)
        assert fired == [1]
        assert "mark" in report.events_fired
        assert "boom" in report.event_errors


class TestEntityRanking:
    def test_limit_and_order(self):
        graph = figure1_graph()
        names = entity_ranking(graph, limit=5)
        assert len(names) == 5
        assert names == [graph.node_name(i) for i in range(5)]
