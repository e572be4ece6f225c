"""Tests for the concurrent NC query engine (pinning, cache, single-flight)."""

import threading

import pytest

from repro.core.findnc import FindNCResult
from repro.datasets.figure1 import figure1_graph
from repro.errors import EntityResolutionError, QueryError
from repro.service.engine import EngineConfig, NCEngine


@pytest.fixture()
def graph():
    return figure1_graph()


@pytest.fixture()
def engine(graph):
    with NCEngine(
        graph,
        config=EngineConfig(context_size=3, max_workers=2, seed=5),
    ) as eng:
        yield eng


QUERY = ["Angela_Merkel", "Barack_Obama"]


class TestSearch:
    def test_end_to_end(self, engine, graph):
        result = engine.search(QUERY)
        assert isinstance(result, FindNCResult)
        assert sorted(graph.node_name(n) for n in result.query) == sorted(QUERY)
        assert len(result.context) <= 3
        assert result.results  # candidates were evaluated

    def test_cache_hit_returns_same_object(self, engine):
        first = engine.search(QUERY)
        outcome = engine.request(QUERY)
        assert outcome.cached
        assert outcome.result is first

    def test_identical_requests_are_deterministic(self, engine):
        first = engine.search(QUERY)
        engine.cache.clear()
        second = engine.search(QUERY)
        assert second is not first
        assert [r.label for r in second.results] == [r.label for r in first.results]
        assert [r.score for r in second.results] == [r.score for r in first.results]

    def test_query_spelling_shares_cache_entry(self, engine, graph):
        engine.search(QUERY)
        # fuzzy spelling, different order, and raw ids all canonicalize
        outcome = engine.request(["barack obama", "angela merkel"])
        assert outcome.cached
        ids = engine.request([graph.node_id(n) for n in QUERY])
        assert ids.cached
        assert engine.stats().computed == 1

    def test_params_are_part_of_the_key(self, engine):
        engine.search(QUERY)
        assert not engine.request(QUERY, context_size=2).cached
        assert not engine.request(QUERY, alpha=0.1).cached
        assert engine.stats().computed == 3

    def test_empty_query_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search([])

    def test_closed_engine_rejects_requests(self, graph):
        eng = NCEngine(graph, config=EngineConfig(context_size=3))
        eng.close()
        with pytest.raises(RuntimeError):
            eng.search(QUERY)


class TestPinning:
    def test_pin_is_stable_without_mutation(self, engine):
        assert engine.pin() is engine.pin()
        assert engine.stats().swaps == 0


def _answer(result):
    return [(r.label, r.score, r.inst_p_value, r.card_p_value) for r in result.results]


class TestFrozenAtConstruction:
    """A graph-built engine serves the version it froze at construction."""

    def test_mutating_the_graph_changes_neither_answers_nor_version(
        self, engine, graph
    ):
        version = engine.graph.version
        assert version == graph.version
        first = engine.search(QUERY)
        state = engine.pin()
        graph.add_edge("Angela_Merkel", "ownsPet", "Dog")
        graph.add_edge("Newcomer_Entity", "leaderOf", "Germany")
        assert graph.version > version
        assert engine.graph.version == version
        assert engine.pin() is state
        engine.cache.clear()
        assert _answer(engine.search(QUERY)) == _answer(first)
        with pytest.raises(EntityResolutionError):
            engine.search(["Newcomer_Entity"])

    def test_swap_onto_a_snapshot_of_the_mutated_graph(
        self, engine, graph, tmp_path
    ):
        from repro.disk import save_graph_snapshot

        first = engine.search(QUERY)
        version_before = engine.stats().pinned_version
        assert engine.cache.stats().size == 1
        graph.add_edge("Angela_Merkel", "ownsPet", "Dog")
        graph.add_edge("Newcomer_Entity", "leaderOf", "Germany")
        save_graph_snapshot(graph, tmp_path / "mutated.snap")

        outcome = engine.swap_snapshot(tmp_path / "mutated.snap")

        assert outcome.swapped
        assert (outcome.old_version, outcome.new_version) == (
            version_before,
            graph.version,
        )
        second = engine.search(QUERY)
        stats = engine.stats()
        assert stats.pinned_version == graph.version
        assert stats.computed == 2  # the old entry is unreachable: recomputed
        assert second is not first
        assert engine.cache.stats().purged == 1
        assert engine.cache.stats().size == 1
        assert engine.request(QUERY).cached
        # the node added after construction is servable on the new version
        assert engine.search(["Newcomer_Entity"]).results is not None
        # the swapped-out (and closed) frozen copy leaves old results usable
        assert version_before in stats.drained_versions
        assert first.notable_labels() == [n.label for n in first.notable]
        assert first.results[0].label == first.result_for(first.results[0].label).label


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, graph):
        with NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=4, seed=5),
        ) as engine:
            engine.pin()
            clients = 6
            barrier = threading.Barrier(clients)
            outcomes = []
            errors = []

            def client():
                try:
                    barrier.wait()
                    outcomes.append(engine.request(QUERY))
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            stats = engine.stats()
            assert stats.computed == 1
            assert stats.requests == clients
            # every client saw the same result object
            results = {id(o.result) for o in outcomes}
            assert len(results) == 1
            # the non-computing clients either coalesced or hit the cache
            assert stats.coalesced + stats.cache_hits == clients - 1

    def test_distinct_queries_all_computed(self, graph):
        with NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=4, seed=5),
        ) as engine:
            futures = [
                engine.submit([name])[0]
                for name in ("Angela_Merkel", "Barack_Obama", "Vladimir_Putin")
            ]
            results = [f.result() for f in futures]
            assert len(results) == 3
            assert engine.stats().computed == 3


class TestStats:
    def test_stats_shape(self, engine):
        engine.search(QUERY)
        d = engine.stats().as_dict()
        assert d["requests"] == 1
        assert d["computed"] == 1
        assert d["pinned_version"] is not None
        assert d["max_workers"] == 2
        assert d["cache"]["size"] == 1
