"""Snapshot-file serving: FindNC/engine parity against the live graph.

The acceptance property of the snapshot store: a server cold-started
from an mmapped snapshot answers **exactly** what live-graph serving
answers — per candidate label, per score — on both executor backends,
with no :class:`~repro.graph.model.KnowledgeGraph` in the serving stack.
Booting that way must also be at least 10x faster than parsing and
compiling the N-Triples dump.
"""

import os
import timeit

import pytest

from repro.core.findnc import FindNC
from repro.datasets.loader import load_dataset, to_snapshot
from repro.datasets.seeds import TABLE1_DOMAINS
from repro.disk import open_snapshot, open_snapshot_view, save_graph_snapshot
from repro.graph.io import load_graph, save_graph
from repro.service.engine import EngineConfig, NCEngine

SCALE = 0.4

#: Distinct service-style queries: nested Table-1 sets spelled as
#: lowercase display names ("angela merkel"), so every request goes
#: through fuzzy entity resolution, like real API traffic.
QUERIES = [
    tuple(name.replace("_", " ").lower() for name in nested)
    for domain in TABLE1_DOMAINS
    for nested in domain.nested_queries()
][:2]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("yago", scale=SCALE)


@pytest.fixture(scope="module")
def snapshot_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "yago.snap"
    save_graph_snapshot(graph, path)
    return path


def fingerprint(result):
    return (
        [(item.label, item.score) for item in result.results],
        result.notable_labels(),
        result.query,
        tuple(result.context.nodes),
    )


class TestFindNCOverView:
    def test_pipeline_runs_graph_free(self, graph, snapshot_path):
        """FindNC over the mmap view == FindNC over the live graph."""
        from repro.core.context import RandomWalkContext
        from repro.core.discrimination import MultinomialDiscriminator

        view = open_snapshot_view(snapshot_path)

        def run(source):
            finder = FindNC(
                source,
                context_selector=RandomWalkContext(source, pin=True),
                discriminator=MultinomialDiscriminator(rng=7),
                context_size=25,
            )
            return finder.run(
                [source.node_id("Angela_Merkel"), source.node_id("Barack_Obama")],
                snapshot=source.compiled() if hasattr(source, "frozen") else None,
            )

        assert fingerprint(run(view)) == fingerprint(run(graph))


class TestEngineParity:
    def test_thread_backend_identical(self, graph, snapshot_path):
        view = open_snapshot_view(snapshot_path)
        with NCEngine(
            graph,
            config=EngineConfig(context_size=25, seed=11),
        ) as live, NCEngine(
            view,
            config=EngineConfig(context_size=25, seed=11),
        ) as cold:
            live.pin()
            cold.pin()
            for query in QUERIES:
                assert fingerprint(cold.search(query)) == fingerprint(
                    live.search(query)
                )
            # No KnowledgeGraph anywhere in the snapshot engine.
            assert cold.graph is view
            assert cold.stats().pinned_version == graph.version

    @pytest.mark.slow
    def test_process_backend_identical(self, graph, snapshot_path):
        """Workers mmap the served file itself — no frozen copy for the
        boot version — and still match live-graph serving bit-for-bit."""
        view = open_snapshot_view(snapshot_path)
        with NCEngine(
            graph,
            config=EngineConfig(context_size=25, seed=11),
        ) as live, NCEngine(
            view,
            config=EngineConfig(
                context_size=25,
                seed=11,
                executor="process",
                max_workers=2,
            ),
        ) as cold:
            live.pin()
            state = cold.pin()
            # The pinned header is the served file itself, not a copy.
            assert state.header is not None
            assert state.header.path == os.path.abspath(snapshot_path)
            for query in QUERIES:
                assert fingerprint(cold.search(query)) == fingerprint(
                    live.search(query)
                )
            workers = cold.stats().workers
            assert workers is not None and workers["completed"] == len(QUERIES)

    def test_frozen_pin_is_stable(self, snapshot_path):
        view = open_snapshot_view(snapshot_path)
        with NCEngine(view, config=EngineConfig(context_size=25, seed=11)) as engine:
            first = engine.pin()
            assert engine.pin() is first  # frozen views never re-pin
            engine.search(QUERIES[0])
            assert engine.pin() is first

    def test_adopted_transition_matches_warm_build(self, graph, snapshot_path):
        """A snapshot without a stored transition serves identically (the
        engine rebuilds at pin instead of adopting)."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as workdir:
            bare = Path(workdir) / "bare.snap"
            save_graph_snapshot(graph, bare, include_transition=False)
            bare_view = open_snapshot_view(bare)
            full_view = open_snapshot_view(snapshot_path)
            with NCEngine(
                bare_view,
                config=EngineConfig(context_size=25, seed=11),
            ) as rebuilt, NCEngine(
                full_view,
                config=EngineConfig(context_size=25, seed=11),
            ) as adopted:
                rebuilt.pin()
                adopted.pin()
                assert fingerprint(rebuilt.search(QUERIES[0])) == fingerprint(
                    adopted.search(QUERIES[0])
                )


class TestDatasetSnapshotRoute:
    def test_to_snapshot_serves_identically(self, graph, tmp_path):
        """The ingester route (to_snapshot) == the compiled-graph route."""
        path = tmp_path / "ingested.snap"
        stats = to_snapshot("yago", path, scale=SCALE)
        assert stats.nodes == graph.node_count
        assert stats.edges == graph.edge_count
        view = open_snapshot_view(path)
        with NCEngine(
            graph,
            config=EngineConfig(context_size=25, seed=11),
        ) as live, NCEngine(
            view,
            config=EngineConfig(context_size=25, seed=11),
        ) as cold:
            live.pin()
            cold.pin()
            assert fingerprint(cold.search(QUERIES[0])) == fingerprint(
                live.search(QUERIES[0])
            )


class TestColdStart:
    def test_mmap_boot_is_ten_times_faster_than_parse_compile(
        self, graph, snapshot_path, tmp_path
    ):
        """The snapshot store's acceptance bar: one mmap open (touching the
        index arrays) beats stream-parsing the dump and compiling it 10x."""
        nt_path = tmp_path / "graph.nt"
        save_graph(graph, nt_path)

        def parse_boot():
            load_graph(nt_path).compiled()

        def mmap_boot():
            with open_snapshot(snapshot_path) as snap:
                int(snap.compiled.indptr[-1])
                int(snap.compiled.targets[0])

        parse_s = min(timeit.repeat(parse_boot, number=1, repeat=3))
        mmap_s = min(timeit.repeat(mmap_boot, number=1, repeat=3))
        assert parse_s >= 10 * mmap_s, (
            f"mmap boot {mmap_s * 1e3:.2f}ms is only {parse_s / mmap_s:.1f}x "
            f"faster than parse+compile {parse_s * 1e3:.2f}ms (bar: 10x)"
        )
