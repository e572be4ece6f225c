"""Tests for the shared-memory snapshot layer (`repro.parallel.shm`)."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graph.compiled import ARRAY_FIELDS, CompiledGraph
from repro.parallel.shm import (
    SharedNameTable,
    SnapshotGraphView,
    StaleSnapshotError,
    _attach_segment,
    attach_snapshot,
    freeze_graph,
    publish_graph,
    publish_snapshot,
)


@pytest.fixture()
def published(fig1_graph):
    shared = publish_graph(fig1_graph)
    yield fig1_graph, shared
    shared.unlink()  # idempotent


class TestRoundTrip:
    def test_arrays_byte_equal_and_read_only(self, published):
        graph, shared = published
        source = graph.compiled()
        with attach_snapshot(shared.header) as attached:
            rebuilt = attached.compiled
            assert rebuilt.version == source.version
            assert rebuilt.node_count == source.node_count
            assert rebuilt.label_count == source.label_count
            for name, dtype in ARRAY_FIELDS:
                original = getattr(source, name)
                view = getattr(rebuilt, name)
                assert view.dtype == dtype
                assert np.array_equal(original, view), name
                assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    view[0] = 0

    def test_name_tables_round_trip(self, published):
        graph, shared = published
        with attach_snapshot(shared.header) as attached:
            names = attached.node_names
            assert len(names) == graph.node_count
            assert list(names) == list(graph.node_names())
            table = attached.label_table
            live = graph._label_table()
            for label_id in range(shared.header.label_count):
                assert table.name(label_id) == live.name(label_id)

    def test_header_is_small_and_picklable(self, published):
        _, shared = published
        blob = pickle.dumps(shared.header)
        assert len(blob) < 4096
        assert pickle.loads(blob).segment == shared.segment

    def test_name_slicing_cuts_post_snapshot_growth(self, toy_graph):
        compiled = toy_graph.compiled()
        toy_graph.add_node("Added_After_Snapshot")
        shared = publish_snapshot(
            compiled,
            toy_graph._node_names_list(),
            [
                toy_graph._label_table().name(i)
                for i in range(compiled.label_count)
            ],
        )
        try:
            with attach_snapshot(shared.header) as attached:
                assert len(attached.node_names) == compiled.node_count
                assert "Added_After_Snapshot" not in list(attached.node_names)
        finally:
            shared.unlink()

    def test_publish_rejects_short_name_tables(self, toy_graph):
        compiled = toy_graph.compiled()
        with pytest.raises(ValueError, match="node names"):
            publish_snapshot(compiled, ["just-one"], [])


class TestLifecycle:
    def test_unlink_breaks_new_attaches(self, fig1_graph):
        shared = publish_graph(fig1_graph)
        attach_snapshot(shared.header).close()
        shared.unlink()
        with pytest.raises(StaleSnapshotError):
            attach_snapshot(shared.header)

    def test_unlink_is_idempotent(self, fig1_graph):
        shared = publish_graph(fig1_graph)
        shared.unlink()
        shared.unlink()

    def test_attached_mapping_survives_unlink(self, fig1_graph):
        # POSIX contract: the mapped data stays readable after unlink.
        shared = publish_graph(fig1_graph)
        attached = attach_snapshot(shared.header)
        expected = fig1_graph.compiled().targets.copy()
        shared.unlink()
        assert np.array_equal(attached.compiled.targets, expected)
        attached.close()

    def test_close_releases_segment_reference(self, published):
        _, shared = published
        attached = attach_snapshot(shared.header)
        attached.close()
        attached.close()  # idempotent
        assert attached._shm is None

    def test_attach_segment_maps_missing_to_stale(self):
        with pytest.raises(StaleSnapshotError):
            _attach_segment("repro-snap-does-not-exist")


class TestSharedNameTable:
    def test_lazy_decode_and_cache(self):
        offsets = np.array([0, 3, 3, 9], dtype=np.int64)
        blob = np.frombuffer("foobarbaz".encode()[:9], dtype=np.uint8).copy()
        table = SharedNameTable(offsets, blob)
        assert len(table) == 3
        assert table[0] == "foo"
        assert table[1] == ""
        assert table[2] == "barbaz"
        assert table[-1] == "barbaz"
        with pytest.raises(IndexError):
            table[3]

    def test_release_keeps_decoded_entries(self):
        offsets = np.array([0, 2], dtype=np.int64)
        blob = np.frombuffer(b"hi", dtype=np.uint8).copy()
        table = SharedNameTable(offsets, blob)
        assert table[0] == "hi"
        table.release()
        assert table[0] == "hi"  # served from the memo cache


class TestSnapshotGraphView:
    def test_reader_surface_matches_live_graph(self, published):
        graph, shared = published
        with attach_snapshot(shared.header) as attached:
            view = SnapshotGraphView(attached)
            assert view.node_count == graph.node_count
            assert view.edge_count == graph.edge_count
            assert view.version == graph.version
            assert view.node_name(2) == graph.node_name(2)
            assert view.node_id(graph.node_name(3)) == 3
            assert view.node_ids([0, 1]) == [0, 1]
            assert view.has_node(0) and not view.has_node(view.node_count)
            assert view.has_node(graph.node_name(1))
            assert not view.has_node("no-such-entity")
            assert "shared view" in view.summary()

    def test_node_resolution_errors(self, published):
        _, shared = published
        with attach_snapshot(shared.header) as attached:
            view = SnapshotGraphView(attached)
            with pytest.raises(NodeNotFoundError):
                view.node_id(-1)
            with pytest.raises(NodeNotFoundError):
                view.node_id("no-such-entity")
            with pytest.raises(TypeError):
                view.node_id(1.5)  # type: ignore[arg-type]

    def test_pipeline_parity_on_view(self, published):
        # The full pinned FindNC pipeline over the shared view must equal
        # the same pipeline over the live graph.
        graph, shared = published
        from repro.core.context import RandomWalkContext
        from repro.core.discrimination import MultinomialDiscriminator
        from repro.core.findnc import FindNC

        def run(g, snapshot):
            finder = FindNC(
                g,
                context_selector=RandomWalkContext(g, pin=True).warm(),
                discriminator=MultinomialDiscriminator(rng=7),
                context_size=3,
            )
            return finder.run((1, 2), snapshot=snapshot)

        with attach_snapshot(shared.header) as attached:
            view = SnapshotGraphView(attached)
            shared_result = run(view, view.compiled())
        live_result = run(graph, graph.compiled())
        assert shared_result.query == live_result.query
        assert shared_result.context.ranked_nodes == live_result.context.ranked_nodes
        assert [r.label for r in shared_result.results] == [
            r.label for r in live_result.results
        ]
        assert [r.score for r in shared_result.results] == [
            r.score for r in live_result.results
        ]


class TestFromArrays:
    def test_rejects_missing_and_mismatched_arrays(self, toy_graph):
        compiled = toy_graph.compiled()
        arrays = {k: v.copy() for k, v in compiled.arrays().items()}
        incomplete = dict(arrays)
        del incomplete["targets"]
        with pytest.raises(ValueError, match="missing"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count,
                label_count=compiled.label_count,
                arrays=incomplete,
            )
        wrong_dtype = dict(arrays)
        wrong_dtype["targets"] = wrong_dtype["targets"].astype(np.int32)
        with pytest.raises(ValueError, match="dtype"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count,
                label_count=compiled.label_count,
                arrays=wrong_dtype,
            )
        with pytest.raises(ValueError, match="length"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count + 1,
                label_count=compiled.label_count,
                arrays={k: v.copy() for k, v in arrays.items()},
            )

    def test_round_trips_the_compile_output(self, toy_graph):
        compiled = toy_graph.compiled()
        rebuilt = CompiledGraph.from_arrays(
            version=compiled.version,
            node_count=compiled.node_count,
            label_count=compiled.label_count,
            arrays={k: v.copy() for k, v in compiled.arrays().items()},
        )
        assert rebuilt.edge_count == compiled.edge_count
        assert np.array_equal(rebuilt.indptr, compiled.indptr)
        assert rebuilt.covers(range(compiled.node_count))


class TestSharedTransition:
    """PR 4: the frozen PPR transition CSR travels through the segment."""

    def test_transition_blocks_round_trip(self, fig1_graph):
        from repro.graph.matrix import transition_from_snapshot

        compiled = fig1_graph.compiled()
        expected = transition_from_snapshot(compiled)
        shared = publish_snapshot(
            compiled,
            fig1_graph._node_names_list(),
            [
                fig1_graph._label_table().name(i)
                for i in range(compiled.label_count)
            ],
            transition=expected,
        )
        try:
            assert shared.header.transition is not None
            attached = attach_snapshot(shared.header)
            try:
                stored = attached.transition()
                assert stored is not None
                assert stored.shape == expected.shape
                assert (stored != expected).nnz == 0
                assert attached.transition() is stored  # memoized
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_transition_absent_by_default(self, fig1_graph):
        compiled = fig1_graph.compiled()
        shared = publish_snapshot(
            compiled,
            fig1_graph._node_names_list(),
            [
                fig1_graph._label_table().name(i)
                for i in range(compiled.label_count)
            ],
        )
        try:
            attached = attach_snapshot(shared.header)
            try:
                assert shared.header.transition is None
                assert attached.transition() is None
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_publish_rejects_mismatched_transition(self, fig1_graph):
        from scipy import sparse

        compiled = fig1_graph.compiled()
        wrong = sparse.csr_matrix((2, 2), dtype=np.float64)
        with pytest.raises(ValueError, match="transition matrix shape"):
            publish_snapshot(
                compiled,
                fig1_graph._node_names_list(),
                [
                    fig1_graph._label_table().name(i)
                    for i in range(compiled.label_count)
                ],
                transition=wrong,
            )

    def test_engine_publishes_transition_and_workers_adopt(self, fig1_graph):
        """Process-mode pins ship the CSR triple; a worker-side adopt
        reproduces the warm build exactly (pinned by result parity in
        tests/test_service_workers.py; here we check the plumbing)."""
        from repro.service.engine import EngineConfig, NCEngine

        with NCEngine(
            fig1_graph,
            config=EngineConfig(executor="process", max_workers=1),
        ) as engine:
            state = engine.pin()
            assert state.header is not None
            assert state.header.transition is not None


class TestFreezeGraph:
    def test_frozen_view_owns_its_segment(self, fig1_graph):
        from repro.graph.matrix import transition_from_snapshot

        view = freeze_graph(fig1_graph)
        segment = f"/dev/shm/{view._attached.header.segment}"
        assert os.path.exists(segment)
        assert view.frozen and view.version == fig1_graph.version
        expected = transition_from_snapshot(fig1_graph.compiled())
        assert (view._attached.transition() != expected).nnz == 0
        fig1_graph.add_edge("Angela_Merkel", "ownsPet", "Dog")
        assert view.version != fig1_graph.version  # frozen at the call
        view.close()
        assert not os.path.exists(segment)
        view.close()  # idempotent
