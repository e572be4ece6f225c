"""The disk snapshot store: byte-exact round-trips, format guards, mmap reads."""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.store import (
    FORMAT_VERSION,
    MAGIC,
    DiskSnapshotHeader,
    SnapshotFormatError,
    open_snapshot,
    open_snapshot_view,
    save_graph_snapshot,
    save_snapshot,
)
from repro.graph.builder import GraphBuilder
from repro.graph.compiled import ARRAY_FIELDS
from repro.graph.matrix import transition_from_snapshot
from repro.graph.model import KnowledgeGraph

node_names = st.sampled_from([f"n{i}" for i in range(6)] + ["Ünïcode_Nödé"])
label_names = st.sampled_from(["r", "s", "t"])
fact_lists = st.lists(
    st.tuples(node_names, label_names, node_names), min_size=1, max_size=25
)


def build_graph(facts) -> KnowledgeGraph:
    graph = KnowledgeGraph("prop-graph")
    for s, label, o in facts:
        graph.add_edge(s, label, o)
    return graph


def sample_graph() -> KnowledgeGraph:
    return (
        GraphBuilder("sample")
        .typed("Angela_Merkel", "politician")
        .typed("Barack_Obama", "politician")
        .fact("Angela_Merkel", "leaderOf", "Germany")
        .fact("Barack_Obama", "leaderOf", "USA")
        .attribute("Angela_Merkel", "born", 1954)
        .build()
    )


class TestRoundTrip:
    @given(fact_lists)
    @settings(max_examples=40, deadline=None)
    def test_all_eight_arrays_byte_identical(self, tmp_path_factory, facts):
        graph = build_graph(facts)
        compiled = graph.compiled()
        path = tmp_path_factory.mktemp("snap") / "g.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            for name, dtype in ARRAY_FIELDS:
                expected = getattr(compiled, name)
                actual = getattr(snap.compiled, name)
                assert actual.dtype == dtype
                assert expected.tobytes() == actual.tobytes(), name
            assert snap.compiled.version == compiled.version
            assert snap.compiled.node_count == compiled.node_count
            assert snap.compiled.label_count == compiled.label_count

    @given(fact_lists)
    @settings(max_examples=20, deadline=None)
    def test_name_tables_round_trip(self, tmp_path_factory, facts):
        graph = build_graph(facts)
        path = tmp_path_factory.mktemp("snap") / "g.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            assert list(snap.node_names) == graph._node_names_list()
            assert list(snap.label_table) == list(graph._label_table())

    def test_header_scalars(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        nbytes = save_graph_snapshot(graph, path)
        assert nbytes == os.path.getsize(path)
        with open_snapshot(path) as snap:
            header = snap.header
            assert header.graph_name == "sample"
            assert header.version == graph.version
            assert header.node_count == graph.node_count
            assert header.label_count == len(graph._label_table())
            assert header.segment.startswith("file://")

    def test_transition_round_trips(self, tmp_path):
        graph = sample_graph()
        expected = transition_from_snapshot(graph.compiled())
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            stored = snap.transition()
            assert stored is not None
            assert stored.shape == expected.shape
            assert (stored != expected).nnz == 0
            assert snap.transition() is stored  # memoized

    def test_transition_optional(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path, include_transition=False)
        with open_snapshot(path) as snap:
            assert snap.transition() is None

    def test_arrays_are_read_only(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            with pytest.raises(ValueError):
                snap.compiled.targets[0] = 99

    def test_empty_graph(self, tmp_path):
        graph = KnowledgeGraph("empty")
        graph.add_node("lonely")
        path = tmp_path / "empty.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            assert snap.compiled.node_count == 1
            assert snap.compiled.edge_count == 0
            assert list(snap.node_names) == ["lonely"]


class TestViewSurface:
    def test_view_resolves_like_the_graph(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        view = open_snapshot_view(path)
        assert view.frozen
        assert view.node_count == graph.node_count
        assert view.edge_count == graph.edge_count
        assert list(view.nodes()) == list(graph.nodes())
        for node_id in graph.nodes():
            name = graph.node_name(node_id)
            assert view.node_name(node_id) == name
            assert view.node_id(name) == node_id
            assert view.has_node(name)
        assert not view.has_node("Nobody_Here")

    def test_view_version_is_pinned(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        view = open_snapshot_view(path)
        assert view.version == graph.version
        assert view.compiled() is view._compiled()


class TestFormatGuards:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            open_snapshot(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.snap"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(SnapshotFormatError, match="too short"):
            open_snapshot(path)

    def test_future_format_version_rejected(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        raw = bytearray(path.read_bytes())
        raw[8] = FORMAT_VERSION + 1  # little-endian u32 at offset 8
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="format version"):
            open_snapshot(path)

    def test_truncated_file_rejected(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            open_snapshot(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_snapshot(tmp_path / "ghost.snap")

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.snap"]

    def test_name_count_validation(self, tmp_path):
        graph = sample_graph()
        compiled = graph.compiled()
        with pytest.raises(ValueError, match="node names"):
            save_snapshot(compiled, ["only-one"], ["a"] * 99, tmp_path / "x.snap")


class TestHeaderPickling:
    def test_header_is_picklable(self, tmp_path):
        import pickle

        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path)
        with open_snapshot(path) as snap:
            header = snap.header
        clone = pickle.loads(pickle.dumps(header))
        assert clone == header
        assert isinstance(clone, DiskSnapshotHeader)


class TestShmLayoutParity:
    def test_disk_and_shm_serve_identical_bytes(self, tmp_path):
        """The two transports publish the same block contents."""
        from repro.parallel.shm import attach_snapshot, publish_graph

        graph = sample_graph()
        path = tmp_path / "g.snap"
        save_graph_snapshot(graph, path, include_transition=False)
        shared = publish_graph(graph)
        try:
            attached = attach_snapshot(shared.header)
            try:
                with open_snapshot(path) as snap:
                    for name, _ in ARRAY_FIELDS:
                        assert (
                            getattr(snap.compiled, name).tobytes()
                            == getattr(attached.compiled, name).tobytes()
                        ), name
                    assert list(snap.node_names) == list(attached.node_names)
            finally:
                attached.close()
        finally:
            shared.unlink()

    @pytest.mark.parametrize(
        ("include_transition", "sha256"),
        [
            (True, "f95e1504aca4f31dc36888d7b25446e23b6c7dbba51204bc558b78fadd7aa103"),
            (False, "683da309a74240c0a40aab17b25b3c7f644e55f55cb0a170764cbc29b0a0d053"),
        ],
    )
    def test_figure1_snapshot_bytes_are_pinned(
        self, tmp_path, include_transition, sha256
    ):
        """The file layout, byte for byte, as recorded with format version 1."""
        from repro.datasets.figure1 import figure1_graph

        path = tmp_path / "figure1.snap"
        save_graph_snapshot(figure1_graph(), path, include_transition=include_transition)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
