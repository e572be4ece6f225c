"""Round-trip, file-byte and compile-parity tests for graph persistence."""

import hashlib

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import ingest_file, open_snapshot
from repro.graph.builder import graph_from_triples
from repro.graph.compiled import ARRAY_FIELDS
from repro.graph.io import load_graph, save_graph


class TestRoundTrip:
    def test_save_load_preserves_structure(self, toy_graph, tmp_path):
        path = str(tmp_path / "toy.nt")
        written = save_graph(toy_graph, path)
        assert written == toy_graph.edge_count // 2  # forward edges only

        loaded = load_graph(path)
        assert loaded.node_count == toy_graph.node_count
        assert loaded.edge_count == toy_graph.edge_count
        for edge in toy_graph.edges():
            assert loaded.has_edge(
                toy_graph.node_name(edge.source),
                edge.label,
                toy_graph.node_name(edge.target),
            )

    def test_label_statistics_survive(self, toy_graph, tmp_path):
        path = str(tmp_path / "toy.nt")
        save_graph(toy_graph, path)
        loaded = load_graph(path)
        for label in toy_graph.edge_labels:
            assert loaded.label_frequency(label) == pytest.approx(
                toy_graph.label_frequency(label)
            )

    def test_load_without_closure(self, toy_graph, tmp_path):
        path = str(tmp_path / "toy.nt")
        written = save_graph(toy_graph, path)
        loaded = load_graph(path, add_inverse=False)
        assert loaded.edge_count == written

    def test_custom_name(self, toy_graph, tmp_path):
        path = str(tmp_path / "toy.nt")
        save_graph(toy_graph, path)
        loaded = load_graph(path, name="restored")
        assert loaded.name == "restored"

    def test_synthetic_yago_round_trip(self, tmp_path):
        from repro.datasets import synthetic_yago

        graph = synthetic_yago(scale=0.3, seed=5)
        path = str(tmp_path / "yago.nt")
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.node_count == graph.node_count
        assert loaded.edge_count == graph.edge_count
        assert loaded.has_edge("Angela_Merkel", "isLeaderOf", "Germany")

    def test_non_iri_names_round_trip_as_literals(self, tmp_path):
        """A name that is not IRI-safe is written as a literal and loads
        back as the same named node (Definition 1: values are nodes)."""
        graph = graph_from_triples([("merkel", "born", "17 July 1954")])
        path = str(tmp_path / "literal.nt")
        save_graph(graph, path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == '<merkel> <born> "17 July 1954" .\n'
        loaded = load_graph(path)
        assert loaded.has_edge("merkel", "born", "17 July 1954")
        assert loaded.has_edge("17 July 1954", "born_inv", "merkel")


def _synthetic_yago():
    from repro.datasets import synthetic_yago

    return synthetic_yago(scale=0.3, seed=5)


def _linkedmdb():
    from repro.datasets.loader import load_dataset

    return load_dataset("linkedmdb", scale=1.0)


class TestLoadGraphMatchesCompile:
    """``load_graph`` and ``repro compile`` (``ingest_file``) read one
    ``.nt`` file into the same snapshot: node ids follow first mention in
    the file on both sides."""

    @pytest.mark.parametrize("build", [_synthetic_yago, _linkedmdb])
    def test_same_file_same_snapshot_bytes(self, build, tmp_path):
        nt = str(tmp_path / "graph.nt")
        save_graph(build(), nt)
        snap = tmp_path / "graph.snap"
        ingest_file(nt, snap, include_transition=False)
        loaded = load_graph(nt)
        expected = loaded.compiled()
        table = loaded._label_table()
        with open_snapshot(snap) as stored:
            for field, dtype in ARRAY_FIELDS:
                actual = getattr(stored.compiled, field)
                assert actual.dtype == dtype
                assert actual.tobytes() == getattr(expected, field).tobytes(), field
            assert stored.header.node_count == loaded.node_count
            assert list(stored.node_names) == loaded._node_names_list()
            assert list(stored.label_table) == [
                table.name(label_id) for label_id in range(len(table))
            ]


class TestSaveGraphBytes:
    """The ``save_graph`` file, pinned: sorted forward edges, one
    statement a line, independent of hash seeds."""

    @pytest.mark.parametrize(
        ("build", "triples", "sha256"),
        [
            (
                figure1_graph,
                57,
                "d055cc743f963b8895f866a2f208e69f88a55cdef86de1c46d35b98070dcdcac",
            ),
            (
                _synthetic_yago,
                2737,
                "29385c30d8eb2f86643b00bcdf3292961858369bd62ae3fb73d620fea4992e71",
            ),
        ],
    )
    def test_file_bytes_are_pinned(self, build, triples, sha256, tmp_path):
        path = tmp_path / "graph.nt"
        assert save_graph(build(), str(path)) == triples
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
