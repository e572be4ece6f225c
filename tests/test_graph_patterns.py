"""Triple-pattern queries answered the same on every data path.

One small ``.nt`` file reaches the graph layer three ways: the statement
stream built in memory (:func:`graph_from_triples`), the file read by
:func:`load_graph`, and the file compiled by ``repro compile``
(:func:`ingest_file`) and opened as a :class:`SnapshotGraphView`. Every
test here runs on all three and must see the same node ids, the same
labels and the same answer to every ``(subject, label, object)``
pattern, read through the snapshot's node-major rows (bound subject),
label-major rows (bound label) and inverse-closure rows (bound object).
"""

import pytest

from repro.disk import ingest_file
from repro.disk.store import open_snapshot_view
from repro.errors import NodeNotFoundError
from repro.graph.builder import graph_from_triples
from repro.graph.io import load_graph
from repro.graph.labels import base_label, is_inverse_label

NT = """\
<merkel> <leaderOf> <germany> .
<obama> <leaderOf> <usa> .
<merkel> <studied> <physics> .
<obama> <studied> <law> .
<merkel> <born> "1954" .
"""

FACTS = [
    ("merkel", "leaderOf", "germany"),
    ("obama", "leaderOf", "usa"),
    ("merkel", "studied", "physics"),
    ("obama", "studied", "law"),
    ("merkel", "born", "1954"),
]

#: Node ids follow first mention in the stream: subject, then object.
NAMES = ["merkel", "germany", "obama", "usa", "physics", "law", "1954"]
#: Each label is followed by its inverse on first mention.
LABELS = [
    "leaderOf",
    "leaderOf_inv",
    "studied",
    "studied_inv",
    "born",
    "born_inv",
]


@pytest.fixture(scope="module")
def nt_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("patterns") / "leaders.nt"
    path.write_text(NT, encoding="utf-8")
    return path


@pytest.fixture(scope="module", params=["built", "loaded", "compiled"])
def graph(request, nt_file):
    if request.param == "built":
        yield graph_from_triples(FACTS)
    elif request.param == "loaded":
        yield load_graph(str(nt_file))
    else:
        snap = nt_file.with_suffix(f".{request.param}.snap")
        ingest_file(nt_file, snap, include_transition=False)
        view = open_snapshot_view(snap)
        yield view
        view.close()


def rows_of(graph):
    """Every edge row of ``graph``'s snapshot as a name triple."""
    compiled = graph.compiled()
    table = graph._label_table()
    return [
        (
            graph.node_name(int(s)),
            table.name(int(lab)),
            graph.node_name(int(t)),
        )
        for s, lab, t in zip(compiled.sources, compiled.label_ids, compiled.targets)
    ]


def match(graph, subject=None, label=None, obj=None):
    """The forward facts matching a pattern, sorted, read from the CSR.

    A bound subject reads that node's rows, else a bound label reads the
    label-major slice, else a bound object reads the object's inverse
    rows; the other bound positions filter what was read.
    """
    compiled = graph.compiled()
    table = graph._label_table()
    if subject is not None:
        if not graph.has_node(subject):
            return []
        sl = compiled.node_slice(graph.node_id(subject))
        rows = range(sl.start, sl.stop)
        found = [
            (int(compiled.sources[r]), int(compiled.label_ids[r]), int(compiled.targets[r]))
            for r in rows
        ]
    elif label is not None:
        label_id = table.lookup(label)
        if label_id is None:
            return []
        sources, targets = compiled.edges_for_label(label_id)
        found = [(int(s), label_id, int(t)) for s, t in zip(sources, targets)]
    elif obj is not None:
        if not graph.has_node(obj):
            return []
        node = graph.node_id(obj)
        sl = compiled.node_slice(node)
        found = []
        for lab, source in zip(compiled.label_ids[sl], compiled.targets[sl]):
            inverse = table.name(int(lab))
            if is_inverse_label(inverse):
                forward = table.lookup(base_label(inverse))
                found.append((int(source), forward, node))
    else:
        found = list(
            zip(
                map(int, compiled.sources),
                map(int, compiled.label_ids),
                map(int, compiled.targets),
            )
        )
    named = [
        (graph.node_name(s), table.name(lab), graph.node_name(t)) for s, lab, t in found
    ]
    return sorted(
        (s, lab, t)
        for s, lab, t in named
        if not is_inverse_label(lab)
        and (subject is None or s == subject)
        and (label is None or lab == label)
        and (obj is None or t == obj)
    )


class TestMatch:
    def test_contains(self, graph):
        assert match(graph, "merkel", "leaderOf", "germany") == [
            ("merkel", "leaderOf", "germany")
        ]
        assert match(graph, "merkel", "leaderOf", "usa") == []

    def test_match_by_subject(self, graph):
        assert match(graph, subject="merkel") == [
            ("merkel", "born", "1954"),
            ("merkel", "leaderOf", "germany"),
            ("merkel", "studied", "physics"),
        ]

    def test_match_by_label(self, graph):
        leaders = match(graph, label="leaderOf")
        assert {s for s, _, _ in leaders} == {"merkel", "obama"}

    def test_match_by_object(self, graph):
        assert match(graph, obj="law") == [("obama", "studied", "law")]

    def test_match_subject_label(self, graph):
        assert match(graph, subject="obama", label="studied") == [
            ("obama", "studied", "law")
        ]

    def test_match_label_object(self, graph):
        assert match(graph, label="studied", obj="law") == [("obama", "studied", "law")]

    def test_match_subject_object(self, graph):
        assert match(graph, subject="merkel", obj="germany") == [
            ("merkel", "leaderOf", "germany")
        ]

    def test_match_all(self, graph):
        assert match(graph) == sorted(FACTS)

    def test_match_unknown_term_is_empty(self, graph):
        assert match(graph, subject="zz") == []
        assert match(graph, label="zz") == []
        assert match(graph, obj="zz") == []

    def test_literal_objects_matched(self, graph):
        assert match(graph, obj="1954") == [("merkel", "born", "1954")]


class TestCount:
    def test_edge_count_includes_closure(self, graph):
        assert graph.edge_count == 2 * len(FACTS)
        assert len(rows_of(graph)) == graph.edge_count

    def test_label_index_counts(self, graph):
        compiled = graph.compiled()
        table = graph._label_table()
        counts = {
            table.name(label_id): int(
                compiled.label_indptr[label_id + 1] - compiled.label_indptr[label_id]
            )
            for label_id in range(compiled.label_count)
        }
        assert counts == {
            "leaderOf": 2,
            "leaderOf_inv": 2,
            "studied": 2,
            "studied_inv": 2,
            "born": 1,
            "born_inv": 1,
        }

    def test_node_index_counts(self, graph):
        degrees = graph.compiled().out_degrees().tolist()
        assert dict(zip(NAMES, degrees)) == {
            "merkel": 3,
            "germany": 1,
            "obama": 2,
            "usa": 1,
            "physics": 1,
            "law": 1,
            "1954": 1,
        }

    def test_every_row_has_its_inverse(self, graph):
        rows = set(rows_of(graph))
        for s, lab, t in rows:
            partner = base_label(lab) if is_inverse_label(lab) else f"{lab}_inv"
            assert (t, partner, s) in rows


class TestVocabulary:
    def test_subjects(self, graph):
        assert {s for s, _, _ in match(graph)} == {"merkel", "obama"}

    def test_labels(self, graph):
        assert list(graph._label_table()) == LABELS

    def test_objects(self, graph):
        assert {t for _, _, t in match(graph)} == {
            "germany",
            "usa",
            "physics",
            "law",
            "1954",
        }


class TestNodeIds:
    """Node ids are dense, follow first mention, and resolve both ways."""

    def test_ids_are_dense_from_zero(self, graph):
        assert graph.node_count == len(NAMES)
        assert list(graph.nodes()) == list(range(len(NAMES)))

    def test_ids_follow_first_mention(self, graph):
        assert [graph.node_name(i) for i in graph.nodes()] == NAMES

    def test_repeated_mention_keeps_one_id(self, graph):
        assert graph.node_id("merkel") == 0
        assert graph.node_id("obama") == 2

    def test_name_resolution_inverts_decode(self, graph):
        for node_id in graph.nodes():
            assert graph.node_id(graph.node_name(node_id)) == node_id

    def test_unknown_name_is_not_found(self, graph):
        assert not graph.has_node("zz")
        with pytest.raises(NodeNotFoundError):
            graph.node_id("zz")

    def test_out_of_range_id_is_not_found(self, graph):
        assert not graph.has_node(len(NAMES))
        with pytest.raises(NodeNotFoundError):
            graph.node_name(len(NAMES))
        with pytest.raises(NodeNotFoundError):
            graph.node_id(-1)

    def test_iteration_order_is_id_order(self, graph):
        assert list(graph.node_names()) == NAMES


@pytest.mark.parametrize("path", ["loaded", "compiled"])
def test_literal_and_iri_of_one_text_are_one_node(path, tmp_path):
    """Definition 1 treats values as nodes: the literal ``"1954"`` and
    the IRI ``<1954>`` name the same node on both file paths."""
    nt = tmp_path / "mixed.nt"
    nt.write_text('<merkel> <born> "1954" .\n<1954> <era> <postwar> .\n', encoding="utf-8")
    if path == "loaded":
        graph = load_graph(str(nt))
        assert list(graph.node_names()) == ["merkel", "1954", "postwar"]
        assert graph.has_edge("1954", "era", "postwar")
        return
    snap = tmp_path / "mixed.snap"
    ingest_file(nt, snap, include_transition=False)
    view = open_snapshot_view(snap)
    try:
        assert list(view.node_names()) == ["merkel", "1954", "postwar"]
        assert match(view, subject="1954") == [("1954", "era", "postwar")]
    finally:
        view.close()


class TestLiveAdjacencyAgreesWithSnapshot:
    """On a live graph the dict adjacency and its compiled CSR answer
    every node and label query alike."""

    @pytest.fixture(params=["built", "loaded"])
    def live(self, request, nt_file):
        if request.param == "built":
            return graph_from_triples(FACTS)
        return load_graph(str(nt_file))

    def test_out_edges_match_node_rows(self, live):
        rows = rows_of(live)
        for node in live.nodes():
            name = live.node_name(node)
            expected = sorted((lab, t) for s, lab, t in rows if s == name)
            assert sorted(
                (lab, live.node_name(t)) for lab, t in live.out_edges(node)
            ) == expected
            assert live.out_degree(node) == len(expected)

    def test_label_counts_match_label_rows(self, live):
        for label in LABELS:
            assert live.edge_count_by_label(label) == len(
                [row for row in rows_of(live) if row[1] == label]
            )
            assert sorted(
                (live.node_name(e.source), label, live.node_name(e.target))
                for e in live.edges(label)
            ) == sorted(row for row in rows_of(live) if row[1] == label)

    def test_in_degree_matches_inverse_rows(self, live):
        for node in live.nodes():
            for label in ("leaderOf", "studied", "born"):
                assert live.in_degree(node, label) == len(
                    match(live, label=label, obj=live.node_name(node))
                )
