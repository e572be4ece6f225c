"""Unit tests for GraphBuilder and graph_from_triples."""

from repro.graph.builder import GraphBuilder, graph_from_triples


class TestGraphBuilder:
    def test_fluent_chain(self):
        graph = (
            GraphBuilder("g")
            .fact("a", "r", "b")
            .typed("a", "thing")
            .subclass("thing", "entity")
            .attribute("a", "height", 42)
            .node("isolated")
            .build()
        )
        assert graph.has_edge("a", "r", "b")
        assert graph.types_of("a") == {"thing"}
        assert graph.has_edge("thing", "subclassOf", "entity")
        assert graph.has_edge("a", "height", "42")
        assert graph.has_node("isolated")

    def test_facts_bulk(self):
        graph = GraphBuilder().facts([("a", "r", "b"), ("b", "r", "c")]).build()
        assert graph.edge_count == 4  # two facts + inverses

    def test_no_inverse_mode(self):
        graph = GraphBuilder(add_inverse=False).fact("a", "r", "b").build()
        assert graph.edge_count == 1

    def test_graph_from_triples(self):
        graph = graph_from_triples([("s", "p", "o")], name="from-triples")
        assert graph.name == "from-triples"
        assert graph.has_edge("s", "p", "o")

