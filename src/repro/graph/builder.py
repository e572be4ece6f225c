"""Fluent construction of knowledge graphs."""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.labels import SUBCLASS_OF_LABEL, TYPE_LABEL
from repro.graph.model import KnowledgeGraph


class GraphBuilder:
    """Accumulates facts and produces a :class:`KnowledgeGraph`.

    The builder speaks entity *names*; nodes are created on first mention.

    >>> g = (GraphBuilder()
    ...      .fact("Angela_Merkel", "leaderOf", "Germany")
    ...      .typed("Angela_Merkel", "politician")
    ...      .build())
    >>> sorted(g.types_of("Angela_Merkel"))
    ['politician']
    """

    def __init__(self, name: str = "knowledge-graph", *, add_inverse: bool = True) -> None:
        self._graph = KnowledgeGraph(name)
        self._add_inverse = add_inverse

    def node(self, name: str) -> "GraphBuilder":
        """Ensure a node exists (useful for isolated nodes)."""
        self._graph.add_node(name)
        return self

    def fact(self, subject: str, label: str, obj: str) -> "GraphBuilder":
        """Add ``subject -label-> obj`` (plus inverse unless disabled)."""
        self._graph.add_edge(subject, label, obj, add_inverse=self._add_inverse)
        return self

    def facts(self, triples: Iterable[tuple[str, str, str]]) -> "GraphBuilder":
        """Add many ``(subject, label, object)`` statements; returns self."""
        for subject, label, obj in triples:
            self.fact(subject, label, obj)
        return self

    def typed(self, subject: str, type_name: str) -> "GraphBuilder":
        """Declare ``subject`` an instance of ``type_name``."""
        return self.fact(subject, TYPE_LABEL, type_name)

    def subclass(self, child_type: str, parent_type: str) -> "GraphBuilder":
        """Declare ``child_type`` a subclass of ``parent_type``."""
        return self.fact(child_type, SUBCLASS_OF_LABEL, parent_type)

    def attribute(self, subject: str, label: str, value: object) -> "GraphBuilder":
        """Add an attribute, modelling the value as a node (Section 2)."""
        return self.fact(subject, label, str(value))

    def build(self) -> KnowledgeGraph:
        """The accumulated graph (the builder's backing object, not a copy)."""
        return self._graph


def graph_from_triples(
    triples: Iterable[tuple[str, str, str]],
    *,
    name: str = "knowledge-graph",
    add_inverse: bool = True,
) -> KnowledgeGraph:
    """Build a graph from ``(subject, label, object)`` string triples."""
    builder = GraphBuilder(name, add_inverse=add_inverse)
    builder.facts(triples)
    return builder.build()
