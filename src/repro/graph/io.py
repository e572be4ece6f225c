"""Knowledge-graph persistence as N-Triples.

Graphs round-trip through the N-Triples parser and writer of
:mod:`repro.store`: forward edges only are written (the inverse closure
is re-derived on load), node names that are not IRI-safe are written as
literals. :func:`load_graph` builds the graph from the same stringified
statement stream that ``repro compile``
(:func:`~repro.disk.ingest.ingest_file`) compiles, so node ids follow
first mention in the file and the two agree byte for byte.
"""

from __future__ import annotations

from repro.errors import TermError
from repro.graph.builder import graph_from_triples
from repro.graph.labels import is_inverse_label
from repro.graph.model import KnowledgeGraph
from repro.store.ntriples import load_ntriples_file, save_ntriples_file
from repro.store.terms import IRI, Literal
from repro.store.triples import Triple


def save_graph(graph: KnowledgeGraph, path: str) -> int:
    """Write ``graph`` to ``path`` as N-Triples; return the triple count.

    Only forward (non-inverse) edges are serialized, in sorted order; the
    closure is an invariant of the model and restored by
    :func:`load_graph`.
    """
    triples = [
        Triple(
            IRI(graph.node_name(edge.source)),
            IRI(edge.label),
            _object_term(graph.node_name(edge.target)),
        )
        for edge in graph.edges()
        if not is_inverse_label(edge.label)
    ]
    return save_ntriples_file(path, sorted(triples))


def load_graph(
    path: str, *, name: str | None = None, add_inverse: bool = True
) -> KnowledgeGraph:
    """Load a graph previously written by :func:`save_graph`.

    IRIs and literals both become named nodes (Definition 1 treats
    attribute values as nodes); the predicate's string form becomes the
    edge label. ``add_inverse`` re-applies the Section-2 closure
    (default); disable it only for files that already contain both
    directions.
    """
    return graph_from_triples(
        (
            (str(triple.subject), str(triple.predicate), str(triple.object))
            for triple in load_ntriples_file(path)
        ),
        name=name or path,
        add_inverse=add_inverse,
    )


def _object_term(name: str) -> "IRI | Literal":
    """Heuristic: values that are not valid IRIs become literals."""
    try:
        return IRI(name)
    except TermError:
        return Literal(name)
