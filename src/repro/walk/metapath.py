"""Metapaths and metapath-constrained path counting.

A metapath (Sun et al., PathSim) abstracts a path into the sequence of
labels along it. Section 2 defines it with *alternating node and edge
labels* ``<phi(n1), psi(n1,n2), ..., phi(nt)>``; the mining text of
Section 3.1 collects "the sequence of edge labels encountered during the
random walk". This implementation takes the middle road that keeps both
properties that matter:

* matching is keyed on the **edge-label sequence** (the informative part —
  in a YAGO-like schema edge labels mostly determine the intermediate node
  types anyway), and
* the **terminal node type** is kept as a constraint (``end_type``). This
  is the piece of the alternating definition with real selective power: a
  mined path that started at an actor, replayed from the query, must end
  at an actor. Dropping it floods contexts with attribute-value nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.labels import TYPE_LABEL, inverse_label
from repro.graph.model import KnowledgeGraph
from repro.graph.traversal import follow_label_counted


@dataclass(frozen=True, slots=True)
class Metapath:
    """An edge-label sequence with an optional terminal-type constraint.

    ``Metapath(("actedIn", "actedIn_inv"), end_type="actor")`` reads "to a
    movie, then to one of its actors" — the co-actor pattern.
    """

    labels: tuple[str, ...]
    end_type: str | None = None

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("a metapath needs at least one edge label")
        if not all(isinstance(label, str) and label for label in self.labels):
            raise ValueError("metapath labels must be non-empty strings")

    @property
    def length(self) -> int:
        """Number of edges the metapath traverses."""
        return len(self.labels)

    def reversed(self) -> "Metapath":
        """The metapath traversing the same pattern in the other direction.

        Reversing a *path* reverses the label order and inverts each label;
        under the inverse-closure assumption the reversed metapath always
        has matching paths whenever the original does. The terminal-type
        constraint is dropped (the start type of the original path is not
        recorded).

        >>> Metapath(("a", "b")).reversed()
        Metapath(labels=('b_inv', 'a_inv'), end_type=None)
        """
        return Metapath(tuple(inverse_label(label) for label in reversed(self.labels)))

    def __str__(self) -> str:
        path = " -> ".join(self.labels)
        if self.end_type is not None:
            return f"{path} [{self.end_type}]"
        return path


def primary_type(graph: KnowledgeGraph, node: int) -> str | None:
    """The canonical single type of ``node`` (phi's role in matching).

    Nodes may carry several ``type`` edges; the lexicographically smallest
    type name is the deterministic representative. ``None`` for untyped
    nodes.
    """
    best: str | None = None
    for type_node in graph.neighbors(node, TYPE_LABEL):
        name = graph.node_name(type_node)
        if best is None or name < best:
            best = name
    return best


def node_has_type(graph: KnowledgeGraph, node: int, type_name: str) -> bool:
    """Whether ``node`` carries a ``type`` edge to ``type_name``."""
    for type_node in graph.neighbors(node, TYPE_LABEL):
        if graph.node_name(type_node) == type_name:
            return True
    return False


def count_matching_paths(
    graph: KnowledgeGraph, start: int, metapath: Metapath
) -> dict[int, int]:
    """``{end node: number of paths start ~metapath~> end}``.

    Counts *walks* matching the label sequence (nodes may repeat), computed
    by propagating path counts one label at a time — cost is O(sum of
    frontier degrees), independent of the (possibly exponential) number of
    paths. When the metapath carries an ``end_type``, endpoints lacking
    that type are filtered out.
    """
    frontier = {start: 1}
    for label in metapath.labels:
        if not frontier:
            return {}
        frontier = follow_label_counted(graph, frontier, label)
    if metapath.end_type is not None and frontier:
        frontier = {
            node: count
            for node, count in frontier.items()
            if node_has_type(graph, node, metapath.end_type)
        }
    return frontier


@dataclass
class ScoredMetapath:
    """A mined metapath with its occurrence count and selection probability."""

    metapath: Metapath
    count: int
    probability: float = field(default=0.0)

    @property
    def labels(self) -> tuple[str, ...]:
        """The edge labels of the underlying metapath, in walk order."""
        return self.metapath.labels

    @property
    def length(self) -> int:
        """Number of edges the underlying metapath traverses."""
        return self.metapath.length


def normalize_probabilities(paths: list[ScoredMetapath]) -> list[ScoredMetapath]:
    """Set ``probability = count / sum(counts)`` (Pr(m) of Section 3.1)."""
    total = sum(p.count for p in paths)
    if total <= 0:
        for p in paths:
            p.probability = 0.0
        return paths
    for p in paths:
        p.probability = p.count / total
    return paths
