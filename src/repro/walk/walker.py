"""Single-step random walkers.

Section 3.1: "In the traditional random walk model, a random walker chooses
one of the outgoing edges from a node with uniform probability. Instead of
uniform probability, we favor choices which are more informative in terms
of edge label frequency: the lower the frequency the more informative the
label." Each out-edge with label ``l`` is drawn with probability
proportional to ``1 - |E_l|/|E|`` (the same weight as Equation 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.graph.model import KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.util.rng import RandomSource, ensure_rng


@dataclass(frozen=True, slots=True)
class WalkRecord:
    """The outcome of one random walk."""

    nodes: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def length(self) -> int:
        """Number of edges traversed."""
        return len(self.labels)

    @property
    def start(self) -> int:
        """The node the walk started from."""
        return self.nodes[0]

    @property
    def end(self) -> int:
        """The node the walk ended on."""
        return self.nodes[-1]


class _NodeAlternatives:
    """Pre-computed out-edge alternatives of one node for O(log d) sampling."""

    __slots__ = ("labels", "targets", "cumulative")

    def __init__(self, labels: list[str], targets: list[int], weights: list[float]):
        self.labels = labels
        self.targets = targets
        self.cumulative = list(accumulate(weights))

    def sample(self, rng) -> tuple[str, int] | None:
        total = self.cumulative[-1] if self.cumulative else 0.0
        if total <= 0:
            return None
        point = rng.random() * total
        index = bisect_right(self.cumulative, point)
        if index >= len(self.targets):  # numeric edge: point == total
            index = len(self.targets) - 1
        return self.labels[index], self.targets[index]


class RandomWalker:
    """Performs label-informativeness-weighted (or uniform) random walks.

    Per-node alternative tables are cached and invalidated when the graph
    mutates, so repeated walks (PathMining runs tens of thousands) stay
    cheap.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        weighted: bool = True,
        rng: RandomSource = None,
        statistics: GraphStatistics | None = None,
    ) -> None:
        self._graph = graph
        self._weighted = weighted
        self._rng = ensure_rng(rng)
        self._stats = statistics or GraphStatistics(graph)
        self._cache: dict[int, _NodeAlternatives | None] = {}
        self._version = -1

    @property
    def graph(self) -> KnowledgeGraph:
        """The graph the walker steps through."""
        return self._graph

    def _alternatives(self, node: int) -> _NodeAlternatives | None:
        if self._graph.version != self._version:
            self._cache.clear()
            self._version = self._graph.version
        cached = self._cache.get(node, _SENTINEL)
        if cached is not _SENTINEL:
            return cached  # type: ignore[return-value]
        labels: list[str] = []
        targets: list[int] = []
        weights: list[float] = []
        weight_of = self._stats.weight if self._weighted else None
        for label, target in self._graph.out_edges(node):
            labels.append(label)
            targets.append(target)
            weights.append(weight_of(label) if weight_of else 1.0)
        alternatives = _NodeAlternatives(labels, targets, weights) if targets else None
        self._cache[node] = alternatives
        return alternatives

    def step(self, node: int) -> tuple[str, int] | None:
        """One step from ``node``; ``None`` when the node is a dead end."""
        alternatives = self._alternatives(node)
        if alternatives is None:
            return None
        return alternatives.sample(self._rng)

    def walk(
        self,
        start: int,
        max_length: int,
        *,
        stop_at: "set[int] | frozenset[int] | None" = None,
    ) -> WalkRecord:
        """Walk up to ``max_length`` edges from ``start``.

        If ``stop_at`` is given, the walk ends as soon as it reaches one of
        those nodes (the PathMining termination rule).
        """
        if max_length < 0:
            raise ValueError(f"max_length must be >= 0, got {max_length}")
        nodes = [start]
        labels: list[str] = []
        current = start
        for _ in range(max_length):
            step = self.step(current)
            if step is None:
                break
            label, target = step
            labels.append(label)
            nodes.append(target)
            current = target
            if stop_at is not None and current in stop_at:
                break
        return WalkRecord(tuple(nodes), tuple(labels))


_SENTINEL = object()
