"""PathMining — the metapath sampler of Section 3.1.

"We sample a node in V \\ Q with uniform probability and run a random walk
until a query node is reached. The sequence of edge labels m encountered
during the random walk is added to the set of metapaths M along with the
number of times c(m) the same metapath has been found so far."

Two implementation choices are documented here:

* Walks are bounded by ``max_length`` edges (Figure 6 sweeps exactly this
  "maximum metapath length" knob); unbounded walks need not terminate.
* The mined label sequence is kept **as encountered** (walk order) and the
  scoring formula of Section 3.1 replays it *from the query nodes*. This
  asymmetry is load-bearing: a walk that reached the query from one of its
  attribute values (say ``company --created_inv--> actor``) produces a
  sequence that has **no** matches when replayed from an actor — so
  trivial "the query's own neighbourhood" patterns self-eliminate, and
  only role-symmetric, entity-to-entity patterns (co-actor, co-type,
  shared-prize, ...) contribute to the context score. The start node's
  type is attached as the metapath's terminal-type constraint (phi in the
  alternating metapath definition of Section 2): the start node is the
  exemplar of what the replayed path should end at.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.graph.model import KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.util.rng import RandomSource, ensure_rng
from repro.walk.metapath import (
    Metapath,
    ScoredMetapath,
    normalize_probabilities,
    primary_type,
)
from repro.walk.walker import RandomWalker


@dataclass
class MinedPaths:
    """Result of a PathMining run."""

    paths: list[ScoredMetapath]
    samples: int
    hits: int

    @property
    def hit_rate(self) -> float:
        """Fraction of sampled walks that reached a query node."""
        return self.hits / self.samples if self.samples else 0.0

    def metapaths(self) -> list[Metapath]:
        """The mined metapaths without their counts, in ranked order."""
        return [p.metapath for p in self.paths]

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


class PathMiner:
    """Mines metapaths connecting the graph at large to the query set."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        weighted: bool = True,
        rng: RandomSource = None,
        statistics: GraphStatistics | None = None,
    ) -> None:
        self._graph = graph
        self._rng = ensure_rng(rng)
        self._walker = RandomWalker(
            graph, weighted=weighted, rng=self._rng, statistics=statistics
        )

    @property
    def graph(self) -> KnowledgeGraph:
        """The graph the miner samples walks from."""
        return self._graph

    def mine(
        self,
        query: "list[int] | tuple[int, ...] | set[int]",
        *,
        samples: int = 10_000,
        max_length: int = 5,
        max_paths: int | None = None,
    ) -> MinedPaths:
        """Run ``samples`` walks and aggregate the metapaths that hit ``Q``.

        ``max_paths`` keeps only the |M| most frequent metapaths (the
        Table 3 knob); ``None`` keeps all. Probabilities ``Pr(m)`` are
        normalized over the *kept* set, matching "the relative count ...
        divided by the sum of the counts of all metapaths M".
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        query_set = frozenset(query)
        if not query_set:
            raise ValueError("query must not be empty")
        for node in query_set:
            if not self._graph.has_node(node):
                raise ValueError(f"query node id out of range: {node}")

        population = self._graph.node_count
        if population <= len(query_set):
            raise ValueError("graph has no nodes outside the query to sample")

        counts: Counter[tuple[tuple[str, ...], str | None]] = Counter()
        hits = 0
        rng = self._rng
        for _ in range(samples):
            start = self._sample_start(rng, population, query_set)
            record = self._walker.walk(start, max_length, stop_at=query_set)
            if record.end not in query_set or not record.labels:
                continue
            hits += 1
            # Keep the labels in walk order (see the module docstring) and
            # the start node's type as the terminal-type constraint.
            start_type = primary_type(self._graph, start)
            counts[(record.labels, start_type)] += 1

        ranked = sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "")
        )
        if max_paths is not None:
            if max_paths < 1:
                raise ValueError(f"max_paths must be >= 1, got {max_paths}")
            ranked = ranked[:max_paths]
        paths = [
            ScoredMetapath(Metapath(labels, end_type=end_type), count)
            for (labels, end_type), count in ranked
        ]
        normalize_probabilities(paths)
        return MinedPaths(paths=paths, samples=samples, hits=hits)

    def _sample_start(self, rng, population: int, query_set: frozenset[int]) -> int:
        """Uniform sample from V \\ Q by rejection (|Q| << |V| always)."""
        while True:
            candidate = rng.randrange(population)
            if candidate not in query_set:
                return candidate
