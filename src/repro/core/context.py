"""Context selection (Section 3.1) — the similarity function sigma.

Two selectors:

* :class:`RandomWalkContext` — the paper's baseline: Personalized PageRank
  over the Equation-1 weighted graph, one run per query node, summed.
* :class:`ContextRW` — the contribution: PathMining mines metapaths
  connecting the graph to the query, then every node is scored by::

      sigma(n', Q) = sum over m in M, n in Q of
          |{n ~m~> n'}| / |{n ~m~> n'' : n'' in V \\ Q}| * Pr(m)

  "sigma gives a higher score to nodes that are reachable through frequent
  metapaths connecting the query nodes or connected through many of these
  metapaths."

Both return the top-``k`` scored nodes as the context ``C`` (Definition 2:
disjoint from ``Q``, |C| = k).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.graph.model import KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.util.rng import RandomSource
from repro.walk.metapath import count_matching_paths
from repro.walk.pagerank import PersonalizedPageRank
from repro.walk.pathmining import MinedPaths, PathMiner


@dataclass
class ContextResult:
    """A ranked context set with its scores and provenance."""

    query: tuple[int, ...]
    ranked_nodes: list[int]
    scores: dict[int, float]
    elapsed_seconds: float
    algorithm: str
    mined_paths: MinedPaths | None = field(default=None, repr=False)

    @property
    def nodes(self) -> list[int]:
        """The context set ``C`` in rank order."""
        return self.ranked_nodes

    def top(self, k: int) -> list[int]:
        """The ``k`` best context nodes (a cutoff of the ranking)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return self.ranked_nodes[:k]

    def names(self, graph: KnowledgeGraph, k: int | None = None) -> list[str]:
        """Display names of the ranked context nodes (top ``k`` when given)."""
        nodes = self.ranked_nodes if k is None else self.top(k)
        return [graph.node_name(n) for n in nodes]

    def __len__(self) -> int:
        return len(self.ranked_nodes)


def _validate_query(graph: KnowledgeGraph, query: Sequence[int]) -> tuple[int, ...]:
    if len(query) == 0:
        raise QueryError("the query set must not be empty")
    if len(set(query)) != len(query):
        raise QueryError("the query set contains duplicate nodes")
    if len(query) > 10:
        # Section 2: the query is "reasonably small (i.e., <= 10 elements)".
        raise QueryError(f"query sets are limited to 10 nodes, got {len(query)}")
    for node in query:
        if not graph.has_node(node):
            raise QueryError(f"query node id out of range: {node}")
    return tuple(query)


class ContextSelector(ABC):
    """Interface of a similarity-driven context selector."""

    name: str = "context-selector"

    def __init__(self, graph: KnowledgeGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> KnowledgeGraph:
        """The knowledge graph this selector draws context sets from."""
        return self._graph

    @abstractmethod
    def select(self, query: Sequence[int], k: int) -> ContextResult:
        """Return the top-``k`` context (Definition 2) for ``query``."""


class RandomWalkContext(ContextSelector):
    """The RandomWalk baseline: per-query-node Personalized PageRank.

    Experimental setup of the paper: power iteration, 10 iterations; the
    damping ambiguity (0.8 in Section 3.1 vs 0.2 in Section 4) is exposed
    as the ``damping`` parameter, defaulting to 0.8 (see DESIGN.md).
    """

    name = "RandomWalk"

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        damping: float = 0.8,
        iterations: int = 10,
        tolerance: float | None = None,
        backend: str = "scipy",
        pin: bool = False,
    ) -> None:
        super().__init__(graph)
        self._pagerank = PersonalizedPageRank(
            graph,
            damping=damping,
            iterations=iterations,
            tolerance=tolerance,
            backend=backend,
            pin=pin,
        )

    def warm(self) -> "RandomWalkContext":
        """Prebuild the transition matrix (with ``pin=True``: freeze it).

        The query service calls this when it pins a snapshot that carries
        no stored transition, so concurrent requests share one immutable
        matrix instead of racing to build it.
        """
        self._pagerank.transition()
        return self

    def warm_from(self, transition) -> "RandomWalkContext":
        """Freeze a transition matrix somebody else already built.

        Used by process workers and by snapshot-file serving (the CSR
        triple is persisted in the file): adopting skips the per-worker/per-boot
        ``weighted_adjacency`` rebuild entirely. Requires ``pin=True``.
        """
        self._pagerank.adopt_transition(transition)
        return self

    def select(self, query: Sequence[int], k: int) -> ContextResult:
        """The top-``k`` PPR-ranked context for ``query`` (Section 3.1)."""
        query_tuple = _validate_query(self._graph, query)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        started = time.perf_counter()
        ranked = self._pagerank.top_k(query_tuple, k, exclude=set(query_tuple))
        elapsed = time.perf_counter() - started
        return ContextResult(
            query=query_tuple,
            ranked_nodes=[node for node, _ in ranked],
            scores={node: score for node, score in ranked},
            elapsed_seconds=elapsed,
            algorithm=self.name,
        )

    def select_many(
        self, queries: "Sequence[Sequence[int]]", k: int
    ) -> list[ContextResult]:
        """Batched :meth:`select`: one shared power iteration for all queries.

        The micro-batch entry point used by process workers. Every query's
        personalization columns join a single
        :func:`~repro.walk.pagerank.power_iteration_batch` sweep
        (:meth:`PersonalizedPageRank.top_k_many`), so the per-step sparse
        matmat cost is paid once for the whole batch. Results are
        bit-identical to calling :meth:`select` once per query.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        query_tuples = [_validate_query(self._graph, query) for query in queries]
        started = time.perf_counter()
        rankings = self._pagerank.top_k_many(
            query_tuples,
            [k] * len(query_tuples),
            excludes=[set(query_tuple) for query_tuple in query_tuples],
        )
        elapsed = time.perf_counter() - started
        return [
            ContextResult(
                query=query_tuple,
                ranked_nodes=[node for node, _ in ranked],
                scores={node: score for node, score in ranked},
                elapsed_seconds=elapsed,
                algorithm=self.name,
            )
            for query_tuple, ranked in zip(query_tuples, rankings)
        ]


class ContextRW(ContextSelector):
    """The paper's context algorithm: PathMining + metapath-constrained scores.

    Parameters mirror the experimental knobs:

    * ``samples`` — PathMining walk count (the paper runs 1M on a 27M-edge
      graph; default scales with graph size, at least ``min_samples``).
    * ``max_length`` — maximum metapath length (Figure 6; paper recommends 5).
    * ``max_paths`` — keep the |M| most frequent metapaths. Table 3 sweeps
      |M| in {5, 10, 15, 20} and finds F1 insensitive; the default is 10.
      Keeping the full tail of one-off metapaths floods the context with
      noise endpoints (each rare metapath hands its entire Pr(m) to a
      handful of nodes).
    """

    name = "ContextRW"

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        samples: int | None = None,
        max_length: int = 5,
        max_paths: int | None = 10,
        min_path_count: int = 2,
        weighted: bool = True,
        min_samples: int = 20_000,
        rng: RandomSource = None,
        statistics: GraphStatistics | None = None,
    ) -> None:
        super().__init__(graph)
        self._samples = samples
        self._min_samples = min_samples
        self._max_length = max_length
        self._max_paths = max_paths
        self._min_path_count = min_path_count
        self._miner = PathMiner(graph, weighted=weighted, rng=rng, statistics=statistics)

    def _sample_budget(self) -> int:
        if self._samples is not None:
            return self._samples
        # The paper runs PathMining 1M times on 3.3M nodes. Hitting a
        # |Q|<=10 target set is rare, so metapath counts only stabilize
        # with a sample budget well above the node count — we default to
        # 20 walks per node (and never fewer than ``min_samples``).
        return max(self._min_samples, self._graph.node_count * 20)

    def mine(self, query: Sequence[int]) -> MinedPaths:
        """Expose the PathMining stage (used by the Figure-6 benchmark).

        Returns *all* mined metapaths; the |M| cut happens in
        :meth:`select`, after filtering to query-anchored paths (see
        :meth:`score`).
        """
        query_tuple = _validate_query(self._graph, query)
        return self._miner.mine(
            query_tuple,
            samples=self._sample_budget(),
            max_length=self._max_length,
            max_paths=None,
        )

    def score(self, query: Sequence[int], mined: MinedPaths) -> dict[int, float]:
        """Compute sigma(n', Q) for every reachable node n' not in Q.

        The sigma formula divides by ``|{n ~m~> n''}|`` — it is only
        defined for metapaths with at least one match starting from a
        query node. Mined paths without any such match (walks that reached
        the query from one of its attribute values) are skipped, and the
        ``max_paths`` (|M|) cut counts *usable* paths, in mining-count
        order. Pr(m) is renormalized over the kept set.
        """
        query_tuple = _validate_query(self._graph, query)
        query_set = set(query_tuple)
        usable = self._usable_paths(
            query_tuple, query_set, mined, self._min_path_count
        )
        if not usable and self._min_path_count > 1:
            # All frequent paths were unusable — fall back to singletons
            # rather than returning an empty context.
            usable = self._usable_paths(query_tuple, query_set, mined, 1)
        total_count = sum(count for count, _ in usable)
        scores: dict[int, float] = {}
        if total_count <= 0:
            return scores
        for count, per_query in usable:
            probability = count / total_count
            for counts in per_query.values():
                denominator = sum(counts.values())
                weight = probability / denominator
                for node, node_count in counts.items():
                    scores[node] = scores.get(node, 0.0) + node_count * weight
        return scores

    def _usable_paths(
        self,
        query_tuple: tuple[int, ...],
        query_set: set[int],
        mined: MinedPaths,
        min_count: int,
    ) -> list[tuple[int, dict[int, dict[int, int]]]]:
        """Query-anchored paths with mining count >= ``min_count``.

        Paths mined only once are sampling noise (their Pr(m) estimate has
        no support); keeping them hands whole probability slots to
        arbitrary endpoint sets, so the default ``min_path_count`` is 2.
        """
        usable: list[tuple[int, dict[int, dict[int, int]]]] = []
        for scored_path in mined.paths:  # already sorted by count desc
            if self._max_paths is not None and len(usable) >= self._max_paths:
                break
            if scored_path.count < min_count:
                continue
            per_query: dict[int, dict[int, int]] = {}
            for query_node in query_tuple:
                counts = count_matching_paths(
                    self._graph, query_node, scored_path.metapath
                )
                counts = {
                    node: count
                    for node, count in counts.items()
                    if node not in query_set
                }
                if counts:
                    per_query[query_node] = counts
            if per_query:
                usable.append((scored_path.count, per_query))
        return usable

    def select(self, query: Sequence[int], k: int) -> ContextResult:
        """The top-``k`` metapath-ranked context (ContextRW, Section 3.2)."""
        query_tuple = _validate_query(self._graph, query)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        started = time.perf_counter()
        mined = self.mine(query_tuple)
        scores = self.score(query_tuple, mined)
        ranked = sorted(
            scores.items(),
            key=lambda kv: (-kv[1], self._graph.node_name(kv[0])),
        )[:k]
        elapsed = time.perf_counter() - started
        return ContextResult(
            query=query_tuple,
            ranked_nodes=[node for node, _ in ranked],
            scores={node: score for node, score in ranked},
            elapsed_seconds=elapsed,
            algorithm=self.name,
            mined_paths=mined,
        )
