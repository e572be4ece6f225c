"""FindNC — the end-to-end notable characteristics search (Problem 1).

``FindNC`` wires a context selector (default :class:`ContextRW`) to a
discriminator (default the multinomial test) and evaluates every candidate
edge label ``L | Q ∪ C`` (Definition 3). The paper's baseline **RWMult**
— PPR context + multinomial test — is the :func:`rw_mult` factory.

Paper cross-reference (Mottin et al., EDBT 2018):

* **Problem 1** (find the notable characteristics of ``Q``) —
  :meth:`FindNC.run`, the two-phase pipeline: context selection then
  per-label discrimination.
* **Definition 2** (the context ``C``: similar entities, disjoint from
  ``Q``, ``|C| = k``) — the ``context_size`` parameter and the injected
  :class:`~repro.core.context.ContextSelector`.
* **Definition 3** (candidate labels ``L | Q ∪ C`` and the
  discrimination function ``delta``) — :meth:`FindNC.candidate_labels`
  (with the type-system exclusions of
  :func:`default_excluded_labels`) and the
  :class:`~repro.core.discrimination.Discriminator` scoring loop.
* **Section 3.2** (instance/cardinality distributions) — delegated to
  :mod:`repro.core.distributions`.
* **Figure 5** (runtime vs query size) — ``elapsed_context`` /
  ``elapsed_discrimination`` on :class:`FindNCResult` are the two cost
  components that figure plots; the benchmark driver is
  ``benchmarks/bench_fig5_time_vs_query_size.py``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.context import ContextResult, ContextRW, ContextSelector, RandomWalkContext
from repro.core.discrimination import (
    DiscriminationResult,
    Discriminator,
    MultinomialDiscriminator,
)
from repro.core.distributions import build_all_distributions, build_distributions
from repro.errors import QueryError
from repro.graph.labels import SUBCLASS_OF_LABEL, TYPE_LABEL, inverse_label, is_inverse_label
from repro.graph.model import KnowledgeGraph, NodeRef
from repro.graph.search import EntityIndex, resolve_node_refs
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.compiled import CompiledGraph


@dataclass(frozen=True)
class NotableCharacteristic:
    """One notable characteristic, ready for presentation."""

    label: str
    score: float
    channel: str
    p_value: float | None
    detail: DiscriminationResult

    def explanation(self, graph: KnowledgeGraph) -> str:
        """A one-paragraph, human-readable account of the finding."""
        dists = self.detail.distributions
        lines = [
            f"'{self.label}' is notable (score {self.score:.3f}, "
            f"driven by the {self.channel} distribution"
        ]
        if self.p_value is not None:
            lines[-1] += f", significance probability {self.p_value:.4f}"
        lines[-1] += ")."
        if dists is None:
            return lines[0]
        if self.channel == "instance":
            top_context = [
                f"{value} ({c}x)"
                for value, _, c in sorted(
                    dists.instance_rows(), key=lambda row: -row[2]
                )[:3]
                if c
            ]
            top_query = [
                f"{value} ({q}x)"
                for value, q, _ in sorted(
                    dists.instance_rows(), key=lambda row: -row[1]
                )[:3]
                if q
            ]
            lines.append(f"Context values: {', '.join(top_context) or 'none'}.")
            lines.append(f"Query values: {', '.join(top_query) or 'none'}.")
        else:
            card_rows = dists.cardinality_rows()
            query_mode = max(card_rows, key=lambda row: row[1])[0] if card_rows else 0
            context_mode = max(card_rows, key=lambda row: row[2])[0] if card_rows else 0
            lines.append(
                f"Typical count in the query: {query_mode}; in the context: "
                f"{context_mode}."
            )
        return " ".join(lines)


@dataclass
class FindNCResult:
    """Everything produced by one FindNC run."""

    query: tuple[int, ...]
    context: ContextResult
    results: list[DiscriminationResult]
    elapsed_context: float
    elapsed_discrimination: float
    notable: list[NotableCharacteristic] = field(default_factory=list)

    @property
    def elapsed_total(self) -> float:
        """Context-search plus discrimination wall time, in seconds."""
        return self.elapsed_context + self.elapsed_discrimination

    def result_for(self, label: str) -> DiscriminationResult:
        """The discrimination result of ``label`` (KeyError if unevaluated)."""
        # Memoized {label: result} index instead of an O(n) scan per call.
        # ``results`` is a public mutable list, so the cache is re-keyed on
        # the elements' *identities*: replacing/removing/adding entries
        # rebuilds it. The indexed entries are kept alive inside the state
        # tuple (strong references), so a GC'd entry's ``id()`` being
        # reused can never revive a stale index — and the whole state is
        # stored in ONE attribute assignment, so threads sharing a cached
        # result always observe a matching (entries, index) pair; rebuild
        # races waste a little work but never mix states.
        entries = tuple(self.results)
        state = self.__dict__.get("_result_index_state")
        if (
            state is None
            or len(state[0]) != len(entries)
            or any(a is not b for a, b in zip(state[0], entries))
        ):
            index: dict[str, DiscriminationResult] = {}
            for result in entries:
                index.setdefault(result.label, result)  # first match wins
            state = (entries, index)
            self.__dict__["_result_index_state"] = state
        try:
            return state[1][label]
        except KeyError:
            raise KeyError(f"label {label!r} was not evaluated") from None

    def notable_labels(self) -> list[str]:
        """The notable characteristics' labels, best score first."""
        return [n.label for n in self.notable]

    def significance_probabilities(self) -> dict[str, float]:
        """``{label: min channel p-value}`` — the series Figure 9 plots."""
        out: dict[str, float] = {}
        for result in self.results:
            p = result.min_p_value
            if p is not None:
                out[result.label] = p
        return out

    def summary(self, graph: KnowledgeGraph, *, limit: int = 10) -> str:
        """A human-readable digest (query, context, top notable labels)."""
        lines = [
            f"query: {[graph.node_name(n) for n in self.query]}",
            f"context: {len(self.context)} nodes "
            f"({self.context.algorithm}, {self.elapsed_context:.2f}s)",
            f"candidates evaluated: {len(self.results)} "
            f"({self.elapsed_discrimination:.2f}s)",
            f"notable characteristics: {len(self.notable)}",
        ]
        for item in self.notable[:limit]:
            lines.append(f"  - {item.explanation(graph)}")
        return "\n".join(lines)


def default_excluded_labels() -> frozenset[str]:
    """Labels excluded from candidacy by default: the type system.

    ``type`` / ``subclassOf`` edges encode the ontology, not facts about
    the entities; reporting "the query has unusual types" is usually
    uninformative (and YAGO's 366K types would flood the Inst support).
    Both directions are excluded. Pass ``excluded_labels=frozenset()`` to
    re-include them.
    """
    return frozenset(
        {
            TYPE_LABEL,
            SUBCLASS_OF_LABEL,
            inverse_label(TYPE_LABEL),
            inverse_label(SUBCLASS_OF_LABEL),
        }
    )


class FindNC:
    """Notable characteristics search over a knowledge graph.

    >>> # doctest-style sketch (see examples/quickstart.py for a real run)
    >>> # finder = FindNC(graph)
    >>> # result = finder.run(["Angela_Merkel", "Barack_Obama"], context_size=100)
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        context_selector: ContextSelector | None = None,
        discriminator: Discriminator | None = None,
        context_size: int = 100,
        excluded_labels: Iterable[str] | None = None,
        include_inverse_labels: bool = False,
        none_bucket: bool = True,
        batch_distributions: bool = True,
        rng: RandomSource = None,
        entity_index: EntityIndex | None = None,
    ) -> None:
        self._graph = graph
        self._selector = context_selector or ContextRW(graph, rng=rng)
        self._discriminator = discriminator or MultinomialDiscriminator(rng=rng)
        if context_size < 1:
            raise ValueError(f"context_size must be >= 1, got {context_size}")
        self.context_size = context_size
        self.excluded_labels = (
            frozenset(excluded_labels)
            if excluded_labels is not None
            else default_excluded_labels()
        )
        self.include_inverse_labels = include_inverse_labels
        self.none_bucket = none_bucket
        #: When True (default) the discrimination phase builds every
        #: candidate's distributions in one sweep; False falls back to the
        #: per-label reference path (same results, reference cost profile).
        self.batch_distributions = batch_distributions
        # Built on first fuzzy lookup — id / exact-name queries never pay
        # for the normalized-name index. The query service injects a
        # shared, pre-built index so per-request finders don't rebuild it.
        self._entity_index: EntityIndex | None = entity_index

    @property
    def graph(self) -> KnowledgeGraph:
        """The graph (or frozen snapshot view) this finder searches."""
        return self._graph

    @property
    def selector(self) -> ContextSelector:
        """The context-search strategy (Phase 1 of Algorithm 1)."""
        return self._selector

    @property
    def discriminator(self) -> Discriminator:
        """The per-label discrimination test (Phase 2 of Algorithm 1)."""
        return self._discriminator

    @property
    def entity_index(self) -> EntityIndex:
        """The fuzzy name resolver (built lazily on first use)."""
        if self._entity_index is None:
            self._entity_index = EntityIndex(self._graph)
        return self._entity_index

    # -- query plumbing ----------------------------------------------------

    def resolve_query(self, query: Sequence[NodeRef]) -> tuple[int, ...]:
        """Accept node ids, exact names, or fuzzy names (Section 2 input)."""
        if len(query) == 0:
            raise QueryError("the query set must not be empty")
        resolved = resolve_node_refs(
            self._graph, query, lambda: self.entity_index
        )
        return tuple(dict.fromkeys(resolved))  # dedupe, keep order

    # -- the pipeline --------------------------------------------------------

    def candidate_labels(
        self, nodes: Iterable[int], *, snapshot: "CompiledGraph | None" = None
    ) -> list[str]:
        """``L | Q ∪ C`` minus exclusions (Definition 3's restriction).

        With a pinned ``snapshot`` the incident labels come from the
        snapshot's edge rows instead of the live adjacency dicts, so the
        candidate set stays consistent with the snapshot even while
        writers mutate the graph. Both paths produce the same labels in
        the same (sorted) order for an unmutated graph.
        """
        if snapshot is None:
            labels = sorted(self._graph.incident_labels(nodes))
        else:
            table = self._graph._label_table()  # noqa: SLF001 - label ids only grow
            labels = sorted(
                table.name(int(label_id))
                for label_id in snapshot.incident_label_ids(list(nodes))
            )
        return self._filter_candidates(labels)

    def _filter_candidates(self, labels: "list[str]") -> list[str]:
        """Apply the exclusion and inverse-label policy to sorted names."""
        out = []
        for label in labels:
            if label in self.excluded_labels:
                continue
            if not self.include_inverse_labels and is_inverse_label(label):
                continue
            out.append(label)
        return out

    def candidate_label_mask(self, snapshot: "CompiledGraph") -> np.ndarray:
        """Boolean mask over ``snapshot``'s label ids admitting exactly the
        labels :meth:`_filter_candidates` keeps.

        The batch sweep (:func:`~repro.core.distributions.sweep_counts_many`)
        drops the other labels' edge rows up front — excluded and inverse
        labels are often most of the adjacency — and :meth:`run` derives
        from the masked counters the same candidate list an unmasked
        enumeration plus filtering would produce.
        """
        table = self._graph._label_table()  # noqa: SLF001 - label ids only grow
        names = [table.name(label_id) for label_id in range(snapshot.label_count)]
        admitted = set(self._filter_candidates(names))
        mask = np.zeros(max(len(names), 1), dtype=bool)
        mask[: len(names)] = [name in admitted for name in names]
        return mask

    def run(
        self,
        query: Sequence[NodeRef],
        *,
        context_size: int | None = None,
        context: ContextResult | None = None,
        snapshot: "CompiledGraph | None" = None,
        sweep_cache: "dict | None" = None,
    ) -> FindNCResult:
        """Execute the full pipeline for ``query``.

        A pre-computed ``context`` can be injected (the benchmarks reuse
        one context across distribution sweeps); otherwise the configured
        selector runs with ``context_size``.

        A pinned ``snapshot`` (from :meth:`KnowledgeGraph.compiled`) makes
        the discrimination phase — candidate enumeration and the batch
        distribution sweep — read only that immutable snapshot instead of
        re-resolving the graph's current one per call, so the run is
        consistent against concurrent writers. The query must be covered
        by the snapshot; pinning requires the batch path
        (``batch_distributions=True``).

        ``sweep_cache`` hands the batch distribution builder counters
        precomputed by
        :func:`repro.core.distributions.sweep_counts_many` against the
        same snapshot, keyed by node-id tuple (the query service sweeps
        every batch member's query and context sets in one fused pass).
        Sets missing from the cache are swept normally, so a cache miss
        costs only the amortisation, never correctness.
        """
        query_ids = self.resolve_query(query)
        k = context_size if context_size is not None else self.context_size
        if snapshot is not None:
            if not self.batch_distributions:
                raise ValueError(
                    "snapshot pinning requires batch_distributions=True "
                    "(the reference path scans the live adjacency)"
                )
            if not snapshot.covers(query_ids):
                raise QueryError(
                    "query references nodes newer than the pinned snapshot"
                )

        started = time.perf_counter()
        if context is None:
            context = self._selector.select(query_ids, k)
        elapsed_context = time.perf_counter() - started

        started = time.perf_counter()
        members = list(query_ids) + context.nodes
        if snapshot is not None and not snapshot.covers(members):
            # The selector ran against a newer graph than the snapshot
            # (it returned nodes the snapshot has never seen). Surface a
            # clean error instead of indexing out of bounds — callers
            # serving pinned requests must pin the selector too (the
            # query service pins both; see repro.service.engine).
            raise QueryError(
                "context references nodes newer than the pinned snapshot; "
                "pin the context selector to the same graph version"
            )
        cached_sweeps = None
        if sweep_cache is not None and self.batch_distributions:
            query_sweep = sweep_cache.get(tuple(query_ids))
            context_sweep = sweep_cache.get(tuple(context.nodes))
            if query_sweep is not None and context_sweep is not None:
                cached_sweeps = (query_sweep, context_sweep)
        if cached_sweeps is not None:
            # The fused sweeps already counted every member's edges, so
            # the candidate set (labels incident to Q ∪ C) falls out of
            # their per-label member counts — no third edge gather.
            table = self._graph._label_table()  # noqa: SLF001 - label ids only grow
            incident = np.flatnonzero(
                cached_sweeps[0].members_with_label
                + cached_sweeps[1].members_with_label
            )
            labels = self._filter_candidates(
                sorted(table.name(int(label_id)) for label_id in incident)
            )
        else:
            labels = self.candidate_labels(members, snapshot=snapshot)
        if self.batch_distributions:
            distribution_map = build_all_distributions(
                self._graph,
                query_ids,
                context.nodes,
                labels,
                none_bucket=self.none_bucket,
                compiled=snapshot,
                sweep_cache=sweep_cache,
            )
        else:  # reference path: one adjacency scan per candidate label
            distribution_map = {
                label: build_distributions(
                    self._graph,
                    query_ids,
                    context.nodes,
                    label,
                    none_bucket=self.none_bucket,
                )
                for label in labels
            }
        results = [
            self._discriminator.score(distributions)
            for distributions in distribution_map.values()
        ]
        elapsed_discrimination = time.perf_counter() - started

        results.sort(key=lambda r: (-r.score, r.label))
        notable = [
            NotableCharacteristic(
                label=result.label,
                score=result.score,
                channel=result.channel,
                p_value=result.min_p_value,
                detail=result,
            )
            for result in results
            if result.notable
        ]
        return FindNCResult(
            query=query_ids,
            context=context,
            results=results,
            elapsed_context=elapsed_context,
            elapsed_discrimination=elapsed_discrimination,
            notable=notable,
        )


def rw_mult(
    graph: KnowledgeGraph,
    *,
    context_size: int = 100,
    damping: float = 0.8,
    iterations: int = 10,
    alpha: float = 0.05,
    rng: RandomSource = None,
    **kwargs,
) -> FindNC:
    """The paper's RWMult baseline: RandomWalk context + multinomial test."""
    return FindNC(
        graph,
        context_selector=RandomWalkContext(
            graph, damping=damping, iterations=iterations
        ),
        discriminator=MultinomialDiscriminator(alpha=alpha, rng=rng),
        context_size=context_size,
        **kwargs,
    )
