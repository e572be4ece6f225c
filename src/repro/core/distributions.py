"""Instance and cardinality distributions (Section 3.2).

For an edge label ``l`` and node sets ``Q`` (query) and ``C`` (context):

* the **instance** distributions ``Inst_q / Inst_c`` count, for each value
  node ``i``, how many ``l``-labelled edges from the set end in ``i``. A
  ``None`` bucket counts set members with *no* ``l``-edge — Figure 7 shows
  it explicitly ("The first label is None, indicating no matching edge
  found").
* the **cardinality** distributions ``Card_q / Card_c`` count, for each
  ``i = 0, 1, 2, ...``, how many set members have exactly ``i``
  ``l``-labelled edges. This captures existence/cardinality facts that
  instance counts cannot ("Angela Merkel has no child while all other
  leaders have at least one").

Query and context vectors are aligned over the same support, "so x_i is
zero if i appears only in the context".

Paper cross-reference (Mottin et al., EDBT 2018):

* **Section 3.2, instance distributions** — :func:`instance_counts`
  (reference) and the instance channel of :class:`_SweepCounts` (batch);
  the ``None`` bucket realises Figure 7's explicit "no matching edge"
  label (the ``hasWonPrize`` example).
* **Section 3.2, cardinality distributions** — :func:`cardinality_counts`
  and the cardinality channel of :class:`_SweepCounts`; Figure 8's
  ``hasChild`` histogram ("Angela Merkel has no child while all other
  leaders have at least one") is exactly a
  :meth:`CharacteristicDistributions.cardinality_rows` table.
* **Support alignment** ("x_i is zero if i appears only in the
  context") — :func:`_assemble`, shared by both paths so the batch
  sweep is bit-identical to the per-label reference.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.model import KnowledgeGraph, NodeRef
from repro.stats.histograms import align_count_maps

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.compiled import CompiledGraph


class _NoneInstance:
    """Sentinel for the "no matching edge" bucket of instance distributions.

    A dedicated singleton (rather than the string ``"None"``) cannot collide
    with a graph node that happens to be named ``None``.
    """

    _instance: "_NoneInstance | None" = None

    def __new__(cls) -> "_NoneInstance":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "None"

    def __str__(self) -> str:
        return "None"


#: The "no matching edge" instance value.
NONE_INSTANCE = _NoneInstance()


def instance_counts(
    graph: KnowledgeGraph,
    nodes: Iterable[NodeRef],
    label: str,
    *,
    none_bucket: bool = True,
) -> dict[object, int]:
    """``{value: occurrences}`` of ``label``-edge endpoints from ``nodes``.

    Values are the *names* of the target nodes (phi of Definition 1).
    With ``none_bucket`` (default) every member without any ``label`` edge
    contributes one count to :data:`NONE_INSTANCE`.
    """
    counts: dict[object, int] = {}
    for node in nodes:
        targets = list(graph.neighbors(node, label))
        if not targets and none_bucket:
            counts[NONE_INSTANCE] = counts.get(NONE_INSTANCE, 0) + 1
            continue
        for target in targets:
            value = graph.node_name(target)
            counts[value] = counts.get(value, 0) + 1
    return counts


def cardinality_counts(
    graph: KnowledgeGraph, nodes: Iterable[NodeRef], label: str
) -> dict[int, int]:
    """``{i: number of members with exactly i label-edges}``."""
    counts: dict[int, int] = {}
    for node in nodes:
        degree = graph.out_degree(node, label)
        counts[degree] = counts.get(degree, 0) + 1
    return counts


@dataclass(frozen=True)
class CharacteristicDistributions:
    """The four aligned distributions of one candidate characteristic."""

    label: str
    instance_support: tuple[object, ...]
    inst_query: np.ndarray
    inst_context: np.ndarray
    cardinality_support: tuple[int, ...]
    card_query: np.ndarray
    card_context: np.ndarray

    @property
    def query_size(self) -> int:
        """|Q| recovered from the cardinality histogram."""
        return int(self.card_query.sum())

    @property
    def context_size(self) -> int:
        """|C| recovered from the cardinality histogram."""
        return int(self.card_context.sum())

    def instance_rows(self) -> list[tuple[str, int, int]]:
        """``(value, query count, context count)`` rows for reporting."""
        return [
            (str(value), int(q), int(c))
            for value, q, c in zip(
                self.instance_support, self.inst_query, self.inst_context
            )
        ]

    def cardinality_rows(self) -> list[tuple[int, int, int]]:
        """``(cardinality, query count, context count)`` rows for reporting."""
        return [
            (int(value), int(q), int(c))
            for value, q, c in zip(
                self.cardinality_support, self.card_query, self.card_context
            )
        ]


def _assemble(
    label: str,
    inst_q: dict[object, int],
    inst_c: dict[object, int],
    card_q: dict[int, int],
    card_c: dict[int, int],
) -> CharacteristicDistributions:
    """Align count maps into one :class:`CharacteristicDistributions`.

    Shared by the per-label reference path and the batch sweep, so both
    produce bit-identical supports and arrays from equal count maps.
    """
    instance_support, x_inst, y_inst = align_count_maps(inst_q, inst_c)

    max_cardinality = max(
        max(card_q, default=0),
        max(card_c, default=0),
    )
    card_support = list(range(max_cardinality + 1))
    x_card = np.array([card_q.get(i, 0) for i in card_support], dtype=np.int64)
    y_card = np.array([card_c.get(i, 0) for i in card_support], dtype=np.int64)

    return CharacteristicDistributions(
        label=label,
        instance_support=tuple(instance_support),
        inst_query=x_inst,
        inst_context=y_inst,
        cardinality_support=tuple(card_support),
        card_query=x_card,
        card_context=y_card,
    )


def build_distributions(
    graph: KnowledgeGraph,
    query: Sequence[NodeRef],
    context: Sequence[NodeRef],
    label: str,
    *,
    none_bucket: bool = True,
) -> CharacteristicDistributions:
    """Build the aligned Inst/Card distribution pairs for ``label``.

    The cardinality support is the contiguous range ``0..max`` observed in
    either set, so the histograms read like Figure 8 (zeros included).

    This is the reference implementation: one adjacency scan per label.
    The pipeline hot path uses :func:`build_all_distributions`, which
    produces identical output for every label in a single sweep.
    """
    return _assemble(
        label,
        instance_counts(graph, query, label, none_bucket=none_bucket),
        instance_counts(graph, context, label, none_bucket=none_bucket),
        cardinality_counts(graph, query, label),
        cardinality_counts(graph, context, label),
    )


class _SweepCounts:
    """Label-id-keyed counters from one columnar pass over a node set."""

    __slots__ = (
        "size",
        "inst_labels",
        "inst_targets",
        "inst_counts",
        "card_labels",
        "card_degrees",
        "card_counts",
        "members_with_label",
    )

    def __init__(
        self,
        compiled,
        members: "Sequence[int]",
        label_mask: "np.ndarray | None" = None,
    ) -> None:
        rows, owners = compiled.gather_rows(np.asarray(members, dtype=np.int64))
        labels = compiled.label_ids[rows]
        targets = compiled.targets[rows]
        if label_mask is not None:
            # Rows of labels the caller will never ask about (excluded /
            # inverse labels — often most of the adjacency) can be
            # dropped before the sort: counts for the surviving labels
            # are untouched, and the dropped labels' count_maps must not
            # be consulted (their members_with_label reads zero).
            keep = label_mask[labels]
            labels = labels[keep]
            targets = targets[keep]
            owners = owners[keep]
        # Instance channel: occurrences per (label, target) pair.
        node_count = max(compiled.node_count, 1)
        inst_key = labels * node_count + targets
        inst_unique, inst_counts = np.unique(inst_key, return_counts=True)
        # Cardinality channel: degree of each (member, label) pair.
        width = max(compiled.label_count, 1)
        pair_key = owners * width + labels
        pair_unique, pair_degree = np.unique(pair_key, return_counts=True)
        self._fill(
            len(members),
            compiled.label_count,
            node_count,
            inst_unique,
            inst_counts,
            pair_unique,
            pair_degree,
        )

    def _fill(
        self,
        size: int,
        label_count: int,
        node_count: int,
        inst_unique: np.ndarray,
        inst_counts: np.ndarray,
        pair_unique: np.ndarray,
        pair_degree: np.ndarray,
    ) -> None:
        """Finish construction from the two keyed channels.

        ``inst_unique`` holds sorted ``label * node_count + target`` keys
        with their occurrence counts; ``pair_unique`` sorted
        ``owner * label_count + label`` keys with each pair's edge count
        (= the member's degree under that label). Shared by
        :meth:`__init__` and the fused multi-set pass of
        :func:`sweep_counts_many`, so both land on identical state.
        """
        self.size = size
        self.inst_counts = inst_counts
        self.inst_labels = inst_unique // node_count
        self.inst_targets = inst_unique - self.inst_labels * node_count
        width = max(label_count, 1)
        pair_label = pair_unique % width
        self.members_with_label = np.bincount(pair_label, minlength=label_count)
        # Degrees histogrammed into member counts per (label, degree).
        degree_width = int(pair_degree.max()) + 1 if pair_degree.size else 1
        card_key = pair_label * degree_width + pair_degree
        card_unique, self.card_counts = np.unique(card_key, return_counts=True)
        self.card_labels = card_unique // degree_width
        self.card_degrees = card_unique - self.card_labels * degree_width

    def count_maps(
        self, label_id: "int | None", names: list[str], none_bucket: bool
    ) -> tuple[dict[object, int], dict[int, int]]:
        """The ``(instance, cardinality)`` count maps of one label.

        Content-identical to :func:`instance_counts` /
        :func:`cardinality_counts` over the same member set (zero-count
        cardinality buckets are omitted; the assembly fills them in).
        """
        instances: dict[object, int] = {}
        cardinalities: dict[int, int] = {}
        zero_members = self.size
        if label_id is not None:
            lo = int(np.searchsorted(self.inst_labels, label_id, side="left"))
            hi = int(np.searchsorted(self.inst_labels, label_id, side="right"))
            for target, count in zip(
                self.inst_targets[lo:hi].tolist(), self.inst_counts[lo:hi].tolist()
            ):
                instances[names[target]] = count
            lo = int(np.searchsorted(self.card_labels, label_id, side="left"))
            hi = int(np.searchsorted(self.card_labels, label_id, side="right"))
            for degree, count in zip(
                self.card_degrees[lo:hi].tolist(), self.card_counts[lo:hi].tolist()
            ):
                cardinalities[degree] = count
            zero_members = self.size - int(self.members_with_label[label_id])
        if zero_members > 0:
            cardinalities[0] = zero_members
            if none_bucket:
                instances[NONE_INSTANCE] = zero_members
        return instances, cardinalities


def sweep_counts_many(
    compiled: "CompiledGraph",
    node_sets: "Sequence[Sequence[int]]",
    label_mask: "np.ndarray | None" = None,
) -> "list[_SweepCounts]":
    """One :class:`_SweepCounts` per node set, from a single fused pass.

    The micro-batch worker path calls this with every batch member's query
    and context sets at once: one ``gather_rows`` and one keyed
    ``np.unique`` per channel replace the per-member pairs, amortising
    the fixed sort/gather overhead across the batch. Each set's keys are
    offset into a disjoint range (``set_index * span``) so one sorted
    unique pass yields every member's slice; subtracting the offset
    recovers exactly the keys :meth:`_SweepCounts.__init__` derives, and
    the shared :meth:`_SweepCounts._fill` tail does the rest — the
    returned counters are interchangeable with per-set construction
    (``tests/test_batch_parity.py`` pins equality).
    """
    sets = [np.asarray(list(node_set), dtype=np.int64) for node_set in node_sets]
    if not sets:
        return []
    empty = np.empty(0, dtype=np.int64)
    # Saturated batches share their heaviest nodes: the same high-PPR
    # hubs headline nearly every member's context. Gather and sort each
    # distinct node's edges once, then assemble per-set counters from
    # the per-node slices — integer count sums, so exactly the counters
    # a per-set gather would produce, at a fraction of the sort volume.
    distinct, inverse = np.unique(np.concatenate(sets), return_inverse=True)
    rows, owners = compiled.gather_rows(distinct)
    labels = compiled.label_ids[rows].astype(np.int64, copy=False)
    targets = compiled.targets[rows].astype(np.int64, copy=False)
    if label_mask is not None:
        # Same row filter as _SweepCounts.__init__: drop edges of labels
        # the consumer will never query (excluded / inverse labels).
        keep = label_mask[labels]
        labels = labels[keep]
        targets = targets[keep]
        owners = owners[keep]
    node_count = max(compiled.node_count, 1)
    label_count = compiled.label_count
    width = max(label_count, 1)
    # One sort keyed (node, label, target): per-node instance slices are
    # contiguous runs, sorted by the same inner key _SweepCounts uses.
    span = width * node_count
    key = owners * span + labels * node_count + targets
    key_unique, key_counts = np.unique(key, return_counts=True)
    key_owner = key_unique // span
    inner_unique = key_unique - key_owner * span
    bounds = np.arange(distinct.shape[0] + 1, dtype=np.int64)
    node_slices = np.searchsorted(key_unique, bounds * span)
    # Per-node (label, degree) pairs fall out of the same sorted pass:
    # (node, label) runs are contiguous, and a run's total count is the
    # node's degree under that label — no second full sort.
    pair_full = key_owner * width + inner_unique // node_count
    if pair_full.size:
        run_starts = np.flatnonzero(
            np.concatenate((np.ones(1, dtype=bool), pair_full[1:] != pair_full[:-1]))
        )
        pair_keys = pair_full[run_starts]
        pair_counts = np.add.reduceat(key_counts, run_starts)
    else:
        pair_keys = pair_counts = empty
    pair_slices = np.searchsorted(pair_keys, bounds * width)
    out: "list[_SweepCounts]" = []
    position = 0
    for node_ids in sets:
        size = int(node_ids.shape[0])
        members = inverse[position : position + size]
        position += size
        # Instance channel: merge the member nodes' sorted key slices.
        # A stable argsort over pre-sorted runs is cheap, and summing
        # counts of equal keys matches a raw multiset count exactly.
        if size:
            keys = np.concatenate(
                [inner_unique[node_slices[d] : node_slices[d + 1]] for d in members]
            )
            counts = np.concatenate(
                [key_counts[node_slices[d] : node_slices[d + 1]] for d in members]
            )
        else:
            keys = counts = empty
        if keys.size:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            counts = counts[order]
            starts = np.flatnonzero(
                np.concatenate((np.ones(1, dtype=bool), keys[1:] != keys[:-1]))
            )
            inst_unique = keys[starts]
            inst_counts = np.add.reduceat(counts, starts)
        else:
            inst_unique = inst_counts = empty
        # Cardinality channel: re-key each member node's (label, degree)
        # pairs to its set-local owner index. Owners ascend in set order
        # and labels ascend within each node, so the result is already
        # the sorted ``owner * width + label`` array __init__ derives.
        if size:
            pair_unique = np.concatenate(
                [
                    pair_keys[pair_slices[d] : pair_slices[d + 1]]
                    + (local * width - int(d) * width)
                    for local, d in enumerate(members)
                ]
            )
            pair_degree = np.concatenate(
                [pair_counts[pair_slices[d] : pair_slices[d + 1]] for d in members]
            )
        else:
            pair_unique = pair_degree = empty
        sweep = object.__new__(_SweepCounts)
        sweep._fill(  # noqa: SLF001 - same-module constructor tail
            size,
            label_count,
            node_count,
            inst_unique,
            inst_counts,
            pair_unique,
            pair_degree,
        )
        out.append(sweep)
    return out


def build_all_distributions(
    graph: KnowledgeGraph,
    query: Sequence[NodeRef],
    context: Sequence[NodeRef],
    labels: Iterable[str],
    *,
    none_bucket: bool = True,
    compiled: "CompiledGraph | None" = None,
    sweep_cache: "dict[tuple[int, ...], _SweepCounts] | None" = None,
) -> dict[str, CharacteristicDistributions]:
    """Build every label's distributions in one sweep over ``Q`` and ``C``.

    Instead of re-scanning each member's adjacency once per candidate
    label (the :func:`build_distributions` cost profile, O(|labels| *
    (|Q| + |C|)) scans), this gathers the members' edge rows from the
    compiled columnar snapshot once and accumulates **all** labels'
    instance and cardinality counters simultaneously, keyed by label id;
    node-name decoding is deferred to the final assembly and touches each
    distinct value once.

    Returns ``{label: distributions}`` preserving the input label order.
    Output is exactly equal — supports, ordering, arrays, the None
    bucket — to calling :func:`build_distributions` per label (the
    property tests in ``tests/test_perf_parity.py`` pin this down).

    A pre-pinned ``compiled`` snapshot may be injected (the query service
    pins one per request so the sweep stays consistent while writers
    mutate the graph); by default the graph's current snapshot is used.
    All member ids must be covered by the snapshot.

    ``sweep_cache`` maps node-id tuples to counters precomputed by
    :func:`sweep_counts_many` against the same snapshot (the micro-batch
    worker builds one fused pass for every batch member). Cached
    counters must cover every requested label (i.e. be built with no
    label mask, or a mask admitting all of ``labels``). A set missing
    from the cache is simply swept here — the cache is an amortisation,
    never a behaviour change.
    """
    label_list = list(labels)
    query_ids = graph.node_ids(query)
    context_ids = graph.node_ids(context)
    if compiled is None:
        compiled = graph._compiled()  # noqa: SLF001 - internal fast path
    elif not compiled.covers(query_ids) or not compiled.covers(context_ids):
        raise ValueError(
            "pinned snapshot does not cover every query/context node "
            f"(snapshot holds {compiled.node_count} nodes)"
        )
    table = graph._label_table()  # noqa: SLF001 - internal fast path
    names = graph._node_names_list()  # noqa: SLF001 - internal fast path

    query_sweep = context_sweep = None
    if sweep_cache is not None:
        query_sweep = sweep_cache.get(tuple(query_ids))
        context_sweep = sweep_cache.get(tuple(context_ids))
    if query_sweep is None or context_sweep is None:
        # Only the requested labels' rows matter: sweeping the rest of
        # the adjacency (often most of it, once inverse and excluded
        # labels are off the table) would be sorted and then never read.
        label_mask = np.zeros(max(compiled.label_count, 1), dtype=bool)
        for label in label_list:
            label_id = table.lookup(label)
            if label_id is not None:
                label_mask[label_id] = True
        if query_sweep is None:
            query_sweep = _SweepCounts(compiled, query_ids, label_mask)
        if context_sweep is None:
            context_sweep = _SweepCounts(compiled, context_ids, label_mask)

    out: dict[str, CharacteristicDistributions] = {}
    for label in label_list:
        label_id = table.lookup(label)
        inst_q, card_q = query_sweep.count_maps(label_id, names, none_bucket)
        inst_c, card_c = context_sweep.count_maps(label_id, names, none_bucket)
        out[label] = _assemble(label, inst_q, inst_c, card_q, card_c)
    return out
