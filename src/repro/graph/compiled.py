"""Compiled columnar graph snapshot — the batched-access substrate.

:class:`KnowledgeGraph` stores its adjacency as per-node dicts of Python
sets, which is the right shape for incremental mutation but the wrong
shape for the hot paths (distribution sweeps, PageRank, weighted-matrix
construction): every scan pays per-edge interpreter costs, repeated label
lookups and per-target name decoding.

:class:`CompiledGraph` is a frozen CSR-style encoding of the same
adjacency as flat numpy arrays:

* ``indptr`` / ``label_ids`` / ``targets`` — node-major edge rows: node
  ``v``'s out-edges occupy rows ``indptr[v]:indptr[v+1]``, grouped by
  label id (ascending) and sorted by target within a label, so the
  snapshot is deterministic for a given graph state.
* ``sources`` — the parallel source column, making the three arrays a
  ready-to-use COO triple for :func:`scipy.sparse.coo_matrix`.
* ``label_indptr`` / ``label_order`` — label-major edge slices: the rows
  of label ``l`` are ``label_order[label_indptr[l]:label_indptr[l+1]]``.
* ``label_weights`` / ``out_weight`` — Equation 1's informativeness
  weights per label id and their per-node out-edge sums (the random-walk
  normalizers), precomputed once instead of on every PageRank call.

Snapshots are immutable; the graph caches one per mutation
:attr:`~repro.graph.model.KnowledgeGraph.version` (see
:func:`compile_graph`), so any mutation transparently invalidates every
consumer. Callers must not write to the arrays.

**Pinning.** The public accessor
:meth:`repro.graph.model.KnowledgeGraph.compiled` returns the current
snapshot so callers can *pin* it: a pinned snapshot stays valid (and
immutable) while writers keep mutating the graph, which is what lets the
query service (:mod:`repro.service`) answer requests lock-free against a
live graph. Internal hot paths still go through the ``_compiled()``
alias. A pinned snapshot never covers nodes added after it was taken —
consumers that accept one (:meth:`repro.core.findnc.FindNC.run`) check
membership with :meth:`CompiledGraph.covers` and reject stale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model imports us lazily)
    from repro.graph.model import KnowledgeGraph


#: The snapshot's flat array fields in canonical order, with their dtypes.
#: This is the serialization contract of the snapshot layer: the
#: snapshot file layout (:func:`repro.disk.store.snapshot_blocks`) lays
#: the arrays out in exactly this order, and :meth:`CompiledGraph.from_arrays`
#: reconstructs a snapshot from any buffers that honour it.
ARRAY_FIELDS: "tuple[tuple[str, np.dtype], ...]" = (
    ("indptr", np.dtype(np.int64)),
    ("sources", np.dtype(np.int64)),
    ("label_ids", np.dtype(np.int64)),
    ("targets", np.dtype(np.int64)),
    ("label_indptr", np.dtype(np.int64)),
    ("label_order", np.dtype(np.int64)),
    ("label_weights", np.dtype(np.float64)),
    ("out_weight", np.dtype(np.float64)),
)


@dataclass(frozen=True)
class CompiledGraph:
    """Immutable CSR-style snapshot of one :class:`KnowledgeGraph` version."""

    version: int
    node_count: int
    label_count: int
    #: ``(n + 1,)`` int64 — node ``v``'s edge rows are ``indptr[v]:indptr[v+1]``.
    indptr: np.ndarray
    #: ``(E,)`` int64 — source node id of each edge row.
    sources: np.ndarray
    #: ``(E,)`` int64 — label id of each edge row.
    label_ids: np.ndarray
    #: ``(E,)`` int64 — target node id of each edge row.
    targets: np.ndarray
    #: ``(L + 1,)`` int64 — label ``l``'s rows are ``label_order[label_indptr[l]:...]``.
    label_indptr: np.ndarray
    #: ``(E,)`` int64 — permutation of edge rows grouped by label id.
    label_order: np.ndarray
    #: ``(L,)`` float64 — Equation 1 weights ``1 - |E_l|/|E|`` (0 for dead labels).
    label_weights: np.ndarray
    #: ``(n,)`` float64 — per-node sum of out-edge label weights (walk normalizers).
    out_weight: np.ndarray

    @property
    def edge_count(self) -> int:
        """|E| of the snapshot (edge rows, inverse edges included)."""
        return int(self.targets.shape[0])

    def arrays(self) -> "dict[str, np.ndarray]":
        """The flat array fields, in :data:`ARRAY_FIELDS` order.

        The export side of the serialization boundary: everything a
        process needs to rebuild this snapshot besides the three scalar
        fields (``version``, ``node_count``, ``label_count``). Arrays are
        returned as-is (read-only views, zero-copy).
        """
        return {name: getattr(self, name) for name, _ in ARRAY_FIELDS}

    @classmethod
    def from_arrays(
        cls,
        *,
        version: int,
        node_count: int,
        label_count: int,
        arrays: "dict[str, np.ndarray]",
    ) -> "CompiledGraph":
        """Rebuild a snapshot from externally supplied array buffers.

        The attach side of the serialization boundary: ``arrays`` must
        hold every :data:`ARRAY_FIELDS` entry with the right dtype and a
        consistent shape (``indptr`` of length ``node_count + 1``,
        ``label_indptr`` of length ``label_count + 1``, the four edge
        columns all equally long). The buffers may view foreign memory —
        e.g. an mmapped snapshot file — and are marked read-only in
        place, preserving zero-copy attachment.
        """
        views: dict[str, np.ndarray] = {}
        edge_total: int | None = None
        for name, dtype in ARRAY_FIELDS:
            if name not in arrays:
                raise ValueError(f"missing snapshot array {name!r}")
            array = arrays[name]
            if array.dtype != dtype:
                raise ValueError(
                    f"snapshot array {name!r} must have dtype {dtype}, "
                    f"got {array.dtype}"
                )
            if array.ndim != 1:
                raise ValueError(f"snapshot array {name!r} must be 1-D")
            array.setflags(write=False)
            views[name] = array
        expected = {
            "indptr": node_count + 1,
            "label_indptr": label_count + 1,
            "label_weights": label_count,
            "out_weight": node_count,
        }
        for name, length in expected.items():
            if views[name].shape[0] != length:
                raise ValueError(
                    f"snapshot array {name!r} has length {views[name].shape[0]}, "
                    f"expected {length}"
                )
        edge_total = views["targets"].shape[0]
        for name in ("sources", "label_ids", "label_order"):
            if views[name].shape[0] != edge_total:
                raise ValueError(
                    f"snapshot array {name!r} has length {views[name].shape[0]}, "
                    f"expected the edge count {edge_total}"
                )
        return cls(
            version=version,
            node_count=node_count,
            label_count=label_count,
            **views,
        )

    def node_slice(self, node: int) -> slice:
        """The edge-row slice of ``node`` into the node-major arrays."""
        return slice(int(self.indptr[node]), int(self.indptr[node + 1]))

    def out_degrees(self) -> np.ndarray:
        """``(n,)`` int64 — total out-degree per node."""
        return np.diff(self.indptr)

    def edges_for_label(self, label_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of every edge carrying ``label_id``."""
        if not 0 <= label_id < self.label_count:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        rows = self.label_order[
            self.label_indptr[label_id] : self.label_indptr[label_id + 1]
        ]
        return self.sources[rows], self.targets[rows]

    def covers(self, nodes: "np.ndarray | list[int] | tuple[int, ...]") -> bool:
        """Whether every id in ``nodes`` existed when this snapshot was taken.

        Nodes added to the graph after compilation have ids beyond
        ``node_count``; pinned-snapshot consumers use this to reject
        queries that reference them instead of indexing out of bounds.
        """
        arr = np.asarray(nodes, dtype=np.int64)
        if arr.size == 0:
            return True
        return bool(arr.min() >= 0 and arr.max() < self.node_count)

    def incident_label_ids(self, nodes: "np.ndarray | list[int] | tuple[int, ...]") -> np.ndarray:
        """Sorted unique label ids on out-edges of ``nodes`` (``L | nodes``).

        The snapshot-side equivalent of
        :meth:`repro.graph.model.KnowledgeGraph.incident_labels`, used by
        pinned-snapshot candidate enumeration (Definition 3).
        """
        rows, _ = self.gather_rows(np.asarray(list(nodes), dtype=np.int64))
        return np.unique(self.label_ids[rows])

    def gather_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge rows of ``nodes`` (with multiplicity), plus their owner index.

        Returns ``(rows, owners)`` where ``rows`` indexes the edge arrays
        and ``owners[i]`` is the position in ``nodes`` that row ``i``
        belongs to. One vectorized gather instead of a per-node Python
        loop — the primitive under the single-sweep distribution builder.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Row i of the output is starts[owner] + (i - first output row of owner).
        ends = np.cumsum(lengths)
        local = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
        rows = np.repeat(starts, lengths) + local
        owners = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), lengths)
        return rows, owners


def compile_graph(graph: "KnowledgeGraph") -> CompiledGraph:
    """Compile ``graph``'s adjacency into a :class:`CompiledGraph`.

    One O(E log deg) pass; callers normally go through the version-keyed
    cache ``graph._compiled()`` instead of calling this directly.
    """
    adjacency = graph._out_adjacency()  # noqa: SLF001 - internal fast path
    n = graph.node_count
    label_count = len(graph._label_table())  # noqa: SLF001 - internal fast path
    edge_total = graph.edge_count

    indptr = np.zeros(n + 1, dtype=np.int64)
    label_ids = np.empty(edge_total, dtype=np.int64)
    targets = np.empty(edge_total, dtype=np.int64)
    pos = 0
    for node in range(n):
        for label_id, node_targets in sorted(adjacency[node].items()):
            end = pos + len(node_targets)
            label_ids[pos:end] = label_id
            targets[pos:end] = sorted(node_targets)
            pos = end
        indptr[node + 1] = pos
    if pos != edge_total:  # pragma: no cover - would mean a corrupted graph
        raise RuntimeError(
            f"graph reports {edge_total} edges but adjacency holds {pos}"
        )
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

    # Label-major view: a stable argsort keeps (source, target) order inside
    # each label group, matching the node-major ordering.
    label_order = np.argsort(label_ids, kind="stable").astype(np.int64, copy=False)
    label_counts = np.bincount(label_ids, minlength=label_count) if edge_total else (
        np.zeros(label_count, dtype=np.int64)
    )
    label_indptr = np.zeros(label_count + 1, dtype=np.int64)
    np.cumsum(label_counts, out=label_indptr[1:])

    # Equation 1 weights (identical formula to GraphStatistics.label_weights).
    label_weights = np.zeros(label_count, dtype=np.float64)
    if edge_total:
        live = label_counts > 0
        label_weights[live] = 1.0 - label_counts[live] / edge_total
    out_weight = (
        np.bincount(sources, weights=label_weights[label_ids], minlength=n)
        if edge_total
        else np.zeros(n, dtype=np.float64)
    )

    snapshot = CompiledGraph(
        version=graph.version,
        node_count=n,
        label_count=label_count,
        indptr=indptr,
        sources=sources,
        label_ids=label_ids,
        targets=targets,
        label_indptr=label_indptr,
        label_order=label_order,
        label_weights=label_weights,
        out_weight=out_weight,
    )
    for array in (
        indptr,
        sources,
        label_ids,
        targets,
        label_indptr,
        label_order,
        label_weights,
        out_weight,
    ):
        array.setflags(write=False)
    return snapshot
