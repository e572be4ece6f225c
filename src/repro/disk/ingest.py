"""Streaming bulk ingest: dump → CSR snapshot, no dict graph in between.

The legacy cold start materializes a :class:`~repro.graph.model.KnowledgeGraph`
— per-node dicts of Python sets — just to throw it away after
:func:`~repro.graph.compiled.compile_graph` runs. On public-KB-scale
dumps (tens of millions of triples) that dict graph dominates both
memory and boot time. This module compiles a triple stream **directly**
into the eight :data:`~repro.graph.compiled.ARRAY_FIELDS` arrays:

* **pass 1 — the edge stream**: each parsed triple is interned on the
  fly (subject, object, then forward/inverse label — the exact
  first-mention order :meth:`KnowledgeGraph.add_edge` uses, so ids come
  out identical to the dict-graph build) and appended to three compact
  ``int64`` id buffers. Per-edge state is 24 bytes, not a dict entry in
  a set in a list.
* **pass 2 — the id buffers**: one ``lexsort`` puts edges in the
  snapshot's canonical ``(source, label, target)`` order, a vectorized
  neighbour-compare drops duplicate statements (triples are idempotent,
  Definition 1), and ``bincount``/``cumsum`` produce the CSR index
  arrays, label-major slices and Equation-1 weights — the same counting
  :func:`compile_graph` does per-node in Python, done once over flat
  arrays.

The output is **byte-identical** to
:func:`~repro.graph.builder.graph_from_triples` over the same stream
followed by ``graph.compiled()`` on every array — for a dump file, to
:func:`~repro.graph.io.load_graph` (``tests/test_disk_ingest.py`` and
``tests/test_graph_io.py`` pin this) — which is what lets
:func:`repro.datasets.loader.to_snapshot` and ``repro compile`` feed the
same serving stack as a live graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.disk.store import _take, save_snapshot
from repro.graph.compiled import CompiledGraph
from repro.graph.labels import LabelTable, inverse_label

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    import os
    from collections.abc import Iterable, Sequence

#: str(subject), str(label), str(object) — the shape the parsers yield
#: after term stringification (identical to load_graph's input).
TripleNames = "tuple[str, str, str]"


@dataclass(frozen=True)
class IngestStats:
    """What one bulk ingest produced (and how much input it chewed)."""

    nodes: int
    edges: int
    labels: int
    #: Statements read from the stream (before closure and dedup).
    triples: int
    #: Duplicate edges dropped by the canonicalization pass.
    duplicates: int
    #: Snapshot file size, when the compile was written to disk.
    bytes_written: int = 0
    #: Edges deleted by a delta merge (always 0 for a bulk ingest).
    removed: int = 0


def _compile_canonical(
    sources: np.ndarray,
    label_ids: np.ndarray,
    targets: np.ndarray,
    n: int,
    label_count: int,
    *,
    version: int,
) -> CompiledGraph:
    """CSR index arrays + Equation-1 weights from canonical edge columns.

    ``sources`` / ``label_ids`` / ``targets`` must already be in the
    snapshot's canonical ``(source, label, target)`` order with
    duplicates dropped. Both the bulk compile (:meth:`StreamingCompiler.
    finalize`) and the incremental merge (:meth:`StreamingCompiler.
    merge_delta`) funnel through here, which is what makes "same edge
    set in, same bytes out" a structural guarantee rather than a test
    hope.
    """
    edge_total = int(sources.shape[0])

    indptr = np.zeros(n + 1, dtype=np.int64)
    if edge_total:
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])

    label_order = np.argsort(label_ids, kind="stable").astype(np.int64, copy=False)
    label_counts = (
        np.bincount(label_ids, minlength=label_count)
        if edge_total
        else np.zeros(label_count, dtype=np.int64)
    )
    label_indptr = np.zeros(label_count + 1, dtype=np.int64)
    np.cumsum(label_counts, out=label_indptr[1:])

    label_weights = np.zeros(label_count, dtype=np.float64)
    if edge_total:
        live = label_counts > 0
        label_weights[live] = 1.0 - label_counts[live] / edge_total
    out_weight = (
        np.bincount(sources, weights=label_weights[label_ids], minlength=n)
        if edge_total
        else np.zeros(n, dtype=np.float64)
    )

    arrays = {
        "indptr": indptr,
        "sources": sources,
        "label_ids": label_ids,
        "targets": targets,
        "label_indptr": label_indptr,
        "label_order": label_order,
        "label_weights": label_weights,
        "out_weight": out_weight,
    }
    return CompiledGraph.from_arrays(
        version=version,
        node_count=n,
        label_count=label_count,
        arrays=arrays,
    )


class StreamingCompiler:
    """Accumulates a triple stream and compiles it straight to CSR.

    Feed string triples with :meth:`add`, then call :meth:`finalize`
    once. ``node_names`` / ``label_names`` optionally pre-intern the
    vocabulary in a caller-fixed id order — how
    :func:`~repro.datasets.loader.to_snapshot` reproduces an existing
    graph's ids exactly; without them, ids follow first mention in the
    stream (matching the dict-graph build from the same stream).
    """

    def __init__(
        self,
        *,
        add_inverse: bool = True,
        node_names: "Sequence[str] | None" = None,
        label_names: "Sequence[str] | None" = None,
    ) -> None:
        self._add_inverse = add_inverse
        self._names: list[str] = []
        self._name_to_id: dict[str, int] = {}
        self._labels = LabelTable()
        # Compact per-edge buffers: 8 bytes per column per edge.
        self._src = array("q")
        self._lab = array("q")
        self._dst = array("q")
        self._triples = 0
        if node_names is not None:
            for name in node_names:
                self._intern_node(name)
        if label_names is not None:
            for label in label_names:
                self._labels.intern(label)

    def _intern_node(self, name: str) -> int:
        existing = self._name_to_id.get(name)
        if existing is not None:
            return existing
        if not isinstance(name, str) or not name:
            raise ValueError(f"node name must be a non-empty string, got {name!r}")
        node_id = len(self._names)
        self._names.append(name)
        self._name_to_id[name] = node_id
        return node_id

    def add(self, subject: str, label: str, obj: str) -> None:
        """Ingest one statement (plus its inverse-closure edge by default)."""
        src = self._intern_node(subject)
        dst = self._intern_node(obj)
        label_id = self._labels.intern(label)
        self._src.append(src)
        self._lab.append(label_id)
        self._dst.append(dst)
        if self._add_inverse:
            inverse_id = self._labels.intern(inverse_label(label))
            self._src.append(dst)
            self._lab.append(inverse_id)
            self._dst.append(src)
        self._triples += 1

    def extend(self, triples: "Iterable[tuple[str, str, str]]") -> None:
        """Ingest many statements (the streaming entry point)."""
        for subject, label, obj in triples:
            self.add(subject, label, obj)

    def finalize(
        self, *, version: int = 0
    ) -> "tuple[CompiledGraph, list[str], LabelTable, IngestStats]":
        """Sort, dedupe, and count the id buffers into a snapshot.

        Returns ``(compiled, node_names, label_table, stats)``. The
        arrays are constructed exactly as
        :func:`~repro.graph.compiled.compile_graph` constructs them from
        a dict graph — same ordering, same dtypes, same weight formulas
        — so the two paths are byte-interchangeable.
        """
        src = np.frombuffer(self._src, dtype=np.int64) if self._src else (
            np.empty(0, dtype=np.int64)
        )
        lab = np.frombuffer(self._lab, dtype=np.int64) if self._lab else (
            np.empty(0, dtype=np.int64)
        )
        dst = np.frombuffer(self._dst, dtype=np.int64) if self._dst else (
            np.empty(0, dtype=np.int64)
        )
        n = len(self._names)
        label_count = len(self._labels)

        # Canonical order: (source, label, target) — the node-major row
        # order of compile_graph (labels ascending per node, targets
        # ascending per label).
        order = np.lexsort((dst, lab, src))
        sources = src[order]
        label_ids = lab[order]
        targets = dst[order]
        if sources.shape[0]:
            # Duplicate statements collapse (idempotent triples): a row
            # equal to its predecessor in all three columns is dropped.
            keep = np.empty(sources.shape[0], dtype=bool)
            keep[0] = True
            keep[1:] = (
                (sources[1:] != sources[:-1])
                | (label_ids[1:] != label_ids[:-1])
                | (targets[1:] != targets[:-1])
            )
            sources = np.ascontiguousarray(sources[keep])
            label_ids = np.ascontiguousarray(label_ids[keep])
            targets = np.ascontiguousarray(targets[keep])
        edge_total = int(sources.shape[0])
        duplicates = int(src.shape[0]) - edge_total

        compiled = _compile_canonical(
            sources, label_ids, targets, n, label_count, version=version
        )
        stats = IngestStats(
            nodes=n,
            edges=edge_total,
            labels=label_count,
            triples=self._triples,
            duplicates=duplicates,
        )
        return compiled, self._names, self._labels, stats

    @classmethod
    def merge_delta(
        cls,
        compiled: CompiledGraph,
        node_names: "Sequence[str]",
        label_names: "Iterable[str]",
        adds: "Sequence[tuple[str, str, str]]",
        removes: "Sequence[tuple[str, str, str]]",
        *,
        add_inverse: bool = True,
        version: int = 0,
    ) -> "tuple[CompiledGraph, list[str], LabelTable, IngestStats]":
        """Fold one delta batch into an existing snapshot's arrays.

        The incremental write path: instead of re-running the whole
        triple stream, the existing canonical edge columns are merged
        with the batch's add/remove edges in one lexsort over
        ``E + adds + removes`` rows. The existing vocabulary is copied
        verbatim (ids never move, nothing is re-interned); ``adds``
        intern any *new* names in statement order with the exact
        first-mention sequence :meth:`add` uses, so the result is
        byte-identical to a full recompile of the final statement set
        with the chain's accumulated vocabulary pre-interned
        (``tests/test_delta_parity.py`` pins this differentially).

        ``adds`` / ``removes`` must be a canonical batch
        (:func:`repro.disk.delta.canonicalize_ops`): disjoint under
        inversion closure, deduplicated, sorted. Removes are
        lookup-only — a remove naming an unknown node or label is a
        no-op, and removal always targets both orientations of the
        statement (matching how ``add_inverse`` compiled them in).

        Returns ``(compiled, node_names, label_table, stats)`` exactly
        like :meth:`finalize`; ``stats.removed`` counts the edge rows
        deleted, ``stats.duplicates`` the added rows that already
        existed.
        """
        names = _take(node_names, compiled.node_count)
        name_to_id = {name: index for index, name in enumerate(names)}
        labels = LabelTable()
        for label in label_names:
            if len(labels) == compiled.label_count:
                break
            labels.intern(label)
        if len(labels) != compiled.label_count:
            raise ValueError(
                f"need {compiled.label_count} label names, got {len(labels)}"
            )

        def intern_node(name: str) -> int:
            existing = name_to_id.get(name)
            if existing is not None:
                return existing
            if not isinstance(name, str) or not name:
                raise ValueError(
                    f"node name must be a non-empty string, got {name!r}"
                )
            node_id = len(names)
            names.append(name)
            name_to_id[name] = node_id
            return node_id

        # Added edges: intern in the exact add() order (subject, object,
        # forward label, inverse label), both directions when the base
        # was compiled with inverse closure.
        add_src = array("q")
        add_lab = array("q")
        add_dst = array("q")
        for subject, label, obj in adds:
            src = intern_node(subject)
            dst = intern_node(obj)
            label_id = labels.intern(label)
            add_src.append(src)
            add_lab.append(label_id)
            add_dst.append(dst)
            if add_inverse:
                inverse_id = labels.intern(inverse_label(label))
                add_src.append(dst)
                add_lab.append(inverse_id)
                add_dst.append(src)

        # Removed edges: lookups only — removes never grow the
        # vocabulary, and each orientation is resolved independently.
        rem_src = array("q")
        rem_lab = array("q")
        rem_dst = array("q")
        for subject, label, obj in removes:
            oriented = [(subject, label, obj)]
            if add_inverse:
                oriented.append((obj, inverse_label(label), subject))
            for edge_subject, edge_label, edge_object in oriented:
                src = name_to_id.get(edge_subject)
                dst = name_to_id.get(edge_object)
                label_id = labels.lookup(edge_label)
                if src is None or dst is None or label_id is None:
                    continue
                rem_src.append(src)
                rem_lab.append(label_id)
                rem_dst.append(dst)

        base = compiled.arrays()
        base_edges = int(base["sources"].shape[0])
        added_rows = len(add_src)
        removed_rows = len(rem_src)

        def column(base_column: np.ndarray, add_buf, rem_buf) -> np.ndarray:
            parts = [np.asarray(base_column, dtype=np.int64)]
            parts.append(
                np.frombuffer(add_buf, dtype=np.int64)
                if add_buf
                else np.empty(0, dtype=np.int64)
            )
            parts.append(
                np.frombuffer(rem_buf, dtype=np.int64)
                if rem_buf
                else np.empty(0, dtype=np.int64)
            )
            return np.concatenate(parts)

        all_src = column(base["sources"], add_src, rem_src)
        all_lab = column(base["label_ids"], add_lab, rem_lab)
        all_dst = column(base["targets"], add_dst, rem_dst)
        flag = np.zeros(all_src.shape[0], dtype=np.int64)
        flag[base_edges + added_rows :] = 1

        n = len(names)
        label_count = len(labels)
        deleted = 0
        if all_src.shape[0]:
            # One lexsort groups equal (source, label, target) rows with
            # remove markers (flag 1) sorted after keep candidates
            # (flag 0). A group containing a marker is deleted wholesale;
            # surviving groups collapse to their first row — the same
            # neighbour-compare dedup finalize() applies.
            order = np.lexsort((flag, all_dst, all_lab, all_src))
            row_src = all_src[order]
            row_lab = all_lab[order]
            row_dst = all_dst[order]
            row_flag = flag[order]
            total = row_src.shape[0]
            new_group = np.empty(total, dtype=bool)
            new_group[0] = True
            new_group[1:] = (
                (row_src[1:] != row_src[:-1])
                | (row_lab[1:] != row_lab[:-1])
                | (row_dst[1:] != row_dst[:-1])
            )
            group_id = np.cumsum(new_group) - 1
            last_of_group = np.empty(total, dtype=bool)
            last_of_group[:-1] = new_group[1:]
            last_of_group[-1] = True
            # Within a group flags are sorted, so the last row carries
            # the group's "has a remove marker" bit.
            group_removed = row_flag[last_of_group] == 1
            keep = new_group & (row_flag == 0) & ~group_removed[group_id]
            deleted = int(
                np.count_nonzero((row_flag == 0) & group_removed[group_id])
            )
            sources = np.ascontiguousarray(row_src[keep])
            label_ids = np.ascontiguousarray(row_lab[keep])
            targets = np.ascontiguousarray(row_dst[keep])
        else:
            sources = np.empty(0, dtype=np.int64)
            label_ids = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)

        edge_total = int(sources.shape[0])
        duplicates = base_edges + added_rows - edge_total - deleted
        merged = _compile_canonical(
            sources, label_ids, targets, n, label_count, version=version
        )
        stats = IngestStats(
            nodes=n,
            edges=edge_total,
            labels=label_count,
            triples=len(adds) + len(removes),
            duplicates=duplicates,
            removed=deleted,
        )
        return merged, names, labels, stats


def merge_snapshot_file(
    base_path: "str | os.PathLike[str]",
    batches: "Iterable[tuple[Sequence[tuple[str, str, str]], Sequence[tuple[str, str, str]]]]",
    out_path: "str | os.PathLike[str]",
    *,
    version: int,
    graph_name: "str | None" = None,
    add_inverse: bool = True,
    include_transition: bool = True,
) -> IngestStats:
    """Apply delta batches to a snapshot file, writing a fresh snapshot.

    Opens ``base_path``, folds each ``(adds, removes)`` batch in
    sequence via :meth:`StreamingCompiler.merge_delta`, and persists the
    result (with a rebuilt frozen transition by default, like the bulk
    path). The registry's merge and compaction jobs both funnel through
    here — an incrementally merged snapshot *is* a full snapshot, the
    chain bookkeeping lives purely in the manifest.
    """
    from repro.disk.store import open_snapshot

    snapshot = open_snapshot(base_path)
    try:
        compiled = snapshot.compiled
        names: "Sequence[str]" = snapshot.node_names
        labels: "Iterable[str]" = snapshot.label_table
        stats = None
        triples = duplicates = removed = 0
        for adds, removes in batches:
            compiled, names, labels, stats = StreamingCompiler.merge_delta(
                compiled,
                names,
                labels,
                adds,
                removes,
                add_inverse=add_inverse,
                version=version,
            )
            triples += stats.triples
            duplicates += stats.duplicates
            removed += stats.removed
        if stats is None:
            # No batches: re-stamp the base as-is under the new version.
            compiled, names, labels, stats = StreamingCompiler.merge_delta(
                compiled, names, labels, (), (), add_inverse=add_inverse,
                version=version,
            )
        transition = None
        if include_transition:
            from repro.graph.matrix import transition_from_snapshot

            transition = transition_from_snapshot(compiled)
        written = save_snapshot(
            compiled,
            list(names),
            [labels.name(label_id) for label_id in range(len(labels))],
            out_path,
            graph_name=graph_name or snapshot.header.graph_name,
            transition=transition,
        )
    finally:
        snapshot.close()
    # Counters aggregate across batches; sizes come from the final merge.
    return IngestStats(
        nodes=stats.nodes,
        edges=stats.edges,
        labels=stats.labels,
        triples=triples,
        duplicates=duplicates,
        bytes_written=written,
        removed=removed,
    )


def compile_triples(
    triples: "Iterable[tuple[str, str, str]]",
    *,
    add_inverse: bool = True,
    node_names: "Sequence[str] | None" = None,
    label_names: "Sequence[str] | None" = None,
    version: int = 0,
) -> "tuple[CompiledGraph, list[str], LabelTable, IngestStats]":
    """Compile a string-triple stream to a snapshot in one call."""
    compiler = StreamingCompiler(
        add_inverse=add_inverse, node_names=node_names, label_names=label_names
    )
    compiler.extend(triples)
    return compiler.finalize(version=version)


def ingest_triples(
    triples: "Iterable[tuple[str, str, str]]",
    path: "str | os.PathLike[str]",
    *,
    graph_name: str = "knowledge-graph",
    add_inverse: bool = True,
    include_transition: bool = True,
    node_names: "Sequence[str] | None" = None,
    label_names: "Sequence[str] | None" = None,
    version: int = 0,
) -> IngestStats:
    """Compile a triple stream and persist it as a snapshot file.

    With ``include_transition`` (default) the frozen Equation-2
    transition matrix is derived from the fresh arrays and baked into
    the file, so the first ``repro serve --snapshot`` pays no warm-up.
    """
    compiled, names, labels, stats = compile_triples(
        triples,
        add_inverse=add_inverse,
        node_names=node_names,
        label_names=label_names,
        version=version,
    )
    transition = None
    if include_transition:
        from repro.graph.matrix import transition_from_snapshot

        transition = transition_from_snapshot(compiled)
    written = save_snapshot(
        compiled,
        names,
        [labels.name(label_id) for label_id in range(len(labels))],
        path,
        graph_name=graph_name,
        transition=transition,
    )
    return IngestStats(
        nodes=stats.nodes,
        edges=stats.edges,
        labels=stats.labels,
        triples=stats.triples,
        duplicates=stats.duplicates,
        bytes_written=written,
    )


def detect_format(path: "str | os.PathLike[str]") -> str:
    """``"nt"`` or ``"tsv"`` from the dump's file extension."""
    import os as _os

    suffix = _os.path.splitext(_os.fspath(path))[1].lower()
    if suffix in (".nt", ".ntriples", ".n3"):
        return "nt"
    if suffix in (".tsv", ".txt"):
        return "tsv"
    raise ValueError(
        f"cannot infer dump format from {path!r} (expected .nt/.ntriples or "
        f".tsv); pass format explicitly"
    )


def ingest_file(
    dump_path: "str | os.PathLike[str]",
    snapshot_path: "str | os.PathLike[str]",
    *,
    fmt: str = "auto",
    graph_name: "str | None" = None,
    add_inverse: bool = True,
    include_transition: bool = True,
    version: int = 0,
) -> IngestStats:
    """Stream an N-Triples or YAGO-TSV dump into a snapshot file.

    The whole ``repro compile`` path: parse each line, stringify terms
    exactly as :func:`~repro.graph.io.load_graph` does, feed the
    :class:`StreamingCompiler` — never building the dict graph.
    ``fmt`` is ``"nt"``, ``"tsv"``, or ``"auto"`` (by extension).
    ``version`` is stamped into the snapshot header — the registry
    (:mod:`repro.disk.registry`) passes its monotonic id here so hot
    swaps key result caches correctly.
    """
    import os as _os

    if fmt == "auto":
        fmt = detect_format(dump_path)
    if fmt == "nt":
        from repro.store.ntriples import load_ntriples_file

        parsed = load_ntriples_file(_os.fspath(dump_path))
    elif fmt == "tsv":
        from repro.store.tsv import load_tsv_file

        parsed = load_tsv_file(_os.fspath(dump_path))
    else:
        raise ValueError(f"unknown dump format {fmt!r} (expected nt/tsv/auto)")
    return ingest_triples(
        (
            (str(triple.subject), str(triple.predicate), str(triple.object))
            for triple in parsed
        ),
        snapshot_path,
        graph_name=graph_name or _os.fspath(dump_path),
        add_inverse=add_inverse,
        include_transition=include_transition,
        version=version,
    )
