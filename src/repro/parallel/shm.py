"""Zero-copy publication of compiled graph snapshots over shared memory.

One :class:`~repro.graph.compiled.CompiledGraph` version is exported into
a **single** named shared-memory segment laid out as::

    [ indptr | sources | label_ids | targets | label_indptr | label_order
      | label_weights | out_weight | node-name offsets | node-name blob
      | label-name offsets | label-name blob
      | transition data | indices | indptr   (optional CSR triple) ]

with every block 8-byte aligned. The optional trailing blocks carry the
frozen Equation-2 PPR transition matrix (:data:`TRANSITION_FIELDS`), so
workers adopt the publisher's matrix instead of each rebuilding
``weighted_adjacency``; the disk snapshot store (:mod:`repro.disk`)
writes the same layout (:func:`snapshot_blocks`) to a file. The layout
is described by a small picklable :class:`SharedSnapshotHeader` (segment
name, scalar metadata, per-block offsets/shapes) — the *only* thing that
crosses the process boundary per publication; requests then reference
the header and workers attach at most once per graph version.

Name tables travel as UTF-8 blobs plus ``int64`` offset arrays. Node
names are decoded lazily (:class:`SharedNameTable`) because the pipeline
only ever touches the few hundred names that appear as instance values;
edge-label names are few and decode eagerly into a
:class:`~repro.graph.labels.LabelTable`.

Lifecycle contract:

* the **publisher** owns the segment and unlinks it exactly once. The
  engine publishes through :func:`freeze_graph`, whose view owns the
  segment: closing the view (when its version drains, or when the
  engine closes) unlinks it;
* **attachers** only ever :meth:`AttachedSnapshot.close` — they must
  never unlink. Attaching deregisters the segment from this process's
  ``resource_tracker`` so a worker exiting does not tear the segment
  down under the publisher (CPython < 3.13 tracks attached segments too;
  3.13+ exposes ``track=False`` for the same effect).

POSIX keeps an unlinked segment alive until the last map closes, so a
worker holding an old version's mapping finishes its request safely even
after the publisher unlinks; only *new* attaches fail, which the pool
surfaces as :class:`StaleSnapshotError` and the engine answers by
re-dispatching against the current version.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.compiled import ARRAY_FIELDS, CompiledGraph
from repro.graph.labels import LabelTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from collections.abc import Iterable, Sequence

    from repro.graph.model import KnowledgeGraph, NodeRef


class StaleSnapshotError(RuntimeError):
    """Attaching failed because the publisher already unlinked the segment."""


def _aligned(offset: int, alignment: int = 8) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    return (offset + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class _BlockSpec:
    """One array block inside the segment: where it is and what it holds."""

    offset: int
    length: int  # element count, not bytes
    dtype: str   # numpy dtype string, e.g. "int64" / "uint8"

    @property
    def nbytes(self) -> int:
        """Block size in bytes."""
        return self.length * np.dtype(self.dtype).itemsize


#: Block names of a packed frozen transition matrix (CSR triple), in
#: canonical order. Shared by the shm segment and the disk snapshot store
#: (:mod:`repro.disk`): both publish the same three arrays so consumers
#: rebuild ``scipy.sparse.csr_matrix((data, indices, indptr))`` zero-copy.
TRANSITION_FIELDS: "tuple[str, ...]" = (
    "transition_data",
    "transition_indices",
    "transition_indptr",
)


def build_transition_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, node_count: int
):
    """Rebuild the frozen transition matrix from its shared CSR triple.

    The attach half of transition sharing: the arrays may view foreign
    memory (an shm segment or an mmapped snapshot file); scipy wraps them
    without copying. Import is local so :mod:`repro.parallel.shm` keeps
    working where scipy is absent until a transition is actually used.
    """
    from scipy import sparse

    return sparse.csr_matrix(
        (data, indices, indptr), shape=(node_count, node_count), copy=False
    )


@dataclass(frozen=True)
class SharedSnapshotHeader:
    """The picklable description of one published snapshot segment.

    Everything a worker needs to reconstruct the snapshot: the segment
    *name* (the shared-memory rendezvous), the three snapshot scalars,
    and the block table. Headers are tiny (a few hundred bytes pickled)
    and safe to ship with every request. ``transition`` is the optional
    block table of the pinned PPR transition matrix's CSR triple
    (:data:`TRANSITION_FIELDS`); when present, workers adopt the matrix
    instead of rebuilding it from the adjacency.
    """

    segment: str
    graph_name: str
    version: int
    node_count: int
    label_count: int
    arrays: "tuple[tuple[str, _BlockSpec], ...]"
    node_name_offsets: _BlockSpec
    node_name_blob: _BlockSpec
    label_name_offsets: _BlockSpec
    label_name_blob: _BlockSpec
    total_bytes: int
    transition: "tuple[tuple[str, _BlockSpec], ...] | None" = None


def _encode_names(names: "Sequence[str]") -> "tuple[np.ndarray, np.ndarray]":
    """Pack ``names`` into ``(offsets, blob)`` — int64 offsets, UTF-8 bytes."""
    encoded = [name.encode("utf-8") for name in names]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(raw) for raw in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy() if encoded else (
        np.empty(0, dtype=np.uint8)
    )
    return offsets, blob


class SharedNameTable:
    """Lazy, read-only view of a packed name table.

    Quacks like the ``list[str]`` returned by
    ``KnowledgeGraph._node_names_list()`` for the operations the pipeline
    performs (indexing, length, iteration), but decodes each name from
    the shared UTF-8 blob on first touch and memoizes it — a request
    typically reads a few hundred of the graph's hundreds of thousands
    of names, so eager decoding would dominate attach time.
    """

    __slots__ = ("_offsets", "_blob", "_cache")

    def __init__(self, offsets: np.ndarray, blob: np.ndarray) -> None:
        self._offsets = offsets
        self._blob = blob
        self._cache: dict[int, str] = {}

    def __len__(self) -> int:
        return self._offsets.shape[0] - 1

    def __getitem__(self, index: int) -> str:
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        if index < 0:
            index += len(self)
        start, end = int(self._offsets[index]), int(self._offsets[index + 1])
        name = bytes(self._blob[start:end]).decode("utf-8")
        self._cache[index] = name
        return name

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def release(self) -> None:
        """Drop the shared-buffer views (decoded strings survive)."""
        self._offsets = np.empty(1, dtype=np.int64)
        self._blob = np.empty(0, dtype=np.uint8)


class SharedSnapshot:
    """A published snapshot segment, owned by the publishing process."""

    def __init__(self, header: SharedSnapshotHeader, shm: shared_memory.SharedMemory) -> None:
        self.header = header
        self._shm: shared_memory.SharedMemory | None = shm
        self._unlinked = False

    @property
    def segment(self) -> str:
        """The shared-memory segment name (the attach rendezvous)."""
        return self.header.segment

    @property
    def version(self) -> int:
        """The graph version this segment holds."""
        return self.header.version

    @property
    def nbytes(self) -> int:
        """Total segment size in bytes."""
        return self.header.total_bytes

    def unlink(self) -> None:
        """Remove the segment name and release the publisher's mapping.

        Idempotent. Workers still holding a mapping keep reading safely
        (POSIX semantics); new attaches fail with
        :class:`StaleSnapshotError`.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        if not self._unlinked:
            self._unlinked = True
            shm.unlink()
        shm.close()

    close = unlink  # the publisher's close implies retirement

    def __enter__(self) -> "SharedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlink()


def _take(names, count: int) -> "list[str]":
    """First ``count`` names as a list; works for lists and lazy tables."""
    try:
        return list(names[:count])
    except TypeError:  # SharedNameTable indexes ints only
        return [names[index] for index in range(count)]


def snapshot_blocks(
    compiled: CompiledGraph,
    node_names: "Sequence[str]",
    label_names: "Sequence[str]",
    transition=None,
) -> "tuple[list[tuple[str, np.ndarray]], dict[str, _BlockSpec], int]":
    """The block layout both snapshot transports write.

    Returns ``(blocks, specs, data_bytes)``: the ``(name, array)`` pairs
    in layout order (the :data:`~repro.graph.compiled.ARRAY_FIELDS`
    arrays, the packed name tables, then the optional
    :data:`TRANSITION_FIELDS` triple), each block's 8-byte-aligned
    :class:`_BlockSpec`, and the end offset of the last block.
    :func:`publish_snapshot` lays them out in a shared-memory segment and
    :func:`repro.disk.store.save_snapshot` in a file's data region, so the
    two transports hold the same bytes at the same offsets.

    ``node_names`` / ``label_names`` are sliced to the snapshot's
    ``node_count`` / ``label_count``, so a name table that has grown past
    the snapshot cannot leak newer state into the published version.
    ``transition`` (optional scipy CSR) is the snapshot's frozen PPR
    transition matrix; consumers adopt it instead of rebuilding
    ``weighted_adjacency``.
    """
    if len(node_names) < compiled.node_count:
        raise ValueError(
            f"need {compiled.node_count} node names, got {len(node_names)}"
        )
    if len(label_names) < compiled.label_count:
        raise ValueError(
            f"need {compiled.label_count} label names, got {len(label_names)}"
        )
    node_offsets, node_blob = _encode_names(_take(node_names, compiled.node_count))
    label_offsets, label_blob = _encode_names(_take(label_names, compiled.label_count))

    blocks: list[tuple[str, np.ndarray]] = list(compiled.arrays().items())
    blocks += [
        ("node_name_offsets", node_offsets),
        ("node_name_blob", node_blob),
        ("label_name_offsets", label_offsets),
        ("label_name_blob", label_blob),
    ]
    if transition is not None:
        if transition.shape != (compiled.node_count, compiled.node_count):
            raise ValueError(
                f"transition matrix shape {transition.shape} does not match "
                f"the snapshot's {compiled.node_count} nodes"
            )
        blocks += [
            ("transition_data", np.asarray(transition.data)),
            ("transition_indices", np.asarray(transition.indices)),
            ("transition_indptr", np.asarray(transition.indptr)),
        ]
    specs: dict[str, _BlockSpec] = {}
    offset = 0
    for name, array in blocks:
        offset = _aligned(offset)
        specs[name] = _BlockSpec(
            offset=offset, length=int(array.shape[0]), dtype=array.dtype.name
        )
        offset += array.nbytes
    return blocks, specs, offset


def publish_snapshot(
    compiled: CompiledGraph,
    node_names: "Sequence[str]",
    label_names: "Sequence[str]",
    *,
    graph_name: str = "knowledge-graph",
    segment_prefix: str = "repro-snap",
    transition=None,
) -> SharedSnapshot:
    """Export one compiled snapshot into a fresh shared-memory segment.

    The segment holds the :func:`snapshot_blocks` layout: names sliced to
    the snapshot's counts and, when ``transition`` (the pinned PPR
    transition matrix, scipy CSR) is given, its ``(data, indices,
    indptr)`` triple, so every worker adopts ONE frozen matrix instead of
    rebuilding ``weighted_adjacency`` per worker per version.

    Returns the :class:`SharedSnapshot` handle whose
    :attr:`~SharedSnapshot.header` workers attach with; the caller owns
    the segment and must eventually :meth:`~SharedSnapshot.unlink` it.
    """
    blocks, specs, data_bytes = snapshot_blocks(
        compiled, node_names, label_names, transition
    )
    total = max(data_bytes, 1)  # zero-size segments are not allowed

    segment = f"{segment_prefix}-v{compiled.version}-{secrets.token_hex(4)}"
    # Creation takes the same lock as the attach-side register patch
    # (see _attach_segment): on Python < 3.13 an attach happening on
    # another thread no-ops resource_tracker.register for its duration,
    # and a create inside that window would silently lose its tracker
    # registration (defeating the die-without-unlink reclaim).
    with _attach_lock:
        shm = shared_memory.SharedMemory(name=segment, create=True, size=total)
    try:
        for name, array in blocks:
            spec = specs[name]
            if spec.length == 0:
                continue
            view = np.ndarray(
                (spec.length,), dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            view[:] = array
            del view  # drop the exported-buffer reference before any close()
    except BaseException:  # pragma: no cover - only on copy failure
        shm.close()
        shm.unlink()
        raise

    header = SharedSnapshotHeader(
        segment=segment,
        graph_name=graph_name,
        version=compiled.version,
        node_count=compiled.node_count,
        label_count=compiled.label_count,
        arrays=tuple((name, specs[name]) for name, _ in ARRAY_FIELDS),
        node_name_offsets=specs["node_name_offsets"],
        node_name_blob=specs["node_name_blob"],
        label_name_offsets=specs["label_name_offsets"],
        label_name_blob=specs["label_name_blob"],
        total_bytes=total,
        transition=(
            tuple((name, specs[name]) for name in TRANSITION_FIELDS)
            if transition is not None
            else None
        ),
    )
    return SharedSnapshot(header, shm)


def publish_graph(
    graph: "KnowledgeGraph", *, segment_prefix: str = "repro-snap"
) -> SharedSnapshot:
    """Publish ``graph``'s current compiled snapshot (convenience wrapper).

    The Equation-2 transition matrix is built from the snapshot here and
    packed into the segment, so attachers adopt it instead of rebuilding.
    """
    from repro.graph.matrix import transition_from_snapshot

    compiled = graph.compiled()
    return publish_snapshot(
        compiled,
        graph._node_names_list(),  # noqa: SLF001 - sliced to the snapshot inside
        [
            graph._label_table().name(label_id)  # noqa: SLF001
            for label_id in range(compiled.label_count)
        ],
        graph_name=graph.name,
        segment_prefix=segment_prefix,
        transition=transition_from_snapshot(compiled),
    )


def freeze_graph(graph: "KnowledgeGraph") -> "SnapshotGraphView":
    """A frozen, shm-backed view of ``graph``'s current version.

    Publishes the compiled snapshot with its transition matrix
    (:func:`publish_graph`) and wraps this process's own mapping of the
    segment in a :class:`SnapshotGraphView`. The view owns the segment:
    closing it unlinks the segment. Later mutations of ``graph`` do not
    reach the view, whose version stays the one frozen here.
    """
    shared = publish_graph(graph)
    return SnapshotGraphView(AttachedSnapshot(shared.header, owner=shared))


_attach_lock = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without resource-tracker ownership.

    Python < 3.13 registers attached segments with the resource tracker
    exactly as created ones, but parent and spawned workers share ONE
    tracker process whose registry is a set — an attacher's entry
    collapses into the publisher's, and any attach-side unregister (ours
    or the tracker's exit-time cleanup) would tear down the publisher's
    bookkeeping. So registration is suppressed during attach; 3.13+ has
    ``track=False`` for exactly this.
    """
    from repro.service import faults  # lazy: service imports this module

    if faults.fire("shm.attach"):
        raise StaleSnapshotError(
            f"fault injection: attach of segment {name!r} failed"
        )
    try:
        try:
            return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
        except TypeError:
            with _attach_lock:
                original = resource_tracker.register
                resource_tracker.register = lambda *args, **kwargs: None
                try:
                    return shared_memory.SharedMemory(name=name)
                finally:
                    resource_tracker.register = original
    except FileNotFoundError as error:
        raise StaleSnapshotError(
            f"shared snapshot segment {name!r} is gone (publisher unlinked it)"
        ) from error


class AttachedSnapshot:
    """A read-only reconstruction of a published snapshot.

    Workers attach a segment someone else published (``owner`` is
    ``None``; :meth:`close` releases only this process's mapping).
    :func:`freeze_graph` passes the publisher's own handle as ``owner``:
    the attachment then reads through the publisher's mapping and
    :meth:`close` unlinks the segment too.
    """

    def __init__(
        self, header: SharedSnapshotHeader, *, owner: "SharedSnapshot | None" = None
    ) -> None:
        self.header = header
        self._owner = owner
        self._shm: shared_memory.SharedMemory | None = (
            owner._shm if owner is not None else _attach_segment(header.segment)
        )
        arrays = {
            name: self._view(spec) for name, spec in header.arrays
        }
        #: The reconstructed snapshot; arrays view the shared segment.
        self.compiled = CompiledGraph.from_arrays(
            version=header.version,
            node_count=header.node_count,
            label_count=header.label_count,
            arrays=arrays,
        )
        #: Lazy node-name table (phi of Definition 1).
        self.node_names = SharedNameTable(
            self._view(header.node_name_offsets), self._view(header.node_name_blob)
        )
        # Label vocabularies are small; decode them eagerly into a real
        # LabelTable so lookup()/name() behave exactly like the live graph.
        label_names = SharedNameTable(
            self._view(header.label_name_offsets), self._view(header.label_name_blob)
        )
        self.label_table = LabelTable()
        for label in label_names:
            self.label_table.intern(label)
        label_names.release()
        self._transition = None

    def transition(self):
        """The published frozen PPR transition matrix, or ``None``.

        Rebuilt (and memoized) as a scipy CSR over zero-copy views of the
        segment's :data:`TRANSITION_FIELDS` blocks. ``None`` when the
        publisher did not share one (workers then rebuild it from the
        snapshot arrays).
        """
        if self._transition is not None:
            return self._transition
        if self.header.transition is None:
            return None
        views = {name: self._view(spec) for name, spec in self.header.transition}
        self._transition = build_transition_csr(
            views["transition_data"],
            views["transition_indices"],
            views["transition_indptr"],
            self.header.node_count,
        )
        return self._transition

    def _view(self, spec: _BlockSpec) -> np.ndarray:
        assert self._shm is not None
        view = np.ndarray(
            (spec.length,), dtype=spec.dtype, buffer=self._shm.buf, offset=spec.offset
        )
        view.setflags(write=False)
        return view

    def close(self) -> None:
        """Release this process's mapping; an owned segment is unlinked.

        Drops every numpy view first, so callers must not use
        :attr:`compiled` or :attr:`node_names` afterwards: the mapping
        they view is gone.
        """
        if self._shm is None:
            return
        self.compiled = None  # type: ignore[assignment]
        self._transition = None
        self.node_names.release()
        self.node_names = None  # type: ignore[assignment]
        shm, self._shm = self._shm, None
        if self._owner is not None:
            self._owner.unlink()  # unlinks the name, closes the one mapping
        else:
            shm.close()

    def __enter__(self) -> "AttachedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def attach_snapshot(header: SharedSnapshotHeader) -> AttachedSnapshot:
    """Attach to a published snapshot; raises :class:`StaleSnapshotError`
    when the publisher has already unlinked the segment."""
    return AttachedSnapshot(header)


class SnapshotGraphView:
    """The reader surface of :class:`~repro.graph.model.KnowledgeGraph`,
    backed entirely by an attached shared snapshot.

    Inside a worker process the ``FindNC`` pipeline needs a "graph", but
    only its *reader* API: id/name resolution, the label table, the
    compiled snapshot (for the weighted-adjacency / transition-matrix
    build and the batch distribution sweep). This adapter provides
    exactly that set; every mutating or live-adjacency method is absent
    by construction, so a worker cannot accidentally depend on state
    that was never shared.

    The view's :meth:`compiled` / ``_compiled()`` return the attached
    snapshot, which makes
    :class:`~repro.walk.pagerank.PersonalizedPageRank` and
    :func:`~repro.core.distributions.build_all_distributions` run
    unmodified on shared memory.

    ``attached`` is anything exposing the attach surface — an shm
    :class:`AttachedSnapshot` or a :class:`repro.disk.DiskSnapshot`
    (mmap-backed); the view itself never touches the transport.
    """

    #: Marker consumed by :class:`~repro.service.engine.NCEngine`: a
    #: frozen view's ``version`` never advances, so the engine serves it
    #: as is; any other graph is frozen first (:func:`freeze_graph`).
    frozen = True

    def __init__(self, attached) -> None:
        self._attached = attached
        self.name = attached.header.graph_name
        self._name_index: "dict[str, int] | None" = None

    # -- identity ----------------------------------------------------------

    @property
    def version(self) -> int:
        """The pinned snapshot version (never advances: views are frozen)."""
        return self._attached.header.version

    @property
    def node_count(self) -> int:
        """|V| of the pinned version."""
        return self._attached.header.node_count

    @property
    def edge_count(self) -> int:
        """|E| of the pinned version."""
        return self._attached.compiled.edge_count

    # -- node resolution ---------------------------------------------------

    def has_node(self, ref: "NodeRef") -> bool:
        """Whether ``ref`` (id or exact name) exists in the pinned version."""
        if isinstance(ref, str):
            try:
                self.node_id(ref)
                return True
            except NodeNotFoundError:
                return False
        return isinstance(ref, int) and 0 <= ref < self.node_count

    def node_id(self, ref: "NodeRef") -> int:
        """Resolve an id (range-checked) or exact name.

        Workers receive queries already resolved to ids by the engine, so
        their string path stays cold. Snapshot-file *serving*
        (``repro serve --snapshot``) resolves names in this process, which
        makes the string path hot — the first string lookup builds a full
        ``{name: id}`` index (one decode pass over the name blob, the
        same cost the live graph pays at construction) and every later
        lookup is a dict hit.
        """
        if isinstance(ref, str):
            index = self._name_index
            if index is None:
                index = {
                    name: node_id
                    for node_id, name in enumerate(self._attached.node_names)
                }
                self._name_index = index
            node_id = index.get(ref)
            if node_id is None:
                raise NodeNotFoundError(ref)
            return node_id
        if not isinstance(ref, int) or isinstance(ref, bool):
            raise TypeError(
                f"node reference must be int or str, got {type(ref).__name__}"
            )
        if not 0 <= ref < self.node_count:
            raise NodeNotFoundError(ref)
        return ref

    def node_ids(self, refs: "Iterable[NodeRef]") -> list[int]:
        """Resolve many references at once (mirrors the live graph)."""
        return [self.node_id(ref) for ref in refs]

    def node_name(self, node_id: int) -> str:
        """phi(v), decoded lazily from the shared name blob."""
        if not 0 <= node_id < self.node_count:
            raise NodeNotFoundError(node_id)
        return self._attached.node_names[node_id]

    def nodes(self) -> range:
        """All node ids of the pinned version (dense, so a range).

        Mirrors :meth:`KnowledgeGraph.nodes` — the entity index iterates
        this to build its normalized-name map when a frozen view is
        served directly.
        """
        return range(self.node_count)

    def node_names(self):
        """Iterate phi over all nodes (decoded lazily)."""
        return iter(self._attached.node_names)

    # -- snapshot access (the internal fast-path surface) ------------------

    def compiled(self) -> CompiledGraph:
        """The attached snapshot (already pinned — identical on every call)."""
        return self._attached.compiled

    def _compiled(self) -> CompiledGraph:
        return self._attached.compiled

    def _label_table(self) -> LabelTable:
        return self._attached.label_table

    def _node_names_list(self) -> SharedNameTable:
        return self._attached.node_names

    def summary(self) -> str:
        """One-line |V|/|E| digest, like the live graph's."""
        return (
            f"{self.name}@v{self.version} (shared view): "
            f"|V|={self.node_count}, |E|={self.edge_count}"
        )

    def close(self) -> None:
        """Release the underlying attachment (segment mapping or mmap).

        The view must not be used afterwards — same contract as closing
        the attachment directly. Convenience for serving callers that own
        the view's whole lifecycle (the benchmark, short-lived scripts).
        """
        self._attached.close()
