"""Frozen graph snapshots: the block layout and the graph reader view.

One :class:`~repro.graph.compiled.CompiledGraph` version is laid out as
one sequence of blocks (:func:`snapshot_blocks`)::

    [ indptr | sources | label_ids | targets | label_indptr | label_order
      | label_weights | out_weight | node-name offsets | node-name blob
      | label-name offsets | label-name blob
      | transition data | indices | indptr   (optional CSR triple) ]

with every block 8-byte aligned. The optional trailing blocks carry the
frozen Equation-2 PPR transition matrix (:data:`TRANSITION_FIELDS`), so
readers adopt the writer's matrix instead of each rebuilding
``weighted_adjacency``. The snapshot store (:mod:`repro.disk.store`)
writes this layout into a file's data region, and every reader maps that
file: a process worker opens it by the path in its
:class:`~repro.disk.store.DiskSnapshotHeader`, at most once per graph
version.

Name tables travel as UTF-8 blobs plus ``int64`` offset arrays. Node
names are decoded lazily (:class:`SharedNameTable`) because the pipeline
only ever touches the few hundred names that appear as instance values;
edge-label names are few and decode eagerly into a
:class:`~repro.graph.labels.LabelTable`.

:class:`SnapshotGraphView` wraps an opened snapshot in the reader
surface of :class:`~repro.graph.model.KnowledgeGraph`.
:func:`freeze_graph` turns a live graph into such a view: it writes the
graph's current version to a fresh snapshot file on tmpfs and returns
the view over it, which owns the file and unlinks it on close.

Lifecycle contract: a snapshot file is immutable. Closing a view opened
from a file (:func:`~repro.disk.store.open_snapshot_view`, a registry)
releases this process's reference only; closing a :func:`freeze_graph`
view also unlinks its file. A mapping outlives the unlink, so a worker
still holding an old version finishes its request safely; only *new*
opens fail, which the pool surfaces as :class:`StaleSnapshotError` and
the engine answers by re-dispatching against the current version.
"""

from __future__ import annotations

import contextlib
import glob
import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.compiled import CompiledGraph
from repro.graph.labels import LabelTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from collections.abc import Iterable, Sequence

    from repro.graph.model import KnowledgeGraph, NodeRef


class StaleSnapshotError(RuntimeError):
    """Opening failed because the snapshot file was already unlinked."""


def _aligned(offset: int, alignment: int = 8) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    return (offset + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class _BlockSpec:
    """One array block of the layout: where it is and what it holds."""

    offset: int
    length: int  # element count, not bytes
    dtype: str   # numpy dtype string, e.g. "int64" / "uint8"


#: Block names of a packed frozen transition matrix (CSR triple), in
#: canonical order. Readers of a snapshot file rebuild
#: ``scipy.sparse.csr_matrix((data, indices, indptr))`` from them zero-copy.
TRANSITION_FIELDS: "tuple[str, ...]" = (
    "transition_data",
    "transition_indices",
    "transition_indptr",
)


def build_transition_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, node_count: int
):
    """Rebuild the frozen transition matrix from its shared CSR triple.

    The attach half of transition sharing: the arrays view an mmapped
    snapshot file; scipy wraps them without copying. Import is local so
    :mod:`repro.parallel.shm` keeps working where scipy is absent until a
    transition is actually used.
    """
    from scipy import sparse

    return sparse.csr_matrix(
        (data, indices, indptr), shape=(node_count, node_count), copy=False
    )


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
    """The block layout of a snapshot file's data region.

    Returns ``(blocks, specs, data_bytes)``: the ``(name, array)`` pairs
    in layout order (the :data:`~repro.graph.compiled.ARRAY_FIELDS`
    arrays, the packed name tables, then the optional
    :data:`TRANSITION_FIELDS` triple), each block's 8-byte-aligned
    :class:`_BlockSpec`, and the end offset of the last block.
    :func:`repro.disk.store.save_snapshot` writes them at those offsets.

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


#: Where :func:`freeze_graph` writes its files: tmpfs, so a frozen copy
#: costs memory pages, never disk I/O.
_FREEZE_DIR = "/dev/shm"


def freeze_graph(graph: "KnowledgeGraph") -> "SnapshotGraphView":
    """A frozen, file-backed view of ``graph``'s current version.

    Writes the compiled snapshot with its transition matrix
    (:func:`~repro.disk.store.save_graph_snapshot`) to a fresh
    ``repro-snap-v{version}-{pid}-{token}.snap`` file in ``/dev/shm``, or
    in :func:`tempfile.gettempdir` where ``/dev/shm`` does not exist, and
    returns :func:`~repro.disk.store.open_snapshot_view` over it. The view
    owns the file: closing it unlinks the file, and so does garbage
    collection or interpreter exit if the view was never closed. A process
    killed with ``SIGKILL`` leaves its file behind; the next freeze in that
    directory unlinks it, since its writer's pid no longer exists. Later
    mutations of ``graph`` do not reach the view, whose version stays the
    one frozen here.
    """
    from repro.disk.store import open_snapshot_view, save_graph_snapshot

    directory = _FREEZE_DIR if os.path.isdir(_FREEZE_DIR) else tempfile.gettempdir()
    _remove_orphans(directory)
    handle, path = tempfile.mkstemp(
        prefix=f"repro-snap-v{graph.version}-{os.getpid()}-",
        suffix=".snap",
        dir=directory,
    )
    os.close(handle)
    try:
        save_graph_snapshot(graph, path)
        view = open_snapshot_view(path)
    except BaseException:
        os.unlink(path)
        raise
    attached = view._attached  # noqa: SLF001 - only a freeze owns its file
    attached._unlink_file = weakref.finalize(attached, _remove_file, path)
    return view


def _remove_orphans(directory: str) -> None:
    """Unlink the frozen files in ``directory`` whose writer is gone."""
    for path in glob.glob(os.path.join(directory, "repro-snap-v*-*-*.snap")):
        pid = os.path.basename(path).split("-")[3]
        if pid.isdigit() and not _pid_exists(int(pid)):
            with contextlib.suppress(OSError):  # raced, or another user's
                os.unlink(path)


def _pid_exists(pid: int) -> bool:
    """Whether a process ``pid`` exists on this host."""
    if os.name != "posix":  # no signal-0 probe: keep every file
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def _remove_file(path: str) -> None:
    """Unlink ``path`` unless it is already gone."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


class SnapshotGraphView:
    """The reader surface of :class:`~repro.graph.model.KnowledgeGraph`,
    backed entirely by an opened snapshot file.

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
    unmodified on the mapped file.

    ``attached`` is a :class:`repro.disk.DiskSnapshot` (mmap-backed);
    the view itself never touches the file.
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
        """Release the underlying snapshot (its mmap; a frozen copy's file).

        The view must not be used afterwards. Arrays taken from it before
        the close stay readable: the mapping lives as long as they do.
        """
        self._attached.close()
