"""The ``RPROSNAP`` snapshot format: layout, writer, mmap reader, view, freeze.

One compiled graph version persists as one file::

    [ magic "RPROSNAP" | u32 format version | u32 header length
      | header JSON | padding to 8 | data region ]

The data region is one sequence of blocks (:func:`snapshot_blocks`)::

    [ indptr | sources | label_ids | targets | label_indptr | label_order
      | label_weights | out_weight | node-name offsets | node-name blob
      | label-name offsets | label-name blob
      | transition data | indices | indptr   (optional CSR triple) ]

every block 8-byte aligned and described by the JSON header (name →
offset/length/dtype, offsets relative to the data region so the
header's own length never shifts them). The optional trailing blocks
carry the frozen Equation-2 PPR transition matrix
(:data:`TRANSITION_FIELDS`), so readers adopt the writer's matrix
instead of each rebuilding ``weighted_adjacency``. Name tables travel
as UTF-8 blobs plus ``int64`` offset arrays. Node names are decoded
lazily (:class:`SharedNameTable`) because the pipeline only ever
touches the few hundred names that appear as instance values;
edge-label names are few and decode eagerly into a
:class:`~repro.graph.labels.LabelTable`.

The reader (:func:`open_snapshot`) maps the file once with
:class:`numpy.memmap` and reconstructs the snapshot as read-only views —
:meth:`CompiledGraph.from_arrays <repro.graph.compiled.CompiledGraph.from_arrays>`
over the mapping, a lazy :class:`SharedNameTable` over the name blobs —
so a cold start costs one ``open`` + one ``mmap`` instead of parsing a
dump and recompiling: pages fault in on first touch, and the page cache
shares them across every process serving the same file.
:class:`SnapshotGraphView` wraps an opened :class:`DiskSnapshot` in the
reader surface of :class:`~repro.graph.model.KnowledgeGraph`, so the
whole FindNC pipeline (thread and process backends alike) runs straight
off the file with no dict graph in memory. :func:`freeze_graph` turns a
live graph into such a view: it writes the graph's current version to a
fresh snapshot file on tmpfs and returns the view over it, which owns
the file and unlinks it on close.

Lifecycle contract: a snapshot file is immutable once written (the
writer goes through a temp file + atomic rename, so readers never
observe a torn file). Process workers open a served file by the path in
its :class:`DiskSnapshotHeader`, at most once per graph version.
Closing a view opened from a file (:func:`open_snapshot_view`, a
registry) releases this process's reference only; closing a
:func:`freeze_graph` view also unlinks its file. A mapping outlives the
unlink, so a worker still holding an old version finishes its request
safely; only *new* opens fail, which the pool surfaces as
:class:`StaleSnapshotError` and the engine answers by re-dispatching
against the current version.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NodeNotFoundError, ReproError
from repro.graph.compiled import ARRAY_FIELDS, CompiledGraph
from repro.graph.labels import LabelTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections.abc import Iterable, Sequence

    from repro.graph.model import KnowledgeGraph, NodeRef

#: File magic: 8 bytes, never changes across format versions.
MAGIC = b"RPROSNAP"

#: Bump on any incompatible layout change; readers reject other versions.
FORMAT_VERSION = 1

#: magic + u32 format version + u32 header length (little-endian).
_PREAMBLE = struct.Struct("<8sII")


class SnapshotFormatError(ReproError):
    """The file is not a valid snapshot (bad magic, version, or layout)."""


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
    this module keeps working where scipy is absent until a transition is
    actually used.
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
    :func:`save_snapshot` writes them at those offsets.

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


def _read_header(path: str) -> "tuple[int, dict]":
    """Check ``path``'s preamble and parse its JSON header.

    Returns ``(header_length, meta)``. Raises :class:`SnapshotFormatError`
    on a file too short for the preamble, bad magic, another format
    version, or an undecodable header.
    """
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise SnapshotFormatError(f"{path}: file too short for a snapshot")
        magic, format_version, header_length = _PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path}: not a snapshot file (bad magic)")
        if format_version != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"{path}: unsupported snapshot format version {format_version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            meta = json.loads(handle.read(header_length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotFormatError(f"{path}: corrupt snapshot header") from error
    return header_length, meta


@dataclass(frozen=True)
class DiskSnapshotHeader:
    """The picklable identity of one snapshot file.

    Everything a worker process needs to reattach: the *path* (the block
    table lives in the file itself and is re-read on open) and the scalar
    metadata. Shipped with every process-backend task.
    """

    path: str
    graph_name: str
    version: int
    node_count: int
    label_count: int


def save_snapshot(
    compiled: CompiledGraph,
    node_names: "Sequence[str]",
    label_names: "Sequence[str]",
    path: "str | os.PathLike[str]",
    *,
    graph_name: str = "knowledge-graph",
    transition=None,
) -> int:
    """Write one compiled snapshot (plus name tables) to ``path``.

    The data region holds the :func:`snapshot_blocks` layout.
    ``node_names`` / ``label_names`` are sliced to the snapshot's counts; ``transition`` (optional scipy CSR) persists the
    frozen PPR transition so a cold-started server adopts it instead of
    rebuilding ``weighted_adjacency``.

    Writes via a temp file + atomic rename (readers never see a torn
    file). Returns the total bytes written.
    """
    blocks, specs, data_bytes = snapshot_blocks(
        compiled, node_names, label_names, transition
    )
    block_table = [
        (name, {"offset": spec.offset, "length": spec.length, "dtype": spec.dtype})
        for name, spec in specs.items()
    ]

    header_json = json.dumps(
        {
            "graph_name": graph_name,
            "version": compiled.version,
            "node_count": compiled.node_count,
            "label_count": compiled.label_count,
            "blocks": block_table,
            "data_bytes": data_bytes,
        },
        sort_keys=True,
    ).encode("utf-8")
    data_start = _aligned(_PREAMBLE.size + len(header_json))
    total = data_start + data_bytes

    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_json)))
            handle.write(header_json)
            for name, array in blocks:
                if array.nbytes == 0:
                    continue
                handle.seek(data_start + specs[name].offset)
                handle.write(memoryview(np.ascontiguousarray(array)))
            handle.truncate(total)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):  # pragma: no cover - only on write failure
            os.unlink(tmp_path)
        raise
    return total


def save_graph_snapshot(
    graph: "KnowledgeGraph",
    path: "str | os.PathLike[str]",
    *,
    include_transition: bool = True,
) -> int:
    """Persist ``graph``'s current compiled snapshot (convenience wrapper).

    With ``include_transition`` (default) the Equation-2 transition
    matrix is built once here and baked into the file, trading a little
    compile time for zero-build serving warm-up.
    """
    from repro.graph.matrix import transition_from_snapshot

    compiled = graph.compiled()
    table = graph._label_table()  # noqa: SLF001 - label ids only grow
    return save_snapshot(
        compiled,
        graph._node_names_list(),  # noqa: SLF001 - sliced to the snapshot inside
        [table.name(label_id) for label_id in range(compiled.label_count)],
        path,
        graph_name=graph.name,
        transition=transition_from_snapshot(compiled) if include_transition else None,
    )


class DiskSnapshot:
    """A memory-mapped, read-only reconstruction of a snapshot file.

    The attach surface (``header`` / ``compiled`` / ``node_names`` /
    ``label_table`` / ``transition()`` / ``close()``) that
    :class:`SnapshotGraphView` and the worker loop read.
    """

    #: Set only by :func:`freeze_graph`, on the one reader of the tmpfs
    #: copy it wrote: the finalizer that unlinks that file, run once by
    #: :meth:`close`, by garbage collection or at interpreter exit. Every
    #: other file outlives its readers.
    _unlink_file: "weakref.finalize | None" = None

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        path = os.path.abspath(os.fspath(path))
        header_length, meta = _read_header(path)
        data_start = _aligned(_PREAMBLE.size + header_length)
        expected = data_start + meta["data_bytes"]
        actual = os.path.getsize(path)
        if actual < expected:
            raise SnapshotFormatError(
                f"{path}: truncated snapshot ({actual} bytes, header declares "
                f"{expected})"
            )

        self.header = DiskSnapshotHeader(
            path=path,
            graph_name=meta["graph_name"],
            version=meta["version"],
            node_count=meta["node_count"],
            label_count=meta["label_count"],
        )
        self._specs = {name: spec for name, spec in meta["blocks"]}
        self._data_start = data_start
        # One mapping for the whole file; every block is a zero-copy view
        # into it. mode="r" makes the views read-only at the OS level.
        self._mm: "np.memmap | None" = np.memmap(path, dtype=np.uint8, mode="r")

        missing = [name for name, _ in ARRAY_FIELDS if name not in self._specs]
        if missing:
            raise SnapshotFormatError(f"{path}: snapshot is missing blocks {missing}")
        #: The reconstructed snapshot; arrays view the file mapping.
        self.compiled = CompiledGraph.from_arrays(
            version=self.header.version,
            node_count=self.header.node_count,
            label_count=self.header.label_count,
            arrays={name: self._view(name) for name, _ in ARRAY_FIELDS},
        )
        #: Lazy node-name table (phi of Definition 1).
        self.node_names = SharedNameTable(
            self._view("node_name_offsets"), self._view("node_name_blob")
        )
        # Label vocabularies are small; decode them eagerly into a real
        # LabelTable so lookup()/name() behave exactly like the live graph.
        label_names = SharedNameTable(
            self._view("label_name_offsets"), self._view("label_name_blob")
        )
        self.label_table = LabelTable()
        for label in label_names:
            self.label_table.intern(label)
        label_names.release()
        self._transition = None

    def _view(self, name: str) -> np.ndarray:
        spec = self._specs[name]
        assert self._mm is not None
        start = self._data_start + spec["offset"]
        nbytes = spec["length"] * np.dtype(spec["dtype"]).itemsize
        view = self._mm[start : start + nbytes].view(spec["dtype"])
        if view.shape[0] != spec["length"]:  # pragma: no cover - header/size drift
            raise SnapshotFormatError(
                f"{self.header.path}: block {name!r} extends past end of file"
            )
        return view

    def transition(self):
        """The persisted frozen PPR transition matrix, or ``None``.

        Rebuilt (and memoized) as a scipy CSR over views of the mapping's
        :data:`TRANSITION_FIELDS` blocks; ``None`` for files saved
        without one (servers then build it once at pin).
        """
        if self._transition is not None:
            return self._transition
        if any(name not in self._specs for name in TRANSITION_FIELDS):
            return None
        self._transition = build_transition_csr(
            self._view("transition_data"),
            self._view("transition_indices"),
            self._view("transition_indptr"),
            self.header.node_count,
        )
        return self._transition

    def close(self) -> None:
        """Drop this reader's views and mapping; unlink an owned file.

        Callers must not touch :attr:`compiled` / :attr:`node_names`
        afterwards. Arrays they took earlier stay valid: each holds the
        mapping open, which also outlives the unlink of an owned file.
        """
        if self._mm is None:
            return
        self.compiled = None  # type: ignore[assignment]
        self._transition = None
        self.node_names.release()
        self.node_names = None  # type: ignore[assignment]
        self._mm = None
        if self._unlink_file is not None:
            self._unlink_file()

    def __enter__(self) -> "DiskSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_snapshot(path: "str | os.PathLike[str]") -> DiskSnapshot:
    """Map a snapshot file written by :func:`save_snapshot` (zero-copy)."""
    from repro.service import faults  # lazy: avoids a service<->disk cycle

    if faults.fire("snapshot.vanish"):
        raise FileNotFoundError(
            f"fault injection: snapshot file {os.fspath(path)!r} vanished"
        )
    return DiskSnapshot(path)


def inspect_snapshot(path: "str | os.PathLike[str]") -> dict:
    """The stored header of a snapshot file, as one JSON-ready dict.

    The audit surface behind ``repro inspect``: format version, graph
    identity (name / version / node / edge / label counts), name-table
    sizes, whether the frozen PPR transition CSR is baked in, and the
    per-block layout — everything an operator needs to check what a
    registry actually holds, read without faulting in the data region
    (one ``open`` + the header bytes; blocks are only *described*).
    """
    path = os.path.abspath(os.fspath(path))
    _, meta = _read_header(path)
    specs = dict(meta["blocks"])

    def _block_bytes(name: str) -> int:
        spec = specs[name]
        return spec["length"] * np.dtype(spec["dtype"]).itemsize

    return {
        "path": path,
        "format_version": FORMAT_VERSION,
        "graph_name": meta["graph_name"],
        "version": meta["version"],
        "nodes": meta["node_count"],
        "edges": specs["targets"]["length"],
        "labels": meta["label_count"],
        "file_bytes": os.path.getsize(path),
        "data_bytes": meta["data_bytes"],
        "node_name_table_bytes": (
            _block_bytes("node_name_offsets") + _block_bytes("node_name_blob")
        ),
        "label_name_table_bytes": (
            _block_bytes("label_name_offsets") + _block_bytes("label_name_blob")
        ),
        "has_transition": all(name in specs for name in TRANSITION_FIELDS),
        "blocks": [
            {
                "name": name,
                "offset": spec["offset"],
                "length": spec["length"],
                "dtype": spec["dtype"],
            }
            for name, spec in meta["blocks"]
        ],
    }


def open_snapshot_view(path: "str | os.PathLike[str]") -> SnapshotGraphView:
    """Open ``path`` and wrap it in the graph reader surface.

    The one-call cold start: the returned
    :class:`SnapshotGraphView` feeds straight into
    :class:`~repro.core.findnc.FindNC` or
    :class:`~repro.service.engine.NCEngine` — no parse, no compile, no
    :class:`~repro.graph.model.KnowledgeGraph`.
    """
    return SnapshotGraphView(open_snapshot(path))


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

    ``attached`` is a :class:`DiskSnapshot` (mmap-backed);
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


#: Where :func:`freeze_graph` writes its files: tmpfs, so a frozen copy
#: costs memory pages, never disk I/O.
_FREEZE_DIR = "/dev/shm"


def freeze_graph(graph: "KnowledgeGraph") -> "SnapshotGraphView":
    """A frozen, file-backed view of ``graph``'s current version.

    Writes the compiled snapshot with its transition matrix
    (:func:`save_graph_snapshot`) to a fresh
    ``repro-snap-v{version}-{pid}-{token}.snap`` file in ``/dev/shm``, or
    in :func:`tempfile.gettempdir` where ``/dev/shm`` does not exist, and
    returns :func:`open_snapshot_view` over it. The view owns the file:
    closing it unlinks the file, and so does garbage collection or
    interpreter exit if the view was never closed. A process killed with
    ``SIGKILL`` leaves its file behind; the next freeze in that directory
    unlinks it, since its writer's pid no longer exists. Later mutations
    of ``graph`` do not reach the view, whose version stays the one
    frozen here.
    """
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
    attached = view._attached
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
