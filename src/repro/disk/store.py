"""Single-file binary snapshot store with an mmap zero-copy reader.

One compiled graph version persists as one file::

    [ magic "RPROSNAP" | u32 format version | u32 header length
      | header JSON | padding to 8 | data region ]

The data region holds the :func:`~repro.parallel.shm.snapshot_blocks`
layout — the eight :data:`~repro.graph.compiled.ARRAY_FIELDS` arrays,
the UTF-8-packed node/label name tables, and (optionally) the frozen
PPR transition matrix's CSR triple
(:data:`~repro.parallel.shm.TRANSITION_FIELDS`) — every block 8-byte
aligned, described by the JSON header (name → offset/length/dtype,
offsets relative to the data region so the header's own length never
shifts them).

The reader (:func:`open_snapshot`) maps the file once with
:class:`numpy.memmap` and reconstructs the snapshot as read-only views —
:meth:`CompiledGraph.from_arrays <repro.graph.compiled.CompiledGraph.from_arrays>`
over the mapping, a lazy :class:`~repro.parallel.shm.SharedNameTable`
over the name blobs — so a cold start costs one ``open`` + one ``mmap``
instead of parsing a dump and recompiling: pages fault in on first
touch, and the page cache shares them across every process serving the
same file. :class:`DiskSnapshot` is the attach surface that
:class:`~repro.parallel.shm.SnapshotGraphView` (and therefore the whole
FindNC pipeline, thread and process backends alike) reads, so serving
runs straight off the file with no
:class:`~repro.graph.model.KnowledgeGraph` in memory.

Lifecycle: snapshot files are immutable once written (the writer goes
through a temp file + atomic rename, so readers never observe a torn
file). Process workers open a served file by the path in its
:class:`DiskSnapshotHeader`. Closing a :class:`DiskSnapshot` unlinks
nothing, except the tmpfs copy that
:func:`~repro.parallel.shm.freeze_graph` made and owns.
"""

from __future__ import annotations

import json
import os
import struct
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.graph.compiled import ARRAY_FIELDS, CompiledGraph
from repro.graph.labels import LabelTable
from repro.parallel.shm import (
    TRANSITION_FIELDS,
    SharedNameTable,
    SnapshotGraphView,
    _aligned,
    build_transition_csr,
    snapshot_blocks,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections.abc import Sequence

    from repro.graph.model import KnowledgeGraph

#: File magic: 8 bytes, never changes across format versions.
MAGIC = b"RPROSNAP"

#: Bump on any incompatible layout change; readers reject other versions.
FORMAT_VERSION = 1

#: magic + u32 format version + u32 header length (little-endian).
_PREAMBLE = struct.Struct("<8sII")


class SnapshotFormatError(ReproError):
    """The file is not a valid snapshot (bad magic, version, or layout)."""


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

    The data region holds the :func:`~repro.parallel.shm.snapshot_blocks`
    layout. ``node_names`` / ``label_names`` are sliced to the
    snapshot's counts; ``transition`` (optional scipy CSR) persists the
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
    :class:`~repro.parallel.shm.SnapshotGraphView` and the worker loop
    read.
    """

    #: Set only by :func:`~repro.parallel.shm.freeze_graph`, on the one
    #: reader of the tmpfs copy it wrote: the finalizer that unlinks that
    #: file, run once by :meth:`close`, by garbage collection or at
    #: interpreter exit. Every other file outlives its readers.
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
        :data:`~repro.parallel.shm.TRANSITION_FIELDS` blocks; ``None``
        for files saved without one (servers then build it once at pin).
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
    :class:`~repro.parallel.shm.SnapshotGraphView` feeds straight into
    :class:`~repro.core.findnc.FindNC` or
    :class:`~repro.service.engine.NCEngine` — no parse, no compile, no
    :class:`~repro.graph.model.KnowledgeGraph`.
    """
    return SnapshotGraphView(open_snapshot(path))
