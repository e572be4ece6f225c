"""Persistence substrate: the ``RPROSNAP`` snapshot format + bulk ingest.

The one data path for compiled graph snapshots: this package puts the
columnar :class:`~repro.graph.compiled.CompiledGraph` block layout in a
**single immutable file**, so serving cold-starts by mapping pages
instead of parsing dumps, and every worker process maps the same file.
:mod:`repro.disk.store` owns the whole format — preamble, header, block
layout, writer, mmap reader, graph view and freeze:

* :func:`save_snapshot` / :func:`save_graph_snapshot` — write one graph
  version (eight snapshot arrays + name tables + optionally the frozen
  PPR transition CSR) with a versioned binary header;
* :func:`open_snapshot` / :func:`open_snapshot_view` — zero-copy
  :class:`numpy.memmap` reconstruction, wrapped in the
  :class:`SnapshotGraphView` reader surface so the unchanged FindNC
  pipeline (and :class:`~repro.service.engine.NCEngine`, both executor
  backends) serves straight off disk with **no**
  :class:`~repro.graph.model.KnowledgeGraph` in the process;
* :func:`freeze_graph` — a live graph's current version written to a
  tmpfs snapshot file and opened as a view that owns (and on close
  unlinks) the file; a new open of an unlinked file raises
  :class:`StaleSnapshotError`;
* :func:`ingest_file` / :func:`ingest_triples` — the streaming bulk
  ingester behind ``repro compile``: N-Triples/TSV dumps compile
  directly into CSR arrays through two counting passes, never
  materializing the dict graph;
* :class:`SnapshotRegistry` (PR 5) — a *directory* of versioned
  snapshot files with monotonic ids, an atomic manifest, and
  retention GC: the publish side of multi-version hot-swap serving
  (``repro publish`` / ``repro serve --snapshot-dir`` /
  ``POST /admin/reload``);
* :func:`inspect_snapshot` — the stored-header audit behind
  ``repro inspect``;
* :class:`DeltaLog` / :func:`merge_snapshot_file` (PR 10) — the live
  write path: statement-level add/remove batches persist as immutable
  delta runs against a chain base, fold incrementally into fresh
  snapshots byte-identical to a full recompile, and compact back into
  self-standing versions (``repro ingest`` / ``repro compact`` /
  ``POST /v1/admin/ingest``).

File-format details and the cold-start lifecycle live in
``docs/ARCHITECTURE.md``; the operator guide is ``docs/OPERATIONS.md``.
"""

from repro.disk.delta import (
    DeltaFormatError,
    DeltaLog,
    DeltaLogError,
    DeltaRun,
    canonicalize_ops,
    inspect_delta_run,
    parse_delta_lines,
    read_delta_run,
    write_delta_run,
)
from repro.disk.ingest import (
    IngestStats,
    StreamingCompiler,
    compile_triples,
    detect_format,
    ingest_file,
    ingest_triples,
    merge_snapshot_file,
)
from repro.disk.registry import (
    RegistryEntry,
    RegistryError,
    SnapshotRegistry,
    is_snapshot_file,
)
from repro.disk.store import (
    DiskSnapshot,
    DiskSnapshotHeader,
    SnapshotFormatError,
    SnapshotGraphView,
    StaleSnapshotError,
    freeze_graph,
    inspect_snapshot,
    open_snapshot,
    open_snapshot_view,
    save_graph_snapshot,
    save_snapshot,
)

__all__ = [
    "DeltaFormatError",
    "DeltaLog",
    "DeltaLogError",
    "DeltaRun",
    "DiskSnapshot",
    "DiskSnapshotHeader",
    "IngestStats",
    "RegistryEntry",
    "RegistryError",
    "SnapshotFormatError",
    "SnapshotGraphView",
    "SnapshotRegistry",
    "StaleSnapshotError",
    "canonicalize_ops",
    "inspect_delta_run",
    "inspect_snapshot",
    "is_snapshot_file",
    "merge_snapshot_file",
    "parse_delta_lines",
    "read_delta_run",
    "StreamingCompiler",
    "compile_triples",
    "detect_format",
    "freeze_graph",
    "ingest_file",
    "ingest_triples",
    "open_snapshot",
    "open_snapshot_view",
    "save_graph_snapshot",
    "save_snapshot",
    "write_delta_run",
]
