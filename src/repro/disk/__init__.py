"""Persistence substrate: the memory-mapped snapshot store + bulk ingest.

The one transport for compiled graph snapshots: this package puts the
columnar :class:`~repro.graph.compiled.CompiledGraph` block layout in a
**single immutable file**, so serving cold-starts by mapping pages
instead of parsing dumps, and every worker process maps the same file:

* :func:`save_snapshot` / :func:`save_graph_snapshot` — write one graph
  version (eight snapshot arrays + name tables + optionally the frozen
  PPR transition CSR) with a versioned binary header;
* :func:`open_snapshot` / :func:`open_snapshot_view` — zero-copy
  :class:`numpy.memmap` reconstruction, wrapped in the
  :class:`~repro.parallel.shm.SnapshotGraphView` reader surface so the
  unchanged FindNC pipeline (and :class:`~repro.service.engine.NCEngine`,
  both executor backends) serves straight off disk with **no**
  :class:`~repro.graph.model.KnowledgeGraph` in the process;
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
    "SnapshotRegistry",
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
    "ingest_file",
    "ingest_triples",
    "open_snapshot",
    "open_snapshot_view",
    "save_graph_snapshot",
    "save_snapshot",
    "write_delta_run",
]
