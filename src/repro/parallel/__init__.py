"""Frozen graph snapshots for the multiprocess execution substrate.

The GIL caps thread-based serving of *distinct* queries at roughly one
core's worth of work; scaling with cores means processes, and processes
mean a serialization boundary. This package keeps that boundary cheap:
the compiled columnar snapshot (:class:`~repro.graph.compiled.CompiledGraph`)
is already a handful of flat numpy arrays, so one graph version is
written **once** as a snapshot file and every worker process mmaps a
zero-copy, read-only view of it — no per-request pickling of the graph,
no per-worker copy of the adjacency.

:class:`SnapshotGraphView` wraps an opened snapshot in the reader
surface of :class:`~repro.graph.model.KnowledgeGraph`, which is what lets
the unchanged ``FindNC`` pipeline run inside a worker against the
mapping; :func:`freeze_graph` writes a live graph to a tmpfs snapshot
file and returns such a view over it, which is how the query engine
serves a graph. The worker pool that drives this lives in
:mod:`repro.service.workers`; the snapshot lifecycle contract is
documented in ``docs/ARCHITECTURE.md``.
"""

from repro.parallel.shm import SnapshotGraphView, freeze_graph

__all__ = ["SnapshotGraphView", "freeze_graph"]
