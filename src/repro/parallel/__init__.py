"""Multiprocess execution substrate: shared-memory graph snapshots.

The GIL caps thread-based serving of *distinct* queries at roughly one
core's worth of work; scaling with cores means processes, and processes
mean a serialization boundary. This package keeps that boundary cheap:
the compiled columnar snapshot (:class:`~repro.graph.compiled.CompiledGraph`)
is already a handful of flat numpy arrays, so one graph version is
published **once** into a named :mod:`multiprocessing.shared_memory`
segment (:func:`publish_snapshot`) and every worker process attaches a
zero-copy, read-only view (:func:`attach_snapshot`) — no per-request
pickling of the graph, no per-worker copy of the adjacency.

:class:`SnapshotGraphView` wraps an attached snapshot in the reader
surface of :class:`~repro.graph.model.KnowledgeGraph`, which is what lets
the unchanged ``FindNC`` pipeline run inside a worker against shared
memory; :func:`freeze_graph` publishes a live graph and returns such a
view over it, which is how the query engine serves a graph. The worker pool that drives this lives in
:mod:`repro.service.workers`; the segment lifecycle contract is
documented in ``docs/ARCHITECTURE.md``.
"""

from repro.parallel.shm import (
    SharedSnapshot,
    SharedSnapshotHeader,
    SnapshotGraphView,
    SnapshotPublication,
    attach_snapshot,
    freeze_graph,
    publish_snapshot,
)

__all__ = [
    "SharedSnapshot",
    "SharedSnapshotHeader",
    "SnapshotGraphView",
    "SnapshotPublication",
    "attach_snapshot",
    "freeze_graph",
    "publish_snapshot",
]
