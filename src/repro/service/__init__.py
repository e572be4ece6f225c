"""Concurrent NC query service: engine, result cache, HTTP front-end.

The step from algorithm to system: :class:`NCEngine` serves many
concurrent FindNC requests over one live :class:`~repro.graph.model.KnowledgeGraph`
by pinning immutable compiled snapshots per request, caching results in a
version-keyed LRU, and coalescing identical in-flight queries. Two
execution backends share that front: ``executor="thread"`` computes on
the engine's thread pool; ``executor="process"`` dispatches to a
:class:`~repro.service.workers.ProcessWorkerPool` over the mmapped
snapshot file (:mod:`repro.disk.store`), scaling distinct-query throughput with
cores. The stdlib HTTP server (:mod:`repro.service.server`) exposes it
as a JSON API (``repro serve``). Snapshot-backed engines additionally hot-swap
between registry versions while serving
(:meth:`NCEngine.swap_snapshot`, ``POST /v1/admin/reload``,
``repro serve --snapshot-dir``). The HTTP surface lives under the
versioned ``/v1/`` prefix; :mod:`repro.service.metrics` exports every
layer's counters/histograms in Prometheus text format at
``GET /v1/metrics``. The service's load benchmark is ``perfbench/run.py``
at the repository root, which also checks every answer it gets. See
``src/repro/service/README.md``, ``docs/ARCHITECTURE.md``, and the
operator guide ``docs/OPERATIONS.md``.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.engine import (
    CircuitBreaker,
    EngineConfig,
    EngineStats,
    NCEngine,
    SearchOutcome,
    SwapOutcome,
)
from repro.service.faults import FaultInjector, FaultRule
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
    validate_exposition,
)
from repro.service.workers import ProcessWorkerPool, WorkerPoolStats

#: Names served from :mod:`repro.service.server` on first use (PEP 562).
#: Every spawned worker imports this package, and the HTTP server module
#: would bring ``http.server`` and ``ssl`` into processes that never
#: serve HTTP.
_SERVER_NAMES = frozenset({
    "NCServiceServer",
    "RegistryPoller",
    "create_server",
    "outcome_to_json",
    "reload_from_registry",
})

__all__ = [
    "CacheStats",
    "CircuitBreaker",
    "Counter",
    "EngineConfig",
    "EngineStats",
    "FaultInjector",
    "FaultRule",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NCEngine",
    "NCServiceServer",
    "ProcessWorkerPool",
    "RegistryPoller",
    "ResultCache",
    "SearchOutcome",
    "ServiceMetrics",
    "SwapOutcome",
    "WorkerPoolStats",
    "create_server",
    "outcome_to_json",
    "reload_from_registry",
    "validate_exposition",
]


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from repro.service import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | _SERVER_NAMES)
