"""`NCEngine` — a thread-safe FindNC query engine over frozen graph versions.

The engine turns the library pipeline into a servable primitive:

* **One frozen substrate.** The engine serves a frozen snapshot view:
  ``repro.disk.open_snapshot_view`` over an mmapped snapshot file, a
  :class:`~repro.disk.registry.SnapshotRegistry` view, or — when handed a
  :class:`KnowledgeGraph` — a shared-memory copy of the graph's current
  version that the engine freezes once, at construction
  (:func:`~repro.parallel.shm.freeze_graph`), and unlinks when it closes.
  Later mutations of that graph never reach the engine.
* **Snapshot pinning.** Every request pins the served version's compiled
  snapshot together with a frozen PageRank selector (the stored
  transition matrix, adopted) and a shared entity index. Requests then
  run lock-free against immutable state.
* **Version-keyed result cache.** Results are cached under
  ``(version, frozenset(query_ids), context_size, alpha,
  discriminator_params)`` in a :class:`~repro.service.cache.ResultCache`
  LRU — a hot swap makes old entries unreachable instantly and purges
  them.
* **Request executor with single-flight coalescing.** Queries run on a
  bounded :class:`~concurrent.futures.ThreadPoolExecutor`; concurrent
  identical requests share one in-flight computation instead of
  recomputing a hot query N times.
* **Pluggable execution backend.** With ``executor="thread"`` (default)
  computations run on the executor threads — cached and coalesced
  traffic is served at memory speed, but *distinct* queries scale at
  ~1x per core because the pipeline's Python-level work holds the GIL.
  With ``executor="process"`` the thread pool only *dispatches*: the
  computations execute on a
  :class:`~repro.service.workers.ProcessWorkerPool` whose workers attach
  the pinned view's own transport — the shm segment, or the snapshot
  file by path — and adopt its frozen PPR transition CSR instead of
  rebuilding it, so distinct-query throughput scales with cores. The
  cache, coalescing, name resolution and the HTTP server stay in the
  parent either way.
* **Multi-version hot swap.** The engine re-pins onto a newly published
  snapshot *while serving*: :meth:`NCEngine.swap_snapshot` atomically
  adopts the new version (new requests pin it immediately, the
  version-keyed cache invalidates by unreachability) and drains the
  old one — every request holds a per-pin in-flight reference, and the
  superseded pin is retired (the old view closed, which unlinks a
  segment the engine froze) exactly when its last request completes.
  This per-pin drain is the only one: process workers attach the
  version by header and never own it. ``repro serve --snapshot-dir`` plus
  ``POST /v1/admin/reload`` drive this from a
  :class:`~repro.disk.registry.SnapshotRegistry`.

Determinism: each computation derives its RNG seed from the cache key, so
identical requests produce identical results whether or not they hit the
cache — and whichever backend executes them: both run
:func:`~repro.service.workers.execute_batch`, the thread backend as a
batch of one over the pin's own view and snapshot
(``tests/test_service_workers.py`` pins thread/process parity).

Cached :class:`~repro.core.findnc.FindNCResult` objects are shared across
requests — treat them as read-only.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.context import RandomWalkContext
from repro.core.findnc import FindNCResult
from repro.errors import DeadlineExceededError, EngineSaturatedError, QueryError
from repro.graph.compiled import CompiledGraph
from repro.graph.model import KnowledgeGraph, NodeRef
from repro.graph.search import EntityIndex, resolve_node_refs
from repro.parallel.shm import SharedSnapshotHeader, StaleSnapshotError, freeze_graph
from repro.service import faults
from repro.service.cache import CacheStats, ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.tracing import Tracer, log_event
from repro.service.workers import (
    ProcessWorkerPool,
    WorkerConfig,
    WorkerCrashError,
    WorkerTask,
    execute_batch,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.disk.store import DiskSnapshotHeader


class CircuitBreaker:
    """Closed → open → half-open breaker over the worker-pool backend.

    ``record_failure`` on every :class:`WorkerCrashError`; ``threshold``
    *consecutive* failures trip the breaker **open** — the engine stops
    dispatching to the pool and serves the degraded thread-local
    fallback instead (compute is pure, so answers stay identical; only
    throughput degrades). After ``reset_s`` the breaker allows one
    **half-open** probe per window; a probe success closes it, a probe
    failure re-opens it. ``/healthz`` reports ``degraded`` with
    :attr:`reason` whenever the breaker is not closed.

    Thread-safe; ``clock`` is injectable for tests.
    """

    def __init__(
        self, *, threshold: int = 5, reset_s: float = 30.0, clock=time.monotonic
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s <= 0:
            raise ValueError(f"reset_s must be > 0, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probe_at = 0.0
        self._trips = 0
        self._reason = ""

    def allow(self) -> bool:
        """Whether the protected backend may be tried right now."""
        with self._lock:
            if self._state == "closed":
                return True
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at >= self.reset_s:
                    self._state = "half_open"
                    self._probe_at = now
                    return True
                return False
            # half_open: one probe per reset window. Time-based (rather
            # than a "probe in flight" flag) so a probe that ends in a
            # neutral outcome can never wedge the breaker half-open.
            if now - self._probe_at >= self.reset_s:
                self._probe_at = now
                return True
            return False

    def record_success(self) -> None:
        """A backend call succeeded: close the breaker, clear the streak."""
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._reason = ""

    def record_failure(self, reason: str) -> None:
        """A backend call failed; may trip the breaker open."""
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self.threshold:
                if self._state != "open":
                    self._trips += 1
                self._state = "open"
                self._opened_at = self._clock()
                self._reason = reason

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state

    @property
    def reason(self) -> str:
        """The failure that tripped the breaker (empty when closed)."""
        with self._lock:
            return self._reason

    @property
    def trips(self) -> int:
        """How many times the breaker has transitioned to open."""
        with self._lock:
            return self._trips

    def as_dict(self) -> dict:
        """The JSON shape embedded in ``/stats``."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self._trips,
                "reason": self._reason,
            }


@dataclass(frozen=True)
class EngineConfig:
    """Every :class:`NCEngine` tuning knob, validated in one place.

    Pipeline defaults, cache size, executor choice, resilience budgets
    and breaker tuning all live here, and the engine reads them from
    ``engine.config``. The CLI's ``serve`` flags build one
    (:func:`repro.cli.main`); embedders construct one directly and pass
    it as ``NCEngine(graph, config=cfg)``.

    Fields
    ------
    context_size / alpha / damping / iterations:
        Defaults of the served pipeline (per-request ``context_size`` and
        ``alpha`` overrides are part of the cache key).
    discriminator_params:
        Extra :class:`MultinomialDiscriminator` keyword arguments (e.g.
        ``{"min_none_share": 0.1}``); fingerprinted into the cache key.
    cache_size / max_workers:
        LRU capacity and executor width. With ``executor="process"``,
        ``max_workers`` is also the worker-process count (the thread
        pool then only dispatches, one thread per in-flight request).
    executor:
        ``"thread"`` (default) computes on the executor threads;
        ``"process"`` computes on a shared-memory worker-process pool —
        the backend that scales *distinct*-query throughput with cores
        (see :mod:`repro.service.workers`).
    seed:
        Base seed mixed into the per-request deterministic RNG derivation.
    request_timeout:
        Default per-request deadline in seconds (``None`` = no deadline).
        Per-call ``timeout`` arguments override it; expiry raises
        :class:`~repro.errors.DeadlineExceededError` (HTTP 504).
    max_pending:
        Admission-control budget: the maximum number of *distinct*
        computations allowed in flight before :meth:`NCEngine.submit`
        sheds with :class:`~repro.errors.EngineSaturatedError` (HTTP 503
        + ``Retry-After``). Cache hits and coalesced requests are always
        admitted. ``None`` = unbounded (the pre-resilience behaviour).
    retries:
        Per-request retry budget for retriable backend failures
        (:class:`~repro.service.workers.WorkerCrashError`, stale
        segments) in process mode; compute is pure, so re-dispatch is
        always safe. Crash retries back off exponentially from
        ``retry_backoff`` seconds with ±50% jitter.
    breaker_threshold / breaker_reset_s:
        Circuit breaker over the worker pool: ``breaker_threshold``
        consecutive crash failures trip it open and the engine serves
        the degraded thread-local fallback; after ``breaker_reset_s``
        one half-open probe per window decides recovery.
    snapshot_source:
        A human-readable description of where the served graph came
        from (``"dataset:yago"``, ``"snapshot:/path"``,
        ``"registry:/dir"``), surfaced by ``/v1/healthz`` so pollers and
        the load generator can assert which snapshot served a run. When
        unset it defaults to ``"snapshot"`` for frozen views and
        ``"live-graph"`` otherwise.

    Instances are frozen: engine behaviour cannot be reconfigured after
    construction (use :func:`dataclasses.replace` to derive variants).
    """

    context_size: int = 100
    alpha: float = 0.05
    damping: float = 0.8
    iterations: int = 10
    discriminator_params: "dict | None" = None
    excluded_labels: "frozenset[str] | None" = None
    include_inverse_labels: bool = False
    none_bucket: bool = True
    cache_size: int = 256
    max_workers: int = 4
    executor: str = "thread"
    seed: int = 0
    request_timeout: "float | None" = None
    max_pending: "int | None" = None
    retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    snapshot_source: "str | None" = None
    #: Micro-batching (process executor only): the pool's dispatcher
    #: gathers up to ``max_batch`` concurrent requests pinned to the same
    #: snapshot for at most ``batch_window_ms`` and executes them with one
    #: shared power iteration per worker round-trip. With ``max_batch=1``
    #: the dispatcher sends each request alone at once; ``max_batch > 1``
    #: with the thread executor is rejected.
    batch_window_ms: float = 0.0
    max_batch: int = 1
    #: Request tracing (see :mod:`repro.service.tracing`):
    #: ``trace_sample_rate`` head-samples that fraction of requests into
    #: full span trees; ``slow_query_ms`` additionally records *every*
    #: request and force-retains any that errors or runs at least this
    #: long; retained traces live in a ``trace_buffer``-deep ring served
    #: at ``GET /v1/debug/traces``. ``metrics_exemplars`` links latency
    #: histogram buckets to trace ids in the ``/v1/metrics`` exposition.
    trace_sample_rate: float = 0.0
    slow_query_ms: "float | None" = None
    trace_buffer: int = 256
    metrics_exemplars: bool = False

    def __post_init__(self) -> None:
        """Validate every knob; raises ``ValueError`` with a field-named message."""
        if self.context_size < 1:
            raise ValueError(
                f"context_size must be >= 1, got {self.context_size}"
            )
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s <= 0:
            raise ValueError(
                f"breaker_reset_s must be > 0, got {self.breaker_reset_s}"
            )
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_batch > 1 and self.executor != "process":
            raise ValueError(
                "max_batch > 1 requires the process executor (micro-batching "
                f"is a worker-pool feature), got executor={self.executor!r}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be within [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.slow_query_ms is not None and self.slow_query_ms <= 0:
            raise ValueError(
                f"slow_query_ms must be positive, got {self.slow_query_ms}"
            )
        if self.trace_buffer < 1:
            raise ValueError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}"
            )

    def as_dict(self) -> dict:
        """A JSON-ready dump of every knob (introspection / debugging)."""
        return {
            "context_size": self.context_size,
            "alpha": self.alpha,
            "damping": self.damping,
            "iterations": self.iterations,
            "discriminator_params": dict(self.discriminator_params or {}),
            "excluded_labels": (
                sorted(self.excluded_labels)
                if self.excluded_labels is not None
                else None
            ),
            "include_inverse_labels": self.include_inverse_labels,
            "none_bucket": self.none_bucket,
            "cache_size": self.cache_size,
            "max_workers": self.max_workers,
            "executor": self.executor,
            "seed": self.seed,
            "request_timeout": self.request_timeout,
            "max_pending": self.max_pending,
            "retries": self.retries,
            "retry_backoff": self.retry_backoff,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset_s": self.breaker_reset_s,
            "snapshot_source": self.snapshot_source,
            "batch_window_ms": self.batch_window_ms,
            "max_batch": self.max_batch,
            "trace_sample_rate": self.trace_sample_rate,
            "slow_query_ms": self.slow_query_ms,
            "trace_buffer": self.trace_buffer,
            "metrics_exemplars": self.metrics_exemplars,
        }


class _PinLifecycle:
    """Drain bookkeeping for one pin: in-flight refcount + retire-once.

    The mutable companion of the otherwise-immutable :class:`_PinnedState`.
    Requests :meth:`acquire` the pin for their whole lifetime (resolution
    included — the entity index may still lazily read the pinned view)
    and :meth:`release` when done; :meth:`retire` marks the pin
    superseded and fires the drain callback as soon as — and exactly
    once — no request still references it. This is what lets
    :meth:`NCEngine.swap_snapshot` re-pin atomically while in-flight
    requests finish on the old version.
    """

    __slots__ = ("_lock", "_inflight", "_superseded", "_on_drained")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight = 0
        self._superseded = False
        self._on_drained: "list" = []

    def acquire(self) -> None:
        """Take one in-flight reference (a request entering the pin)."""
        with self._lock:
            self._inflight += 1

    def release(self) -> None:
        """Drop one reference; fires drain callbacks on the last one."""
        with self._lock:
            self._inflight -= 1
            if self._superseded and self._inflight <= 0:
                callbacks, self._on_drained = self._on_drained, []
            else:
                callbacks = []
        for callback in callbacks:
            callback()

    def retire(self, on_drained) -> None:
        """Mark the pin superseded; run ``on_drained`` at last release.

        Runs it immediately when nothing is in flight.
        """
        with self._lock:
            self._superseded = True
            if self._inflight > 0:
                self._on_drained.append(on_drained)
                on_drained = None
        if on_drained is not None:
            on_drained()

    @property
    def inflight(self) -> int:
        """The current in-flight reference count (introspection only)."""
        with self._lock:
            return self._inflight

    @property
    def retired(self) -> bool:
        """Whether this pin has been superseded (swap/close happened)."""
        with self._lock:
            return self._superseded


@dataclass(frozen=True)
class _PinnedState:
    """Everything one graph version's requests share, all immutable in use.

    ``view`` is the frozen snapshot view the pin was built from: names
    resolve and labels read against it, never against the engine's
    current graph, so a request in flight across a hot swap answers
    wholly from its own version. ``header`` is the view's picklable
    transport description (an shm segment or a snapshot file path),
    which process workers attach the snapshot from. ``lifecycle`` is the
    pin's mutable drain bookkeeping (see :class:`_PinLifecycle`), the one
    drain that decides when the view may be closed.
    """

    view: KnowledgeGraph
    snapshot: CompiledGraph
    selector: RandomWalkContext
    entity_index: EntityIndex
    header: "SharedSnapshotHeader | DiskSnapshotHeader"
    lifecycle: _PinLifecycle = field(default_factory=_PinLifecycle)


@dataclass(frozen=True)
class SwapOutcome:
    """What one :meth:`NCEngine.swap_snapshot` call did."""

    swapped: bool
    old_version: int
    new_version: int


@dataclass(frozen=True)
class SearchOutcome:
    """One served request: the result plus how it was satisfied."""

    result: FindNCResult
    cached: bool
    coalesced: bool
    graph_version: int
    elapsed_seconds: float


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of the engine counters."""

    requests: int
    cache_hits: int
    coalesced: int
    computed: int
    pinned_version: int | None
    inflight: int
    max_workers: int
    executor: str
    cache: CacheStats
    workers: "dict | None" = None
    #: Completed hot swaps (:meth:`NCEngine.swap_snapshot`).
    swaps: int = 0
    #: Versions fully drained and retired after being swapped out.
    drained_versions: "tuple[int, ...]" = ()
    #: Versions swapped out but still finishing in-flight requests.
    draining_versions: "tuple[int, ...]" = ()
    #: Requests whose deadline expired (504s).
    timeouts: int = 0
    #: Backend dispatches retried after a crash or stale segment.
    retries: int = 0
    #: Requests shed by admission control (503s).
    shed: int = 0
    #: Computations served by the degraded thread-local fallback.
    fallbacks: int = 0
    #: Circuit-breaker snapshot (process executor only).
    breaker: "dict | None" = None

    def as_dict(self) -> dict:
        """The JSON shape served by ``GET /stats``."""
        out = {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "swaps": self.swaps,
            "pinned_version": self.pinned_version,
            "drained_versions": list(self.drained_versions),
            "draining_versions": list(self.draining_versions),
            "inflight": self.inflight,
            "max_workers": self.max_workers,
            "executor": self.executor,
            "cache": self.cache.as_dict(),
            "timeouts": self.timeouts,
            "retries": self.retries,
            "shed": self.shed,
            "fallbacks": self.fallbacks,
        }
        if self.workers is not None:
            out["workers"] = self.workers
        if self.breaker is not None:
            out["breaker"] = self.breaker
        return out


class NCEngine:
    """Serve concurrent FindNC requests over one frozen graph version.

    >>> # engine = NCEngine(graph, config=EngineConfig(executor="process"))
    >>> # result = engine.search(["Angela_Merkel", "Barack_Obama"])
    >>> # engine.stats().cache_hits

    Construction takes one :class:`EngineConfig` as ``config=``
    (``None`` means ``EngineConfig()``), which documents and validates
    the settings. Every engine also owns a
    :class:`~repro.service.metrics.ServiceMetrics` bundle
    (``engine.metrics``) the HTTP server renders at ``GET /v1/metrics``.

    ``graph`` is a frozen snapshot view (``repro.disk.open_snapshot_view``,
    ``SnapshotRegistry.open_view``) or a :class:`KnowledgeGraph`, which
    the engine freezes once, here, into a shared-memory view it owns
    (:func:`~repro.parallel.shm.freeze_graph`) and closes with the
    engine. Later mutations of that graph do not reach the engine; serve
    a newer version with :meth:`swap_snapshot`.

    ``search``/``submit``/``request`` are safe to call from many threads.
    Do not call them from inside the engine's own executor (a worker
    blocking on another request's future could exhaust the pool).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        config: "EngineConfig | None" = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        self.config = config
        #: The view this engine froze from a live graph (closed with the
        #: engine), or ``None`` when it was handed a frozen view.
        self._owned_view = None
        if not getattr(graph, "frozen", False):
            graph = self._owned_view = freeze_graph(graph)
        self._graph = graph
        self._discriminator_fingerprint = tuple(
            sorted((config.discriminator_params or {}).items())
        )
        self._started_monotonic = time.monotonic()
        self.snapshot_source = config.snapshot_source or (
            "live-graph" if self._owned_view is not None else "snapshot"
        )
        self.metrics = ServiceMetrics(exemplars=config.metrics_exemplars)
        #: Per-request span recording + the /v1/debug/traces ring buffer.
        #: The seeded RNG keeps head-sampling decisions reproducible.
        self.tracer = Tracer(
            sample_rate=config.trace_sample_rate,
            slow_query_ms=config.slow_query_ms,
            capacity=config.trace_buffer,
            seed=config.seed ^ 0x7ACE,
        )
        self._cache = ResultCache(
            maxsize=config.cache_size, on_event=self.metrics.cache_event
        )
        # In process mode the thread pool only parks dispatching threads
        # while their batch members wait on workers — one full batch per
        # worker can be in flight at once (a narrower pool would cap batch
        # sizes at max_workers). max_batch is 1 on the thread executor.
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_workers * config.max_batch,
            thread_name_prefix="nc-query",
        )
        self._pool: ProcessWorkerPool | None = None
        self._pool_lock = threading.Lock()
        self._worker_config = WorkerConfig(
            damping=config.damping,
            iterations=config.iterations,
            excluded_labels=config.excluded_labels,
            include_inverse_labels=config.include_inverse_labels,
            none_bucket=config.none_bucket,
            discriminator_params=self._discriminator_fingerprint,
        )
        self._pin_lock = threading.Lock()
        self._pinned: _PinnedState | None = None
        self._flight_lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._retry_rng = random.Random(config.seed ^ 0x5EED_BACC)
        self._retry_rng_lock = threading.Lock()
        self._breaker = CircuitBreaker(
            threshold=config.breaker_threshold, reset_s=config.breaker_reset_s
        )
        self._requests = 0
        self._hits = 0
        self._coalesced = 0
        self._computed = 0
        self._timeouts = 0
        self._backend_retries = 0
        self._shed = 0
        self._fallbacks = 0
        self._swaps = 0
        self._swap_lock = threading.Lock()
        self._drained_versions: "list[int]" = []
        self._draining: "dict[int, _PinnedState]" = {}
        self._closed = False
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Scrape-time gauges over live engine state (no push per change)."""
        registry = self.metrics.registry
        registry.gauge(
            "nc_engine_inflight",
            "Distinct computations currently in flight.",
        ).set_function(lambda: len(self._inflight))
        registry.gauge(
            "nc_engine_pinned_version",
            "The graph version new requests pin (0 before the first pin).",
        ).set_function(
            lambda: (
                self._pinned.snapshot.version if self._pinned is not None else 0
            )
        )
        breaker_levels = {"closed": 0.0, "half_open": 1.0, "open": 2.0}
        registry.gauge(
            "nc_breaker_state",
            "Worker-pool circuit breaker state "
            "(0 closed, 1 half-open, 2 open).",
        ).set_function(lambda: breaker_levels.get(self._breaker.state, 2.0))
        registry.gauge(
            "nc_engine_uptime_seconds",
            "Seconds since this engine was constructed.",
        ).set_function(lambda: time.monotonic() - self._started_monotonic)
        registry.gauge(
            "nc_cache_entries",
            "Entries currently held by the result cache.",
        ).set_function(lambda: len(self._cache))

    # -- lifecycle ---------------------------------------------------------

    @property
    def graph(self) -> KnowledgeGraph:
        """The frozen view new requests pin (the latest swapped-in one)."""
        return self._graph

    @property
    def cache(self) -> ResultCache:
        """The version-keyed LRU result cache."""
        return self._cache

    def close(self) -> None:
        """Shut the executor down (in-flight requests finish first).

        In process mode this also stops the worker pool. A view the
        engine froze from a live graph is closed, which unlinks its
        shared-memory segment, whether or not it was ever pinned.
        """
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._owned_view is not None:
            self._owned_view.close()

    def __enter__(self) -> "NCEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pinning -----------------------------------------------------------

    def pin(self) -> _PinnedState:
        """The shared state of the served version, built on first use.

        Fast path is lock-free (one attribute read); the first call
        builds the pin under a lock. :meth:`swap_snapshot` replaces it.
        """
        state = self._pinned
        if state is not None:
            return state
        with self._pin_lock:
            if self._pinned is None:
                self._pinned = self._build_pin(self._graph)
            return self._pinned

    def _acquire_pin(self) -> _PinnedState:
        """The current pin, with one in-flight reference taken on it.

        Acquire-then-validate: a swap landing between :meth:`pin` and
        ``acquire()`` could have already drained (and closed) the pin
        with zero holders, so a reference on a retired pin is given back
        and the new pin taken instead. The caller releases the reference.
        """
        while True:
            state = self.pin()
            state.lifecycle.acquire()
            if state is self._pinned or not state.lifecycle.retired:
                return state
            state.lifecycle.release()

    def _worker_pool(self) -> ProcessWorkerPool:
        """The process pool, created on the first request dispatched to it.

        Not at pin time: ``repro serve`` pins before listening but spawns
        no worker. The first cache-missing process-mode request creates
        the pool and waits for the worker spawn, imports and snapshot
        attach before its answer; later requests find the pool warm.

        Creation is locked: with micro-batching the dispatch executor is
        wider than the worker count, so a burst of first requests reaches
        this point on many threads at once — unlocked, each would spawn
        its own pool and all but the last would leak worker processes
        (and split the dispatch counters across pools).
        """
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ProcessWorkerPool(
                        self.config.max_workers,
                        batch_window_ms=self.config.batch_window_ms,
                        max_batch=self.config.max_batch,
                        on_event=self.metrics.worker_event,
                        on_batch=self.metrics.observe_worker_batch,
                    )
        return self._pool

    def _build_pin(self, graph: KnowledgeGraph) -> _PinnedState:
        """The pin over one frozen view (no writers, ever).

        The snapshot is already compiled (the view *is* the shm segment
        or mmapped file), and when it carries the frozen PPR transition
        CSR the selector adopts it, so pinning costs an entity-index
        build and little else. Process workers attach the view's own
        transport by its header: the segment, or the file by path.
        :meth:`swap_snapshot` builds the replacement pin with this before
        the engine atomically adopts it.
        """
        selector = RandomWalkContext(
            graph,
            damping=self.config.damping,
            iterations=self.config.iterations,
            pin=True,
        )
        attached = graph._attached  # noqa: SLF001 - the view's transport
        stored = attached.transition()
        if stored is not None:
            selector.warm_from(stored)
        elif self.config.executor == "thread":
            selector.warm()
        return _PinnedState(
            view=graph,
            snapshot=graph.compiled(),
            selector=selector,
            entity_index=EntityIndex(graph),
            header=attached.header,
        )

    # -- hot swap ----------------------------------------------------------

    def swap_snapshot(
        self,
        graph: "KnowledgeGraph | str | os.PathLike[str]",
        *,
        close_drained: bool = True,
    ) -> SwapOutcome:
        """Atomically re-pin onto a newly published snapshot (hot swap).

        The serve-v2-while-v1-drains primitive: ``graph`` is a *frozen*
        snapshot view (``repro.disk.open_snapshot_view``) — or a snapshot
        file path, opened here — holding a **newer** version than the
        current pin (the registry's monotonic ids guarantee this for
        registry-published files). The engine builds the replacement pin
        off to the side, then swaps ``graph``/pin under the pin lock:

        * new requests pin the new version immediately (the version-keyed
          result cache invalidates by unreachability, and stale entries
          are purged eagerly);
        * in-flight requests finish on the old pin — each request holds
          an in-flight reference for its whole lifetime, and the old pin
          is only *retired* (the old view's mapping closed when
          ``close_drained``, which unlinks a segment the engine froze)
          once the last one completes. Drained versions are recorded in
          ``stats().drained_versions``.

        Swapping to the version already pinned is an idempotent no-op
        (``swapped=False``) — the ``POST /admin/reload`` handler leans on
        this. Swapping *backwards* raises ``ValueError``: version ids key
        the result cache, so re-serving an older id could resurface stale
        entries.

        The engine takes ownership of an accepted view: it is closed when
        its version drains (``close_drained=True``, the default). On
        rejection (no-op or error) the caller keeps ownership of a view
        *they* opened; a view the engine opened from a path argument is
        closed here.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        opened_here = False
        if isinstance(graph, (str, os.PathLike)):
            from repro.disk import open_snapshot_view

            graph = open_snapshot_view(graph)
            opened_here = True
        if not bool(getattr(graph, "frozen", False)):
            raise ValueError(
                "swap target must be a frozen snapshot view "
                "(repro.disk.open_snapshot_view)"
            )
        new_version = graph.version
        with self._swap_lock:
            current = self._pinned
            current_version = (
                current.snapshot.version if current is not None else self._graph.version
            )
            if new_version == current_version:
                if opened_here:
                    graph.close()
                return SwapOutcome(
                    swapped=False,
                    old_version=current_version,
                    new_version=new_version,
                )
            if new_version < current_version:
                if opened_here:
                    graph.close()
                raise ValueError(
                    f"cannot swap from version {current_version} back to "
                    f"{new_version}: snapshot versions must be monotonic "
                    f"(they key the result cache)"
                )
            state = self._build_pin(graph)
            with self._pin_lock:
                previous = self._pinned
                old_graph = self._graph
                self._graph = graph
                self._pinned = state
                self._swaps += 1
            self.metrics.swaps.inc()
            self._cache.purge_versions(new_version)
            if previous is not None:
                self._retire_pin(
                    previous, old_graph if close_drained else None
                )
        return SwapOutcome(
            swapped=True, old_version=current_version, new_version=new_version
        )

    def _retire_pin(self, previous: _PinnedState, old_graph) -> None:
        """Hand a superseded pin to its drain.

        The pin drains on the engine's own in-flight refcount, which
        every request holds until its answer returns — worker jobs
        included, so no worker still needs the old version once it
        drains. At the last release the old view is closed (when the
        engine owns it), which unlinks a segment the engine froze, and
        the version is recorded as drained.
        """
        version = previous.snapshot.version
        with self._flight_lock:
            self._draining[version] = previous

        def on_drained() -> None:
            if old_graph is not None:
                old_graph.close()
            with self._flight_lock:
                self._draining.pop(version, None)
                self._drained_versions.append(version)
            self.metrics.drains.inc()

        previous.lifecycle.retire(on_drained)

    # -- request plumbing --------------------------------------------------

    def _resolve(self, state: _PinnedState, query: Sequence[NodeRef]) -> tuple[int, ...]:
        """Node ids for ``query`` (ids, exact names, or fuzzy names), sorted.

        Same resolution path as ``FindNC.resolve_query`` (shared
        :func:`resolve_node_refs`), then canonicalized by sorting + dedup
        so every spelling of the same entity set shares one cache entry
        (the pipeline is order-invariant; only ``FindNCResult.query``'s
        ordering reflects the canonical form rather than the request's).
        """
        if len(query) == 0:
            raise QueryError("the query set must not be empty")
        resolved = resolve_node_refs(
            state.view, query, lambda: state.entity_index
        )
        return tuple(sorted(set(resolved)))

    def _rng_seed(self, key: tuple) -> int:
        """A deterministic 63-bit seed derived from the cache key + base seed."""
        material = repr((key[1:], self.config.seed)).encode()  # version-independent
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big") >> 1

    def _compute(self, key: tuple, query_ids: tuple[int, ...], k: int, alpha: float,
                 state: _PinnedState, deadline: "float | None" = None,
                 trace=None) -> FindNCResult:
        compute_span = None
        try:
            if deadline is not None and time.monotonic() >= deadline:
                # The executor queue ate the whole budget: cancel before
                # any work happens (the "queued-but-unstarted" path).
                raise DeadlineExceededError(
                    "request deadline expired while queued for execution"
                )
            if trace is not None:
                # Opened on the executor thread: the gap between the
                # engine.submit span's end and this start is executor
                # queueing delay, visible in the tree.
                compute_span = trace.start_span(
                    "engine.compute", backend=self.config.executor
                )
            started = time.perf_counter()
            if self.config.executor == "process":
                result = self._compute_remote(
                    key, query_ids, k, alpha, state, deadline,
                    trace=trace, trace_span=compute_span,
                )
            else:
                result = self._compute_local(key, query_ids, k, alpha, state)
            self._cache.put(key, result)
            with self._flight_lock:
                self._computed += 1
            self.metrics.computed.inc(backend=self.config.executor)
            self.metrics.compute_latency.observe(
                time.perf_counter() - started,
                exemplar=(
                    {"trace_id": trace.trace_id} if trace is not None else None
                ),
                backend=self.config.executor,
            )
            return result
        except DeadlineExceededError:
            with self._flight_lock:
                self._timeouts += 1
            self.metrics.timeouts.inc()
            raise
        finally:
            if compute_span is not None:
                compute_span.end()
            with self._flight_lock:
                self._inflight.pop(key, None)
            # The request's in-flight reference, acquired in submit() and
            # transferred to this computation: the last release of a
            # swapped-out pin triggers its retirement.
            state.lifecycle.release()

    def _compute_local(self, key: tuple, query_ids: tuple[int, ...], k: int,
                       alpha: float, state: _PinnedState) -> FindNCResult:
        """Run the pipeline on the calling executor thread (thread backend
        and breaker fallback): a batch of one over the pin's own view."""
        faults.fire("engine.slow")  # chaos hook: the rule's delay applies here
        task = WorkerTask(
            query_ids=query_ids,
            context_size=k,
            alpha=alpha,
            rng_seed=self._rng_seed(key),
            config=self._worker_config,
        )
        [outcome] = execute_batch(state.view, state.snapshot, state.selector, [task])
        if isinstance(outcome, Exception):
            try:
                raise outcome
            finally:
                # Break the frame -> outcome -> traceback cycle, which
                # would keep the pin's buffers alive until a gc pass.
                del outcome
        return outcome

    def _compute_remote(self, key: tuple, query_ids: tuple[int, ...], k: int,
                        alpha: float, state: _PinnedState,
                        deadline: "float | None" = None,
                        trace=None, trace_span=None) -> FindNCResult:
        """Dispatch the computation to the worker pool (process backend).

        The RNG seed derives from the cache key exactly as in the local
        path, and the worker runs the same
        :func:`~repro.service.workers.execute_batch`, so both backends
        return identical results — which is also what makes the failure
        handling here safe:

        * a **stale segment** (gone between dispatch and the worker's
          attach — a hot swap raced the request) is re-dispatched
          immediately on the current pin, which the re-dispatch holds an
          in-flight reference on until it returns. It is the one
          situation where a request keyed at version ``v`` is answered
          from ``v+1``; its cache entry is already unreachable to new
          requests;
        * a **worker crash** is retried on a healthy worker with
          exponential backoff + jitter, feeding the circuit breaker;
        * an exhausted retry budget or an **open breaker** falls back
          to the degraded thread-local compute — identical answers,
          degraded throughput — instead of failing the request.

        Deadline expiry is never retried: the pool already charged the
        request's whole remaining budget.
        """
        pool = self._worker_pool()
        attempts = self.config.retries + 1
        backoff = self.config.retry_backoff
        last_crash: "WorkerCrashError | None" = None
        # The pin a stale re-dispatch runs on, held until this returns;
        # the request's own pin is released by _compute.
        redispatch_pin: "_PinnedState | None" = None
        try:
            for attempt in range(attempts):
                if not self._breaker.allow():
                    break  # degraded mode: skip the pool entirely
                try:
                    result = pool.run(
                        header=state.header,
                        query_ids=query_ids,
                        context_size=k,
                        alpha=alpha,
                        rng_seed=self._rng_seed(key),
                        config=self._worker_config,
                        deadline=deadline,
                        trace=trace,
                        trace_span=trace_span,
                    )
                    self._breaker.record_success()
                    return result
                except StaleSnapshotError:
                    # Not a backend fault: no breaker, no backoff — just
                    # take the current pin and go again.
                    if attempt + 1 >= attempts:
                        raise
                    with self._flight_lock:
                        self._backend_retries += 1
                    self.metrics.backend_retries.inc()
                    state = self._acquire_pin()
                    if redispatch_pin is not None:
                        redispatch_pin.lifecycle.release()
                    redispatch_pin = state
                except WorkerCrashError as error:
                    self._breaker.record_failure(repr(error))
                    log_event(
                        "worker_crash",
                        trace_id=trace.trace_id if trace is not None else None,
                        attempt=attempt + 1,
                        breaker_state=self._breaker.state,
                        error=repr(error),
                    )
                    if trace is not None:
                        trace.start_span(
                            "engine.crash_retry",
                            parent=trace_span,
                            attempt=attempt + 1,
                        ).end()
                    last_crash = error
                    if attempt + 1 >= attempts:
                        break
                    with self._retry_rng_lock:
                        jitter = self._retry_rng.uniform(0.5, 1.5)
                    sleep_s = backoff * jitter
                    backoff *= 2
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= sleep_s:
                            # No budget left for another dispatch — surface
                            # the timeout rather than a doomed retry.
                            raise DeadlineExceededError(
                                "request deadline expired during crash-retry "
                                "backoff"
                            ) from error
                    if sleep_s > 0:
                        time.sleep(sleep_s)
                    with self._flight_lock:
                        self._backend_retries += 1
                    self.metrics.backend_retries.inc()
            # Retry budget exhausted or breaker open: degraded local fallback.
            # Compute is pure, so the answer is byte-identical to a healthy
            # worker's; only latency/throughput degrade.
            with self._flight_lock:
                self._fallbacks += 1
            self.metrics.fallbacks.inc()
            log_event(
                "breaker_fallback",
                trace_id=trace.trace_id if trace is not None else None,
                breaker_state=self._breaker.state,
            )
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError(
                    "request deadline expired before the degraded fallback "
                    "could run"
                ) from last_crash
            fallback_span = (
                trace.start_span(
                    "engine.fallback", parent=trace_span, backend="thread-fallback"
                )
                if trace is not None
                else None
            )
            try:
                return self._compute_local(key, query_ids, k, alpha, state)
            finally:
                if fallback_span is not None:
                    fallback_span.end()
        finally:
            if redispatch_pin is not None:
                redispatch_pin.lifecycle.release()

    def submit(
        self,
        query: Sequence[NodeRef],
        *,
        context_size: int | None = None,
        alpha: float | None = None,
        timeout: "float | None" = None,
        trace=None,
    ) -> "tuple[Future, bool, bool, int]":
        """Enqueue one request; returns ``(future, cached, coalesced, version)``.

        Cache hits resolve immediately; concurrent identical requests
        share the first one's future (single-flight). Name resolution and
        cache lookup happen synchronously on the caller's thread, so bad
        queries raise here rather than inside the future.

        ``timeout`` (seconds; defaults to the engine's
        ``request_timeout``) sets the computation's deadline — carried
        into the worker pool in process mode. Admission control also
        applies here: with ``max_pending`` configured, a request that
        would start a new computation beyond the budget raises
        :class:`~repro.errors.EngineSaturatedError` instead of queueing
        (cache hits and coalesced requests are always admitted).

        ``trace`` (a :class:`~repro.service.tracing.Trace`, usually begun
        by the HTTP layer) opts the request into span recording: this
        method records ``engine.submit`` (resolution + cache/coalescing
        decision, with the ``cache=hit|miss|coalesced`` and ``version_id``
        attributes stamped on the trace root) and threads the trace down
        through the computation and — in process mode — the worker pool.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if timeout is None:
            timeout = self.config.request_timeout
        elif timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Hold the pin for the request's whole lifetime (resolution may
        # still lazily read the pinned view's name table): a concurrent
        # swap_snapshot retires this pin only after the last holder
        # releases. The reference is transferred to _compute when a
        # computation is scheduled, and dropped here on every other path.
        state = self._acquire_pin()
        transferred = False
        submit_span = (
            trace.start_span("engine.submit", executor=self.config.executor)
            if trace is not None
            else None
        )
        try:
            query_ids = self._resolve(state, query)
            k = context_size if context_size is not None else self.config.context_size
            a = alpha if alpha is not None else self.config.alpha
            key = (
                state.snapshot.version,
                frozenset(query_ids),
                k,
                a,
                self._discriminator_fingerprint,
            )
            self.metrics.engine_requests.inc(executor=self.config.executor)
            if trace is not None:
                trace.root.set(version_id=state.snapshot.version)
            with self._flight_lock:
                self._requests += 1
                cached = self._cache.get(key)
                if cached is not None:
                    self._hits += 1
                    if trace is not None:
                        trace.root.set(cache="hit")
                    future: Future = Future()
                    future.set_result(cached)
                    return future, True, False, state.snapshot.version
                existing = self._inflight.get(key)
                if existing is not None:
                    self._coalesced += 1
                    self.metrics.coalesced.inc()
                    if trace is not None:
                        trace.root.set(cache="coalesced")
                    return existing, False, True, state.snapshot.version
                if (
                    self.config.max_pending is not None
                    and len(self._inflight) >= self.config.max_pending
                ):
                    self._shed += 1
                    self.metrics.shed.inc()
                    if trace is not None:
                        trace.root.set(shed=True)
                    raise EngineSaturatedError(
                        f"engine is saturated: {len(self._inflight)} pending "
                        f"computations (max_pending={self.config.max_pending})",
                        retry_after=1.0,
                    )
                if trace is not None:
                    trace.root.set(cache="miss")
                future = self._executor.submit(
                    self._compute, key, query_ids, k, a, state, deadline, trace
                )
                transferred = True
                self._inflight[key] = future
                return future, False, False, state.snapshot.version
        finally:
            if submit_span is not None:
                submit_span.end()
            if not transferred:
                state.lifecycle.release()

    def request(
        self,
        query: Sequence[NodeRef],
        *,
        context_size: int | None = None,
        alpha: float | None = None,
        timeout: "float | None" = None,
        trace=None,
    ) -> SearchOutcome:
        """Serve one request synchronously, with cache/coalescing provenance.

        With a ``timeout`` (or engine ``request_timeout``), the wait for
        the computation is bounded: on expiry this raises
        :class:`~repro.errors.DeadlineExceededError` — on the thread
        backend immediately at the deadline (the pure computation cannot
        be interrupted; it finishes in the background and populates the
        cache), on the process backend within one watchdog tick (the
        pool abandons the job itself and the future carries the error).
        """
        started = time.perf_counter()
        if timeout is None:
            timeout = self.config.request_timeout
        deadline = time.monotonic() + timeout if timeout is not None else None
        future, cached, coalesced, version = self.submit(
            query, context_size=context_size, alpha=alpha, timeout=timeout,
            trace=trace,
        )
        if deadline is None:
            result = future.result()
        else:
            # Process mode: give the pool's own deadline machinery one
            # watchdog tick of grace to resolve the future with a
            # structured error (avoids double-counting the timeout).
            # Thread mode: nothing will interrupt the compute, so stop
            # waiting exactly at the deadline.
            grace = 0.0
            if self.config.executor == "process" and self._pool is not None:
                grace = self._pool._watchdog_tick  # noqa: SLF001
            try:
                result = future.result(
                    timeout=max(0.0, deadline - time.monotonic()) + grace
                )
            except FuturesTimeoutError:
                with self._flight_lock:
                    self._timeouts += 1
                self.metrics.timeouts.inc()
                raise DeadlineExceededError(
                    f"request did not complete within {timeout:.3f}s (the "
                    f"computation continues in the background and will be "
                    f"cached)",
                    timeout=timeout,
                ) from None
        return SearchOutcome(
            result=result,
            cached=cached,
            coalesced=coalesced,
            graph_version=version,
            elapsed_seconds=time.perf_counter() - started,
        )

    def search(
        self,
        query: Sequence[NodeRef],
        *,
        context_size: int | None = None,
        alpha: float | None = None,
        timeout: "float | None" = None,
    ) -> FindNCResult:
        """Serve one request synchronously; the drop-in ``FindNC.run``."""
        return self.request(
            query, context_size=context_size, alpha=alpha, timeout=timeout
        ).result

    # -- introspection -----------------------------------------------------

    @property
    def breaker(self) -> CircuitBreaker:
        """The worker-pool circuit breaker (meaningful in process mode)."""
        return self._breaker

    @property
    def uptime_s(self) -> float:
        """Seconds since this engine was constructed."""
        return time.monotonic() - self._started_monotonic

    @property
    def pinned_version(self) -> "int | None":
        """The graph version new requests pin (None before the first pin)."""
        pinned = self._pinned
        return pinned.snapshot.version if pinned is not None else None

    def health(self) -> dict:
        """Liveness summary for ``/healthz``: ``ok`` or ``degraded``.

        ``degraded`` means the engine is still answering — cached
        results, coalesced flights, and the thread-local fallback all
        work — but the process backend is bypassed because its circuit
        breaker is not closed. The ``reason`` field says why.
        """
        if self.config.executor == "process" and self._breaker.state != "closed":
            return {
                "status": "degraded",
                "reason": (
                    f"worker-pool circuit breaker is {self._breaker.state}: "
                    f"{self._breaker.reason}"
                ),
            }
        return {"status": "ok"}

    def revive_workers(self) -> int:
        """Respawn dead worker slots and reset the breaker to closed.

        The operator recovery action (after a crash storm's cause is
        fixed): brings suppressed slots back immediately and lets
        traffic flow to the pool again. Returns the number of slots
        revived; a no-op (0) without a process pool.
        """
        pool = self._pool
        revived = pool.revive() if pool is not None else 0
        self._breaker.record_success()
        return revived

    def stats(self) -> EngineStats:
        """A point-in-time snapshot of the engine (and worker-pool) counters."""
        with self._flight_lock:
            requests = self._requests
            hits = self._hits
            coalesced = self._coalesced
            computed = self._computed
            inflight = len(self._inflight)
            drained = tuple(self._drained_versions)
            draining = tuple(sorted(self._draining))
            timeouts = self._timeouts
            retries = self._backend_retries
            shed = self._shed
            fallbacks = self._fallbacks
        pinned = self._pinned
        pool = self._pool
        return EngineStats(
            requests=requests,
            cache_hits=hits,
            coalesced=coalesced,
            computed=computed,
            pinned_version=pinned.snapshot.version if pinned else None,
            inflight=inflight,
            max_workers=self.config.max_workers,
            executor=self.config.executor,
            cache=self._cache.stats(),
            workers=pool.stats().as_dict() if pool is not None else None,
            swaps=self._swaps,
            drained_versions=drained,
            draining_versions=draining,
            timeouts=timeouts,
            retries=retries,
            shed=shed,
            fallbacks=fallbacks,
            breaker=(
                self._breaker.as_dict() if self.config.executor == "process" else None
            ),
        )
