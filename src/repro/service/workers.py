"""One FindNC execution function, and the process pool that runs it.

:func:`execute_batch` is the service's only FindNC execution path. Both
executors call it: :class:`~repro.service.engine.NCEngine` runs a batch
of one on its executor thread (thread backend and breaker fallback), and
every worker process runs whatever batch it receives. A lone query is
simply a batch of one, so the two backends cannot drift apart.

The thread backend serves *distinct* queries at ~1x per core: the
pipeline's Python-level work holds the GIL. The pool below is the
scaling lever for that traffic class — persistent worker **processes**
that execute against the shared-memory graph snapshot published by
:mod:`repro.parallel.shm`:

* the engine (parent) keeps everything stateful: HTTP serving, name
  resolution, the version-keyed result cache, single-flight coalescing,
  and segment publication;
* workers receive batches of :class:`WorkerTask` orders — a few hundred
  bytes each — and attach the snapshot **once per graph version** (the
  shm segment of a graph the engine froze, an mmapped snapshot file for
  ``repro serve --snapshot``), adopting the published frozen PPR
  transition CSR zero-copy (rebuilding it only when the publisher did
  not share one); per-request cost is one small task pickle and one
  result pickle, never the graph;
* dispatch is round-robin over per-worker task queues, results flow back
  as one list per batch over one shared queue drained by a collector
  thread that resolves the parent-side jobs.

Every message is a batch, and every task takes one path to a worker:
``run`` appends it to a parent-side pending deque, and a dispatcher
thread drains the deque into micro-batches — up to ``max_batch`` tasks
pinned to the *same* snapshot segment, gathered for at most
``batch_window_ms``. With ``max_batch=1`` a pending task is already a
full batch, so the dispatcher sends it alone at once. The worker answers
every member's context search with a single shared multi-column power
iteration (:meth:`~repro.core.context.RandomWalkContext.select_many`) and
one fused distribution sweep, so per-step sparse-matmat cost and
result-transport overhead are amortized across the batch. Answers are
byte-identical to :meth:`~repro.core.findnc.FindNC.run` on each query
alone (``tests/test_batch_parity.py``), and a member whose deadline
expires while waiting in the batch window is shed alone — its batchmates
still execute.

Segment lifecycle: the pool owns no segment and unlinks nothing. Whoever
published a snapshot releases it — the engine closes a superseded view
once its version's last request has returned, and a frozen view unlinks
its segment on close. A worker whose segment (or snapshot file) is gone
before it attaches reports the job as *stale*, and the engine
re-dispatches against the current version.

Workers start via the ``spawn`` method: a fresh interpreter per worker
(no inherited locks or thread state). The engine creates the pool on the
first request it dispatches to it (pinning spawns nothing), and that
request pays the spawn, each worker's imports (the parent's
``__main__`` — :mod:`repro.cli` under ``repro serve`` — plus this
module) and the first snapshot attach; later requests pay none of it.
Keeping heavy optional imports (``scipy.stats``) off that chain keeps
the first answer fast (``tests/test_import_graph.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro.core.discrimination import MultinomialDiscriminator
from repro.core.distributions import sweep_counts_many
from repro.core.findnc import FindNC, FindNCResult
from repro.errors import DeadlineExceededError
from repro.parallel.shm import (
    SharedSnapshotHeader,
    SnapshotGraphView,
    StaleSnapshotError,
    attach_snapshot,
)
from repro.service import faults
from repro.service.tracing import WorkerSpanRecorder


def _attach_header(header):
    """Attach whatever transport ``header`` describes.

    Two header species reach a worker: an shm
    :class:`~repro.parallel.shm.SharedSnapshotHeader` (a graph the engine
    froze — attach the named segment) and a disk
    :class:`~repro.disk.DiskSnapshotHeader` (snapshot-file serving — mmap
    the file; no publish step existed, so there is nothing to attach in
    the shm sense). Both return objects with the same attach surface, so
    the worker loop below does not care which it got. A vanished snapshot
    file maps onto :class:`~repro.parallel.shm.StaleSnapshotError`, the
    same retriable condition as an unlinked segment.
    """
    if isinstance(header, SharedSnapshotHeader):
        return attach_snapshot(header)
    from repro.disk.store import DiskSnapshotHeader, open_snapshot

    if isinstance(header, DiskSnapshotHeader):
        try:
            return open_snapshot(header.path)
        except FileNotFoundError as error:
            raise StaleSnapshotError(
                f"snapshot file {header.path!r} is gone"
            ) from error
    raise TypeError(f"unknown snapshot header type: {type(header).__name__}")


class WorkerCrashError(RuntimeError):
    """A worker process died while one of its jobs was in flight."""


class RemoteQueryError(RuntimeError):
    """A worker-side computation failed; carries the remote traceback."""


@dataclass(frozen=True)
class WorkerConfig:
    """The engine parameters one FindNC computation needs.

    Shipped with every task (it is tiny and immutable); fields mirror the
    :class:`~repro.service.engine.NCEngine` constructor so thread- and
    process-backend results are byte-identical for the same request.
    """

    damping: float
    iterations: int
    excluded_labels: "frozenset[str] | None"
    include_inverse_labels: bool
    none_bucket: bool
    #: ``sorted(dict.items())`` of the engine's discriminator params —
    #: a tuple so the config stays hashable and deterministic.
    discriminator_params: "tuple[tuple[str, object], ...]"


@dataclass(frozen=True)
class WorkerTask:
    """One FindNC computation order for :func:`execute_batch`.

    The engine's thread path builds it with the defaults; the pool stamps
    ``job_id`` and the snapshot ``header`` before pickling it onto a
    worker queue. ``trace`` is the request's trace id when the parent is
    recording spans for it — the worker then ships the member's phase
    spans back by wrapping the ``"ok"`` payload as ``(result, spans)``;
    with ``trace=None`` the payload is the bare result.
    """

    query_ids: "tuple[int, ...]"
    context_size: int
    alpha: float
    rng_seed: int
    config: WorkerConfig
    job_id: int = 0
    header: "SharedSnapshotHeader | None" = None
    trace: "str | None" = None


def execute_batch(view, snapshot, selector, tasks, recorder=None) -> list:
    """Run FindNC for every task against one pinned view; one outcome each.

    ``view`` is the graph (or snapshot view) the pin was built from,
    ``snapshot`` its compiled form and ``selector`` its frozen PPR
    selector. Tasks are grouped by candidate-label policy and context
    size; each group runs one shared multi-column power iteration
    (:meth:`~repro.core.context.RandomWalkContext.select_many`) and one
    label-masked fused sweep
    (:func:`~repro.core.distributions.sweep_counts_many`), then
    :meth:`~repro.core.findnc.FindNC.run` per member on the injected
    context and counters — byte-identical to ``FindNC.run`` on the member
    alone.

    Returns, in task order, each task's :class:`FindNCResult` or the
    exception it raised. If a group's shared phase fails, each member is
    re-run as a batch of one, so the error lands only on the member that
    caused it. ``StaleSnapshotError`` propagates: staleness is a property
    of the shared segment, hence of the whole batch.

    With a ``recorder``, each group records ``worker.ppr`` and
    ``worker.sweep`` for its members and each member its own
    ``worker.discriminate``, scoped by batch position (see
    :meth:`~repro.service.tracing.WorkerSpanRecorder.export`).
    """
    groups: "dict[tuple, list[int]]" = {}
    for index, task in enumerate(tasks):
        policy = (
            task.context_size,
            task.config.excluded_labels,
            task.config.include_inverse_labels,
        )
        groups.setdefault(policy, []).append(index)
    outcomes: list = [None] * len(tasks)
    pending = list(groups.values())
    while pending:
        indices = pending.pop()
        group = _outcome(
            _run_group, view, snapshot, selector, tasks, indices, recorder
        )
        if not isinstance(group, Exception):
            for index, outcome in zip(indices, group):
                outcomes[index] = outcome
        elif len(indices) == 1:
            outcomes[indices[0]] = group
        else:
            pending.extend([index] for index in indices)
    return outcomes


def _outcome(call, *args, **kwargs):
    """``call(*args, **kwargs)``, or the exception it raised.

    Catching in this frame, which holds no outcome list, keeps a failed
    member's traceback free of reference cycles: dropping the outcomes
    frees the frames at once, so no stray frame pins the attached
    snapshot's buffers past the next segment switch.
    """
    try:
        return call(*args, **kwargs)
    except StaleSnapshotError:
        raise
    except Exception as error:  # noqa: BLE001 - becomes the member's outcome
        return error


def _run_group(view, snapshot, selector, tasks, indices, recorder) -> list:
    """One policy group's shared phase, then each member's own run."""
    group = [tasks[index] for index in indices]
    finders = [
        FindNC(
            view,
            context_selector=selector,
            discriminator=MultinomialDiscriminator(
                alpha=task.alpha,
                rng=task.rng_seed,
                **dict(task.config.discriminator_params),
            ),
            context_size=task.context_size,
            excluded_labels=task.config.excluded_labels,
            include_inverse_labels=task.config.include_inverse_labels,
            none_bucket=task.config.none_bucket,
        )
        for task in group
    ]
    # The ids FindNC.run itself derives (deduped, order kept): the shared
    # selection and the sweep-cache keys must match them exactly.
    queries = [
        finder.resolve_query(task.query_ids) for finder, task in zip(finders, group)
    ]
    ppr_start = recorder.now() if recorder is not None else 0
    contexts = selector.select_many(queries, group[0].context_size)
    sweep_start = recorder.now() if recorder is not None else 0
    node_sets = queries + [tuple(context.nodes) for context in contexts]
    sweeps = sweep_counts_many(
        snapshot, node_sets, finders[0].candidate_label_mask(snapshot)
    )
    sweep_cache = dict(zip(node_sets, sweeps))
    if recorder is not None:
        recorder.record(
            "worker.ppr",
            ppr_start,
            sweep_start,
            members=indices,
            batch_size=len(group),
            context_size=group[0].context_size,
        )
        recorder.record(
            "worker.sweep",
            sweep_start,
            members=indices,
            batch_size=len(group),
            node_sets=len(node_sets),
        )
    outcomes = []
    for index, finder, query, context in zip(indices, finders, queries, contexts):
        start = recorder.now() if recorder is not None else 0
        outcomes.append(
            _outcome(
                finder.run,
                query,
                context=context,
                snapshot=snapshot,
                sweep_cache=sweep_cache,
            )
        )
        if recorder is not None:
            recorder.record(
                "worker.discriminate", start, members=(index,), queries=len(query)
            )
    return outcomes


def _replies(members, outcomes, recorder) -> list:
    """The ``(job_id, status, payload)`` entry of every member."""
    replies = []
    for index, (task, outcome) in enumerate(zip(members, outcomes)):
        if isinstance(outcome, Exception):
            remote = traceback.format_exception(
                type(outcome), outcome, outcome.__traceback__
            )
            replies.append(
                (task.job_id, "error", (repr(outcome), "".join(remote)))
            )
        elif recorder is not None and task.trace is not None:
            payload = (outcome, recorder.export(index))
            replies.append((task.job_id, "ok", payload))
        else:
            replies.append((task.job_id, "ok", outcome))
    return replies


def _worker_main(worker_index: int, task_queue, result_queue) -> None:
    """The worker process loop: attach-per-version, a batch per message.

    Each message is a tuple of :class:`WorkerTask` pinned to one segment;
    the reply is one list of ``(job_id, status, payload)`` entries, in
    member order, with status ``"ok"`` (payload: the pickled
    :class:`~repro.core.findnc.FindNCResult`), ``"stale"`` (the segment
    was unlinked before this worker could attach) or ``"error"``
    (payload: ``(repr, traceback string)``).
    """
    from repro.core.context import RandomWalkContext  # heavy import, worker-local

    # Chaos-test transport: the env var is the only channel that crosses
    # the spawn boundary, so workers arm their faults from it at startup.
    faults.install_from_env()

    attached = None
    attached_segment: str | None = None
    view: SnapshotGraphView | None = None
    selector = None

    while True:
        members: "tuple[WorkerTask, ...] | None" = task_queue.get()
        if members is None:
            break
        if faults.fire("worker.crash"):
            # Simulated hard crash mid-job: no result message, no cleanup
            # — exactly what the parent's watchdog must recover from. The
            # whole batch is lost; every member's watchdog surfaces the
            # crash and the engine's per-request retries re-dispatch (and
            # re-batch) them independently.
            os._exit(1)
        faults.fire("worker.slow")  # the rule's delay models a hung worker
        task = members[0]
        segment = task.header.segment
        # One recorder per received message: its origin (message receipt)
        # is what the parent rebases span offsets against at stitch time.
        recorder = (
            WorkerSpanRecorder()
            if any(member.trace is not None for member in members)
            else None
        )
        try:
            if attached_segment != segment:
                # New graph version: drop the old mapping (views first —
                # a memoryview with live exports cannot be released),
                # attach the new segment, rebuild the frozen transition
                # matrix from the shared arrays. Once per version, not
                # per request. `attached_segment` is only recorded after
                # the WHOLE initialization succeeds — a partial failure
                # (e.g. the transition build raising) must not leave this
                # worker believing the segment is ready, or every later
                # task for the version would skip re-initialization and
                # fail on the half-built state.
                selector = None
                view = None
                attached_segment = None
                if attached is not None:
                    attached.close()
                    attached = None
                attach_start = recorder.now() if recorder is not None else 0
                attached = _attach_header(task.header)
                view = SnapshotGraphView(attached)
                selector = RandomWalkContext(
                    view,
                    damping=task.config.damping,
                    iterations=task.config.iterations,
                    pin=True,
                )
                shared_transition = attached.transition()
                if shared_transition is not None:
                    # The publisher shared the frozen transition's CSR
                    # triple (through the segment or the snapshot file):
                    # adopt it zero-copy instead of rebuilding
                    # weighted_adjacency per worker per version.
                    selector.warm_from(shared_transition)
                else:
                    selector.warm()
                attached_segment = segment
                if recorder is not None:
                    recorder.record(
                        "worker.attach",
                        attach_start,
                        segment=segment,
                        shared_transition=shared_transition is not None,
                    )
            # One list message for the whole batch: result pickling and
            # queue transport are paid once per batch, not per member. No
            # local keeps the outcomes, so nothing outlives the reply to
            # pin this segment's buffers when the next message re-attaches.
            result_queue.put(
                _replies(
                    members,
                    execute_batch(
                        view,
                        view._compiled(),  # noqa: SLF001 - pinned per attach
                        selector,
                        members,
                        recorder,
                    ),
                    recorder,
                )
            )
        except StaleSnapshotError:
            attached = None
            attached_segment = None
            view = None
            selector = None
            result_queue.put(
                [(member.job_id, "stale", None) for member in members]
            )
        except BaseException as error:  # noqa: BLE001 - forwarded to the parent
            payload = (repr(error), traceback.format_exc())
            result_queue.put(
                [(member.job_id, "error", payload) for member in members]
            )

    # Orderly shutdown: release the mapping before the interpreter exits.
    selector = None
    view = None
    if attached is not None:
        attached.close()


class _Job:
    """Parent-side slot one in-flight task resolves into.

    ``process`` is ``None`` while the task waits in the pending deque (the
    dispatcher thread assigns it at batch send time); the waiter's
    liveness watchdog only engages once a process is attached.
    ``dispatched_ns`` is stamped at the same moment — the boundary between
    the trace's ``pool.gather`` span (pending wait) and its
    ``pool.worker`` span (dispatch through result).
    """

    __slots__ = ("event", "status", "payload", "process", "dispatched_ns")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: str | None = None
        self.payload: object = None
        self.process = None
        self.dispatched_ns: "int | None" = None


@dataclass(frozen=True)
class WorkerPoolStats:
    """A point-in-time snapshot of the pool counters."""

    workers: int
    alive: int
    dispatched: int
    completed: int
    stale_retries: int
    respawns: int
    inflight: int
    #: Jobs abandoned because their deadline expired mid-flight.
    deadline_abandons: int = 0
    #: Respawns refused by the rate limiter (slot left dead until
    #: :meth:`ProcessWorkerPool.revive` or the window rolls over).
    respawns_suppressed: int = 0
    #: Batches dispatched (a lone task is a batch of one).
    batches: int = 0
    #: Members across those batches; mean batch size = members / batches.
    batched_members: int = 0

    def as_dict(self) -> dict:
        """The JSON shape embedded in the engine's ``/stats`` payload."""
        return {
            "workers": self.workers,
            "alive": self.alive,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "stale_retries": self.stale_retries,
            "respawns": self.respawns,
            "inflight": self.inflight,
            "deadline_abandons": self.deadline_abandons,
            "respawns_suppressed": self.respawns_suppressed,
            "batches": self.batches,
            "batched_members": self.batched_members,
        }


class ProcessWorkerPool:
    """Round-robin pool of persistent FindNC worker processes.

    ``run`` is safe to call from many threads (the engine's thread pool
    is the dispatch layer); each call blocks until its worker answers.
    The pool never sees the graph — only snapshot headers and task
    parameters — which is what keeps the serialization boundary at
    "a few hundred bytes per request".

    ``on_event`` is an optional instrumentation callback ``(event: str,
    count: int)`` invoked outside the pool lock for ``"dispatch"``,
    ``"complete"``, ``"stale"``, ``"crash"``, ``"deadline_abandon"``,
    ``"respawn"``, ``"respawn_suppressed"`` and ``"batch_dispatch"``
    events (the engine wires it to its metrics registry); a raising
    callback is swallowed.

    Dispatch: ``run`` enqueues every task onto a pending deque, and a
    dispatcher thread groups them by snapshot segment into batches of up
    to ``max_batch``, waiting at most ``batch_window_ms`` for stragglers
    once a task is pending. With the default ``max_batch=1`` each task is
    a full batch on arrival and goes out alone at once.
    ``on_batch`` is an optional callback ``(size: int)`` fired per
    dispatched batch (the engine wires it to a batch-size histogram).
    """

    def __init__(
        self,
        workers: int,
        *,
        watchdog_tick: float = 0.5,
        crash_grace_s: float = 1.0,
        respawn_limit: int = 8,
        respawn_window_s: float = 30.0,
        batch_window_ms: float = 0.0,
        max_batch: int = 1,
        on_event=None,
        on_batch=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if watchdog_tick <= 0:
            raise ValueError(f"watchdog_tick must be > 0, got {watchdog_tick}")
        if crash_grace_s < 0:
            raise ValueError(f"crash_grace_s must be >= 0, got {crash_grace_s}")
        if respawn_limit < 1:
            raise ValueError(f"respawn_limit must be >= 1, got {respawn_limit}")
        if respawn_window_s <= 0:
            raise ValueError(
                f"respawn_window_s must be > 0, got {respawn_window_s}"
            )
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._watchdog_tick = watchdog_tick
        self._crash_grace_s = crash_grace_s
        self._respawn_limit = respawn_limit
        self._respawn_window_s = respawn_window_s
        self._on_event = on_event
        self._ctx = mp.get_context("spawn")
        self._result_queue = self._ctx.SimpleQueue()
        self._processes: list = []
        self._task_queues: list = []
        for index in range(workers):
            process, task_queue = self._spawn(index)
            self._processes.append(process)
            self._task_queues.append(task_queue)
        self.workers = workers
        self._lock = threading.Lock()
        self._jobs: dict[int, _Job] = {}
        self._job_ids = itertools.count(1)
        self._round_robin = 0
        self._dispatched = 0
        self._completed = 0
        self._stale_retries = 0
        self._respawns = 0
        self._respawn_times: "deque[float]" = deque()
        self._respawns_suppressed = 0
        self._deadline_abandons = 0
        self._closed = False
        self._max_batch = max_batch
        self._batch_window_s = batch_window_ms / 1000.0
        self._on_batch = on_batch
        self._batches = 0
        self._batched_members = 0
        self._pending: "deque[tuple[int, WorkerTask]]" = deque()
        self._batch_cond = threading.Condition(self._lock)
        self._dispatcher = threading.Thread(
            target=self._dispatch_batches, name="nc-batch-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._collector = threading.Thread(
            target=self._collect, name="nc-worker-collector", daemon=True
        )
        self._collector.start()

    def _emit(self, event: str, count: int = 1) -> None:
        """Fire the instrumentation callback; never let it break dispatch."""
        if self._on_event is None or count <= 0:
            return
        try:
            self._on_event(event, count)
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    def _spawn(self, index: int):
        """Start one worker process with its private task queue."""
        task_queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, task_queue, self._result_queue),
            name=f"nc-worker-{index}",
            daemon=True,
        )
        process.start()
        return process, task_queue

    def _respawn(self, dead) -> bool:
        """Replace ``dead`` with a fresh worker so its slot keeps serving.

        Without this, a single worker crash would permanently fail every
        job round-robined onto its slot. Jobs already queued to the dead
        worker are lost (their callers' watchdogs surface
        :class:`WorkerCrashError`); new dispatches get the replacement.
        Idempotent under races: only the caller that still finds ``dead``
        in the slot table respawns.

        Respawn storms are rate-limited: at most ``respawn_limit``
        replacements per rolling ``respawn_window_s`` window. A crash
        loop (bad snapshot, poisoned query, OOM killer) would otherwise
        burn CPU fork-bombing replacements that die immediately; past
        the limit the slot stays dead (``respawns_suppressed`` counts
        it) until the window rolls over or :meth:`revive` is called —
        the engine's circuit breaker observes the repeated
        :class:`WorkerCrashError` and degrades instead. Returns whether
        a replacement was actually started.
        """
        event: "str | None" = None
        try:
            with self._lock:
                if self._closed:
                    return False
                try:
                    slot = self._processes.index(dead)
                except ValueError:  # another caller already replaced it
                    return True
                if self._processes[slot].is_alive():  # pragma: no cover - raced
                    return True
                now = time.monotonic()
                while self._respawn_times and now - self._respawn_times[0] > self._respawn_window_s:
                    self._respawn_times.popleft()
                if len(self._respawn_times) >= self._respawn_limit:
                    self._respawns_suppressed += 1
                    event = "respawn_suppressed"
                    return False
                self._respawn_times.append(now)
                process, task_queue = self._spawn(slot)
                self._processes[slot] = process
                self._task_queues[slot] = task_queue
                self._respawns += 1
                event = "respawn"
                return True
        finally:
            if event is not None:
                self._emit(event)

    def revive(self) -> int:
        """Respawn every dead slot now, resetting the rate-limit window.

        The operator/recovery escape hatch after a crash storm ends
        (and what the engine's circuit breaker calls before a half-open
        probe): suppressed slots come back immediately instead of
        waiting out ``respawn_window_s``. Returns the number of slots
        revived.
        """
        revived = 0
        with self._lock:
            if self._closed:
                return 0
            self._respawn_times.clear()
            for slot, process in enumerate(self._processes):
                if process.is_alive():
                    continue
                replacement, task_queue = self._spawn(slot)
                self._processes[slot] = replacement
                self._task_queues[slot] = task_queue
                self._respawns += 1
                revived += 1
        self._emit("respawn", revived)
        return revived

    # -- dispatch ----------------------------------------------------------

    def run(
        self,
        *,
        header: SharedSnapshotHeader,
        query_ids: "tuple[int, ...]",
        context_size: int,
        alpha: float,
        rng_seed: int,
        config: WorkerConfig,
        deadline: "float | None" = None,
        trace=None,
        trace_span=None,
    ) -> FindNCResult:
        """Queue one task for the dispatcher; block until a worker answers.

        ``trace`` (a :class:`~repro.service.tracing.Trace`) opts this job
        into span recording: the task ships the trace id across the
        pickle boundary, the worker times its phases locally, and on
        completion this method stitches the result under ``trace_span``
        as ``pool.gather`` (wait in the pending deque) and
        ``pool.worker`` (dispatch → result, carrying the worker-recorded
        phase spans rebased onto the dispatch instant).

        ``deadline`` is an absolute :func:`time.monotonic` instant: an
        already-expired deadline cancels the job before dispatch, and an
        in-flight job whose deadline passes is abandoned (its slot is
        dropped, so the collector discards a late worker result) and
        surfaces :class:`~repro.errors.DeadlineExceededError` within one
        watchdog tick. The worker may still finish the computation — results are
        pure, so the only cost is wasted work.

        Raises :class:`StaleSnapshotError` when the snapshot was gone
        before the worker attached (callers re-dispatch with the current
        header), :class:`RemoteQueryError` for worker-side failures (and
        for a task that cannot be pickled onto a worker queue), and
        :class:`WorkerCrashError` if the worker process died.
        """
        if deadline is not None and time.monotonic() >= deadline:
            # Expired before dispatch: never enqueue work nobody will wait
            # for (this is the "queued-but-unstarted jobs are cancelled"
            # path — the engine's executor queue delay already ate the
            # whole budget).
            with self._lock:
                self._deadline_abandons += 1
            self._emit("deadline_abandon")
            raise DeadlineExceededError(
                "request deadline expired before the job could be dispatched"
            )
        enqueued_ns = time.monotonic_ns()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            job_id = next(self._job_ids)
            task = WorkerTask(
                query_ids=tuple(query_ids),
                context_size=context_size,
                alpha=alpha,
                rng_seed=rng_seed,
                config=config,
                job_id=job_id,
                header=header,
                trace=trace.trace_id if trace is not None else None,
            )
            # The dispatcher thread assigns the worker at batch send
            # time; until then the job has no process and the liveness
            # watchdog below stays out of the way.
            job = _Job()
            self._jobs[job_id] = job
            self._pending.append((job_id, task))
            self._batch_cond.notify()
            self._dispatched += 1
        self._emit("dispatch")
        # Wait with a liveness watchdog: a worker killed mid-job would
        # otherwise leave this job waiting forever. The wait is chunked
        # by the watchdog tick and clipped to the deadline, so both a
        # dead worker and an expired deadline surface within one tick.
        while True:
            wait_for = self._watchdog_tick
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    still_queued = job.process is None
                    self._abandon(job_id)
                    with self._lock:
                        self._deadline_abandons += 1
                    self._emit("deadline_abandon")
                    if still_queued:
                        # Shed THIS member only: the pending entry stays in
                        # the deque but the dispatcher drops job ids that
                        # are no longer registered, so batchmates still
                        # dispatch and execute untouched.
                        raise DeadlineExceededError(
                            f"job {job_id} missed its deadline while queued "
                            "in the batch window (the member was shed; its "
                            "batchmates were not)"
                        )
                    raise DeadlineExceededError(
                        f"job {job_id} missed its deadline while executing on "
                        f"{job.process.name} (the job was abandoned)"
                    )
                wait_for = min(wait_for, remaining)
            if job.event.wait(timeout=wait_for):
                break
            process = job.process
            if process is not None and not process.is_alive():
                # The worker may have finished the job (result already on
                # the queue) and died afterwards — give the collector a
                # grace window to drain it before declaring the job lost.
                if job.event.wait(timeout=self._crash_grace_s):
                    break
                self._abandon(job_id)
                self._emit("crash")
                replaced = self._respawn(process)
                raise WorkerCrashError(
                    f"worker {process.name} died while computing job "
                    f"{job_id} ("
                    + (
                        "a replacement worker was started"
                        if replaced
                        else "replacement suppressed by the respawn rate limit"
                    )
                    + ")"
                )
        if job.status == "ok":
            payload = job.payload
            if trace is not None:
                # A traced task's ok payload is (result, worker spans).
                result, worker_spans = payload  # type: ignore[misc]
                done_ns = time.monotonic_ns()
                dispatched_ns = job.dispatched_ns
                if dispatched_ns > enqueued_ns:
                    trace.add_span(
                        "pool.gather",
                        start_ns=enqueued_ns,
                        end_ns=dispatched_ns,
                        parent=trace_span,
                        attributes={
                            "window_ms": self._batch_window_s * 1000.0,
                            "max_batch": self._max_batch,
                        },
                    )
                process = job.process
                worker_span = trace.add_span(
                    "pool.worker",
                    start_ns=dispatched_ns,
                    end_ns=done_ns,
                    parent=trace_span,
                    attributes={
                        "worker_id": (
                            process.name if process is not None else "unknown"
                        ),
                    },
                )
                # Worker offsets count from message receipt, which is
                # after the dispatch instant; rebasing on dispatched_ns
                # keeps every remote span inside pool.worker.
                trace.add_remote_spans(
                    worker_spans, base_ns=dispatched_ns, parent=worker_span
                )
                return result
            return payload  # type: ignore[return-value]
        if job.status == "stale":
            with self._lock:
                self._stale_retries += 1
            self._emit("stale")
            raise StaleSnapshotError(
                f"segment {header.segment!r} was gone before the worker attached"
            )
        error_repr, remote_traceback = job.payload  # type: ignore[misc]
        raise RemoteQueryError(
            f"worker computation failed: {error_repr}\n--- worker traceback ---\n"
            f"{remote_traceback}"
        )

    def _abandon(self, job_id: int) -> "_Job | None":
        """Drop a job from the table; the job, if it was still there.

        The dispatcher skips a pending entry whose job is gone, and the
        collector discards a late result for it.
        """
        with self._lock:
            return self._jobs.pop(job_id, None)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_batches(self) -> None:
        """Drain pending tasks into segment-grouped micro-batches.

        Runs on the dedicated dispatcher thread, the one path from ``run``
        to a worker queue. Once a task is pending, up to
        ``batch_window_ms`` is spent gathering same-segment companions —
        the window caps queueing latency, ``max_batch`` caps batch size,
        and a batch that is already full (every lone task at
        ``max_batch=1``) goes out without waiting.
        Entries whose job id is no longer registered were shed by their
        caller's deadline while queued; they are dropped member-by-member
        without disturbing the rest of the batch. Tasks pinned to a
        different segment than the batch head keep their arrival order
        and form the next batch.

        Graceful drain: ``close()`` sets ``_closed`` and joins this
        thread *before* sending worker shutdown sentinels. Observing
        ``_closed`` here cuts the gather window short but still flushes
        every already-gathered member to the worker queues — the thread
        only exits once the pending deque is empty, so a request accepted
        before ``close()`` completes instead of being dropped
        (regression-pinned in ``tests/test_service_workers.py``).
        """
        while True:
            with self._batch_cond:
                while not self._pending and not self._closed:
                    self._batch_cond.wait()
                if self._closed and not self._pending:
                    return
                window_until = time.monotonic() + self._batch_window_s
                while True:
                    live = deque(
                        entry for entry in self._pending if entry[0] in self._jobs
                    )
                    self._pending = live
                    if not live:
                        break
                    head_segment = live[0][1].header.segment
                    ready = sum(
                        1
                        for _, task in live
                        if task.header.segment == head_segment
                    )
                    remaining = window_until - time.monotonic()
                    if ready >= self._max_batch or remaining <= 0 or self._closed:
                        break
                    self._batch_cond.wait(timeout=remaining)
                if not self._pending:
                    continue
                picked: list = []
                kept: "deque[tuple[int, WorkerTask]]" = deque()
                head_segment = self._pending[0][1].header.segment
                for entry in self._pending:
                    if (
                        len(picked) < self._max_batch
                        and entry[1].header.segment == head_segment
                    ):
                        picked.append(entry)
                    else:
                        kept.append(entry)
                self._pending = kept
                slot = self._round_robin % self.workers
                self._round_robin += 1
                process = self._processes[slot]
                dispatched_ns = time.monotonic_ns()
                for job_id, _task in picked:
                    job = self._jobs.get(job_id)
                    if job is not None:
                        job.process = process
                        job.dispatched_ns = dispatched_ns
                self._batches += 1
                self._batched_members += len(picked)
            self._emit("batch_dispatch")
            if self._on_batch is not None:
                try:
                    self._on_batch(len(picked))
                except Exception:  # noqa: BLE001 - observability is best-effort
                    pass
            try:
                self._task_queues[slot].put(tuple(task for _, task in picked))
            except BaseException as error:  # noqa: BLE001 - resolve all members
                payload = (repr(error), traceback.format_exc())
                for job_id, _task in picked:
                    job = self._abandon(job_id)
                    if job is not None:
                        job.status = "error"
                        job.payload = payload
                        job.event.set()

    # -- collection --------------------------------------------------------

    def _collect(self) -> None:
        while True:
            message = self._result_queue.get()
            if message is None:
                break
            # A batch answers with one list of per-member entries (one
            # pickle for the whole batch).
            for job_id, status, payload in message:
                with self._lock:
                    # An abandoned job (deadline or crash watchdog) is no
                    # longer registered: its late result is dropped here.
                    job = self._jobs.pop(job_id, None)
                    if job is not None:
                        self._completed += 1
                if job is not None:
                    job.status = status
                    job.payload = payload
                    job.event.set()
                    self._emit("complete")

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Drain in-flight work, then stop the dispatcher, workers and
        the collector.

        Graceful-drain ordering: setting ``_closed`` rejects *new* ``run``
        calls, then the dispatcher is joined so it flushes every
        already-gathered batch member onto the worker queues (it exits
        only once its pending deque is empty), then the shutdown
        sentinels go out *behind* that flushed work — queues are FIFO, so
        workers answer everything queued before exiting, and the
        collector resolves those jobs before draining its own sentinel.
        Only jobs still unresolved after all of that (e.g. lost to a dead
        worker) are failed as ``worker pool closed``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Wake the dispatcher so it observes _closed, flushes its pending
        # members, and exits before the worker queues receive their
        # shutdown sentinels.
        with self._batch_cond:
            self._batch_cond.notify_all()
        self._dispatcher.join(timeout=timeout)
        for task_queue in self._task_queues:
            task_queue.put(None)
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=timeout)
        self._result_queue.put(None)
        self._collector.join(timeout=timeout)
        with self._lock:
            leftover = list(self._jobs.values())
            self._jobs.clear()
        for job in leftover:  # unblock callers whose results never arrived
            job.status = "error"
            job.payload = ("RuntimeError('worker pool closed')", "")
            job.event.set()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def stats(self) -> WorkerPoolStats:
        """Counters for ``/stats`` and the benchmark report."""
        with self._lock:
            return WorkerPoolStats(
                workers=self.workers,
                alive=sum(1 for p in self._processes if p.is_alive()),
                dispatched=self._dispatched,
                completed=self._completed,
                stale_retries=self._stale_retries,
                respawns=self._respawns,
                inflight=len(self._jobs),
                deadline_abandons=self._deadline_abandons,
                respawns_suppressed=self._respawns_suppressed,
                batches=self._batches,
                batched_members=self._batched_members,
            )
