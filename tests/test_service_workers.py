"""Tests for the process execution backend (pool, lifecycle, parity)."""

from __future__ import annotations

import glob
import os
import sys
import threading
import time

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry, StaleSnapshotError, save_graph_snapshot
from repro.errors import DeadlineExceededError
from repro.service import faults
from repro.service.engine import EngineConfig, NCEngine
from repro.service.metrics import ServiceMetrics
from repro.service.workers import (
    ProcessWorkerPool,
    RemoteQueryError,
    WorkerConfig,
    WorkerCrashError,
)

QUERY = ["Angela_Merkel", "Barack_Obama"]


def _frozen_files() -> set[str]:
    """This process's frozen snapshot files currently linked in /dev/shm.

    Frozen file names carry the writer's pid, so a concurrent test run on
    the same host cannot add or remove a file from this listing.
    """
    return set(glob.glob(f"/dev/shm/repro-snap-v*-{os.getpid()}-*.snap"))


def _config() -> WorkerConfig:
    return WorkerConfig(
        damping=0.8,
        iterations=10,
        excluded_labels=None,
        include_inverse_labels=False,
        none_bucket=True,
        discriminator_params=(),
    )


@pytest.fixture(scope="module")
def pool():
    """One persistent single-worker pool shared by the pool-level tests."""
    with ProcessWorkerPool(1) as p:
        yield p


class TestProcessWorkerPool:
    def test_run_executes_findnc_remotely(self, pool, frozen):
        graph = figure1_graph()
        header = frozen(graph)
        result = pool.run(
            header=header,
            query_ids=(1, 2),
            context_size=3,
            alpha=0.05,
            rng_seed=123,
            config=_config(),
        )
        assert result.query == (1, 2)
        assert result.results

    def test_stale_segment_surfaces_as_retriable_error(self, pool, frozen):
        header = frozen(figure1_graph())
        os.unlink(header.path)  # the frozen copy is retired before any attach
        with pytest.raises(StaleSnapshotError):
            pool.run(
                header=header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )
        assert pool.stats().stale_retries == 1

    def test_worker_error_carries_remote_traceback(self, pool, frozen):
        header = frozen(figure1_graph())
        with pytest.raises(RemoteQueryError, match="worker traceback"):
            pool.run(
                header=header,
                query_ids=(10 ** 9,),  # beyond the snapshot: QueryError
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )

    def test_stats_counters(self, pool):
        stats = pool.stats()
        assert stats.workers == 1
        assert stats.alive == 1
        assert stats.dispatched >= 3
        assert stats.inflight == 0
        assert stats.as_dict()["workers"] == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(0)


class TestWorkerCrash:
    pytestmark = pytest.mark.chaos

    def test_dead_worker_raises_then_slot_recovers(self, frozen):
        pool = ProcessWorkerPool(1)
        header = frozen(figure1_graph())
        try:
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=10)
            with pytest.raises(WorkerCrashError):
                pool.run(
                    header=header,
                    query_ids=(1, 2),
                    context_size=3,
                    alpha=0.05,
                    rng_seed=123,
                    config=_config(),
                )
            # The watchdog respawned the slot: the next job must succeed
            # and the pool must report the replacement.
            result = pool.run(
                header=header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )
            assert result.query == (1, 2)
            stats = pool.stats()
            assert stats.respawns == 1
            assert stats.alive == 1
            assert stats.inflight == 0  # crashed job gave its slot back
        finally:
            pool.close()

    def test_sigkill_mid_job_recovers_slot(self, monkeypatch, frozen):
        """SIGKILL a worker while it is computing: the watchdog abandons
        the job, frees its slot, and replaces the worker."""
        # The first task stalls for 30s inside the worker (worker.slow is
        # read from the env at spawn), guaranteeing the SIGKILL lands
        # mid-job; the variable is cleared before the respawn so the
        # replacement worker is healthy.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:30:1")
        pool = ProcessWorkerPool(1, watchdog_tick=0.05, crash_grace_s=0.2)
        monkeypatch.delenv(faults.FAULTS_ENV)
        header = frozen(figure1_graph())
        try:
            victim = pool._processes[0]
            killer = threading.Timer(0.3, victim.kill)
            killer.start()
            started = time.monotonic()
            with pytest.raises(WorkerCrashError, match="replacement worker"):
                pool.run(
                    header=header,
                    query_ids=(1, 2),
                    context_size=3,
                    alpha=0.05,
                    rng_seed=123,
                    config=_config(),
                )
            # Surfaced within the kill delay + tick + grace, not the
            # worker's 30s stall.
            assert time.monotonic() - started < 5.0
            killer.join()
            stats = pool.stats()
            assert stats.respawns == 1
            assert stats.alive == 1
            assert stats.inflight == 0  # _abandon gave the slot back
            # The replacement worker serves the next job.
            result = pool.run(
                header=header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )
            assert result.query == (1, 2)
        finally:
            pool.close()

    def test_respawn_rate_limit_then_revive(self, frozen):
        pool = ProcessWorkerPool(
            1,
            watchdog_tick=0.05,
            crash_grace_s=0.2,
            respawn_limit=1,
            respawn_window_s=60.0,
        )
        header = frozen(figure1_graph())

        def crash_once() -> None:
            pool._processes[0].kill()
            pool._processes[0].join(timeout=10)

        def run_once():
            return pool.run(
                header=header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )

        try:
            crash_once()
            with pytest.raises(WorkerCrashError, match="replacement worker"):
                run_once()
            # Second crash inside the window: the respawn budget (1 per
            # 60s) is spent, so the dead slot stays down.
            crash_once()
            with pytest.raises(WorkerCrashError, match="suppressed"):
                run_once()
            stats = pool.stats()
            assert stats.respawns == 1
            assert stats.respawns_suppressed == 1
            assert stats.alive == 0
            # revive() resets the window and brings the slot back now.
            assert pool.revive() == 1
            assert pool.stats().alive == 1
            assert run_once().query == (1, 2)
        finally:
            pool.close()

    def test_revive_on_closed_pool_is_a_noop(self):
        pool = ProcessWorkerPool(1)
        pool.close()
        assert pool.revive() == 0


class TestPoolDeadlines:
    def test_expired_deadline_rejected_before_dispatch(self, pool, frozen):
        header = frozen(figure1_graph())
        dispatched_before = pool.stats().dispatched
        with pytest.raises(DeadlineExceededError, match="before the job"):
            pool.run(
                header=header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
                deadline=time.monotonic() - 0.01,
            )
        stats = pool.stats()
        assert stats.dispatched == dispatched_before  # never enqueued
        assert stats.deadline_abandons == 1

    def test_generous_deadline_does_not_interfere(self, pool, frozen):
        header = frozen(figure1_graph())
        result = pool.run(
            header=header,
            query_ids=(1, 2),
            context_size=3,
            alpha=0.05,
            rng_seed=123,
            config=_config(),
            deadline=time.monotonic() + 30.0,
        )
        assert result.query == (1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"watchdog_tick": 0.0},
            {"crash_grace_s": -0.1},
            {"respawn_limit": 0},
            {"respawn_window_s": 0.0},
        ],
    )
    def test_rejects_bad_tuning_kwargs(self, kwargs):
        with pytest.raises(ValueError):
            ProcessWorkerPool(1, **kwargs)


def _run(pool, header, query_ids=(1, 2)):
    return pool.run(
        header=header,
        query_ids=query_ids,
        context_size=3,
        alpha=0.05,
        rng_seed=123,
        config=_config(),
    )


def _stalling_pool(monkeypatch, stall_s: float, **kwargs) -> ProcessWorkerPool:
    """A one-worker pool whose worker stalls ``stall_s`` on its first batch."""
    monkeypatch.setenv(faults.FAULTS_ENV, f"worker.slow=1:{stall_s}:1")
    pool = ProcessWorkerPool(1, **kwargs)
    monkeypatch.delenv(faults.FAULTS_ENV)
    return pool


def _occupy(pool, header, results: list) -> threading.Thread:
    """Run one task on a thread; return once it is on the worker.

    From then on the pool's only worker is busy until that task answers,
    so later tasks gather instead of going out at once.
    """
    thread = threading.Thread(target=lambda: results.append(_run(pool, header)))
    thread.start()
    deadline = time.monotonic() + 10.0
    while pool.stats().batches < 1:
        if time.monotonic() > deadline:
            pytest.fail("the first task was never dispatched")
        time.sleep(0.005)
    return thread


class TestDispatcherDrain:
    def test_close_flushes_gathered_batch_members(self, frozen, monkeypatch):
        """Members sitting in the gather window survive ``close()``.

        Regression: the dispatcher used to exit as soon as ``_closed``
        was observed, dropping already-accepted tasks still waiting out
        the batch window — their callers then failed with "worker pool
        closed" even though the pool had acknowledged the work. The only
        worker is held by a stalled first task, and the window is far
        longer than the test, so every member is still gathered (not
        dispatched) when ``close()`` lands.
        """
        pool = _stalling_pool(
            monkeypatch, 2.0, max_batch=8, batch_window_ms=60_000.0
        )
        header = frozen(figure1_graph())
        held: "list" = []
        holder = _occupy(pool, header, held)
        results: "list" = []
        errors: "list[BaseException]" = []

        def submit() -> None:
            try:
                results.append(_run(pool, header))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with pool._lock:
                gathered = len(pool._pending)
            if gathered == len(threads):
                break
            time.sleep(0.01)
        else:
            pytest.fail("members never reached the gather window")

        pool.close()
        for thread in (holder, *threads):
            thread.join(timeout=60.0)
        assert not holder.is_alive() and held[0].query == (1, 2)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"flushed members failed: {errors!r}"
        assert len(results) == len(threads)
        assert all(result.query == (1, 2) for result in results)
        assert all(result.results for result in results)


class TestIdleFirstDispatch:
    """A free worker takes a task at once; the window bounds only the
    wait for a busy pool."""

    WINDOW_MS = 2000.0

    def test_idle_pool_sends_a_lone_task_at_once(self, frozen):
        header = frozen(figure1_graph())
        with ProcessWorkerPool(
            1, max_batch=8, batch_window_ms=self.WINDOW_MS
        ) as pool:
            _run(pool, header)  # pays the spawn and the attach
            started = time.monotonic()
            assert _run(pool, header).query == (1, 2)
            elapsed = time.monotonic() - started
        assert elapsed < self.WINDOW_MS / 1000.0 / 4

    def test_busy_pool_gathers_until_the_worker_frees(self, frozen, monkeypatch):
        """With a window far past the test, only the freed worker can
        release the gathered tasks, and it takes them as one batch."""
        pool = _stalling_pool(
            monkeypatch, 1.5, max_batch=8, batch_window_ms=60_000.0
        )
        header = frozen(figure1_graph())
        try:
            held: "list" = []
            holder = _occupy(pool, header, held)
            results: "list" = []
            threads = [
                threading.Thread(
                    target=lambda q=q: results.append(_run(pool, header, q))
                )
                for q in ((1,), (2,), (1, 2))
            ]
            for thread in threads:
                thread.start()
            for thread in (holder, *threads):
                thread.join(timeout=30.0)
            assert not any(t.is_alive() for t in (holder, *threads))
            stats = pool.stats()
        finally:
            pool.close()
        assert held[0].query == (1, 2)
        assert sorted(result.query for result in results) == [(1,), (1, 2), (2,)]
        assert stats.batches == 2
        assert stats.batched_members == 4

    @pytest.mark.chaos
    def test_respawned_slot_dispatches_at_once(self, frozen, monkeypatch):
        """A crash leaves no stale in-flight count on the respawned slot."""
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash=1")
        pool = ProcessWorkerPool(
            1,
            watchdog_tick=0.05,
            crash_grace_s=0.2,
            max_batch=8,
            batch_window_ms=self.WINDOW_MS,
        )
        monkeypatch.delenv(faults.FAULTS_ENV)
        header = frozen(figure1_graph())
        try:
            with pytest.raises(WorkerCrashError, match="replacement worker"):
                _run(pool, header)
            _run(pool, header)  # pays the replacement's spawn and attach
            started = time.monotonic()
            assert _run(pool, header).query == (1, 2)
            elapsed = time.monotonic() - started
            assert pool.stats().respawns == 1
        finally:
            pool.close()
        assert elapsed < self.WINDOW_MS / 1000.0 / 4

    @pytest.mark.chaos
    def test_every_slot_dead_still_raises_crash(self, frozen):
        """With respawn suppressed, the window sends work to the dead
        slot and the watchdog fails it instead of the task hanging."""
        pool = ProcessWorkerPool(
            1,
            watchdog_tick=0.05,
            crash_grace_s=0.2,
            respawn_limit=1,
            respawn_window_s=60.0,
            max_batch=8,
            batch_window_ms=1000.0,
        )
        header = frozen(figure1_graph())
        try:
            for outcome in ("replacement worker", "suppressed", "suppressed"):
                pool._processes[0].kill()
                pool._processes[0].join(timeout=10)
                started = time.monotonic()
                with pytest.raises(WorkerCrashError, match=outcome):
                    _run(pool, header)
                assert time.monotonic() - started < 5.0
            assert pool.stats().alive == 0
            # revive() starts the slot idle again: a lone task goes at once.
            assert pool.revive() == 1
            _run(pool, header)
            started = time.monotonic()
            assert _run(pool, header).query == (1, 2)
            assert time.monotonic() - started < 0.5
        finally:
            pool.close()


class TestOneDispatchPath:
    """Every task reaches a worker through the dispatcher thread."""

    def test_default_pool_dispatches_each_run_as_a_batch_of_one(self, frozen):
        header = frozen(figure1_graph())
        runs = 3
        with ProcessWorkerPool(1) as pool:
            for _ in range(runs):
                result = pool.run(
                    header=header,
                    query_ids=(1, 2),
                    context_size=3,
                    alpha=0.05,
                    rng_seed=123,
                    config=_config(),
                )
                assert result.query == (1, 2)
            stats = pool.stats()
        assert stats.batches == stats.batched_members == runs
        assert stats.completed == runs

    def test_completion_is_counted_before_run_returns(self, frozen):
        """The ``complete`` series already counts a run that has returned,
        so ``/v1/stats`` and ``/v1/metrics`` read right after it agree."""
        header = frozen(figure1_graph())
        metrics = ServiceMetrics()
        # Frequent thread switches let a woken caller run before the
        # collector's next statement, which is where a late count shows.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ProcessWorkerPool(1, metrics=metrics) as pool:
                for returned in range(1, 51):
                    _run(pool, header)
                    assert metrics.worker_events.value(event="complete") == returned
                    assert pool.stats().completed == returned
        finally:
            sys.setswitchinterval(switch_interval)

    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_unpicklable_task_fails_alone_at_any_batch_width(self, max_batch, frozen):
        """A task that cannot be pickled onto a worker queue surfaces as
        ``RemoteQueryError`` and frees its slot, whatever ``max_batch``."""
        header = frozen(figure1_graph())
        unpicklable = WorkerConfig(
            damping=0.8,
            iterations=10,
            excluded_labels=None,
            include_inverse_labels=False,
            none_bucket=True,
            discriminator_params=(("hook", lambda: None),),
        )
        task = dict(
            header=header,
            query_ids=(1, 2),
            context_size=3,
            alpha=0.05,
            rng_seed=123,
        )
        with ProcessWorkerPool(1, max_batch=max_batch) as pool:
            with pytest.raises(RemoteQueryError):
                pool.run(config=unpicklable, **task)
            assert pool.stats().inflight == 0
            assert pool.run(config=_config(), **task).query == (1, 2)


class TestProcessEngine:
    @pytest.fixture()
    def graph(self):
        return figure1_graph()

    @pytest.mark.slow
    def test_parity_lifecycle_and_no_segment_leaks(self, graph, tmp_path):
        before = _frozen_files()
        with NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=2, seed=5),
        ) as thread_engine:
            thread_results = [
                thread_engine.search(QUERY),
                thread_engine.search(["Vladimir_Putin"]),
            ]
        with NCEngine(
            graph,
            config=EngineConfig(
                context_size=3,
                max_workers=2,
                executor="process",
                seed=5,
            ),
        ) as engine:
            # -- result parity with the thread backend ---------------------
            process_results = [
                engine.search(QUERY),
                engine.search(["Vladimir_Putin"]),
            ]
            for mine, theirs in zip(process_results, thread_results):
                assert mine.query == theirs.query
                assert [r.label for r in mine.results] == [
                    r.label for r in theirs.results
                ]
                assert [r.score for r in mine.results] == [
                    r.score for r in theirs.results
                ]
                assert mine.notable_labels() == theirs.notable_labels()

            # -- cache / coalescing stay in the parent ---------------------
            outcome = engine.request(QUERY)
            assert outcome.cached
            stats = engine.stats()
            assert stats.executor == "process"
            assert stats.workers is not None and stats.workers["workers"] == 2
            assert stats.workers["completed"] >= 2

            # -- swap onto a newer snapshot: the frozen copy's file is
            # unlinked once its version drains (no request references it) --
            first_file = engine.pin().header.path
            assert first_file in _frozen_files()
            graph.add_edge(
                graph.add_node("New_Entity"), "type", graph.add_node("new_type")
            )
            save_graph_snapshot(graph, tmp_path / "v2.snap")
            assert engine.swap_snapshot(tmp_path / "v2.snap").swapped
            fresh = engine.search(QUERY)
            assert fresh is not outcome.result  # old version's cache purged
            assert engine.pin().header.path == str(tmp_path / "v2.snap")
            assert first_file not in _frozen_files()
            assert (tmp_path / "v2.snap").exists()  # a served file is never unlinked
        # -- engine close unlinks everything it published ------------------
        assert _frozen_files() <= before

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("use", ["none", "pin", "search"])
    def test_graph_built_engine_leaves_no_segment(self, graph, executor, use):
        before = _frozen_files()
        engine = NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=1, executor=executor),
        )
        try:
            assert len(_frozen_files() - before) == 1  # the frozen copy
            if use == "pin":
                engine.pin()
            elif use == "search":
                assert engine.search(QUERY).results
        finally:
            engine.close()
        assert _frozen_files() <= before

    def test_stale_redispatch_holds_its_pin(self, tmp_path, monkeypatch):
        """A stale re-dispatch runs on a pin it holds a reference to.

        The first dispatch swaps v1 -> v2 and reports its snapshot stale;
        the re-dispatch then observes the fresh v2 pin's in-flight count
        and swaps again, v2 -> v3, while it still runs on v2.
        """
        registry = SnapshotRegistry(tmp_path / "serving")
        for _ in range(3):
            registry.publish_graph(figure1_graph())
        run = ProcessWorkerPool.run
        dispatched, observed = [], {}
        config = EngineConfig(
            context_size=3, max_workers=1, executor="process", seed=5
        )
        with NCEngine(registry.open_view(2), config=config) as fresh:
            expected = fresh.search(QUERY)
        with NCEngine(registry.open_view(1), config=config) as engine:

            def racing_run(pool, **kwargs):
                dispatched.append(kwargs["header"].version)
                if len(dispatched) == 1:
                    engine.swap_snapshot(registry.open_view(2))
                    raise StaleSnapshotError("snapshot retired before attach")
                observed["inflight"] = engine.pin().lifecycle.inflight
                engine.swap_snapshot(registry.open_view(3))
                observed["drained"] = engine.stats().drained_versions
                return run(pool, **kwargs)

            monkeypatch.setattr(ProcessWorkerPool, "run", racing_run)
            result = engine.search(QUERY)
            stats = engine.stats()
        assert dispatched == [1, 2]
        # v2 is held by the re-dispatch and v1 by the request itself, so
        # neither drains while the job runs; both do once it returns.
        assert observed == {"inflight": 1, "drained": ()}
        assert sorted(stats.drained_versions) == [1, 2]
        assert stats.retries == 1
        assert [(r.label, r.score) for r in result.results] == [
            (r.label, r.score) for r in expected.results
        ]

    def test_deterministic_across_backends_and_cache_clears(self, graph):
        with NCEngine(
            graph,
            config=EngineConfig(
                context_size=3,
                max_workers=1,
                executor="process",
                seed=5,
            ),
        ) as engine:
            first = engine.search(QUERY)
            engine.cache.clear()
            second = engine.search(QUERY)
            assert first is not second
            assert [r.score for r in first.results] == [
                r.score for r in second.results
            ]

    def test_rejects_unknown_executor(self, graph):
        with pytest.raises(ValueError, match="executor"):
            NCEngine(graph, config=EngineConfig(executor="fiber"))
