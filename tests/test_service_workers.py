"""Tests for the process execution backend (pool, lifecycle, parity)."""

from __future__ import annotations

import glob
import threading
import time

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry, save_graph_snapshot
from repro.errors import DeadlineExceededError
from repro.parallel.shm import StaleSnapshotError, publish_graph
from repro.service import faults
from repro.service.engine import EngineConfig, NCEngine
from repro.service.workers import (
    ProcessWorkerPool,
    RemoteQueryError,
    WorkerConfig,
    WorkerCrashError,
)

QUERY = ["Angela_Merkel", "Barack_Obama"]


def _segments() -> set[str]:
    """The repro snapshot segments currently linked on this host."""
    return set(glob.glob("/dev/shm/repro-snap-*"))


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
    def test_run_executes_findnc_remotely(self, pool):
        graph = figure1_graph()
        shared = publish_graph(graph)
        try:
            result = pool.run(
                header=shared.header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )
            assert result.query == (1, 2)
            assert result.results
        finally:
            shared.unlink()

    def test_stale_segment_surfaces_as_retriable_error(self, pool):
        shared = publish_graph(figure1_graph())
        header = shared.header
        shared.unlink()
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

    def test_worker_error_carries_remote_traceback(self, pool):
        shared = publish_graph(figure1_graph())
        try:
            with pytest.raises(RemoteQueryError, match="worker traceback"):
                pool.run(
                    header=shared.header,
                    query_ids=(10 ** 9,),  # beyond the snapshot: QueryError
                    context_size=3,
                    alpha=0.05,
                    rng_seed=123,
                    config=_config(),
                )
        finally:
            shared.unlink()

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

    def test_dead_worker_raises_then_slot_recovers(self):
        pool = ProcessWorkerPool(1)
        shared = publish_graph(figure1_graph())
        try:
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=10)
            with pytest.raises(WorkerCrashError):
                pool.run(
                    header=shared.header,
                    query_ids=(1, 2),
                    context_size=3,
                    alpha=0.05,
                    rng_seed=123,
                    config=_config(),
                )
            # The watchdog respawned the slot: the next job must succeed
            # and the pool must report the replacement.
            result = pool.run(
                header=shared.header,
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
            shared.unlink()
            pool.close()

    def test_sigkill_mid_job_recovers_slot(self, monkeypatch):
        """SIGKILL a worker while it is computing: the watchdog abandons
        the job, frees its slot, and replaces the worker."""
        # The first task stalls for 30s inside the worker (worker.slow is
        # read from the env at spawn), guaranteeing the SIGKILL lands
        # mid-job; the variable is cleared before the respawn so the
        # replacement worker is healthy.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:30:1")
        pool = ProcessWorkerPool(1, watchdog_tick=0.05, crash_grace_s=0.2)
        monkeypatch.delenv(faults.FAULTS_ENV)
        shared = publish_graph(figure1_graph())
        try:
            victim = pool._processes[0]
            killer = threading.Timer(0.3, victim.kill)
            killer.start()
            started = time.monotonic()
            with pytest.raises(WorkerCrashError, match="replacement worker"):
                pool.run(
                    header=shared.header,
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
                header=shared.header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
            )
            assert result.query == (1, 2)
        finally:
            shared.unlink()
            pool.close()

    def test_respawn_rate_limit_then_revive(self):
        pool = ProcessWorkerPool(
            1,
            watchdog_tick=0.05,
            crash_grace_s=0.2,
            respawn_limit=1,
            respawn_window_s=60.0,
        )
        shared = publish_graph(figure1_graph())

        def crash_once() -> None:
            pool._processes[0].kill()
            pool._processes[0].join(timeout=10)

        def run_once():
            return pool.run(
                header=shared.header,
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
            shared.unlink()
            pool.close()

    def test_revive_on_closed_pool_is_a_noop(self):
        pool = ProcessWorkerPool(1)
        pool.close()
        assert pool.revive() == 0


class TestPoolDeadlines:
    def test_expired_deadline_rejected_before_dispatch(self, pool):
        shared = publish_graph(figure1_graph())
        try:
            dispatched_before = pool.stats().dispatched
            with pytest.raises(DeadlineExceededError, match="before the job"):
                pool.run(
                    header=shared.header,
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
        finally:
            shared.unlink()

    def test_generous_deadline_does_not_interfere(self, pool):
        shared = publish_graph(figure1_graph())
        try:
            result = pool.run(
                header=shared.header,
                query_ids=(1, 2),
                context_size=3,
                alpha=0.05,
                rng_seed=123,
                config=_config(),
                deadline=time.monotonic() + 30.0,
            )
            assert result.query == (1, 2)
        finally:
            shared.unlink()

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


class TestDispatcherDrain:
    def test_close_flushes_gathered_batch_members(self):
        """Members sitting in the gather window survive ``close()``.

        Regression: the dispatcher used to exit as soon as ``_closed``
        was observed, dropping already-accepted tasks still waiting out
        the batch window — their callers then failed with "worker pool
        closed" even though the pool had acknowledged the work. The
        window here is far longer than the test, so every member is
        still gathered (not dispatched) when ``close()`` lands.
        """
        pool = ProcessWorkerPool(1, max_batch=8, batch_window_ms=60_000.0)
        shared = publish_graph(figure1_graph())
        results: "list" = []
        errors: "list[BaseException]" = []

        def submit() -> None:
            try:
                results.append(
                    pool.run(
                        header=shared.header,
                        query_ids=(1, 2),
                        context_size=3,
                        alpha=0.05,
                        rng_seed=123,
                        config=_config(),
                    )
                )
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(3)]
        try:
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
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, f"flushed members failed: {errors!r}"
            assert len(results) == len(threads)
            assert all(result.query == (1, 2) for result in results)
            assert all(result.results for result in results)
        finally:
            shared.unlink()


class TestOneDispatchPath:
    """Every task reaches a worker through the dispatcher thread."""

    def test_default_pool_dispatches_each_run_as_a_batch_of_one(self):
        shared = publish_graph(figure1_graph())
        runs = 3
        try:
            with ProcessWorkerPool(1) as pool:
                for _ in range(runs):
                    result = pool.run(
                        header=shared.header,
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
        finally:
            shared.unlink()

    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_unpicklable_task_fails_alone_at_any_batch_width(self, max_batch):
        """A task that cannot be pickled onto a worker queue surfaces as
        ``RemoteQueryError`` and frees its slot, whatever ``max_batch``."""
        shared = publish_graph(figure1_graph())
        unpicklable = WorkerConfig(
            damping=0.8,
            iterations=10,
            excluded_labels=None,
            include_inverse_labels=False,
            none_bucket=True,
            discriminator_params=(("hook", lambda: None),),
        )
        task = dict(
            header=shared.header,
            query_ids=(1, 2),
            context_size=3,
            alpha=0.05,
            rng_seed=123,
        )
        try:
            with ProcessWorkerPool(1, max_batch=max_batch) as pool:
                with pytest.raises(RemoteQueryError):
                    pool.run(config=unpicklable, **task)
                assert pool.stats().inflight == 0
                assert pool.run(config=_config(), **task).query == (1, 2)
        finally:
            shared.unlink()


class TestProcessEngine:
    @pytest.fixture()
    def graph(self):
        return figure1_graph()

    @pytest.mark.slow
    def test_parity_lifecycle_and_no_segment_leaks(self, graph, tmp_path):
        before = _segments()
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

            # -- swap onto a newer snapshot: the frozen copy's segment is
            # unlinked once its version drains (no request references it) --
            first_segment = engine.pin().header.segment
            assert f"/dev/shm/{first_segment}" in _segments()
            graph.add_edge(
                graph.add_node("New_Entity"), "type", graph.add_node("new_type")
            )
            save_graph_snapshot(graph, tmp_path / "v2.snap")
            assert engine.swap_snapshot(tmp_path / "v2.snap").swapped
            fresh = engine.search(QUERY)
            assert fresh is not outcome.result  # old version's cache purged
            assert engine.pin().header.segment.startswith("file://")
            assert f"/dev/shm/{first_segment}" not in _segments()
        # -- engine close unlinks everything it published ------------------
        assert _segments() <= before

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("use", ["none", "pin", "search"])
    def test_graph_built_engine_leaves_no_segment(self, graph, executor, use):
        before = _segments()
        engine = NCEngine(
            graph,
            config=EngineConfig(context_size=3, max_workers=1, executor=executor),
        )
        try:
            assert len(_segments() - before) == 1  # the frozen copy
            if use == "pin":
                engine.pin()
            elif use == "search":
                assert engine.search(QUERY).results
        finally:
            engine.close()
        assert _segments() <= before

    def test_stale_redispatch_holds_its_pin(self, tmp_path, monkeypatch):
        """A stale re-dispatch runs on a pin it holds a reference to.

        The first dispatch swaps v1 -> v2 and reports its segment stale;
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
                    raise StaleSnapshotError("segment retired before attach")
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
