"""Differential parity suite for the batched FindNC execution path.

The contract under test: batching NEVER changes bits. A query's FindNC
answer must be byte-identical whether it ran alone through
``FindNC.run`` (per-query ``select``, unmasked candidate enumeration, no
sweep cache) or inside a :func:`repro.service.workers.execute_batch`
batch with arbitrary other queries, whatever the batch composition or
the snapshot version mix. Every layer of the batching stack is pinned
against its solo counterpart:

* ``power_iteration_batch`` on concatenated columns vs. per-group runs
  (bitwise, both tolerance modes) — hypothesis-driven;
* ``PersonalizedPageRank.top_k_many`` vs. ``top_k``;
* ``RandomWalkContext.select_many`` vs. ``select``;
* ``execute_batch`` vs. ``FindNC.run`` per query (full result payloads,
  mixed context sizes and label policies, duplicate ids, a failing
  member) — hypothesis-driven;
* solo and micro-batched ``ProcessWorkerPool`` runs vs. ``FindNC.run``,
  including batches spanning two snapshot versions.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import RandomWalkContext
from repro.core.discrimination import MultinomialDiscriminator
from repro.core.findnc import FindNC
from repro.datasets.figure1 import figure1_graph
from repro.disk import StaleSnapshotError
from repro.service import faults
from repro.service.tracing import WorkerSpanRecorder
from repro.service.workers import (
    ProcessWorkerPool,
    WorkerConfig,
    WorkerTask,
    execute_batch,
)
from repro.walk.pagerank import (
    PersonalizedPageRank,
    _personalization_columns,
    power_iteration_batch,
)

# --------------------------------------------------------------------------
# Shared graphs and strategies
# --------------------------------------------------------------------------

_GRAPHS: dict = {}


def _graph(name: str):
    """Build each test graph once per process (hypothesis reruns examples)."""
    if name not in _GRAPHS:
        if name == "figure1":
            _GRAPHS[name] = figure1_graph()
        else:
            from repro.datasets.yago import synthetic_yago

            _GRAPHS[name] = synthetic_yago(scale=0.5, seed=11)
    return _GRAPHS[name]


_RUNNERS: dict = {}


def _runner(name: str, tolerance: "float | None") -> PersonalizedPageRank:
    key = (name, tolerance)
    if key not in _RUNNERS:
        runner = PersonalizedPageRank(_graph(name), tolerance=tolerance)
        runner.transition()  # warm: the matrix build is not under test
        _RUNNERS[key] = runner
    return _RUNNERS[key]


@st.composite
def batch_cases(draw):
    """A graph, a tolerance mode, and 1-5 query groups of width 1-3."""
    name = draw(st.sampled_from(["figure1", "yago"]))
    tolerance = draw(st.sampled_from([None, 1e-6]))
    n = _graph(name).node_count
    groups = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            min_size=1,
            max_size=5,
        )
    )
    ks = draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=len(groups),
            max_size=len(groups),
        )
    )
    return name, tolerance, groups, ks


# --------------------------------------------------------------------------
# Layer 1: the numerical core
# --------------------------------------------------------------------------


class TestPowerIterationBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_concatenated_batch_is_bitwise_equal_to_solo_runs(self, case):
        name, tolerance, groups, _ = case
        runner = _runner(name, tolerance)
        transition = runner.transition()
        n = transition.shape[0]
        per_group = [_personalization_columns(n, g) for g in groups]
        batched = power_iteration_batch(
            transition,
            np.concatenate(per_group, axis=1),
            tolerance=tolerance,
        )
        offset = 0
        for cols in per_group:
            solo = power_iteration_batch(transition, cols, tolerance=tolerance)
            width = cols.shape[1]
            got = batched[:, offset : offset + width]
            # Bitwise: not allclose. Batchmates must not move a single ulp.
            assert np.array_equal(got, solo), (
                f"batched columns [{offset}:{offset + width}] diverge from a "
                f"solo run (graph={name}, tolerance={tolerance})"
            )
            offset += width

    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_member_score_reduction_matches_solo(self, case):
        """The per-member row-sum fan-out is bitwise too (not just columns)."""
        name, tolerance, groups, _ = case
        runner = _runner(name, tolerance)
        transition = runner.transition()
        n = transition.shape[0]
        per_group = [_personalization_columns(n, g) for g in groups]
        batched = power_iteration_batch(
            transition,
            np.concatenate(per_group, axis=1),
            tolerance=tolerance,
        )
        offset = 0
        for group, cols in zip(groups, per_group):
            width = cols.shape[1]
            fanned = np.ascontiguousarray(
                batched[:, offset : offset + width]
            ).sum(axis=1)
            solo = power_iteration_batch(
                transition, cols, tolerance=tolerance
            ).sum(axis=1)
            assert np.array_equal(fanned, solo)
            offset += width


class TestTopKManyParity:
    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_top_k_many_equals_per_group_top_k(self, case):
        name, tolerance, groups, ks = case
        runner = _runner(name, tolerance)
        batched = runner.top_k_many(groups, ks)
        for group, k, got in zip(groups, ks, batched):
            assert got == runner.top_k(group, k)

    def test_empty_batch(self):
        assert _runner("figure1", None).top_k_many([], []) == []

    def test_k_zero_members_cost_no_columns_and_return_empty(self):
        runner = _runner("figure1", None)
        out = runner.top_k_many([[1], [2], [3]], [0, 3, 0])
        assert out[0] == [] and out[2] == []
        assert out[1] == runner.top_k([2], 3)

    def test_mismatched_lengths_rejected(self):
        runner = _runner("figure1", None)
        with pytest.raises(ValueError, match="same length"):
            runner.top_k_many([[1], [2]], [3])
        with pytest.raises(ValueError, match="same length"):
            runner.top_k_many([[1]], [3], excludes=[None, None])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            _runner("figure1", None).top_k_many([[1]], [-1])


class TestSelectManyParity:
    @settings(max_examples=15, deadline=None)
    @given(batch_cases())
    def test_select_many_equals_per_query_select(self, case):
        name, tolerance, groups, _ = case
        selector = RandomWalkContext(_graph(name), tolerance=tolerance)
        batched = selector.select_many(groups, 5)
        for query, got in zip(groups, batched):
            solo = selector.select(query, 5)
            assert got.query == solo.query
            assert got.ranked_nodes == solo.ranked_nodes
            assert got.scores == solo.scores  # exact float equality
            assert got.algorithm == solo.algorithm


# --------------------------------------------------------------------------
# Layer 2: execute_batch against FindNC.run (in process)
# --------------------------------------------------------------------------


def _config(
    excluded_labels: "frozenset[str] | None" = None,
    include_inverse_labels: bool = False,
) -> WorkerConfig:
    return WorkerConfig(
        damping=0.8,
        iterations=10,
        excluded_labels=excluded_labels,
        include_inverse_labels=include_inverse_labels,
        none_bucket=True,
        discriminator_params=(),
    )


def _pool_task(query_ids) -> WorkerTask:
    """The fixed-parameter task the example-based tests run, for ``query_ids``."""
    return WorkerTask(
        query_ids=tuple(query_ids),
        context_size=3,
        alpha=0.05,
        rng_seed=123,
        config=_config(),
    )


def _reference(graph, task: WorkerTask):
    """``FindNC.run`` on one task alone: per-query ``select``, unmasked
    candidate enumeration, no injected context and no sweep cache."""
    config = task.config
    finder = FindNC(
        graph,
        context_selector=RandomWalkContext(
            graph, damping=config.damping, iterations=config.iterations
        ),
        discriminator=MultinomialDiscriminator(
            alpha=task.alpha, rng=task.rng_seed, **dict(config.discriminator_params)
        ),
        context_size=task.context_size,
        excluded_labels=config.excluded_labels,
        include_inverse_labels=config.include_inverse_labels,
        none_bucket=config.none_bucket,
    )
    return finder.run(task.query_ids)


def _payload(result) -> str:
    """The ``repr`` of an order-preserving projection of a FindNCResult.

    Everything but the wall-clock timings. ``repr`` round-trips every
    float exactly and names numpy scalar types, so equal payloads mean
    bit-equal values of the same types (NaN scores compare equal,
    ``-0.0`` and ``0.0`` do not).
    """
    return repr(
        (
            result.query,
            result.context.query,
            tuple(result.context.ranked_nodes),
            tuple(sorted(result.context.scores.items())),
            result.context.algorithm,
            tuple(
                (r.label, r.score, r.inst_score, r.card_score, r.inst_p_value,
                 r.card_p_value, r.channel, r.notable)
                for r in result.results
            ),
            tuple((n.label, n.score, n.channel, n.p_value) for n in result.notable),
        )
    )


_PINS: dict = {}


def _pin(name: str):
    """``(snapshot, frozen selector)`` over one test graph, built once."""
    if name not in _PINS:
        graph = _graph(name)
        selector = RandomWalkContext(graph, damping=0.8, iterations=10, pin=True)
        selector.warm()
        _PINS[name] = (graph.compiled(), selector)
    return _PINS[name]


@st.composite
def execution_batches(draw):
    """A graph and 1-5 tasks: mixed context sizes and label policies, ids
    that may repeat within and across members, and optionally one member
    naming an out-of-range node."""
    name = draw(st.sampled_from(["figure1", "yago"]))
    n = _graph(name).node_count
    queries = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    if draw(st.booleans()):  # a duplicate member
        queries.append(draw(st.sampled_from(queries)))
    bad = draw(st.none() | st.integers(min_value=0, max_value=len(queries)))
    if bad is not None:  # one member with an out-of-range id
        queries.insert(bad, [draw(st.sampled_from(queries[0])), n])
    tasks = [
        WorkerTask(
            query_ids=tuple(query),
            context_size=draw(st.sampled_from([2, 3, 5])),
            alpha=0.05,
            rng_seed=draw(st.integers(min_value=0, max_value=2**32)),
            config=_config(
                excluded_labels=draw(st.sampled_from([None, frozenset()])),
                include_inverse_labels=draw(st.booleans()),
            ),
        )
        for query in queries
    ]
    return name, tasks, bad


class TestExecuteBatchParity:
    @settings(max_examples=20, deadline=None)
    @given(execution_batches())
    def test_batch_members_match_findnc_run_alone(self, case):
        name, tasks, bad = case
        graph = _graph(name)
        snapshot, selector = _pin(name)
        outcomes = execute_batch(graph, snapshot, selector, tasks)
        assert len(outcomes) == len(tasks)
        for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
            if index == bad:
                # The failing member gets its own error, the one FindNC.run
                # raises on it; its batchmates are still compared below.
                assert isinstance(outcome, Exception), outcome
                with pytest.raises(type(outcome)):
                    _reference(graph, task)
                continue
            assert not isinstance(outcome, Exception), outcome
            assert _payload(outcome) == _payload(_reference(graph, task))

    def test_failing_member_does_not_poison_its_group(self):
        """One bad member in a shared group: its batchmates still match."""
        graph = _graph("figure1")
        snapshot, selector = _pin("figure1")
        tasks = [_pool_task(q) for q in [(1,), (2, graph.node_count), (1, 2)]]
        outcomes = execute_batch(graph, snapshot, selector, tasks)
        assert isinstance(outcomes[1], Exception)
        for index in (0, 2):
            assert _payload(outcomes[index]) == _payload(
                _reference(graph, tasks[index])
            )

    def test_stale_snapshot_fails_the_whole_batch(self):
        """Staleness belongs to the segment, so it is never one outcome."""

        class _StaleSelector:
            def select_many(self, queries, k):
                raise StaleSnapshotError("segment retired")

        graph = _graph("figure1")
        tasks = [_pool_task((1,)), _pool_task((2,))]
        with pytest.raises(StaleSnapshotError):
            execute_batch(graph, graph.compiled(), _StaleSelector(), tasks)

    def test_each_traced_member_gets_every_phase_span(self):
        graph = _graph("figure1")
        snapshot, selector = _pin("figure1")
        recorder = WorkerSpanRecorder()
        tasks = [_pool_task((1,)), _pool_task((2,))]
        execute_batch(graph, snapshot, selector, tasks, recorder)
        for member in (0, 1):
            names = [span["name"] for span in recorder.export(member)]
            assert names.count("worker.ppr") == 1
            assert names.count("worker.sweep") == 1
            assert names.count("worker.discriminate") == 1
        own = [
            next(s for s in recorder.export(m) if s["name"] == "worker.discriminate")
            for m in (0, 1)
        ]
        assert own[0] != own[1]

    def test_mask_admits_exactly_the_filtered_candidates(self):
        graph = _graph("figure1")
        snapshot = graph.compiled()
        table = graph._label_table()  # noqa: SLF001 - label ids only grow
        for config in (_config(), _config(frozenset(), True)):
            finder = FindNC(
                graph,
                excluded_labels=config.excluded_labels,
                include_inverse_labels=config.include_inverse_labels,
            )
            mask = finder.candidate_label_mask(snapshot)
            admitted = [
                table.name(label_id)
                for label_id in range(snapshot.label_count)
                if mask[label_id]
            ]
            names = [table.name(i) for i in range(snapshot.label_count)]
            assert admitted == finder._filter_candidates(names)  # noqa: SLF001


# --------------------------------------------------------------------------
# Layer 3: the worker pool (subprocess, end to end)
# --------------------------------------------------------------------------


def _run(pool: ProcessWorkerPool, header, query_ids):
    task = _pool_task(query_ids)
    return pool.run(
        header=header,
        query_ids=task.query_ids,
        context_size=task.context_size,
        alpha=task.alpha,
        rng_seed=task.rng_seed,
        config=task.config,
    )


def _run_concurrently(pool: ProcessWorkerPool, jobs: "list[tuple]") -> list:
    """Submit every (header, query_ids) job from its own thread at once."""
    results: list = [None] * len(jobs)
    errors: list = []

    def _one(i: int, header, query_ids) -> None:
        try:
            results[i] = _run(pool, header, query_ids)
        except Exception as exc:  # pragma: no cover - fails the assert below
            errors.append((query_ids, exc))

    threads = [
        threading.Thread(target=_one, args=(i, h, q))
        for i, (h, q) in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, f"batched jobs failed: {errors}"
    return results


class TestPoolBatchParity:
    def test_batched_pool_matches_solo_pool(self, frozen, monkeypatch):
        """Solo and batched pools run the same function, so both are held
        to the independent oracle: ``FindNC.run`` in process."""
        graph = figure1_graph()
        queries = [(1,), (2,), (3,), (1, 2)]
        expected = [_payload(_reference(graph, _pool_task(q))) for q in queries]
        header = frozen(graph)
        with ProcessWorkerPool(1) as solo_pool:
            solo = [_run(solo_pool, header, q) for q in queries]
        # The batched pool's only worker stalls on the first query, so the
        # other three gather into one batch behind it instead of each
        # going out at once to an idle worker.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:1.0:1")
        with ProcessWorkerPool(
            1, batch_window_ms=80.0, max_batch=4
        ) as batched_pool:
            monkeypatch.delenv(faults.FAULTS_ENV)
            first: list = []
            holder = threading.Thread(
                target=lambda: first.append(_run(batched_pool, header, queries[0]))
            )
            holder.start()
            deadline = time.monotonic() + 10.0
            while batched_pool.stats().batches < 1:
                assert time.monotonic() < deadline, "first query never dispatched"
                time.sleep(0.005)
            rest = _run_concurrently(
                batched_pool, [(header, q) for q in queries[1:]]
            )
            holder.join(timeout=30)
            got = first + rest
            stats = batched_pool.stats()
        assert [_payload(r) for r in solo] == expected
        assert [_payload(r) for r in got] == expected
        # The point of the test: these answers actually shared a sweep
        # (fewer batches than members, so the mean batch size exceeds 1).
        assert 1 <= stats.batches < len(queries)
        assert stats.batched_members == len(queries)
        assert stats.completed == len(queries)

    def test_mixed_version_batch_never_crosses_snapshots(self, frozen):
        """Members pinned to different snapshot versions are grouped apart
        and each still matches ``FindNC.run``."""
        graph = figure1_graph()
        first = frozen(graph)
        second = frozen(figure1_graph())
        queries = [(1,), (2,)]
        expected = {q: _payload(_reference(graph, _pool_task(q))) for q in queries}
        with ProcessWorkerPool(
            1, batch_window_ms=80.0, max_batch=4
        ) as batched_pool:
            jobs = [(header, q) for header in (first, second) for q in queries]
            got = _run_concurrently(batched_pool, jobs)
            stats = batched_pool.stats()
        for (_, q), result in zip(jobs, got):
            assert _payload(result) == expected[q]
        # Two versions cannot share a batch: at least two dispatches.
        assert stats.batches >= 2
        assert stats.completed == len(jobs)

    def test_single_member_window_completes_as_one_batch(self, frozen):
        """A window that gathers one task still completes, as one batch."""
        header = frozen(figure1_graph())
        with ProcessWorkerPool(
            1, batch_window_ms=10.0, max_batch=4
        ) as pool:
            result = _run(pool, header, (1, 2))
            stats = pool.stats()
        assert result.query == (1, 2)
        assert stats.batches == 1
        assert stats.batched_members == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_window_ms": -1.0}, {"max_batch": 0}],
    )
    def test_rejects_bad_batching_kwargs(self, kwargs):
        with pytest.raises(ValueError):
            ProcessWorkerPool(1, **kwargs)
