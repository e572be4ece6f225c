"""Self-tests of the benchmark's generator, answer check and closed loop."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import Future

import pytest

from perfbench import answers, drive, inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def catalog():
    from repro.datasets.loader import load_dataset

    return inputs.Catalog.from_meta(inputs.metadata(load_dataset("yago", scale=2.0)))


def generated(catalog, seed: int) -> str:
    return inputs.fingerprint(
        inputs.query_pool(catalog, seed, 24, (2, 3)),
        inputs.zipf_arrivals(seed, 24, 200.0, 2.0),
        inputs.distinct_queries(catalog, seed, 50, (2,), "distinct"),
        inputs.stratified_queries(catalog, seed, 50, (3, 4, 5), "wide"),
        inputs.ingest_batches(catalog, seed, 3, 40, 10),
    )


def test_generator_is_deterministic_per_seed(catalog):
    assert generated(catalog, 7) == generated(catalog, 7)
    assert generated(catalog, 7) != generated(catalog, 8)


def test_queries_are_same_type_instance_sets(catalog):
    classes = {"person", "entity", "politician", "actor", "movie"}
    assert not classes & set(catalog.ranked)
    for query in inputs.stratified_queries(catalog, 3, 60, (3, 4, 5), "wide"):
        assert len(set(query)) == len(query)
        assert len({catalog.type_of[name] for name in query}) == 1
    pool = inputs.query_pool(catalog, 3, 24, (2, 3))
    assert [q[0] for q in pool] == list(catalog.ranked[:24])


def test_every_ingest_op_changes_the_graph(catalog):
    base = set(catalog.relations)
    added, removed = set(), set()
    for batch in inputs.ingest_batches(catalog, 5, 4, 40, 10):
        for op, triple in batch:
            if op == "-":
                assert triple in base and triple not in removed
                removed.add(triple)
            elif triple[1] != "type":
                assert triple not in added and (triple not in base or triple in removed)
                added.add(triple)


def test_a_corrupted_answer_is_a_failure():
    query = ("a", "b")
    notable = (("bornIn", 0.99, "instance", 0.01),)
    reference = {(3, frozenset(query)): notable}
    assert not answers.wrong(reference, ("b", "a"), (3, notable))
    corrupted = (("bornIn", 0.99, "instance", 0.02),)
    assert answers.wrong(reference, query, (3, corrupted))
    assert answers.wrong(reference, query, None)
    assert answers.wrong(reference, query, (4, notable))


def test_closed_loop_never_exceeds_its_outstanding_bound():
    rng = random.Random(0)
    inflight, peak = [0], [0]
    lock = threading.Lock()

    def submit(item) -> Future:
        future: Future = Future()
        with lock:
            inflight[0] += 1
            peak[0] = max(peak[0], inflight[0])

        def finish() -> None:
            with lock:
                inflight[0] -= 1
            future.set_result(item)

        if item % 5 == 0:
            finish()  # an immediate answer, like a cache hit
        else:
            threading.Timer(rng.uniform(0.0, 0.004), finish).start()
        return future

    seen = []
    records = drive.closed_loop_futures(
        range(100_000), submit, lambda future: future.result(), 4, time.perf_counter(), 0.3,
        ramp=0.01, on_send=seen.append,
    )
    assert peak[0] <= 4 and max(seen) <= 4
    assert records and all(r.done >= r.sent for r in records)
    assert [r.result for r in records] == [r.item for r in records]


def session_members(sid: int) -> "list[str]":
    """Command lines of the live processes in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            fields = open(f"/proc/{entry}/stat").read().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid and fields[0] != "Z":
                found.append(open(f"/proc/{entry}/cmdline").read().replace("\0", " "))
        except (ValueError, IndexError, OSError):
            pass
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_nothing_outlives_the_benchmark_process():
    # A resource tracker (started by a spawn-context queue) and an orphaned
    # grandchild are what a run leaves behind without stop_descendants.
    script = textwrap.dedent("""
        import multiprocessing, subprocess
        from perfbench import drive
        drive.adopt_orphans()
        try:
            multiprocessing.get_context("spawn").SimpleQueue()
            subprocess.run(["sh", "-c", "sleep 60 &"], check=True)
        finally:
            drive.stop_descendants(timeout=5.0)
    """)
    process = subprocess.Popen([sys.executable, "-c", script], cwd=ROOT,
                               env=dict(os.environ, PYTHONPATH=ROOT), start_new_session=True)
    try:
        assert process.wait(timeout=60) == 0
        assert session_members(process.pid) == []
    finally:
        if process.poll() is None or session_members(process.pid):
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
