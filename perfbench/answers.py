"""The answer check: every served answer against a reference engine.

The reference is a fresh ``NCEngine`` opened on the snapshot version the
answer names (``graph_version``), computed after the timed window, so a
served answer that came out of the cache, a coalesced flight or a
micro-batch is compared with an independent computation of the same
query on the same version. Notable label, score, channel and p-value
must all be equal.
"""

from __future__ import annotations

import threading
from pathlib import Path

from perfbench.drive import CACHE_SIZE, SERVE_SEED


def notable_from_result(result) -> tuple:
    """The compared fields of a ``FindNCResult``."""
    return tuple((n.label, n.score, n.channel, n.p_value) for n in result.notable)


def notable_from_json(payload: dict) -> tuple:
    """The compared fields of a ``/v1/search`` response body."""
    return tuple(
        (n["label"], n["score"], n["channel"], n["p_value"]) for n in payload["notable"]
    )


def reference_answers(jobs: "dict[int, tuple[Path, set]]", context_size: int,
                      max_batch: int) -> dict:
    """``{(version, frozenset(query)): notable}`` for ``{version: (snapshot, queries)}``.

    One engine walks the versions in ascending order, hot-swapping onto
    each without waiting for the previous version's queries (a swap lets
    in-flight requests finish on the version they pinned). ``max_batch``
    1 answers each query as a lone worker task, the batch path's parity
    oracle; larger values amortize PPR over many distinct queries.
    """
    from repro.disk import open_snapshot_view
    from repro.service.engine import EngineConfig, NCEngine

    config = EngineConfig(
        context_size=context_size, executor="process", max_workers=2, max_batch=max_batch,
        batch_window_ms=5.0, seed=SERVE_SEED, cache_size=CACHE_SIZE,
    )
    versions = sorted(jobs)
    pending: dict = {}
    # Bounded like the served traffic: with everything queued at once the
    # pool's round-robin hands one worker most of the work.
    slots = threading.BoundedSemaphore(16)
    engine = NCEngine(open_snapshot_view(jobs[versions[0]][0]), config=config)
    try:
        for version in versions:
            path, queries = jobs[version]
            if engine.graph.version != version:
                engine.swap_snapshot(path)
            if engine.graph.version != version:
                raise RuntimeError(f"{path} holds version {engine.graph.version}, not {version}")
            for query in queries:
                slots.acquire()
                future = engine.submit(sorted(query))[0]
                future.add_done_callback(lambda _f: slots.release())
                pending[(version, frozenset(query))] = future
        return {key: notable_from_result(future.result()) for key, future in pending.items()}
    finally:
        engine.close()


def wrong(reference: dict, query, answer) -> bool:
    """Whether ``answer`` to ``query`` is wrong or missing.

    ``answer`` is ``(graph_version, notable)``, or ``None`` for an error
    or refusal; an answer with no reference entry is wrong too.
    """
    return answer is None or reference.get((answer[0], frozenset(query))) != answer[1]
