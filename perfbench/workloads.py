"""The three workloads, each serving the deployment ``docs/OPERATIONS.md`` documents.

``hot_reads``           HTTP, open-loop Zipf traffic over a warmed pool: the hit path.
``saturated_distinct``  ``NCEngine.submit`` in process, 16 distinct queries in flight:
                        the gather window, pickling, PPR and the sweep.
``lone_wide_ingest``    HTTP, one wide distinct read at a time beside scheduled
                        ``wait=1`` ingests: the multinomial test and the swap path.

Each workload runs untraced (end-to-end metrics) or traced (per-layer
metrics, from :mod:`perfbench.layers`). Every answer is checked against
:mod:`perfbench.answers` after the timed window.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import answers, drive, inputs, layers as layers_mod

#: Server launches (or engine constructions) per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The timed window is cut into this many equal slices and
#: ``latency_p50_ms`` is the median of their medians, so a stall of the
#: shared host lasting a few seconds moves one slice, not the result.
SUBWINDOWS = 6
MAX_BATCH = 16


@dataclass
class Settings:
    """What one invocation asked for."""

    seed: int
    seconds: float
    traced: bool
    workdir: Path


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, sample count) for every end-to-end number.
    metrics: dict = field(default_factory=dict)
    #: name -> (value, unit) per-layer numbers (traced runs).
    layers: dict = field(default_factory=dict)
    #: Graph size and the inputs' fingerprint.
    record: dict = field(default_factory=dict)
    #: Self-time table rows (traced runs).
    self_times: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: Wall seconds of each phase of the run, in order.
    phases: dict = field(default_factory=dict)
    _last: float = field(default_factory=time.perf_counter)

    def mark(self, phase: str) -> None:
        """Close the phase that ran since the previous mark."""
        now = time.perf_counter()
        self.phases[phase] = now - self._last
        self._last = now


def percentile(values, q: float) -> "tuple[float, int]":
    """Nearest-rank ``q`` quantile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _subwindows(values_at, start: float, seconds: float) -> "list[list]":
    """Values grouped by which of :data:`SUBWINDOWS` equal slices of the
    timed window their time falls in; ``values_at`` yields ``(time, value)``."""
    width = seconds / SUBWINDOWS
    bins: "list[list]" = [[] for _ in range(SUBWINDOWS)]
    for at, value in values_at:
        index = int((at - start) // width)
        if 0 <= index < SUBWINDOWS:
            bins[index].append(value)
    return bins


def _latency_metrics(out: Outcome, window, latency, start: float, seconds: float,
                     tails) -> None:
    """``latency_p50_ms``: median over sub-windows of each one's median
    latency; ``tails``: ``(q, name)`` percentiles over the whole window."""
    bins = _subwindows(((r.due, latency(r)) for r in window), start, seconds)
    median = statistics.median(statistics.median(b) for b in bins if b)
    out.metrics["latency_p50_ms"] = (1000.0 * median, "ms", len(window))
    for q, name in tails:
        value, beyond = percentile([latency(r) for r in window], q)
        out.metrics[name] = (1000.0 * value, "ms", len(window))
        out.notes.append(f"{name}: {beyond} samples beyond")


def _common_metrics(out: Outcome, window, correct, start, seconds, setups, rss) -> None:
    """Metrics every workload reports; ``window`` holds the timed reads."""
    on_time = sum(1 for r, ok in zip(window, correct) if ok and r.done <= start + seconds)
    out.metrics["throughput_rps"] = (on_time / seconds, "req/s", len(window))
    out.metrics["failed_share"] = (
        sum(1 for ok in correct if not ok) / len(window), "ratio", len(window)
    )
    out.metrics["rss_mb"] = (rss, "MB", 1)
    out.metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    late, _ = percentile([r.late for r in window], 0.99)
    out.layers["loadgen.late_ms"] = (1000.0 * late, "ms")
    out.notes.append(f"loadgen.late_ms p99 = {1000 * late:.3f} ms ({len(window)} requests)")


# -- the served process ------------------------------------------------------


class HttpService:
    """The registry served over HTTP: ``repro serve`` as a subprocess, or,
    for a traced run, the same server and engine inside this process."""

    def __init__(self, registry: Path, workdir: Path, context_size: int, traced: bool) -> None:
        self.registry, self.workdir = registry, workdir
        self.context_size, self.traced = context_size, traced
        self.process: "drive.ServedProcess | None" = None
        self.engine = self.server = self.thread = None
        self.client: "drive.Http | None" = None
        #: Descendants of stopped servers still on their way out.
        self.exiting: "list[int]" = []

    def start(self) -> None:
        """Launch; returns once the server is listening."""
        if not self.traced:
            self.process = drive.ServedProcess(
                self.registry, self.workdir / "serve.log", self.context_size
            )
            self.client = drive.Http(self.process.start())
            return
        from repro.disk import SnapshotRegistry
        from repro.service.engine import EngineConfig, NCEngine
        from repro.service.server import create_server

        registry = SnapshotRegistry(self.registry, create=False)
        self.engine = NCEngine(registry.open_view(), config=EngineConfig(
            context_size=self.context_size, executor="process", max_workers=2,
            max_batch=MAX_BATCH, batch_window_ms=5.0, seed=drive.SERVE_SEED,
            cache_size=drive.CACHE_SIZE, snapshot_source=f"registry:{self.registry}",
        ))
        self.engine.pin()
        self.server = create_server(self.engine, port=0, registry=registry, retain=2)
        self.thread = threading.Thread(target=self.server.serve_forever, name="nc-serve")
        self.thread.start()
        self.client = drive.Http(self.server.server_address[1])

    def search(self, query):
        """``(graph_version, notable)`` of one search, ``None`` on any failure."""
        try:
            status, body = self.client.search(query, self.context_size)
        except (OSError, ValueError):
            return None
        if status != 200:
            return None
        return body["graph_version"], answers.notable_from_json(body)

    def stats(self) -> dict:
        """The engine counters (``GET /v1/stats``)."""
        status, body = self.client.call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return body

    def rss_mb(self) -> float:
        """RSS of the serving process and its workers."""
        return drive.rss_mb(self.process.process.pid if self.process else os.getpid())

    def stop(self, final: bool = True) -> None:
        """Shut down; with ``final``, also wait for every process it ever started."""
        if self.process is not None:
            self.exiting += self.process.stop()
            self.process = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join()
            self.engine.close()
            self.server = self.engine = None
        if final:
            drive.reap(self.exiting)
            self.exiting = []


def publish(snapshot: Path, workdir: Path) -> "tuple[Path, Path]":
    """A fresh registry holding ``snapshot`` as v1, plus a directory that keeps
    every version file the run produces (the server's GC would remove them)."""
    from repro.disk import SnapshotRegistry

    registry, keep = workdir / "registry", workdir / "versions"
    keep.mkdir(parents=True)
    SnapshotRegistry(registry).publish_snapshot_file(snapshot)
    keep_versions(registry, keep)
    return registry, keep


def keep_versions(registry: Path, keep: Path) -> None:
    """Hard-link version files not yet kept."""
    for name in os.listdir(registry):
        if name.endswith(".snap") and not (keep / name).exists():
            try:
                os.link(registry / name, keep / name)
            except FileNotFoundError:  # collected between listing and linking
                pass


def version_file(keep: Path, version: int) -> Path:
    return keep / f"v{version:06d}.snap"


def http_setups(service: HttpService, query, repeats: int):
    """Launch ``repeats`` times, timing launch to first answer; the last stays up."""
    times, answered = [], []
    for attempt in range(repeats):
        started = time.perf_counter()
        service.start()
        answer = service.search(query)
        times.append(time.perf_counter() - started)
        answered.append(answer)
        if attempt < repeats - 1:
            service.stop(final=False)
    return times, answered


def stats_delta(before: dict, after: dict) -> dict:
    """Counters accumulated between two ``/v1/stats`` bodies."""
    def pick(body: dict) -> dict:
        workers = body.get("workers") or {}
        return {
            "requests": body["requests"], "hits": body["cache_hits"],
            "coalesced": body["coalesced"], "retries": body["retries"],
            "fallbacks": body["fallbacks"], "shed": body["shed"],
            "timeouts": body["timeouts"], "evictions": body["cache"]["evictions"],
            "purged": body["cache"]["purged"], "batches": workers.get("batches", 0),
            "members": workers.get("batched_members", 0),
            "respawns": workers.get("respawns", 0),
        }
    b, a = pick(before), pick(after)
    return {key: a[key] - b[key] for key in a}


def layer_metrics(out: Outcome, timers: "layers_mod.Layers", delta: dict, crashes: float,
                  replayed: int, replay_s: float, request_s: float, covered_s: float,
                  rtt_ms: float, opens: "tuple[int, float]") -> None:
    """Fill ``out.layers`` from one traced run."""
    per_query = (lambda name: 1000.0 * timers.total.get(name, 0.0) / replayed) if replayed else (
        lambda name: 0.0)
    requests = delta["requests"] or 1
    batches = delta["batches"]
    mean_batch = delta["members"] / batches if batches else 0.0
    waits = timers.compute_waits
    wait_ms = 1000.0 * statistics.mean(waits) if waits else 0.0
    tests = timers.test_methods
    exact, montecarlo = tests.get("exact", 0), tests.get("montecarlo", 0)
    open_calls, open_s = opens
    values = {
        "server.request_ms": (max(0.0, rtt_ms - timers.mean_ms("engine.request")) if rtt_ms
                              else 0.0, "ms"),
        "server.encode_ms": (timers.mean_ms("server.encode"), "ms"),
        "engine.submit_us": (1000.0 * timers.mean_ms("engine.submit"), "us"),
        "engine.compute_wait_ms": (wait_ms, "ms"),
        "engine.swap_ms": (timers.mean_ms("engine.swap"), "ms"),
        "engine.hit_share": (delta["hits"] / requests, "ratio"),
        "engine.coalesced_share": (delta["coalesced"] / requests, "ratio"),
        "engine.retries": (delta["retries"], "count"),
        "engine.fallbacks": (delta["fallbacks"], "count"),
        "engine.shed": (delta["shed"], "count"),
        "engine.timeouts": (delta["timeouts"], "count"),
        "cache.evictions": (delta["evictions"], "count"),
        "cache.purged": (delta["purged"], "count"),
        "workers.batches": (batches, "count"),
        "workers.mean_batch_size": (mean_batch, "count"),
        "workers.batch_fill": (mean_batch / MAX_BATCH, "ratio"),
        "workers.overhead_ms": (
            wait_ms - 1000.0 * replay_s / replayed if waits and replayed else 0.0, "ms"),
        "workers.crashes": (crashes, "count"),
        "workers.respawns": (delta["respawns"], "count"),
        "context.select_ms": (per_query("context.select"), "ms"),
        "distributions.sweep_ms": (per_query("distributions.sweep"), "ms"),
        "distributions.candidate_labels": (
            timers.calls.get("discrimination.score", 0) / replayed if replayed else 0.0,
            "count"),
        "discrimination.score_ms": (per_query("discrimination.score"), "ms"),
        "discrimination.tests": (
            timers.calls.get("multinomial.test", 0) / replayed if replayed else 0.0, "count"),
        "multinomial.exact_share": (
            exact / (exact + montecarlo) if exact + montecarlo else 0.0, "ratio"),
        "multinomial.table_builds": (timers.calls.get("multinomial.table_build", 0), "count"),
        "multinomial.table_build_ms": (
            1000.0 * timers.total.get("multinomial.table_build", 0.0), "ms"),
        "registry.append_ms": (timers.mean_ms("registry.append"), "ms"),
        "registry.merge_ms": (timers.mean_ms("registry.merge"), "ms"),
        "ingest.statements": (0, "count"),
        "store.open_ms": (1000.0 * open_s / open_calls if open_calls else 0.0, "ms"),
        "trace.layer_share": (covered_s / request_s if request_s else 0.0, "ratio"),
    }
    out.layers.update(values)
    out.self_times = timers.table()
    out.notes.append(
        f"replayed {replayed} queries in process ({replay_s:.2f} s); "
        f"multinomial tests: {dict(tests)}"
    )


def _traced_open(timers: "layers_mod.Layers") -> "tuple[int, float]":
    return timers.calls.get("store.open", 0), timers.total.get("store.open", 0.0)


def _catalog(scale: float, out: Outcome):
    snapshot, meta = inputs.artifacts(scale)
    catalog = inputs.Catalog.load(meta)
    out.record["graph"] = {"dataset": "yago", "scale": scale, "V": catalog.nodes,
                           "E": catalog.edges}
    return snapshot, catalog


# -- hot_reads -----------------------------------------------------------------

HOT_SCALE, HOT_CONTEXT = 2.0, 100
#: Smaller than the 256-entry result cache, so a warmed pool never evicts.
HOT_POOL = 24
HOT_RATE = 120.0


def hot_reads(settings: Settings) -> Outcome:
    """Open-loop Zipf reads of a warmed pool over two connections."""
    out = Outcome()
    snapshot, catalog = _catalog(HOT_SCALE, out)
    # The pool is the same for every seed and the seed draws the arrivals:
    # the widths and peers drawn into 24 sets decide what the warm-up
    # leaves in the workers' memory, which moved rss_mb by 15% between seeds.
    pool = inputs.query_pool(catalog, 0, HOT_POOL, (2, 3))
    arrivals = inputs.zipf_arrivals(settings.seed, HOT_POOL, HOT_RATE, settings.seconds)
    setup_query = inputs.distinct_queries(catalog, 0, 1, (2, 3), "setup")[0]
    out.record["inputs"] = inputs.fingerprint(pool, arrivals, setup_query)
    registry, keep = publish(snapshot, settings.workdir)
    out.mark("inputs")
    service = HttpService(registry, settings.workdir, HOT_CONTEXT, settings.traced)
    timers = layers_mod.Layers()
    try:
        if settings.traced:
            timers.install(layers_mod.SERVING)
        setups, setup_answers = http_setups(
            service, setup_query, 1 if settings.traced else SETUP_REPEATS
        )
        opens = _traced_open(timers)
        out.mark("setup")
        warm = drive.scheduled([(0.0, q) for q in pool], service.search, 2, time.perf_counter())
        out.mark("warm")
        before = service.stats()
        timers.reset()
        start = time.perf_counter() + 0.05
        window = drive.scheduled(
            [(due, pool[index]) for due, index in arrivals], service.search, 2, start
        )
        rss = service.rss_mb()
        delta = stats_delta(before, service.stats())
        crashes = service.engine.metrics.worker_events.value(event="crash") if settings.traced else 0
        out.mark("window")
    finally:
        service.stop()
        timers.close()
    served = [(setup_query, a) for a in setup_answers]
    served += [(r.item, r.result) for r in warm + window]
    correct = _check(out, served, {1: (version_file(keep, 1), set(pool) | {setup_query})},
                     HOT_CONTEXT)
    correct = correct[len(setup_answers) + len(warm):]
    out.mark("reference")
    _latency_metrics(out, window, lambda r: r.latency, start, settings.seconds,
                     ((0.9, "latency_p90_ms"), (0.99, "latency_p99_ms")))
    _common_metrics(out, window, correct, start, settings.seconds, setups, rss)
    out.notes.append(f"window stats delta: {delta}")
    if settings.traced:
        view_replay = _replay_on(version_file(keep, 1), pool[:16], 1, HOT_CONTEXT, timers)
        rtt = [r.done - r.sent for r in window]
        out.mark("replay")
        layer_metrics(out, timers, delta, crashes, *view_replay,
                      request_s=sum(rtt),
                      covered_s=timers.total.get("engine.request", 0.0)
                      + timers.total.get("server.encode", 0.0),
                      rtt_ms=1000.0 * statistics.mean(rtt), opens=opens)
        out.layers["trace.latency_p50_ms"] = out.metrics["latency_p50_ms"][:2]
    return out


def _check(out: Outcome, served, jobs, context_size: int, max_batch: int = 1) -> "list[bool]":
    """Compare ``(query, answer)`` pairs with the reference answers of ``jobs``.

    Returns per-answer correctness and charges failures to ``out``.
    """
    reference = answers.reference_answers(jobs, context_size, max_batch)
    correct = [not answers.wrong(reference, query, answer) for query, answer in served]
    out.attempted += len(served)
    out.failed += correct.count(False)
    return correct


def _replay_on(snapshot: Path, queries, group: int, context_size: int,
               timers: "layers_mod.Layers") -> "tuple[int, float]":
    """Replay ``queries`` on ``snapshot`` with the compute layers timed."""
    from repro.disk import open_snapshot_view

    view = open_snapshot_view(snapshot)
    timers.install(layers_mod.COMPUTE)
    try:
        seconds = layers_mod.replay(view, queries, group, context_size, timers)
    finally:
        timers.close()
        view.close()
    return len(queries), seconds


# -- saturated_distinct ----------------------------------------------------------

SAT_SCALE, SAT_CONTEXT = 32.0, 5
SAT_OUTSTANDING = 16
#: The sixteen clients start this far apart, each in its own gather
#: window: started together they would form one sixteen-member batch
#: whose members then complete, and return, in lockstep.
SAT_RAMP_S = 0.006
#: Upper bound on answers per second, so the closed loop never runs dry.
SAT_MAX_RPS = 150


def saturated_distinct(settings: Settings) -> Outcome:
    """Sixteen never-repeated width-2 queries in flight through ``NCEngine.submit``."""
    import repro.disk
    from repro.service.engine import EngineConfig, NCEngine

    out = Outcome()
    snapshot, catalog = _catalog(SAT_SCALE, out)
    setup_query = inputs.distinct_queries(catalog, 0, 1, (2,), "setup")[0]
    queries = [setup_query] + [
        q for q in inputs.distinct_queries(
            catalog, settings.seed, int(settings.seconds * SAT_MAX_RPS), (2,), "distinct")
        if set(q) != set(setup_query)
    ]
    out.record["inputs"] = inputs.fingerprint(queries)
    out.mark("inputs")
    config = EngineConfig(
        context_size=SAT_CONTEXT, executor="process", max_workers=2, max_batch=MAX_BATCH,
        batch_window_ms=5.0, seed=drive.SERVE_SEED, cache_size=drive.CACHE_SIZE,
    )
    timers = layers_mod.Layers()
    setups, setup_answers, engine = [], [], None
    try:
        if settings.traced:
            timers.install(layers_mod.SERVING)
        for attempt in range(1 if settings.traced else SETUP_REPEATS):
            if engine is not None:
                engine.close()
            started = time.perf_counter()
            engine = NCEngine(repro.disk.open_snapshot_view(snapshot), config=config)
            future, _, _, version = engine.submit(list(queries[0]))
            setup_answers.append((version, answers.notable_from_result(future.result())))
            setups.append(time.perf_counter() - started)
        opens = _traced_open(timers)
        out.mark("setup")
        before = engine.stats().as_dict()
        timers.reset()

        def submit(query) -> Future:
            try:
                return engine.submit(list(query))[0]
            except Exception as error:  # noqa: BLE001 - charged as a failed request
                failed: Future = Future()
                failed.set_exception(error)
                return failed

        def finish(future: Future):
            try:
                return version, answers.notable_from_result(future.result())
            except Exception:  # noqa: BLE001 - an errored request is a failed one
                return None

        version = engine.graph.version
        start = time.perf_counter()
        window = drive.closed_loop_futures(
            queries[1:], submit, finish, SAT_OUTSTANDING, start, settings.seconds, SAT_RAMP_S
        )
        rss = drive.rss_mb(os.getpid())
        delta = stats_delta(before, engine.stats().as_dict())
        crashes = engine.metrics.worker_events.value(event="crash")
        out.mark("window")
    finally:
        if engine is not None:
            engine.close()
        timers.close()
    served = [(queries[0], a) for a in setup_answers] + [(r.item, r.result) for r in window]
    asked = {frozenset(q) for q, _ in served}
    correct = _check(out, served, {version: (snapshot, asked)}, SAT_CONTEXT, MAX_BATCH)
    correct = correct[len(setup_answers):]
    out.mark("reference")
    _latency_metrics(out, window, lambda r: r.done - r.sent, start, settings.seconds,
                     ((0.9, "latency_p90_ms"), (0.99, "latency_p99_ms")))
    _common_metrics(out, window, correct, start, settings.seconds, setups, rss)
    out.notes.append(f"window stats delta: {delta}")
    if settings.traced:
        group = max(1, round(delta["members"] / delta["batches"])) if delta["batches"] else 1
        replay = _replay_on(snapshot, queries[1:129], group, SAT_CONTEXT, timers)
        out.mark("replay")
        spent = [r.done - r.sent for r in window]
        layer_metrics(out, timers, delta, crashes, *replay, request_s=sum(spent),
                      covered_s=timers.total.get("engine.submit", 0.0) + sum(timers.compute_waits),
                      rtt_ms=0.0, opens=opens)
        out.layers["trace.latency_p50_ms"] = out.metrics["latency_p50_ms"][:2]
    return out


# -- lone_wide_ingest -------------------------------------------------------------

LONE_SCALE, LONE_CONTEXT = 2.0, 100
LONE_WIDTHS = (3, 4, 5)
INGEST_PERIOD_S = 1.5
INGEST_ADDS, INGEST_REMOVES = 40, 10
#: Upper bound on lone reads per second, so the read loop never runs dry.
LONE_MAX_RPS = 60


def lone_wide_ingest(settings: Settings) -> Outcome:
    """One wide distinct read at a time on one connection; scheduled ingests on the other."""
    out = Outcome()
    snapshot, catalog = _catalog(LONE_SCALE, out)
    setup_query = inputs.distinct_queries(catalog, 0, 1, LONE_WIDTHS, "setup")[0]
    reads = [setup_query] + [
        q for q in inputs.stratified_queries(
            catalog, 0, int(settings.seconds * LONE_MAX_RPS), LONE_WIDTHS, "wide")
        if set(q) != set(setup_query)
    ]
    writes = int(settings.seconds / INGEST_PERIOD_S)
    batches = inputs.ingest_batches(catalog, settings.seed, writes, INGEST_ADDS, INGEST_REMOVES)
    out.record["inputs"] = inputs.fingerprint(reads, batches)
    registry, keep = publish(snapshot, settings.workdir)
    out.mark("inputs")
    service = HttpService(registry, settings.workdir, LONE_CONTEXT, settings.traced)
    timers = layers_mod.Layers()

    def ingest(batch):
        try:
            status, body = service.client.call(
                "POST", "/v1/admin/ingest?wait=1", inputs.ntriples(batch)
            )
        except (OSError, ValueError):
            return None
        keep_versions(registry, keep)
        if status != 200 or not body.get("accepted") or body.get("merged_version") is None:
            return None
        return body["merged_version"]

    try:
        if settings.traced:
            timers.install(layers_mod.SERVING)
        setups, setup_answers = http_setups(
            service, reads[0], 1 if settings.traced else SETUP_REPEATS
        )
        opens = _traced_open(timers)
        out.mark("setup")
        before = service.stats()
        timers.reset()
        start = time.perf_counter() + 0.05
        schedule = [((k + 0.5) * INGEST_PERIOD_S, batch) for k, batch in enumerate(batches)]
        written: "list[drive.Record]" = []
        writer = threading.Thread(
            target=lambda: written.extend(drive.scheduled(schedule, ingest, 1, start))
        )
        writer.start()
        try:
            window = drive.closed_loop(reads[1:], service.search, start, settings.seconds)
        finally:
            writer.join()
        rss = service.rss_mb()
        delta = stats_delta(before, service.stats())
        crashes = service.engine.metrics.worker_events.value(event="crash") if settings.traced else 0
        out.mark("window")
    finally:
        service.stop()
        timers.close()
    served = [(reads[0], a) for a in setup_answers] + [(r.item, r.result) for r in window]
    jobs: dict = {}
    for query, answer in served:
        if answer is not None:
            path = version_file(keep, answer[0])
            jobs.setdefault(answer[0], (path, set()))[1].add(frozenset(query))
    correct = _check(out, served, jobs, LONE_CONTEXT)[len(setup_answers):]
    out.mark("reference")
    # An acknowledged write must be served to every read sent after the ack.
    acks = [(r.done, r.result) for r in written if r.result is not None]
    stale = 0
    for index, record in enumerate(window):
        required = max((v for t, v in acks if t < record.sent), default=1)
        if correct[index] and record.result[0] < required:
            correct[index] = False
            stale += 1
    out.failed += stale
    out.attempted += len(written)
    out.failed += sum(1 for r in written if r.result is None)
    _latency_metrics(out, window, lambda r: r.done - r.sent, start, settings.seconds,
                     ((0.9, "latency_p90_ms"),))
    _common_metrics(out, window, correct, start, settings.seconds, setups, rss)
    visible = [r.latency for r in written]
    out.metrics["ingest_visible_p50_ms"] = (
        1000.0 * statistics.median(visible), "ms", len(visible)
    )
    writes_late, _ = percentile([r.late for r in written], 0.99)
    out.notes.append(f"ingest writes: {len(written)}, p99 late {1000 * writes_late:.3f} ms, "
                     f"reads served stale after an ack: {stale}")
    out.notes.append(f"window stats delta: {delta}")
    if settings.traced:
        replay = _replay_on(version_file(keep, 1), reads[1:41], 1, LONE_CONTEXT, timers)
        out.mark("replay")
        reads_rtt = [r.done - r.sent for r in window]
        layer_metrics(out, timers, delta, crashes, *replay, request_s=sum(reads_rtt),
                      covered_s=timers.total.get("engine.request", 0.0)
                      + timers.total.get("server.encode", 0.0),
                      rtt_ms=1000.0 * statistics.mean(reads_rtt), opens=opens)
        out.layers["ingest.statements"] = (
            sum(len(b) for r, b in zip(written, batches) if r.result is not None), "count")
        out.layers["trace.latency_p50_ms"] = out.metrics["latency_p50_ms"][:2]
    return out


WORKLOADS = {
    "hot_reads": hot_reads,
    "saturated_distinct": saturated_distinct,
    "lone_wide_ingest": lone_wide_ingest,
}
