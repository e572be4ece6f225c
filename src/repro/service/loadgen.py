"""Zipf-skewed, entity-centric load generator for the query service.

The benches replay tiny hand-written traces; this module generates the
traffic shape the ROADMAP's "millions of users" claims actually need to
be judged against. Two findings from the knowledge-base literature drive
the model:

* **Popularity skew.** Query traffic over public KBs (the YAGO/DBpedia
  family the paper evaluates on) is heavily skewed toward a small set of
  popular entities — so seed entities are drawn from a Zipf
  distribution over the entity ranking (``P(rank) ∝ 1/rank^s``), not
  uniformly.
* **Entity-centric sessions.** FindNC is a per-entity summarization
  workload: a user exploring one entity issues several comparison
  queries around it. Sessions therefore fix a *seed* entity and pair it
  with several Zipf-drawn partners, instead of sampling i.i.d. pairs.

Two execution disciplines, selected by :attr:`LoadProfile.mode`:

* ``"open"`` — **open loop**: request arrivals follow a Poisson process
  (exponential inter-arrival gaps at :attr:`LoadProfile.rate`/s),
  independent of completions. Latency is measured from the *scheduled*
  arrival instant, so queueing delay under overload is charged to the
  service (no coordinated omission).
* ``"closed"`` — **closed loop**: :attr:`LoadProfile.concurrency`
  workers issue requests back to back; offered load adapts to service
  speed. The right mode for measuring best-case capacity.

Everything upstream of execution is deterministic:
:func:`build_schedule` maps ``(entities, profile)`` onto an identical
request sequence for a fixed seed, so two runs against two builds see
the same traffic. Mid-run control actions (hot swap, fault storm) ride
along as :class:`LoadEvent` callbacks fired at their scheduled offsets.

Drivers: the ``repro loadgen`` CLI subcommand (in-process engine or a
live HTTP endpoint) and the CI soak, ``tools/ci_soak.py``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import threading
import time
import urllib.request
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.service.tracing import SpanContext, new_span_id, new_trace_id

#: Slowest traced requests surfaced per run (latency + server trace id).
SLOWEST_REPORTED = 5


@dataclass(frozen=True)
class LoadProfile:
    """The full description of one load run (shape, skew, and pacing).

    ``requests`` bounds both modes; in open-loop mode ``duration_s``
    additionally stops schedule generation even when the request budget
    is not exhausted. ``zipf_s`` is the skew exponent (1.0–1.2 is the
    published range for KB entity popularity; higher = more head-heavy).
    ``session_length`` is the mean number of queries issued around one
    seed entity before the session moves on.
    """

    mode: str = "open"
    requests: int = 200
    duration_s: float = 10.0
    rate: float = 50.0
    concurrency: int = 4
    zipf_s: float = 1.1
    session_length: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the profile; raises ``ValueError`` on a bad knob."""
        if self.mode not in ("open", "closed"):
            raise ValueError(
                f"mode must be 'open' or 'closed', got {self.mode!r}"
            )
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be > 0, got {self.zipf_s}")
        if self.session_length < 1:
            raise ValueError(
                f"session_length must be >= 1, got {self.session_length}"
            )


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned query: arrival offset, entity pair, session tag."""

    at_s: float
    query: "tuple[str, ...]"
    session: int


@dataclass(frozen=True)
class LoadEvent:
    """A control action fired once at ``at_s`` seconds into the run.

    ``action`` is a zero-argument callable — e.g. a registry hot swap
    (``lambda: engine.swap_snapshot(path)``) or a fault-storm arm/disarm
    pair. A raising action is recorded in the report's ``event_errors``
    instead of aborting the run.
    """

    at_s: float
    name: str
    action: "object" = None


class _ZipfSampler:
    """Draw ranks 1..n with probability proportional to ``1/rank^s``."""

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError(f"need at least one entity, got {n}")
        weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        """A 0-based rank index drawn from the Zipf distribution."""
        return bisect_left(self._cdf, rng.random())


def build_schedule(
    entities: "list[str]", profile: LoadProfile
) -> "tuple[list[ScheduledRequest], dict]":
    """The deterministic request sequence for ``(entities, profile)``.

    ``entities`` is the popularity *ranking* — index 0 is the most
    popular entity (Zipf rank 1). Sessions draw a seed entity by Zipf
    rank, then issue a geometrically distributed number of pair queries
    (mean ``session_length``) pairing that seed with Zipf-drawn
    partners. Open-loop arrival offsets are Poisson; closed-loop
    requests all carry ``at_s=0.0`` (workers pace themselves).

    Returns ``(schedule, skew)`` where ``skew`` summarizes the realized
    popularity distribution (distinct pairs, head share) for the bench
    report. Fixed seed ⇒ identical output, byte for byte.
    """
    if len(entities) < 2:
        raise ValueError(
            f"need at least two entities to form query pairs, got {len(entities)}"
        )
    rng = random.Random(profile.seed)
    sampler = _ZipfSampler(len(entities), profile.zipf_s)
    # Geometric session length with the configured mean: p = 1/mean.
    continue_p = 1.0 - 1.0 / profile.session_length

    schedule: "list[ScheduledRequest]" = []
    clock = 0.0
    session = 0
    session_left = 0
    seed_entity = entities[0]
    pair_counts: "dict[tuple[str, str], int]" = {}
    while len(schedule) < profile.requests:
        if profile.mode == "open":
            clock += rng.expovariate(profile.rate)
            if clock > profile.duration_s:
                break
        if session_left <= 0:
            # Start a new entity-centric session around a Zipf-drawn seed.
            session += 1
            seed_entity = entities[sampler.sample(rng)]
            session_left = 1
            while rng.random() < continue_p:
                session_left += 1
        partner = seed_entity
        while partner == seed_entity:
            partner = entities[sampler.sample(rng)]
        session_left -= 1
        pair = (seed_entity, partner)
        pair_counts[tuple(sorted(pair))] = (
            pair_counts.get(tuple(sorted(pair)), 0) + 1
        )
        schedule.append(
            ScheduledRequest(
                at_s=clock if profile.mode == "open" else 0.0,
                query=pair,
                session=session,
            )
        )
    total = len(schedule)
    ranked = sorted(pair_counts.values(), reverse=True)
    head = max(1, len(ranked) // 10)
    skew = {
        "distinct_pairs": len(ranked),
        "sessions": session,
        "top_pair_share": ranked[0] / total if total else 0.0,
        "head_10pct_share": sum(ranked[:head]) / total if total else 0.0,
    }
    return schedule, skew


@dataclass(frozen=True)
class LoadReport:
    """What one :func:`run_load` execution measured."""

    mode: str
    requests: int
    completed: int
    #: error code (exception class name) -> count
    errors: "dict[str, int]"
    duration_s: float
    achieved_rps: float
    #: per-request latency in seconds, completion order
    latencies_s: "tuple[float, ...]"
    #: open loop only: dispatch lag behind the schedule (p99), seconds
    dispatch_lag_p99_s: float = 0.0
    events_fired: "tuple[str, ...]" = ()
    event_errors: "dict[str, str]" = field(default_factory=dict)
    #: slowest traced requests: ``{"latency_s", "trace_id"}`` dicts,
    #: slowest first — paste the id into GET /v1/debug/traces/<id>
    slowest: "tuple[dict, ...]" = ()

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the completed-request latencies."""
        if not self.latencies_s:
            return math.nan
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict:
        """The JSON-ready digest embedded in bench reports / CLI output."""
        lat = sorted(self.latencies_s)
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "errors": dict(self.errors),
            "duration_s": self.duration_s,
            "achieved_rps": self.achieved_rps,
            "latency_s": {
                "mean": sum(lat) / len(lat) if lat else None,
                "p50": self.quantile(0.50) if lat else None,
                "p90": self.quantile(0.90) if lat else None,
                "p99": self.quantile(0.99) if lat else None,
                "max": lat[-1] if lat else None,
            },
            "dispatch_lag_p99_s": self.dispatch_lag_p99_s,
            "events_fired": list(self.events_fired),
            "event_errors": dict(self.event_errors),
            "slowest": [dict(entry) for entry in self.slowest],
        }


def engine_target(engine, *, context_size=None, alpha=None, timeout=None):
    """A :func:`run_load` target calling an in-process engine directly."""

    def call(query: "tuple[str, ...]") -> None:
        engine.request(
            list(query), context_size=context_size, alpha=alpha, timeout=timeout
        )

    return call


def http_target(
    base_url: str,
    *,
    timeout_s: float = 30.0,
    trace_sample_rate: float = 0.0,
    seed: int = 0,
):
    """A :func:`run_load` target POSTing ``/v1/search`` on a live server.

    Non-2xx answers raise (urllib's ``HTTPError``), so HTTP failures land
    in the report's error counts under ``HTTPError``.

    With ``trace_sample_rate`` > 0 a seeded coin marks that fraction of
    requests with a sampled W3C ``traceparent`` header — the server
    force-retains those traces and echoes the id in ``X-Trace-Id``,
    which the target returns so the report can list trace ids for its
    slowest requests (``repro loadgen --trace-sample-rate``).
    """
    if not 0.0 <= trace_sample_rate <= 1.0:
        raise ValueError(
            f"trace_sample_rate must be within [0, 1], got {trace_sample_rate}"
        )
    url = base_url.rstrip("/") + "/v1/search"
    rng = random.Random(seed ^ 0x7ACE) if trace_sample_rate > 0.0 else None
    rng_lock = threading.Lock()

    def call(query: "tuple[str, ...]") -> "str | None":
        headers = {"Content-Type": "application/json"}
        if rng is not None:
            with rng_lock:
                sampled = rng.random() < trace_sample_rate
            if sampled:
                headers["traceparent"] = SpanContext(
                    new_trace_id(), new_span_id(), True
                ).to_traceparent()
        request = urllib.request.Request(
            url,
            data=json.dumps({"query": list(query)}).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            response.read()
            return response.headers.get("X-Trace-Id")

    return call


class _RunState:
    """Shared mutable accumulator for the worker threads of one run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: "list[float]" = []
        self.errors: "dict[str, int]" = {}
        self.dispatch_lags: "list[float]" = []
        self.traced: "list[tuple[float, str]]" = []
        self.completed = 0

    def record(
        self,
        latency_s: float,
        error: "str | None",
        lag_s: float,
        trace_id: "str | None" = None,
    ) -> None:
        with self.lock:
            if error is None:
                self.completed += 1
                self.latencies.append(latency_s)
                if trace_id is not None:
                    self.traced.append((latency_s, trace_id))
            else:
                self.errors[error] = self.errors.get(error, 0) + 1
            self.dispatch_lags.append(lag_s)


def _fire_events(
    events: "tuple[LoadEvent, ...]",
    start: float,
    halt: threading.Event,
    fired: "list[str]",
    errors: "dict[str, str]",
) -> None:
    """Run scheduled control actions at their offsets (event thread body)."""
    for event in sorted(events, key=lambda e: e.at_s):
        delay = event.at_s - (time.monotonic() - start)
        if delay > 0 and halt.wait(delay):
            return
        try:
            if event.action is not None:
                event.action()
            fired.append(event.name)
        except Exception as error:  # noqa: BLE001 - keep the run alive
            errors[event.name] = repr(error)


def run_load(
    target,
    schedule: "list[ScheduledRequest]",
    profile: LoadProfile,
    *,
    events: "tuple[LoadEvent, ...]" = (),
) -> LoadReport:
    """Execute ``schedule`` against ``target``; measure what came back.

    ``target`` is a callable taking one query tuple (see
    :func:`engine_target` / :func:`http_target`); an exception marks
    that request failed and is counted by exception class name.

    Open loop: a dispatcher thread releases each request at its
    scheduled offset onto a worker pool sized for the offered load;
    latency runs from the *scheduled* arrival, so backlog shows up as
    latency rather than being silently absorbed (no coordinated
    omission). Closed loop: ``profile.concurrency`` workers drain the
    schedule back to back, latency measured per call.
    """
    state = _RunState()
    halt = threading.Event()
    fired: "list[str]" = []
    event_errors: "dict[str, str]" = {}
    start = time.monotonic()
    event_thread = None
    if events:
        event_thread = threading.Thread(
            target=_fire_events,
            args=(tuple(events), start, halt, fired, event_errors),
            name="nc-loadgen-events",
            daemon=True,
        )
        event_thread.start()

    if profile.mode == "open":
        _run_open_loop(target, schedule, profile, state, start)
    else:
        _run_closed_loop(target, schedule, profile, state)

    duration = time.monotonic() - start
    halt.set()
    if event_thread is not None:
        event_thread.join(timeout=5.0)
    lags = sorted(state.dispatch_lags)
    lag_p99 = lags[min(len(lags) - 1, round(0.99 * (len(lags) - 1)))] if lags else 0.0
    slowest = tuple(
        {"latency_s": round(latency, 6), "trace_id": trace_id}
        for latency, trace_id in sorted(state.traced, reverse=True)[
            :SLOWEST_REPORTED
        ]
    )
    return LoadReport(
        mode=profile.mode,
        requests=len(schedule),
        completed=state.completed,
        errors=dict(state.errors),
        duration_s=duration,
        achieved_rps=state.completed / duration if duration > 0 else 0.0,
        latencies_s=tuple(state.latencies),
        dispatch_lag_p99_s=lag_p99 if profile.mode == "open" else 0.0,
        events_fired=tuple(fired),
        event_errors=event_errors,
        slowest=slowest,
    )


def _call_one(target, request: ScheduledRequest, state: _RunState,
              reference: "float | None", lag_s: float) -> None:
    """Issue one request; charge latency from ``reference`` when given."""
    started = time.monotonic() if reference is None else reference
    error: "str | None" = None
    trace_id: "str | None" = None
    try:
        returned = target(request.query)
        # Targets may return the server-echoed trace id (http_target);
        # anything else a target returns is not one.
        if isinstance(returned, str):
            trace_id = returned
    except Exception as exc:  # noqa: BLE001 - counted, not raised
        error = type(exc).__name__
    state.record(time.monotonic() - started, error, lag_s, trace_id)


def _run_open_loop(target, schedule, profile: LoadProfile, state: _RunState,
                   start: float) -> None:
    """Poisson-paced dispatcher: arrivals independent of completions."""
    # Size the pool for the offered load (Little's law headroom) so the
    # generator itself does not become the bottleneck it is measuring;
    # still bounded to keep a stuck target from spawning without limit.
    workers = max(profile.concurrency, min(64, 2 * profile.concurrency + 8))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="nc-loadgen"
    ) as pool:
        for request in schedule:
            now = time.monotonic()
            release = start + request.at_s
            if release > now:
                time.sleep(release - now)
                lag = 0.0
            else:
                lag = now - release
            # Latency reference is the *scheduled* arrival: if the pool
            # queues the call, that wait is charged to the service.
            pool.submit(_call_one, target, request, state, release, lag)


def _run_closed_loop(target, schedule, profile: LoadProfile,
                     state: _RunState) -> None:
    """Fixed-concurrency workers draining the schedule back to back."""
    cursor = itertools.count()

    def worker() -> None:
        while True:
            index = next(cursor)
            if index >= len(schedule):
                return
            _call_one(target, schedule[index], state, None, 0.0)

    threads = [
        threading.Thread(target=worker, name=f"nc-loadgen-{i}", daemon=True)
        for i in range(profile.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def entity_ranking(graph, limit: int = 256) -> "list[str]":
    """The first ``limit`` node names, as the popularity ranking.

    Node ids are assigned in insertion order, which for the bundled
    datasets puts the well-connected head entities first; the Zipf
    sampler supplies the skew over whatever ranking it is given.
    """
    count = min(limit, graph.node_count)
    return [graph.node_name(i) for i in range(count)]
