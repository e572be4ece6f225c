"""End-to-end request tracing for the query service (``/v1/debug/traces``).

PR 7's metrics answer *how the service is doing*; this module answers
*where one request's time went*. A request may traverse four execution
domains — the HTTP handler thread, the engine's single-flight executor,
the worker pool's micro-batch dispatcher, and a worker **process** — and
each domain records explicit :class:`Span` objects into one
:class:`Trace` keyed by a W3C ``traceparent``-compatible 128-bit trace
id. Zero dependencies: ids are ``os.urandom`` hex, timestamps are
``time.monotonic_ns()``.

Sampling and retention
----------------------

* **Head sampling** (``--trace-sample-rate``): each request flips a
  seeded coin at trace start; sampled traces are always retained. An
  inbound ``traceparent`` header with the ``01`` (sampled) flag forces
  the decision, so a client can sample its own requests
  (``curl -H 'traceparent: 00-<trace-id>-<span-id>-01'``) and read each
  trace id back from ``X-Trace-Id``.
* **Tail capture** (``--slow-query-ms``): when a slow-query threshold is
  configured, *every* request records spans so that any request that
  errors (HTTP 5xx) or exceeds the threshold can be force-retained even
  though the head coin said no. Without a threshold, unsampled requests
  record nothing — the disabled tracer costs one predicate per request.

Finished traces land in a bounded ring buffer (:class:`TraceBuffer`)
exposed at ``GET /v1/debug/traces`` (summaries) and
``GET /v1/debug/traces/<id>`` (the full span tree as a flat
parent-linked list). ``tools/trace_report.py`` renders the tree.

Cross-process stitching
-----------------------

Worker processes cannot share the parent's :class:`Trace` object, and
their monotonic clock origin is not guaranteed to match the parent's.
Workers therefore record phase spans through a
:class:`WorkerSpanRecorder` as **offsets** from a batch-local origin and
ship them back inside the result payload; the parent rebases them onto
the dispatch instant of its own ``pool.worker`` span. Because the worker
origin is always *after* dispatch and worker spans always end *before*
the result message arrives, rebased child spans are guaranteed to nest
monotonically inside their parent span (``tests/test_service_tracing.py``
pins this).

Structured logging
------------------

:func:`log_event` is the one log writer for request/swap/crash/breaker
lines. ``--log-format json`` (:func:`set_log_format`) switches it from
``event key=value`` text to one JSON object per line, with ``trace_id``
stamped whenever the triggering request carries a trace.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from collections import deque
from collections.abc import Iterable

#: ``version-traceid-parentid-flags``, lowercase hex per the W3C spec.
_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A random 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A random 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


class SpanContext:
    """The propagated slice of a trace: ids + the sampled flag.

    What crosses process/network boundaries (as a ``traceparent``
    header inbound, as a task field over the pickle boundary) — never
    the spans themselves.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"


def parse_traceparent(header: "str | None") -> "SpanContext | None":
    """Parse an inbound ``traceparent`` header; ``None`` if malformed.

    Strict per the W3C grammar: four lowercase-hex fields, version
    ``ff`` forbidden, all-zero trace/span ids forbidden. A malformed
    header is *rejected* (treated as absent — the request gets a fresh
    trace id) rather than propagated.
    """
    if header is None:
        return None
    match = _TRACEPARENT_RE.match(header.strip())
    if match is None:
        return None
    if match.group("version") == "ff":
        return None
    trace_id = match.group("trace_id")
    span_id = match.group("span_id")
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    sampled = bool(int(match.group("flags"), 16) & 0x01)
    return SpanContext(trace_id, span_id, sampled)


class Span:
    """One named, timed phase of a request, linked to its parent span.

    Timestamps are ``time.monotonic_ns()`` instants (parent process
    clock); ``end()`` is idempotent and ``set()`` merges attributes —
    e.g. ``cache="hit"``, ``batch_size=4``, ``worker_id="nc-worker-0"``.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns", "attributes")

    def __init__(
        self,
        name: str,
        *,
        parent_id: "str | None" = None,
        span_id: "str | None" = None,
        start_ns: "int | None" = None,
        attributes: "dict | None" = None,
    ) -> None:
        self.name = name
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.start_ns = start_ns if start_ns is not None else time.monotonic_ns()
        self.end_ns: "int | None" = None
        self.attributes: dict = dict(attributes or {})

    def set(self, **attributes: object) -> "Span":
        """Merge ``attributes`` into the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def end(self, end_ns: "int | None" = None) -> None:
        """Close the span (first call wins)."""
        if self.end_ns is None:
            self.end_ns = end_ns if end_ns is not None else time.monotonic_ns()

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds (0.0 while still open)."""
        if self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        """The JSON shape served by ``GET /v1/debug/traces/<id>``."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ms": round(self.duration_ms, 4),
            "attributes": dict(self.attributes),
        }


class Trace:
    """One request's span collection, rooted at the inbound HTTP span.

    Thread-safe appends: the HTTP thread, the engine executor thread and
    the pool's dispatch path all record into the same trace. The root
    span is created at construction; every other span defaults its
    parent to the root.
    """

    def __init__(
        self,
        name: str,
        *,
        trace_id: "str | None" = None,
        sampled: bool = False,
        remote_parent: "str | None" = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.sampled = sampled
        self.error = False
        self._lock = threading.Lock()
        self.root = Span(name, parent_id=remote_parent)
        self._spans: "list[Span]" = [self.root]

    def start_span(
        self, name: str, *, parent: "Span | None" = None, **attributes: object
    ) -> Span:
        """Open a live child span (caller must ``end()`` it)."""
        span = Span(
            name,
            parent_id=(parent if parent is not None else self.root).span_id,
            attributes=attributes or None,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def add_span(
        self,
        name: str,
        *,
        start_ns: int,
        end_ns: int,
        parent: "Span | None" = None,
        attributes: "dict | None" = None,
    ) -> Span:
        """Record an already-finished span from explicit timestamps."""
        span = Span(
            name,
            parent_id=(parent if parent is not None else self.root).span_id,
            start_ns=start_ns,
            attributes=attributes,
        )
        span.end(end_ns)
        with self._lock:
            self._spans.append(span)
        return span

    def add_remote_spans(
        self, spans: "list[dict]", *, base_ns: int, parent: Span
    ) -> None:
        """Stitch worker-recorded offset spans under ``parent``.

        ``spans`` are :meth:`WorkerSpanRecorder.export` dicts whose
        ``start``/``end`` are nanosecond offsets from the worker's local
        origin; rebasing them onto ``base_ns`` (the dispatch instant,
        which precedes the worker origin in real time) keeps every child
        inside its parent span's interval.
        """
        for entry in spans:
            self.add_span(
                entry["name"],
                start_ns=base_ns + int(entry["start"]),
                end_ns=base_ns + int(entry["end"]),
                parent=parent,
                attributes=entry.get("attrs") or None,
            )

    def set_error(self) -> None:
        """Mark the trace failed (forces tail retention)."""
        self.error = True

    @property
    def context(self) -> SpanContext:
        """The propagation context rooted at this trace's root span."""
        return SpanContext(self.trace_id, self.root.span_id, self.sampled)

    def as_dict(self) -> dict:
        """The full-trace JSON: summary fields + the flat span list."""
        self.root.end()
        with self._lock:
            spans = list(self._spans)
        for span in spans:
            span.end()  # a leaked-open span must not corrupt the export
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "sampled": self.sampled,
            "error": self.error,
            "duration_ms": round(self.root.duration_ms, 4),
            "spans": [span.as_dict() for span in spans],
        }


class TraceBuffer:
    """A bounded ring of finished traces (oldest evicted first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "deque[dict]" = deque(maxlen=capacity)
        self._dropped = 0

    def add(self, trace: dict) -> None:
        """Retain one finished trace dict, evicting the oldest at capacity."""
        with self._lock:
            if len(self._traces) == self.capacity:
                self._dropped += 1
            self._traces.append(trace)

    def get(self, trace_id: str) -> "dict | None":
        """The retained trace with ``trace_id``, or ``None``."""
        with self._lock:
            for trace in reversed(self._traces):
                if trace["trace_id"] == trace_id:
                    return trace
        return None

    def summaries(self, limit: int = 50) -> "list[dict]":
        """Newest-first digests for ``GET /v1/debug/traces``."""
        with self._lock:
            recent = list(self._traces)[-limit:]
        recent.reverse()
        return [
            {
                "trace_id": trace["trace_id"],
                "name": trace["name"],
                "duration_ms": trace["duration_ms"],
                "error": trace["error"],
                "sampled": trace["sampled"],
                "retained": trace.get("retained", "sampled"),
                "spans": len(trace["spans"]),
            }
            for trace in recent
        ]

    def stats(self) -> dict:
        """``{"retained", "capacity", "dropped"}`` for the list endpoint."""
        with self._lock:
            return {
                "retained": len(self._traces),
                "capacity": self.capacity,
                "dropped": self._dropped,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class Tracer:
    """Per-engine sampling policy + the ring buffer of retained traces.

    ``sample_rate`` is the head-sampling probability (0 disables);
    ``slow_query_ms`` enables tail capture — every request records, but
    only errored/slow/sampled ones are retained. The seeded RNG makes
    sampling decisions reproducible for a fixed request order.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 0.0,
        slow_query_ms: "float | None" = None,
        capacity: int = 256,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be within [0, 1], got {sample_rate}"
            )
        if slow_query_ms is not None and slow_query_ms <= 0:
            raise ValueError(
                f"slow_query_ms must be > 0, got {slow_query_ms}"
            )
        import random

        self.sample_rate = sample_rate
        self.slow_query_ms = slow_query_ms
        self.buffer = TraceBuffer(capacity)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._started = 0
        self._retained_slow = 0
        self._retained_error = 0

    @property
    def enabled(self) -> bool:
        """Whether any request can ever record spans."""
        return self.sample_rate > 0.0 or self.slow_query_ms is not None

    def begin(
        self, name: str, *, parent: "SpanContext | None" = None
    ) -> "Trace | None":
        """Start a trace for one request, or ``None`` when not recording.

        An inbound sampled ``traceparent`` forces head sampling (and id
        continuity); otherwise the seeded coin decides. With tail
        capture configured, unsampled requests still record so a slow or
        failing one can be retained at :meth:`finish`.
        """
        if parent is not None and parent.sampled:
            sampled = True
        elif self.sample_rate > 0.0:
            with self._rng_lock:
                sampled = self._rng.random() < self.sample_rate
        else:
            sampled = False
        if not sampled and self.slow_query_ms is None:
            return None
        self._started += 1
        return Trace(
            name,
            trace_id=parent.trace_id if parent is not None else None,
            sampled=sampled,
            remote_parent=parent.span_id if parent is not None else None,
        )

    def finish(self, trace: "Trace | None", *, error: bool = False) -> bool:
        """Close ``trace`` and retain it if sampled, slow, or errored.

        Returns whether the trace was retained in the buffer.
        """
        if trace is None:
            return False
        if error:
            trace.set_error()
        trace.root.end()
        slow = (
            self.slow_query_ms is not None
            and trace.root.duration_ms >= self.slow_query_ms
        )
        if not (trace.sampled or trace.error or slow):
            return False
        exported = trace.as_dict()
        if trace.error:
            exported["retained"] = "error"
            self._retained_error += 1
        elif slow:
            exported["retained"] = "slow"
            self._retained_slow += 1
        else:
            exported["retained"] = "sampled"
        self.buffer.add(exported)
        return True

    def stats(self) -> dict:
        """Tracer counters merged with the buffer's, for the list endpoint."""
        out = self.buffer.stats()
        out.update(
            {
                "started": self._started,
                "sample_rate": self.sample_rate,
                "slow_query_ms": self.slow_query_ms,
                "retained_slow": self._retained_slow,
                "retained_error": self._retained_error,
            }
        )
        return out


class WorkerSpanRecorder:
    """Worker-process-side span recording as offsets from a local origin.

    Created once per received batch message; spans are exported as
    plain dicts (``{"name", "start", "end", "attrs"}`` with nanosecond
    offsets from the message-receipt origin) that ride back to the
    parent inside the result payload. Ids are assigned parent-side at
    stitch time, so nothing here needs to be globally unique.

    A span recorded with ``members`` (batch positions) belongs to those
    members only; one recorded without belongs to every member of the
    message (e.g. the segment attach).
    """

    __slots__ = ("origin_ns", "_spans")

    def __init__(self) -> None:
        self.origin_ns = time.monotonic_ns()
        self._spans: "list[tuple[str, int, int, dict, object]]" = []

    def now(self) -> int:
        """Nanoseconds since this recorder's origin."""
        return time.monotonic_ns() - self.origin_ns

    def record(
        self,
        name: str,
        start_off: int,
        end_off: "int | None" = None,
        *,
        members: "Iterable[int] | None" = None,
        **attrs: object,
    ) -> None:
        """Record one finished span from explicit offsets."""
        end = end_off if end_off is not None else self.now()
        owners = frozenset(members) if members is not None else None
        self._spans.append((name, start_off, end, dict(attrs), owners))

    def export(self, member: "int | None" = None) -> "list[dict]":
        """The spans of batch position ``member`` (all spans when ``None``)
        as picklable offset dicts."""
        return [
            {"name": name, "start": start, "end": end, "attrs": attrs}
            for name, start, end, attrs, owners in self._spans
            if member is None or owners is None or member in owners
        ]


def trace_tree(trace: dict) -> "list[dict]":
    """Nest a flat exported trace into ``children`` lists, roots first.

    Spans whose parent is missing from the trace (e.g. a remote parent
    from an inbound ``traceparent``) become roots. Children are ordered
    by start time.
    """
    nodes = {
        span["span_id"]: dict(span, children=[]) for span in trace["spans"]
    }
    roots: "list[dict]" = []
    for span in trace["spans"]:
        node = nodes[span["span_id"]]
        parent = nodes.get(span["parent_id"]) if span["parent_id"] else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start_ns"])
    roots.sort(key=lambda node: node["start_ns"])
    return roots


# -- structured logging ------------------------------------------------------

_LOG_LOCK = threading.Lock()
_LOG_FORMAT = "text"
VALID_LOG_FORMATS = ("text", "json")


def set_log_format(fmt: str) -> None:
    """Select the process-wide log line format (``"text"`` or ``"json"``)."""
    if fmt not in VALID_LOG_FORMATS:
        raise ValueError(
            f"log format must be one of {VALID_LOG_FORMATS}, got {fmt!r}"
        )
    global _LOG_FORMAT
    _LOG_FORMAT = fmt


def get_log_format() -> str:
    """The current log line format."""
    return _LOG_FORMAT


def log_event(
    event: str, *, trace_id: "str | None" = None, stream=None, **fields: object
) -> None:
    """Write one structured log line to stderr (or ``stream``).

    Text mode renders ``event key=value ...``; JSON mode renders one
    object per line with ``trace_id`` included whenever the triggering
    request carries a trace — the greppable join key between logs,
    ``/v1/debug/traces`` and metric exemplars.
    """
    out = stream if stream is not None else sys.stderr
    if _LOG_FORMAT == "json":
        payload: dict = {"event": event, "ts": round(time.time(), 6)}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        payload.update(fields)
        line = json.dumps(payload, sort_keys=True, default=str)
    else:
        parts = [event]
        if trace_id is not None:
            parts.append(f"trace_id={trace_id}")
        parts.extend(f"{key}={value}" for key, value in fields.items())
        line = " ".join(parts)
    with _LOG_LOCK:
        print(line, file=out, flush=True)
