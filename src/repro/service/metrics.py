"""Prometheus-style metrics for the query service (``GET /v1/metrics``).

A small, dependency-free instrumentation layer: the engine, the result
cache, the worker pool, and the HTTP front-end all record into one
:class:`MetricsRegistry`, and the server renders it in the `Prometheus
text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ on
every scrape.

Three instrument kinds cover the serving stack:

* :class:`Counter` — monotonically increasing event counts, optionally
  split by label (``nc_cache_events_total{event="hit"}``). Increments
  take one tiny per-series lock; **reads are lock-free** (a scrape
  never blocks the serving path — it reads each series' current value
  in one atomic attribute load).
* :class:`Histogram` — fixed-bucket latency distributions
  (``nc_request_latency_seconds_bucket{route="search",le="0.05"}``).
  Buckets are chosen at registration time and never reallocated, so
  ``observe`` is one bisect + one integer increment under the series
  lock; rendering reads a consistent snapshot.
* :class:`Gauge` — point-in-time values either set explicitly or
  collected at scrape time from a callback (``nc_engine_inflight``,
  ``nc_breaker_state``); callbacks let the registry report live engine
  state without the engine pushing on every change.

The registry renders series in registration order with stable label
ordering, so two scrapes of an idle service are byte-identical — which
is what makes the exposition easily testable
(:mod:`tests.test_service_metrics`) and CI-checkable
(:func:`validate_exposition`).

Instrumented series are documented for operators in
``docs/OPERATIONS.md`` ("Metrics reference").
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 250µs .. 30s in roughly 2.5x
#: steps, covering cached hits (sub-ms) through cold computations.
DEFAULT_LATENCY_BUCKETS = (
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format grammar."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(labels: "tuple[tuple[str, str], ...]") -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + rendered + "}"


class _Instrument:
    """Shared bookkeeping: name/help/label validation and series storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: "tuple[str, ...]") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r} for metric {name!r}")
        self.name = name
        self.help = help_text.replace("\n", " ")
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        #: label-value tuple -> series object; insertion-ordered so the
        #: exposition is stable scrape to scrape.
        self._series: dict = {}

    def _key(self, labels: "dict[str, str]") -> "tuple[str, ...]":
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _get_series(self, labels: "dict[str, str]"):
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._make_series()
                    self._series[key] = series
        return series

    def _make_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _label_pairs(self, key: "tuple[str, ...]") -> "tuple[tuple[str, str], ...]":
        return tuple(zip(self.labelnames, key))

    def render(self) -> "list[str]":
        """The exposition lines for this instrument (HELP/TYPE + samples)."""
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        # dict iteration over a snapshot of items: concurrent inserts may
        # be missed this scrape (they appear on the next), never corrupt.
        for key, series in list(self._series.items()):
            lines.extend(self._render_series(self._label_pairs(key), series))
        return lines

    def _render_series(self, labels, series) -> "list[str]":  # pragma: no cover
        raise NotImplementedError


class _CounterSeries:
    __slots__ = ("lock", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value = 0.0


class Counter(_Instrument):
    """A monotonically increasing counter, optionally labeled.

    >>> c = Counter("nc_demo_total", "demo", ("event",))
    >>> c.inc(event="hit"); c.inc(2, event="hit")
    >>> c.value(event="hit")
    3.0
    """

    kind = "counter"

    def _make_series(self) -> _CounterSeries:
        return _CounterSeries()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        series = self._get_series(labels)
        with series.lock:
            series.value += amount

    def value(self, **labels: str) -> float:
        """The labeled series' current value (0.0 if never incremented)."""
        series = self._series.get(self._key(labels))
        return series.value if series is not None else 0.0

    def _render_series(self, labels, series) -> "list[str]":
        return [f"{self.name}{_format_labels(labels)} {_format_value(series.value)}"]


class _HistogramSeries:
    __slots__ = ("lock", "bucket_counts", "total", "count", "exemplars")

    def __init__(self, buckets: int) -> None:
        self.lock = threading.Lock()
        self.bucket_counts = [0] * (buckets + 1)  # + the +Inf bucket
        self.total = 0.0
        self.count = 0
        #: bucket index -> (label dict, observed value); latest wins.
        self.exemplars: "dict[int, tuple[dict, float]]" = {}


class Histogram(_Instrument):
    """A fixed-bucket histogram with cumulative Prometheus rendering.

    ``buckets`` are the upper bounds (``le``) of each bucket, strictly
    increasing; an implicit ``+Inf`` bucket is always appended.
    Observations are binned with one bisect; bucket counts are stored
    *non*-cumulative and accumulated at render time, so ``observe``
    touches exactly one integer.

    When :attr:`emit_exemplars` is enabled, ``observe(..., exemplar=...)``
    attaches the exemplar labels (e.g. ``{"trace_id": ...}``) to the
    bucket the observation fell into — latest observation wins — and the
    renderer appends an OpenMetrics-style `` # {labels} value`` clause to
    that ``_bucket`` line, linking the aggregate to one concrete trace in
    ``/v1/debug/traces``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: "tuple[str, ...]" = (),
        *,
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        self.emit_exemplars = False

    def _make_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.buckets))

    def observe(
        self, value: float, *, exemplar: "dict[str, str] | None" = None, **labels: str
    ) -> None:
        """Record one observation into the labeled series.

        ``exemplar`` (e.g. ``{"trace_id": ...}``) is kept only while the
        histogram has :attr:`emit_exemplars` enabled.
        """
        index = bisect_left(self.buckets, value)
        series = self._get_series(labels)
        with series.lock:
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1
            if exemplar is not None and self.emit_exemplars:
                series.exemplars[index] = (dict(exemplar), value)

    def snapshot(self, **labels: str) -> "dict":
        """``{"count", "sum", "buckets": {le: cumulative}}`` for tests/UI."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        with series.lock:
            counts = list(series.bucket_counts)
            total = series.total
            count = series.count
        cumulative: "dict[float, int]" = {}
        running = 0
        for bound, bucket_count in zip((*self.buckets, math.inf), counts):
            running += bucket_count
            cumulative[bound] = running
        return {"count": count, "sum": total, "buckets": cumulative}

    def _render_series(self, labels, series) -> "list[str]":
        with series.lock:
            counts = list(series.bucket_counts)
            total = series.total
            count = series.count
            exemplars = dict(series.exemplars) if self.emit_exemplars else {}
        lines = []
        running = 0
        for index, (bound, bucket_count) in enumerate(
            zip((*self.buckets, math.inf), counts)
        ):
            running += bucket_count
            bucket_labels = (*labels, ("le", _format_value(bound)))
            line = f"{self.name}_bucket{_format_labels(bucket_labels)} {running}"
            exemplar = exemplars.get(index)
            if exemplar is not None:
                exemplar_labels = tuple(sorted(exemplar[0].items()))
                line += (
                    f" # {_format_labels(exemplar_labels)}"
                    f" {_format_value(exemplar[1])}"
                )
            lines.append(line)
        lines.append(
            f"{self.name}_sum{_format_labels(labels)} {_format_value(total)}"
        )
        lines.append(f"{self.name}_count{_format_labels(labels)} {count}")
        return lines


class _GaugeSeries:
    __slots__ = ("lock", "value", "callback")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value = 0.0
        self.callback = None


class Gauge(_Instrument):
    """A point-in-time value: set explicitly or collected at scrape time.

    ``set_function`` registers a zero-argument callback evaluated on
    every render — the natural fit for values the engine already tracks
    (in-flight requests, pinned version, uptime) without a push on each
    change. A callback that raises is rendered as ``NaN`` rather than
    failing the whole scrape.
    """

    kind = "gauge"

    def _make_series(self) -> _GaugeSeries:
        return _GaugeSeries()

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled series to ``value``."""
        series = self._get_series(labels)
        with series.lock:
            series.value = float(value)
            series.callback = None

    def set_function(self, callback, **labels: str) -> None:
        """Collect the labeled series from ``callback()`` at scrape time."""
        series = self._get_series(labels)
        with series.lock:
            series.callback = callback

    def value(self, **labels: str) -> float:
        """The labeled series' current value (callback evaluated now)."""
        series = self._series.get(self._key(labels))
        if series is None:
            return 0.0
        callback = series.callback
        if callback is not None:
            try:
                return float(callback())
            except Exception:
                return math.nan
        return series.value

    def _render_series(self, labels, series) -> "list[str]":
        callback = series.callback
        if callback is not None:
            try:
                value = float(callback())
            except Exception:
                value = math.nan
        else:
            value = series.value
        if math.isnan(value):
            rendered = "NaN"
        else:
            rendered = _format_value(value)
        return [f"{self.name}{_format_labels(labels)} {rendered}"]


class MetricsRegistry:
    """An ordered collection of instruments with one text renderer.

    Registration is idempotent by name *and* signature: asking for an
    already-registered instrument returns the existing one (so layered
    components — engine, cache hook, server — can share series without
    threading instrument objects through every constructor), while a
    conflicting re-registration (different kind or labels) raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "dict[str, _Instrument]" = {}

    def counter(
        self, name: str, help_text: str, labelnames: "tuple[str, ...]" = ()
    ) -> Counter:
        """Get or register a :class:`Counter`."""
        return self._register(Counter, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: "tuple[str, ...]" = (),
        *,
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or register a :class:`Histogram`."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_compatible(existing, Histogram, labelnames)
                if existing.buckets != tuple(float(b) for b in buckets if b != math.inf):
                    raise ValueError(
                        f"metric {name!r} is already registered with different "
                        f"buckets"
                    )
                return existing
            instrument = Histogram(name, help_text, labelnames, buckets=buckets)
            self._instruments[name] = instrument
            return instrument

    def gauge(
        self, name: str, help_text: str, labelnames: "tuple[str, ...]" = ()
    ) -> Gauge:
        """Get or register a :class:`Gauge`."""
        return self._register(Gauge, name, help_text, labelnames)

    def _register(self, cls, name: str, help_text: str, labelnames) -> "_Instrument":
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_compatible(existing, cls, labelnames)
                return existing
            instrument = cls(name, help_text, labelnames)
            self._instruments[name] = instrument
            return instrument

    @staticmethod
    def _check_compatible(existing: _Instrument, cls, labelnames) -> None:
        if type(existing) is not cls or existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {existing.name!r} is already registered as "
                f"{existing.kind} with labels {existing.labelnames}"
            )

    def get(self, name: str) -> "_Instrument | None":
        """The registered instrument named ``name``, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def render(self) -> str:
        """The full Prometheus text exposition (content type
        ``text/plain; version=0.0.4``)."""
        with self._lock:
            instruments = list(self._instruments.values())
        lines: "list[str]" = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"


#: Exposition content type served by ``GET /v1/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)"
    r"( (?P<timestamp>-?[0-9]+))?"
    r"( # (?P<exemplar_labels>\{[^{}]*\}) (?P<exemplar_value>[^ ]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"$'
)


def validate_exposition(text: str) -> "dict[str, str]":
    """Parse Prometheus text exposition; raise ``ValueError`` if malformed.

    A deliberately strict checker for tests and the CI scrape smoke: it
    enforces the line grammar (HELP/TYPE comments, sample lines, label
    syntax, parseable values), that every sample belongs to a ``# TYPE``d
    metric family declared *before* it, that histogram families expose
    ``_bucket``/``_sum``/``_count`` with a ``+Inf`` bucket, and that
    cumulative bucket counts never decrease. OpenMetrics-style exemplars
    (`` # {trace_id="..."} 0.064``) are accepted — but only on histogram
    ``_bucket`` lines, and their label pairs and value must themselves be
    well-formed. Returns the ``{family: type}`` mapping for further
    assertions.
    """
    families: "dict[str, str]" = {}
    bucket_state: "dict[tuple, float]" = {}
    seen_inf: "set[str]" = set()
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(
                        f"line {line_number}: unknown metric type {parts[3]!r}"
                    )
                if parts[2] in families:
                    raise ValueError(
                        f"line {line_number}: duplicate TYPE for {parts[2]!r}"
                    )
                families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        name = match.group("name")
        label_blob = match.group("labels")
        labels: "dict[str, str]" = {}
        if label_blob:
            for pair in _split_label_pairs(label_blob[1:-1], line_number):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(
                        f"line {line_number}: malformed label pair {pair!r}"
                    )
                key, _, value = pair.partition("=")
                if key in labels:
                    raise ValueError(
                        f"line {line_number}: duplicate label {key!r}"
                    )
                labels[key] = value[1:-1]
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as error:
            raise ValueError(
                f"line {line_number}: unparseable value {raw_value!r}"
            ) from error
        family = _family_name(name)
        if family not in families:
            raise ValueError(
                f"line {line_number}: sample {name!r} has no preceding # TYPE"
            )
        exemplar_blob = match.group("exemplar_labels")
        if exemplar_blob is not None:
            if families[family] != "histogram" or not name.endswith("_bucket"):
                raise ValueError(
                    f"line {line_number}: exemplar on non-bucket sample {name!r}"
                )
            for pair in _split_label_pairs(exemplar_blob[1:-1], line_number):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(
                        f"line {line_number}: malformed exemplar label {pair!r}"
                    )
            raw_exemplar = match.group("exemplar_value")
            try:
                float(raw_exemplar)
            except ValueError as error:
                raise ValueError(
                    f"line {line_number}: unparseable exemplar value "
                    f"{raw_exemplar!r}"
                ) from error
        if families[family] == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                raise ValueError(f"line {line_number}: bucket without le label")
            series_key = (
                family,
                tuple(sorted((k, v) for k, v in labels.items() if k != "le")),
            )
            if labels["le"] == "+Inf":
                seen_inf.add(family)
            previous = bucket_state.get(series_key, -math.inf)
            if value < previous:
                raise ValueError(
                    f"line {line_number}: cumulative bucket count decreased"
                )
            bucket_state[series_key] = value
    histogram_families = {f for f, kind in families.items() if kind == "histogram"}
    missing_inf = {
        family
        for family in histogram_families
        if any(key[0] == family for key in bucket_state) and family not in seen_inf
    }
    if missing_inf:
        raise ValueError(f"histograms missing a +Inf bucket: {sorted(missing_inf)}")
    return families


def _split_label_pairs(blob: str, line_number: int) -> "list[str]":
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: "list[str]" = []
    current: "list[str]" = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {line_number}: unterminated label value")
    if current:
        pairs.append("".join(current))
    return [pair for pair in pairs if pair]


def _family_name(sample_name: str) -> str:
    """Map a sample name onto its metric family (histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if family:
                return family
    return sample_name


class ServiceMetrics:
    """The pre-registered instrument bundle for one engine + HTTP front-end.

    Owned by :class:`~repro.service.engine.NCEngine` (``engine.metrics``)
    and shared with the HTTP server, which renders
    :attr:`registry` on ``GET /v1/metrics`` and records per-route
    counters/latency through :attr:`http_requests` /
    :attr:`http_latency`. The cache and the worker pool stay decoupled
    from this module — they accept plain ``on_event`` callbacks, and
    :meth:`cache_event` / :meth:`worker_event` are the engine-provided
    implementations that translate those events into counter series.

    Every exported series is documented for operators in
    ``docs/OPERATIONS.md`` ("Metrics reference").
    """

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        *,
        exemplars: bool = False,
    ) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        self.http_requests = reg.counter(
            "nc_http_requests_total",
            "HTTP requests served, by canonical route, method and status code.",
            ("route", "method", "status"),
        )
        self.http_latency = reg.histogram(
            "nc_http_request_latency_seconds",
            "Wall-clock HTTP request latency, by canonical route.",
            ("route",),
        )
        self.engine_requests = reg.counter(
            "nc_engine_requests_total",
            "Requests admitted into NCEngine.submit, by executor backend.",
            ("executor",),
        )
        self.cache_events = reg.counter(
            "nc_cache_events_total",
            "Result-cache events (hit, miss, eviction, purged).",
            ("event",),
        )
        self.coalesced = reg.counter(
            "nc_engine_coalesced_total",
            "Requests that joined an identical in-flight computation "
            "(single-flight coalescing).",
        )
        self.computed = reg.counter(
            "nc_engine_computed_total",
            "Distinct computations completed, by executor backend.",
            ("backend",),
        )
        self.compute_latency = reg.histogram(
            "nc_compute_latency_seconds",
            "Latency of distinct (non-cached, non-coalesced) computations, "
            "by executor backend.",
            ("backend",),
        )
        self.timeouts = reg.counter(
            "nc_engine_timeouts_total",
            "Requests whose deadline expired (served as HTTP 504).",
        )
        self.shed = reg.counter(
            "nc_engine_shed_total",
            "Requests shed by admission control (served as HTTP 503).",
        )
        self.fallbacks = reg.counter(
            "nc_engine_fallbacks_total",
            "Computations served by the degraded thread-local fallback.",
        )
        self.backend_retries = reg.counter(
            "nc_engine_backend_retries_total",
            "Worker-backend dispatches retried after a crash or a stale "
            "segment.",
        )
        self.swaps = reg.counter(
            "nc_engine_swaps_total",
            "Completed snapshot hot swaps.",
        )
        self.drains = reg.counter(
            "nc_engine_drained_versions_total",
            "Superseded snapshot versions fully drained and retired.",
        )
        self.worker_events = reg.counter(
            "nc_worker_events_total",
            "Worker-pool lifecycle events (dispatch, complete, stale, crash, "
            "deadline_abandon, respawn, respawn_suppressed, batch_dispatch).",
            ("event",),
        )
        self.worker_batch_size = reg.histogram(
            "nc_worker_batch_size",
            "Members per dispatched worker batch (a lone request is a "
            "batch of one).",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        )
        self.ingest_batches = reg.counter(
            "nc_ingest_batches_total",
            "Live-ingest batches accepted via POST /v1/admin/ingest, by "
            "outcome (accepted, noop, rejected, failed).",
            ("status",),
        )
        self.ingest_triples = reg.counter(
            "nc_ingest_triples_total",
            "Canonical statements recorded by live ingest, by op (add, "
            "remove).",
            ("op",),
        )
        self.ingest_lag = reg.histogram(
            "nc_ingest_lag_seconds",
            "Wall-clock from a delta run's durable append to the merged "
            "version being adopted by the serving engine.",
        )
        self.delta_depth = reg.gauge(
            "nc_delta_depth",
            "Delta runs appended against the active chain base that the "
            "serving snapshot has not folded in yet (0 when fully merged).",
        )
        # Latency histograms carry trace-id exemplars only when the
        # operator opts in (--metrics-exemplars): classic Prometheus
        # scrapers tolerate the clause, but the default stays 0.0.4-pure.
        self.http_latency.emit_exemplars = exemplars
        self.compute_latency.emit_exemplars = exemplars

    def cache_event(self, event: str, count: int = 1) -> None:
        """:class:`~repro.service.cache.ResultCache`'s ``on_event`` hook."""
        self.cache_events.inc(count, event=event)

    def worker_event(self, event: str, count: int = 1) -> None:
        """:class:`~repro.service.workers.ProcessWorkerPool`'s ``on_event`` hook."""
        self.worker_events.inc(count, event=event)

    def observe_worker_batch(self, size: int) -> None:
        """:class:`~repro.service.workers.ProcessWorkerPool`'s ``on_batch`` hook."""
        self.worker_batch_size.observe(float(size))

    def render(self) -> str:
        """The registry's full Prometheus text exposition."""
        return self.registry.render()
