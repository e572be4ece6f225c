"""Exception hierarchy for the ``repro`` library.

Every exception raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class StoreError(ReproError):
    """Base class for term and dump-parsing errors (:mod:`repro.store`)."""


class ParseError(StoreError):
    """A serialized triple (N-Triples / TSV line) could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class TermError(StoreError):
    """An RDF-like term was constructed with invalid content."""


class GraphError(ReproError):
    """Base class for knowledge-graph errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id or node label was not present in the graph."""

    def __init__(self, node: object) -> None:
        self.node = node
        super().__init__(f"node not found: {node!r}")


class EdgeLabelNotFoundError(GraphError, KeyError):
    """An edge label was not present in the graph."""

    def __init__(self, label: object) -> None:
        self.label = label
        super().__init__(f"edge label not found: {label!r}")


class EntityResolutionError(GraphError):
    """An entity name could not be resolved to a node."""

    def __init__(self, name: str, candidates: tuple[str, ...] = ()) -> None:
        self.name = name
        self.candidates = candidates
        hint = f" (closest: {', '.join(candidates)})" if candidates else ""
        super().__init__(f"cannot resolve entity {name!r}{hint}")


class QueryError(ReproError):
    """The user-supplied query set is invalid (empty, too large, unknown)."""


class StatisticsError(ReproError):
    """A statistical routine received invalid input.

    Raised for example when a multinomial test is asked to compare
    distributions of mismatched support, or when a test's assumptions
    are structurally violated (negative counts, empty support).
    """


class ExperimentError(ReproError):
    """An evaluation experiment was misconfigured."""


class DeadlineExceededError(ReproError):
    """A request's deadline expired before its computation completed.

    Raised by the serving layer (:class:`~repro.service.engine.NCEngine`
    and :class:`~repro.service.workers.ProcessWorkerPool`) when a
    per-request deadline — ``timeout_ms`` over HTTP or the engine's
    ``request_timeout`` default — runs out. The HTTP front-end maps it
    to ``504 Gateway Timeout``. The underlying computation may still
    complete in the background and populate the result cache.
    """

    def __init__(self, message: str, *, timeout: float | None = None) -> None:
        self.timeout = timeout
        super().__init__(message)


class EngineSaturatedError(ReproError):
    """The engine shed a request: its pending-work budget is exhausted.

    Raised by :meth:`~repro.service.engine.NCEngine.submit` when
    ``max_pending`` distinct computations are already in flight —
    admission control that keeps queueing delay bounded instead of
    letting latency grow without limit under overload. The HTTP
    front-end maps it to ``503 Service Unavailable`` with a
    ``Retry-After`` header (:attr:`retry_after`, seconds).
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)
