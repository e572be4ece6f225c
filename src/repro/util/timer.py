"""Wall-clock measurement helpers used by the experiment harness."""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, TypeVar

T = TypeVar("T")


@dataclass
class Stopwatch:
    """Accumulating stopwatch.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    _started_at: float | None = None

    def start(self) -> "Stopwatch":
        """Start a lap; RuntimeError if one is already running."""
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """End the running lap, add it to ``elapsed`` and return its seconds."""
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        lap = time.perf_counter() - self._started_at
        self._started_at = None
        self.laps.append(lap)
        self.elapsed += lap
        return lap

    def reset(self) -> None:
        """Clear the accumulated time and laps, and drop any running lap."""
        self.elapsed = 0.0
        self.laps.clear()
        self._started_at = None

    @property
    def running(self) -> bool:
        """Whether a lap is in progress."""
        return self._started_at is not None

    @property
    def mean_lap(self) -> float:
        """Mean seconds per completed lap (0.0 before the first lap)."""
        if not self.laps:
            return 0.0
        return self.elapsed / len(self.laps)

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@contextmanager
def timed(label: str, sink: dict[str, float] | None = None) -> Iterator[Stopwatch]:
    """Context manager recording the elapsed seconds under ``label``.

    If ``sink`` is given, the measurement is stored there; the stopwatch is
    yielded either way so callers can inspect ``elapsed`` directly.
    """
    watch = Stopwatch()
    watch.start()
    try:
        yield watch
    finally:
        watch.stop()
        if sink is not None:
            sink[label] = sink.get(label, 0.0) + watch.elapsed


def time_call(func: Callable[..., T], *args: Any, **kwargs: Any) -> tuple[T, float]:
    """Call ``func`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start
