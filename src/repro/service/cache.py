"""Thread-safe, version-keyed LRU result cache for the query service.

Keys are opaque hashables; by convention the engine uses::

    (graph.version, frozenset(query_ids), context_size, alpha, discriminator_params)

so a graph mutation (which bumps ``graph.version``) makes every previous
entry *unreachable* immediately — no invalidation scan is needed on the
read path. :meth:`~repro.service.engine.NCEngine.swap_snapshot`
additionally calls :meth:`ResultCache.purge_versions` for the new
version, reclaiming the dead entries' memory eagerly instead of waiting
for LRU pressure to evict them.

All operations take one internal lock; values are returned as-is (cached
:class:`~repro.core.findnc.FindNCResult` objects are shared across
requests and must be treated as read-only by callers).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

from repro.service.metrics import ServiceMetrics


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    purged: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """The JSON shape embedded in the engine's ``/v1/stats`` payload."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "purged": self.purged,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """An LRU mapping that counts hits, misses, evictions and purges.

    >>> cache = ResultCache(maxsize=2)
    >>> cache.put((1, "a"), "ra"); cache.put((1, "b"), "rb")
    >>> cache.get((1, "a"))
    'ra'
    >>> cache.put((1, "c"), "rc")          # evicts (1, "b"), the LRU entry
    >>> cache.get((1, "b")) is None
    True
    >>> cache.stats().evictions
    1

    The events are counted into ``metrics.cache_events``: the engine
    passes its own :class:`~repro.service.metrics.ServiceMetrics`, and a
    cache built without one counts into a fresh bundle of its own.
    """

    def __init__(
        self, maxsize: int = 256, *, metrics: "ServiceMetrics | None" = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._events = (metrics or ServiceMetrics()).cache_events
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable) -> object | None:
        """The cached value for ``key`` (marking it most-recent), or None."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                value = None
                event = "miss"
            else:
                self._entries.move_to_end(key)
                event = "hit"
        self._events.inc(event=event)
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries over capacity."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._events.inc(evicted, event="eviction")

    def purge_versions(self, keep_version: int) -> int:
        """Drop every entry whose key's version field != ``keep_version``.

        Assumes the engine's key convention (``key[0]`` is the graph
        version the result was computed at). Returns the number of
        entries dropped; they are counted under ``purged``, not
        ``evictions``.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] != keep_version
            ]
            for key in stale:
                del self._entries[key]
        if stale:
            self._events.inc(len(stale), event="purged")
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """The cache counters, read from its metrics series, and its size."""
        count = self._events.value
        return CacheStats(
            hits=int(count(event="hit")),
            misses=int(count(event="miss")),
            evictions=int(count(event="eviction")),
            purged=int(count(event="purged")),
            size=len(self),
            maxsize=self.maxsize,
        )
