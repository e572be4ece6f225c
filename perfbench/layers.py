"""Per-layer timing for the traced run, from the benchmark's own files.

:class:`Layers` wraps public functions of the program's modules with
wall-clock timers that record calls, total time, self time (total minus
the time of timed calls nested inside it on the same thread) and errors.
Functions that in production run only inside spawned workers are timed
by :func:`replay`, which feeds the same queries through the same
functions in this process, on the same snapshot and engine settings.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: ``(module, attribute path, layer name)`` wrapped for a traced run.
#: Module-level functions are wrapped where their callers look them up.
SERVING = (
    ("repro.service.engine", "NCEngine.request", "engine.request"),
    ("repro.service.engine", "NCEngine.submit", "engine.submit"),
    ("repro.service.engine", "NCEngine.swap_snapshot", "engine.swap"),
    ("repro.service.server", "outcome_to_json", "server.encode"),
    ("repro.disk.registry", "SnapshotRegistry.append_delta", "registry.append"),
    ("repro.disk.registry", "SnapshotRegistry.merge_pending", "registry.merge"),
    ("repro.disk.registry", "SnapshotRegistry.open_view", "store.open"),
    ("repro.disk", "open_snapshot_view", "store.open"),
)
COMPUTE = (
    ("repro.core.context", "RandomWalkContext.select", "context.select"),
    ("repro.core.context", "RandomWalkContext.select_many", "context.select"),
    ("repro.core.findnc", "FindNC.run", "findnc.run"),
    ("repro.core.findnc", "build_all_distributions", "distributions.sweep"),
    ("repro.core.discrimination", "MultinomialDiscriminator.score", "discrimination.score"),
    ("repro.core.discrimination", "multinomial_test", "multinomial.test"),
    ("repro.stats.multinomial", "compositions_array", "multinomial.table_build"),
)


class Layers:
    """Timers around named functions; :meth:`close` puts the originals back."""

    def __init__(self) -> None:
        self.calls: "dict[str, int]" = defaultdict(int)
        self.total: "dict[str, float]" = defaultdict(float)
        self.self_time: "dict[str, float]" = defaultdict(float)
        self.errors: "dict[str, int]" = defaultdict(int)
        #: ``method`` of every multinomial test result (exact / montecarlo / ...).
        self.test_methods: "dict[str, int]" = defaultdict(int)
        #: Seconds from ``submit`` returning to the future completing, misses only.
        self.compute_waits: "list[float]" = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def install(self, table) -> None:
        """Wrap every ``(module, attribute path, name)`` of ``table``."""
        import importlib

        for module_name, path, name in table:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            setattr(owner, attr, self._timed(original, name))
            self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped function."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget everything recorded so far (the timed window starts)."""
        with self._lock:
            for table in (self.calls, self.total, self.self_time, self.errors, self.test_methods):
                table.clear()
            self.compute_waits.clear()

    def _timed(self, original, name: str):
        layers = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = layers._stack()
            stack.append(0.0)
            start = time.perf_counter()
            failed = False
            try:
                result = original(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with layers._lock:
                    layers.calls[name] += 1
                    layers.total[name] += elapsed
                    layers.self_time[name] += elapsed - nested
                    layers.errors[name] += failed
            layers._observe(name, result)
            return result

        return timed

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observe(self, name: str, result) -> None:
        if name == "multinomial.test":
            with self._lock:
                self.test_methods[result.method] += 1
        elif name == "engine.submit":
            future, cached, coalesced, _ = result
            if not (cached or coalesced):
                returned = time.perf_counter()
                future.add_done_callback(
                    lambda _f: self.compute_waits.append(time.perf_counter() - returned)
                )

    def mean_ms(self, name: str) -> float:
        """Mean milliseconds per call of ``name`` (0 when never called)."""
        calls = self.calls.get(name, 0)
        return 1000.0 * self.total.get(name, 0.0) / calls if calls else 0.0

    def table(self) -> "list[tuple[str, int, float, float, int]]":
        """``(name, calls, total_ms, self_ms, errors)`` rows, largest self time first."""
        rows = [
            (name, self.calls[name], 1000.0 * self.total[name],
             1000.0 * self.self_time[name], self.errors[name])
            for name in self.calls
        ]
        return sorted(rows, key=lambda row: -row[3])


def replay(view, queries, group: int, context_size: int, layers: Layers) -> float:
    """Run ``queries`` through the worker-side functions in this process.

    Queries go in groups of ``group`` the way a worker takes a
    micro-batch: one shared ``select_many`` for the group, then one
    ``FindNC.run`` per member on the precomputed context. A group of one
    runs ``FindNC.run`` alone, as a lone worker task does. Returns the
    seconds spent; ``layers`` must have :data:`COMPUTE` installed.
    """
    from repro.core.context import RandomWalkContext
    from repro.core.discrimination import MultinomialDiscriminator
    from repro.core.findnc import FindNC

    selector = RandomWalkContext(view, damping=0.8, iterations=10, pin=True)
    selector.warm()
    compiled = view.compiled()
    ids = [tuple(sorted(set(view.node_ids(query)))) for query in queries]
    started = time.perf_counter()
    for offset in range(0, len(ids), group):
        members = ids[offset:offset + group]
        contexts = (
            selector.select_many(members, context_size) if len(members) > 1
            else [None]
        )
        for query, context in zip(members, contexts):
            finder = FindNC(
                view,
                context_selector=selector,
                discriminator=MultinomialDiscriminator(alpha=0.05, rng=0),
                context_size=context_size,
            )
            finder.run(query, context=context, snapshot=compiled)
    return time.perf_counter() - started
