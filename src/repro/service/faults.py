"""Fault injection for the serving stack (chaos testing harness).

Production resilience claims are only as good as the faults they were
tested against. This module provides the injection points the chaos
tests drive: named *fault points* threaded through the serving stack —
worker loop, snapshot open, registry refresh, local compute — that are
**no-ops by default** and cost one module-attribute read plus one
``None`` check per call when nothing is armed.

Fault points
------------

===================  ====================================================
``worker.crash``     a worker process calls ``os._exit(1)`` mid-job
``worker.slow``      a worker sleeps before computing (hung-worker model)
``snapshot.vanish``  opening a snapshot file raises ``FileNotFoundError``
``registry.manifest``  a registry refresh raises ``RegistryError``
``engine.slow``      the engine's local compute path sleeps (thread backend)
``delta.append``     a delta-log append crashes before its publishing rename
``registry.compact``  compaction crashes after writing the fresh snapshot,
                     before recording it in the manifest
===================  ====================================================

Arming faults
-------------

Programmatically (same process)::

    from repro.service import faults
    faults.set_injector(faults.FaultInjector([
        faults.FaultRule("worker.crash", probability=0.25, limit=10),
    ]))
    ...
    faults.reset()

Via the environment (crosses the ``spawn`` boundary into worker
processes, and into ``repro serve`` subprocesses)::

    REPRO_FAULTS="worker.crash=0.25::10,worker.slow=1:2.5"

The spec grammar is ``point=probability[:delay_s[:limit]]``, entries
comma-separated: ``probability`` in ``[0, 1]`` is the chance each
arrival fires, ``delay_s`` is a sleep applied when it fires (default
0), and ``limit`` caps the total number of firings (default unlimited).
Workers re-read the variable at startup (:func:`install_from_env` runs
first thing in the worker main), so deleting it between a spawn and a
respawn yields a deterministic "faulty worker replaced by a healthy
one" recipe — the chaos tests lean on exactly that.

This module is stdlib-only and import-cycle-free: hook sites in
:mod:`repro.disk` import it lazily inside the guarded function, never at
module level.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass

#: The environment variable :func:`install_from_env` reads.
FAULTS_ENV = "REPRO_FAULTS"

#: Every fault point the serving stack consults (specs naming anything
#: else are rejected — a typo'd point silently never firing would make
#: a chaos test vacuous).
KNOWN_POINTS = frozenset(
    {
        "worker.crash",
        "worker.slow",
        "snapshot.vanish",
        "registry.manifest",
        "engine.slow",
        "delta.append",
        "registry.compact",
    }
)


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec string could not be parsed."""


@dataclass(frozen=True)
class FaultRule:
    """One armed fault point.

    ``probability`` is the per-arrival chance of firing, ``delay_s`` a
    sleep applied on each firing (models slow/hung components), and
    ``limit`` an optional cap on total firings (``None`` = unlimited).
    """

    point: str
    probability: float = 1.0
    delay_s: float = 0.0
    limit: "int | None" = None

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise FaultSpecError(
                f"unknown fault point {self.point!r} "
                f"(known: {', '.join(sorted(KNOWN_POINTS))})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"{self.point}: probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.delay_s < 0:
            raise FaultSpecError(
                f"{self.point}: delay must be >= 0, got {self.delay_s}"
            )
        if self.limit is not None and self.limit < 0:
            raise FaultSpecError(
                f"{self.point}: limit must be >= 0, got {self.limit}"
            )


class FaultInjector:
    """Decides, thread-safely, whether an armed fault point fires.

    ``seed`` pins the probabilistic decisions for reproducible chaos
    runs; by default each injector (hence each worker process) draws
    its own stream.
    """

    def __init__(
        self, rules: "list[FaultRule] | tuple[FaultRule, ...]", *, seed: "int | None" = None
    ) -> None:
        self._rules = {rule.point: rule for rule in rules}
        self._fired = dict.fromkeys(self._rules, 0)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)

    def fire(self, point: str) -> bool:
        """Whether ``point`` fires now; applies the rule's delay if so."""
        rule = self._rules.get(point)
        if rule is None:
            return False
        with self._lock:
            if rule.limit is not None and self._fired[point] >= rule.limit:
                return False
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                return False
            self._fired[point] += 1
        if rule.delay_s > 0:
            time.sleep(rule.delay_s)
        return True

    def fired(self, point: str) -> int:
        """How many times ``point`` has fired on this injector."""
        with self._lock:
            return self._fired.get(point, 0)

    def rules(self) -> "tuple[FaultRule, ...]":
        """The armed rules (introspection/logging)."""
        return tuple(self._rules.values())


def parse_spec(spec: str, *, seed: "int | None" = None) -> FaultInjector:
    """Build an injector from a ``point=prob[:delay_s[:limit]]`` spec."""
    rules = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, sep, params = entry.partition("=")
        if not sep:
            raise FaultSpecError(
                f"bad fault entry {entry!r}: expected point=prob[:delay[:limit]]"
            )
        parts = params.split(":")
        if len(parts) > 3:
            raise FaultSpecError(f"bad fault entry {entry!r}: too many fields")
        try:
            probability = float(parts[0]) if parts[0] else 1.0
            delay_s = float(parts[1]) if len(parts) > 1 and parts[1] else 0.0
            limit = int(parts[2]) if len(parts) > 2 and parts[2] else None
        except ValueError as error:
            raise FaultSpecError(f"bad fault entry {entry!r}: {error}") from error
        rules.append(
            FaultRule(
                point.strip(), probability=probability, delay_s=delay_s, limit=limit
            )
        )
    return FaultInjector(rules, seed=seed)


# -- process-global injector -----------------------------------------------

_injector: "FaultInjector | None" = None


def set_injector(injector: "FaultInjector | None") -> None:
    """Install ``injector`` as this process's active fault source."""
    global _injector
    _injector = injector


def get_injector() -> "FaultInjector | None":
    """The active injector, or ``None`` when no faults are armed."""
    return _injector


def reset() -> None:
    """Disarm all faults in this process."""
    set_injector(None)


def install_from_env(environ: "dict | None" = None) -> "FaultInjector | None":
    """Arm faults from ``REPRO_FAULTS`` (no-op when unset/empty).

    Called at worker-process startup and by ``repro serve`` — the env
    var is the only transport that crosses the ``spawn`` boundary.
    """
    spec = (environ if environ is not None else os.environ).get(FAULTS_ENV, "")
    if not spec.strip():
        return None
    injector = parse_spec(spec)
    set_injector(injector)
    return injector


def fire(point: str) -> bool:
    """Module-level hook the serving stack calls: no-op unless armed."""
    injector = _injector
    if injector is None:
        return False
    return injector.fire(point)
