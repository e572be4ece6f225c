"""Multi-version snapshot registry: the directory layout behind hot swaps.

One :class:`~repro.disk.store` snapshot file holds one graph version;
this module manages a **directory** of them so a server can keep serving
version *N* while version *N+1* is published, then swap atomically and
let *N* drain (see :meth:`repro.service.engine.NCEngine.swap_snapshot`).
The layout::

    <dir>/
      MANIFEST.json      - registry index: latest version + per-version rows
      v000001.snap       - snapshot files, one per published version
      v000002.snap
      v000001-d0000.delta - delta runs appended against base v1 (live ingest)
      ...

**Delta chains.** Live ingest (:mod:`repro.disk.delta`) appends
immutable run files against a chain *base* — the newest full publish.
Merged snapshots record their provenance in the manifest row (``base`` +
``deltas``: which runs produced them); :meth:`SnapshotRegistry.
append_delta` writes a run, :meth:`SnapshotRegistry.merge_pending`
folds unmerged runs into a fresh serving snapshot, and
:meth:`SnapshotRegistry.compact` collapses the chain into a fresh full
version with no provenance, after which GC can drop the old base and
its runs. Every merged snapshot is physically self-contained — the
chain is bookkeeping, not a read-path indirection.

**Monotonic version ids.** Every publish allocates ``latest + 1`` and
bakes it into the snapshot file's own header (the ``version`` field the
engine keys its result cache on), so two registry versions can never
collide in the cache even when they hold identical graph content. The
id space is append-only: versions are never renumbered or reused, even
after GC.

**Atomic publish.** The snapshot file is written first (temp file +
``os.replace``, inherited from :func:`~repro.disk.store.save_snapshot`),
the manifest second (same temp + rename). A reader therefore never
observes a manifest row whose file is missing or torn; a crash between
the two steps leaves an orphaned file that the next publish simply
skips past (version allocation also scans the directory).

**Retention / GC.** :meth:`SnapshotRegistry.gc` keeps the newest
``retain`` versions (plus anything in ``keep`` — the version a server is
still draining, say — plus every chain base a surviving row still
references, and the runs of every retained base) and unlinks the rest. POSIX semantics make this
safe under load: a process with the old file mapped keeps reading it
after the unlink; only *new* opens fail, which the worker pool already
surfaces as a retriable :class:`~repro.disk.store.StaleSnapshotError`.

The serving integration — ``repro serve --snapshot-dir``, the
``POST /admin/reload`` endpoint and the manifest-mtime poller — lives in
:mod:`repro.service.server`; ``repro publish`` is the CLI entry point.
Operator documentation: ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.disk.store import (
    MAGIC,
    DiskSnapshot,
    SnapshotGraphView,
    open_snapshot,
    open_snapshot_view,
    save_snapshot,
)
from repro.graph.compiled import CompiledGraph

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections.abc import Iterable

    from repro.disk.delta import DeltaLog, DeltaRun
    from repro.graph.model import KnowledgeGraph

#: The manifest's own format version; bump on incompatible layout changes.
MANIFEST_FORMAT = 1

#: The registry index file name inside a snapshot directory.
MANIFEST_NAME = "MANIFEST.json"


class RegistryError(ReproError):
    """The snapshot directory is missing, malformed, or inconsistent."""


def is_snapshot_file(path: "str | os.PathLike[str]") -> bool:
    """Whether ``path`` starts with the snapshot store's magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


@dataclass(frozen=True)
class RegistryEntry:
    """One published version: the manifest row, plus its resolved path."""

    version: int
    file: str
    path: str
    graph_name: str
    nodes: int
    edges: int
    labels: int
    bytes: int
    published_unix: int
    #: The chain base this version was incrementally merged from, or
    #: ``None`` for a self-standing publish/compact product.
    base: "int | None" = None
    #: Run file names (chain order) folded into this version so far.
    deltas: "tuple[str, ...]" = ()

    def as_dict(self) -> dict:
        """The JSON shape stored in the manifest (``path`` is derived)."""
        row = {
            "version": self.version,
            "file": self.file,
            "graph_name": self.graph_name,
            "nodes": self.nodes,
            "edges": self.edges,
            "labels": self.labels,
            "bytes": self.bytes,
            "published_unix": self.published_unix,
        }
        if self.base is not None:
            row["base"] = self.base
            row["deltas"] = list(self.deltas)
        return row


def _version_filename(version: int) -> str:
    return f"v{version:06d}.snap"


class SnapshotRegistry:
    """A directory of versioned snapshot files with an atomic manifest.

    >>> # registry = SnapshotRegistry("serving/")         # doctest stub
    >>> # entry = registry.publish_graph(graph)           # -> v1
    >>> # entry = registry.publish("delta-dump.nt")       # -> v2
    >>> # registry.latest().version
    >>> # registry.gc(retain=2)

    The registry object is cheap: it holds the directory path and the
    parsed manifest; :meth:`refresh` re-reads the manifest so several
    processes (a publisher CLI and a serving process, say) can share one
    directory. Manifest **writers** — publishes and :meth:`gc` (which a
    ``--retain`` server runs after each swap) — serialize on a
    cross-process advisory lock (``.registry.lock`` via ``flock``) and
    re-read the manifest before mutating it, so a publisher and a
    GC'ing server compose without losing each other's rows. Readers
    never need the lock (atomic renames). On platforms without
    ``fcntl`` the lock degrades to best-effort single-process safety —
    there, run one writer at a time.
    """

    def __init__(self, directory: "str | os.PathLike[str]", *, create: bool = True) -> None:
        self.directory = os.path.abspath(os.fspath(directory))
        if not os.path.isdir(self.directory):
            if not create:
                raise RegistryError(f"{self.directory}: not a directory")
            os.makedirs(self.directory, exist_ok=True)
        self._entries: "list[RegistryEntry]" = []
        self.refresh()

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        """Absolute path of the registry's ``MANIFEST.json``."""
        return os.path.join(self.directory, MANIFEST_NAME)

    @contextmanager
    def _writer_lock(self):
        """Cross-process exclusion for manifest writers (publish / GC).

        An ``flock`` on ``.registry.lock`` in the directory: writers
        block each other (a big publish holds it for the whole snapshot
        write, which is the point — version allocation happens under
        it), readers never take it. Yields without locking where
        ``fcntl`` does not exist.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = os.path.join(self.directory, ".registry.lock")
        handle = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            os.close(handle)  # closing releases the flock

    def refresh(self) -> None:
        """Re-read the manifest from disk (no-op for a fresh directory)."""
        from repro.service import faults  # lazy: avoids a service<->disk cycle

        path = self.manifest_path
        if faults.fire("registry.manifest"):
            raise RegistryError(
                f"fault injection: manifest {path} is corrupt"
            )
        if not os.path.exists(path):
            self._entries = []
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise RegistryError(f"{path}: unreadable manifest ({error})") from error
        if manifest.get("format") != MANIFEST_FORMAT:
            raise RegistryError(
                f"{path}: unsupported manifest format {manifest.get('format')!r} "
                f"(this build reads format {MANIFEST_FORMAT})"
            )
        entries = []
        for row in manifest.get("versions", []):
            # Explicit field-by-field construction: a manifest written by
            # a newer build may carry keys this build does not know, and
            # an older build's rows lack the chain fields entirely.
            entries.append(
                RegistryEntry(
                    version=row["version"],
                    file=row["file"],
                    path=os.path.join(self.directory, row["file"]),
                    graph_name=row["graph_name"],
                    nodes=row["nodes"],
                    edges=row["edges"],
                    labels=row["labels"],
                    bytes=row["bytes"],
                    published_unix=row["published_unix"],
                    base=row.get("base"),
                    deltas=tuple(row.get("deltas", ())),
                )
            )
        entries.sort(key=lambda entry: entry.version)
        self._entries = entries

    def _write_manifest(self) -> None:
        """Persist the manifest atomically (temp file + rename)."""
        manifest = {
            "format": MANIFEST_FORMAT,
            "latest": self._entries[-1].version if self._entries else 0,
            "versions": [entry.as_dict() for entry in self._entries],
        }
        tmp_path = f"{self.manifest_path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, self.manifest_path)

    def mtime_token(self) -> "tuple[int, int]":
        """A cheap change token for pollers: manifest ``(mtime_ns, size)``.

        ``(0, 0)`` for a directory with no manifest yet. The serve-side
        poller re-checks this between polls and only opens the manifest
        when the token moved.
        """
        try:
            stat = os.stat(self.manifest_path)
        except OSError:
            return (0, 0)
        return (stat.st_mtime_ns, stat.st_size)

    # -- introspection -----------------------------------------------------

    def versions(self) -> "tuple[RegistryEntry, ...]":
        """Every published version still in the manifest, oldest first."""
        return tuple(self._entries)

    def latest(self) -> "RegistryEntry | None":
        """The newest published version, or ``None`` for an empty registry."""
        return self._entries[-1] if self._entries else None

    def entry_for(self, version: int) -> RegistryEntry:
        """The manifest row of ``version`` (raises for unknown/GC'd ones)."""
        for entry in self._entries:
            if entry.version == version:
                return entry
        raise RegistryError(
            f"version {version} is not in the registry at {self.directory}"
        )

    def next_version(self) -> int:
        """The id the next publish will be assigned (monotonic, gap-free
        in the common case; orphaned files from a crashed publish are
        skipped past so ids are never reused)."""
        highest = self._entries[-1].version if self._entries else 0
        for name in os.listdir(self.directory):
            if name.startswith("v") and name.endswith(".snap"):
                try:
                    highest = max(highest, int(name[1:-5]))
                except ValueError:
                    continue
        return highest + 1

    def open_view(self, version: "int | None" = None) -> "SnapshotGraphView":
        """An mmapped :class:`~repro.disk.store.SnapshotGraphView` of
        ``version`` (default: the latest) — the object the engine serves
        or swaps onto."""
        entry = self.latest() if version is None else self.entry_for(version)
        if entry is None:
            raise RegistryError(f"registry at {self.directory} is empty")
        return open_snapshot_view(entry.path)

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        source: "str | os.PathLike[str] | KnowledgeGraph",
        *,
        fmt: str = "auto",
        graph_name: "str | None" = None,
        add_inverse: bool = True,
        include_transition: bool = True,
    ) -> RegistryEntry:
        """Publish ``source`` as the next version (the do-what-I-mean door).

        ``source`` may be a live :class:`~repro.graph.model.KnowledgeGraph`,
        an existing snapshot file (recognized by its magic bytes and
        re-stamped with the registry's version id), or an N-Triples/TSV
        dump (streamed through the bulk ingester). Returns the new
        manifest row.
        """
        if hasattr(source, "compiled") and hasattr(source, "version"):
            return self.publish_graph(
                source, include_transition=include_transition  # type: ignore[arg-type]
            )
        path = os.fspath(source)  # type: ignore[arg-type]
        if not os.path.exists(path):
            raise RegistryError(f"publish source {path!r} does not exist")
        if is_snapshot_file(path):
            return self.publish_snapshot_file(path, graph_name=graph_name)
        return self.publish_dump(
            path,
            fmt=fmt,
            graph_name=graph_name,
            add_inverse=add_inverse,
            include_transition=include_transition,
        )

    def publish_graph(
        self,
        graph: "KnowledgeGraph",
        *,
        include_transition: bool = True,
    ) -> RegistryEntry:
        """Publish a live graph's current compiled snapshot as the next
        version (the graph itself is left untouched)."""
        compiled = graph.compiled()
        table = graph._label_table()  # noqa: SLF001 - label ids only grow
        label_names = [table.name(label_id) for label_id in range(compiled.label_count)]
        transition = None
        if include_transition:
            from repro.graph.matrix import transition_from_snapshot

            transition = transition_from_snapshot(compiled)
        return self._publish_compiled(
            compiled,
            graph._node_names_list(),  # noqa: SLF001 - sliced inside save
            label_names,
            graph_name=graph.name,
            transition=transition,
        )

    def publish_snapshot_file(
        self,
        path: "str | os.PathLike[str]",
        *,
        graph_name: "str | None" = None,
    ) -> RegistryEntry:
        """Publish an existing compiled snapshot file as the next version.

        The blocks are copied byte-for-byte; only the header's ``version``
        field is re-stamped with the registry's monotonic id (the engine
        keys its result cache on it, so a re-published file must not keep
        its original version).
        """
        with open_snapshot(path) as source:
            return self._publish_compiled(
                source.compiled,
                source.node_names,
                [
                    source.label_table.name(label_id)
                    for label_id in range(source.header.label_count)
                ],
                graph_name=graph_name or source.header.graph_name,
                transition=source.transition(),
            )

    def publish_dump(
        self,
        dump_path: "str | os.PathLike[str]",
        *,
        fmt: str = "auto",
        graph_name: "str | None" = None,
        add_inverse: bool = True,
        include_transition: bool = True,
    ) -> RegistryEntry:
        """Stream an N-Triples/TSV dump straight into the next version
        (the ``repro publish dump.nt <dir>`` path — never builds the
        dict graph)."""
        from repro.disk.ingest import ingest_file

        with self._writer_lock():
            self.refresh()
            version = self.next_version()
            path = os.path.join(self.directory, _version_filename(version))
            ingest_file(
                dump_path,
                path,
                fmt=fmt,
                graph_name=graph_name,
                add_inverse=add_inverse,
                include_transition=include_transition,
                version=version,
            )
            return self._record(version, path)

    def _publish_compiled(
        self,
        compiled: CompiledGraph,
        node_names,
        label_names,
        *,
        graph_name: str,
        transition,
    ) -> RegistryEntry:
        """Write ``compiled`` re-stamped with the next registry version."""
        with self._writer_lock():
            self.refresh()
            version = self.next_version()
            stamped = CompiledGraph.from_arrays(
                version=version,
                node_count=compiled.node_count,
                label_count=compiled.label_count,
                arrays=compiled.arrays(),
            )
            path = os.path.join(self.directory, _version_filename(version))
            save_snapshot(
                stamped,
                node_names,
                label_names,
                path,
                graph_name=graph_name,
                transition=transition,
            )
            return self._record(version, path)

    def _record(
        self,
        version: int,
        path: str,
        *,
        base: "int | None" = None,
        deltas: "tuple[str, ...]" = (),
    ) -> RegistryEntry:
        """Append the manifest row for a freshly written snapshot file."""
        snap: DiskSnapshot = open_snapshot(path)
        try:
            entry = RegistryEntry(
                version=version,
                file=os.path.basename(path),
                path=path,
                graph_name=snap.header.graph_name,
                nodes=snap.header.node_count,
                edges=snap.compiled.edge_count,
                labels=snap.header.label_count,
                bytes=os.path.getsize(path),
                published_unix=int(time.time()),
                base=base,
                deltas=deltas,
            )
        finally:
            snap.close()
        self._entries.append(entry)
        self._entries.sort(key=lambda item: item.version)
        self._write_manifest()
        return entry

    # -- delta chains ------------------------------------------------------

    def chain_base(self) -> int:
        """The version live-ingest runs append against.

        The newest version's own base when it was merged from a chain,
        else the newest version itself. Raises for an empty registry —
        deltas need a base to be deltas *of*.
        """
        tip = self.latest()
        if tip is None:
            raise RegistryError(
                f"registry at {self.directory} is empty; publish a base "
                f"snapshot before ingesting deltas"
            )
        return tip.base if tip.base is not None else tip.version

    def delta_log(self) -> "DeltaLog":
        """The active chain's :class:`~repro.disk.delta.DeltaLog`."""
        from repro.disk.delta import DeltaLog

        return DeltaLog(self.directory, self.chain_base())

    def pending_runs(self) -> "list[DeltaRun]":
        """Published runs the newest version has not folded in yet.

        Run files whose names are absent from the tip's ``deltas`` list
        — exactly the set :meth:`merge_pending` would merge. Crash
        recovery falls out of this definition: a run published right
        before a crash is still on disk, still unlisted, and therefore
        still pending on restart.
        """
        tip = self.latest()
        if tip is None:
            return []
        merged = set(tip.deltas)
        return [run for run in self.delta_log().runs() if run.file not in merged]

    def append_delta(
        self, ops: "Iterable[tuple[str, tuple[str, str, str]]]"
    ) -> "DeltaRun | None":
        """Durably record a batch of statement ops as the next delta run.

        ``ops`` is a sequence of ``("+" | "-", (subject, label, object))``
        pairs; the batch is canonicalized (net effect per inversion
        class) and published as one immutable run file. Returns the
        :class:`~repro.disk.delta.DeltaRun`, or ``None`` when the batch
        nets out to nothing. The manifest is untouched — a run only
        enters it when a merge folds it in, so a crash here never leaves
        the manifest pointing at a torn file.
        """
        with self._writer_lock():
            self.refresh()
            return self.delta_log().append(ops)

    def merge_pending(
        self,
        *,
        graph_name: "str | None" = None,
        include_transition: bool = True,
    ) -> "RegistryEntry | None":
        """Fold every pending run into a fresh snapshot version.

        Incremental: merges into the *newest* snapshot's arrays (which
        already contain the chain's earlier runs) rather than replaying
        from the base. The new manifest row keeps the chain provenance
        (``base`` + the cumulative run list). Returns the new entry, or
        ``None`` when nothing is pending.
        """
        from repro.disk.ingest import merge_snapshot_file

        with self._writer_lock():
            self.refresh()
            tip = self.latest()
            if tip is None:
                raise RegistryError(
                    f"registry at {self.directory} is empty; publish a base "
                    f"snapshot before merging deltas"
                )
            pending = self.pending_runs()
            if not pending:
                return None
            base_version = tip.base if tip.base is not None else tip.version
            version = self.next_version()
            path = os.path.join(self.directory, _version_filename(version))
            merge_snapshot_file(
                tip.path,
                [run.read() for run in pending],
                path,
                version=version,
                graph_name=graph_name,
                include_transition=include_transition,
            )
            return self._record(
                version,
                path,
                base=base_version,
                deltas=tuple(tip.deltas) + tuple(run.file for run in pending),
            )

    def compact(
        self,
        *,
        graph_name: "str | None" = None,
        include_transition: bool = True,
    ) -> "RegistryEntry | None":
        """Collapse the active chain into a fresh full version.

        Folds any still-pending runs and publishes the result *without*
        chain provenance — the new version is a self-standing root, so
        once older chained rows age out of retention, :meth:`gc` can
        finally drop the old base and every run file. Returns the new
        entry, or ``None`` when the registry is already compact (no
        chain, nothing pending).

        The ``registry.compact`` fault point fires between writing the
        snapshot and recording it: a crash there leaves an orphaned
        ``v*.snap`` the next version allocation skips past, never a
        manifest row for a missing file.
        """
        from repro.disk.ingest import merge_snapshot_file
        from repro.service import faults  # lazy: avoids a service<->disk cycle

        with self._writer_lock():
            self.refresh()
            tip = self.latest()
            if tip is None:
                raise RegistryError(
                    f"registry at {self.directory} is empty; nothing to compact"
                )
            pending = self.pending_runs()
            if tip.base is None and not pending:
                return None
            version = self.next_version()
            path = os.path.join(self.directory, _version_filename(version))
            merge_snapshot_file(
                tip.path,
                [run.read() for run in pending],
                path,
                version=version,
                graph_name=graph_name,
                include_transition=include_transition,
            )
            if faults.fire("registry.compact"):
                raise RegistryError(
                    f"fault injection: crashed before recording compacted "
                    f"version {version}"
                )
            return self._record(version, path)

    # -- retention ---------------------------------------------------------

    def gc(
        self, *, retain: int = 2, keep: "Iterable[int]" = ()
    ) -> "list[RegistryEntry]":
        """Unlink drained versions, keeping the newest ``retain`` plus
        ``keep``.

        ``keep`` names versions that must survive regardless of age —
        typically the version a serving process is still draining.
        A surviving row's chain ``base`` is a retained *root*: it
        survives too, however old, because it anchors the run files'
        provenance and the chain's crash-recovery replay. Run files
        (``v*-d*.delta``) of bases no surviving row references — and
        that the active chain no longer appends to — are unlinked along
        with the snapshots.

        Returns the removed entries. Removing a file that a process still
        has mapped is safe (POSIX keeps the pages readable); a *new*
        attach of a removed version fails and is surfaced to the engine
        as a retriable stale-snapshot condition.
        """
        from repro.disk.delta import _RUN_PATTERN

        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        pinned = set(keep)
        with self._writer_lock():
            # Re-read under the lock: a publish that landed since this
            # object's last refresh must survive the manifest rewrite.
            self.refresh()
            survivors = {entry.version for entry in self._entries[-retain:]}
            survivors |= pinned
            # Chain bases referenced by surviving rows are retained
            # roots (bases are always self-standing rows, so one pass
            # suffices — chains never nest).
            survivors |= {
                entry.base
                for entry in self._entries
                if entry.version in survivors and entry.base is not None
            }
            removed: "list[RegistryEntry]" = []
            kept: "list[RegistryEntry]" = []
            for entry in self._entries:
                if entry.version in survivors:
                    kept.append(entry)
                    continue
                try:
                    os.unlink(entry.path)
                except FileNotFoundError:
                    pass
                removed.append(entry)
            if removed:
                self._entries = kept
                self._write_manifest()
            # Delta runs live as long as their base is a live chain
            # anchor: the base of any remaining chained row, or the
            # version new runs are currently appended against.
            retained_bases = {
                entry.base for entry in self._entries if entry.base is not None
            }
            tip = self._entries[-1] if self._entries else None
            if tip is not None:
                retained_bases.add(
                    tip.base if tip.base is not None else tip.version
                )
            for name in os.listdir(self.directory):
                match = _RUN_PATTERN.match(name)
                if match is None or int(match.group(1)) in retained_bases:
                    continue
                try:
                    os.unlink(os.path.join(self.directory, name))
                except FileNotFoundError:
                    pass
        return removed

    def summary(self) -> str:
        """One-line digest for logs and the CLI."""
        latest = self.latest()
        if latest is None:
            return f"snapshot registry {self.directory}: empty"
        chain = ""
        if latest.base is not None:
            chain = f", chain base v{latest.base} + {len(latest.deltas)} delta(s)"
        pending = len(self.pending_runs())
        if pending:
            chain += f", {pending} pending run(s)"
        return (
            f"snapshot registry {self.directory}: {len(self._entries)} "
            f"version(s), latest v{latest.version} "
            f"(|V|={latest.nodes}, |E|={latest.edges}){chain}"
        )
