"""Append-only delta runs: edge adds/removes against a base snapshot.

A full ``.snap`` file is immutable, so absorbing writes today means a
full ``repro compile`` + ``repro publish`` round trip even for a
one-edge change. This module adds the write path's durable unit: a
**delta run** — one small, immutable file recording the *net effect* of
a batch of statement-level adds and removes against a specific base
snapshot version::

    [ magic "RPRODELT" | u32 format version | u32 header length
      | header JSON | padding to 8 | data region ]

The data region mirrors the ``.snap`` idiom (:mod:`repro.disk.store`):
8-byte-aligned blocks described by the header — a run-local node/label
name table (UTF-8 offset/blob pairs, the encoding
:mod:`repro.disk.store` uses) plus six ``int64`` id columns, the
add statements and the remove statements as ``(subject, label, object)``
rows over the run-local vocabulary. Runs are self-contained: they never
reference base ids, so a run outlives re-interning decisions and can be
replayed against any snapshot in its chain.

Statement semantics
-------------------

Batches are canonicalized before hitting disk (:func:`canonicalize_ops`):

* Ops apply **last-op-wins** per *inversion class* — the pair
  ``{t, inv(t)}`` under :func:`~repro.graph.labels.inverse_label` — so
  an add followed by a remove of the same (or the mirrored) statement
  nets out to the remove, and vice versa. Removing a statement removes
  its inverse-closure twin too, which keeps edge-level removal exactly
  equal to recompiling without the statement (the differential suite in
  ``tests/test_delta_parity.py`` pins this).
* The surviving adds and removes are **disjoint, deduplicated, and
  sorted** — merge order is therefore deterministic, which is what lets
  the incremental merge reproduce a full recompile's first-mention
  vocabulary ids byte-for-byte.
* Removes of statements whose terms were never interned are recorded
  (they are part of the batch's intent) but are no-ops at merge time;
  removes never grow the vocabulary.

Durability: a run writes to a temp file and is published by one
``os.replace`` — the manifest (:mod:`repro.disk.registry`) only learns a
run's name *after* the rename, so a crash mid-append (fault point
``delta.append``) leaves at most an ignored ``*.tmp.*`` file and never a
torn run behind a live manifest reference.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.graph.labels import inverse_label, is_inverse_label
from repro.disk.store import SharedNameTable, _aligned, _encode_names

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections.abc import Iterable, Sequence

#: File magic for delta runs: 8 bytes, never changes across versions.
DELTA_MAGIC = b"RPRODELT"

#: Bump on any incompatible layout change; readers reject other versions.
DELTA_FORMAT_VERSION = 1

#: magic + u32 format version + u32 header length (little-endian).
_PREAMBLE = struct.Struct("<8sII")

#: Run file name: base version + run sequence number, zero-padded so a
#: lexicographic directory listing is also chain order.
_RUN_NAME = "v{base:06d}-d{seq:04d}.delta"

_RUN_PATTERN = re.compile(r"^v(\d{6})-d(\d{4})\.delta$")

#: The six id columns every run stores (rows into the run-local vocab).
_RUN_COLUMNS = (
    "add_sources",
    "add_labels",
    "add_targets",
    "remove_sources",
    "remove_labels",
    "remove_targets",
)


class DeltaFormatError(ReproError):
    """The file is not a valid delta run (bad magic, version, or layout)."""


class DeltaLogError(ReproError):
    """A delta-log append could not be made durable."""


def _class_key(subject: str, label: str, obj: str) -> "tuple[str, str, str]":
    """The canonical representative of ``{t, inv(t)}``.

    Both orientations of a statement map to the same key, which is what
    makes last-op-wins act on the inversion class rather than the raw
    string triple.
    """
    if is_inverse_label(label):
        return (obj, inverse_label(label), subject)
    return (subject, label, obj)


def canonicalize_ops(
    ops: "Iterable[tuple[str, tuple[str, str, str]]]",
) -> "tuple[tuple[tuple[str, str, str], ...], tuple[tuple[str, str, str], ...]]":
    """Collapse an op stream to disjoint sorted ``(adds, removes)``.

    ``ops`` is a sequence of ``("+" | "-", (subject, label, object))``
    pairs in arrival order. Later ops on the same inversion class
    overwrite earlier ones; adds keep the orientation the caller wrote
    (it decides vocabulary first-mention order), removes collapse to the
    class representative (removal is orientation-blind).
    """
    net: "dict[tuple[str, str, str], tuple[str, tuple[str, str, str]]]" = {}
    for op, statement in ops:
        if op not in ("+", "-"):
            raise ValueError(f"delta op must be '+' or '-', got {op!r}")
        subject, label, obj = statement
        key = _class_key(subject, label, obj)
        net[key] = (op, statement if op == "+" else key)
    adds = sorted(stmt for op, stmt in net.values() if op == "+")
    removes = sorted(stmt for op, stmt in net.values() if op == "-")
    return tuple(adds), tuple(removes)


def parse_delta_lines(
    lines: "Iterable[str]", fmt: str = "nt"
) -> "list[tuple[str, tuple[str, str, str]]]":
    """Parse a delta batch body into ``(op, statement)`` pairs.

    Each non-blank, non-comment line is one statement in ``fmt``
    (``"nt"`` or ``"tsv"``), optionally prefixed with ``+`` or ``-``
    (plus following whitespace) to mark an add or a remove; bare lines
    are adds. Raises the underlying parser's error on junk lines.
    """
    if fmt == "nt":
        from repro.store.ntriples import parse_ntriples_line as parse_line
    elif fmt == "tsv":
        from repro.store.tsv import parse_tsv_line as parse_line
    else:
        raise ValueError(f"unknown delta format {fmt!r} (expected nt/tsv)")
    ops: "list[tuple[str, tuple[str, str, str]]]" = []
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        op = "+"
        if stripped[:1] in ("+", "-") and (
            len(stripped) == 1 or stripped[1].isspace()
        ):
            op = stripped[0]
            raw = stripped[1:]
        triple = parse_line(raw, line_number)
        if triple is None:
            continue
        ops.append(
            (op, (str(triple.subject), str(triple.predicate), str(triple.object)))
        )
    return ops


def _intern_statements(
    statements: "Sequence[tuple[str, str, str]]",
    node_to_id: "dict[str, int]",
    nodes: "list[str]",
    label_to_id: "dict[str, int]",
    labels: "list[str]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    src = np.empty(len(statements), dtype=np.int64)
    lab = np.empty(len(statements), dtype=np.int64)
    dst = np.empty(len(statements), dtype=np.int64)
    for row, (subject, label, obj) in enumerate(statements):
        for term in (subject, obj):
            if not isinstance(term, str) or not term:
                raise ValueError(
                    f"node name must be a non-empty string, got {term!r}"
                )
            if term not in node_to_id:
                node_to_id[term] = len(nodes)
                nodes.append(term)
        if not isinstance(label, str) or not label:
            raise ValueError(f"edge label must be a non-empty string, got {label!r}")
        if label not in label_to_id:
            label_to_id[label] = len(labels)
            labels.append(label)
        src[row] = node_to_id[subject]
        lab[row] = label_to_id[label]
        dst[row] = node_to_id[obj]
    return src, lab, dst


@dataclass(frozen=True)
class DeltaRun:
    """One published delta-run file (identity + statement counts)."""

    path: str
    base_version: int
    seq: int
    adds: int
    removes: int
    bytes: int

    @property
    def file(self) -> str:
        """The run's directory-relative file name (the manifest key)."""
        return os.path.basename(self.path)

    def read(
        self,
    ) -> "tuple[tuple[tuple[str, str, str], ...], tuple[tuple[str, str, str], ...]]":
        """Decode the run back to its ``(adds, removes)`` statement sets."""
        return read_delta_run(self.path)


def write_delta_run(
    adds: "Sequence[tuple[str, str, str]]",
    removes: "Sequence[tuple[str, str, str]]",
    path: "str | os.PathLike[str]",
    *,
    base_version: int,
    seq: int,
) -> int:
    """Persist one canonical ``(adds, removes)`` batch as a run file.

    Callers are expected to have canonicalized the batch
    (:func:`canonicalize_ops`); the writer stores statements exactly as
    given. Writes via temp file + atomic rename; the ``delta.append``
    fault point fires *between* the temp write and the rename, modelling
    a crash that leaves a torn temp file which run discovery ignores.
    Returns the total bytes written.
    """
    from repro.service import faults  # lazy: avoids a service<->disk cycle

    node_to_id: "dict[str, int]" = {}
    nodes: "list[str]" = []
    label_to_id: "dict[str, int]" = {}
    labels: "list[str]" = []
    add_src, add_lab, add_dst = _intern_statements(
        adds, node_to_id, nodes, label_to_id, labels
    )
    rem_src, rem_lab, rem_dst = _intern_statements(
        removes, node_to_id, nodes, label_to_id, labels
    )
    node_offsets, node_blob = _encode_names(nodes)
    label_offsets, label_blob = _encode_names(labels)

    blocks: "list[tuple[str, np.ndarray]]" = [
        ("node_name_offsets", node_offsets),
        ("node_name_blob", node_blob),
        ("label_name_offsets", label_offsets),
        ("label_name_blob", label_blob),
        ("add_sources", add_src),
        ("add_labels", add_lab),
        ("add_targets", add_dst),
        ("remove_sources", rem_src),
        ("remove_labels", rem_lab),
        ("remove_targets", rem_dst),
    ]
    block_table: "list[tuple[str, dict]]" = []
    offset = 0
    for name, column in blocks:
        offset = _aligned(offset)
        block_table.append(
            (
                name,
                {
                    "offset": offset,
                    "length": int(column.shape[0]),
                    "dtype": column.dtype.name,
                },
            )
        )
        offset += column.nbytes
    data_bytes = offset

    header_json = json.dumps(
        {
            "base_version": base_version,
            "seq": seq,
            "adds": len(adds),
            "removes": len(removes),
            "nodes": len(nodes),
            "labels": len(labels),
            "blocks": block_table,
            "data_bytes": data_bytes,
        },
        sort_keys=True,
    ).encode("utf-8")
    data_start = _aligned(_PREAMBLE.size + len(header_json))
    total = data_start + data_bytes

    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(
                _PREAMBLE.pack(DELTA_MAGIC, DELTA_FORMAT_VERSION, len(header_json))
            )
            handle.write(header_json)
            specs = dict(block_table)
            for name, column in blocks:
                if column.nbytes == 0:
                    continue
                handle.seek(data_start + specs[name]["offset"])
                handle.write(memoryview(np.ascontiguousarray(column)))
            handle.truncate(total)
    except BaseException:  # pragma: no cover - only on write failure
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    # The crash model: die after the temp write, before the publishing
    # rename — the torn ``*.tmp.*`` file stays behind on purpose, and
    # run discovery must keep ignoring it.
    if faults.fire("delta.append"):
        raise DeltaLogError(
            f"fault injection: crashed before publishing delta run {path!r}"
        )
    os.replace(tmp_path, path)
    return total


def _read_header(path: str) -> dict:
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise DeltaFormatError(f"{path}: file too short for a delta run")
        magic, format_version, header_length = _PREAMBLE.unpack(preamble)
        if magic != DELTA_MAGIC:
            raise DeltaFormatError(f"{path}: not a delta run (bad magic)")
        if format_version != DELTA_FORMAT_VERSION:
            raise DeltaFormatError(
                f"{path}: unsupported delta format version {format_version} "
                f"(this build reads version {DELTA_FORMAT_VERSION})"
            )
        try:
            meta = json.loads(handle.read(header_length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise DeltaFormatError(f"{path}: corrupt delta header") from error
    data_start = _aligned(_PREAMBLE.size + header_length)
    expected = data_start + meta["data_bytes"]
    actual = os.path.getsize(path)
    if actual < expected:
        raise DeltaFormatError(
            f"{path}: truncated delta run ({actual} bytes, header declares "
            f"{expected})"
        )
    missing = [
        name
        for name in (*_RUN_COLUMNS, "node_name_offsets", "node_name_blob",
                     "label_name_offsets", "label_name_blob")
        if name not in dict(meta["blocks"])
    ]
    if missing:
        raise DeltaFormatError(f"{path}: delta run is missing blocks {missing}")
    meta["_data_start"] = data_start
    return meta


def inspect_delta_run(path: "str | os.PathLike[str]") -> DeltaRun:
    """A run file's identity and counts, read from the header only."""
    path = os.path.abspath(os.fspath(path))
    meta = _read_header(path)
    return DeltaRun(
        path=path,
        base_version=meta["base_version"],
        seq=meta["seq"],
        adds=meta["adds"],
        removes=meta["removes"],
        bytes=os.path.getsize(path),
    )


def read_delta_run(
    path: "str | os.PathLike[str]",
) -> "tuple[tuple[tuple[str, str, str], ...], tuple[tuple[str, str, str], ...]]":
    """Decode one run file back to string ``(adds, removes)`` sets."""
    path = os.path.abspath(os.fspath(path))
    meta = _read_header(path)
    data_start = meta["_data_start"]
    specs = dict(meta["blocks"])
    mm = np.memmap(path, dtype=np.uint8, mode="r")

    def view(name: str) -> np.ndarray:
        spec = specs[name]
        start = data_start + spec["offset"]
        nbytes = spec["length"] * np.dtype(spec["dtype"]).itemsize
        column = mm[start : start + nbytes].view(spec["dtype"])
        if column.shape[0] != spec["length"]:  # pragma: no cover - header drift
            raise DeltaFormatError(f"{path}: block {name!r} extends past end of file")
        return column

    try:
        node_names = SharedNameTable(view("node_name_offsets"), view("node_name_blob"))
        label_names = SharedNameTable(
            view("label_name_offsets"), view("label_name_blob")
        )
        nodes = [node_names[index] for index in range(meta["nodes"])]
        labels = [label_names[index] for index in range(meta["labels"])]

        def decode(prefix: str, count: int):
            src = view(f"{prefix}_sources")
            lab = view(f"{prefix}_labels")
            dst = view(f"{prefix}_targets")
            return tuple(
                (nodes[int(src[row])], labels[int(lab[row])], nodes[int(dst[row])])
                for row in range(count)
            )

        adds = decode("add", meta["adds"])
        removes = decode("remove", meta["removes"])
    finally:
        del mm
    return adds, removes


class DeltaLog:
    """The ordered run sequence of one base version, in one directory.

    A thin, stateless façade over the run files themselves: discovery
    re-globs the directory (crash recovery is "look at the files"),
    sequence numbers are allocated past the highest published run, and
    :meth:`append` is the only writer. The registry layers the manifest
    bookkeeping (which runs the serving chain has merged) on top.
    """

    def __init__(self, directory: "str | os.PathLike[str]", base_version: int) -> None:
        self.directory = os.path.abspath(os.fspath(directory))
        if base_version < 0:
            raise ValueError(f"base version must be >= 0, got {base_version}")
        self.base_version = base_version

    def run_path(self, seq: int) -> str:
        """The absolute path a run with sequence number ``seq`` uses."""
        return os.path.join(
            self.directory, _RUN_NAME.format(base=self.base_version, seq=seq)
        )

    def runs(self) -> "list[DeltaRun]":
        """Published runs for this base, in sequence order.

        Temp files (``*.tmp.*`` from a crashed append) do not match the
        run pattern and are ignored — a torn write is invisible here.
        """
        found = []
        try:
            entries = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        for entry in entries:
            match = _RUN_PATTERN.match(entry)
            if match is None or int(match.group(1)) != self.base_version:
                continue
            found.append(inspect_delta_run(os.path.join(self.directory, entry)))
        found.sort(key=lambda run: run.seq)
        return found

    def next_seq(self) -> int:
        """One past the highest published sequence number (0 when empty)."""
        runs = self.runs()
        return runs[-1].seq + 1 if runs else 0

    def append(
        self,
        ops: "Iterable[tuple[str, tuple[str, str, str]]]",
    ) -> "DeltaRun | None":
        """Canonicalize ``ops`` and publish them as the next run.

        Returns the published :class:`DeltaRun`, or ``None`` when the
        batch nets out to nothing (nothing is written). Raises
        :class:`DeltaLogError` if the append could not be made durable
        (the ``delta.append`` crash fault surfaces here).
        """
        adds, removes = canonicalize_ops(ops)
        if not adds and not removes:
            return None
        seq = self.next_seq()
        path = self.run_path(seq)
        written = write_delta_run(
            adds, removes, path, base_version=self.base_version, seq=seq
        )
        return DeltaRun(
            path=path,
            base_version=self.base_version,
            seq=seq,
            adds=len(adds),
            removes=len(removes),
            bytes=written,
        )
