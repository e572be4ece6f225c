"""Benchmark inputs: cached dataset artifacts and the seeded input generator.

Every input the program receives is drawn here from ``--seed``: query
sets, their arrival schedule and the ingest batches. The same seed gives
byte-identical inputs (:func:`fingerprint`); the program never sees the
seed itself.

Queries are *same-type entity sets* — instances sharing their one direct
``type`` — because that is the paper's query shape. Popularity ranks
instance entities by degree. Schema class nodes (``person``, ``entity``,
...) carry no ``type`` edge, so they never enter a query.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: Types with fewer instances than this (countries, cities, awards, ...)
#: are left out: too few to draw many distinct sets from, and their
#: high-degree members make single queries cost seconds.
MIN_TYPE_SIZE = 90
ZIPF_EXPONENT = 1.1


def source_key() -> str:
    """Digest of the program sources and this file: artifacts rebuild when either changes."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def artifacts(scale: float) -> "tuple[Path, Path]":
    """The compiled synthetic-YAGO snapshot at ``scale`` and its metadata file.

    Built once per source tree into ``.bench_build/perfbench`` by a child
    process, so the graph's memory never reaches a measured process.
    """
    stem = BUILD / f"yago-{scale:g}-{source_key()}"
    snap, meta = stem.with_suffix(".snap"), stem.with_suffix(".json")
    if not (snap.exists() and meta.exists()):
        BUILD.mkdir(parents=True, exist_ok=True)
        for stale in BUILD.glob(f"yago-{scale:g}-*"):
            stale.unlink()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, str(Path(__file__)), f"{scale:g}", str(stem)],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
    return snap, meta


def metadata(graph) -> dict:
    """What the generator needs from a graph: typed instances with their
    degree, and the relation edges between them."""
    from repro.graph import SUBCLASS_OF_LABEL, TYPE_LABEL
    from repro.graph.labels import is_inverse_label

    instances = []
    for node in graph.nodes():
        types = graph.types_of(node)
        if len(types) == 1:
            instances.append([graph.node_name(node), types.pop(), graph.out_degree(node)])
    typed = {name for name, _, _ in instances}
    relations = [
        [graph.node_name(edge.source), edge.label, graph.node_name(edge.target)]
        for edge in graph.edges()
        if edge.label not in (TYPE_LABEL, SUBCLASS_OF_LABEL)
        and not is_inverse_label(edge.label)
    ]
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "instances": instances,
        "relations": [r for r in relations if r[0] in typed and r[2] in typed],
    }


def _build(scale: float, stem: Path) -> None:
    """Compile the dataset and write its metadata (child process)."""
    from repro.datasets.loader import load_dataset, to_snapshot

    snap_tmp = stem.with_suffix(f".snap.{os.getpid()}")
    meta_tmp = stem.with_suffix(f".json.{os.getpid()}")
    to_snapshot("yago", snap_tmp, scale=scale)
    meta_tmp.write_text(json.dumps(metadata(load_dataset("yago", scale=scale))))
    os.replace(snap_tmp, stem.with_suffix(".snap"))
    os.replace(meta_tmp, stem.with_suffix(".json"))


@dataclass(frozen=True)
class Catalog:
    """Instance entities grouped by type and ranked by degree."""

    nodes: int
    edges: int
    type_of: "dict[str, str]"
    by_type: "dict[str, tuple[str, ...]]"
    #: Instances of the usable types, highest degree first (ties by name).
    ranked: "tuple[str, ...]"
    relations: "tuple[tuple[str, str, str], ...]"

    @classmethod
    def from_meta(cls, meta: dict) -> "Catalog":
        """Index a metadata dict written by :func:`artifacts`."""
        groups: "dict[str, list[str]]" = {}
        for name, type_name, _ in meta["instances"]:
            groups.setdefault(type_name, []).append(name)
        by_type = {
            t: tuple(sorted(names))
            for t, names in sorted(groups.items())
            if len(names) >= MIN_TYPE_SIZE
        }
        type_of = {name: t for t, names in by_type.items() for name in names}
        usable = [(name, degree) for name, _, degree in meta["instances"] if name in type_of]
        ranked = tuple(name for name, _ in sorted(usable, key=lambda e: (-e[1], e[0])))
        relations = tuple(
            tuple(r) for r in meta["relations"] if r[0] in type_of and r[2] in type_of
        )
        return cls(meta["nodes"], meta["edges"], type_of, by_type, ranked, relations)

    @classmethod
    def load(cls, meta_path: Path) -> "Catalog":
        """Read and index a metadata file."""
        return cls.from_meta(json.loads(meta_path.read_text()))

    def same_type_set(self, rng: random.Random, anchor: str, width: int) -> "tuple[str, ...]":
        """``anchor`` plus ``width - 1`` other instances of its type."""
        members = self.by_type[self.type_of[anchor]]
        picked = [anchor]
        while len(picked) < width:
            peer = rng.choice(members)
            if peer not in picked:
                picked.append(peer)
        return tuple(picked)


def query_pool(catalog: Catalog, seed: int, size: int, widths: "tuple[int, ...]"):
    """``size`` distinct sets anchored on the ``size`` highest-degree instances.

    Pool index ``i`` holds the set of the ``i``-th most connected entity,
    so a Zipf draw over indices makes well-connected entities popular.
    """
    rng = random.Random(f"pool:{seed}")
    pool, seen = [], set()
    for anchor in catalog.ranked:
        if len(pool) == size:
            break
        query = catalog.same_type_set(rng, anchor, rng.choice(widths))
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            pool.append(query)
    return pool


def distinct_queries(
    catalog: Catalog, seed: int, count: int, widths: "tuple[int, ...]", stream: str
):
    """``count`` never-repeated same-type sets, anchors uniform over instances."""
    rng = random.Random(f"{stream}:{seed}")
    out, seen = [], set()
    while len(out) < count:
        query = catalog.same_type_set(rng, rng.choice(catalog.ranked), rng.choice(widths))
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            out.append(query)
    return out


def stratified_queries(catalog: Catalog, seed: int, count: int, widths: "tuple[int, ...]",
                       stream: str):
    """``count`` never-repeated sets cycling through every (type, width) cell in
    a fixed order, so any prefix has the same mix of types and widths
    whatever the seed; the seed picks the entities."""
    rng = random.Random(f"{stream}:{seed}")
    cells = [(t, w) for w in widths for t in catalog.by_type]
    out, seen = [], set()
    while len(out) < count:
        type_name, width = cells[len(out) % len(cells)]
        query = catalog.same_type_set(rng, rng.choice(catalog.by_type[type_name]), width)
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            out.append(query)
    return out


def zipf_arrivals(seed: int, pool_size: int, rate: float, seconds: float):
    """Poisson arrivals at ``rate``/s over ``seconds``: ``(due_s, pool_index)`` pairs."""
    rng = random.Random(f"arrivals:{seed}")
    cumulative, total = [], 0.0
    for rank in range(1, pool_size + 1):
        total += rank ** -ZIPF_EXPONENT
        cumulative.append(total)
    out, due = [], rng.expovariate(rate)
    while due < seconds:
        out.append((due, rng.choices(range(pool_size), cum_weights=cumulative)[0]))
        due += rng.expovariate(rate)
    return out


def ingest_batches(catalog: Catalog, seed: int, count: int, adds: int, removes: int):
    """``count`` delta batches of ``(op, (s, label, o))`` over the base graph.

    Adds copy an existing relation onto another instance of the subject's
    type; removes drop base relations not removed before; each batch also
    introduces one new typed entity. Every op changes the graph.
    """
    rng = random.Random(f"ingest:{seed}")
    present = set(catalog.relations)
    batches = []
    for index in range(count):
        ops: "list[tuple[str, tuple[str, str, str]]]" = []
        while len(ops) < adds:
            s, label, o = rng.choice(catalog.relations)
            triple = (rng.choice(catalog.by_type[catalog.type_of[s]]), label, o)
            if triple[0] != o and triple not in present:
                present.add(triple)
                ops.append(("+", triple))
        while len(ops) < adds + removes:
            triple = rng.choice(catalog.relations)
            if triple in present:
                present.discard(triple)
                ops.append(("-", triple))
        s, label, o = rng.choice(catalog.relations)
        new = f"perfbench_s{seed}_e{index}"
        ops += [("+", (new, "type", catalog.type_of[s])), ("+", (new, label, o))]
        batches.append(ops)
    return batches


def ntriples(batch) -> bytes:
    """An ingest batch as the ``POST /v1/admin/ingest`` N-Triples body."""
    return "".join(f"{op} <{s}> <{p}> <{o}> .\n" for op, (s, p, o) in batch).encode()


def fingerprint(*inputs) -> str:
    """A digest of generated inputs; equal digests mean byte-identical inputs."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    _build(float(sys.argv[1]), Path(sys.argv[2]))
