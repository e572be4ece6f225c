"""Snapshot-store walkthrough: compile once, cold-start in milliseconds.

The PR-4 serving story, end to end:

1. ``repro.datasets.to_snapshot`` routes the synthetic YAGO dataset
   through the streaming bulk ingester into a single-file binary
   snapshot (the same eight columnar arrays the live graph compiles,
   plus the name tables and the frozen PPR transition matrix).
2. ``repro.disk.open_snapshot_view`` maps that file back — zero-copy,
   no parsing, no dict graph — and the view feeds straight into
   ``NCEngine``: the whole FindNC service runs with **no
   KnowledgeGraph in the process**.
3. The boot-time gap is measured live: generate+compile vs one mmap.

The CLI spells the same flow ``repro compile yago yago.snap`` +
``repro serve --snapshot yago.snap``.

Run:  python examples/snapshot_serving.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.datasets import load_dataset, to_snapshot
from repro.datasets.loader import clear_dataset_cache
from repro.disk import open_snapshot_view
from repro.service import EngineConfig, NCEngine


def compile_snapshot(path: str) -> None:
    """Step 1: dataset → snapshot file through the bulk ingester."""
    stats = to_snapshot("yago", path, scale=1.0)
    print(f"[1] compiled synthetic YAGO -> {os.path.basename(path)}")
    print(f"    |V|={stats.nodes}, |E|={stats.edges}, |L|={stats.labels}, "
          f"{stats.bytes_written} bytes on disk")


def serve_from_snapshot(path: str) -> None:
    """Step 2: mmap the file and serve queries graph-free."""
    started = time.perf_counter()
    view = open_snapshot_view(path)
    opened = time.perf_counter() - started
    print(f"\n[2] mmap cold start: {view.summary()} in {opened * 1e3:.1f}ms")

    config = EngineConfig(context_size=50, seed=11)
    with NCEngine(view, config=config) as engine:
        engine.pin()
        result = engine.search(["angela merkel", "barack obama"])
        print("    notable characteristics for {angela merkel, barack obama}:")
        for notable in result.notable[:5]:
            print(f"      * {notable.label} (score {notable.score:.3f})")


def compare_boot_times(path: str) -> None:
    """Step 3: the cold-start gap, measured on this machine."""
    clear_dataset_cache()  # force a real generate+compile
    started = time.perf_counter()
    load_dataset("yago", scale=1.0).compiled()
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    view = open_snapshot_view(path)
    int(view.compiled().indptr[-1])  # touch the index
    mmap_s = time.perf_counter() - started

    print(f"\n[3] boot comparison: build+compile {build_s * 1e3:.0f}ms vs "
          f"mmap {mmap_s * 1e3:.1f}ms ({build_s / mmap_s:.0f}x)")


def main() -> None:
    """Run the three steps against a temp snapshot file."""
    with tempfile.TemporaryDirectory(prefix="repro-example-") as workdir:
        path = os.path.join(workdir, "yago-s1.snap")
        compile_snapshot(path)
        serve_from_snapshot(path)
        compare_boot_times(path)


if __name__ == "__main__":
    main()
