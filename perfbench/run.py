"""Run the repository benchmark.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py          # every workload, untraced then traced

Run from the repository root. Prints a report (the run record, every
end-to-end metric with its unit and sample count, validity notes and, when
traced, the per-layer self-time table), then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the ``end_to_end`` metrics of ``BENCHMARK.json``, with
``--trace 1`` its ``per_layer`` metrics. Without ``--workload`` the
metric names are prefixed with the workload.

This module stays import-light: spawned worker processes re-import it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hot_reads", "saturated_distinct", "lone_wide_ingest")


def run_record() -> dict:
    """Where and on what the numbers were measured."""
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }


def report(name: str, traced: bool, outcome, record: dict) -> None:
    """The human-readable part of one workload's result."""
    mode = "traced" if traced else "untraced"
    print(f"== {name} ({mode}) ==")
    print("record: " + json.dumps({**record, **outcome.record}, sort_keys=True))
    print(f"answers: {outcome.attempted} attempted, {outcome.failed} failed")
    for metric, (value, unit, samples) in outcome.metrics.items():
        print(f"  {metric:<24} {value:>12.4f} {unit:<6} n={samples}")
    if traced:
        for metric, (value, unit) in sorted(outcome.layers.items()):
            print(f"  {metric:<32} {value:>12.4f} {unit}")
        print("  self time    layer                        calls     total_ms      self_ms  errors")
        for layer, calls, total_ms, self_ms, errors in outcome.self_times:
            print(f"               {layer:<26} {calls:>7} {total_ms:>12.2f} {self_ms:>12.2f} {errors:>7}")
    print("  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in outcome.phases.items()))
    for note in outcome.notes:
        print(f"  note: {note}")


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import drive

    drive.adopt_orphans()
    try:
        return measure(args, spec)
    finally:
        drive.stop_descendants()


def measure(args: argparse.Namespace, spec: dict) -> int:
    """Run the selected workloads and print the report and the result line."""
    from perfbench import inputs, workloads

    runs = (
        [(args.workload, bool(args.trace))] if args.workload
        else [(name, traced) for name in WORKLOAD_NAMES for traced in (False, True)]
    )
    # Outside a git checkout the commit is unknown; the digest of the
    # program sources still names the code that was measured.
    record = {**run_record(), "source_digest": inputs.source_key()}
    results = {}
    for name, traced in runs:
        workdir = inputs.BUILD / f"run-{os.getpid()}-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        settings = workloads.Settings(args.seed, args.seconds, traced, workdir)
        started = time.perf_counter()
        try:
            outcome = workloads.WORKLOADS[name](settings)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outcome.notes.append(f"wall time of the run: {time.perf_counter() - started:.1f} s")
        report(name, traced, outcome, record)
        results[(name, traced)] = outcome

    def selected(outcome, traced: bool) -> dict:
        names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
        table = outcome.layers if traced else outcome.metrics
        return {n: {"value": table[n][0], "unit": table[n][1]} for n in names}

    if args.workload:
        outcome = results[runs[0]]
        metrics = selected(outcome, bool(args.trace))
    else:
        metrics = {}
        for (name, traced), outcome in results.items():
            metrics.update({f"{name}.{k}": v for k, v in selected(outcome, traced).items()})
        for name in WORKLOAD_NAMES:
            untraced = results[(name, False)].metrics["latency_p50_ms"][0]
            traced_p50 = results[(name, True)].metrics["latency_p50_ms"][0]
            print(f"tracing overhead on {name}: latency_p50_ms "
                  f"{traced_p50 - untraced:+.4f} ms (traced {traced_p50:.4f}, "
                  f"untraced {untraced:.4f})")
    attempted = sum(o.attempted for o in results.values())
    failed = sum(o.failed for o in results.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
