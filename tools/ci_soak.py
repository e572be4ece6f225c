"""Standing CI soak: ``repro loadgen`` against a live server + hot swap.

The scripted smoke steps exercise each serving feature once; this soak
runs them *together* the way production would see them: a registry-backed
server (process executor with micro-batching enabled, the PR-8 default
worth soaking) absorbs a short Zipf open-loop run from the real
``repro loadgen`` CLI while a new snapshot version is published and
hot-swapped in mid-stream, and afterwards ``/v1/metrics`` must still
answer a well-formed Prometheus exposition. It fails on:

* loadgen error rate above ``--max-error-rate`` (default 2%) or zero
  completed requests — requests may never hang or silently drop across
  the swap;
* the mid-run ``POST /v1/admin/reload`` not actually swapping;
* the mid-run ``POST /v1/admin/ingest`` (a small live statement batch,
  ``?wait=1`` so the append → merge → swap pipeline completes inline)
  not being accepted, or ``/v1/healthz``'s ``version_id`` not advancing
  to the merged version — live ingest must land under load with zero
  request failures (the error-rate gate covers the reads);
* a malformed metrics exposition, or the serving/batching metric
  families missing from it;
* no complete request trace after the soak: the server samples every
  request (``trace_sample_rate=1.0`` + exemplars), and at least one
  retained ``http.search`` trace must contain the full cross-process
  span tree — ``http.*`` → ``engine.*`` → ``worker.*`` phases — or the
  pickle-boundary stitching regressed.

This is the remaining headroom ROADMAP item 4 called out: observability
validated under sustained load with a topology change, not just by a
one-shot scrape.

Usage (from the repo root)::

    python tools/ci_soak.py --snapshot .ci-cache/snapshots/yago-s05.snap
    python tools/ci_soak.py --duration 20 --rate 25 --max-error-rate 0.01
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.disk import SnapshotRegistry  # noqa: E402
from repro.service.engine import EngineConfig, NCEngine  # noqa: E402
from repro.service.metrics import CONTENT_TYPE, validate_exposition  # noqa: E402
from repro.service.server import create_server  # noqa: E402

#: Metric families the soak asserts are present and correctly typed in
#: the post-soak exposition — the serving path plus the PR-8 batching
#: observability.
REQUIRED_FAMILIES = {
    "nc_http_requests_total": "counter",
    "nc_http_request_latency_seconds": "histogram",
    "nc_engine_swaps_total": "counter",
    "nc_worker_batch_size": "histogram",
    "nc_ingest_batches_total": "counter",
    "nc_delta_depth": "gauge",
}

#: The live statement batch POSTed mid-soak: three fresh-subject adds
#: (new vocabulary, so the merged snapshot visibly grows) in the
#: ``+``-prefixed N-Triples delta dialect of ``POST /v1/admin/ingest``.
INGEST_BATCH = (
    b"+ <soak_ingest_a> <soak_rel> <soak_ingest_b> .\n"
    b"+ <soak_ingest_b> <soak_rel> <soak_ingest_c> .\n"
    b"+ <soak_ingest_c> <soak_rel> <soak_ingest_a> .\n"
)


def ensure_snapshot(path: Path, scale: float) -> Path:
    """Reuse an existing compiled snapshot or compile one at ``path``."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        code = repro_main(
            ["compile", "yago", str(path), "--scale", str(scale)]
        )
        if code != 0:
            raise SystemExit(f"snapshot compile failed with exit code {code}")
    return path


def run_loadgen(url: str, args: argparse.Namespace) -> dict:
    """Run the real ``repro loadgen`` CLI against ``url``; return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro", "loadgen",
        "--url", url,
        "--mode", "open",
        "--rate", str(args.rate),
        "--duration", str(args.duration),
        "--dataset", "yago",
        "--scale", str(args.scale),
        "--entities", str(args.entities),
        "--seed", str(args.seed),
        "--timeout", str(args.timeout),
        "--json",
    ]
    run = subprocess.run(
        command, capture_output=True, text=True, env=env,
        timeout=args.duration * 4 + 120,
    )
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        raise SystemExit(
            f"repro loadgen exited {run.returncode}; stdout:\n{run.stdout}"
        )
    return json.loads(run.stdout)


def main(argv: "list[str] | None" = None) -> int:
    """Boot the server, soak it, swap mid-run, audit the metrics."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        help="compiled snapshot to publish (reused if present, else "
        "compiled here; default: a temp file)",
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--context-size", type=int, default=30)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--batch-window-ms", type=float, default=5.0)
    parser.add_argument("--rate", type=float, default=15.0)
    parser.add_argument("--duration", type=float, default=8.0)
    parser.add_argument("--entities", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--max-error-rate",
        type=float,
        default=0.02,
        help="maximum tolerated fraction of failed loadgen requests",
    )
    args = parser.parse_args(argv)

    snapshot = args.snapshot or Path(tempfile.gettempdir()) / (
        f"repro-soak-{os.getpid()}.snap"
    )
    owns_snapshot = args.snapshot is None
    try:
        ensure_snapshot(snapshot, args.scale)
        registry_dir = tempfile.mkdtemp(prefix="ci-soak-registry-")
        if repro_main(["publish", str(snapshot), registry_dir]) != 0:
            raise SystemExit("publishing snapshot v1 failed")
        registry = SnapshotRegistry(registry_dir, create=False)

        engine = NCEngine(
            registry.open_view(),
            config=EngineConfig(
                context_size=args.context_size,
                max_workers=args.workers,
                executor="process",
                max_batch=args.max_batch,
                batch_window_ms=args.batch_window_ms,
                seed=11,
                trace_sample_rate=1.0,
                metrics_exemplars=True,
            ),
        )
        engine.pin()
        server = create_server(engine, port=0, registry=registry, retain=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"

        # Mid-run topology change: publish v2 halfway through the soak
        # and hot-swap onto it while loadgen traffic is in flight.
        swap_outcome: dict = {}
        swap_errors: "list[str]" = []

        def swap_mid_run() -> None:
            try:
                if repro_main(["publish", str(snapshot), registry_dir]) != 0:
                    raise RuntimeError("publishing snapshot v2 failed")
                request = urllib.request.Request(
                    f"{url}/v1/admin/reload", data=b"", method="POST"
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    swap_outcome.update(json.loads(response.read()))
            except Exception as error:  # noqa: BLE001 - reported below
                swap_errors.append(repr(error))

        # Mid-run live ingest: POST a small statement batch three quarters
        # of the way through (after the swap has landed) with ?wait=1 so
        # the append -> merge -> swap pipeline completes inline; the
        # healthz version_id must advance to the merged version.
        ingest_outcome: dict = {}
        ingest_errors: "list[str]" = []

        def ingest_mid_run() -> None:
            try:
                with urllib.request.urlopen(
                    f"{url}/v1/healthz", timeout=30
                ) as response:
                    ingest_outcome["version_before"] = json.loads(
                        response.read()
                    )["version_id"]
                request = urllib.request.Request(
                    f"{url}/v1/admin/ingest?format=nt&wait=1",
                    data=INGEST_BATCH,
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    ingest_outcome.update(json.loads(response.read()))
                with urllib.request.urlopen(
                    f"{url}/v1/healthz", timeout=30
                ) as response:
                    ingest_outcome["version_after"] = json.loads(
                        response.read()
                    )["version_id"]
            except Exception as error:  # noqa: BLE001 - reported below
                ingest_errors.append(repr(error))

        swap_timer = threading.Timer(args.duration / 2, swap_mid_run)
        swap_timer.start()
        ingest_timer = threading.Timer(args.duration * 0.75, ingest_mid_run)
        ingest_timer.start()
        try:
            report = run_loadgen(url, args)
        finally:
            swap_timer.cancel()  # no-op once fired; stops it on loadgen failure
            ingest_timer.cancel()
        swap_timer.join(timeout=60)  # a fired swap may still be publishing
        ingest_timer.join(timeout=120)  # a fired ingest may still be merging

        # -- checks -------------------------------------------------------
        failures: "list[str]" = []
        requests = int(report.get("requests", 0))
        completed = int(report.get("completed", 0))
        error_rate = 1.0 - completed / requests if requests else 1.0
        if completed == 0:
            failures.append("loadgen completed zero requests")
        if error_rate > args.max_error_rate:
            failures.append(
                f"error rate {error_rate:.2%} exceeds "
                f"{args.max_error_rate:.2%} (errors: {report.get('errors')})"
            )
        if swap_errors:
            failures.append(f"mid-run swap failed: {swap_errors[0]}")
        elif not swap_outcome.get("swapped"):
            failures.append(f"mid-run reload did not swap: {swap_outcome}")
        elif engine.graph.version < swap_outcome.get("new_version"):
            # The mid-run ingest may legitimately advance past the
            # reload's version, so "at least" is the invariant here.
            failures.append(
                f"engine still serving v{engine.graph.version} after "
                f"swapping to v{swap_outcome.get('new_version')}"
            )

        if ingest_errors:
            failures.append(f"mid-run ingest failed: {ingest_errors[0]}")
        elif not ingest_outcome.get("accepted"):
            failures.append(f"mid-run ingest not accepted: {ingest_outcome}")
        else:
            merged = ingest_outcome.get("merged_version")
            before = ingest_outcome.get("version_before")
            after = ingest_outcome.get("version_after")
            if (
                not isinstance(merged, int)
                or after != merged
                or not isinstance(before, int)
                or after <= before
            ):
                failures.append(
                    f"healthz version_id did not advance to the merged "
                    f"ingest version (before={before}, merged={merged}, "
                    f"after={after})"
                )

        with urllib.request.urlopen(f"{url}/v1/metrics", timeout=30) as response:
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        if content_type != CONTENT_TYPE:
            failures.append(f"metrics content type {content_type!r}")
        try:
            families = validate_exposition(body)
        except ValueError as error:
            failures.append(f"malformed metrics exposition: {error}")
            families = {}
        for family, kind in REQUIRED_FAMILIES.items():
            if families.get(family) != kind:
                failures.append(
                    f"metric family {family} missing or not a {kind} "
                    f"(got {families.get(family)!r})"
                )
        if families and " # {" not in body:
            failures.append(
                "no exemplars in the metrics exposition despite "
                "metrics_exemplars=True and full trace sampling"
            )

        # Every request was sampled; at least one retained search trace
        # must carry the complete cross-process span tree (cache hits
        # legitimately have no worker spans, so scan until one does).
        complete_trace: "str | None" = None
        try:
            with urllib.request.urlopen(
                f"{url}/v1/debug/traces?limit=50", timeout=30
            ) as response:
                listing = json.loads(response.read())
            searches = [
                entry
                for entry in listing.get("traces", [])
                if entry["name"] == "http.search"
            ]
            if not searches:
                failures.append("no retained http.search traces after the soak")
            seen_names: "set[str]" = set()
            for entry in searches:
                with urllib.request.urlopen(
                    f"{url}/v1/debug/traces/{entry['trace_id']}", timeout=30
                ) as response:
                    trace = json.loads(response.read())
                names = {span["name"] for span in trace["spans"]}
                seen_names |= names
                if all(
                    any(name.startswith(prefix) for name in names)
                    for prefix in ("http.", "engine.", "worker.")
                ):
                    complete_trace = entry["trace_id"]
                    break
            if searches and complete_trace is None:
                failures.append(
                    "no search trace with complete http->engine->worker "
                    f"span tree (saw phases: {sorted(seen_names)})"
                )
        except Exception as error:  # noqa: BLE001 - reported as a failure
            failures.append(f"trace fetch failed: {error!r}")

        server.shutdown()
        server.server_close()
        engine.close()

        latency = report.get("latency_s", {})
        print(
            f"soak: {completed}/{requests} requests at "
            f"{report.get('achieved_rps', 0.0):.1f} req/s "
            f"(error rate {error_rate:.2%}), p99 "
            f"{latency.get('p99', 0.0) * 1e3:.1f}ms, swap "
            f"v{swap_outcome.get('old_version')} -> "
            f"v{swap_outcome.get('new_version')}, ingest "
            f"{ingest_outcome.get('run')} -> "
            f"v{ingest_outcome.get('merged_version')} (healthz "
            f"v{ingest_outcome.get('version_before')} -> "
            f"v{ingest_outcome.get('version_after')}), "
            f"{len(families)} well-formed metric families, "
            f"complete trace {complete_trace or 'MISSING'}"
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("ci soak: ok")
        return 0
    finally:
        if owns_snapshot and snapshot.exists():
            snapshot.unlink()


if __name__ == "__main__":
    raise SystemExit(main())
