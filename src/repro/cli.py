"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------

``search``
    Run notable-characteristics search for a query on a built-in dataset::

        repro search --dataset yago --query Angela_Merkel Barack_Obama

``experiment``
    Regenerate one of the paper's tables/figures::

        repro experiment fig9
        repro experiment table2 --scale 1.5

``datasets``
    List the registered datasets with their statistics.

``compile``
    Compile an N-Triples/TSV dump — or a registered dataset — into a
    single-file binary snapshot through the streaming bulk ingester
    (never materializing the dict graph)::

        repro compile dump.nt graph.snap
        repro compile yago yago-s2.snap --scale 2.0

``publish``
    Publish a dump, dataset, or existing snapshot file into a versioned
    snapshot **registry** directory (monotonic version ids, atomic
    manifest — the directory ``repro serve --snapshot-dir`` hot-swaps
    from)::

        repro publish dump.nt serving/
        repro publish yago serving/ --scale 2.0
        repro publish prebuilt.snap serving/

``ingest``
    Append a batch of statement-level edits to a registry's delta log
    and fold it into a fresh snapshot version — the offline twin of
    ``POST /v1/admin/ingest``. Each line is one statement (N-Triples or
    TSV), optionally prefixed ``+`` (add, the default) or ``-``
    (remove); ``-`` as the batch path reads stdin. A serving process
    adopts the merged version via ``POST /v1/admin/reload`` or its
    ``--poll-interval`` watcher::

        repro ingest edits.nt serving/
        echo '- <a> <r> <b> .' | repro ingest - serving/

``compact``
    Collapse a registry's active delta chain (base + runs, plus
    anything still pending) into a fresh self-standing version, so GC
    can drop the old base and its run files once they age out::

        repro compact serving/

``inspect``
    Print the stored header of a snapshot file (format version,
    node/edge/label counts, name-table sizes, transition presence) or
    the manifest of a registry directory — including each version's
    delta-chain provenance and any pending runs::

        repro inspect graph.snap
        repro inspect serving/ --json

``serve``
    Run the concurrent NC query service over a built-in dataset,
    cold-start it from a compiled snapshot (one mmap, no parse, no
    ``KnowledgeGraph`` in the serving process), or serve a snapshot
    registry with hot swaps (``POST /v1/admin/reload``, optional mtime
    polling). Every HTTP route lives under ``/v1/``; ``GET /v1/metrics``
    exports Prometheus text. Resilience knobs — a default request
    deadline, an admission-control budget, and the crash-retry budget —
    are flags; SIGTERM/SIGINT drain in-flight requests (bounded by
    ``--drain-timeout``) before the process exits::

        repro serve --dataset yago --port 8099
        repro serve --snapshot yago-s2.snap --port 8099
        repro serve --snapshot-dir serving/ --poll-interval 5 --retain 2
        repro serve --executor process --workers 4   # scale with cores
        repro serve --request-timeout 2.0 --max-pending 64 --retries 3
        curl 'http://127.0.0.1:8099/v1/search?query=Angela_Merkel,Barack_Obama'
        curl -X POST 'http://127.0.0.1:8099/v1/admin/reload'
        curl 'http://127.0.0.1:8099/v1/metrics'
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.findnc import FindNC, rw_mult
from repro.datasets.loader import dataset_names, load_dataset
from repro.errors import ReproError
from repro.eval.experiments import ExperimentSetting
from repro.eval.report import experiment_ids, get_experiment
from repro.graph.statistics import GraphStatistics


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Notable Characteristics Search through Knowledge Graphs "
        "(EDBT 2018) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run FindNC for a query")
    search.add_argument("--dataset", default="yago", choices=dataset_names())
    search.add_argument("--scale", type=float, default=2.0)
    search.add_argument("--context-size", type=int, default=100)
    search.add_argument("--seed", type=int, default=11)
    search.add_argument(
        "--baseline", action="store_true", help="use RWMult instead of FindNC"
    )
    search.add_argument("--query", nargs="+", required=True, metavar="ENTITY")

    experiment = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument("experiment_id", choices=experiment_ids())
    experiment.add_argument("--dataset", default="yago", choices=dataset_names())
    experiment.add_argument("--scale", type=float, default=2.0)
    experiment.add_argument("--markdown", action="store_true")

    sub.add_parser("datasets", help="list datasets with statistics")

    compile_parser = sub.add_parser(
        "compile",
        help="compile a dump (or dataset) into a binary snapshot file",
    )
    compile_parser.add_argument(
        "source",
        help="an N-Triples (.nt) / YAGO-TSV (.tsv) dump path, or a "
        "registered dataset name (see `repro datasets`)",
    )
    compile_parser.add_argument(
        "snapshot", type=Path, help="output snapshot file path"
    )
    compile_parser.add_argument(
        "--format",
        dest="fmt",
        default="auto",
        choices=("auto", "nt", "tsv"),
        help="dump format (default: by file extension)",
    )
    compile_parser.add_argument(
        "--scale", type=float, default=2.0, help="dataset scale (dataset sources)"
    )
    compile_parser.add_argument(
        "--seed", type=int, default=None, help="dataset seed (dataset sources)"
    )
    compile_parser.add_argument(
        "--name", default=None, help="graph name recorded in the snapshot header"
    )
    compile_parser.add_argument(
        "--no-inverse",
        action="store_true",
        help="the dump already contains both edge directions "
        "(skip the Section-2 inverse closure)",
    )
    compile_parser.add_argument(
        "--no-transition",
        action="store_true",
        help="do not persist the frozen PPR transition matrix "
        "(smaller file, slower serve warm-up)",
    )

    publish = sub.add_parser(
        "publish",
        help="publish a dump/dataset/snapshot into a versioned registry",
    )
    publish.add_argument(
        "source",
        help="an N-Triples/TSV dump, an existing .snap file, or a "
        "registered dataset name (see `repro datasets`)",
    )
    publish.add_argument(
        "registry", type=Path, help="snapshot registry directory (created if missing)"
    )
    publish.add_argument(
        "--format",
        dest="fmt",
        default="auto",
        choices=("auto", "nt", "tsv"),
        help="dump format (default: by file extension)",
    )
    publish.add_argument(
        "--scale", type=float, default=2.0, help="dataset scale (dataset sources)"
    )
    publish.add_argument(
        "--seed", type=int, default=None, help="dataset seed (dataset sources)"
    )
    publish.add_argument(
        "--name", default=None, help="graph name recorded in the snapshot header"
    )
    publish.add_argument(
        "--no-inverse",
        action="store_true",
        help="the dump already contains both edge directions",
    )
    publish.add_argument(
        "--no-transition",
        action="store_true",
        help="do not persist the frozen PPR transition matrix",
    )

    ingest = sub.add_parser(
        "ingest",
        help="append a +/- statement batch to a registry's delta log "
        "and merge it into a fresh version",
    )
    ingest.add_argument(
        "batch",
        help="a batch file of statements ('+'/'-' line prefixes mark "
        "adds/removes; bare lines are adds), or '-' for stdin",
    )
    ingest.add_argument(
        "registry", type=Path, help="snapshot registry directory (must exist)"
    )
    ingest.add_argument(
        "--format",
        dest="fmt",
        default="auto",
        choices=("auto", "nt", "tsv"),
        help="batch format (default: by file extension; 'nt' for stdin)",
    )
    ingest.add_argument(
        "--no-merge",
        action="store_true",
        help="append the delta run only; a later ingest, compact, or "
        "serving-side merge folds it in",
    )
    ingest.add_argument(
        "--no-transition",
        action="store_true",
        help="do not persist the frozen PPR transition matrix in the "
        "merged snapshot",
    )

    compact = sub.add_parser(
        "compact",
        help="collapse a registry's delta chain into a fresh full version",
    )
    compact.add_argument(
        "registry", type=Path, help="snapshot registry directory (must exist)"
    )
    compact.add_argument(
        "--no-transition",
        action="store_true",
        help="do not persist the frozen PPR transition matrix in the "
        "compacted snapshot",
    )

    inspect = sub.add_parser(
        "inspect",
        help="print a snapshot file's stored header (or a registry manifest)",
    )
    inspect.add_argument(
        "target", type=Path, help="a snapshot file or a registry directory"
    )
    inspect.add_argument(
        "--json", action="store_true", help="emit raw JSON instead of the digest"
    )

    serve = sub.add_parser("serve", help="run the concurrent NC query service")
    serve.add_argument("--dataset", default="yago", choices=dataset_names())
    serve.add_argument("--scale", type=float, default=2.0)
    serve.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        help="serve from a compiled snapshot file (mmap cold start; "
        "--dataset/--scale are ignored)",
    )
    serve.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        help="serve the latest version of a snapshot registry directory "
        "(see `repro publish`); enables POST /admin/reload hot swaps",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.0,
        help="with --snapshot-dir: seconds between registry manifest "
        "polls that auto-reload new versions (0 disables polling; "
        "POST /admin/reload always works)",
    )
    serve.add_argument(
        "--retain",
        type=int,
        default=2,
        help="with --snapshot-dir: registry versions kept on disk after "
        "a hot swap (drained older versions are garbage-collected)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8099)
    serve.add_argument("--context-size", type=int, default=100)
    serve.add_argument("--alpha", type=float, default=0.05)
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--executor",
        default="thread",
        choices=("thread", "process"),
        help="computation backend: 'thread' (default; cached traffic at "
        "memory speed, distinct queries GIL-bound) or 'process' "
        "(shared-memory worker processes; distinct-query throughput "
        "scales with cores)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="process executor only: gather concurrent same-snapshot "
        "requests for up to this many milliseconds into one worker "
        "micro-batch (0 = dispatch whatever is already queued)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1,
        help="process executor only: members per worker micro-batch; at 1 "
        "(default) the dispatcher sends each request alone at once, higher "
        "values amortize the power-iteration sweep across concurrent "
        "distinct queries",
    )
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds (expired requests "
        "answer 504; per-request timeout_ms overrides; unset = no deadline)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission-control budget: distinct computations allowed in "
        "flight before /v1/search sheds with 503 + Retry-After (unset = "
        "unbounded)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="per-request retry budget for worker crashes / stale "
        "snapshots (process executor; retries back off with jitter)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests to finish on "
        "SIGTERM/SIGINT before closing the engine",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="head-sampling probability for request tracing (0 disables; "
        "sampled traces land in GET /v1/debug/traces)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="tail capture: every request records spans, and any that "
        "errors or takes at least this many milliseconds is retained "
        "even when the sampling coin said no (unset = head sampling only)",
    )
    serve.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        help="retained traces kept in the in-memory ring buffer "
        "served by /v1/debug/traces",
    )
    serve.add_argument(
        "--metrics-exemplars",
        action="store_true",
        help="attach trace-id exemplars to latency histogram buckets "
        "in GET /v1/metrics (OpenMetrics-style '# {trace_id=...}')",
    )
    serve.add_argument(
        "--log-format",
        default="text",
        choices=("text", "json"),
        help="structured log line format for request/swap/crash/breaker "
        "events ('json' stamps trace_id on every line)",
    )

    return parser


def _cmd_search(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    if args.baseline:
        finder = rw_mult(graph, context_size=args.context_size, rng=args.seed)
    else:
        finder = FindNC(graph, context_size=args.context_size, rng=args.seed)
    result = finder.run(args.query)
    print(result.summary(graph))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment_id)
    setting = ExperimentSetting(dataset=args.dataset, scale=args.scale)
    table = spec.runner(setting)
    print(table.render(markdown=args.markdown))
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in dataset_names():
        graph = load_dataset(name)
        stats = GraphStatistics(graph)
        print(f"{name}: {stats.describe()}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.datasets.loader import to_snapshot
    from repro.disk import ingest_file

    source = str(args.source)
    if source in dataset_names() and not Path(source).exists():
        stats = to_snapshot(
            source,
            args.snapshot,
            scale=args.scale,
            seed=args.seed,
            include_transition=not args.no_transition,
            graph_name=args.name,
        )
    else:
        stats = ingest_file(
            source,
            args.snapshot,
            fmt=args.fmt,
            graph_name=args.name,
            add_inverse=not args.no_inverse,
            include_transition=not args.no_transition,
        )
    print(
        f"compiled {source}: |V|={stats.nodes}, |E|={stats.edges}, "
        f"|L|={stats.labels} ({stats.triples} statements read, "
        f"{stats.duplicates} duplicates dropped)"
    )
    print(f"wrote {args.snapshot} ({stats.bytes_written} bytes)")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.disk import SnapshotRegistry

    registry = SnapshotRegistry(args.registry)
    source = str(args.source)
    if source in dataset_names() and not Path(source).exists():
        graph = load_dataset(source, scale=args.scale, seed=args.seed)
        if args.name is not None:
            graph.name = args.name
        entry = registry.publish_graph(
            graph, include_transition=not args.no_transition
        )
    else:
        entry = registry.publish(
            source,
            fmt=args.fmt,
            graph_name=args.name,
            add_inverse=not args.no_inverse,
            include_transition=not args.no_transition,
        )
    print(
        f"published {source} as v{entry.version}: |V|={entry.nodes}, "
        f"|E|={entry.edges}, |L|={entry.labels} ({entry.bytes} bytes, "
        f"{entry.file})"
    )
    print(registry.summary())
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.disk import SnapshotRegistry, detect_format
    from repro.disk.delta import parse_delta_lines

    registry = SnapshotRegistry(args.registry, create=False)
    if args.batch == "-":
        fmt = "nt" if args.fmt == "auto" else args.fmt
        lines = sys.stdin.read().splitlines()
    else:
        fmt = detect_format(args.batch) if args.fmt == "auto" else args.fmt
        lines = Path(args.batch).read_text(encoding="utf-8").splitlines()
    ops = parse_delta_lines(lines, fmt)
    run = registry.append_delta(ops)
    if run is None:
        print(f"{args.batch}: batch nets out to no change; nothing appended")
        return 0
    print(
        f"appended {run.file}: {run.adds} add(s), {run.removes} remove(s) "
        f"against base v{run.base_version} ({run.bytes} bytes)"
    )
    if args.no_merge:
        print(f"{len(registry.pending_runs())} run(s) pending merge")
        return 0
    entry = registry.merge_pending(include_transition=not args.no_transition)
    if entry is not None:
        print(
            f"merged into v{entry.version}: |V|={entry.nodes}, "
            f"|E|={entry.edges}, |L|={entry.labels} "
            f"(chain base v{entry.base} + {len(entry.deltas)} delta(s))"
        )
    print(registry.summary())
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.disk import SnapshotRegistry

    registry = SnapshotRegistry(args.registry, create=False)
    entry = registry.compact(include_transition=not args.no_transition)
    if entry is None:
        print(f"{args.registry}: already compact (no delta chain, nothing pending)")
        return 0
    print(
        f"compacted chain into v{entry.version}: |V|={entry.nodes}, "
        f"|E|={entry.edges}, |L|={entry.labels} ({entry.bytes} bytes, "
        f"{entry.file})"
    )
    print(registry.summary())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.disk import SnapshotRegistry, inspect_snapshot
    from repro.disk.registry import MANIFEST_NAME

    target = Path(args.target)
    if target.is_dir():
        if not (target / MANIFEST_NAME).exists():
            print(f"{target}: not a snapshot registry (no {MANIFEST_NAME})")
            return 1
        registry = SnapshotRegistry(target, create=False)
        if args.json:
            print(
                json.dumps(
                    [entry.as_dict() for entry in registry.versions()],
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(registry.summary())
        for entry in registry.versions():
            chain = (
                f"  [base v{entry.base} + {len(entry.deltas)} delta(s)]"
                if entry.base is not None
                else ""
            )
            print(
                f"  v{entry.version}: {entry.file}  |V|={entry.nodes} "
                f"|E|={entry.edges} |L|={entry.labels}  {entry.bytes} bytes  "
                f"({entry.graph_name}){chain}"
            )
        for run in registry.pending_runs():
            print(
                f"  pending {run.file}: {run.adds} add(s), "
                f"{run.removes} remove(s)  {run.bytes} bytes"
            )
        return 0
    info = inspect_snapshot(target)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['path']}: snapshot format v{info['format_version']}")
    print(f"  graph: {info['graph_name']} @ version {info['version']}")
    print(
        f"  |V|={info['nodes']}, |E|={info['edges']}, |L|={info['labels']}"
    )
    print(
        f"  file: {info['file_bytes']} bytes ({info['data_bytes']} data); "
        f"name tables: {info['node_name_table_bytes']} node / "
        f"{info['label_name_table_bytes']} label bytes"
    )
    print(
        "  frozen PPR transition: "
        + ("baked in" if info["has_transition"] else "absent (built at serve)")
    )
    return 0


def _validate_serve_args(args: argparse.Namespace) -> "str | None":
    """The flag checks ``EngineConfig`` cannot make; an error message or None.

    These cover the registry, polling and drain flags, which never reach
    the engine. Engine settings are checked by ``EngineConfig`` itself
    (:func:`_serve_config`). Kept separate from :func:`_cmd_serve` so
    unit tests can cover every rejection without binding sockets or
    loading datasets.
    """
    if args.snapshot is not None and args.snapshot_dir is not None:
        return "--snapshot and --snapshot-dir are mutually exclusive"
    if args.retain < 1:
        return f"--retain must be >= 1, got {args.retain}"
    if args.drain_timeout < 0:
        return f"--drain-timeout must be >= 0, got {args.drain_timeout}"
    if args.poll_interval < 0:
        return f"--poll-interval must be >= 0, got {args.poll_interval}"
    if args.poll_interval > 0 and args.snapshot_dir is None:
        return "--poll-interval requires --snapshot-dir (nothing to poll)"
    if (
        args.request_timeout is not None
        and args.drain_timeout > 0
        and args.drain_timeout < args.request_timeout
    ):
        return (
            f"--drain-timeout ({args.drain_timeout}) must not be shorter "
            f"than --request-timeout ({args.request_timeout}): draining "
            f"would abandon requests that were promised a longer deadline"
        )
    return None


#: ``EngineConfig`` fields whose ``repro serve`` flag is not ``--<field>``.
_SERVE_FLAG_NAMES = {"max_workers": "--workers"}


def _serve_config(args: argparse.Namespace):
    """The ``EngineConfig`` of a ``repro serve`` command line.

    Raises ``ValueError`` naming the offending flag, rewritten from the
    field name that ``EngineConfig`` reports.
    """
    from repro.service.engine import EngineConfig

    if args.snapshot_dir is not None:
        snapshot_source = f"registry:{args.snapshot_dir}"
    elif args.snapshot is not None:
        snapshot_source = f"snapshot:{args.snapshot}"
    else:
        snapshot_source = f"dataset:{args.dataset}@{args.scale}"
    try:
        return EngineConfig(
            context_size=args.context_size,
            alpha=args.alpha,
            cache_size=args.cache_size,
            max_workers=args.workers,
            executor=args.executor,
            seed=args.seed,
            request_timeout=args.request_timeout,
            max_pending=args.max_pending,
            retries=args.retries,
            snapshot_source=snapshot_source,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            trace_sample_rate=args.trace_sample_rate,
            slow_query_ms=args.slow_query_ms,
            trace_buffer=args.trace_buffer,
            metrics_exemplars=args.metrics_exemplars,
        )
    except ValueError as error:
        field, _, rest = str(error).partition(" ")
        flag = _SERVE_FLAG_NAMES.get(field, "--" + field.replace("_", "-"))
        raise ValueError(f"{flag} {rest}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import time as time_module

    from repro.service import faults
    from repro.service.engine import NCEngine
    from repro.service.server import NCRequestHandler, RegistryPoller, create_server
    from repro.service.tracing import set_log_format

    problem = _validate_serve_args(args)
    if problem is None:
        try:
            config = _serve_config(args)
        except ValueError as error:
            problem = str(error)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    set_log_format(args.log_format)
    injector = faults.install_from_env()
    if injector is not None:  # pragma: no cover - chaos runs only
        print(f"fault injection armed: {faults.FAULTS_ENV} -> {injector.rules()}")
    registry = None
    if args.snapshot_dir is not None:
        from repro.disk import SnapshotRegistry

        registry = SnapshotRegistry(args.snapshot_dir, create=False)
        latest = registry.latest()
        if latest is None:
            print(
                f"registry {args.snapshot_dir} is empty — publish a version "
                f"first: repro publish <dump|dataset> {args.snapshot_dir}"
            )
            return 1
        graph = registry.open_view()
        print(registry.summary())
    elif args.snapshot is not None:
        from repro.disk import open_snapshot_view

        graph = open_snapshot_view(args.snapshot)
    else:
        graph = load_dataset(args.dataset, scale=args.scale)
    engine = NCEngine(graph, config=config)
    del graph  # a --dataset graph is frozen into the engine; drop the live copy
    engine.pin()  # build the pinned state before accepting traffic
    NCRequestHandler.quiet = not args.verbose
    server = create_server(
        engine, host=args.host, port=args.port, registry=registry, retain=args.retain
    )
    poller = None
    if registry is not None and args.poll_interval > 0:
        poller = RegistryPoller(
            engine,
            registry,
            interval=args.poll_interval,
            retain=args.retain,
            lock=server.reload_lock,
        )
        poller.start()
    host, port = server.server_address[:2]
    print(f"serving {engine.graph.summary()}")
    print(f"executor: {args.executor} ({args.workers} workers)")
    endpoints = (
        "/v1/search, /v1/healthz, /v1/stats, /v1/metrics"
        + (", /v1/debug/traces" if engine.tracer.enabled else "")
        + (", /v1/admin/reload, /v1/admin/ingest" if registry is not None else "")
    )
    print(f"listening on http://{host}:{port} ({endpoints})")

    # Graceful shutdown: SIGTERM (the orchestrator's stop signal) and
    # SIGINT both stop accepting connections, drain in-flight requests
    # bounded by --drain-timeout, then close the pool and unlink shm
    # segments. serve_forever() must be shut down from another thread:
    # the handler runs *inside* its poll loop, and a same-thread
    # shutdown() would deadlock waiting for the loop to acknowledge.
    stopping = threading.Event()

    def _request_stop(signum: int, _frame: object) -> None:
        if stopping.is_set():  # pragma: no cover - repeated signal
            return
        stopping.set()
        print(f"received signal {signum}: draining and shutting down")
        threading.Thread(target=server.shutdown, daemon=True).start()

    if threading.current_thread() is threading.main_thread():
        import signal

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        if poller is not None:
            poller.stop()
        drain_deadline = time_module.monotonic() + args.drain_timeout
        while (
            engine.stats().inflight > 0
            and time_module.monotonic() < drain_deadline
        ):
            time_module.sleep(0.05)
        abandoned = engine.stats().inflight
        server.server_close()
        engine.close()
        if abandoned:  # pragma: no cover - drain timeout elapsed
            print(f"drain timeout: abandoned {abandoned} in-flight requests")
        print("shut down cleanly")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "search": _cmd_search,
        "experiment": _cmd_experiment,
        "datasets": _cmd_datasets,
        "compile": _cmd_compile,
        "publish": _cmd_publish,
        "ingest": _cmd_ingest,
        "compact": _cmd_compact,
        "inspect": _cmd_inspect,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # User errors (unknown entity, bad dump, missing registry) carry
        # their own hint; a traceback would only bury it.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
