"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_args(self):
        args = build_parser().parse_args(
            ["search", "--query", "Angela_Merkel", "Barack_Obama", "--scale", "0.5"]
        )
        assert args.command == "search"
        assert args.query == ["Angela_Merkel", "Barack_Obama"]
        assert args.scale == 0.5

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "yago" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Angela_Merkel" in out

    def test_search_on_figure1(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--query",
                "Angela_Merkel",
                "Barack_Obama",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query" in out
        assert "context" in out

    def test_search_baseline_flag(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "figure1",
                "--baseline",
                "--context-size",
                "3",
                "--query",
                "Angela_Merkel",
            ]
        )
        assert code == 0
        assert "RandomWalk" in capsys.readouterr().out

    def test_unknown_entity_is_one_error_line(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "figure1",
                "--context-size",
                "3",
                "--query",
                "Angela_Merkl",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "closest: Angela_Merkel" in err
        assert "Traceback" not in err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8099
        assert args.workers == 4
        assert args.cache_size == 256

    def test_serve_custom_args(self):
        args = build_parser().parse_args(
            ["serve", "--dataset", "figure1", "--port", "0", "--workers", "2"]
        )
        assert args.dataset == "figure1"
        assert args.port == 0
        assert args.workers == 2


class TestCompileParser:
    def test_compile_args(self):
        args = build_parser().parse_args(["compile", "yago", "out.snap", "--scale", "0.5"])
        assert args.command == "compile"
        assert args.source == "yago"
        assert str(args.snapshot) == "out.snap"
        assert args.scale == 0.5
        assert args.fmt == "auto"
        assert not args.no_transition

    def test_serve_snapshot_flag(self):
        args = build_parser().parse_args(["serve", "--snapshot", "graph.snap"])
        assert str(args.snapshot) == "graph.snap"
        defaults = build_parser().parse_args(["serve"])
        assert defaults.snapshot is None


class TestCompileCommand:
    def test_compile_dataset_then_open(self, capsys, tmp_path):
        out = tmp_path / "figure1.snap"
        assert main(["compile", "figure1", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "compiled figure1" in stdout
        assert str(out) in stdout
        from repro.datasets.loader import load_dataset
        from repro.disk import open_snapshot_view

        view = open_snapshot_view(out)
        graph = load_dataset("figure1")
        assert view.node_count == graph.node_count
        assert view.edge_count == graph.edge_count

    def test_compile_ntriples_dump(self, capsys, tmp_path):
        dump = tmp_path / "dump.nt"
        dump.write_text(
            "<Angela_Merkel> <leaderOf> <Germany> .\n"
            "<Barack_Obama> <leaderOf> <USA> .\n"
        )
        out = tmp_path / "dump.snap"
        assert main(["compile", str(dump), str(out)]) == 0
        from repro.disk import open_snapshot

        with open_snapshot(out) as snap:
            assert snap.compiled.node_count == 4
            assert snap.compiled.edge_count == 4  # inverse closure


class TestPublishInspectParser:
    def test_publish_args(self):
        args = build_parser().parse_args(
            ["publish", "dump.nt", "serving", "--name", "prod"]
        )
        assert args.command == "publish"
        assert args.source == "dump.nt"
        assert str(args.registry) == "serving"
        assert args.name == "prod"

    def test_inspect_args(self):
        args = build_parser().parse_args(["inspect", "graph.snap", "--json"])
        assert args.command == "inspect"
        assert str(args.target) == "graph.snap"
        assert args.json

    def test_serve_snapshot_dir_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--snapshot-dir",
                "serving",
                "--poll-interval",
                "2.5",
                "--retain",
                "3",
            ]
        )
        assert str(args.snapshot_dir) == "serving"
        assert args.poll_interval == 2.5
        assert args.retain == 3
        defaults = build_parser().parse_args(["serve"])
        assert defaults.snapshot_dir is None
        assert defaults.poll_interval == 0.0
        assert defaults.retain == 2


class TestPublishInspectCommands:
    def test_publish_dataset_twice_is_two_versions(self, capsys, tmp_path):
        registry_dir = tmp_path / "serving"
        assert main(["publish", "figure1", str(registry_dir)]) == 0
        assert main(["publish", "figure1", str(registry_dir)]) == 0
        out = capsys.readouterr().out
        assert "as v1" in out and "as v2" in out
        from repro.disk import SnapshotRegistry

        registry = SnapshotRegistry(registry_dir, create=False)
        assert [e.version for e in registry.versions()] == [1, 2]

    def test_inspect_snapshot_file(self, capsys, tmp_path):
        registry_dir = tmp_path / "serving"
        assert main(["publish", "figure1", str(registry_dir)]) == 0
        from repro.disk import SnapshotRegistry

        entry = SnapshotRegistry(registry_dir, create=False).latest()
        capsys.readouterr()
        assert main(["inspect", entry.path]) == 0
        out = capsys.readouterr().out
        assert "snapshot format v1" in out
        assert f"version {entry.version}" in out
        assert "frozen PPR transition: baked in" in out

    def test_inspect_registry_directory(self, capsys, tmp_path):
        registry_dir = tmp_path / "serving"
        assert main(["publish", "figure1", str(registry_dir)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(registry_dir)]) == 0
        out = capsys.readouterr().out
        assert "snapshot registry" in out
        assert "v1: v000001.snap" in out

    def test_inspect_json_mode(self, capsys, tmp_path):
        import json as json_module

        registry_dir = tmp_path / "serving"
        assert main(["publish", "figure1", str(registry_dir)]) == 0
        from repro.disk import SnapshotRegistry

        entry = SnapshotRegistry(registry_dir, create=False).latest()
        capsys.readouterr()
        assert main(["inspect", entry.path, "--json"]) == 0
        info = json_module.loads(capsys.readouterr().out)
        assert info["version"] == 1
        assert info["has_transition"] is True

    def test_inspect_non_registry_directory_fails(self, capsys, tmp_path):
        assert main(["inspect", str(tmp_path)]) == 1
        assert "not a snapshot registry" in capsys.readouterr().out

    def test_serve_rejects_snapshot_and_snapshot_dir(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--snapshot",
                "a.snap",
                "--snapshot-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_serve_empty_registry_fails(self, capsys, tmp_path):
        registry_dir = tmp_path / "serving"
        registry_dir.mkdir()
        code = main(["serve", "--snapshot-dir", str(registry_dir)])
        assert code == 1
        assert "empty" in capsys.readouterr().out


class TestServeResilienceFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.request_timeout is None
        assert args.max_pending is None
        assert args.retries == 2
        assert args.drain_timeout == 10.0

    def test_custom_values_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--request-timeout",
                "2.5",
                "--max-pending",
                "64",
                "--retries",
                "3",
                "--drain-timeout",
                "30",
            ]
        )
        assert args.request_timeout == 2.5
        assert args.max_pending == 64
        assert args.retries == 3
        assert args.drain_timeout == 30.0

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["--request-timeout", "0"], "--request-timeout must be positive"),
            (["--request-timeout", "-1"], "--request-timeout must be positive"),
            (["--max-pending", "0"], "--max-pending must be positive"),
            (["--retries", "-1"], "--retries must be >= 0"),
            (["--drain-timeout", "-1"], "--drain-timeout must be >= 0"),
            (["--poll-interval", "-1"], "--poll-interval must be >= 0"),
            (["--poll-interval", "5"], "--poll-interval requires --snapshot-dir"),
            (
                ["--request-timeout", "10", "--drain-timeout", "2"],
                "must not be shorter than --request-timeout",
            ),
        ],
    )
    def test_nonsensical_flags_rejected(self, capsys, argv, message):
        code = main(["serve", *argv])
        assert code == 2
        assert message in capsys.readouterr().out

    def test_zero_drain_timeout_is_valid(self):
        from repro.cli import _validate_serve_args

        args = build_parser().parse_args(
            ["serve", "--drain-timeout", "0", "--request-timeout", "5"]
        )
        assert _validate_serve_args(args) is None


class TestServeTracingFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace_sample_rate == 0.0
        assert args.slow_query_ms is None
        assert args.trace_buffer == 256
        assert args.metrics_exemplars is False
        assert args.log_format == "text"

    def test_custom_values_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--trace-sample-rate",
                "0.05",
                "--slow-query-ms",
                "250",
                "--trace-buffer",
                "64",
                "--metrics-exemplars",
                "--log-format",
                "json",
            ]
        )
        assert args.trace_sample_rate == 0.05
        assert args.slow_query_ms == 250.0
        assert args.trace_buffer == 64
        assert args.metrics_exemplars is True
        assert args.log_format == "json"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (
                ["--trace-sample-rate", "1.5"],
                "--trace-sample-rate must be within [0, 1]",
            ),
            (
                ["--trace-sample-rate", "-0.1"],
                "--trace-sample-rate must be within [0, 1]",
            ),
            (["--slow-query-ms", "0"], "--slow-query-ms must be positive"),
            (["--trace-buffer", "0"], "--trace-buffer must be >= 1"),
        ],
    )
    def test_nonsensical_flags_rejected(self, capsys, argv, message):
        code = main(["serve", *argv])
        assert code == 2
        assert message in capsys.readouterr().out

    def test_loadgen_trace_sample_rate_validated(self, capsys):
        code = main(
            [
                "loadgen",
                "--url",
                "http://127.0.0.1:1",
                "--trace-sample-rate",
                "2.0",
            ]
        )
        assert code == 2
        assert "--trace-sample-rate must be within [0, 1]" in (
            capsys.readouterr().out
        )
