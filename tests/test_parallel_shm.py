"""Tests for the snapshot layout, the graph view and `freeze_graph` (`repro.disk.store`)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.disk import (
    DiskSnapshotHeader,
    SnapshotRegistry,
    StaleSnapshotError,
    freeze_graph,
    open_snapshot,
    open_snapshot_view,
    save_graph_snapshot,
    save_snapshot,
    store,
)
from repro.disk.store import SharedNameTable, snapshot_blocks
from repro.errors import NodeNotFoundError
from repro.graph.compiled import ARRAY_FIELDS, CompiledGraph
from repro.service.workers import _attach_header

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def frozen_view(fig1_graph):
    view = freeze_graph(fig1_graph)
    yield fig1_graph, view
    view.close()  # idempotent


def _label_names(graph, compiled) -> "list[str]":
    return [graph._label_table().name(i) for i in range(compiled.label_count)]


class TestRoundTrip:
    def test_arrays_byte_equal_and_read_only(self, frozen_view):
        graph, view = frozen_view
        source = graph.compiled()
        rebuilt = view.compiled()
        assert rebuilt.version == source.version
        assert rebuilt.node_count == source.node_count
        assert rebuilt.label_count == source.label_count
        for name, dtype in ARRAY_FIELDS:
            original = getattr(source, name)
            array = getattr(rebuilt, name)
            assert array.dtype == dtype
            assert np.array_equal(original, array), name
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 0

    def test_name_tables_round_trip(self, frozen_view):
        graph, view = frozen_view
        names = view._node_names_list()
        assert len(names) == graph.node_count
        assert list(names) == list(graph.node_names())
        table = view._label_table()
        live = graph._label_table()
        for label_id in range(view.compiled().label_count):
            assert table.name(label_id) == live.name(label_id)

    def test_header_is_small_and_picklable(self, frozen_view):
        _, view = frozen_view
        header = view._attached.header
        blob = pickle.dumps(header)
        assert len(blob) < 4096
        assert pickle.loads(blob).path == header.path

    def test_name_slicing_cuts_post_snapshot_growth(self, toy_graph, tmp_path):
        compiled = toy_graph.compiled()
        toy_graph.add_node("Added_After_Snapshot")
        path = tmp_path / "toy.snap"
        save_snapshot(
            compiled,
            toy_graph._node_names_list(),
            _label_names(toy_graph, compiled),
            path,
        )
        with open_snapshot(path) as attached:
            assert len(attached.node_names) == compiled.node_count
            assert "Added_After_Snapshot" not in list(attached.node_names)

    def test_layout_rejects_short_name_tables(self, toy_graph):
        compiled = toy_graph.compiled()
        with pytest.raises(ValueError, match="node names"):
            snapshot_blocks(compiled, ["just-one"], [])


class TestLifecycle:
    def test_unlink_breaks_new_attaches(self, fig1_graph):
        view = freeze_graph(fig1_graph)
        header = view._attached.header
        _attach_header(header).close()
        view.close()
        with pytest.raises(StaleSnapshotError):
            _attach_header(header)

    def test_close_is_idempotent(self, fig1_graph):
        view = freeze_graph(fig1_graph)
        view.close()
        view.close()

    def test_attached_mapping_survives_unlink(self, fig1_graph):
        # POSIX contract: the mapped data stays readable after unlink.
        view = freeze_graph(fig1_graph)
        attached = open_snapshot(view._attached.header.path)
        expected = fig1_graph.compiled().targets.copy()
        view.close()
        assert np.array_equal(attached.compiled.targets, expected)
        attached.close()

    def test_close_releases_the_mapping(self, frozen_view):
        _, view = frozen_view
        attached = open_snapshot(view._attached.header.path)
        attached.close()
        attached.close()  # idempotent
        assert attached._mm is None

    def test_missing_file_maps_to_stale(self, tmp_path):
        header = DiskSnapshotHeader(
            path=str(tmp_path / "repro-snap-gone.snap"),
            graph_name="gone",
            version=1,
            node_count=0,
            label_count=0,
        )
        with pytest.raises(StaleSnapshotError):
            _attach_header(header)


class TestSharedNameTable:
    def test_lazy_decode_and_cache(self):
        offsets = np.array([0, 3, 3, 9], dtype=np.int64)
        blob = np.frombuffer("foobarbaz".encode()[:9], dtype=np.uint8).copy()
        table = SharedNameTable(offsets, blob)
        assert len(table) == 3
        assert table[0] == "foo"
        assert table[1] == ""
        assert table[2] == "barbaz"
        assert table[-1] == "barbaz"
        with pytest.raises(IndexError):
            table[3]

    def test_release_keeps_decoded_entries(self):
        offsets = np.array([0, 2], dtype=np.int64)
        blob = np.frombuffer(b"hi", dtype=np.uint8).copy()
        table = SharedNameTable(offsets, blob)
        assert table[0] == "hi"
        table.release()
        assert table[0] == "hi"  # served from the memo cache


class TestSnapshotGraphView:
    def test_reader_surface_matches_live_graph(self, frozen_view):
        graph, view = frozen_view
        assert view.node_count == graph.node_count
        assert view.edge_count == graph.edge_count
        assert view.version == graph.version
        assert view.node_name(2) == graph.node_name(2)
        assert view.node_id(graph.node_name(3)) == 3
        assert view.node_ids([0, 1]) == [0, 1]
        assert view.has_node(0) and not view.has_node(view.node_count)
        assert view.has_node(graph.node_name(1))
        assert not view.has_node("no-such-entity")
        assert "shared view" in view.summary()

    def test_node_resolution_errors(self, frozen_view):
        _, view = frozen_view
        with pytest.raises(NodeNotFoundError):
            view.node_id(-1)
        with pytest.raises(NodeNotFoundError):
            view.node_id("no-such-entity")
        with pytest.raises(TypeError):
            view.node_id(1.5)  # type: ignore[arg-type]

    def test_pipeline_parity_on_view(self, frozen_view):
        # The full pinned FindNC pipeline over the frozen view must equal
        # the same pipeline over the live graph.
        graph, view = frozen_view
        from repro.core.context import RandomWalkContext
        from repro.core.discrimination import MultinomialDiscriminator
        from repro.core.findnc import FindNC

        def run(g, snapshot):
            finder = FindNC(
                g,
                context_selector=RandomWalkContext(g, pin=True).warm(),
                discriminator=MultinomialDiscriminator(rng=7),
                context_size=3,
            )
            return finder.run((1, 2), snapshot=snapshot)

        frozen_result = run(view, view.compiled())
        live_result = run(graph, graph.compiled())
        assert frozen_result.query == live_result.query
        assert frozen_result.context.ranked_nodes == live_result.context.ranked_nodes
        assert [r.label for r in frozen_result.results] == [
            r.label for r in live_result.results
        ]
        assert [r.score for r in frozen_result.results] == [
            r.score for r in live_result.results
        ]


class TestFromArrays:
    def test_rejects_missing_and_mismatched_arrays(self, toy_graph):
        compiled = toy_graph.compiled()
        arrays = {k: v.copy() for k, v in compiled.arrays().items()}
        incomplete = dict(arrays)
        del incomplete["targets"]
        with pytest.raises(ValueError, match="missing"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count,
                label_count=compiled.label_count,
                arrays=incomplete,
            )
        wrong_dtype = dict(arrays)
        wrong_dtype["targets"] = wrong_dtype["targets"].astype(np.int32)
        with pytest.raises(ValueError, match="dtype"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count,
                label_count=compiled.label_count,
                arrays=wrong_dtype,
            )
        with pytest.raises(ValueError, match="length"):
            CompiledGraph.from_arrays(
                version=1,
                node_count=compiled.node_count + 1,
                label_count=compiled.label_count,
                arrays={k: v.copy() for k, v in arrays.items()},
            )

    def test_round_trips_the_compile_output(self, toy_graph):
        compiled = toy_graph.compiled()
        rebuilt = CompiledGraph.from_arrays(
            version=compiled.version,
            node_count=compiled.node_count,
            label_count=compiled.label_count,
            arrays={k: v.copy() for k, v in compiled.arrays().items()},
        )
        assert rebuilt.edge_count == compiled.edge_count
        assert np.array_equal(rebuilt.indptr, compiled.indptr)
        assert rebuilt.covers(range(compiled.node_count))


class TestSharedTransition:
    """The frozen PPR transition CSR travels in the snapshot file."""

    def test_transition_blocks_round_trip(self, frozen_view):
        from repro.graph.matrix import transition_from_snapshot

        graph, view = frozen_view
        expected = transition_from_snapshot(graph.compiled())
        attached = open_snapshot(view._attached.header.path)
        try:
            stored = attached.transition()
            assert stored is not None
            assert stored.shape == expected.shape
            assert (stored != expected).nnz == 0
            assert attached.transition() is stored  # memoized
        finally:
            attached.close()

    def test_transition_absent_by_default(self, fig1_graph, tmp_path):
        compiled = fig1_graph.compiled()
        path = tmp_path / "bare.snap"
        save_snapshot(
            compiled,
            fig1_graph._node_names_list(),
            _label_names(fig1_graph, compiled),
            path,
        )
        with open_snapshot(path) as attached:
            assert attached.transition() is None

    def test_layout_rejects_mismatched_transition(self, fig1_graph):
        from scipy import sparse

        compiled = fig1_graph.compiled()
        wrong = sparse.csr_matrix((2, 2), dtype=np.float64)
        with pytest.raises(ValueError, match="transition matrix shape"):
            snapshot_blocks(
                compiled,
                fig1_graph._node_names_list(),
                _label_names(fig1_graph, compiled),
                transition=wrong,
            )

    def test_engine_publishes_transition_and_workers_adopt(self, fig1_graph):
        """Process-mode pins name a file that carries the CSR triple; a
        worker-side adopt reproduces the warm build exactly (pinned by
        result parity in tests/test_service_workers.py; here we check the
        plumbing)."""
        from repro.service.engine import EngineConfig, NCEngine

        with NCEngine(
            fig1_graph,
            config=EngineConfig(executor="process", max_workers=1),
        ) as engine:
            state = engine.pin()
            with _attach_header(state.header) as attached:
                assert attached.transition() is not None


#: Freeze, keep an array and a name, close, then read what was kept. The
#: frozen file is found by globbing /dev/shm for the probe's own pid, so
#: a concurrent test run on the same host cannot disturb the listing.
KEPT_ARRAY_PROBE = """
import glob
import os

import numpy as np

from repro.datasets.figure1 import figure1_graph
from repro.disk import freeze_graph

MINE = f"/dev/shm/repro-snap-v*-{os.getpid()}-*.snap"
before = set(glob.glob(MINE))
view = freeze_graph(figure1_graph())
created = set(glob.glob(MINE)) - before
assert len(created) == 1, created
targets = view.compiled().targets
name = view.node_name(3)
expected = targets.copy()
view.close()
assert not created & set(glob.glob(MINE)), "file left behind"
assert np.array_equal(targets, expected)
assert name == figure1_graph().node_name(3)
print(int(targets.sum()))
"""


class TestFreezeGraph:
    def test_frozen_view_owns_its_file(self, fig1_graph):
        from repro.graph.matrix import transition_from_snapshot

        view = freeze_graph(fig1_graph)
        path = view._attached.header.path
        assert os.path.basename(path).startswith(
            f"repro-snap-v{fig1_graph.version}-{os.getpid()}-"
        )
        assert path.endswith(".snap")
        assert os.path.exists(path)
        assert view.frozen and view.version == fig1_graph.version
        expected = transition_from_snapshot(fig1_graph.compiled())
        assert (view._attached.transition() != expected).nnz == 0
        fig1_graph.add_edge("Angela_Merkel", "ownsPet", "Dog")
        assert view.version != fig1_graph.version  # frozen at the call
        view.close()
        assert not os.path.exists(path)
        view.close()  # idempotent

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_kept_arrays_outlive_close(self):
        """Arrays taken from a frozen view stay readable after its close
        unlinked the file: numpy's memmap views keep the mapping alive.

        Run in a subprocess: a view over memory unmapped by ``close()``
        would kill the interpreter (SIGSEGV) instead of failing an assert.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", KEPT_ARRAY_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        from repro.datasets.figure1 import figure1_graph

        assert int(result.stdout) == int(figure1_graph().compiled().targets.sum())

    def test_unclosed_view_unlinks_its_file_at_exit(self):
        """A frozen view nobody closed still removes its file when the
        interpreter exits."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "from repro.datasets.figure1 import figure1_graph\n"
            "from repro.disk import freeze_graph\n"
            "view = freeze_graph(figure1_graph())\n"
            "print(view._attached.header.path)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        path = result.stdout.strip()
        assert os.path.basename(path).startswith("repro-snap-v")
        assert not os.path.exists(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_next_freeze_removes_a_killed_writers_file(self, fig1_graph):
        """A writer killed with ``SIGKILL`` cannot unlink its frozen file:
        the next freeze removes it, and keeps the files of live writers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import time\n"
            "from repro.datasets.figure1 import figure1_graph\n"
            "from repro.disk import freeze_graph\n"
            "view = freeze_graph(figure1_graph())\n"
            "print(view._attached.header.path, flush=True)\n"
            "time.sleep(120)\n"
        )
        writer = subprocess.Popen(
            [sys.executable, "-c", probe],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            orphan = writer.stdout.readline().strip()
        finally:
            writer.kill()
            writer.wait(timeout=30)
            writer.stdout.close()
        assert f"-{writer.pid}-" in os.path.basename(orphan)
        assert os.path.exists(orphan)
        own = freeze_graph(fig1_graph)
        try:
            assert not os.path.exists(orphan)
            later = freeze_graph(fig1_graph)
            assert os.path.exists(own._attached.header.path)  # writer alive
            later.close()
        finally:
            own.close()

    def test_falls_back_to_the_temp_directory(self, fig1_graph, tmp_path, monkeypatch):
        monkeypatch.setattr(store, "_FREEZE_DIR", str(tmp_path / "no-such-tmpfs"))
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        view = freeze_graph(fig1_graph)
        path = view._attached.header.path
        assert os.path.dirname(path) == str(tmp_path)
        view.close()
        assert not os.path.exists(path)

    def test_only_a_frozen_view_unlinks_its_file(self, fig1_graph, tmp_path):
        from repro.service.engine import EngineConfig, NCEngine

        path = tmp_path / "served.snap"
        save_graph_snapshot(fig1_graph, path)
        open_snapshot_view(path).close()
        assert path.exists()

        registry = SnapshotRegistry(tmp_path / "registry")
        registry.publish_graph(fig1_graph)
        registry.publish_graph(fig1_graph)
        first = registry.entry_for(1).path
        with NCEngine(registry.open_view(1), config=EngineConfig()) as engine:
            engine.search(["Angela_Merkel"])
            assert engine.swap_snapshot(registry.open_view(2)).swapped
            assert engine.stats().drained_versions == (1,)
        assert os.path.exists(first)

        view = freeze_graph(fig1_graph)
        frozen_path = view._attached.header.path
        view.close()
        assert not os.path.exists(frozen_path)
