"""Tests for the multi-version snapshot registry (:mod:`repro.disk.registry`)."""

import json
import os

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import (
    RegistryError,
    SnapshotRegistry,
    inspect_snapshot,
    is_snapshot_file,
    open_snapshot,
    save_graph_snapshot,
)
from repro.disk.registry import MANIFEST_NAME
from repro.graph.io import save_graph


@pytest.fixture()
def graph():
    return figure1_graph()


@pytest.fixture()
def registry(tmp_path):
    return SnapshotRegistry(tmp_path / "serving")


class TestPublish:
    def test_versions_are_monotonic(self, registry, graph):
        first = registry.publish_graph(graph)
        second = registry.publish_graph(graph)
        assert (first.version, second.version) == (1, 2)
        assert registry.latest().version == 2
        assert [e.version for e in registry.versions()] == [1, 2]

    def test_version_is_stamped_into_the_file(self, registry, graph):
        entry = registry.publish_graph(graph)
        second = registry.publish_graph(graph)
        with open_snapshot(entry.path) as snap:
            assert snap.header.version == entry.version
        with open_snapshot(second.path) as snap:
            assert snap.header.version == second.version

    def test_manifest_row_matches_the_graph(self, registry, graph):
        entry = registry.publish_graph(graph)
        assert entry.nodes == graph.node_count
        assert entry.edges == graph.edge_count
        assert entry.graph_name == graph.name
        assert entry.bytes == os.path.getsize(entry.path)
        assert os.path.basename(entry.path) == entry.file == "v000001.snap"

    def test_publish_existing_snapshot_file_restamps_version(
        self, registry, graph, tmp_path
    ):
        plain = tmp_path / "plain.snap"
        save_graph_snapshot(graph, plain)
        assert is_snapshot_file(plain)
        entry = registry.publish(plain)
        assert entry.version == 1
        with open_snapshot(entry.path) as snap:
            assert snap.header.version == 1
            assert snap.compiled.edge_count == graph.edge_count
            assert snap.transition() is not None  # blocks carried over

    def test_publish_dump_streams_through_the_ingester(
        self, registry, graph, tmp_path
    ):
        dump = tmp_path / "graph.nt"
        save_graph(graph, dump)
        entry = registry.publish(dump)
        assert entry.version == 1
        assert entry.nodes == graph.node_count
        assert entry.edges == graph.edge_count
        with open_snapshot(entry.path) as snap:
            assert snap.header.version == 1

    def test_publish_missing_source_raises(self, registry, tmp_path):
        with pytest.raises(RegistryError, match="does not exist"):
            registry.publish(tmp_path / "nope.nt")

    def test_registry_round_trips_identical_results(self, registry, graph):
        """A published version serves exactly what the live graph serves."""
        from repro.service.engine import EngineConfig, NCEngine

        entry = registry.publish_graph(graph)
        view = registry.open_view(entry.version)
        with NCEngine(
            graph,
            config=EngineConfig(context_size=3, seed=7),
        ) as live_engine, NCEngine(
            view,
            config=EngineConfig(context_size=3, seed=7),
        ) as served_engine:
            live = live_engine.search([1, 2])
            served = served_engine.search([1, 2])
        assert [(i.label, i.score) for i in live.results] == [
            (i.label, i.score) for i in served.results
        ]


class TestManifest:
    def test_reload_from_disk(self, registry, graph, tmp_path):
        registry.publish_graph(graph)
        registry.publish_graph(graph)
        reloaded = SnapshotRegistry(registry.directory, create=False)
        assert [e.version for e in reloaded.versions()] == [1, 2]
        assert reloaded.next_version() == 3

    def test_orphan_file_never_reuses_its_id(self, registry, graph):
        """A crash between file write and manifest write must not collide."""
        entry = registry.publish_graph(graph)
        # Simulate the crash: file v2 exists but the manifest never saw it.
        orphan = os.path.join(registry.directory, "v000002.snap")
        save_graph_snapshot(graph, orphan)
        assert registry.next_version() == 3
        new = registry.publish_graph(graph)
        assert new.version == 3
        assert entry.version == 1

    def test_corrupt_manifest_raises(self, registry, graph):
        registry.publish_graph(graph)
        with open(registry.manifest_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(RegistryError, match="unreadable manifest"):
            SnapshotRegistry(registry.directory)

    def test_unsupported_manifest_format_raises(self, registry, graph):
        registry.publish_graph(graph)
        with open(registry.manifest_path, "w", encoding="utf-8") as handle:
            json.dump({"format": 99, "versions": []}, handle)
        with pytest.raises(RegistryError, match="unsupported manifest format"):
            SnapshotRegistry(registry.directory)

    def test_mtime_token_moves_on_publish(self, registry, graph):
        empty = registry.mtime_token()
        assert empty == (0, 0)
        registry.publish_graph(graph)
        first = registry.mtime_token()
        assert first != empty

    def test_empty_open_view_raises(self, registry):
        with pytest.raises(RegistryError, match="empty"):
            registry.open_view()


class TestGC:
    def test_retention_keeps_newest(self, registry, graph):
        for _ in range(4):
            registry.publish_graph(graph)
        removed = registry.gc(retain=2)
        assert [e.version for e in removed] == [1, 2]
        assert [e.version for e in registry.versions()] == [3, 4]
        assert sorted(
            name for name in os.listdir(registry.directory) if name.endswith(".snap")
        ) == ["v000003.snap", "v000004.snap"]

    def test_keep_protects_draining_versions(self, registry, graph):
        for _ in range(3):
            registry.publish_graph(graph)
        removed = registry.gc(retain=1, keep={1})
        assert [e.version for e in removed] == [2]
        assert [e.version for e in registry.versions()] == [1, 3]

    def test_gc_never_renumbers(self, registry, graph):
        for _ in range(3):
            registry.publish_graph(graph)
        registry.gc(retain=1)
        assert registry.next_version() == 4

    def test_retain_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            registry.gc(retain=0)


class TestDeltaChainGC:
    """Regression: GC must treat delta-chain bases as retained roots."""

    @staticmethod
    def _chain(registry, graph, merges):
        registry.publish_graph(graph)
        entries = []
        for index in range(merges):
            registry.append_delta(
                [("+", (f"delta_n{index}", "delta_rel", f"delta_m{index}"))]
            )
            entries.append(registry.merge_pending())
        return entries

    @staticmethod
    def _delta_files(registry):
        return sorted(
            name
            for name in os.listdir(registry.directory)
            if name.endswith(".delta")
        )

    def test_gc_keeps_the_chain_base_alive(self, registry, graph):
        """retain=1 keeps the v3 tip, its v1 base, and every run file."""
        self._chain(registry, graph, merges=2)
        removed = registry.gc(retain=1)
        assert [e.version for e in removed] == [2]
        assert [e.version for e in registry.versions()] == [1, 3]
        assert os.path.exists(
            os.path.join(registry.directory, "v000001.snap")
        )
        assert self._delta_files(registry) == [
            "v000001-d0000.delta",
            "v000001-d0001.delta",
        ]
        # The surviving chain still opens end to end.
        view = registry.open_view()
        view.close()

    def test_gc_keeps_run_files_of_the_active_chain(self, registry, graph):
        """Pending (not yet merged) runs survive GC with their base."""
        registry.publish_graph(graph)
        registry.publish_graph(graph)
        registry.append_delta([("+", ("x", "r", "y"))])
        registry.gc(retain=1)
        assert [e.version for e in registry.versions()] == [2]
        assert self._delta_files(registry) == ["v000002-d0000.delta"]
        assert len(registry.pending_runs()) == 1

    def test_compaction_releases_base_and_runs(self, registry, graph):
        """After compact, nothing anchors the old chain: GC drops it all."""
        self._chain(registry, graph, merges=2)
        compacted = registry.compact()
        assert compacted.base is None and compacted.deltas == ()
        removed = registry.gc(retain=1)
        assert [e.version for e in removed] == [1, 2, 3]
        assert [e.version for e in registry.versions()] == [compacted.version]
        assert self._delta_files(registry) == []

    def test_chain_survives_a_registry_reload(self, registry, graph):
        """Chain provenance and pending runs round-trip the manifest."""
        [_, tip] = self._chain(registry, graph, merges=2)
        registry.append_delta([("+", ("late_n", "delta_rel", "late_m"))])
        reloaded = SnapshotRegistry(registry.directory, create=False)
        latest = reloaded.latest()
        assert latest.version == tip.version
        assert latest.base == 1
        assert latest.deltas == tip.deltas
        assert [run.file for run in reloaded.pending_runs()] == [
            "v000001-d0002.delta"
        ]
        merged = reloaded.merge_pending()
        assert merged.base == 1
        assert len(merged.deltas) == 3


class TestInspect:
    def test_inspect_reports_the_stored_header(self, registry, graph):
        entry = registry.publish_graph(graph)
        info = inspect_snapshot(entry.path)
        assert info["version"] == entry.version
        assert info["nodes"] == graph.node_count
        assert info["edges"] == graph.edge_count
        assert info["labels"] == entry.labels
        assert info["has_transition"] is True
        assert info["file_bytes"] == entry.bytes
        assert info["node_name_table_bytes"] > 0
        block_names = {block["name"] for block in info["blocks"]}
        assert "indptr" in block_names and "transition_data" in block_names

    def test_inspect_without_transition(self, registry, graph):
        entry = registry.publish_graph(graph, include_transition=False)
        info = inspect_snapshot(entry.path)
        assert info["has_transition"] is False

    def test_is_snapshot_file_rejects_other_files(self, registry, graph):
        registry.publish_graph(graph)
        assert not is_snapshot_file(os.path.join(registry.directory, MANIFEST_NAME))
        assert not is_snapshot_file(os.path.join(registry.directory, "absent"))
