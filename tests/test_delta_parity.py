"""Incremental-vs-rebuild differential suite for the delta ingest path.

The tentpole guarantee of the live write path: folding delta runs into
an existing snapshot with :meth:`StreamingCompiler.merge_delta` must be
**byte-identical** — all eight CSR arrays, the name tables, and the
frozen transition — to a full recompile of the final statement set with
the chain's accumulated vocabulary pre-interned. The oracle here
replays the chain independently (a dict of inversion classes plus a
first-mention vocabulary model), so any divergence in dedup, ordering,
vocab interning, or weight recomputation fails the comparison.

Chaos cases (``--run-chaos``) drive the ``delta.append`` and
``registry.compact`` fault points: a crash mid-append or
mid-compaction may orphan files but must never leave the manifest
referencing a torn one, and a registry-backed server must keep
answering from the old version.
"""

import json
import os
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.figure1 import figure1_graph
from repro.disk import (
    DeltaLog,
    DeltaLogError,
    RegistryError,
    SnapshotRegistry,
    canonicalize_ops,
    inspect_delta_run,
    merge_snapshot_file,
    open_snapshot,
    read_delta_run,
    write_delta_run,
)
from repro.disk.delta import _class_key
from repro.disk.ingest import StreamingCompiler, compile_triples, ingest_triples
from repro.graph.compiled import ARRAY_FIELDS
from repro.graph.labels import inverse_label
from repro.service import faults

node_names = st.sampled_from([f"n{i}" for i in range(6)])
label_names = st.sampled_from(["r", "s", "t"])
statements = st.tuples(node_names, label_names, node_names)
fact_lists = st.lists(statements, min_size=0, max_size=20)
op_lists = st.lists(
    st.tuples(st.sampled_from(["+", "-"]), statements), max_size=12
)
batch_lists = st.lists(op_lists, min_size=1, max_size=3)


def assert_byte_identical(compiled, expected):
    for name, dtype in ARRAY_FIELDS:
        actual = getattr(compiled, name)
        assert actual.dtype == dtype
        assert actual.tobytes() == getattr(expected, name).tobytes(), name
    assert compiled.node_count == expected.node_count
    assert compiled.label_count == expected.label_count


def replay_oracle(base_facts, batches):
    """Independently replay a delta chain: final statements + vocabulary.

    Models the chain as a dict of inversion classes (first orientation
    wins; removes delete the class) and the vocabulary as the base's
    interning followed by each canonical batch's adds in
    subject/object/forward-label/inverse-label first-mention order —
    the exact sequence :meth:`StreamingCompiler.add` uses. Returns
    ``(final_statements, node_names, label_names, canonical_batches)``.
    """
    _, names, labels, _ = compile_triples(base_facts)
    names = list(names)
    labels = list(labels)
    known_names = set(names)
    known_labels = set(labels)

    state = {}
    for statement in base_facts:
        state.setdefault(_class_key(*statement), statement)
    canonical_batches = []
    for ops in batches:
        adds, removes = canonicalize_ops(ops)
        canonical_batches.append((adds, removes))
        for subject, label, obj in adds:
            for name in (subject, obj):
                if name not in known_names:
                    known_names.add(name)
                    names.append(name)
            for interned in (label, inverse_label(label)):
                if interned not in known_labels:
                    known_labels.add(interned)
                    labels.append(interned)
            state.setdefault(_class_key(subject, label, obj), (subject, label, obj))
        for statement in removes:
            state.pop(_class_key(*statement), None)
    return list(state.values()), names, labels, canonical_batches


def merge_chain(base_facts, canonical_batches):
    """Fold canonical batches into the base via the incremental path."""
    compiled, names, labels, _ = compile_triples(base_facts)
    labels = list(labels)
    for adds, removes in canonical_batches:
        compiled, names, label_table, _ = StreamingCompiler.merge_delta(
            compiled, names, labels, adds, removes
        )
        labels = list(label_table)
    return compiled, names, labels


class TestIncrementalVsRebuild:
    @given(fact_lists, batch_lists)
    @settings(max_examples=40, deadline=None)
    def test_merge_chain_equals_full_recompile(self, base, batches):
        """The tentpole differential: chained merges == one recompile."""
        final, oracle_names, oracle_labels, canonical = replay_oracle(
            base, batches
        )
        compiled, names, labels = merge_chain(base, canonical)
        expected, _, _, _ = compile_triples(
            final, node_names=oracle_names, label_names=oracle_labels
        )
        assert_byte_identical(compiled, expected)
        assert names == oracle_names
        assert labels == oracle_labels

    def test_mixed_order_duplicate_add_remove(self):
        """Last op per inversion class wins; earlier churn is ignored."""
        t = ("a", "r", "b")
        adds, removes = canonicalize_ops([("+", t), ("-", t), ("+", t)])
        assert (adds, removes) == ((t,), ())
        adds, removes = canonicalize_ops([("-", t), ("+", t), ("-", t)])
        assert (adds, removes) == ((), (t,))
        # Add-then-remove nets to a REMOVE, not a no-op: "ensure absent"
        # must still delete the statement from pre-existing base state.
        compiled, _, _ = merge_chain(
            [("a", "r", "b"), ("b", "s", "c")], [((), (t,))]
        )
        expected, _, _, _ = compile_triples(
            [("b", "s", "c")], node_names=["a", "b", "c"],
            label_names=["r", "r_inv", "s", "s_inv"],
        )
        assert_byte_identical(compiled, expected)

    def test_remove_is_orientation_blind(self):
        """Removing the inverse orientation deletes both CSR directions."""
        base = [("a", "r", "c"), ("c", "s", "a")]
        final, names, labels, canonical = replay_oracle(
            base, [[("-", ("c", "r_inv", "a"))]]
        )
        assert final == [("c", "s", "a")]
        compiled, _, _ = merge_chain(base, canonical)
        expected, _, _, _ = compile_triples(
            final, node_names=names, label_names=labels
        )
        assert_byte_identical(compiled, expected)

    def test_vocab_growing_adds_intern_in_first_mention_order(self):
        base = [("a", "r", "b")]
        canonical = [canonicalize_ops([
            ("+", ("x", "t", "a")),
            ("+", ("x", "r", "y")),
        ])]
        compiled, names, labels = merge_chain(base, canonical)
        # canonicalize sorts adds, so ("x","r","y") interns first.
        assert names == ["a", "b", "x", "y"]
        assert labels == ["r", "r_inv", "t", "t_inv"]
        assert compiled.node_count == 4
        assert compiled.edge_count == 6

    def test_empty_delta_is_identity(self):
        base = [("a", "r", "b"), ("b", "s", "c")]
        compiled, names, labels = merge_chain(base, [((), ())])
        expected, exp_names, exp_labels, _ = compile_triples(base)
        assert_byte_identical(compiled, expected)
        assert names == exp_names
        assert labels == list(exp_labels)

    def test_duplicate_add_of_existing_edge_is_identity(self):
        base = [("a", "r", "b")]
        canonical = [canonicalize_ops([("+", ("a", "r", "b"))])]
        compiled, _, _ = merge_chain(base, canonical)
        expected, _, _, _ = compile_triples(base)
        assert_byte_identical(compiled, expected)

    def test_remove_unknown_statement_is_noop(self):
        """Removes never grow the vocabulary — unknown names are skipped."""
        base = [("a", "r", "b")]
        canonical = [canonicalize_ops([("-", ("ghost", "r", "phantom"))])]
        compiled, names, _ = merge_chain(base, canonical)
        expected, _, _, _ = compile_triples(base)
        assert_byte_identical(compiled, expected)
        assert names == ["a", "b"]

    def test_remove_then_readd_flipped_orientation(self):
        base = [("a", "r", "b")]
        batches = [
            [("-", ("a", "r", "b"))],
            [("+", ("b", "r_inv", "a"))],
        ]
        final, names, labels, canonical = replay_oracle(base, batches)
        compiled, out_names, _ = merge_chain(base, canonical)
        expected, _, _, _ = compile_triples(
            final, node_names=names, label_names=labels
        )
        assert_byte_identical(compiled, expected)
        assert out_names == names


class TestDeltaRunFormat:
    def test_round_trip(self, tmp_path):
        adds = (("a", "r", "b"), ("x", "t", "a"))
        removes = (("b", "s", "c"),)
        path = tmp_path / "v000001-d0000.delta"
        written = write_delta_run(adds, removes, path, base_version=1, seq=0)
        assert written == os.path.getsize(path)
        got_adds, got_removes = read_delta_run(path)
        assert (tuple(got_adds), tuple(got_removes)) == (adds, removes)
        run = inspect_delta_run(path)
        assert (run.base_version, run.seq) == (1, 0)
        assert (run.adds, run.removes) == (2, 1)
        assert run.file == "v000001-d0000.delta"

    def test_delta_log_append_and_discovery(self, tmp_path):
        log = DeltaLog(tmp_path, base_version=3)
        first = log.append([("+", ("a", "r", "b"))])
        second = log.append([("-", ("a", "r", "b"))])
        assert [run.file for run in log.runs()] == [
            "v000003-d0000.delta",
            "v000003-d0001.delta",
        ]
        assert (first.adds, first.removes) == (1, 0)
        assert (second.adds, second.removes) == (0, 1)
        assert log.next_seq() == 2

    def test_noop_batch_appends_nothing(self, tmp_path):
        log = DeltaLog(tmp_path, base_version=1)
        assert log.append([]) is None
        assert log.runs() == []

    def test_foreign_files_are_ignored(self, tmp_path):
        (tmp_path / "v000001-d0000.delta.tmp.123").write_bytes(b"torn")
        (tmp_path / "notes.txt").write_text("hi")
        log = DeltaLog(tmp_path, base_version=1)
        assert log.runs() == []
        assert log.next_seq() == 0


class TestFileLevelParity:
    def test_merge_snapshot_file_matches_full_recompile(self, tmp_path):
        """File-in/file-out parity, frozen transition included."""
        from repro.graph.matrix import transition_from_snapshot

        base = [("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a")]
        batches = [
            [("+", ("d", "r", "a")), ("-", ("b", "s", "c"))],
            [("+", ("d", "t", "e"))],
        ]
        final, names, labels, canonical = replay_oracle(base, batches)

        base_path = tmp_path / "base.snap"
        ingest_triples(base, base_path)
        out_path = tmp_path / "merged.snap"
        stats = merge_snapshot_file(
            base_path, canonical, out_path, version=9
        )
        assert stats.removed == 2  # both directions of the removed class

        expected, _, _, _ = compile_triples(
            final, node_names=names, label_names=labels, version=9
        )
        with open_snapshot(out_path) as snap:
            assert_byte_identical(snap.compiled, expected)
            assert list(snap.node_names) == names
            assert list(snap.label_table) == labels
            assert snap.header.version == 9
            stored = snap.transition()
            rebuilt = transition_from_snapshot(expected)
            assert stored.data.tobytes() == rebuilt.data.tobytes()
            assert stored.indices.tobytes() == rebuilt.indices.tobytes()
            assert stored.indptr.tobytes() == rebuilt.indptr.tobytes()

    def test_compact_output_matches_chain_tip(self, tmp_path):
        """Compaction rewrites the tip's content as a self-standing root."""
        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        registry.append_delta([("+", ("fresh_x", "fresh_rel", "fresh_y"))])
        tip = registry.merge_pending()
        assert tip.base == 1 and len(tip.deltas) == 1
        compacted = registry.compact()
        assert compacted.base is None and compacted.deltas == ()
        with open_snapshot(tip.path) as chained, open_snapshot(
            compacted.path
        ) as root:
            assert_byte_identical(root.compiled, chained.compiled)
            assert list(root.node_names) == list(chained.node_names)


@pytest.mark.slow
class TestBothExecutors:
    def test_merged_snapshot_serves_identically_on_both_backends(
        self, tmp_path
    ):
        """The merged version answers the same on thread and process."""
        from repro.service.engine import EngineConfig, NCEngine

        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        registry.append_delta(
            [("+", ("Angela_Merkel", "colleagueOf", "Barack_Obama"))]
        )
        entry = registry.merge_pending()
        query = ["Angela_Merkel", "Barack_Obama"]
        with NCEngine(
            registry.open_view(entry.version),
            config=EngineConfig(context_size=3, seed=7),
        ) as thread_engine:
            threaded = thread_engine.search(query)
        with NCEngine(
            registry.open_view(entry.version),
            config=EngineConfig(
                context_size=3,
                seed=7,
                executor="process",
                max_workers=1,
            ),
        ) as process_engine:
            processed = process_engine.search(query)
        assert [(i.label, i.score) for i in threaded.results] == [
            (i.label, i.score) for i in processed.results
        ]
        assert threaded.notable_labels() == processed.notable_labels()


@pytest.mark.chaos
class TestCrashMidIngest:
    def test_torn_append_never_reaches_the_manifest(self, tmp_path):
        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        faults.set_injector(
            faults.FaultInjector([faults.FaultRule("delta.append")])
        )
        try:
            with pytest.raises(DeltaLogError, match="fault injection"):
                registry.append_delta([("+", ("x", "r", "y"))])
        finally:
            faults.reset()
        # The torn tmp is on disk but invisible: no pending runs, the
        # manifest untouched, and the next append reuses the sequence.
        torn = [
            name
            for name in os.listdir(registry.directory)
            if ".delta.tmp." in name
        ]
        assert torn, "crash-mid-append should leave the torn tmp behind"
        assert registry.pending_runs() == []
        assert registry.latest().version == 1
        run = registry.append_delta([("+", ("x", "r", "y"))])
        assert run.file == "v000001-d0000.delta"
        entry = registry.merge_pending()
        assert entry.version == 2 and entry.deltas == (run.file,)

    def test_server_keeps_answering_from_the_old_version(self, tmp_path):
        from repro.service.engine import EngineConfig, NCEngine
        from repro.service.server import create_server

        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        engine = NCEngine(
            registry.open_view(),
            config=EngineConfig(context_size=3, max_workers=2, seed=5),
        )
        engine.pin()
        server = create_server(engine, port=0, registry=registry, retain=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            faults.set_injector(
                faults.FaultInjector([faults.FaultRule("delta.append")])
            )
            try:
                request = urllib.request.Request(
                    f"{url}/v1/admin/ingest?wait=1",
                    data=b"+ <x> <r> <y> .\n",
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as failure:
                    urllib.request.urlopen(request, timeout=30)
                assert failure.value.code == 500
                body = json.loads(failure.value.read())
                assert body["code"] == "ingest_failed"
            finally:
                faults.reset()
            # Old version still serving; healthz healthy; nothing pending.
            with urllib.request.urlopen(
                f"{url}/v1/healthz", timeout=30
            ) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            assert health["version_id"] == 1
            with urllib.request.urlopen(
                f"{url}/v1/search?query=Angela_Merkel&context_size=3",
                timeout=30,
            ) as response:
                assert response.status == 200
            # Disarmed, the same batch lands and the version advances.
            request = urllib.request.Request(
                f"{url}/v1/admin/ingest?wait=1",
                data=b"+ <x> <r> <y> .\n",
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
            assert body["accepted"] is True
            assert body["merged_version"] == 2
            with urllib.request.urlopen(
                f"{url}/v1/healthz", timeout=30
            ) as response:
                assert json.loads(response.read())["version_id"] == 2
        finally:
            server.shutdown()
            server.server_close()
            engine.close()


@pytest.mark.chaos
class TestCrashMidCompaction:
    def test_orphaned_snapshot_never_reaches_the_manifest(self, tmp_path):
        registry = SnapshotRegistry(tmp_path / "serving")
        registry.publish_graph(figure1_graph())
        registry.append_delta([("+", ("x", "r", "y"))])
        tip = registry.merge_pending()
        assert tip.version == 2 and tip.base == 1
        faults.set_injector(
            faults.FaultInjector([faults.FaultRule("registry.compact")])
        )
        try:
            with pytest.raises(RegistryError, match="fault injection"):
                registry.compact()
        finally:
            faults.reset()
        # The orphan v3 file exists but the manifest still points at the
        # chained v2 tip; a fresh registry instance loads cleanly and
        # every manifest row references a real file.
        assert os.path.exists(os.path.join(registry.directory, "v000003.snap"))
        reloaded = SnapshotRegistry(registry.directory, create=False)
        assert reloaded.latest().version == 2
        assert reloaded.latest().deltas == tip.deltas
        for entry in reloaded.versions():
            assert os.path.exists(entry.path), entry.file
        view = reloaded.open_view()
        view.close()
        # Recovery: the retry skips the orphaned id and compacts as v4.
        compacted = reloaded.compact()
        assert compacted.version == 4
        assert compacted.base is None and compacted.deltas == ()
