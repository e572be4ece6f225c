"""Multi-version hot-swap serving: swap-under-traffic on both backends.

The acceptance properties of PR 5's tentpole: an engine serving version
*v1* of a registry can :meth:`~repro.service.engine.NCEngine.swap_snapshot`
onto *v2* while concurrent clients keep querying —

* no request fails or is dropped across the swap, on the thread **and**
  process backends;
* post-swap requests are served at the new version and the old version's
  cache entries become unreachable (version-keyed cache);
* the old pin (view mapping, process-mode publication) is retired after
  its last in-flight request completes — observed as the version
  landing in ``stats().drained_versions`` and, in process mode, the
  worker pool's parked-segment gauge returning to zero.

The HTTP face (``POST /v1/admin/reload``) and the manifest poller are
covered at the bottom.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry
from repro.graph.model import KnowledgeGraph
from repro.service import faults
from repro.service.engine import EngineConfig, NCEngine
from repro.service.server import RegistryPoller, create_server

QUERY = ["Angela_Merkel", "Barack_Obama"]
CONFIG = EngineConfig(context_size=3, max_workers=2, seed=5)


@pytest.fixture()
def registry(tmp_path):
    """A registry with two content-identical versions of figure 1."""
    registry = SnapshotRegistry(tmp_path / "serving")
    graph = figure1_graph()
    registry.publish_graph(graph)
    registry.publish_graph(graph)
    return registry


def _wait_drained(engine, version, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if version in engine.stats().drained_versions:
            return True
        time.sleep(0.02)
    return False


def _reversed_vocabulary(graph):
    """``graph``'s edges with node and label ids interned in reverse order."""
    reversed_graph = KnowledgeGraph(graph.name)
    for name in reversed(list(graph.node_names())):
        reversed_graph.add_node(name)
    for edge in reversed(list(graph.edges())):
        reversed_graph.add_edge(
            graph.node_name(edge.source),
            edge.label,
            graph.node_name(edge.target),
            add_inverse=False,
        )
    return reversed_graph


def _answer(result):
    """The labels, scores and p-values of a FindNC result, in rank order."""
    return [
        (r.label, r.score, r.inst_p_value, r.card_p_value) for r in result.results
    ]


def _swap_under_traffic(engine, registry, *, clients=3, settle_s=0.15):
    """Hammer ``engine`` from ``clients`` threads across a v1 -> v2 swap.

    Returns ``(errors, served)``; asserts nothing itself so callers can
    phrase backend-specific expectations.
    """
    stop = threading.Event()
    barrier = threading.Barrier(clients + 1)
    errors, served = [], [0] * clients

    def client(slot):
        try:
            barrier.wait()
            while not stop.is_set():
                engine.request(QUERY)
                engine.request(["Vladimir_Putin"])
                served[slot] += 2
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(settle_s)
    outcome = engine.swap_snapshot(registry.open_view(2))
    time.sleep(settle_s)
    stop.set()
    for thread in threads:
        thread.join()
    return outcome, errors, sum(served)


class TestSwapThreadBackend:
    def test_swap_under_traffic_no_failures(self, registry):
        with NCEngine(
            registry.open_view(1),
            config=EngineConfig(context_size=3, max_workers=4, seed=5),
        ) as engine:
            engine.pin()
            outcome, errors, served = _swap_under_traffic(engine, registry)
            assert errors == []
            assert served > 0
            assert outcome.swapped and (outcome.old_version, outcome.new_version) == (1, 2)
            # post-swap requests compute/serve at v2
            assert engine.request(QUERY).graph_version == 2
            # the drained pin retires after its last in-flight completes
            assert _wait_drained(engine, 1)
            assert engine.stats().draining_versions == ()

    def test_old_version_cache_entries_unreachable(self, registry):
        with NCEngine(registry.open_view(1), config=CONFIG) as engine:
            engine.pin()
            first = engine.request(QUERY)
            assert not first.cached and first.graph_version == 1
            assert engine.request(QUERY).cached  # v1 entry is live
            engine.swap_snapshot(registry.open_view(2))
            after = engine.request(QUERY)
            assert after.graph_version == 2
            assert not after.cached  # the v1 entry was unreachable (and purged)
            assert engine.cache.stats().purged > 0
            assert engine.request(QUERY).cached  # the v2 entry now is

    def test_swap_results_match_fresh_engine_on_new_version(self, registry):
        with NCEngine(registry.open_view(1), config=CONFIG) as swapped:
            swapped.pin()
            swapped.request(QUERY)
            swapped.swap_snapshot(registry.open_view(2))
            ours = swapped.request(QUERY).result
        with NCEngine(registry.open_view(2), config=CONFIG) as fresh:
            theirs = fresh.request(QUERY).result
        assert [(i.label, i.score) for i in ours.results] == [
            (i.label, i.score) for i in theirs.results
        ]
        assert ours.notable_labels() == theirs.notable_labels()

    def test_in_flight_request_answers_from_its_own_version(self, tmp_path):
        """A request in flight across a swap reads only the view it pinned.

        v2 holds the same edges as v1 with node and label ids interned in
        reverse order, so any read of v2's tables with v1's ids (names,
        label names) changes the answer.
        """
        registry = SnapshotRegistry(tmp_path / "serving")
        graph = figure1_graph()
        registry.publish_graph(graph)
        registry.publish_graph(_reversed_vocabulary(graph))
        with NCEngine(registry.open_view(1), config=CONFIG) as fresh:
            expected = _answer(fresh.search(QUERY, context_size=3))
        injector = faults.parse_spec("engine.slow=1:0.5:1")
        faults.set_injector(injector)
        try:
            with NCEngine(registry.open_view(1), config=CONFIG) as engine:
                engine.pin()
                answers = []
                search = threading.Thread(
                    target=lambda: answers.append(
                        engine.search(QUERY, context_size=3)
                    )
                )
                search.start()
                deadline = time.monotonic() + 10.0
                while not injector.fired("engine.slow"):
                    assert time.monotonic() < deadline, "search never started"
                    time.sleep(0.005)
                assert engine.swap_snapshot(registry.open_view(2)).swapped
                search.join(timeout=30)
        finally:
            faults.reset()
        assert len(answers) == 1
        assert _answer(answers[0]) == expected

    def test_swap_accepts_a_path(self, registry):
        with NCEngine(registry.open_view(1), config=CONFIG) as engine:
            engine.pin()
            outcome = engine.swap_snapshot(registry.entry_for(2).path)
            assert outcome.swapped and engine.graph.version == 2

    def test_swap_same_version_is_a_noop(self, registry):
        with NCEngine(registry.open_view(1), config=CONFIG) as engine:
            engine.pin()
            view = registry.open_view(1)
            try:
                outcome = engine.swap_snapshot(view)
                assert not outcome.swapped
                assert engine.stats().swaps == 0
            finally:
                view.close()  # rejected views stay caller-owned

    def test_swap_backwards_raises(self, registry):
        with NCEngine(registry.open_view(2), config=CONFIG) as engine:
            engine.pin()
            view = registry.open_view(1)
            try:
                with pytest.raises(ValueError, match="monotonic"):
                    engine.swap_snapshot(view)
            finally:
                view.close()

    def test_swap_requires_a_frozen_view(self, registry):
        with NCEngine(
            registry.open_view(1),
            config=EngineConfig(context_size=3, max_workers=2),
        ) as engine:
            with pytest.raises(ValueError, match="frozen snapshot view"):
                engine.swap_snapshot(figure1_graph())


class TestSwapProcessBackend:
    pytestmark = pytest.mark.slow

    def test_swap_under_traffic_no_failures(self, registry):
        with NCEngine(
            registry.open_view(1),
            config=EngineConfig(
                context_size=3,
                max_workers=2,
                executor="process",
                seed=5,
            ),
        ) as engine:
            engine.pin()
            engine.request(QUERY)  # workers attach the v1 file
            outcome, errors, served = _swap_under_traffic(engine, registry)
            assert errors == []
            assert served > 0
            assert outcome.swapped
            # workers re-attach and answer at v2
            after = engine.request(["Vladimir_Putin", "Angela_Merkel"])
            assert after.graph_version == 2
            assert _wait_drained(engine, 1)

    def test_process_swap_parity_with_thread_swap(self, registry):
        def serve_swapped(executor):
            with NCEngine(
                registry.open_view(1),
                config=EngineConfig(
                    context_size=3,
                    max_workers=2,
                    executor=executor,
                    seed=5,
                ),
            ) as engine:
                engine.pin()
                engine.request(QUERY)
                engine.swap_snapshot(registry.open_view(2))
                return engine.request(QUERY).result

        thread_result = serve_swapped("thread")
        process_result = serve_swapped("process")
        assert [(i.label, i.score) for i in thread_result.results] == [
            (i.label, i.score) for i in process_result.results
        ]


class TestAdminReload:
    @pytest.fixture()
    def service(self, registry):
        """A live server on v1 with the registry wired for reloads."""
        engine = NCEngine(registry.open_view(1), config=CONFIG)
        engine.pin()
        server = create_server(engine, port=0, registry=registry, retain=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, engine
        server.shutdown()
        server.server_close()
        engine.close()

    def _post(self, server, path):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=b"", method="POST"
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def _get(self, server, path):
        port = server.server_address[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}"
        ) as response:
            return response.status, json.loads(response.read())

    def test_reload_swaps_to_latest(self, service):
        server, engine = service
        status, body = self._post(server, "/v1/admin/reload")
        assert status == 200
        assert body == {
            "swapped": True,
            "old_version": 1,
            "new_version": 2,
            "file": "v000002.snap",
        }
        _, health = self._get(server, "/v1/healthz")
        assert health["graph_version"] == 2
        _, stats = self._get(server, "/v1/stats")
        assert stats["swaps"] == 1

    def test_reload_is_idempotent(self, service):
        server, _ = service
        self._post(server, "/v1/admin/reload")
        status, body = self._post(server, "/v1/admin/reload")
        assert status == 200
        assert body["swapped"] is False

    def test_reload_without_registry_is_a_client_error(self):
        engine = NCEngine(
            figure1_graph(),
            config=EngineConfig(context_size=3, max_workers=2),
        )
        server = create_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server, "/v1/admin/reload")
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_reload_sees_versions_published_by_another_process(
        self, service, registry
    ):
        server, engine = service
        self._post(server, "/v1/admin/reload")  # -> v2
        publisher = SnapshotRegistry(registry.directory)  # separate handle
        publisher.publish_graph(figure1_graph())  # -> v3
        status, body = self._post(server, "/v1/admin/reload")
        assert status == 200
        assert body["swapped"] and body["new_version"] == 3

    def test_reload_gc_respects_retain_and_draining(self, service, registry):
        server, engine = service
        self._post(server, "/v1/admin/reload")  # v1 -> v2
        assert _wait_drained(engine, 1)
        publisher = SnapshotRegistry(registry.directory)
        publisher.publish_graph(figure1_graph())  # v3
        self._post(server, "/v1/admin/reload")  # v2 -> v3, then gc(retain=2)
        registry.refresh()
        versions = [entry.version for entry in registry.versions()]
        assert 3 in versions and 1 not in versions


class TestRegistryPoller:
    def test_poller_swaps_when_the_manifest_moves(self, registry):
        engine = NCEngine(registry.open_view(2), config=CONFIG)
        engine.pin()
        poller = RegistryPoller(engine, registry, interval=0.05)
        poller.start()
        try:
            publisher = SnapshotRegistry(registry.directory)
            publisher.publish_graph(figure1_graph())  # -> v3
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and engine.graph.version != 3:
                time.sleep(0.02)
            assert engine.graph.version == 3
            assert engine.stats().swaps == 1
        finally:
            poller.stop()
            engine.close()

    def test_poller_rejects_nonpositive_interval(self, registry):
        engine = NCEngine(registry.open_view(1), config=EngineConfig(context_size=3))
        try:
            with pytest.raises(ValueError):
                RegistryPoller(engine, registry, interval=0)
        finally:
            engine.close()


class TestReviewRegressions:
    """Edge cases surfaced in review: rejection-path leaks, retain guard."""

    def test_swap_same_version_path_closes_internal_view(self, registry):
        """A path-argument no-op must close the view the engine opened."""
        with NCEngine(registry.open_view(2), config=CONFIG) as engine:
            engine.pin()
            outcome = engine.swap_snapshot(registry.entry_for(2).path)
            assert not outcome.swapped
            # the internally opened view was closed: its file can be
            # reopened and served immediately (no dangling ownership)
            view = registry.open_view(2)
            view.close()

    def test_swap_backwards_path_closes_internal_view(self, registry):
        with NCEngine(registry.open_view(2), config=CONFIG) as engine:
            engine.pin()
            with pytest.raises(ValueError, match="monotonic"):
                engine.swap_snapshot(registry.entry_for(1).path)

    def test_reload_with_bad_retain_still_swaps(self, registry):
        """A misconfigured retain must not turn a good swap into a 500."""
        from repro.service.server import reload_from_registry

        engine = NCEngine(registry.open_view(1), config=CONFIG)
        try:
            engine.pin()
            outcome = reload_from_registry(engine, registry, retain=0)
            assert outcome["swapped"] and outcome["new_version"] == 2
            assert engine.graph.version == 2
            registry.refresh()  # nothing was GC'd
            assert [e.version for e in registry.versions()] == [1, 2]
        finally:
            engine.close()

    def test_gc_preserves_rows_published_by_another_handle(self, registry):
        """gc re-reads the manifest under the writer lock before rewriting."""
        stale = SnapshotRegistry(registry.directory)  # snapshot of v1..v2
        publisher = SnapshotRegistry(registry.directory)
        publisher.publish_graph(figure1_graph())  # -> v3, unseen by `stale`
        removed = stale.gc(retain=2)
        assert [e.version for e in removed] == [1]
        registry.refresh()
        assert [e.version for e in registry.versions()] == [2, 3]

    def test_poller_retries_after_a_failed_reload(self, registry, tmp_path):
        """A transient reload failure must not freeze the mtime token."""
        engine = NCEngine(registry.open_view(2), config=CONFIG)
        poller = RegistryPoller(engine, registry, interval=0.05)
        fail_once = {"count": 0}
        real_refresh = registry.refresh

        def flaky_refresh():
            if fail_once["count"] == 0:
                fail_once["count"] += 1
                raise OSError("transient manifest read failure")
            real_refresh()

        registry.refresh = flaky_refresh
        poller.start()
        try:
            SnapshotRegistry(registry.directory).publish_graph(figure1_graph())
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and engine.graph.version != 3:
                time.sleep(0.02)
            assert engine.graph.version == 3  # retried past the failure
            assert fail_once["count"] == 1
        finally:
            poller.stop()
            engine.close()
