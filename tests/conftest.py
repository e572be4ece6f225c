"""Shared fixtures for the unit/integration test suite."""

from __future__ import annotations

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.datasets.loader import load_dataset
from repro.graph.builder import GraphBuilder
from repro.disk import freeze_graph


def pytest_addoption(parser: pytest.Parser) -> None:
    """Opt-in switches for the test tiers excluded from tier-1 runs.

    ``slow``/``chaos`` marked cases are subprocess-heavy (worker pools,
    crash storms, HTTP servers); a plain ``pytest -x -q`` skips them to
    keep the tier-1 wall clock bounded, and CI's dedicated steps re-enable
    them explicitly. Options (rather than ``-m`` expressions) survive any
    ``-m`` filter the caller adds.
    """
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow",
    )
    parser.addoption(
        "--run-chaos",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.chaos",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: "list[pytest.Item]"
) -> None:
    skip_slow = pytest.mark.skip(reason="slow tier: pass --run-slow to enable")
    skip_chaos = pytest.mark.skip(reason="chaos tier: pass --run-chaos to enable")
    run_slow = config.getoption("--run-slow")
    run_chaos = config.getoption("--run-chaos")
    for item in items:
        if not run_slow and "slow" in item.keywords:
            item.add_marker(skip_slow)
        if not run_chaos and "chaos" in item.keywords:
            item.add_marker(skip_chaos)


@pytest.fixture()
def toy_graph():
    """A small hand-built leaders graph used across unit tests."""
    return (
        GraphBuilder("toy")
        .typed("Merkel", "politician")
        .typed("Obama", "politician")
        .typed("Putin", "politician")
        .typed("Pitt", "actor")
        .fact("Merkel", "leaderOf", "Germany")
        .fact("Obama", "leaderOf", "USA")
        .fact("Putin", "leaderOf", "Russia")
        .fact("Merkel", "studied", "Physics")
        .fact("Obama", "studied", "Law")
        .fact("Putin", "studied", "Law")
        .fact("Obama", "hasChild", "Malia")
        .fact("Obama", "hasChild", "Natasha")
        .fact("Putin", "hasChild", "Mariya")
        .fact("Pitt", "actedIn", "Troy")
        .subclass("politician", "person")
        .subclass("actor", "person")
        .build()
    )


@pytest.fixture(scope="session")
def fig1_graph():
    return figure1_graph()


@pytest.fixture(scope="session")
def yago_small():
    """Synthetic YAGO at scale 1 (about 2.2k nodes) — session-shared.

    Tests must treat it as read-only; anything mutating builds its own
    graph.
    """
    return load_dataset("yago", scale=1.0)


@pytest.fixture(scope="session")
def linkedmdb_small():
    return load_dataset("linkedmdb", scale=1.0)


@pytest.fixture()
def frozen():
    """Freeze graphs for process workers: ``frozen(graph)`` -> header.

    Each call writes ``graph`` to a tmpfs snapshot file
    (:func:`~repro.disk.freeze_graph`) and returns the
    :class:`~repro.disk.DiskSnapshotHeader` workers open it by. Every
    frozen view is closed at teardown, which unlinks its file.
    """
    views = []

    def freeze(graph):
        view = freeze_graph(graph)
        views.append(view)
        return view._attached.header

    yield freeze
    for view in views:
        view.close()
