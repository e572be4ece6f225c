"""Tests for the fault-injection harness and its serving-stack hook sites."""

from __future__ import annotations

import time

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.disk import SnapshotRegistry, open_snapshot, save_graph_snapshot
from repro.disk.registry import RegistryError
from repro.service import faults


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    """Every test starts and ends with no faults armed."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestFaultRule:
    def test_defaults(self):
        rule = faults.FaultRule("worker.crash")
        assert rule.probability == 1.0
        assert rule.delay_s == 0.0
        assert rule.limit is None

    def test_unknown_point_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="unknown fault point"):
            faults.FaultRule("worker.typo")

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_out_of_range_rejected(self, probability):
        with pytest.raises(faults.FaultSpecError, match="probability"):
            faults.FaultRule("worker.crash", probability=probability)

    def test_negative_delay_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="delay"):
            faults.FaultRule("worker.slow", delay_s=-1.0)

    def test_negative_limit_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="limit"):
            faults.FaultRule("worker.crash", limit=-1)


class TestParseSpec:
    def test_full_grammar(self):
        injector = faults.parse_spec("worker.crash=0.25:1.5:10, worker.slow=1")
        rules = {rule.point: rule for rule in injector.rules()}
        assert rules["worker.crash"] == faults.FaultRule(
            "worker.crash", probability=0.25, delay_s=1.5, limit=10
        )
        assert rules["worker.slow"] == faults.FaultRule("worker.slow")

    def test_empty_fields_take_defaults(self):
        (rule,) = faults.parse_spec("worker.slow=:2.5:").rules()
        assert rule == faults.FaultRule("worker.slow", delay_s=2.5)

    def test_blank_entries_skipped(self):
        assert faults.parse_spec("worker.crash=1, ,").rules() == (
            faults.FaultRule("worker.crash"),
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "worker.crash",  # no '='
            "worker.crash=1:0:3:9",  # too many fields
            "worker.crash=often",  # non-numeric probability
            "worker.crash=1:soon",  # non-numeric delay
            "worker.crash=1:0:few",  # non-numeric limit
            "nope=1",  # unknown point
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_spec(spec)


class TestFaultInjector:
    def test_unarmed_point_never_fires(self):
        injector = faults.FaultInjector([faults.FaultRule("worker.crash")])
        assert not injector.fire("snapshot.vanish")
        assert injector.fired("snapshot.vanish") == 0

    def test_limit_caps_firings(self):
        injector = faults.FaultInjector(
            [faults.FaultRule("worker.crash", limit=2)]
        )
        assert [injector.fire("worker.crash") for _ in range(4)] == [
            True,
            True,
            False,
            False,
        ]
        assert injector.fired("worker.crash") == 2

    def test_zero_probability_never_fires(self):
        injector = faults.FaultInjector(
            [faults.FaultRule("worker.crash", probability=0.0)]
        )
        assert not any(injector.fire("worker.crash") for _ in range(50))

    def test_seed_pins_the_decision_stream(self):
        def stream() -> list[bool]:
            injector = faults.FaultInjector(
                [faults.FaultRule("worker.crash", probability=0.5)], seed=7
            )
            return [injector.fire("worker.crash") for _ in range(20)]

        decisions = [stream(), stream()]
        assert decisions[0] == decisions[1]
        assert True in decisions[0] and False in decisions[0]

    def test_delay_applied_on_firing(self):
        injector = faults.FaultInjector(
            [faults.FaultRule("worker.slow", delay_s=0.05)]
        )
        started = time.monotonic()
        assert injector.fire("worker.slow")
        assert time.monotonic() - started >= 0.05


class TestProcessGlobalInjector:
    def test_module_fire_is_noop_when_disarmed(self):
        assert faults.get_injector() is None
        assert not faults.fire("worker.crash")

    def test_set_and_reset(self):
        injector = faults.FaultInjector([faults.FaultRule("worker.crash")])
        faults.set_injector(injector)
        assert faults.get_injector() is injector
        assert faults.fire("worker.crash")
        faults.reset()
        assert faults.get_injector() is None
        assert not faults.fire("worker.crash")

    def test_install_from_env_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.install_from_env() is None
        assert faults.get_injector() is None

    def test_install_from_env_arms_the_spec(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "snapshot.vanish=1::3")
        injector = faults.install_from_env()
        assert injector is faults.get_injector()
        assert injector.rules() == (
            faults.FaultRule("snapshot.vanish", limit=3),
        )

    def test_install_from_explicit_environ(self):
        injector = faults.install_from_env({faults.FAULTS_ENV: "engine.slow=1"})
        assert injector is not None
        assert faults.fire("engine.slow")


class TestHookSites:
    """Each armed fault point surfaces as the documented stack error."""

    def test_snapshot_vanish(self, tmp_path):
        path = tmp_path / "graph.snap"
        save_graph_snapshot(figure1_graph(), path)
        faults.set_injector(
            faults.FaultInjector([faults.FaultRule("snapshot.vanish", limit=1)])
        )
        with pytest.raises(FileNotFoundError, match="fault injection"):
            open_snapshot(path)
        open_snapshot(path)  # limit spent: file is "back"

    def test_registry_manifest_corruption(self, tmp_path):
        registry = SnapshotRegistry(tmp_path)
        registry.publish_graph(figure1_graph())
        faults.set_injector(
            faults.FaultInjector(
                [faults.FaultRule("registry.manifest", limit=1)]
            )
        )
        with pytest.raises(RegistryError, match="fault injection"):
            registry.refresh()
        registry.refresh()  # limit spent: manifest is readable again
