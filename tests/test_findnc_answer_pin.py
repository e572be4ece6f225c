"""Answer pin: FindNC's multinomial answers on fixed wide queries.

``tests/data/findnc_answer_pin.json`` holds a fixed set of same-type
width-3–5 queries on the synthetic YAGO (scale 2, context 100, PPR context
as the query service runs it) together with every evaluated label's
answer: notable or not, channel, each channel's test ``method`` and
p-value. Every run must reproduce them — same labels, channels and
methods, p-values within ``1e-12`` relative. Where each row kind comes
from:

* ``exact`` rows: the outcome-table kernel that enumerated every outcome.
  Any reformulation of the exact test must reproduce them.
* ``uninformative`` rows (p-value 1): the discriminator's identity-free
  check, which runs no test at all.
* ``montecarlo`` rows: the categorical sampler (``n < k`` cells) at each
  case's recorded seed. They are estimates, pinned to that sampler's
  draws, so a change to how the sampler draws re-records these p-values
  and nothing else; ``tests/test_stats_multinomial.py`` checks the
  sampler's calibration against the exact test.

Regenerate the queries and answers (only ever from a kernel already known
to be right)::

    PYTHONPATH=src python tests/test_findnc_answer_pin.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.context import RandomWalkContext
from repro.core.discrimination import MultinomialDiscriminator
from repro.core.findnc import FindNC
from repro.datasets.loader import load_dataset

FIXTURE = Path(__file__).with_name("data") / "findnc_answer_pin.json"
SCALE = 2.0
CONTEXT_SIZE = 100
WIDTHS = (3, 4, 5)
MIN_TYPE_SIZE = 90
QUERY_COUNT = 24
P_VALUE_RTOL = 1e-12


class _RecordingDiscriminator(MultinomialDiscriminator):
    """Keeps each label's channel-test ``method`` pair (instance, cardinality)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.methods: "dict[str, list[str]]" = {}
        self._current: "list[str]" = []

    def _channel(self, *args, **kwargs):
        result = super()._channel(*args, **kwargs)
        self._current.append(result.method)
        return result

    def score(self, distributions):
        self._current = []
        result = super().score(distributions)
        self.methods[distributions.label] = self._current
        return result


def answers(graph, query: "list[str]", seed: int) -> "list[dict]":
    """Every evaluated label's answer for ``query``, in result order."""
    discriminator = _RecordingDiscriminator(rng=seed)
    finder = FindNC(graph, context_selector=RandomWalkContext(graph),
                    discriminator=discriminator)
    result = finder.run(query, context_size=CONTEXT_SIZE)
    return [
        {
            "label": r.label,
            "notable": r.notable,
            "channel": r.channel,
            "inst_method": discriminator.methods[r.label][0],
            "card_method": discriminator.methods[r.label][1],
            "inst_p_value": r.inst_p_value,
            "card_p_value": r.card_p_value,
        }
        for r in result.results
    ]


def _queries(graph) -> "list[list[str]]":
    """``QUERY_COUNT`` distinct same-type sets cycling over (type, width) cells."""
    groups: "dict[str, list[str]]" = {}
    for node in graph.nodes():
        types = graph.types_of(node)
        if len(types) == 1:
            groups.setdefault(types.pop(), []).append(graph.node_name(node))
    by_type = {t: sorted(names) for t, names in sorted(groups.items())
               if len(names) >= MIN_TYPE_SIZE}
    cells = [(t, w) for w in WIDTHS for t in by_type]
    rng = random.Random("answer-pin")
    out: "list[list[str]]" = []
    seen: "set[frozenset[str]]" = set()
    while len(out) < QUERY_COUNT:
        type_name, width = cells[len(out) % len(cells)]
        query = rng.sample(by_type[type_name], width)
        if frozenset(query) not in seen:
            seen.add(frozenset(query))
            out.append(query)
    return out


def _record() -> dict:
    graph = load_dataset("yago", scale=SCALE)
    cases = [
        {"query": query, "seed": seed, "answers": answers(graph, query, seed)}
        for seed, query in enumerate(_queries(graph))
    ]
    return {"scale": SCALE, "context_size": CONTEXT_SIZE, "cases": cases}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def yago_pin_graph(pinned):
    return load_dataset("yago", scale=pinned["scale"])


def test_fixture_exercises_the_exact_and_montecarlo_paths(pinned):
    methods = {
        answer[key]
        for case in pinned["cases"]
        for answer in case["answers"]
        for key in ("inst_method", "card_method")
    }
    assert {"exact", "montecarlo"} <= methods
    assert any(a["notable"] for case in pinned["cases"] for a in case["answers"])


@pytest.mark.parametrize("index", range(QUERY_COUNT))
def test_answers_match_the_pin(pinned, yago_pin_graph, index):
    case = pinned["cases"][index]
    got = answers(yago_pin_graph, case["query"], case["seed"])
    expected = case["answers"]
    assert [a["label"] for a in got] == [a["label"] for a in expected]
    for new, old in zip(got, expected):
        for key in ("notable", "channel", "inst_method", "card_method"):
            assert new[key] == old[key], (new["label"], key)
        for key in ("inst_p_value", "card_p_value"):
            if old[key] is None:
                assert new[key] is None, (new["label"], key)
            else:
                assert new[key] == pytest.approx(old[key], rel=P_VALUE_RTOL, abs=0.0), (
                    new["label"], key)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
