"""Figure 6 — ContextRW time vs maximum metapath length.

Paper claim asserted: "the time increases as the length of the metapaths
increases" — the mean runtime at max length 20 must exceed the mean at 5.
Each point is the median of 3 ``select`` calls (a 12-point sweep of
seconds-long calls; 3 keep the bench near a minute).
"""

from conftest import run_once

from repro.eval.experiments import time_vs_path_length
from repro.eval.metrics import mean


def test_fig6_time_vs_path_length(benchmark, setting):
    table = run_once(
        benchmark,
        time_vs_path_length,
        setting,
        query_sizes=(2, 4, 6),
        repeats=3,
    )
    print()
    print(table.render())

    def mean_at(length):
        return mean(t for _q, l, t, *_spread in table.rows if l == length)

    assert mean_at(20) > mean_at(5), (
        f"longer walks must cost more time "
        f"(got {mean_at(5):.3f}s @5 vs {mean_at(20):.3f}s @20)"
    )
    # Times stay in the interactive regime the paper reports (< 20s/query).
    assert max(table.column("seconds")) < 20.0
