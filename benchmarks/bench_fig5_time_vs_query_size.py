"""Figure 5 — context-selection time vs |Q| (log scale in the paper).

The paper reports RandomWalk up to two orders of magnitude slower. That
*magnitude* is a function of graph size: per-query-node PageRank costs
O(|Q| * |E| * iterations) while PathMining costs O(samples * walk length),
so on the paper's 27M-edge YAGO the baseline drowns, while on our 30k-edge
synthetic graph the constants meet in the middle (see EXPERIMENTS.md).

What is scale-independent — and asserted here — is the *shape*:
* RandomWalk time grows linearly with |Q| (one PageRank per query node);
* ContextRW time does not grow with |Q| (if anything it shrinks: walks
  terminate sooner when the target set is larger).

Each point is the median of ``TIMING_REPEATS`` (5) ``select`` calls on
fresh seeded selectors; one call swings by more than the 1.25x margin.
"""

from conftest import run_once

from repro.eval.experiments import time_vs_query_size


def test_fig5_time_vs_query_size(benchmark, setting):
    table = run_once(benchmark, time_vs_query_size, setting)
    print()
    print(table.render())

    seconds = {(algo, q): t for algo, q, t, *_spread in table.rows}
    assert seconds[("RandomWalk", 5)] >= 2.0 * seconds[("RandomWalk", 1)], (
        "the baseline's cost must grow with the query size "
        f"(got {seconds[('RandomWalk', 1)]:.3f}s -> {seconds[('RandomWalk', 5)]:.3f}s)"
    )
    crw_growth = seconds[("ContextRW", 5)] / max(seconds[("ContextRW", 1)], 1e-9)
    rw_growth = seconds[("RandomWalk", 5)] / max(seconds[("RandomWalk", 1)], 1e-9)
    assert crw_growth < rw_growth, (
        "ContextRW must scale better in |Q| than the baseline "
        f"(growth {crw_growth:.2f}x vs {rw_growth:.2f}x)"
    )
    assert seconds[("ContextRW", 5)] <= 1.25 * seconds[("ContextRW", 1)], (
        "ContextRW does not get slower with more query nodes"
    )
    # Interactive regime: every run finishes well under the paper's 20s.
    assert max(table.column("seconds")) < 20.0
