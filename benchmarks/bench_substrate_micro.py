"""Micro-benchmarks of the substrate kernels.

Not paper artifacts — these measure the operations everything else is
built from, so performance regressions in the walker, PageRank or the
multinomial test show up here first (multi-round, statistically timed,
unlike the single-shot experiment benches).
"""

import numpy as np
import pytest

from repro.core.distributions import build_all_distributions, build_distributions
from repro.datasets.loader import load_dataset
from repro.stats.multinomial import exact_multinomial_test, montecarlo_multinomial_test
from repro.walk.pagerank import PersonalizedPageRank
from repro.walk.walker import RandomWalker


@pytest.fixture(scope="module")
def graph():
    return load_dataset("yago", scale=1.0)


class TestWalkKernels:
    def test_walk_steps_per_second(self, benchmark, graph):
        walker = RandomWalker(graph, rng=1)

        def do_walks():
            for start in range(0, 200):
                walker.walk(start % graph.node_count, 5)

        benchmark(do_walks)

    def test_pagerank_iteration_speed(self, benchmark, graph):
        ppr = PersonalizedPageRank(graph, iterations=10)
        ppr.transition()  # warm the cache; measure the iteration only

        def run():
            return ppr.scores([0])

        scores = benchmark(run)
        assert abs(scores.sum() - 1.0) < 1e-9

    def test_pagerank_batched_per_node_speed(self, benchmark, graph):
        """Five per-query-node PPR runs as one multi-column iteration."""
        ppr = PersonalizedPageRank(graph, iterations=10)
        ppr.transition()  # warm the cache; measure the iteration only
        nodes = list(range(5))

        def run():
            return ppr.scores_per_node(nodes)

        scores = benchmark(run)
        assert abs(scores.sum() - 5.0) < 1e-9


class TestStatsKernels:
    def test_exact_multinomial_speed(self, benchmark):
        pi = [0.4, 0.3, 0.2, 0.1]
        x = [3, 2, 1, 0]

        result = benchmark(lambda: exact_multinomial_test(pi, x))
        assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize(
        ("n", "k"),
        [(4, 44), (3, 105), (2, 300), (1000, 2), (3, 4)],
        ids=lambda v: str(v),
    )
    def test_exact_multinomial_shape_speed(self, benchmark, n, k):
        """The widest exact shapes under the default 200k-outcome limit, a
        long two-cell test and a tiny one (the common case per query)."""
        rng = np.random.default_rng(n * 1000 + k)
        pi = rng.dirichlet(np.ones(k))
        x = rng.multinomial(n, pi)

        result = benchmark(lambda: exact_multinomial_test(pi, x))
        assert result.method == "exact"
        assert 0.0 <= result.p_value <= 1.0

    @pytest.mark.parametrize(
        ("n", "k"),
        [(7, 156), (5, 56), (40, 40), (150, 4)],
        ids=lambda v: str(v),
    )
    def test_montecarlo_multinomial_speed(self, benchmark, n, k):
        """Two served shapes (n < k: categorical draws) and two with
        n >= k (dense count vectors), at the served 20,000 samples."""
        rng = np.random.default_rng(n * 1000 + k)
        pi = rng.dirichlet(np.ones(k))
        x = rng.multinomial(n, rng.dirichlet(np.ones(k)))

        result = benchmark(
            lambda: montecarlo_multinomial_test(pi, x, samples=20_000, rng=3)
        )
        assert result.method == "montecarlo"
        assert 0.0 < result.p_value <= 1.0


class TestPipelineKernels:
    def test_distribution_build_speed(self, benchmark, graph):
        from repro.datasets.seeds import ACTORS_DOMAIN

        query = [graph.node_id(n) for n in ACTORS_DOMAIN.entities[:5]]
        context = [n for n in range(200) if n not in query][:100]

        def build():
            return build_distributions(graph, query, context, "hasWonPrize")

        dists = benchmark(build)
        assert dists.query_size == 5

    def test_batch_distribution_build_speed(self, benchmark, graph):
        """The discrimination-phase kernel: every candidate label, one sweep.

        This is the FindNC hot path at evaluation scale (context >= 500);
        the per-label reference path re-scans Q ∪ C once per label instead.
        """
        from repro.core.findnc import FindNC
        from repro.datasets.seeds import ACTORS_DOMAIN

        query = [graph.node_id(n) for n in ACTORS_DOMAIN.entities[:5]]
        context = [n for n in graph.nodes() if n not in query][:500]
        labels = FindNC(graph).candidate_labels(query + context)
        graph._compiled()  # warm the snapshot; measure the sweep only

        def build():
            return build_all_distributions(graph, query, context, labels)

        dists = benchmark(build)
        assert len(dists) == len(labels)
