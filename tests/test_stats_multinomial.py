"""Unit tests for the exact / Monte-Carlo multinomial test."""

import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import StatisticsError
from repro.stats.multinomial import (
    MAX_EXACT_PARTIALS,
    exact_multinomial_test,
    log_multinomial_pmf,
    montecarlo_multinomial_test,
    multinomial_test,
    number_of_compositions,
)


class TestLogPmf:
    def test_binomial_agreement(self):
        pi = np.array([0.3, 0.7])
        x = np.array([2, 3])
        expected = scipy_stats.binom.logpmf(2, 5, 0.3)
        assert log_multinomial_pmf(pi, x) == pytest.approx(float(expected))

    def test_zero_probability_cell(self):
        assert log_multinomial_pmf(np.array([0.0, 1.0]), np.array([1, 0])) == float(
            "-inf"
        )

    def test_degenerate_certainty(self):
        assert log_multinomial_pmf(np.array([1.0]), np.array([4])) == pytest.approx(0.0)

    def test_pmf_sums_to_one_small_case(self):
        pi = np.array([0.2, 0.5, 0.3])
        n = 4
        total = 0.0
        for a in range(n + 1):
            for b in range(n + 1 - a):
                c = n - a - b
                total += math.exp(log_multinomial_pmf(pi, np.array([a, b, c])))
        assert total == pytest.approx(1.0)


class TestCompositions:
    def test_known_values(self):
        assert number_of_compositions(5, 1) == 1
        assert number_of_compositions(5, 2) == 6
        assert number_of_compositions(2, 3) == 6

    def test_invalid(self):
        with pytest.raises(StatisticsError):
            number_of_compositions(-1, 2)
        with pytest.raises(StatisticsError):
            number_of_compositions(3, 0)


class TestExactTest:
    def test_fair_coin_extreme(self):
        # [5, 0] under (0.5, 0.5): only (5,0) and (0,5) are that unlikely.
        result = exact_multinomial_test([0.5, 0.5], [5, 0])
        assert result.p_value == pytest.approx(2 * 0.5**5)
        assert result.method == "exact"

    def test_typical_outcome_not_significant(self):
        result = exact_multinomial_test([0.5, 0.5], [3, 2])
        assert result.p_value > 0.5
        assert not result.significant
        assert result.score == 0.0

    def test_observation_on_zero_cell_maximally_significant(self):
        result = exact_multinomial_test([1.0, 0.0], [0, 3])
        assert result.p_value == 0.0
        assert result.significant
        assert result.score == 1.0

    def test_zero_cells_excluded_from_enumeration(self):
        # Same answer with or without padding zero-probability cells.
        with_pad = exact_multinomial_test([0.5, 0.5, 0.0], [4, 1, 0])
        without = exact_multinomial_test([0.5, 0.5], [4, 1])
        assert with_pad.p_value == pytest.approx(without.p_value)

    def test_empty_observation_degenerate(self):
        result = exact_multinomial_test([0.4, 0.6], [0, 0])
        assert result.p_value == 1.0
        assert result.method == "degenerate"

    def test_p_value_never_exceeds_one(self):
        result = exact_multinomial_test([0.25, 0.25, 0.25, 0.25], [1, 1, 1, 1])
        assert 0.0 <= result.p_value <= 1.0

    def test_agrees_with_binomial_two_sided_mass(self):
        # Pr_s = sum of binomial pmf over outcomes with pmf <= pmf(obs).
        pi = [0.3, 0.7]
        obs = [4, 1]
        n = 5
        pmf = [float(scipy_stats.binom.pmf(k, n, 0.3)) for k in range(n + 1)]
        threshold = pmf[4]
        expected = sum(p for p in pmf if p <= threshold * (1 + 1e-9))
        result = exact_multinomial_test(pi, obs)
        assert result.p_value == pytest.approx(expected)


class TestMonteCarloTest:
    def test_close_to_exact(self):
        pi = [0.2, 0.3, 0.5]
        x = [5, 0, 0]
        exact = exact_multinomial_test(pi, x)
        approx = montecarlo_multinomial_test(pi, x, samples=60_000, rng=3)
        assert approx.p_value == pytest.approx(exact.p_value, abs=0.01)
        assert approx.method == "montecarlo"

    def test_never_returns_zero(self):
        result = montecarlo_multinomial_test([0.5, 0.5], [20, 0], samples=1000, rng=1)
        assert result.p_value > 0.0

    def test_deterministic_under_seed(self):
        a = montecarlo_multinomial_test([0.5, 0.5], [6, 1], samples=5000, rng=9)
        b = montecarlo_multinomial_test([0.5, 0.5], [6, 1], samples=5000, rng=9)
        assert a.p_value == b.p_value

    def test_zero_cell_shortcut(self):
        result = montecarlo_multinomial_test([1.0, 0.0], [1, 1], samples=100, rng=1)
        assert result.p_value == 0.0


def _calibration_case(k, n, seed, *, zeros=(), scale=1.0, typical=True):
    """``pi`` over ``k`` cells (``zeros`` set to 0, total ``scale``) and ``n``
    counts drawn from ``pi`` itself (``typical``) or from elsewhere."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(k, 0.7))
    pi[list(zeros)] = 0.0
    pi /= pi.sum()
    x = rng.multinomial(n, pi if typical else rng.dirichlet(np.ones(k)))
    x[list(zeros)] = 0
    return pi * scale, x


#: Exact-feasible shapes on both sides of the sampler rule, each flagged
#: with whether the rule picks categorical draws (``n`` below the number
#: of positive cells) over dense count vectors. ``off_sum`` pis total 1
#: only within 1e-6.
CALIBRATION_CASES = {
    "categorical_n3_k8": (True, _calibration_case(8, 3, 1)),
    "categorical_n4_k30": (True, _calibration_case(30, 4, 2, typical=False)),
    "categorical_n5_k12_zero_cells": (
        True, _calibration_case(18, 5, 3, zeros=(0, 5, 9, 12, 16, 17))),
    "categorical_n4_k5_off_sum": (True, _calibration_case(5, 4, 4, scale=1 + 8e-7)),
    "dense_n9_k6": (False, _calibration_case(6, 9, 5)),
    "dense_n12_k3": (False, _calibration_case(3, 12, 6, typical=False)),
    "dense_n6_k6_off_sum": (False, _calibration_case(6, 6, 7, scale=1 - 8e-7)),
    "dense_n5_k4_zero_cells": (False, _calibration_case(8, 5, 8, zeros=(0, 2, 3, 7))),
}


class TestMonteCarloCalibration:
    """Both Monte-Carlo samplers against the exact test, seed by seed."""

    SAMPLES = 20_000
    SEEDS = range(20)

    @pytest.mark.parametrize("sampler", ["_categorical_log_pmfs", "_dense_log_pmfs"])
    @pytest.mark.parametrize("name", sorted(CALIBRATION_CASES))
    def test_estimates_bracket_the_exact_p_value(self, name, sampler, monkeypatch):
        from repro.stats import multinomial

        # Run every shape through one sampler, whichever side of the rule
        # the shape falls on.
        forced = getattr(multinomial, sampler)
        monkeypatch.setattr(multinomial, "_categorical_log_pmfs", forced)
        monkeypatch.setattr(multinomial, "_dense_log_pmfs", forced)
        _, (pi, x) = CALIBRATION_CASES[name]
        p = exact_multinomial_test(pi, x).p_value
        samples = self.SAMPLES
        # Binomial noise of the hit count, plus the add-one floor: at
        # p ~ 0 the estimate sits exactly 1 / (samples + 1) away.
        bound = 4 * math.sqrt(p * (1 - p) / samples) + 1 / (samples + 1)
        for seed in self.SEEDS:
            result = multinomial_test(pi, x, max_exact_outcomes=0, samples=samples, rng=seed)
            assert result.method == "montecarlo"
            assert abs(result.p_value - p) <= bound, (seed, result.p_value, p)

    def test_sampler_is_chosen_by_n_below_k(self, monkeypatch):
        from repro.stats import multinomial

        used = []
        for sampler in ("_categorical_log_pmfs", "_dense_log_pmfs"):
            draw = getattr(multinomial, sampler)
            monkeypatch.setattr(multinomial, sampler,
                                lambda *args, draw=draw, sampler=sampler:
                                used.append(sampler) or draw(*args))
        for name, (categorical, (pi, x)) in sorted(CALIBRATION_CASES.items()):
            used.clear()
            multinomial_test(pi, x, max_exact_outcomes=0, samples=100, rng=0)
            assert used == ["_categorical_log_pmfs" if categorical else "_dense_log_pmfs"], name

    def test_zero_cells_are_never_drawn(self):
        from repro.stats.multinomial import _categorical_cells

        pi = np.array([0.0, 0.0, 1e-3, 0.0, 0.5, 0.0, 0.0, 0.499, 0.0, 0.0])
        for seed in self.SEEDS:
            cells = _categorical_cells(np.random.default_rng(seed), pi, 6, 5_000)
            assert cells.shape == (5_000, 6)
            assert (pi[cells] > 0).all(), seed
            assert (np.diff(cells, axis=1) >= 0).all()  # rows come sorted

    def test_categorical_log_pmfs_score_the_drawn_counts(self):
        """Run-ranks give each draw the log-pmf of its count vector."""
        from repro.stats.multinomial import _categorical_cells, _categorical_log_pmfs

        pi = np.array([0.6, 0.0, 0.3, 0.05, 0.05])
        log_pi = np.log(pi, out=np.zeros_like(pi), where=pi > 0)
        cells = _categorical_cells(np.random.default_rng(1), pi, 9, 500)
        got = _categorical_log_pmfs(np.random.default_rng(1), pi, log_pi, 9, 500)
        expected = [log_multinomial_pmf(pi, np.bincount(row, minlength=pi.size))
                    for row in cells]
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


def _searchsorted_cells(uniforms, pi):
    """The sampler's oracle: one binary search per sorted uniform."""
    cdf = np.cumsum(pi)
    return np.searchsorted(cdf, np.sort(uniforms, axis=1) * cdf[-1], side="right")


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns chosen uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, shape):
        return self.uniforms.reshape(shape).copy()


def _tiny_beside_dominant(k, seed):
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, k) * 1e-300
    pi[rng.integers(k)] = 1.0
    return pi / pi.sum()


def _zero_cells_at(k, seed, where):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(k, 0.7))
    pi[where] = 0.0
    return pi / pi.sum()


#: ``pi`` vectors for the guide-table sampler, each drawn ``n`` at a time.
GUIDE_CASES = {
    "k2": (_calibration_case(2, 1, 11)[0], 1),
    "k3_uniform": (np.full(3, 1 / 3), 2),
    "k1000": (_calibration_case(1000, 30, 12)[0], 30),
    "k1000_flat": (np.full(1000, 1e-3), 12),
    "zeros_at_start": (_zero_cells_at(40, 13, slice(0, 7)), 6),
    "zeros_in_middle": (_zero_cells_at(40, 14, [9, 10, 11, 20, 27]), 6),
    "zeros_at_end": (_zero_cells_at(40, 15, slice(31, 40)), 6),
    "zeros_everywhere": (_zero_cells_at(60, 16, slice(0, 60, 3)), 9),
    "tiny_beside_dominant": (_tiny_beside_dominant(50, 17), 8),
    "tiny_beside_dominant_first": (np.array([1.0] + [1e-300] * 20), 5),
    "tiny_beside_dominant_last": (np.array([1e-300] * 20 + [1.0]), 5),
    "renormalised_above": (_calibration_case(70, 5, 18, scale=1 + 1e-7)[0] / (1 + 1e-7), 5),
    "renormalised_below": (_calibration_case(70, 5, 19, scale=1 - 1e-7)[0] / (1 - 1e-7), 5),
    "total_above_one": (_calibration_case(33, 4, 20, scale=1 + 1e-7)[0], 4),
    "total_below_one": (_calibration_case(33, 4, 21, scale=1 - 1e-7)[0], 4),
}


class TestGuideTableSampler:
    """The guide-table sampler draws exactly the cells one binary search
    per key would, and scores each draw as its count vector."""

    @pytest.mark.parametrize("name", sorted(GUIDE_CASES))
    def test_cells_match_the_binary_search(self, name):
        from repro.stats.multinomial import _categorical_cells

        pi, n = GUIDE_CASES[name]
        for seed in range(8):
            got = _categorical_cells(np.random.default_rng(seed), pi, n, 2_000)
            uniforms = np.random.default_rng(seed).random((2_000, n))
            assert got.shape == (2_000, n)
            np.testing.assert_array_equal(got, _searchsorted_cells(uniforms, pi), str(seed))
            assert (pi[got] > 0).all()

    @pytest.mark.parametrize("k", [2, 3, 5, 17, 64, 250, 1000])
    def test_random_shapes(self, k):
        from repro.stats.multinomial import _categorical_cells

        rng = np.random.default_rng(k)
        for seed in range(10):
            pi = rng.dirichlet(np.full(k, rng.choice([0.05, 0.7, 5.0])))
            pi[rng.random(k) < 0.2] = 0.0
            if not pi.any():
                pi[0] = 1.0
            pi /= pi.sum()
            n = int(rng.integers(1, 40))
            got = _categorical_cells(np.random.default_rng(seed), pi, n, 500)
            uniforms = np.random.default_rng(seed).random((500, n))
            np.testing.assert_array_equal(got, _searchsorted_cells(uniforms, pi), str(seed))

    @pytest.mark.parametrize("name", sorted(GUIDE_CASES))
    def test_keys_on_bucket_edges_and_cell_ends(self, name):
        """Uniforms on every bucket's edge, a float either side of it, on
        every cell's end, and the extremes ``0`` and ``1 - 2**-53``."""
        from repro.stats.multinomial import GUIDE_BUCKETS_PER_CELL, _categorical_cells

        pi, _ = GUIDE_CASES[name]
        cdf = np.cumsum(pi)
        edges = np.arange(GUIDE_BUCKETS_PER_CELL * pi.size + 1) / (
            GUIDE_BUCKETS_PER_CELL * pi.size)
        ends = cdf / cdf[-1]
        pinned = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0),
            [0.0, 1.0 - 2.0**-53],
        ])
        uniforms = pinned[pinned < 1.0]
        got = _categorical_cells(_FixedUniforms(uniforms), pi, 1, uniforms.size)
        expected = _searchsorted_cells(uniforms[:, None], pi)
        np.testing.assert_array_equal(got, expected)
        assert (pi[got] > 0).all()
        assert got.max() < pi.size

    def test_key_below_its_bucket_edge(self):
        """A key one float below bucket 33's computed edge still floors into
        bucket 33, and cell 0 ends exactly on that edge: the key's pick is
        cell 0, below the first cell ending above the edge."""
        from repro.stats.multinomial import _categorical_cells

        pi = np.array([0.6874996834567315, 0.15624992805834803, 0.15624992805834803])
        uniforms = np.array([0.6874999999999999])
        got = _categorical_cells(_FixedUniforms(uniforms), pi, 1, 1)
        np.testing.assert_array_equal(got, _searchsorted_cells(uniforms[:, None], pi))
        assert got[0, 0] == 0

    def test_binary_search_runs_on_misses_only(self, monkeypatch):
        from repro.stats import multinomial

        searched = []
        search = np.searchsorted

        def spy(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return search(a, v, *args, **kwargs)

        pi, n = GUIDE_CASES["k1000"]
        monkeypatch.setattr(np, "searchsorted", spy)
        multinomial._categorical_cells(np.random.default_rng(0), pi, n, 2_000)
        table, misses = searched
        assert table == multinomial.GUIDE_BUCKETS_PER_CELL * pi.size
        assert misses < 0.1 * n * 2_000

    @pytest.mark.parametrize("name", sorted(GUIDE_CASES))
    def test_log_pmfs_score_the_drawn_counts(self, name):
        from repro.stats.multinomial import _categorical_cells, _categorical_log_pmfs

        pi, n = GUIDE_CASES[name]
        log_pi = np.log(pi, out=np.zeros_like(pi), where=pi > 0)
        for seed in range(3):
            cells = _categorical_cells(np.random.default_rng(seed), pi, n, 200)
            got = _categorical_log_pmfs(np.random.default_rng(seed), pi, log_pi, n, 200)
            expected = [log_multinomial_pmf(pi, np.bincount(row, minlength=pi.size))
                        for row in cells]
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-12)


class TestDispatch:
    def test_small_case_uses_exact(self):
        result = multinomial_test([0.5, 0.5], [3, 1])
        assert result.method == "exact"

    def test_large_support_uses_montecarlo(self):
        pi = [1 / 60] * 60
        x = [0] * 60
        x[0] = 3
        x[1] = 2
        result = multinomial_test(pi, x, samples=2000, rng=4)
        assert result.method == "montecarlo"

    def test_significance_flag_respects_alpha(self):
        lenient = multinomial_test([0.5, 0.5], [5, 0], alpha=0.10)
        strict = multinomial_test([0.5, 0.5], [5, 0], alpha=0.01)
        assert lenient.significant  # p = 0.0625 <= 0.10
        assert not strict.significant

    def test_score_is_one_minus_p_when_significant(self):
        result = multinomial_test([0.9, 0.1], [0, 5])
        assert result.significant
        assert result.score == pytest.approx(1.0 - result.p_value)


class TestValidation:
    def test_support_mismatch(self):
        with pytest.raises(StatisticsError):
            multinomial_test([0.5, 0.5], [1, 2, 3])

    def test_unnormalized_pi_rejected(self):
        with pytest.raises(StatisticsError):
            multinomial_test([0.5, 0.2], [1, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(StatisticsError):
            multinomial_test([0.5, 0.5], [-1, 2])

    def test_negative_pi_rejected(self):
        with pytest.raises(StatisticsError):
            multinomial_test([-0.5, 1.5], [1, 1])

    def test_empty_support_rejected(self):
        with pytest.raises(StatisticsError):
            multinomial_test([], [])

    def test_bad_sample_count_rejected(self):
        with pytest.raises(StatisticsError):
            montecarlo_multinomial_test([0.5, 0.5], [1, 1], samples=0)
        with pytest.raises(StatisticsError, match="samples"):
            multinomial_test([0.5, 0.5], [1, 1], max_exact_outcomes=0, samples=0)


class TestVectorizedEnumeration:
    def test_compositions_array_matches_reference(self):
        from repro.stats.multinomial import _iter_compositions, compositions_array

        for n in range(0, 7):
            for k in range(1, 5):
                reference = np.array(list(_iter_compositions(n, k)), dtype=np.int64)
                vectorized = compositions_array(n, k)
                assert vectorized.shape == (
                    number_of_compositions(n, k),
                    k,
                ), (n, k)
                assert (vectorized == reference.reshape(-1, k)).all(), (n, k)

    def test_compositions_array_validates(self):
        from repro.stats.multinomial import compositions_array

        with pytest.raises(StatisticsError):
            compositions_array(-1, 2)
        with pytest.raises(StatisticsError):
            compositions_array(3, 0)


def _enumerated_test(pi, x, max_exact_outcomes=200_000):
    """Reference exact test: score every outcome of ``compositions_array``.

    Mirrors :func:`multinomial_test`'s dispatch, so the kernel under test
    must also agree on ``method``.
    """
    from repro.stats.multinomial import _lgamma_rows, compositions_array

    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    n = int(x.sum())
    positive = pi > 0
    if n == 0:
        return 1.0, "degenerate"
    if (x[~positive] > 0).any():
        return 0.0, "exact"
    if number_of_compositions(n, int(positive.sum())) > max_exact_outcomes:
        return None, "montecarlo"
    outcomes = compositions_array(n, int(positive.sum()))
    log_py = (
        math.lgamma(n + 1) + outcomes @ np.log(pi[positive]) - _lgamma_rows(outcomes)
    )
    threshold = log_multinomial_pmf(pi[positive], x[positive]) + 1e-9
    return min(float(np.exp(log_py[log_py <= threshold]).sum()), 1.0), "exact"


def _skewed(k, n, seed):
    """A random ``pi`` over ``k`` cells and ``n`` counts drawn away from it."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(k, 0.7))
    return pi, rng.multinomial(n, rng.dirichlet(np.ones(k)))


def _ties(k, n, seed):
    """Uniform ``pi`` (every permutation of an outcome ties) and a shuffled ``x``."""
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.bincount(rng.integers(0, max(k // 2, 1), n), minlength=k))
    return np.full(k, 1.0 / k), x


def _zero_cells(k, n, seed):
    """``pi`` with zero cells; ``x`` puts one observation on a zero cell."""
    pi, x = _skewed(k, n, seed)
    pi[::3] = 0.0
    x[0] += 1
    return pi / pi.sum(), x


def _zero_cells_unobserved(k, n, seed):
    """``pi`` with zero cells that ``x`` leaves empty."""
    pi, x = _skewed(k, n, seed)
    pi[1::3] = 0.0
    x[1::3] = 0
    x[0] += 1
    return pi / pi.sum(), x


DIFFERENTIAL_CASES = {
    "n3_k60": _skewed(60, 3, 1),
    "n4_k30": _skewed(30, 4, 2),
    "n2_k150": _skewed(150, 2, 3),
    "n3_k4": _skewed(4, 3, 4),
    "n9_k6": _skewed(6, 9, 5),
    "n40_k3": _skewed(3, 40, 6),
    "ties_n5_k8": _ties(8, 5, 7),
    "ties_n4_k20": _ties(20, 4, 8),
    "k1": (np.array([1.0]), np.array([7])),
    "k1_padded": (np.array([0.0, 1.0, 0.0]), np.array([0, 4, 0])),
    "k2_n2000_near_mode": (np.array([0.3, 0.7]), np.array([650, 1350])),
    "k2_n2000_tail": (np.array([0.3, 0.7]), np.array([700, 1300])),
    "k2_n2000_fair": (np.array([0.5, 0.5]), np.array([1040, 960])),
    "observed_zero_cell": _zero_cells(9, 4, 9),
    "unobserved_zero_cells": _zero_cells_unobserved(12, 4, 10),
}


class TestDifferentialKernel:
    """The exact kernel against full enumeration of the outcome space."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    def test_matches_enumeration(self, name):
        pi, x = DIFFERENTIAL_CASES[name]
        expected, method = _enumerated_test(pi, x)
        result = multinomial_test(pi, x)
        assert result.method == method
        if expected == 0.0:
            assert result.p_value == 0.0
        else:
            assert abs(result.p_value - expected) <= 1e-12 * expected, (
                result.p_value, expected)

    def test_permuted_ties_give_one_p_value(self):
        pi, x = _ties(10, 6, 11)
        rng = np.random.default_rng(12)
        p_values = {exact_multinomial_test(pi, rng.permutation(x)).p_value for _ in range(5)}
        expected, _ = _enumerated_test(pi, x)
        assert max(abs(p - expected) for p in p_values) <= 1e-12 * expected

    @pytest.mark.parametrize(("n", "k"), [(12, 40), (6, 200)])
    def test_infeasible_shape_raises_before_allocating(self, n, k):
        """C(n + h, h) partials for the larger half h = 20 or 100: about
        2.3e8 and 1.6e9, far past the limit."""
        pi = np.full(k, 1.0 / k)
        x = np.zeros(k, dtype=np.int64)
        x[:n] = 1
        started = time.perf_counter()
        with pytest.raises(StatisticsError, match="partial outcomes"):
            exact_multinomial_test(pi, x)
        assert time.perf_counter() - started < 1.0

    def test_widest_feasible_shape_still_answers(self):
        """n=5 over k=120 cells: 8.3e6 partials, under the limit."""
        k = 120
        assert math.comb(5 + k // 2, 5) <= MAX_EXACT_PARTIALS
        pi = np.full(k, 1.0 / k)
        x = np.zeros(k, dtype=np.int64)
        x[:5] = 1
        result = exact_multinomial_test(pi, x)
        assert result.method == "exact"
        assert 0.0 < result.p_value <= 1.0

    def test_random_small_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            k = int(rng.integers(1, 9))
            pi = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])))
            x = rng.multinomial(int(rng.integers(1, 10)), rng.dirichlet(np.ones(k)))
            expected, method = _enumerated_test(pi, x)
            result = exact_multinomial_test(pi, x)
            assert result.method == method
            assert abs(result.p_value - expected) <= 1e-12 * expected, (pi, x)
