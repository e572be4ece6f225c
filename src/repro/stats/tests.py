"""Classical tests the paper considers and rejects (Section 3.2).

"Classical statistical tests, such as the z-test and the chi-squared test
require either a Gaussian distribution or a minimum size of the sample."
They are implemented here with explicit assumption reporting so the
ablation benchmarks can show *why* they misbehave on query-sized samples.

``scipy.stats`` is imported inside the two tests, not at module level:
only the ablation calls them, and the import would otherwise load most of
scipy into every serving process and worker (guarded by
``tests/test_import_graph.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StatisticsError
from repro.util.validation import normalize_counts


@dataclass(frozen=True)
class ClassicalTestResult:
    """A p-value plus a record of violated assumptions."""

    statistic: float
    p_value: float
    assumption_warnings: tuple[str, ...]

    @property
    def assumptions_met(self) -> bool:
        """Whether the large-sample approximation's assumptions all hold."""
        return not self.assumption_warnings


def chi_square_test(
    observed: "np.ndarray | list[int]",
    expected_probs: "np.ndarray | list[float]",
    *,
    min_expected_count: float = 5.0,
) -> ClassicalTestResult:
    """Pearson chi-square goodness-of-fit of ``observed`` against ``pi``.

    Reports an assumption warning whenever an expected cell count falls
    below ``min_expected_count`` (the textbook validity rule that query-
    sized samples of the paper always violate).
    """
    obs = np.asarray(observed, dtype=np.float64)
    if obs.ndim != 1 or obs.size == 0:
        raise StatisticsError("observed must be a non-empty 1-D vector")
    if np.any(obs < 0):
        raise StatisticsError("observed counts must be non-negative")
    pi = normalize_counts(np.asarray(expected_probs, dtype=np.float64), "expected")
    if pi.size != obs.size:
        raise StatisticsError("support mismatch between observed and expected")
    n = obs.sum()
    if n <= 0:
        raise StatisticsError("observed must contain at least one count")
    warnings: list[str] = []
    positive = pi > 0
    if np.any(~positive & (obs > 0)):
        # Chi-square is undefined with zero expectation and positive counts.
        return ClassicalTestResult(float("inf"), 0.0, ("zero expected cell with positive observation",))
    expected = pi[positive] * n
    if np.any(expected < min_expected_count):
        warnings.append(
            f"{int(np.sum(expected < min_expected_count))} cells have expected "
            f"count < {min_expected_count} (sample too small for chi-square)"
        )
    if int(positive.sum()) < 2:
        # A single live cell leaves zero degrees of freedom: vacuous test.
        return ClassicalTestResult(0.0, 1.0, tuple(warnings))
    from scipy import stats as scipy_stats

    statistic, p_value = scipy_stats.chisquare(obs[positive], expected)
    return ClassicalTestResult(float(statistic), float(p_value), tuple(warnings))


def two_proportion_z_test(
    successes_a: int,
    total_a: int,
    successes_b: int,
    total_b: int,
    *,
    min_sample: int = 30,
) -> ClassicalTestResult:
    """Two-sided z-test for equality of two proportions.

    Usable e.g. to compare the prevalence of one characteristic value
    between query and context; flags the normality assumption when either
    sample is below ``min_sample``.
    """
    for name, value in (
        ("successes_a", successes_a),
        ("total_a", total_a),
        ("successes_b", successes_b),
        ("total_b", total_b),
    ):
        if value < 0:
            raise StatisticsError(f"{name} must be non-negative")
    if total_a == 0 or total_b == 0:
        raise StatisticsError("totals must be positive")
    if successes_a > total_a or successes_b > total_b:
        raise StatisticsError("successes cannot exceed totals")
    warnings: list[str] = []
    if total_a < min_sample or total_b < min_sample:
        warnings.append(
            f"sample sizes ({total_a}, {total_b}) below {min_sample}: "
            "normal approximation unreliable"
        )
    p_a = successes_a / total_a
    p_b = successes_b / total_b
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = pooled * (1 - pooled) * (1 / total_a + 1 / total_b)
    if variance == 0:
        # Both samples unanimous and identical: no evidence of difference.
        return ClassicalTestResult(0.0, 1.0, tuple(warnings))
    z = (p_a - p_b) / math.sqrt(variance)
    from scipy import stats as scipy_stats

    p_value = 2.0 * (1.0 - scipy_stats.norm.cdf(abs(z)))
    return ClassicalTestResult(float(z), float(p_value), tuple(warnings))
