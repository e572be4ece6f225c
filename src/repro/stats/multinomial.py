"""The exact multinomial test (and its Monte-Carlo approximation).

Given a hypothesised multinomial distribution ``pi`` (the normalized
context distribution) and an observed count vector ``x`` (the query
distribution), the significance probability is::

    Pr_s(X ~ Mult(N, pi) = x) = sum over { y : Pr(y) <= Pr(x) } of Pr(y)

i.e. the total probability of outcomes at most as likely as the one
observed (an exact, two-sided-by-construction test). The paper: "In case of
large N, the exact test is impractical, a Montecarlo sampling to
approximate the final result is performed."

The characteristic score is ``MT = 1 - Pr_s`` when ``Pr_s <= alpha`` (the
hypothesis of equality is rejected) and ``0`` otherwise.

Paper cross-reference (Mottin et al., EDBT 2018):

* **Section 3.2, the multinomial test** — :func:`multinomial_test`
  (exact over the full outcome space, Monte-Carlo beyond
  ``max_exact_outcomes``, matching the paper's "in case of large N ... a
  Montecarlo sampling" note); ``pi`` is the normalized *context*
  distribution, ``x`` the *query* counts.
* **The MT score** (``1 - Pr_s`` if significant at ``alpha``, else 0) —
  :attr:`MultinomialTestResult.score`; ``alpha = 0.05`` is the paper's
  Section-4 setting, and Figure 9 plots the significance probabilities
  (:attr:`MultinomialTestResult.p_value`) per candidate label.
* **delta(l, C, Q) = max over both channels** — applied one level up in
  :class:`repro.core.discrimination.MultinomialDiscriminator`, which
  runs this test on the instance and cardinality distribution pairs.

The exact test never materialises the outcome space. It splits the
positive-probability cells into two halves; an outcome is one partial
outcome per half whose masses sum to ``N``, and its log-probability is
the sum of the two halves' partial log-weights. Each half enumerates its
partial log-weights for every mass ``m <= N``; one half is sorted per
mass and prefix-summed, and each partial outcome of the other half finds
by binary search how many partners keep the outcome at most as likely as
``x``. This is a reformulation only: it sums the same outcome set as
enumerating every outcome (:func:`compositions_array`, the reference the
tests compare against), in ``O(k)`` interpreted steps whose arrays hold
the halves' partial outcomes instead of the outcome space.

The Monte-Carlo estimate counts how many of ``samples`` draws from
``Mult(N, pi)`` are at most as likely as ``x``. How a draw is made depends
only on ``N`` and the number ``k`` of positive cells. With fewer
observations than cells (``N < k``, nearly every served wide shape) a
draw is ``N`` categorical cell indices, looked up in a guide table with
a binary search only for the few keys the table leaves ambiguous, and
scored column by column without a count vector, so a draw costs a sort
of ``N`` uniforms and ``O(N)`` lookups instead of ``O(k)``. Otherwise a
draw is a dense ``k``-cell count vector from ``Generator.multinomial``.
Both give the same distribution of outcomes;
``tests/test_stats_multinomial.py`` calibrates each against the exact
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StatisticsError
from repro.util.rng import RandomSource, ensure_numpy_rng

#: Relative tolerance when comparing outcome log-probabilities for the
#: "equally or less likely" cut. Guards against float noise making the
#: observed outcome "more likely than itself".
LOG_TIE_TOLERANCE = 1e-9

#: Most partial outcomes :func:`exact_multinomial_test` enumerates for
#: one half of the cells; past it the half's arrays would outgrow memory,
#: so the shape is refused. :func:`multinomial_test` does not consult it:
#: its own outcome limit hands wide shapes to Monte-Carlo first.
MAX_EXACT_PARTIALS = 10_000_000

#: Guide-table buckets per cell in the Monte-Carlo categorical sampler
#: (:func:`_categorical_cells`). More buckets leave fewer keys to a
#: binary search (about 3% at 16) for a larger table to build.
GUIDE_BUCKETS_PER_CELL = 16


@dataclass(frozen=True)
class MultinomialTestResult:
    """Outcome of a multinomial test.

    ``p_value`` is the significance probability ``Pr_s``; ``score`` is the
    paper's ``MT`` statistic (0 when not significant, ``1 - Pr_s`` when
    significant at ``alpha``).
    """

    p_value: float
    alpha: float
    n: int
    support: int
    method: str  # "exact" | "montecarlo" | "degenerate"

    @property
    def significant(self) -> bool:
        """Whether the hypothesis of equal distributions is rejected at ``alpha``."""
        return self.p_value <= self.alpha

    @property
    def score(self) -> float:
        """The paper's ``MT`` statistic: ``1 - p_value`` if significant, else 0."""
        return 1.0 - self.p_value if self.significant else 0.0


def _validate(pi: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    if pi.ndim != 1 or x.ndim != 1:
        raise StatisticsError("pi and x must be 1-D vectors")
    if pi.size != x.size:
        raise StatisticsError(
            f"support mismatch: pi has {pi.size} cells, x has {x.size}"
        )
    if pi.size == 0:
        raise StatisticsError("empty support")
    if (pi < 0).any():
        raise StatisticsError("pi must be non-negative")
    total = float(pi.sum())
    if total <= 0:
        raise StatisticsError("pi must have positive mass")
    if abs(total - 1.0) > 1e-6:
        raise StatisticsError(f"pi must sum to 1 (got {total}); normalize first")
    if (x < 0).any():
        raise StatisticsError("observed counts must be non-negative")
    if total == 1.0:  # x / 1.0 == x bitwise: skip the identity pass
        return pi, x
    return pi / total, x


def log_multinomial_pmf(pi: np.ndarray, x: np.ndarray) -> float:
    """``log Pr(X = x)`` for ``X ~ Mult(sum(x), pi)``; ``-inf`` if impossible."""
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    if ((pi == 0) & (x > 0)).any():
        return float("-inf")
    n = int(x.sum())
    log_p = math.lgamma(n + 1)
    for count, prob in zip(x.tolist(), pi.tolist()):
        if count:
            log_p += count * math.log(prob) - math.lgamma(count + 1)
    return log_p


def number_of_compositions(n: int, k: int) -> int:
    """Number of ways to write ``n`` as an ordered sum of ``k`` non-negatives.

    ``C(n + k - 1, k - 1)`` — the size of the exact test's outcome space.
    """
    if n < 0 or k < 1:
        raise StatisticsError(f"invalid composition parameters n={n}, k={k}")
    return math.comb(n + k - 1, k - 1)


def _iter_compositions(n: int, k: int):
    """Yield all count vectors of length ``k`` summing to ``n`` (as lists).

    The readable reference enumerator; :func:`compositions_array` is its
    vectorized equivalent (the parity test in
    ``tests/test_stats_multinomial.py`` pins them to each other).
    """
    if k == 1:
        yield [n]
        return
    for first in range(n + 1):
        for rest in _iter_compositions(n - first, k - 1):
            yield [first] + rest


def compositions_array(n: int, k: int) -> np.ndarray:
    """All compositions of ``n`` into ``k`` cells as one ``(C, k)`` matrix.

    Built bottom-up over the cell count: level ``j``'s table for mass
    ``m`` is the stack of ``[first, *rest]`` blocks with ``rest`` drawn
    from level ``j - 1``'s table for ``m - first``. Each block lands with
    one numpy slice copy, so the interpreter executes O(n * k) statements
    total instead of touching every one of the ``C(n + k - 1, k - 1) * k``
    output elements. Row order matches :func:`_iter_compositions` exactly.
    The exact test does not use it; it is the enumeration the tests
    check the exact test against.
    """
    if n < 0 or k < 1:
        raise StatisticsError(f"invalid composition parameters n={n}, k={k}")
    tables = [np.array([[m]], dtype=np.int64) for m in range(n + 1)]
    for j in range(2, k + 1):
        masses = range(n + 1) if j < k else (n,)
        level = []
        for m in masses:
            out = np.empty((number_of_compositions(m, j), j), dtype=np.int64)
            pos = 0
            for first in range(m + 1):
                sub = tables[m - first]
                end = pos + sub.shape[0]
                out[pos:end, 0] = first
                out[pos:end, 1:] = sub
                pos = end
            level.append(out)
        tables = level
    return tables[-1]


def exact_multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
) -> MultinomialTestResult:
    """Sum the probability of every outcome at most as likely as ``x``.

    Cells with ``pi == 0`` are left out of the outcome space: any outcome
    placing counts there has probability zero and cannot contribute to
    ``Pr_s``. If the *observed* vector places counts on a zero cell,
    ``Pr(x) = 0`` and ``Pr_s = 0`` (maximal significance) — the "query
    exhibits a value the context never shows" case.

    The outcome space is summed without materialising it: a
    meet-in-the-middle over two halves of the cells (see the module
    docstring) selects exactly the outcomes full enumeration would and
    agrees with it to float rounding. The larger half of ``h`` cells
    still enumerates ``C(N + h, h)`` partial outcomes; past
    :data:`MAX_EXACT_PARTIALS` this raises :class:`StatisticsError`
    instead of allocating them (use :func:`multinomial_test`).
    """
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        # No observations: the test is vacuous, never significant.
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "exact")
    k = int(np.count_nonzero(pi_arr))
    partials = math.comb(n + k - k // 2, n)
    if partials > MAX_EXACT_PARTIALS:
        raise StatisticsError(
            f"exact test over N={n} observations and k={k} cells needs "
            f"{partials:.2e} partial outcomes per half (limit "
            f"{MAX_EXACT_PARTIALS:.0e}); use multinomial_test"
        )
    return _exact_validated(pi_arr, x_arr, n, alpha)


def _exact_validated(
    pi_arr: np.ndarray, x_arr: np.ndarray, n: int, alpha: float
) -> MultinomialTestResult:
    """Exact-test core on pre-validated inputs (see :func:`multinomial_test`).

    ``log Pr(y) = lgamma(n + 1) + sum_i w_i(y_i)`` with the per-cell
    log-weight ``w_i(c) = c log pi_i - lgamma(c + 1)``. Split the cells
    into halves A and B: an outcome is a partial outcome ``a`` of A with
    mass ``m`` and ``b`` of B with mass ``n - m``, and it is counted when
    ``w_B(b) <= threshold - lgamma(n + 1) - w_A(a)``. B's partials are
    sorted within each mass group and their exp-weights prefix-summed, each
    normalised by its group's largest log-weight, so for every ``a`` one
    binary search gives the count of partners and one lookup their summed
    probability. Every exponent is at most 0: ``lgamma(n + 1) + w_A(a) +``
    the group maximum is the log-probability of a real outcome.
    """
    support = np.flatnonzero(pi_arr > 0)
    pi_pos = pi_arr[support]
    threshold = log_multinomial_pmf(pi_pos, x_arr[support]) + LOG_TIE_TOLERANCE
    log_norm = math.lgamma(n + 1)
    lgamma_table = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    weights = np.log(pi_pos)[:, None] * np.arange(n + 1) - lgamma_table
    half = pi_pos.size // 2
    values_a, sizes_a = _partial_log_weights(weights[:half], n)
    values_b, sizes_b = _partial_log_weights(weights[half:], n)

    # Sort B within each mass group by value, via an integer key: mass,
    # then the value's rank among all of B's values.
    mass_b = np.repeat(np.arange(n + 1), sizes_b)
    by_value = np.sort(values_b)
    stride = values_b.size + 1
    keys = mass_b * stride + np.searchsorted(by_value, values_b, side="right")
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values_b = values_b[order]
    ends = np.cumsum(sizes_b)  # B has >= 1 cell, so no mass group is empty
    starts = ends - sizes_b
    top = values_b[ends - 1]
    # prefix[g, c]: summed exp-weight of the c least likely partials of
    # mass g, relative to the group's most likely one.
    prefix = np.zeros((n + 1, int(sizes_b.max()) + 1))
    prefix[mass_b, 1 + np.arange(values_b.size) - starts[mass_b]] = np.exp(
        values_b - top[mass_b]
    )
    np.cumsum(prefix, axis=1, out=prefix)

    partner = np.repeat(np.arange(n, -1, -1), sizes_a)  # B's mass for each a
    cut = np.searchsorted(by_value, (threshold - log_norm) - values_a, side="right")
    counts = np.searchsorted(keys, partner * stride + cut, side="right") - starts[partner]
    total = float(
        np.dot(np.exp(log_norm + values_a + top[partner]), prefix[partner, counts])
    )
    return MultinomialTestResult(min(total, 1.0), alpha, n, pi_arr.size, "exact")


def _partial_log_weights(weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``sum_i w_i(y_i)`` for every partial outcome ``y`` of mass ``<= n``.

    ``weights[i, c]`` is cell ``i``'s log-weight for ``c`` units. Returns
    the values grouped by mass, ascending, and each group's size. No cells
    leave one partial outcome: the empty one, of mass 0. Adding a cell
    builds group ``M`` as the old groups ``M - y`` each shifted by the new
    cell's weight for ``y`` units, ``y = 0..M`` — one gather per cell, so
    the interpreter runs ``O(cells)`` steps, each the size of its output.
    """
    if weights.shape[0] == 0:
        sizes = np.zeros(n + 1, dtype=np.int64)
        sizes[0] = 1
        return np.zeros(1), sizes
    values = weights[0]
    sizes = np.ones(n + 1, dtype=np.int64)
    if weights.shape[0] > 1:
        # Every (M, y) segment with y <= M, by M then y.
        mass, units = np.nonzero(np.arange(n + 1)[:, None] >= np.arange(n + 1))
        source = mass - units
    for row in weights[1:]:
        ends = np.cumsum(sizes)
        lengths = sizes[source]
        out_ends = np.cumsum(lengths)
        # Segment s copies old group source[s], which ends at ends[source[s]].
        take = np.arange(out_ends[-1]) + np.repeat(ends[source] - out_ends, lengths)
        values = values[take] + np.repeat(row[units], lengths)
        sizes = ends
    return values, sizes


def montecarlo_multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
    samples: int = 20_000,
    rng: RandomSource = None,
) -> MultinomialTestResult:
    """Estimate ``Pr_s`` from ``samples`` multinomial draws.

    Uses the add-one estimator ``(hits + 1) / (samples + 1)`` which is never
    zero — the exact ``Pr_s`` cannot be zero either when ``Pr(x) > 0``
    (the observed outcome itself is always counted).
    """
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "montecarlo")
    return _montecarlo_validated(pi_arr, x_arr, n, alpha, samples, rng)


def _montecarlo_validated(
    pi_arr: np.ndarray,
    x_arr: np.ndarray,
    n: int,
    alpha: float,
    samples: int,
    rng: RandomSource,
) -> MultinomialTestResult:
    """Monte-Carlo core on pre-validated inputs (see :func:`multinomial_test`).

    ``x`` must place no count on a zero cell. The sampler depends only on
    ``n`` and the number ``k`` of positive cells: with fewer observations
    than cells (``n < k``) a draw is ``n`` categorical cell indices
    (:func:`_categorical_log_pmfs`), otherwise a dense ``k``-cell count
    vector (:func:`_dense_log_pmfs`).
    """
    if samples < 1:
        raise StatisticsError(f"samples must be >= 1, got {samples}")
    positive = pi_arr > 0
    # A zero cell is never drawn; log-weight 0 keeps the dense sampler's
    # ``0 * log 0`` terms at 0.
    log_pi = np.log(pi_arr, out=np.zeros_like(pi_arr), where=positive)
    sample = _categorical_log_pmfs if n < np.count_nonzero(positive) else _dense_log_pmfs
    log_probs = sample(ensure_numpy_rng(rng), pi_arr, log_pi, n, samples)
    threshold = log_multinomial_pmf(pi_arr, x_arr) + LOG_TIE_TOLERANCE
    hits = int(np.count_nonzero(log_probs <= threshold))
    p_value = (hits + 1) / (samples + 1)
    return MultinomialTestResult(min(p_value, 1.0), alpha, n, pi_arr.size, "montecarlo")


def _dense_log_pmfs(
    generator: np.random.Generator, pi: np.ndarray, log_pi: np.ndarray, n: int, samples: int
) -> np.ndarray:
    """Log-probabilities of ``samples`` draws, each a count vector over every cell."""
    draws = generator.multinomial(n, pi, size=samples)
    return math.lgamma(n + 1) + draws @ log_pi - _lgamma_rows(draws)


def _categorical_log_pmfs(
    generator: np.random.Generator, pi: np.ndarray, log_pi: np.ndarray, n: int, samples: int
) -> np.ndarray:
    """Log-probabilities of ``samples`` draws, each ``n`` categorical cell indices.

    ``log Pr(y) = lgamma(n + 1) + sum_j log pi[c_j] - sum_i lgamma(y_i + 1)``
    for a draw's sorted cells ``c_1 <= ... <= c_n``, without a count
    vector: the ``r``-th copy of a cell in a draw has run-rank ``r``, and
    the log run-ranks of a cell's ``y_i`` copies sum to ``lgamma(y_i + 1)``.
    The draws are scored column by column, all ``samples`` at once: step
    ``j`` adds ``log pi[c_j]`` and the log of ``c_j``'s run-rank, which is
    one more than ``c_{j-1}``'s when the two cells are equal and 1
    otherwise. So ``n - 1`` vector steps score every draw.
    """
    columns = _categorical_cells(generator, pi, n, samples).T
    log_rank = np.log(np.arange(1, n + 1))
    log_pis = log_pi.take(columns[0])
    log_ranks = np.zeros(samples)
    rank = np.zeros(samples, dtype=np.intp)  # run-rank minus one
    for j in range(1, n):
        rank += 1
        rank *= columns[j] == columns[j - 1]
        log_pis += log_pi.take(columns[j])
        log_ranks += log_rank.take(rank)
    return math.lgamma(n + 1) + log_pis - log_ranks


def _categorical_cells(
    generator: np.random.Generator, pi: np.ndarray, n: int, samples: int
) -> np.ndarray:
    """``samples`` rows of ``n`` cell indices drawn from ``pi``, each row sorted.

    Inverse-CDF sampling: a uniform ``u`` picks the first cell whose
    cumulative mass exceeds the key ``u * total``. A zero cell spans an
    empty interval of the CDF, so it is never picked. The pick is
    monotone in ``u``, so sorting each row's uniforms sorts its cells.

    The pick is looked up in a guide table (Chen & Asau, 1974) of
    :data:`GUIDE_BUCKETS_PER_CELL` buckets per cell, equal slices of
    ``[0, total)``. A bucket holds the first cell whose cumulative mass
    exceeds the bucket's lower edge, and a key takes its bucket's cell
    as a candidate. Every cell before the candidate ends at or below the
    edge, and so at or below the key; the candidate is therefore the
    pick whenever it ends above the key. Only the keys whose candidate
    ends at or below them, a few percent, are binary-searched. Each edge
    is nudged down by far more than the roundings in a key's bucket
    index, so it never lies above a key in its bucket. The result is the
    same cells as ``searchsorted(cdf, u * total, side="right")``.

    The rows are returned as the transpose of a C-contiguous
    ``(n, samples)`` matrix, the layout :func:`_categorical_log_pmfs`
    scores column by column.
    """
    cdf = np.cumsum(pi)
    total = cdf[-1]
    buckets = GUIDE_BUCKETS_PER_CELL * pi.size
    edges = np.arange(buckets) * (total / buckets) * (1.0 - 2.0**-40)
    guide = np.searchsorted(cdf, edges, side="right")
    uniforms = generator.random((samples, n))
    uniforms.sort(axis=1)
    keys = np.multiply(uniforms.T, total, order="C")
    bucket = np.multiply(
        keys, buckets / total, out=np.empty(keys.shape, dtype=np.intp), casting="unsafe"
    )
    # A key within a rounding of ``total`` can land one past the last
    # bucket; "clip" puts it in the last one.
    cells = guide.take(bucket, mode="clip")
    miss = np.flatnonzero(cdf.take(cells) <= keys)
    cells.reshape(-1)[miss] = np.searchsorted(cdf, keys.reshape(-1)[miss], side="right")
    return cells.T


def _lgamma_rows(draws: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(lgamma(count + 1))`` for integer draw matrices."""
    max_count = int(draws.max(initial=0))
    table = np.array([math.lgamma(i + 1) for i in range(max_count + 1)])
    return table[draws].sum(axis=1)


def multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
    max_exact_outcomes: int = 200_000,
    samples: int = 20_000,
    rng: RandomSource = None,
) -> MultinomialTestResult:
    """Exact test when the outcome space is tractable, else Monte-Carlo.

    The outcome space has ``C(N + k - 1, k - 1)`` points for ``N``
    observations over ``k`` positive-probability cells; beyond
    ``max_exact_outcomes`` the Monte-Carlo estimator takes over (the
    paper's footnote 1).
    """
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "exact")
    if number_of_compositions(n, int(np.count_nonzero(pi_arr))) <= max_exact_outcomes:
        return _exact_validated(pi_arr, x_arr, n, alpha)
    return _montecarlo_validated(pi_arr, x_arr, n, alpha, samples, rng)
