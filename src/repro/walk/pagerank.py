"""Personalized PageRank (Equation 2) via sparse power iteration.

``p = c * A~ * p + (1 - c) * v`` with ``A~`` the column-stochastic matrix of
:func:`repro.graph.matrix.transition_matrix` and ``v`` the personalization
vector. The experiments of the paper run power iteration ("instead of the
matrix multiplication we used the more scalable power iteration method",
10 iterations); we support both a fixed iteration count and a convergence
tolerance.

On the damping factor: Section 3.1 states 0.8 while Section 4 states 0.2.
With this equation's convention (``c`` multiplies the *walk* term), 0.8 is
the standard reading, so 0.8 is the default; the parameter is exposed for
ablation.

Paper cross-reference (Mottin et al., EDBT 2018):

* **Equation 1** (the weighted adjacency ``A_ij = 1 - |E_l|/|E|``) —
  built in :func:`repro.graph.matrix.weighted_adjacency` from the
  compiled snapshot's precomputed ``label_weights``.
* **Equation 2 / Section 3.1, RandomWalk baseline** — "we compute the
  PageRank starting from each node in the query ... by setting v_n = 1
  for each n in Q, individually": :meth:`PersonalizedPageRank.scores_per_node`
  (one personalization column per query node, summed); the scipy
  backend batches the columns into :func:`power_iteration_batch`.
* **"the more scalable power iteration method", 10 iterations** —
  :func:`power_iteration` with ``iterations=10`` as the default.
* **Figure 5 cost profile** — :func:`power_iteration_python` keeps the
  interpreted per-query-node sweep so the runtime comparison against
  ContextRW pays the same per-edge interpreter costs as the paper's
  Java/Jena implementation.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.graph.matrix import (
    _label_weight_array,
    personalization_vector,
    transition_matrix,
    weighted_adjacency,
)
from repro.graph.model import KnowledgeGraph


def _dangling_columns(transition: sparse.csr_matrix) -> np.ndarray:
    """Indices of the dangling nodes (zero columns of ``T``).

    The dangling leak of one step is the mass currently sitting on these
    nodes: ``sum(T @ p) = sum(p) - sum(p[dangling])`` because every other
    column of the (column-stochastic) transition transports its mass.
    Summing ``p`` over this usually-small index set replaces a full pass
    over the iterate — the dominant non-matmul cost of the batched sweep.
    """
    return np.flatnonzero(np.asarray(transition.sum(axis=0)).ravel() == 0.0)


def _damped_transition(
    transition: sparse.csr_matrix, damping: float
) -> sparse.csr_matrix:
    """``damping * T`` as a CSR sharing ``T``'s index arrays.

    Folding the damping factor into the matrix data once per call turns
    the per-iteration update into ``p <- (cT) @ p + teleport`` — one
    sparse multiply and one dense add — instead of scaling the dense
    ``(n, q)`` iterate by ``c`` every step. Only the data vector is
    copied (one pass over ``nnz``); ``indices``/``indptr`` are shared.
    """
    return sparse.csr_matrix(
        (transition.data * damping, transition.indices, transition.indptr),
        shape=transition.shape,
        copy=False,
    )


def power_iteration(
    transition: sparse.csr_matrix,
    personalization: np.ndarray,
    *,
    damping: float = 0.8,
    iterations: int = 10,
    tolerance: float | None = None,
) -> np.ndarray:
    """Iterate ``p <- c*T*p + (1-c)*v`` from ``p = v``.

    Mass lost through dangling nodes (zero columns of ``T``) is re-injected
    through ``v``, the standard correction keeping ``p`` a distribution; the
    leak is measured directly as ``p``'s mass on the dangling set (see
    :func:`_dangling_columns`). When ``tolerance`` is given, iteration
    stops early once the L1 change falls below it.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    v = np.asarray(personalization, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != transition.shape[0]:
        raise ValueError("personalization vector shape mismatch")
    total = v.sum()
    if total <= 0:
        raise ValueError("personalization vector must have positive mass")
    if total != 1.0:  # x / 1.0 == x bitwise: skip the identity pass
        v = v / total
    dangling = _dangling_columns(transition)
    walk = _damped_transition(transition, damping)
    teleport = (1.0 - damping) * v  # loop-invariant
    v_damped = damping * v if dangling.size else None
    # Every step rebinds ``p`` to the fresh matmul output, never writes
    # into it, so the personalization vector needs no defensive copy.
    p = v
    for _ in range(iterations):
        new_p = walk @ p
        if dangling.size:  # dangling leak: p's mass on the dangling set
            new_p += v_damped * p[dangling].sum()
        new_p += teleport
        if tolerance is not None and np.abs(new_p - p).sum() < tolerance:
            p = new_p
            break
        p = new_p
    return p


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-column sums whose bit pattern does not depend on matrix width.

    Whole-matrix reductions (``sum(axis=0)``, ``ones @ M``, ``einsum``) pick
    their pairwise-summation blocking from the memory layout, so a column's
    sum changes at the last ulp depending on how many other columns ride
    along in the same C-order matrix. Reducing each column from a contiguous
    1-D copy makes the blocking a function of ``n`` alone — which is what
    lets cross-request micro-batches (extra columns appended by other
    queries) stay bit-identical to a solo run of the same columns.
    """
    out = np.empty(matrix.shape[1], dtype=np.float64)
    for j in range(matrix.shape[1]):
        out[j] = np.ascontiguousarray(matrix[:, j]).sum()
    return out


def power_iteration_batch(
    transition: sparse.csr_matrix,
    personalizations: np.ndarray,
    *,
    damping: float = 0.8,
    iterations: int = 10,
    tolerance: float | None = None,
) -> np.ndarray:
    """Multi-column power iteration: one ``T @ P`` per step for all columns.

    ``personalizations`` is ``(n, q)`` — one personalization vector per
    column. Returns the ``(n, q)`` matrix of PPR vectors, each column equal
    (within float noise) to :func:`power_iteration` run on it alone: the
    dangling-mass correction is applied per column, and with ``tolerance``
    each column freezes at its own convergence step, exactly as the
    single-column loop would have stopped there.

    One sparse mat-mat multiply per step replaces ``q`` mat-vec sweeps —
    the batching behind :meth:`PersonalizedPageRank.scores_per_node`.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    v = np.asarray(personalizations, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != transition.shape[0]:
        raise ValueError("personalization matrix shape mismatch")
    restart_rows, restart_cols = np.nonzero(v)
    width = v.shape[1]
    column_nnz = np.bincount(restart_cols, minlength=width)
    sparse_restarts = int(column_nnz.max(initial=0)) <= 2
    if sparse_restarts:
        # Personalization columns are almost always one or two restart
        # nodes in a sea of exact zeros. Adding zero is exact and a sum
        # of <= 2 nonzeros has one order, so accumulating just the
        # nonzero entries lands on the same bits as the per-column
        # pairwise sums — skipping _column_sums's per-column strided
        # copies (np.add.at visits entries in row-major = in-column
        # order).
        totals = np.zeros(width, dtype=np.float64)
        np.add.at(totals, restart_cols, v[restart_rows, restart_cols])
    else:
        totals = _column_sums(v)
    if np.any(totals <= 0):
        raise ValueError("every personalization column must have positive mass")
    if not np.all(totals == 1.0):  # x / 1.0 == x bitwise: skip the pass
        v = v / totals
    dangling = _dangling_columns(transition)
    walk = _damped_transition(transition, damping)
    # No iteration writes into ``p`` (each step binds it to the fresh
    # matmat output), so the initial personalizations need no copy.
    p = v
    if sparse_restarts and tolerance is None and not dangling.size:
        # The serving path: no dangling mass to re-inject, no per-column
        # convergence bookkeeping, and a teleport matrix that is zero
        # everywhere but the restart entries. Every walk value is
        # non-negative (probabilities), so adding teleport's zeros is the
        # identity bit-for-bit — scattering just the restart entries
        # replaces a dense (n, q) read-add-write per step with a handful
        # of element updates, leaving ``T @ P`` as the whole iteration
        # (the dense teleport matrix is never materialised).
        values = (1.0 - damping) * v[restart_rows, restart_cols]
        for _ in range(iterations):
            walked = walk @ p
            walked[restart_rows, restart_cols] += values
            p = walked
        return p
    frozen = np.zeros(width, dtype=bool)
    teleport = (1.0 - damping) * v  # loop-invariant
    v_damped = damping * v if dangling.size else None
    scratch = np.empty_like(v)
    for _ in range(iterations):
        walked = walk @ p
        if dangling.size:
            # Dangling leak per column: p's mass on the dangling set. The
            # (d, q) gather keeps the reduction shape a function of d
            # alone, so each column's sum is bit-identical to the width-1
            # run of the same column — no full-matrix reduction needed.
            np.multiply(v_damped, _column_sums(p[dangling]), out=scratch)
            walked += scratch
        walked += teleport
        if tolerance is not None:
            if frozen.any():
                walked[:, frozen] = p[:, frozen]
            np.subtract(walked, p, out=scratch)
            np.abs(scratch, out=scratch)
            deltas = _column_sums(scratch)
            p = walked
            frozen |= deltas < tolerance
            if frozen.all():
                break
        else:
            p = walked
    return p


def personalized_pagerank(
    graph: KnowledgeGraph,
    nodes: "list[int] | tuple[int, ...]",
    *,
    damping: float = 0.8,
    iterations: int = 10,
    tolerance: float | None = None,
) -> np.ndarray:
    """One-shot PPR personalized on ``nodes`` (uniform restart over them)."""
    transition = transition_matrix(graph)
    v = personalization_vector(graph, nodes)
    return power_iteration(
        transition, v, damping=damping, iterations=iterations, tolerance=tolerance
    )


def power_iteration_python(
    graph: KnowledgeGraph,
    personalization: np.ndarray,
    *,
    damping: float = 0.8,
    iterations: int = 10,
    statistics=None,
) -> np.ndarray:
    """Pure-Python power iteration sweeping the adjacency lists directly.

    Functionally equivalent to :func:`power_iteration` (same fixed point up
    to float noise) but with the cost profile of the paper's Java/Jena
    implementation: every iteration touches every edge with interpreted
    code, no vectorization. The Figure-5 runtime comparison uses this
    backend so that both algorithms pay interpreter-level costs (see
    DESIGN.md / EXPERIMENTS.md); library users get the scipy backend by
    default.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.node_count
    v = np.asarray(personalization, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError("personalization vector shape mismatch")
    total = v.sum()
    if total <= 0:
        raise ValueError("personalization vector must have positive mass")
    v = v / total
    adjacency = graph._out_adjacency()  # noqa: SLF001 - internal fast path
    # Per-label weights and per-node out-weight normalizers come from the
    # version-keyed compiled snapshot — computed once per graph version
    # instead of re-derived on every call (one full adjacency pass saved
    # per query node). An explicitly passed ``statistics`` overrides the
    # snapshot's Equation-1 weights.
    compiled = graph._compiled()  # noqa: SLF001 - internal fast path
    weight_arr = _label_weight_array(graph, statistics)
    if statistics is not None:
        out_weight = np.bincount(
            compiled.sources,
            weights=weight_arr[compiled.label_ids],
            minlength=n,
        ).tolist()
    else:
        out_weight = compiled.out_weight.tolist()
    weight_of_label_id = weight_arr.tolist()
    p = v.copy()
    for _ in range(iterations):
        new_p = np.zeros(n, dtype=np.float64)
        for node in range(n):
            mass = p[node]
            if mass <= 0.0:
                continue
            denom = out_weight[node]
            if denom <= 0.0:
                continue  # dangling: handled by leak re-injection below
            scale = mass / denom
            for label_id, targets in adjacency[node].items():
                w = weight_of_label_id[label_id] * scale
                for target in targets:
                    new_p[target] += w
        lost = 1.0 - new_p.sum()
        p = damping * (new_p + lost * v) + (1.0 - damping) * v
    return p


def _personalization_columns(n: int, nodes: "list[int] | tuple[int, ...]") -> np.ndarray:
    """``(n, len(nodes))`` — one unit personalization column per node.

    The shared validate-and-build step of :meth:`PersonalizedPageRank.scores`
    / :meth:`~PersonalizedPageRank.scores_per_node`. ``n`` comes from the
    (possibly pinned) transition matrix, not the live graph, so pinned
    runners stay within the pinned node set.
    """
    if len(nodes) == 0:
        raise ValueError("need at least one personalization node")
    v = np.zeros((n, len(nodes)), dtype=np.float64)
    for column, node in enumerate(nodes):
        if not 0 <= node < n:
            raise ValueError(f"node id out of range: {node}")
        v[node, column] = 1.0
    return v


def _top_order(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of (at least) the ``m`` largest scores, best first.

    An ``argpartition`` prefilter replaces the full ``argsort`` of the old
    top-k path: only the candidate set (the ``m + 1`` largest values plus
    any ties at the boundary) is actually sorted. Ordering is identical to
    ``np.argsort(-scores, kind="stable")`` truncated to those candidates —
    ties keep ascending-index order — so consumers that stop after ``m``
    positive entries see exactly the same sequence.
    """
    n = scores.shape[0]
    if m >= n:
        return np.argsort(-scores, kind="stable")
    top = np.argpartition(-scores, m)[: m + 1]
    floor = scores[top].min()
    if floor > 0:
        # Include every tie at the boundary so tie-breaking matches the
        # stable full sort instead of argpartition's arbitrary choice.
        candidates = np.nonzero(scores >= floor)[0]
    else:
        # The m+1 largest values already reach <= 0, so all positive
        # scores are candidates (consumers ignore the rest anyway).
        candidates = np.nonzero(scores > 0)[0]
    return candidates[np.argsort(-scores[candidates], kind="stable")]


def _rank_top_k(
    scores: np.ndarray, k: int, excluded: "set[int] | frozenset[int]"
) -> list[tuple[int, float]]:
    """Rank ``scores`` into the top-``k`` list, skipping ``excluded``.

    Shared by :meth:`PersonalizedPageRank.top_k` and
    :meth:`PersonalizedPageRank.top_k_many` so the solo and micro-batched
    paths rank through literally the same code.
    """
    order = _top_order(scores, k + len(excluded))
    out: list[tuple[int, float]] = []
    for node in order:
        node = int(node)
        if node in excluded:
            continue
        if scores[node] <= 0:
            break
        out.append((node, float(scores[node])))
        if len(out) == k:
            break
    return out


class PersonalizedPageRank:
    """Reusable PPR runner caching the transition matrix per graph version.

    The RandomWalk baseline of the paper runs one PPR per query node; this
    class amortizes the (dominant) matrix construction across those runs.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        damping: float = 0.8,
        iterations: int = 10,
        tolerance: float | None = None,
        backend: str = "scipy",
        pin: bool = False,
    ) -> None:
        if backend not in ("scipy", "python"):
            raise ValueError(f"backend must be 'scipy' or 'python', got {backend!r}")
        self._graph = graph
        self.damping = damping
        self.iterations = iterations
        self.tolerance = tolerance
        self.backend = backend
        #: With ``pin=True`` the transition matrix is built once (at the
        #: graph version current on first use) and never invalidated — the
        #: query service pins one runner per graph version so in-flight
        #: requests keep a consistent matrix while writers mutate the graph.
        self.pin = pin
        self._transition: sparse.csr_matrix | None = None
        self._version = -1

    @property
    def graph(self) -> KnowledgeGraph:
        """The graph whose transition matrix this runner walks."""
        return self._graph

    def transition(self) -> sparse.csr_matrix:
        """The column-stochastic transition matrix, built on first use.

        Rebuilt when the graph's version moves, unless the runner is
        pinned, in which case the first matrix is kept for good.
        """
        if self._transition is not None and (
            self.pin or self._graph.version == self._version
        ):
            return self._transition
        adjacency = weighted_adjacency(self._graph)
        self._transition = transition_matrix(self._graph, adjacency=adjacency)
        self._version = self._graph.version
        return self._transition

    def adopt_transition(self, matrix: sparse.csr_matrix) -> None:
        """Install a prebuilt frozen transition matrix (requires ``pin=True``).

        The zero-build warm path: the disk store persists the pinned
        transition's CSR triple in the snapshot file, so workers and
        cold-started servers hand the matrix in here instead of paying a
        :func:`~repro.graph.matrix.weighted_adjacency` rebuild. Only a
        pinned runner may adopt — an unpinned one would keep serving the
        adopted matrix across graph mutations.
        """
        if not self.pin:
            raise ValueError("adopt_transition requires a pinned runner (pin=True)")
        n = self._graph.node_count
        if matrix.shape != (n, n):
            raise ValueError(
                f"transition matrix shape {matrix.shape} does not match the "
                f"graph's {n} nodes"
            )
        self._transition = matrix
        self._version = self._graph.version

    def scores(self, nodes: "list[int] | tuple[int, ...]") -> np.ndarray:
        """PPR vector personalized on ``nodes`` jointly."""
        if self.backend == "python":
            v = personalization_vector(self._graph, list(nodes))
            return power_iteration_python(
                self._graph, v, damping=self.damping, iterations=self.iterations
            )
        transition = self.transition()
        v = _personalization_columns(transition.shape[0], list(nodes)).sum(axis=1)
        return power_iteration(
            transition,
            v,
            damping=self.damping,
            iterations=self.iterations,
            tolerance=self.tolerance,
        )

    def scores_per_node(self, nodes: "list[int] | tuple[int, ...]") -> np.ndarray:
        """Sum of per-query-node PPR vectors (the paper's protocol).

        "We compute the PageRank starting from each node in the query ...
        by setting v_n = 1 for each n in Q, individually." The per-node
        vectors are summed into one ranking (the combination rule is left
        unspecified in the paper; summation is order-invariant and reduces
        to the single-node case for |Q| = 1).

        On the scipy backend the per-node runs execute as one multi-column
        power iteration (:func:`power_iteration_batch`): a single ``T @ P``
        sweep per step regardless of |Q|. The python backend keeps the
        per-node loop — it exists to model the paper's per-query-node
        interpreted cost profile (Figure 5).
        """
        if len(nodes) == 0:
            raise ValueError("need at least one personalization node")
        if self.backend == "python":
            total = np.zeros(self._graph.node_count, dtype=np.float64)
            for node in nodes:
                total += self.scores([node])
            return total
        # As in :meth:`scores`, the pinned matrix defines the node space.
        transition = self.transition()
        v = _personalization_columns(transition.shape[0], list(nodes))
        p = power_iteration_batch(
            transition,
            v,
            damping=self.damping,
            iterations=self.iterations,
            tolerance=self.tolerance,
        )
        return p.sum(axis=1)

    def top_k(
        self,
        nodes: "list[int] | tuple[int, ...]",
        k: int,
        *,
        exclude: "set[int] | frozenset[int] | None" = None,
        per_node: bool = True,
    ) -> list[tuple[int, float]]:
        """The ``k`` highest-scoring nodes, excluding ``exclude`` (usually Q)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        scores = self.scores_per_node(nodes) if per_node else self.scores(nodes)
        excluded = exclude if exclude is not None else set(nodes)
        return _rank_top_k(scores, k, excluded)

    def top_k_many(
        self,
        node_groups: "list[list[int] | tuple[int, ...]]",
        ks: "list[int]",
        *,
        excludes: "list[set[int] | frozenset[int] | None] | None" = None,
    ) -> list[list[tuple[int, float]]]:
        """Batched :meth:`top_k`: one shared power iteration for many queries.

        Concatenates the per-query-node personalization columns of every
        group into a single :func:`power_iteration_batch` call — one sparse
        ``T @ P`` sweep per step regardless of how many queries ride along —
        then ranks each group independently through :func:`_rank_top_k`.
        On the scipy backend the result is bit-identical to calling
        :meth:`top_k` once per group (see :func:`_column_sums` for why the
        extra columns cannot perturb a member's scores).
        """
        if len(ks) != len(node_groups):
            raise ValueError("node_groups and ks must have the same length")
        if excludes is None:
            excludes = [None] * len(node_groups)
        elif len(excludes) != len(node_groups):
            raise ValueError("node_groups and excludes must have the same length")
        for k in ks:
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
        if not node_groups:
            return []
        if self.backend == "python":
            return [
                self.top_k(group, k, exclude=exclude)
                for group, k, exclude in zip(node_groups, ks, excludes)
            ]
        transition = self.transition()
        n = transition.shape[0]
        # k == 0 groups contribute no columns: top_k answers them without
        # computing scores, and the batch must not pay for them either.
        spans: list[tuple[int, int] | None] = []
        pooled_nodes: list[tuple[int, list[int]]] = []
        offset = 0
        for group, k in zip(node_groups, ks):
            if k == 0:
                spans.append(None)
                continue
            nodes = list(group)
            if len(nodes) == 0:
                raise ValueError("need at least one personalization node")
            pooled_nodes.append((offset, nodes))
            spans.append((offset, offset + len(nodes)))
            offset += len(nodes)
        if offset:
            # Fill the pooled personalization matrix directly — same
            # entries as per-group _personalization_columns stacked with
            # np.concatenate, without materialising the copies twice.
            pooled = np.zeros((n, offset), dtype=np.float64)
            for start, nodes in pooled_nodes:
                for column, node in enumerate(nodes):
                    if not 0 <= node < n:
                        raise ValueError(f"node id out of range: {node}")
                    pooled[node, start + column] = 1.0
            p = power_iteration_batch(
                transition,
                pooled,
                damping=self.damping,
                iterations=self.iterations,
                tolerance=self.tolerance,
            )
        results: list[list[tuple[int, float]]] = []
        for span, group, k, exclude in zip(spans, node_groups, ks, excludes):
            if span is None:
                results.append([])
                continue
            lo, hi = span
            if hi - lo == 1:
                # Row sums of an (n, 1) matrix are the column itself, so
                # the single-node case (the common service query) skips
                # the reduction pass entirely — bit pattern unchanged.
                scores = np.ascontiguousarray(p[:, lo])
            elif hi - lo == 2:
                # Two addends have a single summation order, so the
                # binary add equals the row-sum bit-for-bit — and a
                # strided binary add runs ~4x faster than numpy's
                # strided reduction over the same cache lines.
                scores = p[:, lo] + p[:, lo + 1]
            elif hi - lo <= 8:
                # Up to 8 addends sit below numpy's pairwise block size,
                # so reducing the strided view row-by-row adds the same
                # elements in the same order as a contiguous copy would —
                # without materialising the copy (whose strided gather
                # from the wide batch matrix costs a cache line per
                # element, a batch-only penalty a solo run never pays).
                scores = p[:, lo:hi].sum(axis=1)
            else:
                # The contiguous copy makes the row-sum blocking match a
                # solo run's C-contiguous (n, |Q|) result exactly.
                scores = np.ascontiguousarray(p[:, lo:hi]).sum(axis=1)
            excluded = exclude if exclude is not None else set(group)
            results.append(_rank_top_k(scores, k, excluded))
        return results
