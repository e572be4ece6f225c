"""Experiment runners — one per table / figure of Section 4.

Every runner returns a :class:`repro.util.tables.Table` whose rows mirror
what the paper plots, so the benchmarks can both print paper-shaped output
and assert the qualitative claims (who wins, which labels are notable).

Common knobs live in :class:`ExperimentSetting`; the defaults are sized
for laptop runs (synthetic YAGO at scale 2 ~= 4k nodes / 30k edges).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.context import ContextRW, ContextSelector, RandomWalkContext
from repro.core.discrimination import (
    EMDDiscriminator,
    KLDiscriminator,
    MultinomialDiscriminator,
)
from repro.core.distributions import build_distributions
from repro.core.findnc import FindNC, rw_mult
from repro.datasets.groundtruth import CrowdSimulator, GroundTruth
from repro.datasets.loader import load_dataset
from repro.datasets.seeds import (
    ACTORS_DOMAIN,
    AUTHORS_QUERY,
    TABLE1_DOMAINS,
    QueryDomain,
    domain_by_name,
)
from repro.errors import ExperimentError
from repro.eval.metrics import best_f1, f1_at, kendall_switches, mean
from repro.graph.model import KnowledgeGraph
from repro.graph.search import EntityIndex
from repro.stats.histograms import counts_to_probabilities
from repro.util.rng import ensure_rng
from repro.util.tables import Table

#: The damping factor the paper's *experiments* use for the RandomWalk
#: baseline ("we set ... the damping factor c = 0.2", Section 4).
BASELINE_DAMPING = 0.2


@dataclass(frozen=True)
class ExperimentSetting:
    """Shared experiment configuration."""

    dataset: str = "yago"
    scale: float = 2.0
    graph_seed: int = 7
    crowd_seed: int = 3
    algorithm_seed: int = 11
    domain: str = "actors"
    pagerank_backend: str = "scipy"

    def graph(self) -> KnowledgeGraph:
        return load_dataset(self.dataset, scale=self.scale, seed=self.graph_seed)

    def domain_spec(self) -> QueryDomain:
        return domain_by_name(self.domain)

    def with_dataset(self, dataset: str) -> "ExperimentSetting":
        return replace(self, dataset=dataset)


# -- shared plumbing -----------------------------------------------------------

_GT_CACHE: dict[tuple, GroundTruth] = {}


def ground_truth_for(
    setting: ExperimentSetting, graph: KnowledgeGraph, query: tuple[int, ...]
) -> GroundTruth:
    """Crowd ground truth for ``query`` (memoized per graph + seed)."""
    key = (id(graph), setting.crowd_seed, query)
    cached = _GT_CACHE.get(key)
    if cached is None:
        simulator = CrowdSimulator(graph, rng=setting.crowd_seed)
        cached = simulator.simulate(query)
        _GT_CACHE[key] = cached
    return cached


def resolve_domain_queries(
    graph: KnowledgeGraph, domain: QueryDomain, *, minimum: int = 2
) -> list[tuple[int, ...]]:
    """The nested query-node sets (|Q| = 2..6) of one Table-1 domain."""
    index = EntityIndex(graph)
    out = []
    for names in domain.nested_queries(minimum=minimum):
        try:
            out.append(tuple(index.resolve(name) for name in names))
        except Exception as exc:  # entity missing from this dataset
            raise ExperimentError(
                f"domain {domain.name!r} is not fully present in {graph.name}: {exc}"
            ) from exc
    return out


def make_selectors(
    setting: ExperimentSetting, graph: KnowledgeGraph
) -> dict[str, ContextSelector]:
    """The two context algorithms under the paper's experimental settings."""
    return {
        "ContextRW": ContextRW(graph, rng=setting.algorithm_seed),
        "RandomWalk": RandomWalkContext(
            graph,
            damping=BASELINE_DAMPING,
            iterations=10,
            backend=setting.pagerank_backend,
        ),
    }


# -- Table 1 -------------------------------------------------------------------

def domains_table(setting: ExperimentSetting | None = None) -> Table:
    """Table 1: the query entities per domain, with resolution stats."""
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    index = EntityIndex(graph)
    table = Table(
        ["domain", "entity", "resolved", "out_degree"],
        title="Table 1: entities in the three evaluation domains",
    )
    for domain in TABLE1_DOMAINS:
        for name in domain.entities:
            matches = index.lookup(name)
            degree = graph.out_degree(matches[0]) if matches else 0
            table.add_row([domain.name, name, bool(matches), degree])
    return table


# -- Figures 2 and 3: F1 vs context size ----------------------------------------

def context_size_sweep(
    setting: ExperimentSetting | None = None,
    *,
    context_sizes: Sequence[int] = (10, 25, 50, 100, 150, 200, 300, 400),
    min_query_size: int = 2,
) -> Table:
    """Figure 2: F1 at each |C| for every nested query of the domain.

    Rows: (algorithm, |Q|, |C|, F1). Figure 3 is the per-(algorithm, |C|)
    average of these rows — see :func:`average_f1_by_context_size`.
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    queries = resolve_domain_queries(
        graph, setting.domain_spec(), minimum=min_query_size
    )
    selectors = make_selectors(setting, graph)
    max_size = max(context_sizes)
    table = Table(
        ["algorithm", "query_size", "context_size", "f1"],
        title=f"Figure 2: F1 vs |C| ({setting.domain}, {setting.dataset})",
    )
    for query in queries:
        truth = ground_truth_for(setting, graph, query)
        for name, selector in selectors.items():
            result = selector.select(query, max_size)
            for size in context_sizes:
                table.add_row(
                    [name, len(query), size, f1_at(result.nodes, truth.entities, size)]
                )
    return table


def average_f1_by_context_size(sweep: Table) -> Table:
    """Figure 3: average the Figure-2 rows over the query sets."""
    accumulator: dict[tuple[str, int], list[float]] = {}
    for algorithm, _query_size, context_size, f1 in sweep.rows:
        accumulator.setdefault((algorithm, context_size), []).append(f1)
    table = Table(
        ["algorithm", "context_size", "avg_f1"],
        title="Figure 3: average F1 vs |C|",
    )
    for (algorithm, context_size), values in sorted(accumulator.items()):
        table.add_row([algorithm, context_size, mean(values)])
    return table


# -- Figure 4: F1 vs query size ---------------------------------------------------

def query_size_sweep(
    setting: ExperimentSetting | None = None,
    *,
    context_sizes: Sequence[int] = (50, 100),
    domains: Sequence[str] | None = None,
) -> Table:
    """Figure 4: average F1 vs |Q| at fixed context sizes.

    Averages across the requested domains (defaults to every Table-1
    domain present in the dataset).
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    domain_names = list(domains) if domains is not None else [
        d.name for d in TABLE1_DOMAINS
    ]
    selectors = make_selectors(setting, graph)
    max_size = max(context_sizes)
    # accumulate per (algorithm, |C|, |Q|)
    accumulator: dict[tuple[str, int, int], list[float]] = {}
    for domain_name in domain_names:
        queries = resolve_domain_queries(graph, domain_by_name(domain_name))
        for query in queries:
            truth = ground_truth_for(setting, graph, query)
            for name, selector in selectors.items():
                result = selector.select(query, max_size)
                for size in context_sizes:
                    accumulator.setdefault((name, size, len(query)), []).append(
                        f1_at(result.nodes, truth.entities, size)
                    )
    table = Table(
        ["algorithm", "context_size", "query_size", "avg_f1"],
        title="Figure 4: average F1 vs |Q|",
    )
    for key in sorted(accumulator):
        table.add_row([key[0], key[1], key[2], mean(accumulator[key])])
    return table


# -- Figure 5: time vs query size ---------------------------------------------------

#: ``select`` calls per point of the timing figures (5 and 6). One call
#: on a shared host swings by more than the shapes the paper claims; the
#: median of several does not.
TIMING_REPEATS = 5


def _timed_selects(points: list, repeats: int) -> list:
    """``[median, repeats, q1, q3]`` seconds per ``(make_selector, query,
    context_size)`` point, over ``repeats`` ``select`` calls each.

    The calls are interleaved: each round times one call per point, so a
    slow spell on the host lands on every point alike instead of on one
    point's whole block. Each call gets a fresh selector from
    ``make_selector``, seeded the same way, so every repeat does the same
    work and only the host's noise differs between them.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    seconds: "list[list[float]]" = [[] for _ in points]
    for _ in range(repeats):
        for samples, (make_selector, query, context_size) in zip(seconds, points):
            selector = make_selector()
            started = time.perf_counter()
            selector.select(query, context_size)
            samples.append(time.perf_counter() - started)
    timings = []
    for samples in seconds:
        q1, median, q3 = np.percentile(samples, [25, 50, 75]).tolist()
        timings.append([median, repeats, q1, q3])
    return timings


def time_vs_query_size(
    setting: ExperimentSetting | None = None,
    *,
    query_sizes: Sequence[int] = (1, 2, 3, 4, 5),
    context_size: int = 100,
    pagerank_backend: str = "python",
    repeats: int = TIMING_REPEATS,
) -> Table:
    """Figure 5: wall-clock seconds per algorithm as |Q| grows.

    The RandomWalk baseline runs one Personalized-PageRank power iteration
    per query node; ``pagerank_backend='python'`` (default here) measures
    it on the same interpreted substrate as ContextRW's walks, mirroring
    the paper's single-runtime (Java/Jena) setup — see DESIGN.md.

    ``seconds`` is the median of ``repeats`` calls, each on a fresh
    seeded selector; ``q1_seconds`` and ``q3_seconds`` are their quartiles.
    The calls run in rounds of one per row, so host noise spreads evenly
    over the rows.
    """
    setting = setting or ExperimentSetting(pagerank_backend=pagerank_backend)
    setting = replace(setting, pagerank_backend=pagerank_backend)
    graph = setting.graph()
    domain = setting.domain_spec()
    index = EntityIndex(graph)
    all_ids = [index.resolve(name) for name in domain.entities]
    table = Table(
        ["algorithm", "query_size", "seconds", "repeats", "q1_seconds", "q3_seconds"],
        title="Figure 5: time vs |Q|",
        float_format=".4f",
    )
    rows = []
    points = []
    for size in query_sizes:
        if size > len(all_ids):
            raise ExperimentError(f"domain has only {len(all_ids)} entities")
        query = tuple(all_ids[:size])
        for name in make_selectors(setting, graph):
            rows.append([name, size])
            points.append(
                (
                    lambda name=name: make_selectors(setting, graph)[name],
                    query,
                    context_size,
                )
            )
    for row, timing in zip(rows, _timed_selects(points, repeats)):
        table.add_row([*row, *timing])
    return table


# -- Figure 6: time vs metapath length -------------------------------------------------

def time_vs_path_length(
    setting: ExperimentSetting | None = None,
    *,
    max_lengths: Sequence[int] = (5, 10, 15, 20),
    query_sizes: Sequence[int] = (2, 3, 4, 5, 6),
    samples: int | None = None,
    repeats: int = TIMING_REPEATS,
) -> Table:
    """Figure 6: ContextRW time as the maximum metapath length grows.

    ``seconds`` is the median of ``repeats`` calls, each on a fresh
    seeded selector; ``q1_seconds`` and ``q3_seconds`` are their quartiles.
    The calls run in rounds of one per row, so host noise spreads evenly
    over the rows.
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    index = EntityIndex(graph)
    domain = setting.domain_spec()
    all_ids = [index.resolve(name) for name in domain.entities]
    table = Table(
        ["query_size", "max_length", "seconds", "repeats", "q1_seconds", "q3_seconds"],
        title="Figure 6: time vs max metapath length",
        float_format=".4f",
    )
    rows = []
    points = []
    for query_size in query_sizes:
        query = tuple(all_ids[:query_size])
        for max_length in max_lengths:
            rows.append([query_size, max_length])
            points.append(
                (
                    lambda max_length=max_length: ContextRW(
                        graph,
                        rng=setting.algorithm_seed,
                        max_length=max_length,
                        samples=samples,
                    ),
                    query,
                    100,
                )
            )
    for row, timing in zip(rows, _timed_selects(points, repeats)):
        table.add_row([*row, *timing])
    return table


# -- Table 2: YAGO vs LinkedMDB --------------------------------------------------------

def dataset_comparison(
    setting: ExperimentSetting | None = None,
    *,
    datasets: Sequence[str] = ("yago", "linkedmdb"),
    max_context: int = 400,
) -> Table:
    """Table 2: max F1 (and the |C| attaining it) per |Q| and dataset."""
    setting = setting or ExperimentSetting()
    table = Table(
        ["query_size", "dataset", "max_f1", "argmax_context_size"],
        title="Table 2: ContextRW on YAGO vs LinkedMDB (actors domain)",
    )
    for dataset in datasets:
        local = setting.with_dataset(dataset)
        graph = local.graph()
        queries = resolve_domain_queries(graph, ACTORS_DOMAIN)
        selector = ContextRW(graph, rng=local.algorithm_seed)
        for query in queries:
            truth = ground_truth_for(local, graph, query)
            result = selector.select(query, max_context)
            value, argmax = best_f1(result.nodes, truth.entities, max_k=max_context)
            table.add_row([len(query), dataset, value, argmax])
    return table.sorted_by("query_size")


# -- Table 3: F1 vs number of paths ------------------------------------------------------

def path_count_sweep(
    setting: ExperimentSetting | None = None,
    *,
    path_counts: Sequence[int] = (5, 10, 15, 20),
    context_sizes: Sequence[int] = (50, 100, 150, 200),
    query_size: int = 5,
) -> Table:
    """Table 3: F1 as a function of |M| (kept metapaths) and |C|."""
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    queries = resolve_domain_queries(graph, setting.domain_spec())
    query = next(q for q in queries if len(q) == query_size)
    truth = ground_truth_for(setting, graph, query)
    table = Table(
        ["context_size", "num_paths", "f1"],
        title="Table 3: F1 vs |M| and |C|",
    )
    for num_paths in path_counts:
        selector = ContextRW(
            graph, rng=setting.algorithm_seed, max_paths=num_paths
        )
        result = selector.select(query, max(context_sizes))
        for size in context_sizes:
            table.add_row([size, num_paths, f1_at(result.nodes, truth.entities, size)])
    return table.sorted_by("context_size")


# -- Figures 7 and 8: distributions ---------------------------------------------------------

def distribution_figure(
    setting: ExperimentSetting | None = None,
    *,
    label: str = "created",
    channel: str = "instance",
    query_size: int = 5,
    context_size: int = 100,
) -> Table:
    """Figure 7/8: the query vs context distribution of one edge label.

    ``channel`` is ``'instance'`` (Figure 7, label ``created``) or
    ``'cardinality'`` (Figure 8, label ``hasWonPrize``).
    """
    if channel not in ("instance", "cardinality"):
        raise ExperimentError(f"unknown channel {channel!r}")
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    queries = resolve_domain_queries(graph, setting.domain_spec())
    query = next(q for q in queries if len(q) == query_size)
    selector = ContextRW(graph, rng=setting.algorithm_seed)
    context = selector.select(query, context_size)
    distributions = build_distributions(graph, query, context.nodes, label)
    title = f"Figure {'7' if channel == 'instance' else '8'}: {label} ({channel})"
    table = Table(["value", "query_probability", "context_probability"], title=title)
    if channel == "instance":
        support = [str(v) for v in distributions.instance_support]
        query_counts = distributions.inst_query
        context_counts = distributions.inst_context
    else:
        support = [str(v) for v in distributions.cardinality_support]
        query_counts = distributions.card_query
        context_counts = distributions.card_context
    query_probs = (
        counts_to_probabilities(query_counts)
        if query_counts.sum()
        else query_counts.astype(float)
    )
    context_probs = (
        counts_to_probabilities(context_counts)
        if context_counts.sum()
        else context_counts.astype(float)
    )
    for value, q, c in zip(support, query_probs, context_probs):
        table.add_row([value, float(q), float(c)])
    return table


# -- Figure 9: FindNC vs RWMult significance probabilities -------------------------------------

def significance_comparison(
    setting: ExperimentSetting | None = None,
    *,
    query_size: int = 5,
    context_size: int = 100,
    alpha: float = 0.05,
) -> Table:
    """Figure 9: per-label significance probabilities under both pipelines.

    Labels with probability <= alpha are the notable ones; the paper's
    qualitative claims (actedIn / hasWonPrize flagged only by RWMult,
    created by both, owns borderline) are assertable from these rows.
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    queries = resolve_domain_queries(graph, setting.domain_spec())
    query = next(q for q in queries if len(q) == query_size)
    findnc = FindNC(graph, context_size=context_size, rng=setting.algorithm_seed)
    baseline = rw_mult(
        graph,
        context_size=context_size,
        damping=BASELINE_DAMPING,
        rng=setting.algorithm_seed,
    )
    findnc_result = findnc.run(query)
    baseline_result = baseline.run(query)
    find_p = findnc_result.significance_probabilities()
    base_p = baseline_result.significance_probabilities()
    table = Table(
        ["label", "findnc_p", "rwmult_p", "threshold"],
        title="Figure 9: significance probabilities, FindNC vs RWMult",
    )
    for label in sorted(set(find_p) | set(base_p)):
        table.add_row(
            [label, find_p.get(label, 1.0), base_p.get(label, 1.0), alpha]
        )
    return table


# -- Section 4.2: metrics comparison -------------------------------------------------------------

def _expert_surprise(distributions) -> float:
    """A human-intuition proxy for "how surprising is this characteristic".

    Experts react to visible, nameable differences: how often the property
    is missing, and how many of it each entity has — not to raw divergence
    over sparse supports. The proxy combines the None-rate gap and the
    mean-cardinality gap.
    """
    inst_q = distributions.inst_query
    inst_c = distributions.inst_context
    card_q = distributions.card_query
    card_c = distributions.card_context
    none_q = 1.0 - (card_q[1:].sum() / card_q.sum()) if card_q.sum() else 0.0
    none_c = 1.0 - (card_c[1:].sum() / card_c.sum()) if card_c.sum() else 0.0
    support = range(len(distributions.cardinality_support))
    mean_q = (
        sum(i * c for i, c in zip(support, card_q)) / card_q.sum()
        if card_q.sum()
        else 0.0
    )
    mean_c = (
        sum(i * c for i, c in zip(support, card_c)) / card_c.sum()
        if card_c.sum()
        else 0.0
    )
    scale = 1.0 + max(mean_q, mean_c)
    shared = 0
    if inst_q.sum() and inst_c.sum():
        shared = int(((inst_q > 0) & (inst_c > 0)).sum())
        value_gap = 1.0 - shared / max(int((inst_q > 0).sum()), 1)
    else:
        value_gap = 0.0
    return 0.5 * abs(none_q - none_c) + 0.3 * abs(mean_q - mean_c) / scale + 0.2 * value_gap


def metrics_comparison(
    setting: ExperimentSetting | None = None,
    *,
    query_size: int = 5,
    context_size: int = 100,
    experts: int = 3,
    expert_noise: float = 0.05,
) -> Table:
    """Section 4.2 "Metrics comparison": ranking switches vs expert ranking.

    Three simulated experts score each candidate characteristic with a
    noisy human-intuition proxy; the aggregated expert ranking is compared
    (by minimum adjacent switches) to the rankings induced by the
    multinomial test, KL divergence and EMD.
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    queries = resolve_domain_queries(graph, setting.domain_spec())
    query = next(q for q in queries if len(q) == query_size)
    context = ContextRW(graph, rng=setting.algorithm_seed).select(query, context_size)

    finder = FindNC(graph, context_size=context_size, rng=setting.algorithm_seed)
    labels = finder.candidate_labels(list(query) + context.nodes)
    dists = {
        label: build_distributions(graph, query, context.nodes, label)
        for label in labels
    }

    rng = ensure_rng(setting.crowd_seed)
    expert_scores: dict[str, float] = {label: 0.0 for label in labels}
    for _ in range(experts):
        for label in labels:
            noise = rng.gauss(0.0, expert_noise)
            expert_scores[label] += _expert_surprise(dists[label]) + noise
    expert_ranking = sorted(labels, key=lambda l: (-expert_scores[l], l))

    discriminators = {
        "FindNC": MultinomialDiscriminator(rng=setting.algorithm_seed),
        "KL": KLDiscriminator(),
        "EMD": EMDDiscriminator(),
    }
    table = Table(
        ["method", "switches"],
        title="Metrics comparison: switches vs aggregated expert ranking",
    )
    for name, discriminator in discriminators.items():
        scores = {}
        for label in labels:
            result = discriminator.score(dists[label])
            # Rank by the method's own notion of deviation strength: the
            # multinomial uses 1 - p (even when below threshold), the
            # divergences their raw value.
            if name == "FindNC":
                p = result.min_p_value if result.min_p_value is not None else 1.0
                scores[label] = 1.0 - p
            else:
                scores[label] = max(result.inst_score, result.card_score)
        ranking = sorted(labels, key=lambda l: (-scores[l], l))
        table.add_row([name, kendall_switches(ranking, expert_ranking)])
    return table


# -- Section 4.2: the authors test case ------------------------------------------------------------

def authors_testcase(
    setting: ExperimentSetting | None = None,
    *,
    context_size: int = 30,
    samples: int = 300_000,
) -> Table:
    """The {Douglas Adams, Terry Pratchett} case: influences vs created.

    The two-writer query is weakly connected, so PathMining gets a larger
    walk budget here — with the default budget the metapath counts for
    writer-anchored patterns are too thin to rank reliably.
    """
    setting = setting or ExperimentSetting()
    graph = setting.graph()
    selector = ContextRW(graph, rng=setting.algorithm_seed, samples=samples)
    finder = FindNC(
        graph,
        context_selector=selector,
        context_size=context_size,
        rng=setting.algorithm_seed,
    )
    result = finder.run(list(AUTHORS_QUERY))
    table = Table(
        ["label", "p_value", "notable"],
        title="Authors test case: {Douglas Adams, Terry Pratchett}, |C|=30",
    )
    for item in result.results:
        p = item.min_p_value if item.min_p_value is not None else 1.0
        table.add_row([item.label, p, item.notable])
    return table
