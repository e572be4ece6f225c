"""Evaluation: metrics, experiment runners, reporting."""

from repro.eval.metrics import (
    best_f1,
    f1_at,
    f1_curve,
    f1_score,
    kendall_switches,
    precision_at,
    recall_at,
)
from repro.eval.experiments import (
    ExperimentSetting,
    authors_testcase,
    context_size_sweep,
    dataset_comparison,
    distribution_figure,
    domains_table,
    metrics_comparison,
    path_count_sweep,
    query_size_sweep,
    significance_comparison,
    time_vs_path_length,
    time_vs_query_size,
)

__all__ = [
    "ExperimentSetting",
    "authors_testcase",
    "best_f1",
    "context_size_sweep",
    "dataset_comparison",
    "distribution_figure",
    "domains_table",
    "f1_at",
    "f1_curve",
    "f1_score",
    "kendall_switches",
    "metrics_comparison",
    "path_count_sweep",
    "precision_at",
    "query_size_sweep",
    "recall_at",
    "significance_comparison",
    "time_vs_path_length",
    "time_vs_query_size",
]
