"""Toxicity screening: from-scratch base classifiers, MCC-first metrics,
descriptor selection, weight-grid search, and the voting ensemble."""

from .classifiers import (
    ALGORITHMS,
    DEFAULT_MEMBERS,
    PRESETS,
    ClassifierSpec,
    make_classifier,
    preset_spec,
)
from .ensemble import (
    EnsembleModel,
    SelectionResult,
    enumerate_weight_vectors,
    fit_members,
    forward_select,
    load_model,
    save_model,
    weight_grid_search,
)
from .metrics import (
    MetricReport,
    compute_metrics,
    confusion_counts,
    cross_val_probas,
    cross_validate,
    metrics_from_probas,
    stratified_fold_ids,
)

__all__ = [
    "ALGORITHMS",
    "DEFAULT_MEMBERS",
    "PRESETS",
    "ClassifierSpec",
    "EnsembleModel",
    "MetricReport",
    "SelectionResult",
    "compute_metrics",
    "confusion_counts",
    "cross_val_probas",
    "cross_validate",
    "enumerate_weight_vectors",
    "fit_members",
    "forward_select",
    "load_model",
    "make_classifier",
    "metrics_from_probas",
    "preset_spec",
    "save_model",
    "stratified_fold_ids",
    "weight_grid_search",
]
