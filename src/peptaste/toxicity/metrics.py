"""Confusion-count metrics and stratified cross-validation.

Cross-validation returns out-of-fold probabilities, so metrics are computed
once on the pooled confusion table (micro pooling).  Predicted probabilities
call toxic at >= 0.5, so an exact tie is treated as toxic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError

CALL_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    recall: float
    precision: float
    specificity: float
    f1: float
    mcc: float

    def as_dict(self):
        return {
            "TP": self.tp,
            "FP": self.fp,
            "TN": self.tn,
            "FN": self.fn,
            "accuracy": self.accuracy,
            "recall": self.recall,
            "precision": self.precision,
            "specificity": self.specificity,
            "F1": self.f1,
            "MCC": self.mcc,
        }


def compute_metrics(tp: int, fp: int, tn: int, fn: int) -> MetricReport:
    """Standard binary metrics; undefined ratios fall back to 0, and the
    correlation coefficient is 0 when any marginal is empty."""
    if min(tp, fp, tn, fn) < 0 or tp + fp + tn + fn == 0:
        raise DataError("confusion counts must be non-negative with a positive total")
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return MetricReport(tp, fp, tn, fn, accuracy, recall, precision, specificity, f1, mcc)


def confusion_counts(y_true, y_pred) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) of 0/1 labels and calls, counted in one pass."""
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    tn, fp, fn, tp = np.bincount(2 * y_true + y_pred, minlength=4).tolist()
    return tp, fp, tn, fn


def metrics_from_probas(y_true, probas) -> MetricReport:
    calls = (np.asarray(probas) >= CALL_THRESHOLD).astype(np.int64)
    return compute_metrics(*confusion_counts(y_true, calls))


def stratified_fold_ids(y, folds: int, seed: int = 0) -> np.ndarray:
    """Per-sample fold assignment; per-class fold sizes differ by at most 1."""
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    y = np.asarray(y).astype(np.int64)
    rng = np.random.default_rng(seed)
    fold_of = np.full(len(y), -1, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        if len(idx) < folds:
            raise DataError(
                f"class {cls} has {len(idx)} samples, fewer than {folds} folds"
            )
        perm = rng.permutation(len(idx))
        for pos, j in enumerate(perm):
            fold_of[idx[j]] = pos % folds
    return fold_of


def cross_val_probas(learner, X, y, folds: int = 10, seed: int = 0) -> np.ndarray:
    """Out-of-fold probabilities: each sample predicted by the model fitted
    on the other folds.  learner.fit_folds fits every fold's model in one
    call, refitting the learner itself as the first fold's."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).astype(np.int64)
    fold_of = stratified_fold_ids(y, folds, seed)
    models = learner.fit_folds(
        X, y, [np.flatnonzero(fold_of != f) for f in range(folds)]
    )
    out = np.empty(len(y))
    for f, model in enumerate(models):
        test = fold_of == f
        out[test] = model.predict_proba(X[test])
    return out
