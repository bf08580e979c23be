"""Binary classification metrics: F1, balanced accuracy, accuracy, ROC AUC,
and average precision, with exact tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("f1", "balanced_accuracy", "accuracy", "roc_auc",
                "average_precision")


class UndefinedMetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    f1: float
    balanced_accuracy: float
    accuracy: float
    roc_auc: float
    average_precision: float
    confusion: tuple[int, int, int, int]  # (tp, fp, tn, fn)

    def value(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise KeyError(f"unknown metric {name!r}; choose from {METRIC_NAMES}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        tp, fp, tn, fn = self.confusion
        return {"f1": self.f1, "balanced_accuracy": self.balanced_accuracy,
                "accuracy": self.accuracy, "roc_auc": self.roc_auc,
                "average_precision": self.average_precision,
                "tp": tp, "fp": fp, "tn": tn, "fn": fn}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """Inverse of :meth:`to_dict`."""
        return cls(*(d[name] for name in METRIC_NAMES),
                   confusion=(d["tp"], d["fp"], d["tn"], d["fn"]))


def _check_binary(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{what} must be binary 0/1")
    return values.astype(np.int64)


def confusion_counts(true_labels, predicted_labels) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) for binary labels."""
    y = _check_binary(true_labels, "true labels")
    yhat = _check_binary(predicted_labels, "predicted labels")
    if len(y) != len(yhat):
        raise ValueError(f"length mismatch: {len(y)} vs {len(yhat)}")
    tp = int(np.sum((y == 1) & (yhat == 1)))
    fp = int(np.sum((y == 0) & (yhat == 1)))
    tn = int(np.sum((y == 0) & (yhat == 0)))
    fn = int(np.sum((y == 1) & (yhat == 0)))
    return tp, fp, tn, fn


def f1(confusion: tuple[int, int, int, int]) -> float:
    """2tp / (2tp + fp + fn); 0 by convention when there are no positives
    anywhere."""
    tp, fp, _, fn = confusion
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def balanced_accuracy(confusion: tuple[int, int, int, int]) -> float:
    """Mean of true-positive and true-negative rates; when one class is
    absent only the defined rate is returned."""
    tp, fp, tn, fn = confusion
    pos = tp + fn
    neg = tn + fp
    if pos == 0 and neg == 0:
        raise UndefinedMetricError("no samples")
    if pos == 0:
        return tn / neg
    if neg == 0:
        return tp / pos
    return 0.5 * (tp / pos + tn / neg)


def accuracy(confusion: tuple[int, int, int, int]) -> float:
    tp, fp, tn, fn = confusion
    total = tp + fp + tn + fn
    if total == 0:
        raise UndefinedMetricError("no samples")
    return (tp + tn) / total


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks (exact halves);
    all NaN when any value is NaN."""
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(true_labels, scores) -> float:
    """Probability a random positive outscores a random negative, ties 1/2.

    Mann-Whitney rank statistic; equals the trapezoidal ROC area.
    """
    y = _check_binary(true_labels, "true labels")
    scores = np.asarray(scores, dtype=np.float64)
    if len(y) != len(scores):
        raise ValueError("length mismatch between labels and scores")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(true_labels, scores) -> float:
    """Step-sum of precision over recall increases, scores descending.

    Ties between scores break by ascending position so the ordering is fully
    deterministic.
    """
    y = _check_binary(true_labels, "true labels")
    scores = np.asarray(scores, dtype=np.float64)
    if len(y) != len(scores):
        raise ValueError("length mismatch between labels and scores")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    order = np.lexsort((np.arange(len(y)), -scores))
    hits = y[order]
    tp_cum = np.cumsum(hits)
    k = np.arange(1, len(y) + 1)
    precision_at = tp_cum / k
    return float(precision_at[hits == 1].sum() / n_pos)


def classification_report(true_labels, scores) -> MetricsReport:
    """All metrics from decision scores; labels are predicted at threshold 0
    (a score of exactly 0 maps to class 0)."""
    scores = np.asarray(scores, dtype=np.float64)
    predicted = (scores > 0).astype(np.int64)
    conf = confusion_counts(true_labels, predicted)
    return MetricsReport(
        f1=f1(conf),
        balanced_accuracy=balanced_accuracy(conf),
        accuracy=accuracy(conf),
        roc_auc=roc_auc(true_labels, scores),
        average_precision=average_precision(true_labels, scores),
        confusion=conf,
    )
