"""Binary classification metrics: F1, balanced accuracy, accuracy, ROC AUC,
and average precision, with exact tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import binary_labels

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


def _confusion(y: np.ndarray, yhat: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of 0/1 labels ``y`` and boolean predictions."""
    positives = int(np.count_nonzero(y))
    predicted = int(np.count_nonzero(yhat))
    tp = int(np.count_nonzero(y & yhat))
    return tp, predicted - tp, len(y) - positives - predicted + tp, positives - tp


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


def _descending(scores: np.ndarray) -> np.ndarray:
    """Positions by descending score, ties (and NaNs, which come last) by
    ascending position."""
    return np.argsort(-scores, kind="stable")


def _checked_scores(true_labels, scores) -> tuple[np.ndarray, np.ndarray]:
    """The labels as 0/1 int64 and the scores as float64, one per label."""
    y = binary_labels(true_labels, "true labels")
    scores = np.asarray(scores, dtype=np.float64)
    if len(y) != len(scores):
        raise ValueError(f"length mismatch: {len(y)} vs {len(scores)}")
    return y, scores


def _roc_auc(y: np.ndarray, scores: np.ndarray, order: np.ndarray) -> float:
    """The Mann-Whitney statistic from the descending ``order``; NaN when
    any score is NaN. Ties share the mean of their ranks, each an exact
    half, so the rank sum is exact in any order."""
    n = len(y)
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n)
    # A tie group at descending positions [start, end) holds the ascending
    # ranks n - end + 1 .. n - start.
    mean_ranks = np.repeat((2 * n + 1 - starts - ends) / 2.0, ends - starts)
    rank_sum = float(mean_ranks[y[order] == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_precision(y: np.ndarray, order: np.ndarray) -> float:
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    hits = y[order]
    tp_cum = np.cumsum(hits)
    k = np.arange(1, len(y) + 1)
    precision_at = tp_cum / k
    return float(precision_at[hits == 1].sum() / n_pos)


def roc_auc(true_labels, scores) -> float:
    """Probability a random positive outscores a random negative, ties 1/2.

    Mann-Whitney rank statistic; equals the trapezoidal ROC area.
    """
    y, scores = _checked_scores(true_labels, scores)
    return _roc_auc(y, scores, _descending(scores))


def average_precision(true_labels, scores) -> float:
    """Step-sum of precision over recall increases, scores descending.

    Ties between scores break by ascending position so the ordering is fully
    deterministic.
    """
    y, scores = _checked_scores(true_labels, scores)
    return _average_precision(y, _descending(scores))


def classification_report(true_labels, scores) -> MetricsReport:
    """All metrics from decision scores; labels are predicted at threshold 0
    (a score of exactly 0 maps to class 0). One sort of the scores serves
    both ranking metrics."""
    y, scores = _checked_scores(true_labels, scores)
    conf = _confusion(y, scores > 0)
    balanced = balanced_accuracy(conf)  # raises "no samples" first
    order = _descending(scores)
    return MetricsReport(
        f1=f1(conf),
        balanced_accuracy=balanced,
        accuracy=accuracy(conf),
        roc_auc=_roc_auc(y, scores, order),
        average_precision=_average_precision(y, order),
        confusion=conf,
    )
