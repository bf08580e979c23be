import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coretune.metrics import (MetricsReport, UndefinedMetricError, accuracy,
                              average_precision, balanced_accuracy,
                              classification_report, f1, roc_auc)


class TestReportConfusion:
    """``classification_report(...).confusion`` of 0/1 predictions given
    as scores: a score of 1 predicts class 1, a score of 0 class 0."""

    def test_enumerated_example(self):
        report = classification_report([1, 1, 0, 0], [1, 0, 0, 0])
        assert report.confusion == (1, 0, 2, 1)

    def test_perfect_predictions(self):
        y = np.array([1, 1, 1, 0, 0])
        assert classification_report(y, y).confusion == (3, 0, 2, 0)

    def test_inverted_predictions(self):
        y = np.array([1, 1, 1, 0, 0])
        assert classification_report(y, 1 - y).confusion == (0, 2, 0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            classification_report([0, 1], [0])

    def test_checks_true_labels_then_lengths(self):
        with pytest.raises(ValueError, match=r"true labels must be binary"):
            classification_report([0, 2], [0, 1, 1])
        with pytest.raises(ValueError, match=r"^length mismatch: 2 vs 3$"):
            classification_report([0, 1], [0, 1, 1])


class TestThresholdMetrics:
    def test_hand_arithmetic(self):
        conf = (1, 0, 2, 1)
        assert f1(conf) == pytest.approx(2 / 3)
        assert balanced_accuracy(conf) == pytest.approx(0.75)
        assert accuracy(conf) == pytest.approx(0.75)

    @pytest.mark.parametrize("metric", [balanced_accuracy, accuracy])
    def test_no_samples_is_undefined(self, metric):
        with pytest.raises(UndefinedMetricError, match="no samples"):
            metric((0, 0, 0, 0))

    def test_perfect(self):
        conf = (3, 0, 2, 0)
        assert f1(conf) == 1.0
        assert balanced_accuracy(conf) == 1.0
        assert accuracy(conf) == 1.0

    def test_all_negative_convention(self):
        conf = (0, 0, 3, 0)
        assert f1(conf) == 0.0
        assert accuracy(conf) == 1.0
        assert balanced_accuracy(conf) == 1.0  # only the negative rate is defined

    def test_f1_matches_precision_recall_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.integers(0, 2, size=30)
            yhat = rng.integers(0, 2, size=30)
            tp, fp, tn, fn = confusion_oracle(y, yhat)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            expected = (2 * precision * recall / (precision + recall)
                        if precision + recall else 0.0)
            assert f1((tp, fp, tn, fn)) == pytest.approx(expected)

    @given(st.lists(st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_label_swap_symmetry(self, pairs):
        y = np.array([p[0] for p in pairs])
        yhat = np.array([p[1] for p in pairs])
        a = balanced_accuracy(confusion_oracle(y, yhat))
        b = balanced_accuracy(confusion_oracle(1 - y, 1 - yhat))
        assert a == pytest.approx(b)


def pair_count_auc(y, scores):
    """Brute-force O(P*N) oracle: wins + half-ties over all pos-neg pairs."""
    y = np.asarray(y)
    scores = np.asarray(scores)
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_nan_score_gives_nan(self):
        assert np.isnan(roc_auc([0, 0, 1, 1], [0.1, np.nan, 0.8, 0.9]))

    def test_worked_example(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_matches_pair_count_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(5, 120))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
            assert roc_auc(y, scores) == pair_count_auc(y, scores)

    @given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_transform(self, labels, data):
        y = np.array(labels)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # coarse grid keeps exp() strictly increasing in float arithmetic
        scores = np.array(data.draw(st.lists(
            st.integers(-1000, 1000), min_size=len(y), max_size=len(y)))) / 10.0
        before = roc_auc(y, scores)
        after = roc_auc(y, np.exp(scores / 50.0) + 3.0)
        assert before == pytest.approx(after, abs=1e-12)

    def test_equals_rankdata_auc_exactly(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # few distinct values: most scores tie with others
            scores = rng.integers(0, int(rng.integers(1, 12)), size=n) * 0.37 - 1.0
            n_pos = int(y.sum())
            ranks = rankdata(scores, method="average")
            expected = ((float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0)
                        / (n_pos * (n - n_pos)))
            assert roc_auc(y, scores) == expected


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_single_positive_rank_two(self):
        assert average_precision([1, 0], [0.2, 0.9]) == pytest.approx(0.5)

    def test_worked_step_sum(self):
        got = average_precision([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert got == pytest.approx(0.5 + 1 / 3, rel=1e-12)  # = 0.8333...

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0, 0], [0.1, 0.2])


def average_precision_oracle(y, scores):
    """Independent oracle: the precision at each positive, by descending
    score and then position, summed with numpy's sum as the metric sums."""
    order = sorted(range(len(y)), key=lambda i: -scores[i])
    precisions, hits = [], 0
    for k, i in enumerate(order, start=1):
        if y[i]:
            hits += 1
            precisions.append(hits / k)
    return float(np.sum(precisions) / hits)


def confusion_oracle(y, scores):
    pairs = list(zip(y, scores > 0))
    return tuple(sum(1 for pair in pairs if pair == wanted) for wanted in
                 [(1, True), (0, True), (0, False), (1, False)])


class TestClassificationReport:
    @given(st.lists(st.tuples(st.sampled_from([0, 1]),
                              st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0])),
                    max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_metric_oracles_bit_for_bit(self, pairs):
        # Both classes present, and they tie at least once.
        pairs = pairs + [(0, 0.25), (1, 0.25)]
        y = np.array([label for label, _ in pairs])
        scores = np.array([score for _, score in pairs])
        conf = confusion_oracle(y, scores)
        expected = MetricsReport(f1(conf), balanced_accuracy(conf), accuracy(conf),
                                 float(pair_count_auc(y, scores)),
                                 average_precision_oracle(y, scores), conf)
        assert pickle.dumps(classification_report(y, scores)) == \
            pickle.dumps(expected)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        scores = rng.normal(size=50)
        report = classification_report(y, scores)
        conf = confusion_oracle(y, scores)
        assert report.confusion == conf
        assert report.f1 == f1(conf)
        assert report.balanced_accuracy == balanced_accuracy(conf)
        assert report.accuracy == accuracy(conf)
        assert sum(report.confusion) == 50
        for name in ("f1", "balanced_accuracy", "accuracy", "roc_auc",
                     "average_precision"):
            assert 0.0 <= report.value(name) <= 1.0

    def test_score_exactly_zero_is_class_zero(self):
        y = np.array([0, 1])
        report = classification_report(y, np.array([0.0, 1.0]))
        assert report.confusion == (1, 0, 1, 0)

    def test_unknown_metric_name(self):
        report = MetricsReport(1, 1, 1, 1, 1, (1, 0, 1, 0))
        with pytest.raises(KeyError):
            report.value("brier")
