import hashlib
import math

import numpy as np
import pytest

from conftest import golden_splits
from coretune.data import Dataset, stratified_split
from coretune.learners import LinearModel, TrainConfig, decision_scores
from coretune.refine import (RefineConfig, refine, trace_to_csv,
                             uncertainty_query)
from coretune.sampler import SamplerConfig, build_coreset, coreset_to_csv
from coretune.sensitivity import compute_scores


def make_problem(n=160, d=4, seed=0, sep=1.2):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(-sep / 2, 1.0, size=(n - half, d)),
                   rng.normal(sep / 2, 1.0, size=(half, d))])
    y = np.array([0] * (n - half) + [1] * half)
    perm = rng.permutation(n)
    data = Dataset(X[perm].copy(), y[perm])
    return stratified_split(data, (0.7, 0.15, 0.15), seed=seed)


def small_coreset(train, size=20, seed=0):
    scores = compute_scores("leverage", train)
    return build_coreset(train, scores,
                         SamplerConfig(coreset_size=size, seed=seed))


class TestUncertaintyQuery:
    def test_smallest_magnitudes(self):
        features = np.array([[-3.0], [0.1], [2.0], [-0.05]])
        model = LinearModel(np.array([1.0]), 0.0, "logistic", True)
        picked = uncertainty_query(model, features, np.array([4, 5, 6, 7]), k=2)
        assert sorted(picked.tolist()) == [1, 3]

    def test_k_at_least_pool_returns_every_row_unscored(self, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("scored although every row is returned")

        monkeypatch.setattr("coretune.refine.decision_scores", no_scoring)
        model = LinearModel(np.array([1.0]), 0.0, "logistic", True)
        picked = uncertainty_query(model, np.array([[1.0], [2.0]]),
                                   np.array([9, 4]), k=5)
        assert picked.tolist() == [0, 1]

    def test_tie_breaks_by_lower_point_id(self):
        features = np.array([[1.0], [-1.0], [2.0]])
        model = LinearModel(np.array([1.0]), 0.0, "logistic", True)
        picked = uncertainty_query(model, features, np.array([7, 3, 9]), k=1)
        assert picked.tolist() == [1]


def simulate_patience(improvements, patience_limit, max_rounds):
    """Independent counter simulation: returns per-round patience values."""
    counter = 0
    out = []
    for improved in improvements:
        if len(out) >= max_rounds or counter >= patience_limit:
            break
        counter = 0 if improved else counter + 1
        out.append(counter)
    return out


def scripted_metric(values):
    """A validation metric that replays a fixed value sequence."""
    state = {"i": -1}

    def phi(model, validation):
        state["i"] = min(state["i"] + 1, len(values) - 1)
        return values[state["i"]]

    return phi


SCRIPTS = [
    # (metric value sequence, patience), first value is the original coreset's
    ([0.1, 0.2, 0.3, 0.3, 0.3], 2),        # +,+,-,-
    ([0.5, 0.4], 1),                        # -
    ([0.1, 0.2, 0.2, 0.3, 0.3, 0.3], 2),   # +,-,+,-,-
    ([0.5, 0.5, 0.5], 2),                   # -,-
    ([0.1, 0.2, 0.3, 0.4, 0.4], 1),         # +,+,+,-
]


class TestPatienceAgainstHandSimulation:
    @pytest.mark.parametrize("values,rho", SCRIPTS)
    def test_trace_matches_counter(self, values, rho):
        splits = make_problem(seed=3)
        coreset = small_coreset(splits.train, size=15)
        config = RefineConfig(batch_size=2, patience=rho,
                              metric=scripted_metric(values), max_rounds=50)
        _, trace = refine(splits.train, splits.validation, coreset,
                          TrainConfig(), config)
        improvements = [values[i + 1] > values[i] for i in range(len(values) - 1)]
        expected = simulate_patience(improvements, rho, 50)
        assert [r.patience for r in trace.rounds] == expected

    def test_plus_plus_minus_minus_runs_four_rounds(self):
        splits = make_problem(seed=4)
        coreset = small_coreset(splits.train, size=15)
        config = RefineConfig(batch_size=2, patience=2,
                              metric=scripted_metric([0.1, 0.2, 0.3, 0.3, 0.3]),
                              max_rounds=50)
        _, trace = refine(splits.train, splits.validation, coreset,
                          TrainConfig(), config)
        assert len(trace.rounds) == 4
        assert [r.patience for r in trace.rounds] == [0, 0, 1, 2]

    def test_patience_one_immediate_stop_keeps_original(self):
        splits = make_problem(seed=5)
        coreset = small_coreset(splits.train, size=15)
        config = RefineConfig(batch_size=2, patience=1,
                              metric=scripted_metric([0.5, 0.4]))
        returned, trace = refine(splits.train, splits.validation, coreset,
                                 TrainConfig(), config)
        assert len(trace.rounds) == 1
        assert trace.decision == "kept_original"
        assert returned is coreset


class TestRefineBehaviour:
    def test_pool_smaller_than_batch_absorbs_everything(self):
        from coretune.sampler import Coreset

        splits = make_problem(seed=6)
        train = splits.train
        keep = train.n - 3  # leaves a 3-point pool, below the batch size
        coreset = Coreset(train.point_ids[:keep], np.ones(keep),
                          train.labels[:keep],
                          np.array(["sampled"] * keep, dtype=object),
                          np.ones(keep, dtype=np.int64))
        config = RefineConfig(batch_size=10, patience=1,
                              metric=scripted_metric([0.1, 0.9]))
        returned, trace = refine(train, splits.validation, coreset,
                                 TrainConfig(), config)
        assert trace.decision == "kept_refined"
        assert set(returned.point_ids.tolist()) == set(train.point_ids.tolist())
        added = np.isin(returned.point_ids, coreset.point_ids, invert=True)
        assert np.all(returned.weights[added] == 1.0)
        assert np.all(returned.provenance[added] == "active")

    def test_empty_pool_returns_original_with_note(self):
        from coretune.sampler import Coreset

        splits = make_problem(seed=7)
        train = splits.train
        full = Coreset(train.point_ids,
                       np.ones(train.n),
                       train.labels,
                       np.array(["sampled"] * train.n, dtype=object),
                       np.ones(train.n, dtype=np.int64))
        returned, trace = refine(train, splits.validation, full, TrainConfig(),
                                 RefineConfig(batch_size=5, patience=2))
        assert returned is full
        assert trace.note == "empty pool; nothing to query"
        assert trace.decision == "kept_original"

    def test_never_worse_and_monotone_growth(self):
        for seed in range(6):
            splits = make_problem(seed=seed, n=140)
            coreset = small_coreset(splits.train, size=18, seed=seed)
            config = RefineConfig(batch_size=6, patience=(seed % 3) + 1,
                                  metric="f1")
            returned, trace = refine(splits.train, splits.validation, coreset,
                                     TrainConfig(), config)
            assert trace.phi_refined >= trace.phi_original or \
                trace.decision == "kept_original"
            # decision honors the strict comparison
            if trace.decision == "kept_refined":
                assert trace.phi_refined > trace.phi_original
                assert set(coreset.point_ids.tolist()) <= \
                    set(returned.point_ids.tolist())
            else:
                assert returned is coreset
            # growth bounded by batch per round, no point ever lost
            sizes = [coreset.n_unique]
            for rec in trace.rounds:
                assert rec.pool_size > 0

    def test_added_points_carry_weight_one_and_train_labels(self):
        splits = make_problem(seed=9)
        coreset = small_coreset(splits.train, size=16)
        config = RefineConfig(batch_size=4, patience=2, metric="balanced_accuracy")
        returned, trace = refine(splits.train, splits.validation, coreset,
                                 TrainConfig(), config)
        if trace.decision == "kept_refined":
            added_mask = returned.provenance == "active"
            assert np.all(returned.weights[added_mask] == 1.0)
            lookup = dict(zip(splits.train.point_ids.tolist(),
                              splits.train.labels.tolist()))
            for pid, label in zip(returned.point_ids[added_mask],
                                  returned.labels[added_mask]):
                assert lookup[int(pid)] == int(label)

    def test_determinism(self):
        splits = make_problem(seed=11)
        coreset = small_coreset(splits.train, size=20)
        config = RefineConfig(batch_size=5, patience=2, metric="f1")
        a = refine(splits.train, splits.validation, coreset, TrainConfig(), config)
        b = refine(splits.train, splits.validation, coreset, TrainConfig(), config)
        assert [r.patience for r in a[1].rounds] == [r.patience for r in b[1].rounds]
        assert a[1].decision == b[1].decision
        assert np.array_equal(a[0].point_ids, b[0].point_ids)

    def test_max_rounds_caps_ever_improving_metric(self):
        splits = make_problem(seed=13)
        coreset = small_coreset(splits.train, size=12)
        counter = {"v": 0.0}

        def ever_improving(model, validation):
            counter["v"] += 1.0
            return counter["v"]

        config = RefineConfig(batch_size=3, patience=3, metric=ever_improving,
                              max_rounds=4)
        _, trace = refine(splits.train, splits.validation, coreset,
                          TrainConfig(), config)
        assert len(trace.rounds) == 4

    def test_no_cap_runs_until_the_pool_is_exhausted(self):
        splits = make_problem(seed=13)
        coreset = small_coreset(splits.train, size=12)
        batch = 30
        rounds = math.ceil((splits.train.n - coreset.n_unique) / batch)
        # A cap of ceil(n / batch) rounds would stop the loop in the round
        # that empties the pool, before it finds the pool empty.
        assert rounds == math.ceil(splits.train.n / batch)
        counter = {"v": 0.0}

        def ever_improving(model, validation):
            counter["v"] += 1.0
            return counter["v"]

        returned, trace = refine(splits.train, splits.validation, coreset,
                                 TrainConfig(), RefineConfig(
                                     batch_size=batch, metric=ever_improving))
        assert len(trace.rounds) == rounds
        assert trace.note == "pool exhausted"
        assert returned.n_unique == splits.train.n

    def test_coreset_outside_train_rejected(self):
        splits = make_problem(seed=15)
        coreset = small_coreset(splits.train, size=10)
        with pytest.raises(KeyError, match="unknown point_ids"):
            refine(splits.validation, splits.test, coreset, TrainConfig(),
                   RefineConfig(batch_size=2))

    def test_trace_csv(self, tmp_path):
        splits = make_problem(seed=17)
        coreset = small_coreset(splits.train, size=14)
        _, trace = refine(splits.train, splits.validation, coreset,
                          TrainConfig(), RefineConfig(batch_size=4, patience=1))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path, header_comment="config_hash=abc")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "round,pool_size,phi_before,phi_after,patience,decision"
        assert len(lines) >= 3


# sha256 of refined_coreset.csv's bytes followed by refine_trace.csv's, for a
# kept_refined run on golden_splits(sparse); a rewrite of the loop must leave
# these bytes unchanged.
GOLDEN_REFINE = {
    False: "4f0db3c38350e4f401a72ea021a92ed4889e4b2bee937ff8cbab68aab2723e91",
    True: "4eff4ed58cb69f4e99af731b78acc5c2d6e2f6058c78dd4b76ed2a8057b0cc36",
}


@pytest.mark.parametrize("sparse,provider,seed,rounds",
                         [(False, "leverage", 0, 5), (True, "lewis", 1, 4)],
                         ids=["dense-leverage", "csr-lewis"])
def test_refine_bytes_pinned(tmp_path, sparse, provider, seed, rounds):
    splits = golden_splits(sparse)
    coreset = build_coreset(splits.train, compute_scores(provider, splits.train),
                            SamplerConfig(30, det_ratio=0.2, seed=seed))
    refined, trace = refine(splits.train, splits.validation, coreset,
                            TrainConfig(), RefineConfig(batch_size=10, patience=2))
    assert trace.decision == "kept_refined" and len(trace.rounds) == rounds
    coreset_to_csv(refined, tmp_path / "refined_coreset.csv")
    trace_to_csv(trace, tmp_path / "refine_trace.csv")
    written = b"".join((tmp_path / name).read_bytes()
                       for name in ("refined_coreset.csv", "refine_trace.csv"))
    assert hashlib.sha256(written).hexdigest() == GOLDEN_REFINE[sparse]


def validation_f1(model, validation):
    """F1 at threshold 0, counted here rather than by coretune.metrics."""
    predicted = decision_scores(model, validation.features) > 0
    actual = validation.labels == 1
    tp = int(np.sum(predicted & actual))
    wrong = int(np.sum(predicted != actual))
    return 2 * tp / (2 * tp + wrong) if tp or wrong else 0.0


class TestCallableMetric:
    @pytest.mark.parametrize("seed", [2, 7])  # kept_original, kept_refined
    def test_callable_f1_matches_the_named_metric(self, seed):
        splits = make_problem(seed=seed, n=200)
        coreset = small_coreset(splits.train, size=14, seed=seed)
        runs = [refine(splits.train, splits.validation, coreset, TrainConfig(),
                       RefineConfig(batch_size=4, patience=2, metric=metric))
                for metric in ("f1", validation_f1)]
        (named, named_trace), (called, called_trace) = runs
        assert called_trace == named_trace
        for name in ("point_ids", "weights", "labels", "provenance", "counts"):
            assert np.array_equal(getattr(called, name), getattr(named, name))

    def test_nan_metric_is_rejected(self):
        splits = make_problem(seed=2)
        coreset = small_coreset(splits.train, size=14)
        config = RefineConfig(batch_size=4, metric=lambda model, data: math.nan)
        with pytest.raises(ValueError, match="not finite"):
            refine(splits.train, splits.validation, coreset, TrainConfig(), config)


class TestRefineConfig:
    def test_patience_must_be_positive(self):
        with pytest.raises(ValueError):
            RefineConfig(batch_size=2, patience=0)

    def test_unknown_metric_name(self):
        for metric in ("mcc", 5, None, ["f1"]):
            with pytest.raises(ValueError, match="metric"):
                RefineConfig(batch_size=2, metric=metric)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", True), ("batch_size", 2.0), ("patience", 1.5),
        ("max_rounds", 2.5)])
    def test_counts_are_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RefineConfig(**{"batch_size": 2, field: value})
