"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. Criterion 8 needs a user-supplied a9a LIBSVM file (set
CORETUNE_A9A_PATH) and is skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from coretune.data import Dataset, stratified_split
from coretune.learners import (TrainConfig, decision_scores, train,
                               weighted_logistic_gradient,
                               weighted_logistic_objective)
from coretune.metrics import (average_precision, balanced_accuracy,
                              classification_report, f1, roc_auc)
from coretune.refine import RefineConfig, refine
from coretune.sampler import SamplerConfig, allocate_class_budgets, build_coreset
from coretune.sensitivity import compute_scores
from coretune.tuner import GridSpec, run_grid


def announce(number: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# shared instances


def gaussian_mixture(n=2000, d=10, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    mu = 1.0 / np.sqrt(d)
    X = np.vstack([rng.normal(-mu, 1.0, size=(n - half, d)),
                   rng.normal(mu, 1.0, size=(half, d))])
    y = np.array([0] * (n - half) + [1] * half)
    perm = rng.permutation(n)
    return Dataset(X[perm].copy(), y[perm])


@pytest.fixture(scope="module")
def mixture_with_scores():
    data = gaussian_mixture()
    return data, compute_scores("leverage", data)


SWEEP_DET_RATIOS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def test_criterion_1_loss_ratio_property(mixture_with_scores):
    data, scores = mixture_with_scores
    n, d, m = data.n, data.dim, 400
    theta_rng = np.random.default_rng(1)
    thetas = theta_rng.normal(size=(d, 20))
    thetas /= np.linalg.norm(thetas, axis=0, keepdims=True)
    y_pm = np.where(data.labels > 0, 1.0, -1.0)
    full_losses = np.logaddexp(
        0.0, -(data.features @ thetas) * y_pm[:, None]).sum(axis=0)

    start = time.perf_counter()
    within = 0
    total = 0
    for seed in range(50):
        config = SamplerConfig(coreset_size=m, det_ratio=0.0,
                               weight_strategy="inv", seed=seed)
        coreset = build_coreset(data, scores, config)
        rows = data.subset_by_ids(coreset.point_ids)
        margins = (rows.features @ thetas) * \
            np.where(rows.labels > 0, 1.0, -1.0)[:, None]
        core_losses = coreset.weights @ np.logaddexp(0.0, -margins)
        ratios = core_losses / full_losses
        within += int(np.sum(np.abs(ratios - 1.0) <= 0.2))
        total += len(ratios)
    elapsed = time.perf_counter() - start

    assert total == 1000
    fraction = within / total
    assert fraction >= 0.95, f"loss ratio within 0.2 in only {fraction:.1%}"
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    announce(1, "loss-ratio property",
             f"{fraction:.1%} within tolerance, {elapsed:.1f}s")


def test_criterion_2_unbiasedness_and_mass_conservation(mixture_with_scores):
    data, scores = mixture_with_scores
    n, m = data.n, 400
    totals = []
    for seed in range(1000):
        inv = build_coreset(data, scores,
                            SamplerConfig(coreset_size=m, det_ratio=0.0,
                                          weight_strategy="inv", seed=seed))
        totals.append(inv.total_weight)
    rel_err = abs(np.mean(totals) / n - 1.0)
    assert rel_err < 0.02, f"inverse-probability weights biased by {rel_err:.3%}"

    for strategy in ("keep", "prop"):
        for seed in range(1000):
            coreset = build_coreset(
                data, scores,
                SamplerConfig(coreset_size=m, det_ratio=0.2,
                              weight_strategy=strategy, seed=seed))
            assert abs(coreset.total_weight - n) <= 1e-9 * n, \
                f"{strategy} broke mass conservation at seed {seed}"
    announce(2, "unbiasedness + mass conservation",
             f"mean-total relative error {rel_err:.4%}")


def test_criterion_3_deterministic_inclusion(mixture_with_scores):
    data, scores = mixture_with_scores
    m = 400
    class_counts = {int(c): int(np.sum(data.labels == c)) for c in data.classes}
    budgets = allocate_class_budgets(m, class_counts, "proportional")
    for det_ratio in SWEEP_DET_RATIOS:
        for seed in range(5):
            coreset = build_coreset(
                data, scores,
                SamplerConfig(coreset_size=m, det_ratio=det_ratio,
                              weight_strategy="inv", seed=seed))
            det_mask = coreset.provenance == "deterministic"
            for cls in data.classes:
                cls = int(cls)
                pos = np.flatnonzero(data.labels == cls)
                probs = scores.values[pos] / scores.values[pos].sum()
                k = int(np.floor(det_ratio * budgets[cls]))
                order = np.lexsort((data.point_ids[pos], -probs))
                expected = data.point_ids[pos][order[:k]]
                got = coreset.point_ids[det_mask & (coreset.labels == cls)]
                assert sorted(got.tolist()) == sorted(expected.tolist())
                assert np.all(coreset.counts[det_mask & (coreset.labels == cls)]
                              == 1)
    announce(3, "deterministic top-probability inclusion",
             f"ratios {SWEEP_DET_RATIOS}, 5 seeds each")


def _simulate_patience(improvements, patience_limit, max_rounds):
    counter, out = 0, []
    for improved in improvements:
        if len(out) >= max_rounds or counter >= patience_limit:
            break
        counter = 0 if improved else counter + 1
        out.append(counter)
    return out


def _scripted_metric(values):
    state = {"i": -1}

    def phi(model, validation):
        state["i"] = min(state["i"] + 1, len(values) - 1)
        return values[state["i"]]

    return phi


def test_criterion_4_never_worse_refinement():
    violations = 0
    train_config = TrainConfig()
    for trial in range(100):
        rng_seed = 1000 + trial
        data = gaussian_mixture(n=120, d=4, seed=rng_seed)
        splits = stratified_split(data, (0.7, 0.15, 0.15), seed=rng_seed)
        scores = compute_scores("leverage", splits.train)
        coreset = build_coreset(
            splits.train, scores,
            SamplerConfig(coreset_size=15, det_ratio=0.1 * (trial % 3),
                          weight_strategy=("inv", "keep", "prop")[trial % 3],
                          seed=rng_seed))
        config = RefineConfig(batch_size=7, patience=(trial % 3) + 1, metric="f1")
        returned, trace = refine(splits.train, splits.validation, coreset,
                                 train_config, config)

        def retrained_phi(cs):
            features, labels, weights = cs.materialize(splits.train)
            model = train(features, labels, weights, train_config)
            report = classification_report(
                splits.validation.labels,
                decision_scores(model, splits.validation.features))
            return report.f1

        if retrained_phi(returned) < retrained_phi(coreset):
            violations += 1
    assert violations == 0, f"{violations} never-worse violations"

    # patience counter vs a hand simulation on 5 scripted sequences
    scripts = [([0.1, 0.2, 0.3, 0.3, 0.3], 2),
               ([0.5, 0.4], 1),
               ([0.1, 0.2, 0.2, 0.3, 0.3, 0.3], 2),
               ([0.5, 0.5, 0.5], 2),
               ([0.1, 0.2, 0.3, 0.4, 0.4], 1)]
    data = gaussian_mixture(n=160, d=4, seed=5)
    splits = stratified_split(data, (0.7, 0.15, 0.15), seed=5)
    scores = compute_scores("leverage", splits.train)
    coreset = build_coreset(splits.train, scores,
                            SamplerConfig(coreset_size=16, seed=5))
    for values, rho in scripts:
        config = RefineConfig(batch_size=2, patience=rho,
                              metric=_scripted_metric(values), max_rounds=50)
        _, trace = refine(splits.train, splits.validation, coreset,
                          train_config, config)
        improvements = [values[i + 1] > values[i] for i in range(len(values) - 1)]
        expected = _simulate_patience(improvements, rho, 50)
        assert [r.patience for r in trace.rounds] == expected
    announce(4, "never-worse refinement", "100 trials, 0 violations")


def imbalanced_problem(n=10000, d=20, seed=0):
    rng = np.random.default_rng(seed)
    n_pos = n // 10
    mu = 1.2 / np.sqrt(d)
    X = np.vstack([rng.normal(0.0, 1.0, size=(n - n_pos, d)),
                   rng.normal(mu, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    perm = rng.permutation(n)
    return stratified_split(Dataset(X[perm].copy(), y[perm]), (0.8, 0.1, 0.1),
                            seed=0)


def test_criterion_5_tuned_beats_vanilla_directionally():
    splits = imbalanced_problem()
    axes = dict(
        coreset_ratios=(0.005, 0.05375, 0.1025, 0.15125, 0.2),
        det_ratios=SWEEP_DET_RATIOS,
        weight_strategies=("inv", "prop", "keep"),
        class_allocations=tuple({0: p / 100, 1: 1 - p / 100}
                                for p in (80, 75, 70, 65, 60, 55, 50)),
        sensitivity_provider="leverage",
        repeats=1)
    start = time.perf_counter()
    wins = 0
    deltas = []
    for base_seed in range(10):
        grid = GridSpec(base_seed=base_seed * 10_000, **axes)
        result = run_grid(splits, grid, TrainConfig(), workers=4)
        best = result.best
        vanilla = next(t for t in result.trials
                       if t.vanilla and t.coreset_ratio == best.coreset_ratio)
        if best.validation.f1 > vanilla.validation.f1:
            wins += 1
        deltas.append(best.test.f1 - vanilla.test.f1)
        assert not result.failures
    elapsed = time.perf_counter() - start

    assert wins >= 8, f"tuned beat vanilla on validation in only {wins}/10 seeds"
    mean_delta = float(np.mean(deltas))
    assert mean_delta > 0, f"mean test-F1 delta {mean_delta:+.4f} not positive"
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.0f}s"
    announce(5, "tuned vs vanilla, directional",
             f"{wins}/10 validation wins, mean test-F1 delta "
             f"{mean_delta:+.4f}, {elapsed:.0f}s")


def _pair_count_auc(y, scores):
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (len(pos) * len(neg))


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(4, 201))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.normal(size=n), 2)
        assert roc_auc(y, scores) == _pair_count_auc(y, scores)

    conf = classification_report([1, 1, 0, 0], [1, 0, 0, 0]).confusion
    assert conf == (1, 0, 2, 1)
    assert f1(conf) == pytest.approx(2 / 3)
    assert balanced_accuracy(conf) == pytest.approx(0.75)
    assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)
    assert average_precision([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == \
        pytest.approx(0.5 + 1 / 3)
    assert average_precision([1, 0], [0.2, 0.9]) == pytest.approx(0.5)
    announce(6, "metric oracles", "100 exact AUC matches + worked examples")


def test_criterion_7_learner_checks():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 5))
    y = rng.integers(0, 2, size=20)
    y[0], y[1] = 0, 1
    w = rng.uniform(0.5, 2.0, size=20)
    y_pm = np.where(y > 0, 1.0, -1.0)
    step = 1e-6
    for _ in range(10):
        coef = rng.normal(size=5)
        b = float(rng.normal())
        grad_coef, grad_b = weighted_logistic_gradient(coef, b, X, y_pm, w, 1.0)
        analytic = np.append(grad_coef, grad_b)
        numeric = np.empty(6)
        for j in range(5):
            delta = np.zeros(5)
            delta[j] = step
            numeric[j] = (weighted_logistic_objective(coef + delta, b, X, y_pm,
                                                      w, 1.0)
                          - weighted_logistic_objective(coef - delta, b, X,
                                                        y_pm, w, 1.0)) / (2 * step)
        numeric[5] = (weighted_logistic_objective(coef, b + step, X, y_pm, w, 1.0)
                      - weighted_logistic_objective(coef, b - step, X, y_pm, w,
                                                    1.0)) / (2 * step)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5, f"gradient relative error {rel:.2e}"

    for loss in ("logistic", "hinge"):
        config = TrainConfig(loss=loss)
        dup = train(np.vstack([X, X[:1]]), np.append(y, y[0]),
                    np.ones(21), config)
        doubled_w = np.ones(20)
        doubled_w[0] = 2.0
        doubled = train(X, y, doubled_w, config)
        dist = np.linalg.norm(dup.coefficients - doubled.coefficients)
        assert dist < 1e-6, f"{loss} duplication distance {dist:.2e}"
        assert abs(dup.intercept - doubled.intercept) < 1e-6
    announce(7, "learner checks", "gradient + duplication equivalence")


A9A_PATH = os.environ.get("CORETUNE_A9A_PATH", "")


@pytest.mark.skipif(not A9A_PATH, reason="set CORETUNE_A9A_PATH to an a9a "
                                         "LIBSVM file to run the real-data smoke test")
def test_criterion_8_a9a_smoke():
    from coretune.data import parse_libsvm

    data = parse_libsvm(A9A_PATH)
    splits = stratified_split(data, (0.8, 0.1, 0.1), seed=0)
    train_config = TrainConfig()
    model = train(splits.train.features, splits.train.labels,
                  splits.train.weights, train_config)
    report = classification_report(splits.test.labels,
                                   decision_scores(model, splits.test.features))
    assert abs(report.f1 - 0.6530) <= 0.03, f"full-data test F1 {report.f1:.4f}"

    grid = GridSpec(
        coreset_ratios=(0.15125,),
        det_ratios=SWEEP_DET_RATIOS,
        weight_strategies=("inv", "prop", "keep"),
        class_allocations=tuple({0: p / 100, 1: 1 - p / 100}
                                for p in (80, 75, 70, 65, 60, 55, 50)),
        sensitivity_provider="leverage", repeats=1, base_seed=0)
    result = run_grid(splits, grid, train_config, workers=4)
    best = result.best
    vanilla = next(t for t in result.trials if t.vanilla)
    assert best.test.f1 >= vanilla.test.f1
    announce(8, "a9a smoke test",
             f"full F1 {report.f1:.4f}, tuned test F1 {best.test.f1:.4f} >= "
             f"vanilla {vanilla.test.f1:.4f}")
