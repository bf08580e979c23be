import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from coretune import learners
from coretune.learners import (LinearModel, TrainConfig, decision_scores, train,
                               weighted_logistic_gradient,
                               weighted_logistic_objective, weighted_loss)

LIMIT = learners._NUMPY_SOLVE_UNKNOWNS


def random_instance(n=40, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    truth = rng.normal(size=d)
    y = (X @ truth + 0.3 * rng.normal(size=n) > 0).astype(int)
    w = rng.uniform(0.5, 2.0, size=n)
    return X, y, w


class TestTrainLogistic:
    def test_separable_two_points(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train(X, y, np.ones(2), TrainConfig())
        assert model.coefficients[0] > 0
        # the decision boundary -b/coef lies between the two points
        boundary = -model.intercept / model.coefficients[0]
        assert -1 < boundary < 1

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_duplicate_point_equals_doubled_weight(self, loss):
        X, y, _ = random_instance(seed=3)
        n = len(y)
        config = TrainConfig(loss=loss)
        dup = train(np.vstack([X, X[:1]]), np.append(y, y[0]),
                    np.ones(n + 1), config)
        doubled_w = np.ones(n)
        doubled_w[0] = 2.0
        doubled = train(X, y, doubled_w, config)
        assert np.linalg.norm(dup.coefficients - doubled.coefficients) < 1e-6
        assert abs(dup.intercept - doubled.intercept) < 1e-6

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_weight_scaling_against_inverse_regularization(self, loss):
        X, y, w = random_instance(seed=4)
        c = 3.7
        base = train(X, y, w, TrainConfig(loss=loss, regularization=1.0))
        scaled = train(X, y, w * c, TrainConfig(loss=loss, regularization=1.0 / c))
        assert np.linalg.norm(base.coefficients - scaled.coefficients) < 1e-6
        assert abs(base.intercept - scaled.intercept) < 1e-6

    def test_gradient_matches_central_differences(self):
        X, y, w = random_instance(n=20, d=5, seed=7)
        y_pm = np.where(y > 0, 1.0, -1.0)
        rng = np.random.default_rng(11)
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
                hi = weighted_logistic_objective(coef + delta, b, X, y_pm, w, 1.0)
                lo = weighted_logistic_objective(coef - delta, b, X, y_pm, w, 1.0)
                numeric[j] = (hi - lo) / (2 * step)
            hi = weighted_logistic_objective(coef, b + step, X, y_pm, w, 1.0)
            lo = weighted_logistic_objective(coef, b - step, X, y_pm, w, 1.0)
            numeric[5] = (hi - lo) / (2 * step)
            rel = np.linalg.norm(analytic - numeric) / max(1e-12,
                                                           np.linalg.norm(numeric))
            assert rel < 1e-5

    def test_trained_objective_beats_zero_and_random_models(self):
        X, y, w = random_instance(seed=9)
        y_pm = np.where(y > 0, 1.0, -1.0)
        model = train(X, y, w, TrainConfig())
        trained = weighted_logistic_objective(model.coefficients, model.intercept,
                                              X, y_pm, w, 1.0)
        assert trained <= weighted_logistic_objective(np.zeros(5), 0.0, X, y_pm,
                                                      w, 1.0) + 1e-12
        rng = np.random.default_rng(13)
        for _ in range(5):
            coef = rng.normal(size=5)
            b = float(rng.normal())
            assert trained <= weighted_logistic_objective(coef, b, X, y_pm,
                                                          w, 1.0) + 1e-12

    def test_determinism(self):
        X, y, w = random_instance(seed=15)
        a = train(X, y, w, TrainConfig())
        b = train(X, y, w, TrainConfig())
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="both classes"):
            train(X, np.array([1, 1, 1]), np.ones(3), TrainConfig())

    def test_zero_weight_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="both classes"):
            train(X, np.array([0, 1, 1]), np.array([0.0, 1.0, 1.0]), TrainConfig())

    def test_non_finite_feature_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            train(X, np.array([0, 1]), np.ones(2), TrainConfig())

    def test_sparse_matches_dense(self):
        X, y, w = random_instance(n=60, d=8, seed=17)
        dense = train(X, y, w, TrainConfig())
        sparse = train(sp.csr_matrix(X), y, w, TrainConfig())
        assert np.linalg.norm(dense.coefficients - sparse.coefficients) < 1e-8
        assert abs(dense.intercept - sparse.intercept) < 1e-8

    def test_converges_on_well_conditioned_instance(self):
        X, y, w = random_instance(seed=19)
        assert train(X, y, w, TrainConfig()).converged


# Newton systems on either side of the limit between numpy's and scipy's solve.
SIDES = pytest.mark.parametrize("k", [LIMIT, LIMIT + 1])


def spd_system(k, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3 * k, k))
    return A.T @ A + np.eye(k), rng.normal(size=k)


class TestNewtonSolve:
    @SIDES
    def test_matches_cho_solve(self, k):
        H, rhs = spd_system(k)
        expected = cho_solve(cho_factor(H), rhs)
        got = learners._cholesky_solve(H, rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @SIDES
    def test_indefinite_matrix_raises_linalg_error(self, k):
        H, rhs = spd_system(k, seed=1)
        H[k // 2, k // 2] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            learners._cholesky_solve(H, rhs)

    @SIDES
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_nan_raises_value_error(self, k, where):
        H, rhs = spd_system(k, seed=2)
        (H[0] if where == "matrix" else rhs)[-1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            learners._cholesky_solve(H, rhs)

    @SIDES
    def test_separable_data_trains_through_the_ridge_fallback(self, k, monkeypatch):
        # Fewer points than features and almost no penalty: the Hessian is
        # singular in float64, so every Newton step needs the ridge.
        failures = []
        solve = learners._cholesky_solve

        def spy(H, rhs):
            try:
                return solve(H, rhs)
            except np.linalg.LinAlgError:
                failures.append(len(H))
                raise

        monkeypatch.setattr(learners, "_cholesky_solve", spy)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, k - 1))  # k unknowns with the intercept
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        model = train(X, y, np.ones(20), TrainConfig(regularization=1e300))
        assert failures and set(failures) == {k}
        assert np.array_equal(decision_scores(model, X) > 0, y == 1)


class TestExpit:
    def test_matches_scipy(self):
        x = np.linspace(-800.0, 800.0, 200_001)
        np.testing.assert_allclose(learners._expit(x), expit(x), rtol=1e-15,
                                   atol=0)

    def test_far_negative_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert learners._expit(np.array([-1000.0]))[0] == 0.0


class TestWeightedLoss:
    def test_zero_model_logistic(self):
        n = 7
        model = LinearModel(np.zeros(3), 0.0, "logistic", True)
        X = np.random.default_rng(0).normal(size=(n, 3))
        y = np.array([0, 1] * 3 + [0])
        assert weighted_loss(model, X, y, np.ones(n)) == pytest.approx(n * math.log(2))

    def test_hinge_zero_when_margins_met(self):
        model = LinearModel(np.array([2.0]), 0.0, "hinge", True)
        X = np.array([[1.0], [-1.0], [3.0]])
        y = np.array([1, 0, 1])
        assert weighted_loss(model, X, y, np.ones(3)) == 0.0

    def test_three_point_hand_arithmetic_logistic(self):
        model = LinearModel(np.array([1.0]), 0.5, "logistic", True)
        X = np.array([[1.0], [-2.0], [0.5]])
        y = np.array([1, 0, 1])
        w = np.array([2.0, 1.0, 3.0])
        # margins y~ * (x + 0.5): 1.5, 1.5, 1.0
        expected = (2 * math.log(1 + math.exp(-1.5))
                    + 1 * math.log(1 + math.exp(-1.5))
                    + 3 * math.log(1 + math.exp(-1.0)))
        assert weighted_loss(model, X, y, w) == pytest.approx(expected, rel=1e-12)

    def test_three_point_hand_arithmetic_hinge(self):
        model = LinearModel(np.array([1.0]), 0.0, "hinge", True)
        X = np.array([[1.0], [-2.0], [0.5]])
        y = np.array([1, 0, 1])
        w = np.array([2.0, 1.0, 3.0])
        # margins: 1, 2, 0.5 -> hinge losses 0, 0, 0.5
        assert weighted_loss(model, X, y, w) == pytest.approx(1.5)


class TestPredictions:
    def test_zero_model_scores_and_labels(self):
        model = LinearModel(np.zeros(2), 0.0, "logistic", True)
        X = np.random.default_rng(1).normal(size=(5, 2))
        assert np.all(decision_scores(model, X) == 0)


class TestTrainConfig:
    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="squared")

    def test_rejects_nonpositive_regularization(self):
        with pytest.raises(ValueError):
            TrainConfig(regularization=0.0)

    @pytest.mark.parametrize("field,value", [
        ("regularization", float("nan")), ("regularization", float("inf")),
        ("regularization", -1.0), ("tolerance", float("nan")),
        ("tolerance", float("inf")), ("tolerance", 0.0)])
    def test_rejects_nonfinite_or_nonpositive_reals(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 2.0), ("max_iterations", True),
        ("fit_intercept", "no"), ("fit_intercept", 1),
        ("regularization", "1.0"), ("tolerance", True)])
    def test_rejects_mistyped_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_stores_reals_as_float_and_numpy_integers_as_int(self):
        config = TrainConfig(regularization=2, tolerance=np.float32(0.5),
                             max_iterations=np.int64(7))
        assert (type(config.regularization), type(config.tolerance),
                type(config.max_iterations)) == (float, float, int)
