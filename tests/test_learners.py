import hashlib
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from coretune import learners
from coretune.data import CSRMatrix, as_features
from coretune.learners import (LinearModel, TrainConfig, decision_scores, train,
                               weighted_logistic_gradient,
                               weighted_logistic_objective, weighted_loss)


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

    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    def test_hinge_gradient_once_every_margin_is_met(self, layout):
        # No point is active, so the gradient sums over no rows.
        X = as_features(layout(np.array([[-1.0], [1.0]])))
        grad, grad_b = learners._hinge_data_grad(X, np.array([-1.0, 1.0]),
                                                 np.ones(2), np.array([2.0]), 0.0)
        assert grad.tolist() == [0.0] and grad_b == 0.0


def zero_model():
    return LinearModel(np.zeros(3), 0.0, "logistic", True)


# train and weighted_loss, each as a function of (features, labels, weights).
INPUT_CHECKED = {
    "train": lambda X, y, w: train(X, y, w, TrainConfig()),
    "weighted_loss": lambda X, y, w: weighted_loss(zero_model(), X, y, w),
}


class TestInputChecks:
    @pytest.mark.parametrize("call", INPUT_CHECKED)
    @pytest.mark.parametrize("change,match", [
        # Checked in this order: labels, lengths, features, weights.
        ({"y": [0, 2, 1]}, r"labels must be binary 0/1, got \[0, 1, 2\]"),
        ({"y": [0, 2]}, r"labels must be binary 0/1, got \[0, 2\]"),
        ({"y": [1]}, "must have equal length"),
        ({"w": [1.0, 1.0]}, "must have equal length"),
        ({"X": [[1.0, 0, 0], [np.nan, 0, 0], [0, 0, 1.0]], "w": [1, -1, 1]},
         "features contain non-finite values"),
        ({"w": [1.0, -1.0, 1.0]}, r"weights must be finite and >= 0"),
        ({"w": [1.0, np.nan, 1.0]}, r"weights must be finite and >= 0"),
        ({"w": [1.0, np.inf, 1.0]}, r"weights must be finite and >= 0"),
    ])
    def test_train_and_weighted_loss_reject_alike(self, call, change, match):
        inputs = {"X": np.eye(3), "y": [0, 1, 1], "w": np.ones(3)} | change
        with pytest.raises(ValueError, match=match):
            INPUT_CHECKED[call](np.asarray(inputs["X"], dtype=float),
                                np.asarray(inputs["y"]), np.asarray(inputs["w"]))

    def test_only_train_needs_weight_in_both_classes(self):
        X, y, w = np.eye(3), np.array([0, 1, 1]), np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="positive weight in both classes"):
            train(X, y, w, TrainConfig())
        assert weighted_loss(zero_model(), X, y, w) == 2 * math.log(2)

    def test_model_parameters_must_be_finite(self):
        with pytest.raises(ValueError, match="model parameters must be finite"):
            LinearModel(np.array([1.0, np.nan]), 0.0, "logistic", True)
        with pytest.raises(ValueError, match="model parameters must be finite"):
            LinearModel(np.array([1.0]), np.inf, "logistic", True)

    def test_sparse_matches_dense(self):
        X, y, w = random_instance(n=60, d=8, seed=17)
        dense = train(X, y, w, TrainConfig())
        sparse = train(sp.csr_matrix(X), y, w, TrainConfig())
        assert np.linalg.norm(dense.coefficients - sparse.coefficients) < 1e-8
        assert abs(dense.intercept - sparse.intercept) < 1e-8

    def test_wide_sparse_matches_dense(self):
        # 151 unknowns: the dense fit solves each Newton system directly, the
        # CSR fit by conjugate gradients.
        X, y, w = sparse_instance(n=300, d=150, seed=23)
        dense = train(X.toarray(), y, w, TrainConfig())
        sparse = train(X, y, w, TrainConfig())
        assert dense.converged and sparse.converged
        assert np.linalg.norm(dense.coefficients - sparse.coefficients) < 1e-8
        assert abs(dense.intercept - sparse.intercept) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("offset", [0.0, 1.5])
    def test_sparse_matches_dense_on_coreset_like_weights(self, seed, C,
                                                          offset):
        # Inverse-probability weights of a skewed sampling distribution span
        # orders of magnitude, as a sensitivity coreset's do; CSR steps are
        # inexact, dense ones direct, and both fits stop at one tolerance.
        # An offset in the labels' rule skews the classes, so the CSR
        # system's intercept row carries a large unpenalized unknown.
        rng = np.random.default_rng(seed)
        n, d = 400, 200
        X = sp.random(n, d, density=0.03, format="csr", random_state=rng,
                      data_rvs=lambda k: rng.normal(size=k))
        y = (X @ rng.normal(size=d) + 0.3 * rng.normal(size=n) + offset
             > 0).astype(int)
        w = 1.0 / (n * rng.dirichlet(np.full(n, 0.3)))
        w *= 8000.0 / w.sum()
        config = TrainConfig(regularization=C)
        dense = train(X.toarray(), y, w, config)
        sparse = train(X, y, w, config)
        assert dense.converged and sparse.converged
        want = np.append(dense.coefficients, dense.intercept)
        got = np.append(sparse.coefficients, sparse.intercept)
        assert (np.linalg.norm(got - want)
                <= 1e-8 * max(1.0, C) * np.linalg.norm(want))

    def test_sparse_fit_takes_few_conjugate_gradient_products(self,
                                                              monkeypatch):
        # One forward product per CG iteration. Solving every Newton system
        # to a 1e-12 residual took 208 products here; the forcing term
        # min(0.5, ||g||) takes 33.
        products = []
        in_step = []
        matmul = CSRMatrix.__matmul__
        step = learners._sparse_newton_step

        def matmul_spy(self, x):
            if in_step:
                products.append(1)
            return matmul(self, x)

        def step_spy(*args):
            in_step.append(1)
            try:
                return step(*args)
            finally:
                in_step.pop()

        monkeypatch.setattr(CSRMatrix, "__matmul__", matmul_spy)
        monkeypatch.setattr(learners, "_sparse_newton_step", step_spy)
        X, y, w = sparse_instance(n=300, d=150, seed=23)
        model = train(X, y, w, TrainConfig())
        assert model.converged
        assert 0 < len(products) <= 50

    def test_converges_on_well_conditioned_instance(self):
        X, y, w = random_instance(seed=19)
        assert train(X, y, w, TrainConfig()).converged


LAYOUTS = pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix],
                                  ids=["dense", "csr"])


class TestIntercept:
    """Every model fits an unpenalized intercept, dense and CSR alike."""

    @LAYOUTS
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_heavy_penalty_leaves_the_weighted_log_odds(self, layout, share):
        # With the coefficients pinned near zero, only the intercept can fit
        # the data: sigmoid(b) is the weighted share of positives.
        X, y, w = random_instance(n=60, d=4, seed=21)
        w = w * np.where(y == 1, share / w[y == 1].sum(),
                         (1 - share) / w[y == 0].sum())
        model = train(layout(X), y, w, TrainConfig(regularization=1e-8))
        assert model.converged
        assert np.abs(model.coefficients).max() < 1e-7
        assert abs(model.intercept - math.log(share / (1 - share))) < 1e-6

    @LAYOUTS
    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    def test_shifting_a_column_moves_only_the_intercept(self, layout, C):
        # X + 1 c^T with b - c . beta gives the same margins and penalty, so
        # the optimum keeps its coefficients and moves only its intercept.
        X, y, w = random_instance(n=80, d=5, seed=25)
        c = np.array([3.0, 0.0, -2.0, 0.0, 0.5])
        config = TrainConfig(regularization=C)
        base = train(layout(X), y, w, config)
        shifted = train(layout(X + c), y, w, config)
        assert base.converged and shifted.converged
        scale = max(1.0, np.linalg.norm(base.coefficients))
        assert (np.linalg.norm(shifted.coefficients - base.coefficients)
                <= 1e-7 * scale)
        assert (abs(shifted.intercept - (base.intercept - c @ base.coefficients))
                <= 1e-7 * scale)


# Dense Newton systems of a grid's size (21 unknowns) and larger ones.
SIZES = pytest.mark.parametrize("k", [21, 101, 301])


def spd_system(k, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3 * k, k))
    return A.T @ A + np.eye(k), rng.normal(size=k)


class TestNewtonSolve:
    @SIZES
    def test_matches_cho_solve(self, k):
        H, rhs = spd_system(k)
        expected = cho_solve(cho_factor(H), rhs)
        got = learners._cholesky_solve(H, rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @SIZES
    def test_indefinite_matrix_raises_linalg_error(self, k):
        H, rhs = spd_system(k, seed=1)
        H[k // 2, k // 2] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            learners._cholesky_solve(H, rhs)

    @SIZES
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_nan_raises_value_error(self, k, where):
        H, rhs = spd_system(k, seed=2)
        (H[0] if where == "matrix" else rhs)[-1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            learners._cholesky_solve(H, rhs)

    @SIZES
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


class TestLineSearch:
    def test_overshooting_newton_step_backtracks_then_converges(self, monkeypatch):
        # Heavy-tailed features: at one iterate the quadratic model badly
        # overestimates the decrease, so the full Newton step must be halved.
        candidates = []  # per Newton iteration, the trial points it evaluated
        gradient_at = learners._logistic_gradient_at
        objective = learners._objective

        def gradient_spy(z, coef, *args):
            candidates.append([coef.copy()])
            return gradient_at(z, coef, *args)

        def objective_spy(loss, z, coef, *args):
            if not np.array_equal(coef, candidates[-1][0]):
                candidates[-1].append(coef.copy())
            return objective(loss, z, coef, *args)

        monkeypatch.setattr(learners, "_logistic_gradient_at", gradient_spy)
        monkeypatch.setattr(learners, "_objective", objective_spy)
        X = np.array([[1.35, 0.01], [-173.73, -1.4], [-1.94, -0.16],
                      [140.23, -5.54], [0.72, 7.11]])
        y = np.array([0, 1, 1, 1, 0])
        w = np.array([4.08, 4.87, 4.35, 3.43, 0.99])
        model = train(X, y, w, TrainConfig(regularization=100.0))
        tries = [len(points) - 1 for points in candidates]
        assert max(tries) >= 2  # a rejected full step, then a shorter one
        assert model.converged


# sha256 of each fit's coefficient bytes, intercept bytes and converged
# flag. The metric-table goldens rarely move when a coefficient moves by one
# ulp; these move with any change to a fit.
PINNED_FITS = {
    "dense-logistic": (
        False, TrainConfig(),
        "4d040358fb7c4fe5c20cee7b7052f64e49bff91cbb85bff05e6127de99ad186d"),
    "csr-logistic": (
        True, TrainConfig(),
        "205001ce989ab48c64d9fad8de64b01c1078a22c972e93b2fbb92739fa3ce3b3"),
    "dense-hinge": (
        False, TrainConfig(loss="hinge"),
        "e0a71e098e070b6c841b5d1523c7a20a4d62e6151d3115061e8728a4d13d1eb6"),
}


class TestTrainPinned:
    @pytest.mark.parametrize("key", sorted(PINNED_FITS))
    def test_fit_bytes_pinned(self, key):
        sparse, config, expected = PINNED_FITS[key]
        X, y, w = (sparse_instance(n=300, d=60, seed=8) if sparse
                   else random_instance(n=200, d=8, seed=8))
        model = train(X, y, w, config)
        digest = hashlib.sha256(model.coefficients.tobytes())
        digest.update(np.float64(model.intercept).tobytes())
        digest.update(b"1" if model.converged else b"0")
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_converged_is_a_python_bool(self, loss):
        X, y, w = random_instance(seed=4)
        model = train(X, y, w, TrainConfig(loss=loss))
        assert type(model.converged) is bool
        assert json.loads(json.dumps(model.converged)) == model.converged


def sparse_instance(n, d, seed, density=0.05):
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=lambda k: rng.normal(size=k))
    y = (X @ rng.normal(size=d) + 0.3 * rng.normal(size=n) > 0).astype(int)
    return X, y, rng.uniform(0.5, 2.0, size=n)


def sparse_step(X, dw, grad, tolerance, C=1.0, max_iterations=1000):
    return learners._sparse_newton_step(as_features(X), dw, grad, C,
                                        max_iterations, tolerance)


class TestSparseNewtonStep:
    @staticmethod
    def system(seed=0):
        """40 features and the intercept: 41 unknowns."""
        X, _, _ = sparse_instance(n=200, d=40, seed=seed)
        rng = np.random.default_rng(seed + 1)
        return X, rng.uniform(0.0, 0.25, size=200), rng.normal(size=41)

    @staticmethod
    def dense_hessian(X, dw, C):
        A = np.hstack([X.toarray(), np.ones((X.shape[0], 1))])
        H = A.T @ (A * dw[:, None])
        H[np.arange(40), np.arange(40)] += 1.0 / C  # intercept unpenalized
        return H

    def test_matches_direct_solve_of_the_same_hessian(self):
        X, dw, grad = self.system()
        C = 0.5
        expected = np.linalg.solve(self.dense_hessian(X, dw, C), grad)
        got = sparse_step(X, dw, grad, 1e-12, C)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_zero_curvature_takes_the_dense_ridge(self):
        # Saturated sigmoids: no point carries curvature, so the intercept's
        # diagonal entry is 0 and only the ridge makes H invertible.
        X, _, grad = self.system()
        dw = np.zeros(X.shape[0])
        got = sparse_step(X, dw, grad, 1e-12)
        assert np.all(np.isfinite(got)) and grad @ got > 0
        expected = learners._dense_newton_step(X.toarray(), dw, grad, 1.0)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("tolerance", [0.5, 1e-3])
    def test_inexact_step_meets_the_forcing_tolerance(self, tolerance):
        X, dw, grad = self.system(seed=2)
        C = 0.5
        H = self.dense_hessian(X, dw, C)
        got = sparse_step(X, dw, grad, tolerance, C)
        assert np.linalg.norm(H @ got - grad) <= tolerance * np.linalg.norm(grad)
        assert grad @ got > 0

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_step_is_a_descent_direction(self, cap):
        X, dw, grad = self.system(seed=4)
        got = sparse_step(X, dw, grad, 1e-12, max_iterations=cap)
        assert grad @ got > 0
        assert not np.allclose(got, sparse_step(X, dw, grad, 1e-12))


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
    def test_pinned_value(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = (rng.random(50) < 0.5).astype(int)
        model = train(X, y, np.ones(50), TrainConfig())
        assert weighted_loss(model, X, y, np.ones(50)) == 29.592350223247365

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
        ("fit_intercept", False),
        ("regularization", "1.0"), ("tolerance", True)])
    def test_rejects_mistyped_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_stores_reals_as_float_and_numpy_integers_as_int(self):
        config = TrainConfig(regularization=2, tolerance=np.float32(0.5),
                             max_iterations=np.int64(7))
        assert (type(config.regularization), type(config.tolerance),
                type(config.max_iterations)) == (float, float, int)
