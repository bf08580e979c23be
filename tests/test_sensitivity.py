import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coretune.data import Dataset
from coretune.sensitivity import (DegenerateScoresError, SensitivityScores,
                                  available_providers, check_provider_params,
                                  compute_scores, leverage_sensitivities,
                                  lewis_weight_sensitivities, to_probabilities,
                                  uniform_scores)


class TestUniformScores:
    def test_n4(self):
        assert uniform_scores(4).values.tolist() == [0.25] * 4

    def test_n1(self):
        assert uniform_scores(1).values.tolist() == [1.0]

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            uniform_scores(0)


def hat_diagonal(X):
    """Independent oracle: diagonal of the projection X (X^T X)^-1 X^T."""
    H = X @ np.linalg.inv(X.T @ X) @ X.T
    return np.diag(H)


class TestLeverage:
    def test_identity_rows(self):
        scores = leverage_sensitivities(np.eye(3), mix=0.0, add_intercept=False)
        assert np.allclose(scores.values, [1 / 3] * 3)

    def test_hand_projection_oracle(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected_lev = hat_diagonal(X)
        assert np.allclose(expected_lev, [0.5, 0.5, 1.0])
        scores = leverage_sensitivities(X, mix=0.0, add_intercept=False)
        assert np.allclose(scores.values, expected_lev / expected_lev.sum())
        assert np.allclose(scores.values, [0.25, 0.25, 0.5])

    def test_mix_one_is_uniform(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        scores = leverage_sensitivities(X, mix=1.0)
        assert np.allclose(scores.values, uniform_scores(10).values)

    def test_zero_matrix_mix_zero_degenerate(self):
        with pytest.raises(DegenerateScoresError):
            leverage_sensitivities(np.zeros((4, 2)), mix=0.0, add_intercept=False)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(6, 30), st.integers(1, 5)),
                      elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_leverage_sum_equals_augmented_rank(self, X):
        A = np.hstack([X, np.ones((X.shape[0], 1))])
        rank = np.linalg.matrix_rank(A)
        scores = leverage_sensitivities(X, mix=0.0)
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        tol = s[0] * max(A.shape) * np.finfo(np.float64).eps
        lev = (U[:, : np.sum(s > tol)] ** 2).sum(axis=1)
        assert abs(lev.sum() - rank) < 1e-8
        # normalized output still sums to 1
        assert abs(scores.values.sum() - 1.0) < 1e-9


def lewis_fixed_point_oracle(X, tol=1e-10, max_iters=10000):
    """Independent fixed-point loop using explicit inverses."""
    n, d = X.shape
    w = np.full(n, d / n)
    for _ in range(max_iters):
        M = np.linalg.inv(X.T @ (X / w[:, None]))
        w_new = np.sqrt(np.einsum("ij,jk,ik->i", X, M, X))
        if np.max(np.abs(w_new - w) / w) < tol:
            return w_new
        w = w_new
    return w


class TestLewisWeights:
    def test_orthogonal_square_fixed_point(self):
        # Rows of an orthogonal matrix: x_i^T (X^T X)^-1 x_i = 1 = w_i.
        theta = 0.3
        X = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        scores = lewis_weight_sensitivities(X, mix=0.0, add_intercept=False)
        assert scores.converged
        assert np.allclose(scores.values, [0.5, 0.5])

    def test_repeated_row_oracle(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected = lewis_fixed_point_oracle(X)
        assert np.allclose(expected, [0.5, 0.5, 1.0], atol=1e-8)
        scores = lewis_weight_sensitivities(X, max_iters=500, tol=1e-12,
                                            mix=0.0, add_intercept=False)
        got = scores.values * expected.sum()  # undo the sum normalization
        assert np.allclose(got, expected, atol=1e-6)
        assert got[2] > got[0]
        assert abs(got[0] - got[1]) < 1e-12

    def test_zero_iterations_returns_init(self):
        X = np.random.default_rng(0).normal(size=(8, 3))
        scores = lewis_weight_sensitivities(X, max_iters=0, mix=0.0,
                                            add_intercept=False)
        assert not scores.converged
        assert np.allclose(scores.values, [1 / 8] * 8)  # d/n normalized

    def test_weight_sum_near_rank(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        scores = lewis_weight_sensitivities(X, mix=0.0, add_intercept=True,
                                            tol=1e-10, max_iters=2000)
        # recover unnormalized weights via the oracle total
        A = np.hstack([X, np.ones((40, 1))])
        w = lewis_fixed_point_oracle(A)
        assert abs(w.sum() - 5) / 5 < 0.05

    def test_fixed_point_stability(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        tol = 1e-9
        scores = lewis_weight_sensitivities(X, tol=tol, max_iters=5000, mix=0.0,
                                            add_intercept=True)
        assert scores.converged
        A = np.hstack([X, np.ones((30, 1))])
        w = scores.values * lewis_fixed_point_oracle(A, tol=tol).sum()
        from coretune.sensitivity import _lewis_iteration
        w_next, _ = _lewis_iteration(A, w)
        assert np.max(np.abs(w_next - w) / w) < 10 * tol

    def test_ridge_fallback_on_rank_deficient(self):
        X = np.zeros((6, 3))
        X[:, 0] = 1.0
        scores = lewis_weight_sensitivities(X, mix=0.5, add_intercept=False,
                                            max_iters=5)
        assert scores.ridge_fallback


def sparse_design(n, d, density, seed):
    """A CSR matrix of normal entries plus one entry in every row, so that
    no row is all zero without the intercept."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=lambda k: rng.normal(size=k))
    one_per_row = sp.csr_matrix((rng.normal(size=n) + 2.0,
                                 (np.arange(n), rng.integers(0, d, size=n))),
                                shape=(n, d))
    return (X + one_per_row).tocsr()


def relative_error(got, expected):
    return np.max(np.abs(got - expected) / np.abs(expected))


class TestSparseScoring:
    """CSR input is scored through its Gram matrix, without densifying.
    Dense and CSR Lewis weights share one update, so they are checked
    against the explicit-inverse oracle; comparing the two layouts checks
    only that they agree."""

    @pytest.mark.parametrize("add_intercept", [True, False])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_lewis_matches_the_explicit_inverse_oracle(self, layout,
                                                       add_intercept):
        X = sparse_design(300, 40, 0.05, seed=5)
        A = X.toarray()
        if add_intercept:
            A = np.hstack([A, np.ones((300, 1))])
        expected = lewis_fixed_point_oracle(A, tol=1e-14)
        features = X.toarray() if layout == "dense" else X
        scores = lewis_weight_sensitivities(features, tol=1e-14, max_iters=500,
                                            mix=0.0, add_intercept=add_intercept)
        assert scores.converged and not scores.ridge_fallback
        assert relative_error(scores.values, expected / expected.sum()) < 1e-10

    @pytest.mark.parametrize("add_intercept", [True, False])
    @pytest.mark.parametrize("score", [leverage_sensitivities,
                                       lewis_weight_sensitivities])
    def test_csr_matches_dense(self, score, add_intercept):
        X = sparse_design(300, 40, 0.05, seed=5)
        assert sp.issparse(X) and X.nnz < 0.1 * 300 * 40
        dense = score(X.toarray(), mix=0.0, add_intercept=add_intercept)
        csr = score(X, mix=0.0, add_intercept=add_intercept)
        assert relative_error(csr.values, dense.values) < 1e-10
        assert (csr.converged, csr.ridge_fallback) == \
            (dense.converged, dense.ridge_fallback) == (True, False)

    def test_csr_lewis_reports_the_iteration_cap_like_dense(self):
        X = sparse_design(300, 40, 0.05, seed=6)
        dense = lewis_weight_sensitivities(X.toarray(), max_iters=2)
        csr = lewis_weight_sensitivities(X, max_iters=2)
        assert not dense.converged and not csr.converged
        assert relative_error(csr.values, dense.values) < 1e-10

    def test_zero_column_sets_ridge_fallback(self):
        X = sp.hstack([sparse_design(60, 5, 0.2, seed=7),
                       sp.csr_matrix((60, 1))], format="csr")
        assert X[:, 5].nnz == 0
        csr = lewis_weight_sensitivities(X, max_iters=5, add_intercept=False)
        dense = lewis_weight_sensitivities(X.toarray(), max_iters=5,
                                           add_intercept=False)
        assert csr.ridge_fallback and dense.ridge_fallback
        assert relative_error(csr.values, dense.values) < 1e-8

    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    def test_lewis_rejects_a_non_finite_or_null_gram(self, layout):
        X = np.ones((5, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            lewis_weight_sensitivities(layout(X))
        # A zero Gram stays singular after ridge damping.
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            lewis_weight_sensitivities(layout(np.zeros((5, 2))),
                                       add_intercept=False)

    def test_all_zero_row_without_intercept_is_an_error(self):
        X = sparse_design(40, 5, 0.3, seed=8).tolil()
        X[3, :] = 0.0
        X = X.tocsr()
        X.eliminate_zeros()
        for features in (X, X.toarray()):
            with pytest.raises(ValueError, match="row 3 has weight 0"):
                lewis_weight_sensitivities(features, add_intercept=False)

    @pytest.mark.parametrize("seed", [9, 10, 11, 12])
    @pytest.mark.parametrize("dependent", ["duplicate", "combination"])
    def test_sparse_leverage_has_the_svd_rank(self, dependent, seed):
        from coretune.sensitivity import _design_matrix, _sparse_leverage

        X = sparse_design(200, 10, 0.3, seed=seed)
        extra = (X[:, [3]] if dependent == "duplicate"
                 else 0.1 * X[:, [3]] + 0.7 * X[:, [5]])
        X = sp.hstack([X, extra], format="csr")
        A = _design_matrix(X, add_intercept=True)
        # The Gram's rounding-level eigenvalue is positive for some seeds.
        rank = np.linalg.matrix_rank(A.toarray())
        assert rank == 11 < A.shape[1]
        assert abs(_sparse_leverage(A).sum() - rank) < 1e-8
        dense = leverage_sensitivities(X.toarray(), mix=0.0)
        csr = leverage_sensitivities(X, mix=0.0)
        assert relative_error(csr.values, dense.values) < 1e-8

    def test_csr_lewis_memory_stays_well_below_a_dense_copy(self):
        import scipy.linalg  # noqa: F401 - its import is not the scoring's

        n, d = 5000, 2000
        X = sp.random(n, d, density=0.005, format="csr",
                      random_state=np.random.default_rng(10))
        tracemalloc.start()
        try:
            lewis_weight_sensitivities(X, max_iters=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One d x d Gram (32 MB) plus O(nnz + block*d); densifying is 80 MB.
        assert peak < 0.6 * n * d * 8


class TestProviderParams:
    @pytest.mark.parametrize("params", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"max_iters": 2.5}, {"max_iters": -1}, {"add_intercept": "yes"},
        {"mix": float("nan")}])
    def test_lewis_rejects_malformed_params(self, params):
        X = np.random.default_rng(0).normal(size=(8, 2))
        name = next(iter(params))
        with pytest.raises(ValueError, match=name):
            lewis_weight_sensitivities(X, **params)
        with pytest.raises(ValueError, match=name):
            check_provider_params("lewis", params)

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="mixx"):
            check_provider_params("leverage", {"mixx": 0.3})
        with pytest.raises(TypeError, match="mix"):
            check_provider_params("uniform", {"mix": 0.5})

    def test_well_formed_params_pass(self):
        check_provider_params("lewis", {"tol": 1e-9, "max_iters": 0, "mix": 1})
        check_provider_params("leverage", {})
        check_provider_params("uniform", {})


class TestToProbabilities:
    def test_simple(self):
        probs = to_probabilities(SensitivityScores(np.array([1.0, 1.0, 2.0]), 4.0,
                                                   "manual"))
        assert probs.tolist() == [0.25, 0.25, 0.5]

    def test_single_point(self):
        probs = to_probabilities(SensitivityScores(np.array([5.0]), 5.0, "manual"))
        assert probs.tolist() == [1.0]

    def test_uniform_ten(self):
        probs = to_probabilities(uniform_scores(10))
        assert np.allclose(probs, 0.1)

    @given(hnp.arrays(np.float64, st.integers(1, 50),
                      elements=st.floats(1e-6, 1e6)),
           st.floats(1e-6, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, values, c):
        base = SensitivityScores(values, float(values.sum()), "fuzz")
        scaled = SensitivityScores(values * c, float((values * c).sum()), "fuzz")
        p0 = to_probabilities(base)
        p1 = to_probabilities(scaled)
        assert np.all(np.abs(p0 - p1) <= 1e-12 * np.maximum(p0, 1e-300))

    @given(hnp.arrays(np.float64, st.integers(1, 100),
                      elements=st.floats(1e-9, 1e9)))
    @settings(max_examples=80, deadline=None)
    def test_any_positive_provider_yields_valid_probabilities(self, values):
        scores = SensitivityScores(values, float(values.sum()), "fuzz")
        probs = to_probabilities(scores)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)
        assert np.all(probs <= 1)


class TestScoreInvariants:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            SensitivityScores(np.array([1.0, 0.0]), 1.0, "bad")

    def test_rejects_total_mismatch(self):
        with pytest.raises(ValueError):
            SensitivityScores(np.array([1.0, 1.0]), 3.0, "bad")


class TestProviderRegistry:
    def test_builtins_present(self):
        names = available_providers()
        for name in ("uniform", "leverage", "lewis"):
            assert name in names
        assert "random" not in names  # one name per provider

    def test_unknown_provider(self):
        data = Dataset(np.zeros((3, 1)), np.array([0, 1, 0]))
        with pytest.raises(KeyError, match="unified"):
            compute_scores("unified", data)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("name", available_providers())
    def test_every_provider_scores_with_its_defaults(self, name, layout):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3)) * (rng.random((12, 3)) < 0.6)
        data = Dataset(sp.csr_matrix(X) if layout == "csr" else X,
                       np.array([0, 1] * 6))
        check_provider_params(name, {})
        scores = compute_scores(name, data)
        assert scores.provider_name == name
        assert len(scores) == data.n and np.all(scores.values > 0)

    def test_provider_params_forwarded(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(12, 3)), np.array([0, 1] * 6))
        mixed = compute_scores("leverage", data, mix=1.0)
        assert np.allclose(mixed.values, 1 / 12)
