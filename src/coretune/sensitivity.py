"""Per-point sensitivity upper bounds and their sampling probabilities.

Providers map a feature matrix to positive importance scores; normalizing
the scores gives the probability each point is drawn during coreset
sampling. The providers are uniform, leverage scores and l1 Lewis weights,
listed in :data:`PROVIDERS`; the sampler takes any
:class:`SensitivityScores`.

Lewis weights, dense or CSR, and leverage scores of a CSR matrix come from
the d x d Gram matrix, formed in the input's layout and then densified; each
row's quadratic form comes from row blocks of the matrix times a d x d factor
of the Gram's (pseudo-)inverse. A CSR matrix is never densified: memory is
O(nnz + d^2 + block*d), and one Gram costs O(sum of squared row counts +
d^3 + nnz*d) time. Leverage scores of a dense matrix come from a
rank-revealing SVD. scipy is imported when Lewis weights, or leverage scores
of a CSR matrix, are computed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, boolean_field, integer_field, issparse, real_field,
                   real_number, write_table)


class DegenerateScoresError(ValueError):
    """All structured scores vanished and no uniform mixing was requested."""


@dataclass(frozen=True)
class SensitivityScores:
    """Positive per-point sensitivity values and their sum.

    ``converged`` is False when an iterative provider hit its iteration cap;
    ``ridge_fallback`` flags that a singular Gram matrix forced ridge damping.
    """

    values: np.ndarray
    total: float
    provider_name: str
    converged: bool = True
    ridge_fallback: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("sensitivity values must be positive and finite")
        if abs(self.total - values.sum()) > 1e-12 * max(1.0, abs(self.total)):
            raise ValueError("total does not match the sum of values")

    def __len__(self) -> int:
        return len(self.values)


def uniform_scores(n: int) -> SensitivityScores:
    """Uniform-sampling scores: every point gets 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = np.full(n, 1.0 / n)
    return SensitivityScores(values, float(values.sum()), "uniform")


# A CSR matrix times a d x d factor is taken in row blocks of at most this
# many float64 entries (512 KiB). On a 2-CPU machine, Lewis weights of a
# 1600 x 500 CSR matrix took half the time they took with 4 MiB blocks,
# which do not stay in a core's cache.
_BLOCK_ENTRIES = 1 << 16


def _design_matrix(features, add_intercept: bool):
    """The feature matrix in float64, with a column of ones appended when
    ``add_intercept``: a CSR input stays CSR, any other becomes a dense
    array."""
    if issparse(features):
        import scipy.sparse as sp

        A = sp.csr_matrix(features, dtype=np.float64)
        if add_intercept:
            ones = sp.csr_matrix(np.ones((A.shape[0], 1)))
            A = sp.hstack([A, ones], format="csr")
        return A
    features = np.asarray(features, dtype=np.float64)
    if add_intercept:
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    return features


def _mix_with_uniform(structured: np.ndarray, mix: float, name: str,
                      **flags) -> SensitivityScores:
    n = len(structured)
    total_structured = structured.sum()
    if total_structured <= 0:
        if mix <= 0:
            raise DegenerateScoresError(
                f"{name}: structured scores are all zero and mix=0")
        values = np.full(n, 1.0 / n)
    else:
        values = (1.0 - mix) * structured / total_structured + mix / n
    if np.any(values <= 0):
        raise DegenerateScoresError(f"{name}: some scores are nonpositive")
    return SensitivityScores(values, float(values.sum()), name, **flags)


def _row_square_norms(A, R: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of dense or CSR ``A`` times ``R``.

    With R R^T = G^{-1} (or G^+), row i's norm is the quadratic form
    x_i^T G^{-1} x_i. A is multiplied one row block at a time, so no new
    array is larger than the block or R.
    """
    R = np.ascontiguousarray(R)
    n = A.shape[0]
    step = max(1, _BLOCK_ENTRIES // max(1, R.shape[1]))
    out = np.empty(n)
    for start in range(0, n, step):
        block = A[start:start + step] @ R
        out[start:start + step] = np.einsum("ij,ij->i", block, block)
    return out


def _inverse_cholesky_factor(gram) -> tuple[np.ndarray, bool]:
    """An upper-triangular R with R R^T = G^{-1} for the dense or sparse
    Gram G, and whether ridge damping was needed.

    G is copied into one Fortran-ordered d x d array, which LAPACK factors
    as G = L L^T (from its lower triangle) and inverts to L^{-1} in place;
    the transpose of that array is R = L^{-T}, in C order. A G that is not
    positive definite is damped with ridge lambda = 1e-8*trace/d and
    flagged; a G that is singular even then is a LinAlgError.
    """
    from scipy.linalg import lapack

    fortran_copy = gram.toarray if issparse(gram) else gram.copy
    if not np.all(np.isfinite(gram.data if issparse(gram) else gram)):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = lapack.dpotrf(fortran_copy(order="F"), lower=1, clean=1,
                                 overwrite_a=1)
    ridge = info > 0
    if ridge:
        del factor
        d = gram.shape[0]
        damped = fortran_copy(order="F")
        damped[np.diag_indices(d)] += 1e-8 * gram.diagonal().sum() / d
        factor, info = lapack.dpotrf(damped, lower=1, clean=1, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"the Gram matrix is singular (LAPACK info {info})")
    return factor.T, ridge


def _check_leverage_params(mix, add_intercept) -> None:
    if not (0.0 <= real_number("mix", mix) <= 1.0):
        raise ValueError("mix must lie in [0, 1]")
    boolean_field("add_intercept", add_intercept)


def _check_lewis_params(mix, max_iters, tol, add_intercept) -> None:
    _check_leverage_params(mix, add_intercept)
    integer_field("max_iters", max_iters, minimum=0)
    real_field("tol", tol, minimum=0.0)


def leverage_sensitivities(features, mix: float = 0.5,
                           add_intercept: bool = True) -> SensitivityScores:
    """Statistical-leverage scores mixed with a uniform floor.

    Leverage l_i is the squared row norm of an orthonormal column basis of
    the (optionally intercept-augmented) matrix A; the output is
    (1-mix) * l_i / sum(l) + mix / n. A dense A uses a rank-revealing SVD
    that keeps singular values above s_max * max(n, d) * eps.

    A CSR A uses l_i = x_i^T G^+ x_i with the pseudo-inverse of the Gram
    G = A^T A from its eigendecomposition, keeping the eigenvalues above
    lambda_max * max(n, d) * eps. An eigenvalue of G is a squared singular
    value, and forming G loses half the digits, so this is the SVD's rank
    unless a singular value lies between s_max * max(n, d) * eps and
    s_max * sqrt(max(n, d) * eps).
    """
    _check_leverage_params(mix, add_intercept)
    A = _design_matrix(features, add_intercept)
    if issparse(A):
        lev = _sparse_leverage(A)
    else:
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        tol = s[0] * max(A.shape) * np.finfo(np.float64).eps if len(s) else 0.0
        rank = int(np.sum(s > tol))
        lev = (U[:, :rank] ** 2).sum(axis=1) if rank else np.zeros(A.shape[0])
    return _mix_with_uniform(lev, mix, "leverage")


def _sparse_leverage(A) -> np.ndarray:
    from scipy.linalg import eigh

    # Two d x d arrays at most: the Gram, overwritten, and the eigenvectors.
    lam, V = eigh((A.T @ A).toarray(order="F"), overwrite_a=True)
    if lam[-1] <= 0:
        return np.zeros(A.shape[0])
    # Eigenvalues ascend, so the kept ones are the last.
    first = int(np.sum(lam <= lam[-1] * max(A.shape) * np.finfo(np.float64).eps))
    R = np.ascontiguousarray(V[:, first:])
    del V
    R /= np.sqrt(lam[first:])
    return _row_square_norms(A, R)


def lewis_weight_sensitivities(features, max_iters: int = 100, tol: float = 1e-6,
                               mix: float = 0.5,
                               add_intercept: bool = True) -> SensitivityScores:
    """l1 Lewis weights by fixed-point iteration, mixed with a uniform floor.

    Iterates w_i <- sqrt( x_i^T (X^T diag(w)^{-1} X)^{-1} x_i ) from
    w_i = d/n until the max relative change drops below ``tol`` or
    ``max_iters`` is reached (the converged flag records which). A singular
    Gram matrix at any iteration is damped with ridge lambda = 1e-8*trace/d
    and flagged. Dense and CSR X share one update, :func:`_lewis_iteration`;
    a CSR X is never densified.
    """
    _check_lewis_params(mix, max_iters, tol, add_intercept)
    A = _design_matrix(features, add_intercept)
    n, d = A.shape
    w = np.full(n, d / n)
    converged = False
    used_ridge = False
    for _ in range(max_iters):
        if not np.all(w > 0):
            # Only an all-zero row gets weight 0, and A / w is then undefined.
            raise ValueError(f"lewis: row {int(np.argmin(w > 0))} has weight 0; "
                             "an all-zero row needs add_intercept=True")
        w_new, ridge = _lewis_iteration(A, w)
        used_ridge = used_ridge or ridge
        rel = np.max(np.abs(w_new - w) / w)
        w = w_new
        if rel < tol:
            converged = True
            break
    return _mix_with_uniform(w, mix, "lewis", converged=converged,
                             ridge_fallback=used_ridge)


def _lewis_iteration(A, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """One fixed-point update; returns (new weights, ridge_used). The Gram
    A^T diag(w)^{-1} A is formed from A scaled by 1/w in A's own layout, and
    the quadratic forms from row blocks of A times its inverse Cholesky
    factor: a dense A costs one scaled copy, a CSR A O(nnz) more memory."""
    if issparse(A):
        import scipy.sparse as sp

        scaled = sp.csr_matrix((A.data / np.repeat(w, np.diff(A.indptr)),
                                A.indices, A.indptr), shape=A.shape)
    else:
        scaled = A / w[:, None]
    gram = A.T @ scaled
    del scaled
    R, ridge = _inverse_cholesky_factor(gram)
    return np.sqrt(_row_square_norms(A, R)), ridge


def to_probabilities(scores: SensitivityScores) -> np.ndarray:
    """Normalize scores to sampling probabilities values[i] / total."""
    if not np.isfinite(scores.total) or scores.total <= 0:
        raise ValueError(f"cannot normalize scores with total {scores.total!r}")
    return scores.values / scores.total


# Each provider name maps to its scoring function of a feature matrix and the
# check of that function's keyword params (defaults filled in), which raises
# ValueError on a malformed value without scoring anything.
PROVIDERS = {
    "uniform": (lambda features: uniform_scores(features.shape[0]), None),
    "leverage": (leverage_sensitivities, _check_leverage_params),
    "lewis": (lewis_weight_sensitivities, _check_lewis_params),
}


def available_providers() -> list[str]:
    return sorted(PROVIDERS)


def compute_scores(name: str, data: Dataset, **params) -> SensitivityScores:
    """Run provider ``name`` on ``data``'s features."""
    if name not in PROVIDERS:
        raise KeyError(f"unknown sensitivity provider {name!r}; "
                       f"available: {available_providers()}")
    fn, _ = PROVIDERS[name]
    return fn(data.features, **params)


def check_provider_params(name: str, params: dict) -> None:
    """Check ``params`` for provider ``name`` without scoring: a keyword the
    provider does not take is a TypeError, a malformed value a ValueError."""
    fn, check = PROVIDERS[name]
    bound = inspect.signature(fn).bind(None, **params)
    if check is not None:
        bound.apply_defaults()
        _, *keywords = bound.arguments  # the first is the feature matrix
        check(**{k: bound.arguments[k] for k in keywords})


def scores_to_csv(scores: SensitivityScores, point_ids: np.ndarray, path,
                  header_comment: str | None = None) -> None:
    """Export (point_id, sensitivity, probability) rows for the report pipeline."""
    write_table(path, ("point_id", "sensitivity", "probability"),
                zip(point_ids, scores.values, to_probabilities(scores)),
                header_comment)
