"""Per-point sensitivity upper bounds and their sampling probabilities.

Providers map a dataset to positive importance scores; normalizing the scores
gives the probability each point is drawn during coreset sampling. Built-in
providers: uniform, leverage scores, and l1 Lewis weights. Further bounds can
be registered through :func:`register_provider` without touching the sampler.
Only the Lewis provider uses scipy (its Cholesky routines), imported when it
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, issparse, write_table


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


def _design_matrix(features, add_intercept: bool) -> np.ndarray:
    """The feature matrix as a dense float64 array, with a column of ones
    appended when ``add_intercept``."""
    if issparse(features):
        features = features.todense()
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


def leverage_sensitivities(features, mix: float = 0.5,
                           add_intercept: bool = True) -> SensitivityScores:
    """Statistical-leverage scores mixed with a uniform floor.

    Leverage l_i is the squared row norm of an orthonormal column basis of
    the (optionally intercept-augmented) matrix, computed by rank-revealing
    SVD; the output is (1-mix) * l_i / sum(l) + mix / n.
    """
    if not (0.0 <= mix <= 1.0):
        raise ValueError("mix must lie in [0, 1]")
    A = _design_matrix(features, add_intercept)
    n = A.shape[0]
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = s[0] * max(A.shape) * np.finfo(np.float64).eps if len(s) else 0.0
    rank = int(np.sum(s > tol))
    lev = (U[:, :rank] ** 2).sum(axis=1) if rank else np.zeros(n)
    return _mix_with_uniform(lev, mix, "leverage")


def lewis_weight_sensitivities(features, max_iters: int = 100, tol: float = 1e-6,
                               mix: float = 0.5,
                               add_intercept: bool = True) -> SensitivityScores:
    """l1 Lewis weights by fixed-point iteration, mixed with a uniform floor.

    Iterates w_i <- sqrt( x_i^T (X^T diag(w)^{-1} X)^{-1} x_i ) from
    w_i = d/n until the max relative change drops below ``tol`` or
    ``max_iters`` is reached (the converged flag records which). A singular
    Gram matrix at any iteration is damped with ridge lambda = 1e-8*trace/d
    and flagged.
    """
    if not (0.0 <= mix <= 1.0):
        raise ValueError("mix must lie in [0, 1]")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    A = _design_matrix(features, add_intercept)
    n, d = A.shape
    w = np.full(n, d / n)
    converged = False
    used_ridge = False
    for _ in range(max_iters):
        w_new, ridge = _lewis_iteration(A, w)
        used_ridge = used_ridge or ridge
        rel = np.max(np.abs(w_new - w) / w)
        w = w_new
        if rel < tol:
            converged = True
            break
    return _mix_with_uniform(w, mix, "lewis", converged=converged,
                             ridge_fallback=used_ridge)


def _lewis_iteration(A: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """One fixed-point update; returns (new weights, ridge_used)."""
    from scipy.linalg import cho_factor, cho_solve

    d = A.shape[1]
    gram = A.T @ (A / w[:, None])
    ridge = False
    try:
        chol = cho_factor(gram)
    except np.linalg.LinAlgError:
        lam = 1e-8 * np.trace(gram) / d
        chol = cho_factor(gram + lam * np.eye(d))
        ridge = True
    solved = cho_solve(chol, A.T)
    quad = np.einsum("ij,ji->i", A, solved)
    return np.sqrt(np.maximum(quad, 0.0)), ridge


def to_probabilities(scores: SensitivityScores) -> np.ndarray:
    """Normalize scores to sampling probabilities values[i] / total."""
    if not np.isfinite(scores.total) or scores.total <= 0:
        raise ValueError(f"cannot normalize scores with total {scores.total!r}")
    return scores.values / scores.total


# ---------------------------------------------------------------------------
# Provider registry. A provider is Dataset -> SensitivityScores; external
# sensitivity bounds (unified / monotonic / svm-based constructions) plug in
# here without changes to the sampler.

Provider = Callable[..., SensitivityScores]

_PROVIDERS: dict[str, Provider] = {}


def register_provider(name: str, fn: Provider) -> None:
    _PROVIDERS[name] = fn


def available_providers() -> list[str]:
    return sorted(_PROVIDERS)


def compute_scores(name: str, data: Dataset, **params) -> SensitivityScores:
    """Run the registered provider ``name`` on ``data``."""
    if name not in _PROVIDERS:
        raise KeyError(f"unknown sensitivity provider {name!r}; "
                       f"available: {available_providers()}")
    return _PROVIDERS[name](data, **params)


def _uniform_provider(data: Dataset) -> SensitivityScores:
    return uniform_scores(data.n)


def _leverage_provider(data: Dataset, mix: float = 0.5,
                       add_intercept: bool = True) -> SensitivityScores:
    return leverage_sensitivities(data.features, mix=mix, add_intercept=add_intercept)


def _lewis_provider(data: Dataset, mix: float = 0.5, max_iters: int = 100,
                    tol: float = 1e-6, add_intercept: bool = True) -> SensitivityScores:
    return lewis_weight_sensitivities(data.features, max_iters=max_iters, tol=tol,
                                      mix=mix, add_intercept=add_intercept)


register_provider("uniform", _uniform_provider)
register_provider("leverage", _leverage_provider)
register_provider("lewis", _lewis_provider)


def scores_to_csv(scores: SensitivityScores, point_ids: np.ndarray, path,
                  header_comment: str | None = None) -> None:
    """Export (point_id, sensitivity, probability) rows for the report pipeline."""
    write_table(path, ("point_id", "sensitivity", "probability"),
                zip(point_ids, scores.values, to_probabilities(scores)),
                header_comment)
