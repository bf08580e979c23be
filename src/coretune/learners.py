"""Weighted linear classifiers for coreset and full-data training.

Both learners minimize a weighted empirical risk with an L2 penalty on the
coefficients (the intercept is never regularized):

    sum_i w_i * loss(y_i * (x_i . beta + b)) + ||beta||^2 / (2 C)

with labels mapped to {-1,+1} internally. The logistic loss is trained by
damped Newton iterations; the hinge loss by deterministic subgradient descent
with a fixed 1/t schedule and suffix averaging, so identical inputs always
produce identical models.

Logistic training needs numpy alone while the Newton system has at most
``_NUMPY_SOLVE_UNKNOWNS`` unknowns; larger systems are solved by scipy's LAPACK
Cholesky routines, imported on the first such solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import boolean_field, integer_field, issparse, real_field

LOSSES = ("logistic", "hinge")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "logistic"
    regularization: float = 1.0
    tolerance: float = 1e-8
    max_iterations: int = 500
    fit_intercept: bool = True

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        object.__setattr__(self, "regularization", real_field(
            "regularization", self.regularization, minimum=0.0))
        object.__setattr__(self, "tolerance", real_field(
            "tolerance", self.tolerance, minimum=0.0))
        object.__setattr__(self, "max_iterations", integer_field(
            "max_iterations", self.max_iterations, minimum=1))
        boolean_field("fit_intercept", self.fit_intercept)


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    loss: str
    converged: bool

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coef)
        if not np.all(np.isfinite(coef)) or not np.isfinite(self.intercept):
            raise ValueError("model parameters must be finite")


def _as_pm_labels(labels: np.ndarray) -> np.ndarray:
    """{0,1} class ids to {-1,+1}."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("binary learner expects labels in {0,1}, got "
                         f"{np.unique(labels).tolist()}")
    return np.where(labels > 0, 1.0, -1.0)


def _check_train_inputs(features, labels, weights):
    n = features.shape[0]
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if len(labels) != n or len(weights) != n:
        raise ValueError("features, labels, and weights must have equal length")
    feat_values = features.data if issparse(features) else features
    if not np.all(np.isfinite(feat_values)):
        raise ValueError("features contain non-finite values")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and >= 0")
    y_pm = _as_pm_labels(labels)
    pos = weights[y_pm > 0].sum()
    neg = weights[y_pm < 0].sum()
    if pos <= 0 or neg <= 0:
        raise ValueError("training needs positive weight in both classes")
    return y_pm, weights


def weighted_logistic_objective(coef: np.ndarray, intercept: float, features,
                                y_pm: np.ndarray, weights: np.ndarray,
                                C: float) -> float:
    """Weighted logistic loss plus ||coef||^2/(2C); intercept unpenalized."""
    z = features @ coef + intercept
    return _logistic_objective_at(z, coef, y_pm, weights, C)


def _logistic_objective_at(z, coef, y_pm, weights, C) -> float:
    """:func:`weighted_logistic_objective` given the margins ``z``."""
    data = float(np.dot(weights, np.logaddexp(0.0, -y_pm * z)))
    return data + 0.5 * float(np.dot(coef, coef)) / C


def weighted_logistic_gradient(coef: np.ndarray, intercept: float, features,
                               y_pm: np.ndarray, weights: np.ndarray,
                               C: float) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`weighted_logistic_objective`."""
    z = features @ coef + intercept
    return _logistic_gradient_at(z, coef, features, y_pm, weights, C)[:2]


def _logistic_gradient_at(z, coef, features, y_pm, weights, C):
    """:func:`weighted_logistic_gradient` given the margins ``z``, and the
    tails ``s = expit(-y z)`` it weighs the points by."""
    s = _expit(-y_pm * z)
    r = weights * y_pm * s
    grad_coef = -(features.T @ r) + coef / C
    grad_coef = np.asarray(grad_coef).ravel()
    return grad_coef, -float(r.sum()), s


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid ``1 / (1 + exp(-x))``, as ``scipy.special.expit``
    computes it; below x = -709 ``exp`` overflows and the result is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# Newton systems with at most this many unknowns are solved by numpy, larger
# ones by scipy's LAPACK potrf/potrs. On a 2-CPU machine scipy solves 22
# unknowns in 8 us and 502 in 3.3 ms; numpy's cholesky plus solve take 32 us
# and 14.6 ms. Below the limit numpy's per-call overhead costs a grid less
# than importing scipy.linalg (about 0.5 s); above it the solve dominates.
_NUMPY_SOLVE_UNKNOWNS = 100


def _cholesky_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``H x = rhs`` for symmetric positive definite ``H``.

    Non-finite input is a ValueError, and a matrix that is not positive
    definite raises LinAlgError. Large systems go through scipy's LAPACK
    calls, as ``scipy.linalg.cho_solve(cho_factor(H), rhs)`` makes them
    (upper-triangle potrf, then potrs) without the wrappers' overhead.
    """
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(H) <= _NUMPY_SOLVE_UNKNOWNS:
        np.linalg.cholesky(H)  # LinAlgError unless positive definite
        return np.linalg.solve(H, rhs)
    from scipy.linalg.lapack import dpotrf, dpotrs
    factor, info = dpotrf(H, lower=False, overwrite_a=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of potrf")
    x, info = dpotrs(factor, rhs, lower=False, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of potrs")
    return x


def _train_logistic(features, y_pm, weights, config: TrainConfig):
    n, d = features.shape
    C = config.regularization
    fit_b = config.fit_intercept
    coef = np.zeros(d)
    b = 0.0
    converged = False
    diagonal = np.arange(d)
    # The margins at (coef, b) and, once known, the objective there; an
    # accepted line-search step already computed both for the new iterate.
    z = features @ coef + b
    obj = None
    for _ in range(config.max_iterations):
        grad_coef, grad_b, s = _logistic_gradient_at(z, coef, features, y_pm,
                                                     weights, C)
        grad = np.append(grad_coef, grad_b) if fit_b else grad_coef
        if np.linalg.norm(grad) < config.tolerance:
            converged = True
            break
        # sigma(z) (1 - sigma(z)) is symmetric in z, so the tails give it.
        dw = weights * s * (1.0 - s)
        if issparse(features):
            core = (features.T @ features.multiply(dw[:, None])).toarray()
            cross = np.asarray(features.T @ dw).ravel()
        else:
            core = features.T @ (features * dw[:, None])
            cross = features.T @ dw
        if fit_b:
            H = np.empty((d + 1, d + 1))
            H[:d, :d] = core
            H[:d, d] = cross
            H[d, :d] = cross
            H[d, d] = dw.sum()
        else:
            H = core
        H[diagonal, diagonal] += 1.0 / C
        try:
            step = _cholesky_solve(H, grad)
        except np.linalg.LinAlgError:
            # Saturated sigmoids can zero out the intercept curvature.
            H += 1e-10 * max(1.0, np.trace(H) / len(H)) * np.eye(len(H))
            step = _cholesky_solve(H, grad)
        if obj is None:
            obj = _logistic_objective_at(z, coef, y_pm, weights, C)
        slope = float(grad @ step)
        if slope > 1e-12 * (1.0 + abs(obj)):
            # Backtrack only while the expected decrease is measurable in
            # float64; near the optimum the pure Newton step is taken.
            t = 1.0
            while t > 1e-12:
                cand_coef = coef - t * step[:d]
                cand_b = b - t * step[d] if fit_b else b
                cand_z = features @ cand_coef + cand_b
                cand_obj = _logistic_objective_at(cand_z, cand_coef, y_pm,
                                                  weights, C)
                if cand_obj <= obj - 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break  # no measurable progress possible
            coef, b, z, obj = cand_coef, cand_b, cand_z, cand_obj
        else:
            coef = coef - step[:d]
            if fit_b:
                b = b - step[d]
            z = features @ coef + b
            obj = None
    return coef, b, converged


def _hinge_data_grad(features, y_pm, weights, coef, b):
    margins = y_pm * (features @ coef + b)
    active = margins < 1.0
    if not np.any(active):
        return np.zeros_like(coef), 0.0
    r = weights[active] * y_pm[active]
    g_coef = -np.asarray(features[active].T @ r).ravel()
    return g_coef, -float(r.sum())


def _train_hinge(features, y_pm, weights, config: TrainConfig):
    """Deterministic subgradient descent with a 1/t schedule.

    The coefficient iterate is projected onto the ball that must contain the
    optimum (objective at zero bounds the penalty term), and the returned
    model averages the second half of the trajectory. The converged flag
    reports whether the averaged objective had stabilized to within
    sqrt(tolerance) relative by the end of the schedule.
    """
    n, d = features.shape
    C = config.regularization
    fit_b = config.fit_intercept
    total_w = weights.sum()
    radius = np.sqrt(2.0 * C * total_w)
    coef = np.zeros(d)
    b = 0.0
    T = config.max_iterations
    half = T // 2
    sum_coef = np.zeros(d)
    sum_b = 0.0
    n_avg = 0
    mid_coef, mid_b, mid_n = None, 0.0, 0
    for t in range(1, T + 1):
        g_coef, g_b = _hinge_data_grad(features, y_pm, weights, coef, b)
        g_coef = g_coef + coef / C
        eta = C / t
        coef = coef - eta * g_coef
        norm = np.linalg.norm(coef)
        if norm > radius:
            coef = coef * (radius / norm)
        if fit_b:
            b = b - eta * g_b
        if t > half:
            sum_coef += coef
            sum_b += b
            n_avg += 1
        if t == half + (T - half) // 2:
            mid_coef, mid_b, mid_n = sum_coef.copy(), sum_b, n_avg
    avg_coef = sum_coef / max(n_avg, 1)
    avg_b = sum_b / max(n_avg, 1) if fit_b else 0.0
    converged = False
    if mid_coef is not None and mid_n > 0:
        obj_full = _hinge_objective(avg_coef, avg_b, features, y_pm, weights, C)
        obj_mid = _hinge_objective(mid_coef / mid_n, mid_b / mid_n, features,
                                   y_pm, weights, C)
        converged = abs(obj_full - obj_mid) <= np.sqrt(config.tolerance) * (
            1.0 + abs(obj_full))
    return avg_coef, avg_b, converged


def _hinge_objective(coef, b, features, y_pm, weights, C):
    margins = y_pm * (features @ coef + b)
    data = float(np.dot(weights, np.maximum(0.0, 1.0 - margins)))
    return data + 0.5 * float(np.dot(coef, coef)) / C


def train(features, labels, weights, config: TrainConfig) -> LinearModel:
    """Fit a weighted linear classifier; deterministic for fixed inputs."""
    y_pm, weights = _check_train_inputs(features, labels, weights)
    if config.loss == "logistic":
        coef, b, converged = _train_logistic(features, y_pm, weights, config)
    else:
        coef, b, converged = _train_hinge(features, y_pm, weights, config)
    return LinearModel(coef, float(b), config.loss, converged)


def weighted_loss(model: LinearModel, features, labels, weights) -> float:
    """Data term of the training objective (no regularization), so coreset
    and full-data losses compare like with like."""
    y_pm = _as_pm_labels(labels)
    weights = np.asarray(weights, dtype=np.float64)
    z = np.asarray(features @ model.coefficients).ravel() + model.intercept
    if model.loss == "logistic":
        per_point = np.logaddexp(0.0, -y_pm * z)
    else:
        per_point = np.maximum(0.0, 1.0 - y_pm * z)
    return float(np.dot(weights, per_point))


def decision_scores(model: LinearModel, features) -> np.ndarray:
    return np.asarray(features @ model.coefficients).ravel() + model.intercept

