"""Weighted linear classifiers for coreset and full-data training.

Both learners fit coefficients and an intercept, minimizing a weighted
empirical risk with an L2 penalty on the coefficients (the intercept is
never regularized):

    sum_i w_i * loss(y_i * (x_i . beta + b)) + ||beta||^2 / (2 C)

with labels mapped to {-1,+1} internally. The logistic loss is trained by
damped Newton iterations; the hinge loss by deterministic subgradient descent
with a fixed 1/t schedule and suffix averaging, so identical inputs always
produce identical models.

On CSR input each Newton system is solved matrix-free, by Jacobi-
preconditioned conjugate gradients on Hessian-vector products, so training
holds O(nnz) memory and needs no dense solver (the truncated Newton step of
Lin, Weng & Keerthi, "Trust Region Newton Method for Logistic Regression",
JMLR 2008); the products are :class:`~coretune.data.CSRMatrix`'s numpy
ones. The step is inexact: conjugate gradients stop once the residual is
below ``min(0.5, ||g||)`` times the gradient norm ``||g||``, the forcing
term of Dembo, Eisenstat & Steihaug ("Inexact Newton methods", SIAM J.
Numer. Anal. 1982; Nocedal & Wright, Numerical Optimization, §7.1). It
keeps Newton's quadratic convergence, while the early steps, far from the
optimum, take few products. Dense input forms the Hessian, bordered by the
intercept's row and column, and numpy solves it directly. Training imports
nothing from scipy: a ``scipy.sparse`` matrix passed to :func:`train`,
:func:`weighted_loss` or :func:`decision_scores` is read as a
:class:`~coretune.data.CSRMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (CSRMatrix, as_features, binary_labels, finite_features,
                   integer_field, nonnegative_weights, real_field)

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
        if self.fit_intercept is not True:  # every model fits an intercept
            raise ValueError(
                f"fit_intercept must be true, got {self.fit_intercept!r}")


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
    return np.where(binary_labels(labels, "labels") > 0, 1.0, -1.0)


def _checked_inputs(features, labels, weights):
    """The {-1,+1} labels and float64 weights of a :func:`train` or
    :func:`weighted_loss` call, checked in this order: binary labels, one
    label and one weight per row, 2-d finite features, the weight rule."""
    n = features.shape[0]
    y_pm = _as_pm_labels(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if len(y_pm) != n or len(weights) != n:
        raise ValueError("features, labels, and weights must have equal length")
    finite_features(features)
    return y_pm, nonnegative_weights(weights)


def weighted_logistic_objective(coef: np.ndarray, intercept: float, features,
                                y_pm: np.ndarray, weights: np.ndarray,
                                C: float) -> float:
    """Weighted logistic loss plus ||coef||^2/(2C); intercept unpenalized."""
    return _objective("logistic", features @ coef + intercept, coef, y_pm,
                      weights, C)


def _objective(loss, z, coef, y_pm, weights, C) -> float:
    """The training objective of ``loss`` given the margins ``z``: the
    weighted loss plus ||coef||^2/(2C)."""
    return (_data_term(loss, y_pm * z, weights)
            + 0.5 * float(np.dot(coef, coef)) / C)


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
    return -(features.T @ r) + coef / C, -float(r.sum()), s


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid ``1 / (1 + exp(-x))``, as ``scipy.special.expit``
    computes it; below x = -709 ``exp`` overflows and the result is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _cholesky_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the dense Newton system ``H x = rhs`` for symmetric positive
    definite ``H``.

    Non-finite input is a ValueError, and a matrix that is not positive
    definite raises LinAlgError.
    """
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    np.linalg.cholesky(H)  # LinAlgError unless positive definite
    return np.linalg.solve(H, rhs)


# Conjugate gradients stop after at most this many iterations per unknown;
# a capped step is still a descent direction, and the line search scales it.
_CG_ITERATIONS_PER_UNKNOWN = 2


def _ridge(diagonal: np.ndarray) -> float:
    """The shift that makes a Newton system with zero curvature solvable."""
    return 1e-10 * max(1.0, float(diagonal.mean()))


def _dense_newton_step(features, dw, grad, C):
    """Solve the Newton system ``H p = grad`` for a dense feature matrix:
    ``H`` is the (d + 1) x (d + 1) Hessian of the coefficients bordered by
    the intercept's row and column."""
    d = features.shape[1]
    cross = features.T @ dw
    H = np.empty((d + 1, d + 1))
    H[:d, :d] = features.T @ (features * dw[:, None])
    H[:d, d] = cross
    H[d, :d] = cross
    H[d, d] = dw.sum()
    diagonal = np.arange(d)
    H[diagonal, diagonal] += 1.0 / C
    try:
        return _cholesky_solve(H, grad)
    except np.linalg.LinAlgError:
        # Saturated sigmoids can zero out the intercept curvature.
        H += _ridge(np.diag(H)) * np.eye(len(H))
        return _cholesky_solve(H, grad)


def _sparse_newton_step(features: CSRMatrix, dw, grad, C, max_iterations,
                        tolerance):
    """Solve the Newton system ``H p = grad`` for a CSR feature matrix ``A``
    by Jacobi-preconditioned conjugate gradients, never forming ``H``,
    until the residual satisfies ``||H p - grad|| <= tolerance * ||grad||``.

    ``H u = Aᵀ(dw ∘ (A u + c)) + u / C`` for coefficients ``u`` and
    intercept ``c``, the last of the d + 1 unknowns, whose row is
    ``Σ dw ∘ (A u + c)``. H's diagonal is the Jacobi preconditioner; an
    entry of zero, as saturated sigmoids leave the intercept's, shifts
    ``H`` by the dense solve's ridge. After ``max_iterations``, or on
    curvature ``pᵀHp <= 0``, the current iterate is returned (the
    preconditioned gradient if there is none yet): each is a descent
    direction. Training passes the forcing term ``min(0.5, ||grad||)``
    (Dembo, Eisenstat & Steihaug 1982) as ``tolerance``, so each system is
    solved only as tightly as quadratic convergence needs.
    """
    d = features.shape[1]
    diagonal = np.append(features.weighted_square_column_sums(dw) + 1.0 / C,
                         dw.sum())
    shift = 0.0 if np.all(diagonal > 0) else _ridge(diagonal)
    diagonal = diagonal + shift

    def product(u):
        q = dw * (features @ u[:d] + u[d])
        return np.append(features.T @ q + u[:d] / C, q.sum()) + shift * u

    x = np.zeros(len(grad))
    r = grad.copy()
    z = r / diagonal
    p = z
    rz = float(r @ z)
    stop = tolerance * np.linalg.norm(grad)
    for k in range(max_iterations):
        hp = product(p)
        curvature = float(p @ hp)
        if not curvature > 0:  # also NaN
            return x if k else z
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * hp
        if np.linalg.norm(r) <= stop:
            break
        z = r / diagonal
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x


def _train_logistic(features, y_pm, weights, config: TrainConfig):
    n, d = features.shape
    C = config.regularization
    coef = np.zeros(d)
    b = 0.0
    converged = False
    sparse = isinstance(features, CSRMatrix)
    if sparse:
        cg_cap = _CG_ITERATIONS_PER_UNKNOWN * (d + 1)
    # The margins at (coef, b) and, once known, the objective there.
    z = features @ coef + b
    obj = None
    for _ in range(config.max_iterations):
        grad_coef, grad_b, s = _logistic_gradient_at(z, coef, features, y_pm,
                                                     weights, C)
        grad = np.append(grad_coef, grad_b)
        grad_norm = np.linalg.norm(grad)
        if grad_norm < config.tolerance:
            converged = True
            break
        # sigma(z) (1 - sigma(z)) is symmetric in z, so the tails give it.
        dw = weights * s * (1.0 - s)
        if sparse:
            step = _sparse_newton_step(features, dw, grad, C, cg_cap,
                                       min(0.5, grad_norm))
        else:
            step = _dense_newton_step(features, dw, grad, C)
        if obj is None:
            obj = _objective("logistic", z, coef, y_pm, weights, C)
        slope = float(grad @ step)
        # The full Newton step is the first candidate. While the decrease it
        # promises is measurable in float64, it must pass the Armijo test and
        # is halved until it does; near the optimum it is taken as it is, and
        # its objective is left to the next iteration, if there is one.
        armijo = slope > 1e-12 * (1.0 + abs(obj))
        t = 1.0
        while t > 1e-12:
            cand_coef = coef - t * step[:d]
            cand_b = b - t * step[d]
            cand_z = features @ cand_coef + cand_b
            if not armijo:
                cand_obj = None
                break
            cand_obj = _objective("logistic", cand_z, cand_coef, y_pm,
                                  weights, C)
            if cand_obj <= obj - 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no measurable progress possible
        coef, b, z, obj = cand_coef, cand_b, cand_z, cand_obj
    return coef, b, converged


def _hinge_data_grad(features, y_pm, weights, coef, b):
    margins = y_pm * (features @ coef + b)
    active = margins < 1.0
    r = weights[active] * y_pm[active]
    return -(features[active].T @ r), -float(r.sum())


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
        b = b - eta * g_b
        if t > half:
            sum_coef += coef
            sum_b += b
            n_avg += 1
        if t == half + (T - half) // 2:
            mid_coef, mid_b, mid_n = sum_coef.copy(), sum_b, n_avg
    avg_coef = sum_coef / max(n_avg, 1)
    avg_b = sum_b / max(n_avg, 1)
    converged = False
    if mid_coef is not None and mid_n > 0:
        mid_coef = mid_coef / mid_n
        obj_full = _objective("hinge", features @ avg_coef + avg_b, avg_coef,
                              y_pm, weights, C)
        obj_mid = _objective("hinge", features @ mid_coef + mid_b / mid_n,
                             mid_coef, y_pm, weights, C)
        converged = abs(obj_full - obj_mid) <= np.sqrt(config.tolerance) * (
            1.0 + abs(obj_full))
    return avg_coef, avg_b, converged


def train(features, labels, weights, config: TrainConfig) -> LinearModel:
    """Fit a weighted linear classifier; deterministic for fixed inputs."""
    features = as_features(features)
    y_pm, weights = _checked_inputs(features, labels, weights)
    if weights[y_pm > 0].sum() <= 0 or weights[y_pm < 0].sum() <= 0:
        raise ValueError("training needs positive weight in both classes")
    if config.loss == "logistic":
        coef, b, converged = _train_logistic(features, y_pm, weights, config)
    else:
        coef, b, converged = _train_hinge(features, y_pm, weights, config)
    return LinearModel(coef, float(b), config.loss, bool(converged))


def weighted_loss(model: LinearModel, features, labels, weights) -> float:
    """Data term of the training objective (no regularization), so coreset
    and full-data losses compare like with like. Rejects the inputs
    :func:`train` rejects, except one class holding all the weight."""
    features = as_features(features)
    y_pm, weights = _checked_inputs(features, labels, weights)
    z = features @ model.coefficients + model.intercept
    return _data_term(model.loss, y_pm * z, weights)


def _data_term(loss: str, margins: np.ndarray, weights: np.ndarray) -> float:
    """The weighted logistic or hinge loss, given ``y * z``: the +-1 labels
    times the decision values."""
    if loss == "logistic":
        per_point = np.logaddexp(0.0, -margins)
    else:
        per_point = np.maximum(0.0, 1.0 - margins)
    return float(np.dot(weights, per_point))


def decision_scores(model: LinearModel, features) -> np.ndarray:
    features = as_features(features)
    return features @ model.coefficients + model.intercept

