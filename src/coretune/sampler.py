"""Weighted coreset construction from sensitivity scores.

The tunable knobs: how the coreset budget is split across classes
(proportional to class sizes, or an explicit fraction map), what share of each
class budget is filled deterministically with the highest-probability points,
and how weights are assigned when deterministic and sampled points are merged
(``keep`` / ``inv`` / ``prop``).

Each class is treated as an independent sampling problem: scores are
restricted to the class and renormalized, the class budget plays the role of
the sample size m in the weight formulas, and residual sampling happens on the
class minus its deterministic set. Sampling is with replacement; repeated
draws of one point are folded into its weight, with the multiplicity kept in
``counts``. A ``SamplingPlan`` holds the per-class work that depends only on
(data, scores), so the builds of a grid search share it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, count_distinct, integer_field, largest_remainder,
                   real_number, write_table)
from .sensitivity import SensitivityScores

WEIGHT_STRATEGIES = ("keep", "inv", "prop")

PROVENANCE_DETERMINISTIC = "deterministic"
PROVENANCE_SAMPLED = "sampled"
PROVENANCE_ACTIVE = "active"  # used by the refinement loop


class AllocationError(ValueError):
    pass


class StrategyInfeasibleError(ValueError):
    """A weight strategy cannot produce positive weights for a class."""


class ZeroWeightPointError(StrategyInfeasibleError):
    """The coreset drew training points of source weight 0; every strategy
    would give them coreset weight 0."""


@dataclass(frozen=True)
class SamplerConfig:
    """Tunable sampling parameters for one coreset build; the defaults are
    the vanilla knobs.

    ``class_allocation`` is "proportional" or a class -> fraction map, given
    as a dict with int or str keys or as (class, fraction) pairs; it is
    stored as (int class, float fraction) pairs sorted by class, so equal
    allocations compare and hash equal.
    """

    coreset_size: int
    det_ratio: float = 0.0
    weight_strategy: str = "inv"
    class_allocation: str | tuple[tuple[int, float], ...] = "proportional"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coreset_size", integer_field(
            "coreset_size", self.coreset_size, minimum=1))
        object.__setattr__(self, "seed", integer_field("seed", self.seed, minimum=0))
        object.__setattr__(self, "det_ratio",
                           real_number("det_ratio", self.det_ratio))
        if not (0.0 <= self.det_ratio < 1.0):
            raise ValueError(f"det_ratio must lie in [0, 1), got {self.det_ratio}")
        if self.weight_strategy not in WEIGHT_STRATEGIES:
            raise ValueError(f"weight_strategy must be one of {WEIGHT_STRATEGIES}, "
                             f"got {self.weight_strategy!r}")
        alloc = self.class_allocation
        if alloc == "proportional":
            return
        try:
            if not isinstance(alloc, (dict, tuple)):
                raise TypeError
            alloc = {int(k): real_number("fraction", v)
                     for k, v in dict(alloc).items()}
        except (TypeError, ValueError):
            raise ValueError("class_allocation must be 'proportional' or a "
                             f"class -> fraction map, got {alloc!r}") from None
        if any(v <= 0 for v in alloc.values()) or \
                not abs(sum(alloc.values()) - 1.0) <= 1e-9:
            raise ValueError(f"class allocation {alloc} must have positive "
                             "fractions summing to 1")
        object.__setattr__(self, "class_allocation", tuple(sorted(alloc.items())))

    def to_dict(self) -> dict:
        alloc = self.class_allocation
        if alloc != "proportional":
            alloc = {str(k): v for k, v in alloc}
        return {
            "coreset_size": self.coreset_size,
            "det_ratio": self.det_ratio,
            "weight_strategy": self.weight_strategy,
            "class_allocation": alloc,
            "seed": self.seed,
        }

    def allocation_label(self) -> str:
        """The class allocation as one table cell: "proportional" or JSON."""
        alloc = self.to_dict()["class_allocation"]
        return alloc if isinstance(alloc, str) else json.dumps(alloc)


@dataclass
class Coreset:
    """A weighted subset of the training data.

    point_ids are unique; sampling multiplicity is folded into weights and
    recorded in ``counts``. ``provenance`` tags each point as deterministic,
    sampled, or active (added by refinement).
    """

    point_ids: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.provenance = np.asarray(self.provenance, dtype=object)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.point_ids)
        for name in ("weights", "labels", "provenance", "counts"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, "
                                 f"expected {n}")
        if count_distinct(self.point_ids) != n:
            raise ValueError("coreset point_ids must be unique")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("coreset weights must be finite and > 0")
        valid = {PROVENANCE_DETERMINISTIC, PROVENANCE_SAMPLED, PROVENANCE_ACTIVE}
        if not set(self.provenance.tolist()) <= valid:
            raise ValueError(f"provenance tags must be within {valid}")

    @property
    def n_unique(self) -> int:
        return len(self.point_ids)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def per_class_counts(self) -> dict[int, int]:
        classes, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(k) for c, k in zip(classes, counts)}

    def materialize(self, train: Dataset):
        """Gather (features, labels, weights) rows from the source train set.

        Checks that the coreset labels still agree with the source; an id
        the source does not hold is a KeyError.
        """
        positions = train.positions_of(self.point_ids)
        if not np.array_equal(train.labels[positions], self.labels):
            raise ValueError("coreset labels disagree with the source dataset")
        return train.features[positions], self.labels, self.weights


def allocate_class_budgets(m: int, class_counts: dict[int, int],
                           policy: str | tuple | dict[int, float]) -> dict[int, int]:
    """Split the coreset budget across classes.

    Takes a validated config's knobs, as :class:`SamplingPlan` passes them,
    and the plan's classes, each of at least one point. ``policy`` is a
    ``SamplerConfig.class_allocation``: "proportional" follows class sizes;
    (class, fraction) pairs, or an int-keyed map, give each class a fraction
    of m and must name exactly the classes of ``class_counts``: a class
    missing from the map, or one the data lacks, is an AllocationError
    naming it. Budgets are rounded by largest remainder, clipped at each
    class population (overflow redistributes to classes with spare capacity
    by the same rule), and kept >= 1 per class. Budgets sum to min(m, n).
    """
    classes = sorted(int(c) for c in class_counts)
    counts = np.array([class_counts[c] for c in classes], dtype=np.int64)
    if m < len(classes):
        raise AllocationError(f"budget m={m} is smaller than the number of "
                              f"classes ({len(classes)})")
    if policy == "proportional":
        quotas = counts.astype(np.float64)
    else:
        fractions = dict(policy)
        missing = [c for c in classes if c not in fractions]
        if missing:
            raise AllocationError(f"allocation map is missing classes {missing}")
        absent = sorted(set(fractions) - set(classes))
        if absent:
            raise AllocationError(f"allocation map names classes {absent}, "
                                  "which the data lacks")
        quotas = np.array([fractions[c] for c in classes], dtype=np.float64)

    target = min(int(m), int(counts.sum()))
    budgets = largest_remainder(quotas, target)
    # Clip at class populations; redistribute overflow to classes with room.
    # A class with room was never clipped, and every quota is positive.
    while True:
        over = budgets > counts
        if not np.any(over):
            break
        excess = int((budgets[over] - counts[over]).sum())
        budgets[over] = counts[over]
        extra = largest_remainder(np.where(budgets < counts, quotas, 0.0), excess)
        # Unclipped: the next pass clips and redistributes any new overflow.
        budgets = budgets + extra
    # Largest-remainder can starve a tiny class; budgets must stay positive.
    # They sum to min(m, n) >= the class count, so a donor holds at least 2.
    while np.any(budgets == 0):
        needy = int(np.argmin(budgets))
        donor = int(np.argmax(budgets))
        budgets[needy] += 1
        budgets[donor] -= 1
    return {c: int(b) for c, b in zip(classes, budgets)}


def select_deterministic(order: np.ndarray, budget: int,
                         det_ratio: float) -> np.ndarray:
    """Ascending positions of the floor(det_ratio * budget) highest-probability
    points.

    ``order`` ranks the positions by probability descending, ties by
    ascending point_id: a :class:`SamplingPlan` computes it once per class.
    ``det_ratio`` is a validated config's, in [0, 1), so the deterministic
    set stays strictly smaller than the budget.
    """
    return np.sort(order[:int(np.floor(det_ratio * budget))])


def sample_residual(probs: np.ndarray, q_positions: np.ndarray, draws: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``draws`` points i.i.d. with replacement from outside Q.

    Probabilities over the complement of Q are renormalized to sum 1 and
    drawn by ``rng.choice``; the result is the ascending sampled positions
    and their multiplicities, which sum to ``draws``, at least 1 as the
    budget minus its deterministic set.
    """
    p = np.asarray(probs, dtype=np.float64)
    mask = np.ones(len(p), dtype=bool)
    mask[np.asarray(q_positions, dtype=np.int64)] = False
    residual = np.flatnonzero(mask)
    p_residual = p[residual]
    mass = p_residual.sum()
    if len(residual) == 0 or mass <= 0:
        raise ValueError("no residual probability mass outside the deterministic set")
    picks = rng.choice(len(residual), size=draws, p=p_residual / mass)
    return np.unique(residual[picks], return_counts=True)


def assign_weights(strategy: str, q_positions: np.ndarray, positions: np.ndarray,
                   counts: np.ndarray, probs: np.ndarray, m: int,
                   source_weights: np.ndarray,
                   prev_w: float) -> tuple[np.ndarray, np.ndarray]:
    """Weight the deterministic set Q and the sampled multiset.

    ``positions`` and ``counts`` are the sampled positions, all outside Q
    as :func:`sample_residual` draws them, and their multiplicities; the
    result is (weights of ``q_positions``, weights of ``positions``), in the
    same orders. ``probs`` and ``m`` are the sampling
    problem's probabilities and size (the class probabilities and class
    budget when sampling per class); ``prev_w`` is the total source weight of
    the problem's points. ``strategy`` is a validated config's.

    keep: Q keeps its source weights; sampled points get inverse-probability
        weights under the residual-renormalized probabilities, scaled so their
        sum equals prev_w minus the deterministic mass.
    inv:  every point, deterministic or sampled, gets the importance-sampling
        weight count * w(p) / (Pr(p) * m) under the problem probabilities.
    prop: Q collectively receives (|Q|/m) * prev_w split proportionally to
        source weights; the sampled side receives the complement, split
        proportionally to its inverse-probability weights.
    """
    q_positions = np.asarray(q_positions, dtype=np.int64)
    p = np.asarray(probs, dtype=np.float64)
    w = np.asarray(source_weights, dtype=np.float64)
    w_q = w[q_positions]

    if strategy == "inv":
        return (w_q / (p[q_positions] * m),
                counts * w[positions] / (p[positions] * m))

    # keep and prop share the residual-renormalized inverse-probability shape.
    in_q = np.zeros(len(p), dtype=bool)
    in_q[q_positions] = True
    residual_mass = p[~in_q].sum()
    raw = counts * w[positions] / (p[positions] / residual_mass)
    # Left-to-right, not numpy's pairwise sum: the weights are artifact bytes.
    raw_total = sum(raw.tolist())

    if strategy == "keep":
        det_mass = float(w_q.sum())
        remaining = prev_w - det_mass
        if remaining <= 0 or raw_total <= 0:
            raise StrategyInfeasibleError(
                f"keep: deterministic weights ({det_mass}) exhaust the weight "
                f"budget ({prev_w})")
        return w_q, raw * (remaining / raw_total)

    # prop
    q_share = len(q_positions) / m
    if len(q_positions) and w_q.sum() <= 0:
        raise StrategyInfeasibleError(
            "prop: deterministic points carry zero source weight")
    if raw_total <= 0:
        raise StrategyInfeasibleError("prop: sampled side has zero raw weight")
    return (q_share * prev_w * w_q / w_q.sum(),
            (1.0 - q_share) * prev_w * raw / raw_total)


@dataclass(frozen=True)
class _ClassPlan:
    label: int
    positions: np.ndarray  # rows of the class in the dataset
    point_ids: np.ndarray  # their point_ids
    weights: np.ndarray    # and source weights
    weight_sum: float
    probs: np.ndarray      # scores restricted to the class, renormalized
    order: np.ndarray      # probability descending, then point_id ascending


class SamplingPlan:
    """The part of coreset construction that depends only on (data, scores).

    Built once per pair: the class sizes and, per class, the row positions,
    source weights, class probabilities and the deterministic-selection
    order. Every :meth:`build` on it then costs a budget split, a slice of
    each order and the draws, so a grid over sampling knobs does not redo
    the per-class work in every cell.
    """

    def __init__(self, data: Dataset, scores: SensitivityScores):
        if len(scores) != data.n:
            raise ValueError(f"scores cover {len(scores)} points, dataset has {data.n}")
        self.data = data
        self.scores = scores
        classes, class_sizes = np.unique(data.labels, return_counts=True)
        self.class_counts = dict(zip(classes.tolist(), class_sizes.tolist()))
        self._classes: list[_ClassPlan] = []
        for cls in classes.tolist():
            pos = np.flatnonzero(data.labels == cls)
            ids_c = data.point_ids[pos]
            w_c = data.weights[pos]
            v_c = scores.values[pos]
            probs_c = v_c / v_c.sum()
            self._classes.append(_ClassPlan(cls, pos, ids_c, w_c, float(w_c.sum()),
                                            probs_c, np.lexsort((ids_c, -probs_c))))

    def build(self, config: SamplerConfig) -> Coreset:
        """Allocate per-class budgets, then per class select the
        deterministic set, sample the residual, and assign weights.

        Every draw follows from ``config.seed``. Output rows are ordered by
        class id then point_id.
        """
        data = self.data
        rng = np.random.default_rng(config.seed)
        budgets = allocate_class_budgets(config.coreset_size, self.class_counts,
                                         config.class_allocation)
        class_seeds = rng.integers(0, 2**63 - 1, size=len(self._classes))

        # Per class: Q's (positions, weights, counts), then the sampled side's.
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for c, cls_seed in zip(self._classes, class_seeds):
            budget = budgets[c.label]
            q = select_deterministic(c.order, budget, config.det_ratio)
            sampled, counts = sample_residual(c.probs, q, budget - len(q),
                                              np.random.default_rng(cls_seed))
            try:
                q_w, sampled_w = assign_weights(config.weight_strategy, q, sampled,
                                                counts, c.probs, budget, c.weights,
                                                c.weight_sum)
            except StrategyInfeasibleError as exc:
                raise StrategyInfeasibleError(f"class {c.label}: {exc}") from exc
            drawn = np.concatenate([q, sampled])
            zero_ids = c.point_ids[drawn[c.weights[drawn] == 0]]
            if len(zero_ids):
                raise ZeroWeightPointError(
                    f"class {c.label}: drew {len(zero_ids)} point(s) of source "
                    f"weight 0 (point_ids {np.sort(zero_ids)[:10].tolist()}); "
                    "they would get coreset weight 0")
            parts += [(c.positions[q], q_w, np.ones(len(q), dtype=np.int64)),
                      (c.positions[sampled], sampled_w, counts)]

        chosen, weights, counts = (np.concatenate(arrays) for arrays in zip(*parts))
        provenance = np.repeat(
            np.array([PROVENANCE_DETERMINISTIC, PROVENANCE_SAMPLED]
                     * len(self._classes), dtype=object),
            [len(part[0]) for part in parts])
        order = np.lexsort((data.point_ids[chosen], data.labels[chosen]))
        chosen = chosen[order]
        return Coreset(data.point_ids[chosen], weights[order], data.labels[chosen],
                       provenance[order], counts[order])


def build_coreset(data: Dataset, scores: SensitivityScores,
                  config: SamplerConfig,
                  plan: SamplingPlan | None = None) -> Coreset:
    """Build a weighted coreset of ``data`` sampled by ``scores``.

    Pure given (data, scores, config): every draw follows from
    ``config.seed``. ``plan``, when given, is a :class:`SamplingPlan` of this
    same ``data`` and ``scores``, so repeated builds share its per-class
    work; without it one is made for this call.
    """
    if plan is None:
        plan = SamplingPlan(data, scores)
    elif plan.data is not data or plan.scores is not scores:
        raise ValueError("the sampling plan was built for other data or scores")
    return plan.build(config)


def coreset_to_csv(coreset: Coreset, path, header_comment: str | None = None) -> None:
    write_table(path, ("point_id", "class", "weight", "provenance", "count"),
                zip(coreset.point_ids, coreset.labels, coreset.weights,
                    coreset.provenance, coreset.counts), header_comment)
