"""Coreset refinement by pool-based active sampling.

Starting from a coreset, each round trains a model on the maintained coreset,
queries the pool (train minus coreset) for the points the model is most
uncertain about, absorbs them with weight 1, and tracks whether the validation
metric improved. A patience counter bounds consecutive non-improving rounds.
After the loop the original and refined coresets are compared head-to-head on
validation and the better one is returned, so the result is never worse than
the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .data import Dataset, integer_field, write_table
from .learners import LinearModel, TrainConfig, decision_scores, train
from .metrics import METRIC_NAMES, classification_report
from .sampler import Coreset, PROVENANCE_ACTIVE

MetricFn = Callable[[LinearModel, Dataset], float]


@dataclass(frozen=True)
class RefineConfig:
    """Inputs of the refinement loop.

    batch_size is the number of points queried per round; patience is the
    number of consecutive non-improving rounds tolerated before stopping.
    metric is a named validation metric, or any callable
    (model, dataset) -> float. max_rounds defaults to ceil(|train| / batch).
    """

    batch_size: int
    patience: int = 1
    metric: Union[str, MetricFn] = "f1"
    max_rounds: int | None = None

    def __post_init__(self):
        counts = ("batch_size", "patience") if self.max_rounds is None else \
            ("batch_size", "patience", "max_rounds")
        for name in counts:
            object.__setattr__(self, name, integer_field(
                name, getattr(self, name), minimum=1))
        if not (callable(self.metric) or self.metric in METRIC_NAMES):
            raise ValueError(f"metric must be one of {METRIC_NAMES} or a "
                             f"callable, got {self.metric!r}")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    pool_size: int
    phi_before: float
    phi_after: float
    patience: int


@dataclass
class RefineTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    decision: str = "kept_original"
    phi_original: float = math.nan
    phi_refined: float = math.nan
    note: str = ""


def _phi(config: RefineConfig, model: LinearModel, validation: Dataset) -> float:
    if callable(config.metric):
        value = float(config.metric(model, validation))
    else:
        scores = decision_scores(model, validation.features)
        value = classification_report(validation.labels, scores).value(config.metric)
    if not math.isfinite(value):
        raise ValueError(f"validation metric is not finite: {value!r}")
    return value


def uncertainty_query(model: LinearModel, pool: Dataset, k: int) -> np.ndarray:
    """point_ids of the k pool points with the smallest |decision score|.

    Ties break by ascending point_id. For binary linear models the margin,
    least-confidence, and entropy criteria induce this same ranking.
    """
    if k >= pool.n:
        return pool.point_ids.copy()
    magnitude = np.abs(decision_scores(model, pool.features))
    order = np.lexsort((pool.point_ids, magnitude))
    return pool.point_ids[order[:k]]


def refine(train_set: Dataset, validation: Dataset, coreset: Coreset,
           train_config: TrainConfig,
           config: RefineConfig) -> tuple[Coreset, RefineTrace]:
    """Run the active-sampling refinement loop on ``coreset``.

    Returns the refined coreset when its retrained model strictly beats the
    original on the validation metric, otherwise the original, plus the
    per-round trace. Deterministic: querying has no randomness and training
    is deterministic.
    """
    missing = set(coreset.point_ids.tolist()) - set(train_set.point_ids.tolist())
    if missing:
        raise ValueError(f"coreset points not in train set: {sorted(missing)[:5]}")
    max_rounds = config.max_rounds
    if max_rounds is None:
        max_rounds = max(1, math.ceil(train_set.n / config.batch_size))

    trace = RefineTrace()
    current = coreset
    model = train(*current.materialize(train_set), train_config)
    phi_original = _phi(config, model, validation)
    phi_current = phi_original

    patience = 0
    rounds = 0
    while patience < config.patience and rounds < max_rounds:
        in_coreset = np.isin(train_set.point_ids, current.point_ids)
        pool_positions = np.flatnonzero(~in_coreset)
        if len(pool_positions) == 0:
            if rounds == 0:
                trace.note = "empty pool; nothing to query"
            else:
                trace.note = "pool exhausted"
            break
        pool = train_set.take(pool_positions)
        queried = uncertainty_query(model, pool, config.batch_size)
        added = len(queried)
        current = Coreset(
            np.concatenate([current.point_ids, queried]),
            np.concatenate([current.weights, np.ones(added)]),
            np.concatenate([current.labels,
                            train_set.labels[train_set.positions_of(queried)]]),
            np.concatenate([current.provenance,
                            np.full(added, PROVENANCE_ACTIVE, dtype=object)]),
            np.concatenate([current.counts, np.ones(added, dtype=np.int64)]))
        candidate = train(*current.materialize(train_set), train_config)
        phi_candidate = _phi(config, candidate, validation)

        if phi_current < phi_candidate:
            patience = 0
        else:
            patience += 1
        trace.rounds.append(RoundRecord(rounds, len(pool_positions),
                                        phi_current, phi_candidate, patience))
        model = candidate
        phi_current = phi_candidate
        rounds += 1

    # Head-to-head comparison of the original and refined coresets. Training
    # is deterministic, so the cached metric values equal retrained ones.
    trace.phi_original = phi_original
    trace.phi_refined = phi_current
    if phi_original < phi_current:
        trace.decision = "kept_refined"
        return current, trace
    trace.decision = "kept_original"
    return coreset, trace


def trace_to_csv(trace: RefineTrace, path, header_comment: str | None = None) -> None:
    rows = [(r.round, r.pool_size, r.phi_before, r.phi_after, r.patience,
             trace.decision) for r in trace.rounds]
    if not rows:
        rows = [(0, 0, trace.phi_original, trace.phi_original, 0, trace.decision)]
    write_table(path, ("round", "pool_size", "phi_before", "phi_after", "patience",
                       "decision"), rows, header_comment)
