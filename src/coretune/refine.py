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
    (model, dataset) -> float. max_rounds caps the number of rounds; None
    means no cap, so the loop runs until patience runs out or the pool is
    empty.
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


def uncertainty_query(model: LinearModel, features, point_ids: np.ndarray,
                      k: int) -> np.ndarray:
    """Row indices into ``features`` of the k rows with the smallest
    |decision score|.

    Ties break by ascending point_id. When k covers every row, every row is
    returned in order, unscored. For binary linear models the margin,
    least-confidence, and entropy criteria induce this same ranking.
    """
    if k >= len(point_ids):
        return np.arange(len(point_ids))
    magnitude = np.abs(decision_scores(model, features))
    return np.lexsort((point_ids, magnitude))[:k]


def refine(train_set: Dataset, validation: Dataset, coreset: Coreset,
           train_config: TrainConfig,
           config: RefineConfig) -> tuple[Coreset, RefineTrace]:
    """Run the active-sampling refinement loop on ``coreset``.

    The loop state is the coreset's train rows with their weights and a row
    mask; the pool is the rows outside it. The loop stops after
    ``config.patience`` non-improving rounds, on an empty pool, or after
    ``config.max_rounds`` rounds if set. Returns the refined coreset when its
    retrained model strictly beats the original on the validation metric,
    otherwise the original, plus the per-round trace. Deterministic. An id
    outside ``train_set`` is a KeyError, a label mismatch a ValueError.
    """
    model = train(*coreset.materialize(train_set), train_config)
    phi_original = _phi(config, model, validation)
    phi_current = phi_original
    rows = train_set.positions_of(coreset.point_ids)
    weights = coreset.weights
    in_coreset = np.zeros(train_set.n, dtype=bool)
    in_coreset[rows] = True

    trace = RefineTrace()
    patience = 0
    while patience < config.patience and (
            config.max_rounds is None or len(trace.rounds) < config.max_rounds):
        pool = np.flatnonzero(~in_coreset)
        if len(pool) == 0:
            trace.note = ("pool exhausted" if trace.rounds
                          else "empty pool; nothing to query")
            break
        picked = pool[uncertainty_query(model, train_set.features[pool],
                                        train_set.point_ids[pool],
                                        config.batch_size)]
        in_coreset[picked] = True
        rows = np.concatenate([rows, picked])
        weights = np.concatenate([weights, np.ones(len(picked))])
        candidate = train(train_set.features[rows], train_set.labels[rows],
                          weights, train_config)
        phi_candidate = _phi(config, candidate, validation)
        patience = 0 if phi_current < phi_candidate else patience + 1
        trace.rounds.append(RoundRecord(len(trace.rounds), len(pool),
                                        phi_current, phi_candidate, patience))
        model = candidate
        phi_current = phi_candidate

    # Head-to-head comparison of the original and refined coresets. Training
    # is deterministic, so the cached metric values equal retrained ones.
    trace.phi_original = phi_original
    trace.phi_refined = phi_current
    if not phi_original < phi_current:
        return coreset, trace
    trace.decision = "kept_refined"
    added = len(rows) - coreset.n_unique
    return Coreset(
        train_set.point_ids[rows], weights, train_set.labels[rows],
        np.concatenate([coreset.provenance,
                        np.full(added, PROVENANCE_ACTIVE, dtype=object)]),
        np.concatenate([coreset.counts, np.ones(added, dtype=np.int64)])), trace


def trace_to_csv(trace: RefineTrace, path, header_comment: str | None = None) -> None:
    rows = [(r.round, r.pool_size, r.phi_before, r.phi_after, r.patience,
             trace.decision) for r in trace.rounds]
    if not rows:
        rows = [(0, 0, trace.phi_original, trace.phi_original, 0, trace.decision)]
    write_table(path, ("round", "pool_size", "phi_before", "phi_after", "patience",
                       "decision"), rows, header_comment)
