"""Grid search over the coreset sampling parameters.

Every grid cell builds one coreset, trains one model, and records validation
and test metrics from that same model. Cells are ranked by mean validation F1
over repeats; test metrics are reported but never influence the ranking. The
vanilla configuration (no deterministic inclusion, inverse-probability
weights, proportional allocation) is injected for every coreset ratio and
regularization so the tuned-vs-vanilla comparison always happens within a
single run.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import (SplitBundle, integer_field, real_field, real_number,
                   write_table)
from .learners import TrainConfig, decision_scores, train
from .metrics import METRIC_NAMES, MetricsReport, classification_report
from .refine import RefineConfig, RefineTrace, refine
from .sampler import (AllocationError, Coreset, SamplerConfig, SamplingPlan,
                      StrategyInfeasibleError, build_coreset)
from .sensitivity import SensitivityScores, compute_scores

# The untuned baseline knobs are SamplerConfig's defaults: no deterministic
# inclusion, inverse-probability weights, proportional class allocation.
# Grid cells and baselines replace its size and seed.
VANILLA = SamplerConfig(1)


@dataclass(frozen=True)
class GridSpec:
    """The search space over sampling parameters."""

    coreset_ratios: tuple[float, ...]
    det_ratios: tuple[float, ...] = (0.0,)
    weight_strategies: tuple[str, ...] = ("inv",)
    class_allocations: tuple = ("proportional",)
    sensitivity_provider: str = "leverage"
    provider_params: dict = field(default_factory=dict)
    repeats: int = 1
    base_seed: int = 0
    regularizations: tuple[float, ...] | None = None

    def __post_init__(self):
        reals = ["coreset_ratios", "det_ratios"]
        for name in reals:
            object.__setattr__(self, name, tuple(
                real_number(name, v) for v in getattr(self, name)))
        if self.regularizations is not None:
            reals.append("regularizations")
            object.__setattr__(self, "regularizations", tuple(
                real_field("regularizations", v, minimum=0.0)
                for v in self.regularizations))
        object.__setattr__(self, "weight_strategies", tuple(self.weight_strategies))
        # SamplerConfig owns the knob checks and the allocation form; fail
        # here, before any scoring.
        object.__setattr__(self, "class_allocations", tuple(
            replace(VANILLA, class_allocation=a).class_allocation
            for a in self.class_allocations))
        for name in reals + ["weight_strategies", "class_allocations"]:
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(not (0 < r <= 1) for r in self.coreset_ratios):
            raise ValueError("coreset ratios must lie in (0, 1]")
        for det, strategy in itertools.product(self.det_ratios,
                                               self.weight_strategies):
            replace(VANILLA, det_ratio=det, weight_strategy=strategy)
        object.__setattr__(self, "repeats",
                           integer_field("repeats", self.repeats, minimum=1))
        object.__setattr__(self, "base_seed",
                           integer_field("base_seed", self.base_seed, minimum=0))


@dataclass(frozen=True)
class Cell:
    """One grid configuration (before seeding and repeats); ``knobs`` has
    VANILLA's placeholder size and seed, which each trial replaces."""

    index: int
    coreset_ratio: float
    knobs: SamplerConfig
    train_config: TrainConfig
    vanilla: bool = False

    def key(self):
        return (self.coreset_ratio, self.knobs, self.train_config)


@dataclass(frozen=True)
class CoresetStats:
    unique_points: int
    total_weight: float
    per_class_counts: tuple[tuple[int, int], ...]

    @staticmethod
    def of(coreset: Coreset) -> "CoresetStats":
        return CoresetStats(coreset.n_unique, coreset.total_weight,
                            tuple(sorted(coreset.per_class_counts().items())))


@dataclass(frozen=True)
class TrialResult:
    """Metrics of one (cell, repeat) evaluation; validation and test come
    from the same model, trained with ``train_config``. ``coreset_stats`` is
    None for a trial read back with :meth:`from_dict`."""

    cell_index: int
    repeat: int
    seed: int
    provider: str
    config: SamplerConfig
    coreset_ratio: float
    train_config: TrainConfig
    validation: MetricsReport
    test: MetricsReport
    coreset_stats: CoresetStats | None
    vanilla: bool = False

    def to_dict(self) -> dict:
        """JSON-ready record of every field except ``coreset_stats``."""
        return {"cell_index": self.cell_index, "repeat": self.repeat,
                "seed": self.seed, "provider": self.provider,
                "sampler": self.config.to_dict(),
                "coreset_ratio": self.coreset_ratio,
                "regularization": self.train_config.regularization,
                "train": asdict(self.train_config),
                "validation": self.validation.to_dict(),
                "test": self.test.to_dict(), "vanilla": self.vanilla}

    @classmethod
    def from_dict(cls, d: dict) -> "TrialResult":
        """Inverse of :meth:`to_dict`; other keys in ``d`` are ignored."""
        return cls(d["cell_index"], d["repeat"], d["seed"], d["provider"],
                   SamplerConfig(**d["sampler"]), d["coreset_ratio"],
                   TrainConfig(**d["train"]),
                   MetricsReport.from_dict(d["validation"]),
                   MetricsReport.from_dict(d["test"]), None, d["vanilla"])


@dataclass(frozen=True)
class FailedCell:
    cell_index: int
    repeat: int
    seed: int
    error: str


@dataclass(frozen=True)
class CellSummary:
    """A cell's successful trials, in repeat order, and their mean F1s."""

    cell: Cell
    trials: tuple[TrialResult, ...]

    @property
    def mean_validation_f1(self) -> float:
        return float(np.mean([t.validation.f1 for t in self.trials]))

    @property
    def mean_test_f1(self) -> float:
        return float(np.mean([t.test.f1 for t in self.trials]))


@dataclass
class GridSearchResult:
    """The cells with a successful trial, in rank order, and the failures."""

    summaries: list[CellSummary]
    failures: list[FailedCell]

    @property
    def trials(self) -> list[TrialResult]:
        """Every successful trial, by cell rank, then repeat."""
        return [t for summary in self.summaries for t in summary.trials]

    @property
    def best(self) -> TrialResult:
        if not self.summaries:
            raise RuntimeError("grid search produced no successful trials")
        return self.summaries[0].trials[0]


def coreset_size_for(ratio: float, n: int, n_classes: int) -> int:
    """round(ratio * n), clamped to [n_classes, n]."""
    return int(min(n, max(n_classes, round(ratio * n))))


def enumerate_cells(grid: GridSpec, train_config: TrainConfig) -> list[Cell]:
    """Vanilla cells (coreset ratio x regularization) followed by the
    Cartesian product of the grid axes, deduplicated keeping the first
    occurrence. Each cell trains with ``train_config`` at one of the grid's
    regularizations, or as given when the grid has none."""
    regs = grid.regularizations or (train_config.regularization,)
    train_configs = [replace(train_config, regularization=r) for r in regs]
    tuned = [replace(VANILLA, det_ratio=det, weight_strategy=strategy,
                     class_allocation=alloc)
             for det, strategy, alloc in itertools.product(
                 grid.det_ratios, grid.weight_strategies, grid.class_allocations)]
    cells: list[Cell] = []
    seen = set()
    for vanilla, knob_sets in ((True, [VANILLA]), (False, tuned)):
        for ratio, knobs, cfg in itertools.product(grid.coreset_ratios,
                                                   knob_sets, train_configs):
            cell = Cell(len(cells), ratio, knobs, cfg, vanilla)
            if cell.key() not in seen:
                seen.add(cell.key())
                cells.append(cell)
    return cells


def _fit_and_score(splits: SplitBundle, features, labels, weights,
                   train_config: TrainConfig) -> tuple[MetricsReport, MetricsReport]:
    """Train one model; return its (validation, test) reports."""
    model = train(features, labels, weights, train_config)
    return tuple(classification_report(split.labels,
                                       decision_scores(model, split.features))
                 for split in (splits.validation, splits.test))


def _run_cell(splits, plan: SamplingPlan, task: tuple[Cell, int, int]):
    """Build -> train -> evaluate one (cell, repeat, seed) trial; ``plan`` is
    the SamplingPlan of splits.train and its scores."""
    cell, repeat, seed = task
    m = coreset_size_for(cell.coreset_ratio, splits.train.n, len(plan.class_counts))
    config = replace(cell.knobs, coreset_size=m, seed=seed)
    try:
        coreset = build_coreset(splits.train, plan.scores, config, plan)
        val, test = _fit_and_score(splits, *coreset.materialize(splits.train),
                                   cell.train_config)
    except (AllocationError, StrategyInfeasibleError) as exc:
        return FailedCell(cell.index, repeat, seed, str(exc))
    return TrialResult(cell.index, repeat, seed, plan.scores.provider_name, config,
                       cell.coreset_ratio, cell.train_config, val, test,
                       CoresetStats.of(coreset), vanilla=cell.vanilla)


# A pool worker's (splits, plan), stored once per worker process by the
# pool's initializer.
_pool_inputs: tuple = ()


def _store_pool_inputs(*inputs):
    global _pool_inputs
    _pool_inputs = inputs


def _pooled_cell(task):
    return _run_cell(*_pool_inputs, task)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_grid(splits: SplitBundle, grid: GridSpec, train_config: TrainConfig,
             workers: int = 1,
             scores: SensitivityScores | None = None) -> GridSearchResult:
    """Evaluate every cell x repeat and rank by mean validation F1.

    ``scores`` are the train split's scores under the grid's provider and
    params; when None they are computed here. The seed of the trial with
    flat index i (cell-major, repeats within a cell) is base_seed + i, so a
    fixed GridSpec is fully reproducible. Infeasible cells are recorded as
    failures and excluded from the ranking; the run continues. The pool has
    at most one worker per usable CPU; results do not depend on its size.
    """
    if scores is None:
        scores = compute_scores(grid.sensitivity_provider, splits.train,
                                **grid.provider_params)
    cells = enumerate_cells(grid, train_config)
    tasks = [(cell, repeat, grid.base_seed + i) for i, (cell, repeat) in
             enumerate(itertools.product(cells, range(grid.repeats)))]
    inputs = (splits, SamplingPlan(splits.train, scores))
    workers = min(workers, _usable_cpus())
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_store_pool_inputs,
                                 initargs=inputs) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            outcomes = list(pool.map(_pooled_cell, tasks, chunksize=chunk))
    else:
        outcomes = [_run_cell(*inputs, task) for task in tasks]

    trials = [o for o in outcomes if isinstance(o, TrialResult)]
    failures = [o for o in outcomes if isinstance(o, FailedCell)]

    # Outcomes come in task order: cell-major, repeats within a cell.
    summaries = [CellSummary(cells[index], tuple(group)) for index, group in
                 itertools.groupby(trials, key=lambda t: t.cell_index)]
    summaries.sort(key=lambda s: (-s.mean_validation_f1, s.cell.index))
    return GridSearchResult(summaries, failures)


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    split: str
    balanced_accuracy: float
    f1: float
    roc_auc: float


def compare_to_baselines(splits: SplitBundle, best: TrialResult,
                         scores: SensitivityScores) -> list[ComparisonRow]:
    """Tuned vs vanilla vs uniform-sampling vs full-data training rows.

    The tuned rows are the best trial's recorded metrics; every other row
    trains with its ``train_config``. The vanilla and random coresets use
    its size and seed; vanilla samples by ``scores``, the train split's
    scores under the best trial's provider, while random samples uniformly.
    Full-data training appears exactly once per split.
    """
    train_split = splits.train
    uniform = compute_scores("uniform", train_split)
    base = replace(VANILLA, coreset_size=best.config.coreset_size,
                   seed=best.config.seed)

    rows: list[ComparisonRow] = []

    def add(method: str, val: MetricsReport, test: MetricsReport):
        for split_name, report in (("validation", val), ("test", test)):
            rows.append(ComparisonRow(method, split_name, report.balanced_accuracy,
                                      report.f1, report.roc_auc))

    add("tuned", best.validation, best.test)
    for method, method_scores in (("vanilla", scores), ("random", uniform)):
        coreset = build_coreset(train_split, method_scores, base)
        add(method, *_fit_and_score(splits, *coreset.materialize(train_split),
                                    best.train_config))
    add("full", *_fit_and_score(splits, train_split.features, train_split.labels,
                                train_split.weights, best.train_config))
    return rows


def refine_best(splits: SplitBundle, best: TrialResult,
                refine_config: RefineConfig,
                scores: SensitivityScores) -> tuple[Coreset, RefineTrace]:
    """Rebuild the best coreset from ``scores`` (the train split's scores
    under the best trial's provider) and refine it with the best trial's
    ``train_config``; returns :func:`refine`'s (coreset, trace)."""
    coreset = build_coreset(splits.train, scores, best.config)
    return refine(splits.train, splits.validation, coreset, best.train_config,
                  refine_config)


def curve_rows(summaries: list[CellSummary]) -> list[tuple[float, str, str, float]]:
    """(coreset_ratio, method, split, f1) rows for ratio-vs-F1 plots.

    ``summaries`` are in rank order, as :func:`run_grid` returns them. The
    tuned curve takes the best-ranked cell at each ratio, the vanilla curve
    its best-ranked vanilla cell.
    """
    rows = []
    for ratio in sorted({s.cell.coreset_ratio for s in summaries}):
        at_ratio = [s for s in summaries if s.cell.coreset_ratio == ratio]
        tuned = at_ratio[0]
        rows.append((ratio, "tuned", "validation", tuned.mean_validation_f1))
        rows.append((ratio, "tuned", "test", tuned.mean_test_f1))
        vanilla = [s for s in at_ratio if s.cell.vanilla]
        if vanilla:
            rows.append((ratio, "vanilla", "validation", vanilla[0].mean_validation_f1))
            rows.append((ratio, "vanilla", "test", vanilla[0].mean_test_f1))
    return rows


TRIAL_COLUMNS = ("rank", "cell_index", "repeat", "seed", "provider",
                 "coreset_ratio", "coreset_size", "det_ratio", "weight_strategy",
                 "class_allocation", "regularization", "vanilla",
                 "mean_validation_f1",
                 *(f"{split}_{m}" for split in ("validation", "test")
                   for m in METRIC_NAMES),
                 "tp", "fp", "tn", "fn",
                 "unique_points", "total_weight", "per_class_counts")


def trials_to_csv(result: GridSearchResult, path,
                  header_comment: str | None = None) -> None:
    rows = ([rank, t.cell_index, t.repeat, t.seed, t.provider,
             t.coreset_ratio, t.config.coreset_size, t.config.det_ratio,
             t.config.weight_strategy,
             t.config.allocation_label().replace(",", ";"),
             t.train_config.regularization, int(t.vanilla),
             summary.mean_validation_f1,
             *(t.validation.value(m) for m in METRIC_NAMES),
             *(t.test.value(m) for m in METRIC_NAMES), *t.test.confusion,
             t.coreset_stats.unique_points, t.coreset_stats.total_weight,
             json.dumps(dict(t.coreset_stats.per_class_counts)).replace(",", ";")]
            for rank, summary in enumerate(result.summaries)
            for t in summary.trials)
    write_table(path, TRIAL_COLUMNS, rows, header_comment)
