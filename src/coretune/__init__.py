"""coretune: sensitivity-sampled coresets for binary classification with
tunable sampling, active refinement, and grid search."""

from .data import (Dataset, SplitBundle, parse_csv, parse_libsvm,
                   stratified_split)
from .learners import (LinearModel, TrainConfig, decision_scores, train,
                       weighted_loss)
from .metrics import MetricsReport, classification_report
from .refine import RefineConfig, RefineTrace, refine, uncertainty_query
from .sampler import Coreset, SamplerConfig, SamplingPlan, build_coreset
from .sensitivity import (SensitivityScores, compute_scores,
                          leverage_sensitivities, lewis_weight_sensitivities,
                          to_probabilities, uniform_scores)
from .tuner import (GridSpec, TrialResult, compare_to_baselines, refine_best,
                    run_grid)

__version__ = "0.1.0"

__all__ = [
    "Coreset", "Dataset", "GridSpec", "LinearModel", "MetricsReport",
    "RefineConfig", "RefineTrace", "SamplerConfig", "SamplingPlan",
    "SensitivityScores",
    "SplitBundle", "TrainConfig", "TrialResult", "build_coreset",
    "classification_report", "compare_to_baselines", "compute_scores",
    "decision_scores", "leverage_sensitivities", "lewis_weight_sensitivities",
    "parse_csv", "parse_libsvm", "refine", "refine_best",
    "run_grid", "stratified_split", "to_probabilities", "train",
    "uncertainty_query", "uniform_scores", "weighted_loss",
]
