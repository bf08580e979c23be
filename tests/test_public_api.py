import types

import coretune

# The names the benchmark harness (perfbench/run.py) imports from coretune.
HARNESS_NAMES = ("TrainConfig", "build_coreset", "train", "weighted_loss",
                 "Dataset", "GridSpec", "stratified_split", "compute_scores",
                 "run_grid")


def test_every_exported_name_resolves():
    missing = [name for name in coretune.__all__ if not hasattr(coretune, name)]
    assert missing == []


def test_harness_imports_exist():
    missing = [name for name in HARNESS_NAMES if not hasattr(coretune, name)]
    assert missing == []


def test_refine_names_the_module():
    import coretune.learners
    import coretune.refine

    assert isinstance(coretune.refine, types.ModuleType)
    assert coretune.refine.train is coretune.learners.train
