import importlib.util
import types
from pathlib import Path

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


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The traced benchmark pass wraps these names where they are looked up; a
# renamed or moved one would fail only that pass.
def test_tracer_function_targets_resolve():
    unresolved = [(module, attr) for module, attr, _, _ in
                  _tracing_module().FUNCTION_TARGETS
                  if not callable(getattr(importlib.import_module(module), attr,
                                          None))]
    assert unresolved == []


def test_tracer_method_targets_are_class_attributes():
    unresolved = [(module, cls, attr) for module, cls, attr, _ in
                  _tracing_module().METHOD_TARGETS
                  if attr not in vars(getattr(importlib.import_module(module),
                                              cls))]
    assert unresolved == []
