import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import coretune
from coretune.runconfig import load_run_config

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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("\n## Library\n", 1)[1]
    example = example.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    features = rng.normal(size=(2000, 5))
    labels = (rng.random(2000) < 0.3).astype(int)
    namespace = {"features": features, "labels": labels}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["trace"].decision in ("kept_original", "kept_refined")


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The traced benchmark pass wraps these names where they are looked up; a
# renamed or moved one would fail only that pass.
def test_tracer_function_targets_resolve():
    unresolved = [(module, attr) for module, attr, _, _ in
                  _perfbench_module("tracing").FUNCTION_TARGETS
                  if not callable(getattr(importlib.import_module(module), attr,
                                          None))]
    assert unresolved == []


def test_tracer_method_targets_are_class_attributes():
    unresolved = [(module, cls, attr) for module, cls, attr, _ in
                  _perfbench_module("tracing").METHOD_TARGETS
                  if attr not in vars(getattr(importlib.import_module(module),
                                              cls))]
    assert unresolved == []


# The benchmark's configs set fields a change could retire (workers,
# train.fit_intercept); one that did would end the benchmark run with an
# error.
@pytest.mark.parametrize("workload", ["cli_dense", "cli_sparse_lewis"])
def test_benchmark_cli_configs_load(tmp_path, workload):
    workloads = _perfbench_module("workloads")
    name = workloads.write_cli_inputs(workload, 1, str(tmp_path))
    assert load_run_config(str(tmp_path / name)).grid is not None


def test_benchmark_grid_and_train_settings_build():
    workloads = _perfbench_module("workloads")
    coretune.GridSpec(base_seed=1, **workloads.GRID_AXES)
    coretune.TrainConfig(**workloads.TRAIN)
