"""What a command imports, checked in new interpreters.

Every other test module imports ``scipy.sparse`` while it is collected, so
an in-process test cannot see whether a command loads scipy only when it
needs it. These tests run the package in child processes: importing it must
load neither scipy nor the process pool, no command of the dense pipeline
(CSV or LIBSVM) may load scipy, no command of the sparse pipeline but
``score`` may load any scipy module, and fresh processes must write the same
artifacts as in-process runs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_libsvm
from coretune.cli import main
from coretune.data import load_split_bundle

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one CLI command from argv, then prints the scipy modules it loaded.
RUN_COMMAND = """
import json, sys
from coretune.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
sys.exit(code)
"""

ARTIFACTS = {
    "split": ("splits/manifest.json",),
    "score": ("scores.csv",),
    "build": ("coreset.csv",),
    "tune": ("trials.csv", "best_config.json", "curves.csv"),
    "refine": ("refined_coreset.csv", "refine_trace.csv"),
    "report": ("comparison.csv",),
}


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                         if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def loaded_scipy(proc: subprocess.CompletedProcess) -> list[str]:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def artifacts(out: Path, commands) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for command in commands
            for name in ARTIFACTS[command]}


def write_config(tmp_path: Path, dataset: dict, provider: str) -> str:
    config = {
        "dataset": dataset,
        "split": {"fractions": [0.7, 0.15, 0.15], "seed": 2},
        "sensitivity": {"provider": provider, "params": {"mix": 0.5}},
        "grid": {"coreset_ratios": [0.3], "det_ratios": [0.0, 0.2],
                 "weight_strategies": ["inv", "keep"], "repeats": 1,
                 "base_seed": 4},
        "train": {"loss": "logistic", "regularization": 1.0,
                  "tolerance": 1e-8, "max_iterations": 100,
                  "fit_intercept": True},
        "build": {"coreset_ratio": 0.3, "seed": 1},
        "output_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def dense_config(tmp_path: Path) -> str:
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 120))  # 121 unknowns with the intercept
    y = (X[:, 0] + rng.normal(size=200) > 0.7).astype(int)
    header = ",".join(f"f{j}" for j in range(120)) + ",label"
    lines = [header] + [",".join(repr(float(v)) for v in row) + f",{label}"
                        for row, label in zip(X, y)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    return write_config(tmp_path, {"path": str(data), "format": "csv",
                                   "label_column": "label"}, "leverage")


def sparse_config(tmp_path: Path) -> str:
    rng = np.random.default_rng(2)
    n, d = 200, 120  # 3 nonzeros a row: stored as CSR
    X = np.zeros((n, d))
    for i in range(n):
        X[i, rng.choice(d, size=3, replace=False)] = 1.0
    y = (X @ rng.normal(size=d) + 0.3 * rng.normal(size=n) > 0.5).astype(int)
    data = tmp_path / "data.libsvm"
    write_libsvm(data, X, y)
    return write_config(tmp_path, {"path": str(data), "format": "libsvm"}, "lewis")


def test_importing_the_package_loads_no_scipy():
    proc = python("import json, sys, coretune, coretune.cli\n"
                  "print(json.dumps([m for m in sys.modules "
                  "if m.startswith('scipy')]))")
    assert loaded_scipy(proc) == []


def test_importing_the_cli_loads_no_process_pool():
    # Only a pooled tune needs concurrent.futures.process and multiprocessing.
    proc = python("import sys, coretune.cli\n"
                  "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_dense_libsvm_split_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 10))
    y = (X[:, 0] + rng.normal(size=200) > 0.5).astype(int)
    data = tmp_path / "data.libsvm"
    write_libsvm(data, X, y)
    config = write_config(tmp_path, {"path": str(data), "format": "libsvm"},
                          "leverage")
    assert loaded_scipy(python(RUN_COMMAND, "split", "--config", config)) == []
    bundle, _ = load_split_bundle(str(tmp_path / "run" / "splits"))
    assert isinstance(bundle.train.features, np.ndarray)


@pytest.mark.parametrize("layout,commands", [
    ("dense", ("split", "score", "build", "tune", "refine", "report")),
    ("sparse", ("split", "score", "build", "tune", "refine", "report")),
])
def test_fresh_processes_write_what_in_process_runs_write(tmp_path, layout,
                                                          commands):
    config = (dense_config if layout == "dense" else sparse_config)(tmp_path)
    out = tmp_path / "run"
    loaded = {command: loaded_scipy(python(RUN_COMMAND, command, "--config", config))
              for command in commands}
    if layout == "dense":
        # Dense data reads, scores by SVD, samples and trains (121 unknowns)
        # with numpy alone.
        assert loaded == {command: [] for command in commands}
    else:
        # CSR data is held, gathered and multiplied with numpy alone; only
        # Lewis weights' sparse Gram and Cholesky factor need scipy.
        assert "scipy.linalg" in loaded["score"]
        assert "scipy.special" not in loaded["score"]
        assert {command: mods for command, mods in loaded.items()
                if command != "score"} == {command: [] for command in commands
                                           if command != "score"}
    fresh = artifacts(out, commands)

    shutil.rmtree(out)
    for command in commands:
        assert main([command, "--config", config]) == 0, command
    assert artifacts(out, commands) == fresh


# Runs a 2-worker grid and a serial one on dense data, and records the scipy
# modules the parent had after each.
POOLED_GRID = """
import json, sys
import numpy as np
import coretune.tuner
from coretune import Dataset, GridSpec, TrainConfig, run_grid, stratified_split

coretune.tuner._usable_cpus = lambda: 2  # a pool even on one CPU
rng = np.random.default_rng(0)
X = rng.normal(size=(300, 3))
y = (X[:, 0] + rng.normal(size=300) > 0.8).astype(int)
splits = stratified_split(Dataset(X, y), (0.6, 0.2, 0.2), seed=0)
grid = GridSpec(coreset_ratios=(0.2, 0.4), det_ratios=(0.0, 0.2), repeats=2)
scipy = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
pooled = run_grid(splits, grid, TrainConfig(), workers=2)
after_pooled = scipy()
serial = run_grid(splits, grid, TrainConfig(), workers=1)
print(json.dumps({"pooled": after_pooled, "serial": scipy(),
                  "equal": pooled.trials == serial.trials}))
"""


def test_pool_workers_import_what_they_train_with():
    # Dense training with 4 unknowns needs numpy alone, in the workers and
    # in a serial run, and the pooled trials equal the serial run's.
    proc = python(POOLED_GRID)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {"pooled": [], "serial": [], "equal": True}
