"""Seeded, download-free inputs for the benchmark workloads.

Every input is a pure function of the workload name and ``--seed``: the
data, the split seed and the grid base seed. The program under test only
ever sees the generated arrays (grid_imbalanced) or files (cli_*).
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp

# The criterion-5 search space of tests/test_acceptance.py: 5 ratios x 6
# deterministic ratios x 3 strategies x 7 allocations plus one vanilla cell
# per ratio = 635 cells at repeats=1.
GRID_AXES = dict(
    coreset_ratios=(0.005, 0.05375, 0.1025, 0.15125, 0.2),
    det_ratios=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    weight_strategies=("inv", "prop", "keep"),
    class_allocations=tuple({0: p / 100, 1: 1 - p / 100}
                            for p in (80, 75, 70, 65, 60, 55, 50)),
    sensitivity_provider="leverage",
    repeats=1,
)

# Shapes are scaled so one closed-loop iteration fits the run length; see
# NOTES.md for the sizes first specified and why these differ.
SHAPES = {
    "grid_imbalanced": {"n": 10000, "d": 20, "positives": 0.1, "layout": "dense"},
    "cli_dense": {"n": 6000, "d": 50, "positives": 0.1, "layout": "dense csv"},
    "cli_sparse_lewis": {"n": 2000, "d": 500, "positives": 0.3, "density": 0.01,
                         "layout": "sparse libsvm"},
}

# Cells of one tune / run_grid call: one vanilla cell per ratio plus the axis
# product, less product cells equal to a vanilla cell (det 0, inv,
# proportional). The CLI grids contain one such cell per ratio, so their
# count is the size of the product.
CELLS = {"grid_imbalanced": 5 + 5 * 6 * 3 * 7, "cli_dense": 3 * 2 * 3 * 2,
         "cli_sparse_lewis": 2 * 2 * 2}

CLI_COMMANDS = ("split", "score", "build", "tune", "refine", "report")

HASHED_ARTIFACTS = ("scores.csv", "coreset.csv", "trials.csv", "best_config.json",
                    "refined_coreset.csv", "refine_trace.csv", "comparison.csv",
                    "curves.csv")

FRACTIONS = (0.8, 0.1, 0.1)

TRAIN = {"loss": "logistic", "regularization": 1.0, "tolerance": 1e-8,
         "max_iterations": 500, "fit_intercept": True}


def imbalanced_mixture(seed: int, n: int, d: int, positives: float):
    """Two unit-variance Gaussians, the minority shifted by 1.2/sqrt(d) per
    coordinate (the acceptance-test problem), rows shuffled."""
    rng = np.random.default_rng(seed)
    n_pos = int(round(n * positives))
    mu = 1.2 / np.sqrt(d)
    X = np.vstack([rng.normal(0.0, 1.0, size=(n - n_pos, d)),
                   rng.normal(mu, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos, dtype=np.int64)
    perm = rng.permutation(n)
    return X[perm].copy(), y[perm]


def sparse_linear(seed: int, n: int, d: int, density: float, positives: float):
    """CSR features with normal nonzeros; labels from a noisy linear score
    thresholded so that about ``positives`` of the rows are class 1."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=lambda k: rng.normal(size=k))
    X.sort_indices()
    z = X @ rng.normal(size=d) + 0.5 * rng.normal(size=n)
    y = (z > np.quantile(z, 1.0 - positives)).astype(np.int64)
    return X, y


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"f{j}" for j in range(X.shape[1])) + ",label\n")
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")


def write_libsvm(path: str, X: sp.csr_matrix, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            toks = ["+1" if y[i] else "-1"]
            toks += [f"{c + 1}:{v!r}" for c, v in
                     zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist())]
            fh.write(" ".join(toks) + "\n")


def grid_problem(seed: int):
    """(X, y) of grid_imbalanced; the caller splits it 80/10/10 with ``seed``."""
    s = SHAPES["grid_imbalanced"]
    return imbalanced_mixture(seed, s["n"], s["d"], s["positives"])


def write_cli_inputs(workload: str, seed: int, directory: str) -> str:
    """Write the dataset and ``config.json`` into ``directory``; return the
    config file name. Paths inside the config are relative to ``directory``
    so the config hash, and with it every artifact, does not depend on where
    the checkout lives."""
    s = SHAPES[workload]
    if workload == "cli_dense":
        X, y = imbalanced_mixture(seed, s["n"], s["d"], s["positives"])
        write_csv(os.path.join(directory, "data.csv"), X, y)
        dataset = {"path": "data.csv", "format": "csv", "label_column": "label"}
        sensitivity = {"provider": "leverage", "params": {"mix": 0.5}}
        grid = {"coreset_ratios": [0.01, 0.05, 0.1], "det_ratios": [0.0, 0.2],
                "weight_strategies": ["inv", "prop", "keep"],
                "class_allocations": ["proportional", {"0": 0.5, "1": 0.5}]}
        refine = {"batch_size": 64, "patience": 2, "metric": "f1"}
    elif workload == "cli_sparse_lewis":
        X, y = sparse_linear(seed, s["n"], s["d"], s["density"], s["positives"])
        write_libsvm(os.path.join(directory, "data.libsvm"), X, y)
        dataset = {"path": "data.libsvm", "format": "libsvm",
                   "dimension_hint": s["d"]}
        sensitivity = {"provider": "lewis", "params": {"mix": 0.5}}
        grid = {"coreset_ratios": [0.05, 0.2], "det_ratios": [0.0, 0.2],
                "weight_strategies": ["inv", "prop"],
                "class_allocations": ["proportional"]}
        refine = {"batch_size": 100, "patience": 2, "metric": "f1"}
    else:
        raise ValueError(f"{workload} is not a CLI workload")
    grid.update(repeats=1, base_seed=seed)
    config = {
        "dataset": dataset,
        "split": {"fractions": list(FRACTIONS), "seed": seed},
        "sensitivity": sensitivity,
        "grid": grid,
        "train": TRAIN,
        "refine": refine,
        "build": {"coreset_ratio": 0.1, "det_ratio": 0.2, "weight_strategy": "inv",
                  "class_allocation": "proportional", "seed": seed},
        "output_dir": "out",
        "workers": 1,
    }
    with open(os.path.join(directory, "config.json"), "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return "config.json"
