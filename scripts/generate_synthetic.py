#!/usr/bin/env python3
"""Generate a synthetic imbalanced Gaussian-mixture dataset plus a ready-made
run config, so the full CLI pipeline can be exercised immediately:

    python scripts/generate_synthetic.py --out runs/demo
    coretune split --config runs/demo/config.json
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coretune.data import Dataset  # noqa: E402


def make_dataset(n, d, pos_fraction, separation, seed):
    rng = np.random.default_rng(seed)
    n_pos = int(round(n * pos_fraction))
    mu = separation / np.sqrt(d)
    X = np.vstack([rng.normal(0.0, 1.0, size=(n - n_pos, d)),
                   rng.normal(mu, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    perm = rng.permutation(n)
    return Dataset(X[perm].copy(), y[perm])


def write_csv(data, path):
    with open(path, "w") as fh:
        fh.write(",".join(f"f{j}" for j in range(data.dim)) + ",label\n")
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def default_config(data_path, out_dir):
    return {
        "dataset": {"path": data_path, "format": "csv", "label_column": "label"},
        "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
        "sensitivity": {"provider": "leverage", "params": {"mix": 0.5}},
        "grid": {
            "coreset_ratios": [0.05, 0.1, 0.2],
            "det_ratios": [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
            "weight_strategies": ["inv", "prop", "keep"],
            "class_allocations": ["proportional",
                                  {"0": 0.8, "1": 0.2}, {"0": 0.7, "1": 0.3},
                                  {"0": 0.6, "1": 0.4}, {"0": 0.5, "1": 0.5}],
            "repeats": 1,
            "base_seed": 0,
        },
        "train": {"loss": "logistic", "regularization": 1.0, "tolerance": 1e-8,
                  "max_iterations": 500, "fit_intercept": True},
        "refine": {"batch_size": 64, "patience": 2, "metric": "f1"},
        "build": {"coreset_ratio": 0.1, "det_ratio": 0.2,
                  "weight_strategy": "inv", "class_allocation": "proportional",
                  "seed": 0},
        "output_dir": out_dir,
        "workers": 4,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo", help="output directory")
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--d", type=int, default=20)
    parser.add_argument("--pos-fraction", type=float, default=0.1)
    parser.add_argument("--separation", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    data = make_dataset(args.n, args.d, args.pos_fraction, args.separation,
                        args.seed)
    data_path = os.path.join(args.out, "synthetic.csv")
    write_csv(data, data_path)
    config = default_config(data_path, args.out)
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")
    print(f"wrote {data_path} (n={data.n}, d={data.dim}) and {config_path}")


if __name__ == "__main__":
    main()
