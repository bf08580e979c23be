"""Suite-wide test settings and helpers.

Hypothesis runs with ``derandomize=True``: each property test draws the same
examples on every run, so a pass or failure repeats instead of depending on
a lucky draw. Explicit ``@example`` cases pin known regressions on top.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import settings

from coretune.data import Dataset, stratified_split

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def write_libsvm(path, features, labels) -> None:
    """Write a dense matrix and 0/1 labels as LIBSVM text: labels as -1/+1,
    each row's nonzero entries with 1-based indices and 17 significant
    digits, so parsing the file back is bit-exact."""
    with open(path, "w") as fh:
        for row, label in zip(np.asarray(features), labels):
            cols = np.flatnonzero(row)
            fh.write(" ".join(["+1" if label == 1 else "-1"] +
                              [f"{c + 1}:{row[c]:.17g}" for c in cols]) + "\n")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a ``coretune.data.write_table`` table as (header columns, rows
    of string cells); ``#`` comment lines and blank lines are skipped."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh
                 if line.strip() and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def golden_splits(sparse: bool):
    """360 weighted points, 20% positive, shuffled gapped point_ids; the CSR
    variant keeps about 30% of the entries."""
    rng = np.random.default_rng(31)
    n, d = 360, 8
    y = (rng.random(n) < 0.2).astype(int)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    if sparse:
        X = sp.csr_matrix(np.where(rng.random((n, d)) < 0.3, X, 0.0))
    w = rng.uniform(0.5, 2.0, n)
    return stratified_split(Dataset(X, y, w, 5 + 3 * rng.permutation(n)),
                            (0.6, 0.2, 0.2), seed=2)
