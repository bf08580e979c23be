"""Suite-wide test settings and helpers.

Hypothesis runs with ``derandomize=True``: each property test draws the same
examples on every run, so a pass or failure repeats instead of depending on
a lucky draw. Explicit ``@example`` cases pin known regressions on top.
"""

import numpy as np
from hypothesis import settings

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
