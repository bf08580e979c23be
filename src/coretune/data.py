"""Dataset ingestion, splitting, and serialization.

Feature matrices are either dense ``numpy.ndarray`` or ``scipy.sparse.csr_matrix``;
LIBSVM inputs are stored sparsely when their density is below
``SPARSE_DENSITY_THRESHOLD``. Labels are normalized to contiguous class ids
starting at 0 ({-1,+1} inputs are remapped to {0,1}).

``scipy.sparse`` is imported only where a CSR matrix is made: when a LIBSVM
file is parsed and when a CSR split is loaded.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

SPARSE_DENSITY_THRESHOLD = 0.25

# 17 significant digits round-trips any float64 through decimal text.
FLOAT_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed input file; message carries file location."""


class EmptyInputError(ParseError):
    pass


class SplitError(ValueError):
    pass


def issparse(x) -> bool:
    """``scipy.sparse.issparse(x)`` without importing scipy: no sparse matrix
    can exist before ``scipy.sparse`` is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


def count_distinct(ids: np.ndarray) -> int:
    """``len(np.unique(ids))`` for an integer array, by one sort: np.unique
    hashes before it sorts, which costs ten times as much on a few thousand
    ids."""
    ordered = np.sort(ids, axis=None)
    return int(len(ordered) and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def integer_field(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer >= ``minimum``: a bool or a
    fraction is a ValueError, never truncated into a different run."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def real_number(name: str, value) -> float:
    """``value`` as a float if it is a real number: a bool or a string is a
    ValueError, never read as 1.0 or parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def real_field(name: str, value, minimum: float) -> float:
    """``value`` as a float if it is a finite real > ``minimum``: NaN, an
    infinity, a bool or a string is a ValueError."""
    value = real_number(name, value)
    if not (np.isfinite(value) and value > minimum):
        raise ValueError(f"{name} must be finite and > {minimum}, got {value}")
    return value


def boolean_field(name: str, value) -> bool:
    """``value`` if it is a bool: ``"no"`` is a ValueError, never true."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


@dataclass
class Dataset:
    """A weighted classification dataset.

    features : (n, d) dense array or CSR matrix
    labels   : (n,) integer class ids in {0, ..., K-1}
    weights  : (n,) nonnegative finite per-point weights (1 for unweighted input)
    point_ids: (n,) stable integer identifiers, unique within the dataset

    Instances are treated as immutable after construction and are safe to
    share read-only across workers.
    """

    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    point_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one point")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.weights is None:
            self.weights = np.ones(n, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.point_ids is None:
            self.point_ids = np.arange(n, dtype=np.int64)
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        for name, arr in (("labels", self.labels), ("weights", self.weights),
                          ("point_ids", self.point_ids)):
            if arr.shape != (n,):
                raise ValueError(f"{name} has length {arr.shape}, expected ({n},)")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and >= 0")
        if np.any(self.labels < 0):
            raise ValueError("labels must be nonnegative class ids")
        if count_distinct(self.point_ids) != n:
            raise ValueError("point_ids must be unique")
        if isinstance(self.features, np.ndarray):
            self.features.flags.writeable = False
        for arr in (self.labels, self.weights, self.point_ids):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def take(self, positions: np.ndarray) -> "Dataset":
        """Row subset by positional indices; point_ids travel with the rows."""
        positions = np.asarray(positions, dtype=np.int64)
        # Integer-array indexing already returns new arrays.
        return Dataset(self.features[positions], self.labels[positions],
                       self.weights[positions], self.point_ids[positions])

    @cached_property
    def _id_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(stable argsort of point_ids, point_ids in that order), made on
        first use; the arrays it derives from are read-only."""
        order = np.argsort(self.point_ids, kind="stable")
        sorted_ids = self.point_ids[order]
        order.flags.writeable = sorted_ids.flags.writeable = False
        return order, sorted_ids

    def positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Map point_ids back to row positions; raises KeyError on unknown ids."""
        ids = np.asarray(ids, dtype=np.int64)
        order, sorted_ids = self._id_index
        pos = np.searchsorted(sorted_ids, ids)
        bad = (pos >= len(sorted_ids)) | (sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] != ids)
        if np.any(bad):
            raise KeyError(f"unknown point_ids: {ids[bad][:5].tolist()}")
        return order[pos]

    def subset_by_ids(self, ids: np.ndarray) -> "Dataset":
        return self.take(self.positions_of(ids))


@dataclass
class SplitBundle:
    """Train/validation/test partition of one source dataset."""

    train: Dataset
    validation: Dataset
    test: Dataset

    def __iter__(self):
        return iter((self.train, self.validation, self.test))

    @property
    def names(self) -> tuple[str, str, str]:
        return ("train", "validation", "test")


def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative real quotas to integers summing exactly to ``total``.

    Allocates proportionally to quotas, assigning floor shares first and then
    one extra unit each to the entries with the largest fractional remainders.
    Remainder ties break by ascending index so the result is deterministic.
    """
    quotas = np.asarray(quotas, dtype=np.float64)
    if np.any(quotas < 0) or not np.all(np.isfinite(quotas)):
        raise ValueError("quotas must be finite and nonnegative")
    if total < 0:
        raise ValueError("total must be nonnegative")
    s = quotas.sum()
    if s <= 0:
        if total == 0:
            return np.zeros(len(quotas), dtype=np.int64)
        raise ValueError("cannot allocate a positive total across all-zero quotas")
    scaled = quotas * (total / s)
    base = np.floor(scaled).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = scaled - base
        order = np.lexsort((np.arange(len(quotas)), -remainders))
        base[order[:leftover]] += 1
    return base


_FEATURE_RE = re.compile(r"^(\d+):(\S+)$")


def parse_libsvm(path, dimension_hint: int | None = None) -> Dataset:
    """Parse a LIBSVM-format text file into a Dataset.

    Each data line is ``<label> <idx>:<val> ...`` with 1-based strictly
    increasing feature indices. Inline ``#`` comments and blank lines are
    ignored. Labels {-1,+1} are remapped to {0,1}; weights are all 1. The
    matrix is stored sparsely when its density is below 25%.
    """
    if dimension_hint is not None and dimension_hint < 1:
        raise ValueError("dimension_hint must be a positive integer")
    labels: list[float] = []
    linenos: list[int] = []
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    max_index = 0
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
            if not label.is_integer():
                raise ParseError(f"{path}:{lineno}: non-integer label {parts[0]!r}")
            prev_idx = 0
            for tok in parts[1:]:
                m = _FEATURE_RE.match(tok)
                if m is None:
                    raise ParseError(f"{path}:{lineno}: bad feature token {tok!r}")
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError(
                        f"{path}:{lineno}: feature index {idx} (indices are 1-based)")
                if idx <= prev_idx:
                    raise ParseError(
                        f"{path}:{lineno}: feature indices must be strictly increasing")
                try:
                    val = float(m.group(2))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad value in {tok!r}") from None
                indices.append(idx - 1)
                data.append(val)
                prev_idx = idx
            max_index = max(max_index, prev_idx)
            labels.append(label)
            linenos.append(lineno)
            indptr.append(len(data))
    if not labels:
        raise EmptyInputError(f"{path}: no data lines")
    dim = dimension_hint if dimension_hint is not None else max_index
    if max_index > dim:
        raise ParseError(f"{path}: feature index {max_index} exceeds dimension_hint {dim}")
    n = len(labels)
    values = np.asarray(data, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(indptr, k, side="right")) - 1
        raise ParseError(f"{path}:{linenos[row]}: non-finite value {data[k]!r} "
                         f"for feature index {indices[k] + 1}")
    if len(data) / max(1, n * dim) < SPARSE_DENSITY_THRESHOLD:
        import scipy.sparse as sp

        features = sp.csr_matrix(
            (values,
             np.asarray(indices, dtype=np.int64),
             np.asarray(indptr, dtype=np.int64)),
            shape=(n, dim),
        )
    else:
        # Indices within a row are strictly increasing, so no entry repeats;
        # adding to zeros, as CSR todense() does, also stores -0.0 as 0.0.
        features = np.zeros((n, dim))
        features[np.repeat(np.arange(n), np.diff(indptr)), indices] += values
    return Dataset(features, _normalize_labels(np.asarray(labels), path))


def _normalize_labels(raw: np.ndarray, source) -> np.ndarray:
    values = set(np.unique(raw).tolist())
    if values <= {-1.0, 1.0}:
        return (np.asarray(raw) > 0).astype(np.int64)
    out = np.asarray(raw, dtype=np.float64)
    if np.any(out != np.round(out)) or np.any(out < 0):
        raise ParseError(f"{source}: labels must be class ids (or -1/+1), got {sorted(values)[:5]}")
    return out.astype(np.int64)


def parse_csv(path, label_column: str | int, has_header: bool = True) -> Dataset:
    """Parse a numeric CSV file into a Dataset.

    ``label_column`` is a header name (requires ``has_header``) or a 0-based
    column index. All other columns must be numeric feature values; weights
    are all 1.
    """
    import csv

    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyInputError(f"{path}: no rows")
    header = None
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise EmptyInputError(f"{path}: header but no data rows")
    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise ParseError(f"{path}: label column given by name {label_column!r} "
                             "but the file has no header")
        if label_column not in header:
            raise ParseError(f"{path}: label column {label_column!r} not found "
                             f"(columns: {header})")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not (0 <= label_idx < width):
            raise ParseError(f"{path}: label column index {label_idx} out of range "
                             f"for {width} columns")
    features = np.empty((len(rows), width - 1), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.float64)
    for i, row in enumerate(rows):
        rowno = i + (2 if has_header else 1)
        if len(row) != width:
            raise ParseError(f"{path}:{rowno}: expected {width} cells, got {len(row)}")
        col = 0
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                try:
                    labels[i] = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{rowno}: bad label {cell!r}") from None
                continue
            try:
                features[i, col] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{rowno}: non-numeric feature cell {cell!r} in column {j}"
                ) from None
            col += 1
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        i, col = bad[0]  # row-major: the first bad cell of the first bad row
        j = col + (col >= label_idx)
        raise ParseError(f"{path}:{i + (2 if has_header else 1)}: non-finite "
                         f"feature cell {rows[i][j].strip()!r} in column {j}")
    return Dataset(features, _normalize_labels(labels, path))


def stratified_split(data: Dataset, fractions: tuple[float, float, float],
                     seed: int) -> SplitBundle:
    """Partition into train/validation/test preserving per-class proportions.

    Per-class counts in each split follow largest-remainder rounding of
    fraction x class count, so they match the exact quota within +-1.
    Deterministic for a fixed seed.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise SplitError(f"fractions must be three positive reals, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError(f"fractions must sum to 1, got sum {sum(fractions)!r}")
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in data.classes:
        cls_pos = np.flatnonzero(data.labels == cls)
        if len(cls_pos) < 3:
            raise SplitError(f"class {int(cls)} has {len(cls_pos)} points, "
                             "fewer than the 3 splits")
        cls_pos = cls_pos[rng.permutation(len(cls_pos))]
        counts = largest_remainder(np.asarray(fractions) * len(cls_pos), len(cls_pos))
        stop = np.cumsum(counts)
        parts[0].append(cls_pos[:stop[0]])
        parts[1].append(cls_pos[stop[0]:stop[1]])
        parts[2].append(cls_pos[stop[1]:])
    picks = [np.sort(np.concatenate(p)) for p in parts]
    for name, pick in zip(("train", "validation", "test"), picks):
        if len(pick) == 0:
            raise SplitError(f"the {name} split would be empty; use larger "
                             "classes or fractions")
    return SplitBundle(*(data.take(p) for p in picks))


def write_table(path, columns, rows, header_comment: str | None = None) -> None:
    """Write a comma-separated table: an optional ``# comment`` line, the
    header, then one line per row. Floats use FLOAT_FMT, other cells str()."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a :func:`write_table` table as (header columns, rows of string
    cells); ``#`` comment lines and blank lines are skipped."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh
                 if line.strip() and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


MANIFEST_FILE = "manifest.json"


def _split_arrays(split: Dataset) -> dict[str, np.ndarray]:
    """The arrays one split file holds: ``features`` for a dense matrix, or
    ``data``/``indices``/``indptr``/``shape`` for a CSR one, plus
    ``labels``, ``weights`` and ``point_ids``."""
    if issparse(split.features):
        matrix = split.features.tocsr()
        arrays = {"data": matrix.data, "indices": matrix.indices,
                  "indptr": matrix.indptr,
                  "shape": np.asarray(matrix.shape, dtype=np.int64)}
    else:
        arrays = {"features": np.asarray(split.features)}
    arrays.update(labels=split.labels, weights=split.weights,
                  point_ids=split.point_ids)
    return arrays


def _arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over each array's name, dtype, shape and bytes, in name order.

    The digest covers content only: ``np.savez`` stamps zip times into the
    file, so the file bytes of two saves of one split differ.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def save_split_bundle(bundle: SplitBundle, directory, seed: int,
                      fractions: tuple[float, float, float],
                      extra: dict | None = None) -> None:
    """Write each split as ``<name>.npz`` plus a JSON manifest.

    A split keeps its layout: dense stays dense and CSR stays CSR. The
    manifest records seed, fractions, dimension, per-split file, size and
    sha256 digest of the split's arrays, and the ``extra`` entries.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "seed": int(seed),
        "fractions": [float(f) for f in fractions],
        "dimension": int(bundle.train.dim),
        "splits": {},
    }
    if extra:
        manifest.update(extra)
    for name, split in zip(bundle.names, bundle):
        arrays = _split_arrays(split)
        np.savez(os.path.join(directory, f"{name}.npz"), **arrays)
        manifest["splits"][name] = {"file": f"{name}.npz", "size": int(split.n),
                                    "sha256": _arrays_digest(arrays)}
    with open(os.path.join(directory, MANIFEST_FILE), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_split_bundle(directory) -> tuple[SplitBundle, dict]:
    """Inverse of save_split_bundle; returns the bundle and its manifest.

    Each split's arrays must match the manifest digest.
    """
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no split manifest at {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    splits = []
    for name in ("train", "validation", "test"):
        meta = manifest["splits"][name]
        if "sha256" not in meta:
            raise SplitError(f"{manifest_path}: split {name!r} has no content "
                             "digest (an older split format); rerun the split "
                             "command")
        path = os.path.join(directory, meta["file"])
        with np.load(path, allow_pickle=False) as stored:
            arrays = {key: stored[key] for key in stored.files}
        if _arrays_digest(arrays) != meta["sha256"]:
            raise SplitError(f"{path}: contents do not match the manifest digest")
        if "features" in arrays:
            features = arrays["features"]
        else:
            import scipy.sparse as sp

            features = sp.csr_matrix(
                (arrays["data"], arrays["indices"], arrays["indptr"]),
                shape=tuple(int(k) for k in arrays["shape"]))
        splits.append(Dataset(features, arrays["labels"], arrays["weights"],
                              arrays["point_ids"]))
    return SplitBundle(*splits), manifest
