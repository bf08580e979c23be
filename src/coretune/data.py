"""Dataset ingestion, splitting, and serialization.

Feature matrices are either dense ``numpy.ndarray`` or :class:`CSRMatrix`;
LIBSVM inputs are stored sparsely when their density is below
``SPARSE_DENSITY_THRESHOLD``. Labels are normalized to contiguous class ids
starting at 0 ({-1,+1} inputs are remapped to {0,1}).

:class:`CSRMatrix` holds a sparse matrix in numpy arrays alone, so reading,
splitting, sampling and training on CSR data import no scipy. A
``scipy.sparse`` matrix given to the public entry points is converted by
:func:`as_features`, which reads its CSR arrays.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SPARSE_DENSITY_THRESHOLD = 0.25

# 17 significant digits round-trips any float64 through decimal text.
FLOAT_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed input file; message carries file location."""


class EmptyInputError(ParseError):
    pass


class SplitError(ValueError):
    pass


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself stays writeable."""
    view = arr.view()
    view.flags.writeable = False
    return view


class CSRMatrix:
    """A read-only compressed-sparse-row matrix in numpy arrays.

    Row i holds the entries ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``. Entries keep their stored
    order: unsorted columns, repeated columns and explicit zeros stay as
    given. ``A @ x`` and ``A.T @ r`` add each output's terms in stored
    order, starting from 0.0, as scipy's ``csr_matvec`` and ``csc_matvec``
    do, so both equal scipy's products bit for bit.
    """

    def __init__(self, data, indices, indptr, shape):
        n, d = (int(k) for k in shape)
        data = np.asarray(data, dtype=np.float64)
        indices = np.asarray(indices)
        indptr = np.asarray(indptr)
        if n < 0 or d < 0:
            raise ValueError(f"bad CSR shape {(n, d)}")
        for name, arr in (("indices", indices), ("indptr", indptr)):
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise ValueError(f"CSR {name} must be a 1-d integer array")
        if indptr.shape != (n + 1,) or indptr[0] != 0:
            raise ValueError(f"CSR indptr must have {n + 1} entries starting at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("CSR indptr must be nondecreasing")
        if data.shape != (indptr[-1],) or indices.shape != data.shape:
            raise ValueError(f"CSR data and indices must hold indptr[-1] = "
                             f"{indptr[-1]} entries")
        if len(indices) and not (indices.min() >= 0 and indices.max() < d):
            raise ValueError(f"CSR column indices must lie in [0, {d})")
        self.data = _read_only(data)
        self.indices = _read_only(indices)
        self.indptr = _read_only(indptr)
        self.shape = (n, d)

    def __reduce__(self):
        # Unpickled arrays are writeable; construction makes them read-only.
        return CSRMatrix, (self.data, self.indices, self.indptr, self.shape)

    @cached_property
    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return _read_only(np.repeat(np.arange(self.shape[0]),
                                    np.diff(self.indptr)))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} CSR matrix by "
                             f"an array of shape {x.shape}")
        return np.bincount(self._row_ids, self.data * x[self.indices],
                           minlength=self.shape[0])

    @property
    def T(self) -> "_TransposedCSR":
        return _TransposedCSR(self)

    def weighted_square_column_sums(self, weights: np.ndarray) -> np.ndarray:
        """Column j's sum of ``weights[i] * a ** 2`` over its stored entries
        ``a``: the diagonal of ``Aᵀ diag(weights) A`` when no row repeats a
        column."""
        return np.bincount(self.indices, self.data ** 2 * weights[self._row_ids],
                           minlength=self.shape[1])

    def __getitem__(self, rows) -> "CSRMatrix":
        """The rows picked by an integer array (in its order, repeats
        allowed) or a boolean mask."""
        rows = np.arange(self.shape[0])[rows]  # numpy's checks and negatives
        if rows.ndim != 1:
            raise IndexError("CSR rows take a 1-d integer array or boolean mask")
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        # Entry k of the result is entry starts[r] + (k - indptr[r]) of row r.
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CSRMatrix(self.data[entries], self.indices[entries], indptr,
                         (len(rows), self.shape[1]))


class _TransposedCSR:
    """``A.T`` for a :class:`CSRMatrix` ``A``, which only multiplies."""

    def __init__(self, matrix: CSRMatrix):
        self.matrix = matrix
        self.shape = matrix.shape[::-1]

    def __matmul__(self, r) -> np.ndarray:
        A = self.matrix
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (A.shape[0],):
            raise ValueError(f"cannot multiply the transpose of a {A.shape} "
                             f"CSR matrix by an array of shape {r.shape}")
        return np.bincount(A.indices, A.data * r[A._row_ids],
                           minlength=A.shape[1])


def as_features(features):
    """``features`` in a layout the pipeline computes with: a
    ``scipy.sparse`` matrix becomes a :class:`CSRMatrix` over its CSR
    arrays (no copy for float64 CSR input); anything else is returned as
    it is."""
    if hasattr(features, "tocsr"):
        matrix = features.tocsr()
        return CSRMatrix(matrix.data, matrix.indices, matrix.indptr, matrix.shape)
    return features


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


def binary_labels(values, what: str) -> np.ndarray:
    """``values`` as int64 if each is 0 or 1, else a ValueError naming them."""
    values = np.asarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{what} must be binary 0/1, got "
                         f"{np.unique(values).tolist()}")
    return values.astype(np.int64)


def nonnegative_weights(values) -> np.ndarray:
    """``values`` as float64 if each is finite and >= 0, else a ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("weights must be finite and >= 0")
    return values


def finite_features(features):
    """``features`` as they are if a dense array is 2-d and the values (a
    :class:`CSRMatrix`'s stored ones) are finite, else a ValueError."""
    if isinstance(features, CSRMatrix):
        values = features.data
    elif np.ndim(features) != 2:
        raise ValueError(f"features must be a 2-d matrix, got shape "
                         f"{np.shape(features)}")
    else:
        values = features
    if not np.all(np.isfinite(values)):
        raise ValueError("features contain non-finite values")
    return features


def split_fractions(name: str, value) -> tuple[float, float, float]:
    """``value`` as three positive real numbers summing to 1 within 1e-9;
    anything else (a bool, a string, NaN, an infinity) is a SplitError."""
    try:
        fractions = tuple(real_number("fraction", f) for f in value)
        valid = (len(fractions) == 3 and all(f > 0 for f in fractions)
                 and abs(sum(fractions) - 1.0) <= 1e-9)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SplitError(f"{name} must be 3 positive reals summing to 1, "
                         f"got {value!r}")
    return fractions


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

    features : (n, d) dense array or :class:`CSRMatrix` (a scipy sparse
               matrix is converted by :func:`as_features`)
    labels   : (n,) integer class ids in {0, ..., K-1}
    weights  : (n,) nonnegative finite per-point weights (1 for unweighted input)
    point_ids: (n,) stable integer identifiers, unique within the dataset

    Instances are treated as immutable after construction and are safe to
    share read-only across workers.
    """

    features: np.ndarray | CSRMatrix
    labels: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    point_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.features = finite_features(as_features(self.features))
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
        nonnegative_weights(self.weights)
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

    names = ("train", "validation", "test")

    def __iter__(self):
        return iter((self.train, self.validation, self.test))


def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative real quotas to integers summing exactly to ``total``.

    Allocates proportionally to quotas, assigning floor shares first and then
    one extra unit each to the entries with the largest fractional remainders.
    Remainder ties break by ascending index so the result is deterministic.
    Both callers, :func:`stratified_split` and the sampler's class
    allocation, pass finite quotas with a positive sum and a total >= 1.
    """
    quotas = np.asarray(quotas, dtype=np.float64)
    scaled = quotas * (total / quotas.sum())
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
            label = _parse_label(parts[0], path, lineno)
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
        # 32-bit indices whenever they fit, as scipy.sparse picks them: the
        # split files, and the digests over them, keep that dtype.
        index_dtype = (np.int32 if max(n, dim, len(data)) <= np.iinfo(np.int32).max
                       else np.int64)
        features = CSRMatrix(values, np.asarray(indices, dtype=index_dtype),
                             np.asarray(indptr, dtype=index_dtype), (n, dim))
    else:
        # Indices within a row are strictly increasing, so no entry repeats;
        # adding to zeros, as CSR todense() does, also stores -0.0 as 0.0.
        features = np.zeros((n, dim))
        features[np.repeat(np.arange(n), np.diff(indptr)), indices] += values
    return Dataset(features, _normalize_labels(np.asarray(labels)))


def _parse_label(text: str, path, lineno: int) -> float:
    """A label cell as an integer-valued float; other text is a ParseError."""
    try:
        label = float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad label {text!r}") from None
    if not label.is_integer():
        raise ParseError(f"{path}:{lineno}: non-integer label {text!r}")
    return label


def _normalize_labels(raw: np.ndarray) -> np.ndarray:
    """-1/+1 labels to 0/1; any other set, by its sorted distinct values, to
    0..K-1."""
    values, ids = np.unique(raw, return_inverse=True)
    if set(values.tolist()) <= {-1.0, 1.0}:
        return (raw > 0).astype(np.int64)
    return ids.astype(np.int64)


def parse_csv(path, label_column: str | int, has_header: bool = True) -> Dataset:
    """Parse a numeric CSV file into a Dataset.

    ``label_column`` is a header name (requires ``has_header``) or a 0-based
    column index. All other columns must be numeric feature values; weights
    are all 1.
    """
    import csv

    rows: list[list[str]] = []
    linenos: list[int] = []  # of each kept row, counting the blank ones
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append(row)
                linenos.append(reader.line_num)
    if not rows:
        raise EmptyInputError(f"{path}: no rows")
    width = len(rows[0])  # the header's, when there is one
    header = None
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        linenos = linenos[1:]
        if not rows:
            raise EmptyInputError(f"{path}: header but no data rows")
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
    for i, (rowno, row) in enumerate(zip(linenos, rows)):
        if len(row) != width:
            raise ParseError(f"{path}:{rowno}: expected {width} cells, got {len(row)}")
        col = 0
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                labels[i] = _parse_label(cell, path, rowno)
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
        raise ParseError(f"{path}:{linenos[i]}: non-finite "
                         f"feature cell {rows[i][j].strip()!r} in column {j}")
    return Dataset(features, _normalize_labels(labels))


def stratified_split(data: Dataset, fractions: tuple[float, float, float],
                     seed: int) -> SplitBundle:
    """Partition into train/validation/test preserving per-class proportions.

    Per-class counts in each split follow largest-remainder rounding of
    fraction x class count, so they match the exact quota within +-1. Every
    split must hold every class: a class whose count rounds to 0 in some
    split is a SplitError naming the class, its size and the split.
    Deterministic for a fixed seed.
    """
    fractions = split_fractions("fractions", fractions)
    rng = np.random.default_rng(seed)
    picks = []  # per class, its (train, validation, test) positions
    for cls in data.classes:
        cls_pos = np.flatnonzero(data.labels == cls)
        counts = largest_remainder(np.asarray(fractions) * len(cls_pos), len(cls_pos))
        if not counts.all():
            empty = SplitBundle.names[int(np.argmin(counts))]
            raise SplitError(f"class {int(cls)} has {len(cls_pos)} points, too "
                             f"few to put one in the {empty} split")
        cls_pos = cls_pos[rng.permutation(len(cls_pos))]
        picks.append(np.split(cls_pos, np.cumsum(counts)[:2]))
    return SplitBundle(*(data.take(np.sort(np.concatenate(split)))
                         for split in zip(*picks)))


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


MANIFEST_FILE = "manifest.json"


def _split_arrays(split: Dataset) -> dict[str, np.ndarray]:
    """The arrays one split file holds: ``features`` for a dense matrix, or
    ``data``/``indices``/``indptr``/``shape`` for a CSR one, plus
    ``labels``, ``weights`` and ``point_ids``."""
    if isinstance(split.features, CSRMatrix):
        matrix = split.features
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
    for name in SplitBundle.names:
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
            features = CSRMatrix(arrays["data"], arrays["indices"],
                                 arrays["indptr"], arrays["shape"])
        splits.append(Dataset(features, arrays["labels"], arrays["weights"],
                              arrays["point_ids"]))
    return SplitBundle(*splits), manifest
