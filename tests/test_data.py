import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_libsvm
from coretune.data import (CSRMatrix, Dataset, EmptyInputError, ParseError,
                           SplitError, as_features, largest_remainder,
                           load_split_bundle, parse_csv, parse_libsvm,
                           real_field, save_split_bundle, stratified_split)
from coretune.learners import TrainConfig, train


def dense(features):
    if isinstance(features, CSRMatrix):
        return sp.csr_matrix((features.data, features.indices, features.indptr),
                             shape=features.shape).toarray()
    return features


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 1:0.5 3:2.0\n")
        ds = parse_libsvm(path, dimension_hint=3)
        assert ds.features.tolist() == [[0.5, 0.0, 2.0]]
        assert ds.labels.tolist() == [1]
        assert ds.weights.tolist() == [1.0]

    def test_negative_label_remap(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "-1 2:1.0\n")
        ds = parse_libsvm(path)
        assert ds.labels.tolist() == [0]

    def test_one_two_labels_become_class_ids(self, tmp_path):
        # The LIBSVM mushrooms set labels its classes 1 and 2.
        path = write(tmp_path, "a.libsvm", "2 1:1.0\n1 2:1.0\n2 2:3.0\n")
        assert parse_libsvm(path).labels.tolist() == [1, 0, 1]

    def test_zero_index_rejected(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "1 0:3.0\n")
        with pytest.raises(ParseError, match="1-based"):
            parse_libsvm(path)

    def test_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 1:1.0\n-1 2:oops\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_libsvm(path)

    def test_non_increasing_indices(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 2:1.0 2:2.0\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_libsvm(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "")
        with pytest.raises(EmptyInputError):
            parse_libsvm(path)

    def test_dense_below_sparse_threshold(self, tmp_path):
        lines = "\n".join(f"+1 1:{i} 2:{i}" for i in range(1, 5))
        ds = parse_libsvm(write(tmp_path, "dense.libsvm", lines))
        assert isinstance(ds.features, np.ndarray)

    def test_sparse_storage_for_one_hot_style(self, tmp_path):
        lines = "\n".join(f"+1 {i + 1}:1" for i in range(10))
        ds = parse_libsvm(write(tmp_path, "sparse.libsvm", lines))
        assert isinstance(ds.features, CSRMatrix)
        assert ds.dim == 10

    def test_dimension_hint_pads_columns(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "a.libsvm", "+1 1:1.0\n"), dimension_hint=5)
        assert ds.dim == 5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("density", ["dense", "sparse"])
    def test_nonfinite_value_rejected(self, tmp_path, value, density):
        # Ten features on the sparse side: the matrix is stored as CSR.
        dim = 10 if density == "sparse" else 2
        text = (f"# header\n+1 1:1.0 2:2.0\n\n-1 1:3.0 2:{value}\n"
                f"+1 1:{value}\n")
        path = write(tmp_path, "a.libsvm", text)
        with pytest.raises(ParseError, match=rf":4: .*{value}.*index 2"):
            parse_libsvm(path, dimension_hint=dim)

    def test_comments_ignored(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "a.libsvm",
                                "# header\n+1 1:1.0 # trailing\n\n-1 1:2.0\n"))
        assert ds.n == 2

    def test_dimension_hint_must_be_positive(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 1:1.0\n")
        with pytest.raises(ValueError, match="dimension_hint must be a positive"):
            parse_libsvm(path, dimension_hint=0)

    def test_token_without_colon(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 1:1.0\n-1 2\n")
        with pytest.raises(ParseError, match=r":2: bad feature token '2'"):
            parse_libsvm(path)

    def test_index_above_the_hint(self, tmp_path):
        path = write(tmp_path, "a.libsvm", "+1 1:1.0\n-1 3:1.0\n")
        with pytest.raises(ParseError, match="feature index 3 exceeds "
                                             "dimension_hint 2"):
            parse_libsvm(path, dimension_hint=2)


class TestParseCsv:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y,label\n1,2,0\n3,4,1\n")
        ds = parse_csv(path, "label")
        assert ds.n == 2 and ds.dim == 2
        assert ds.labels.tolist() == [0, 1]
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y\n1,2\n")
        with pytest.raises(ParseError, match="'target'"):
            parse_csv(path, "target")

    def test_non_numeric_cell_location(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y,label\n1,2,0\n3,abc,1\n")
        with pytest.raises(ParseError, match=r":3:.*'abc'.*column 1"):
            parse_csv(path, "label")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_location(self, tmp_path, value):
        path = write(tmp_path, "a.csv",
                     f"x,label,y\n1,0,2\n3,1,4\n5,0,{value}\n{value},1,1\n")
        with pytest.raises(ParseError, match=rf":4:.*'{value}'.*column 2"):
            parse_csv(path, "label")

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,label\n\n1,0\n2,abc\n")
        with pytest.raises(ParseError, match=r":4: bad label 'abc'"):
            parse_csv(path, "label")
        path = write(tmp_path, "b.csv", "x,label\n\n1,0\n\ninf,1\n")
        with pytest.raises(ParseError, match=r":5: non-finite feature cell 'inf'"):
            parse_csv(path, "label")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1.5"])
    def test_non_integer_label_location(self, tmp_path, value):
        path = write(tmp_path, "a.csv", f"x,label\n1,0\n2,{value}\n3,1\n")
        with pytest.raises(ParseError, match=rf":3: non-integer label '{value}'"):
            parse_csv(path, "label")

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y,label\n1,2,0\n3,1\n")
        with pytest.raises(ParseError, match="expected 3 cells"):
            parse_csv(path, "label")

    @pytest.mark.parametrize("text,expected,got", [
        ("a,b,label\n1,0\n2,1\n", 3, 2),   # an IndexError before
        ("label,a\n0,1,2\n1,3,4\n", 2, 3),  # an unnamed feature before
    ], ids=["wider-header", "narrower-header"])
    def test_header_width_binds_the_rows(self, tmp_path, text, expected, got):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(ParseError, match=rf"a\.csv:2: expected {expected} "
                                             rf"cells, got {got}$"):
            parse_csv(path, "label")

    def test_blank_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "\n  \n")
        with pytest.raises(EmptyInputError, match="no rows"):
            parse_csv(path, "label")

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,label\n\n")
        with pytest.raises(EmptyInputError, match="header but no data rows"):
            parse_csv(path, "label")

    def test_label_name_without_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,1.5\n1,2.5\n")
        with pytest.raises(ParseError, match="'label' but the file has no header"):
            parse_csv(path, "label", has_header=False)

    def test_label_index_past_the_last_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,1.5,2.5\n1,3.5,4.5\n")
        with pytest.raises(ParseError, match="index 3 out of range for 3 columns"):
            parse_csv(path, 3, has_header=False)

    def test_label_column_by_index_without_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,1.5,2.5\n1,3.5,4.5\n")
        ds = parse_csv(path, 0, has_header=False)
        assert ds.labels.tolist() == [0, 1]
        assert ds.features.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_pm_one_labels_remapped(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,label\n1,-1\n2,1\n")
        assert parse_csv(path, "label").labels.tolist() == [0, 1]

    @pytest.mark.parametrize("labels,ids", [
        ("2,1,2", [1, 0, 1]),
        ("-3,5,-3,0", [0, 2, 0, 1]),
        ("1,1", [1, 1]),  # within {-1,+1}: +1 stays class 1
        ("0,1,1", [0, 1, 1]),
    ])
    def test_labels_map_to_class_ids_in_sorted_order(self, tmp_path, labels, ids):
        rows = "".join(f"{i},{label}\n" for i, label in enumerate(labels.split(",")))
        path = write(tmp_path, "a.csv", "x,label\n" + rows)
        assert parse_csv(path, "label").labels.tolist() == ids


class TestStratifiedSplit:
    @staticmethod
    def hundred_points():
        labels = np.array([0] * 60 + [1] * 40)
        features = np.arange(200, dtype=float).reshape(100, 2)
        return Dataset(features, labels)

    def test_exact_rounding_case(self):
        bundle = stratified_split(self.hundred_points(), (0.8, 0.1, 0.1), seed=7)
        assert int(np.sum(bundle.train.labels == 0)) == 48
        assert int(np.sum(bundle.train.labels == 1)) == 32
        assert bundle.validation.n == 10 and bundle.test.n == 10

    def test_same_seed_identical(self):
        data = self.hundred_points()
        a = stratified_split(data, (0.8, 0.1, 0.1), seed=3)
        b = stratified_split(data, (0.8, 0.1, 0.1), seed=3)
        for left, right in zip(a, b):
            assert np.array_equal(left.point_ids, right.point_ids)

    def test_bad_fractions(self):
        with pytest.raises(SplitError):
            stratified_split(self.hundred_points(), (0.5, 0.5, 0.5), seed=0)

    @pytest.mark.parametrize("fractions", [("0.8", "0.1", "0.1"),
                                           (float("nan"), 0.5, 0.5),
                                           (0.5, float("nan"), 0.5)])
    def test_string_and_nan_fractions_are_split_errors(self, fractions):
        with pytest.raises(SplitError, match="fractions must be 3 positive reals"):
            stratified_split(self.hundred_points(), fractions, seed=0)

    def test_class_smaller_than_splits(self):
        data = Dataset(np.zeros((5, 1)), np.array([0, 0, 0, 1, 1]))
        with pytest.raises(SplitError, match="class 1"):
            stratified_split(data, (0.5, 0.25, 0.25), seed=0)

    def test_partition_no_shared_point_ids(self):
        bundle = stratified_split(self.hundred_points(), (0.6, 0.2, 0.2), seed=11)
        all_ids = np.concatenate([s.point_ids for s in bundle])
        assert len(np.unique(all_ids)) == 100

    @given(seed=st.integers(0, 2**31), n0=st.integers(10, 60), n1=st.integers(10, 60))
    @settings(max_examples=40, deadline=None)
    def test_distribution_preserved_within_one(self, seed, n0, n1):
        labels = np.array([0] * n0 + [1] * n1)
        data = Dataset(np.zeros((n0 + n1, 1)), labels)
        fractions = (0.7, 0.2, 0.1)
        bundle = stratified_split(data, fractions, seed)
        for split, frac in zip(bundle, fractions):
            for cls, total in ((0, n0), (1, n1)):
                got = int(np.sum(split.labels == cls))
                assert abs(got - frac * total) <= 1

    @given(seed=st.integers(0, 2**31), n0=st.integers(1, 12),
           n1=st.integers(1, 12),
           fractions=st.sampled_from([(0.8, 0.1, 0.1), (0.6, 0.2, 0.2),
                                      (0.5, 0.3, 0.2)]))
    @settings(max_examples=100, deadline=None)
    def test_every_split_holds_every_class_or_split_error(self, seed, n0, n1,
                                                          fractions):
        data = Dataset(np.zeros((n0 + n1, 1)), np.array([0] * n0 + [1] * n1))
        counts = {cls: largest_remainder(np.asarray(fractions) * total, total)
                  for cls, total in ((0, n0), (1, n1))}
        if any(0 in c for c in counts.values()):
            with pytest.raises(SplitError, match="too few to put one in the"):
                stratified_split(data, fractions, seed)
            return
        bundle = stratified_split(data, fractions, seed)
        for split, frac, *expected in zip(bundle, fractions, counts[0], counts[1]):
            for cls, total in ((0, n0), (1, n1)):
                got = int(np.sum(split.labels == cls))
                assert got == expected[cls] >= 1
                assert abs(got - frac * total) <= 1

    def test_split_error_names_class_size_and_split(self):
        data = Dataset(np.zeros((305, 1)), np.array([0] * 300 + [1] * 5))
        with pytest.raises(SplitError, match="class 1 has 5 points, too few to "
                                             "put one in the test split"):
            stratified_split(data, (0.8, 0.1, 0.1), seed=0)


class TestLargestRemainder:
    def test_exact_proportions(self):
        assert largest_remainder(np.array([600.0, 400.0]), 100).tolist() == [60, 40]

    def test_remainder_ties_break_by_index(self):
        assert largest_remainder(np.array([1.0, 1.0, 1.0]), 2).tolist() == [1, 1, 0]

    @given(st.lists(st.floats(0.01, 100), min_size=1, max_size=12),
           st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_sums_exactly(self, quotas, total):
        counts = largest_remainder(np.array(quotas), total)
        assert counts.sum() == total
        assert np.all(counts >= 0)

    @given(st.lists(st.floats(0.01, 100), min_size=1, max_size=12),
           st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_within_one_of_quota(self, quotas, total):
        quotas = np.array(quotas)
        counts = largest_remainder(quotas, total)
        exact = quotas * total / quotas.sum()
        assert np.all(np.abs(counts - exact) < 1.0 + 1e-9)


class TestRoundTrip:
    def test_parse_write_parse_bit_exact(self, tmp_path):
        text = "+1 1:0.1 3:2.7182818284590451\n-1 2:-3.25 3:1e-17\n"
        first = parse_libsvm(write(tmp_path, "a.libsvm", text), dimension_hint=3)
        write_libsvm(tmp_path / "b.libsvm", first.features, first.labels)
        second = parse_libsvm(str(tmp_path / "b.libsvm"), dimension_hint=3)
        assert np.array_equal(dense(first.features), dense(second.features))
        assert np.array_equal(first.labels, second.labels)

    @given(st.lists(st.lists(st.floats(-1e12, 1e12, allow_nan=False, width=64),
                             min_size=3, max_size=3),
                    min_size=1, max_size=20),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_matrices_round_trip(self, rows, data):
        import os
        import tempfile

        matrix = np.array(rows)
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]),
                                             min_size=len(rows),
                                             max_size=len(rows))))
        ds = Dataset(matrix, labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.libsvm")
            write_libsvm(path, ds.features, ds.labels)
            back = parse_libsvm(path, dimension_hint=3)
        assert np.array_equal(ds.features, dense(back.features))
        assert np.array_equal(ds.labels, back.labels)


class TestSplitBundleFiles:
    def test_save_and_load(self, tmp_path):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(60, 4)),
                       (rng.random(60) < 0.5).astype(int))
        bundle = stratified_split(data, (0.6, 0.2, 0.2), seed=9)
        save_split_bundle(bundle, tmp_path / "splits", 9, (0.6, 0.2, 0.2))
        loaded, manifest = load_split_bundle(tmp_path / "splits")
        assert manifest["seed"] == 9
        for orig, back in zip(bundle, loaded):
            assert np.array_equal(orig.point_ids, back.point_ids)
            assert np.array_equal(orig.labels, back.labels)
            assert np.allclose(orig.features, back.features)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_round_trip_is_bit_exact_and_keeps_layout(self, tmp_path, sparse):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(90, 7)) * (rng.random((90, 7)) < 0.3)
        if sparse:
            X = sp.csr_matrix(X)
            X.data[::4] = 0.0  # explicit zeros stay stored entries
        data = Dataset(X, (rng.random(90) < 0.4).astype(int),
                       rng.random(90) * 3.0, rng.permutation(1000)[:90] + 7)
        bundle = stratified_split(data, (0.6, 0.2, 0.2), seed=2)
        save_split_bundle(bundle, tmp_path / "splits", 2, (0.6, 0.2, 0.2),
                          extra={"source": "x"})
        loaded, manifest = load_split_bundle(tmp_path / "splits")
        assert manifest["source"] == "x"
        for name, orig, back in zip(bundle.names, bundle, loaded):
            assert manifest["splits"][name]["file"] == f"{name}.npz"
            assert manifest["splits"][name]["size"] == orig.n
            assert isinstance(back.features, CSRMatrix) == sparse
            if sparse:
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(orig.features, part),
                                          getattr(back.features, part))
                assert back.features.shape == orig.features.shape
                assert back.features.data.dtype == orig.features.data.dtype
            else:
                assert back.features.dtype == orig.features.dtype
                assert back.features.tobytes() == orig.features.tobytes()
            for field in ("labels", "weights", "point_ids"):
                assert getattr(back, field).tobytes() == getattr(orig, field).tobytes()
        if sparse:
            assert (loaded.train.features.data == 0.0).any()

    def test_csr_splits_are_read_only(self, tmp_path):
        lines = "\n".join(f"{(-1) ** i:+d} {i % 10 + 1}:1" for i in range(30))
        data = parse_libsvm(write(tmp_path, "a.libsvm", lines))
        save_split_bundle(stratified_split(data, (0.6, 0.2, 0.2), seed=1),
                          tmp_path / "splits", 1, (0.6, 0.2, 0.2))
        split, _ = load_split_bundle(tmp_path / "splits")
        for features in (data.features, split.train.features):
            for part in ("data", "indices", "indptr"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(features, part)[0] = 1

    def test_digest_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(30, 2)), (rng.random(30) < 0.5).astype(int))
        save_split_bundle(stratified_split(data, (0.6, 0.2, 0.2), seed=1),
                          tmp_path, 1, (0.6, 0.2, 0.2))
        other = Dataset(rng.normal(size=(30, 2)), (rng.random(30) < 0.5).astype(int))
        save_split_bundle(stratified_split(other, (0.6, 0.2, 0.2), seed=1),
                          tmp_path / "other", 1, (0.6, 0.2, 0.2))
        (tmp_path / "other" / "train.npz").replace(tmp_path / "train.npz")
        with pytest.raises(SplitError, match="digest"):
            load_split_bundle(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_split_bundle(tmp_path / "nope")

    def test_manifest_without_a_digest(self, tmp_path):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(30, 2)), (rng.random(30) < 0.5).astype(int))
        save_split_bundle(stratified_split(data, (0.6, 0.2, 0.2), seed=1),
                          tmp_path, 1, (0.6, 0.2, 0.2))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["splits"]["validation"]["sha256"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SplitError, match="split 'validation' has no content "
                                             "digest"):
            load_split_bundle(tmp_path)


def csr_with_gaps(seed, n=40, d=12):
    """A scipy CSR matrix with empty rows (0, 7 and the last) and explicit
    zeros."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.25)
    X[[0, 7, n - 1]] = 0.0
    S = sp.csr_matrix(X)
    S.data[::5] = 0.0
    return S


def csr_unsorted_with_duplicates(seed, n=40, d=12):
    """A scipy CSR matrix whose rows list columns out of order, some twice."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=n)
    counts[3] = 0
    S = sp.csr_matrix((rng.normal(size=counts.sum()),
                       rng.integers(0, d, size=counts.sum()).astype(np.int32),
                       np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
                      shape=(n, d))
    assert not S.has_sorted_indices
    S_sorted = S.copy()
    S_sorted.sum_duplicates()
    assert S_sorted.nnz < S.nnz
    return S


class TestCSRMatrix:
    @pytest.mark.parametrize("make", [csr_with_gaps, csr_unsorted_with_duplicates])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_products_equal_scipys(self, make, seed):
        S = make(seed)
        A = as_features(S)
        rng = np.random.default_rng(seed + 10)
        x = rng.normal(size=S.shape[1])
        r = rng.normal(size=S.shape[0])
        assert np.array_equal(A @ x, S @ x)
        assert np.array_equal(A.T @ r, S.T @ r)
        dw = rng.uniform(0.0, 1.0, size=S.shape[0])
        squares = sp.csr_matrix((S.data ** 2, S.indices, S.indptr), shape=S.shape)
        assert np.array_equal(A.weighted_square_column_sums(dw), squares.T @ dw)

    @pytest.mark.parametrize("make", [csr_with_gaps, csr_unsorted_with_duplicates])
    def test_row_gathers_equal_scipys(self, make):
        S = make(3)
        A = as_features(S)
        mask = np.random.default_rng(4).random(S.shape[0]) < 0.5
        mask[[0, 7]] = True
        for rows in (np.array([5, 0, 7, 39, 5, 3, -2]), mask,
                     np.array([], dtype=np.int64)):
            got, want = A[rows], S[rows]
            assert got.shape == want.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part
                assert getattr(got, part).dtype == getattr(want, part).dtype, part
        with pytest.raises(IndexError):
            A[np.array([S.shape[0]])]

    def test_duplicate_entries_train_like_their_sums(self):
        # Products and gathers read each stored entry, as scipy's did, so
        # only the rounding of a repeated entry's terms can differ.
        S = csr_unsorted_with_duplicates(5, n=120, d=15)
        summed = S.copy()
        summed.sum_duplicates()
        y = (np.random.default_rng(6).random(120) < 0.4).astype(int)
        w = np.ones(120)
        got = train(S, y, w, TrainConfig())
        want = train(summed, y, w, TrainConfig())
        assert got.converged and want.converged
        np.testing.assert_allclose(got.coefficients, want.coefficients,
                                   rtol=1e-9, atol=1e-12)
        assert got.intercept == pytest.approx(want.intercept, rel=1e-9, abs=1e-12)

    def test_arrays_are_read_only_views(self):
        S = csr_with_gaps(0)
        A = as_features(S)
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(A, part), getattr(S, part))
            assert not getattr(A, part).flags.writeable
            assert getattr(S, part).flags.writeable
        back = pickle.loads(pickle.dumps(A))
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(back, part), getattr(A, part))
            assert not getattr(back, part).flags.writeable
        assert back.shape == A.shape

    @pytest.mark.parametrize("data,indices,indptr,shape,match", [
        ([1.0], [3], [0, 1], (1, 3), "column indices"),
        ([1.0], [-1], [0, 1], (1, 3), "column indices"),
        ([1.0], [0], [0, 1, 1], (1, 3), "indptr"),
        ([1.0], [0], [1, 1], (1, 3), "indptr"),
        ([1.0, 2.0], [0, 1], [0, 2, 1], (2, 3), "nondecreasing"),
        ([1.0, 2.0], [0], [0, 1], (1, 3), "entries"),
        ([1.0], [0.0], [0, 1], (1, 3), "integer"),
        ([], [], [], (-1, 3), r"bad CSR shape \(-1, 3\)"),
    ])
    def test_rejects_malformed_arrays(self, data, indices, indptr, shape, match):
        with pytest.raises(ValueError, match=match):
            CSRMatrix(np.asarray(data), np.asarray(indices), np.asarray(indptr),
                      shape)

    def test_products_take_vectors_of_the_matching_length(self):
        A = as_features(csr_with_gaps(0))
        n, d = A.shape
        # One entry too many would index without error.
        with pytest.raises(ValueError, match="cannot multiply a"):
            A @ np.ones(d + 1)
        with pytest.raises(ValueError, match="cannot multiply the transpose"):
            A.T @ np.ones(n + 1)

    def test_rows_take_a_1d_index(self):
        A = as_features(csr_with_gaps(0))
        with pytest.raises(IndexError, match="1-d integer array or boolean mask"):
            A[np.array([[0, 1]])]


class TestDatasetInvariants:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), weights=np.array([1.0, -1.0]))

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="at least one point"):
            Dataset(np.zeros((0, 2)), np.array([], dtype=int))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="nonnegative class ids"):
            Dataset(np.zeros((2, 1)), np.array([0, -1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1, 1]))

    def test_rejects_duplicate_point_ids(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]),
                    point_ids=np.array([3, 3]))

    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    def test_rejects_non_finite_features(self, layout):
        features = layout(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="features contain non-finite"):
            Dataset(features, np.array([0, 1]))

    def test_rejects_features_that_are_not_2d(self):
        with pytest.raises(ValueError, match=r"2-d matrix, got shape \(6,\)"):
            Dataset(np.arange(6.0), np.array([0, 1] * 3))

    def test_subset_by_ids(self):
        ds = Dataset(np.arange(8, dtype=float).reshape(4, 2), np.array([0, 1, 0, 1]),
                     point_ids=np.array([10, 20, 30, 40]))
        sub = ds.subset_by_ids(np.array([30, 10]))
        assert sub.point_ids.tolist() == [30, 10]
        assert sub.features.tolist() == [[4.0, 5.0], [0.0, 1.0]]

    def test_take_returns_new_read_only_arrays(self):
        features = np.arange(8, dtype=float).reshape(4, 2)
        ds = Dataset(features.copy(), np.array([0, 1, 0, 1]),
                     weights=np.array([1.0, 2.0, 3.0, 4.0]),
                     point_ids=np.array([10, 20, 30, 40]))
        sub = ds.take(np.array([2, 0]))
        for name in ("features", "labels", "weights", "point_ids"):
            got, source = getattr(sub, name), getattr(ds, name)
            assert not np.shares_memory(got, source), name
            assert not got.flags.writeable, name
        assert sub.point_ids.tolist() == [30, 10]
        assert sub.weights.tolist() == [3.0, 1.0]
        assert np.array_equal(ds.features, features)
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert ds.weights.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ds.point_ids.tolist() == [10, 20, 30, 40]


class TestRealField:
    def test_accepts_finite_reals_above_the_bound(self):
        values = [real_field("c", v, minimum=0.0)
                  for v in (2, 0.5, np.float32(0.25), np.int64(3))]
        assert values == [2.0, 0.5, 0.25, 3.0]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 0.0, -1e-300])
    def test_rejects_nonfinite_values_and_the_bound(self, value):
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            real_field("c", value, minimum=0.0)

    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0]])
    def test_rejects_values_that_are_not_reals(self, value):
        with pytest.raises(ValueError, match="c must be a real number"):
            real_field("c", value, minimum=0.0)
