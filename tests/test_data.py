"""Blob generation, long-tail subsampling, CSV round-trips, and
deterministic batching."""

import re
import warnings

import numpy as np
import pytest

from targetcodes.core import Rng
from targetcodes.data import (
    Dataset,
    batches,
    load_csv,
    long_tail_counts,
    long_tail_subsample,
    make_blobs,
    save_csv,
    split_per_class,
)
from targetcodes.errors import DomainError, FormatError


class TestMakeBlobs:
    def test_zero_spread_collapses_to_class_center(self):
        ds = make_blobs(4, 6, 2, 10, 0.0, 3.0, Rng(1))
        for k in range(4):
            rows = ds.X[ds.y == k]
            assert np.allclose(rows, rows[0])

    def test_balanced_counts(self):
        ds = make_blobs(8, 5, 4, 50, 1.0, 2.0, Rng(2))
        assert ds.num_samples == 400
        assert ds.class_counts.tolist() == [50] * 8

    def test_intra_group_centers_closer_than_inter(self):
        # direct distance computation over generated class centers,
        # averaged over 20 seeds, with sigma_group >> sigma_within
        wins = 0
        for seed in range(20):
            ds = make_blobs(8, 10, 2, 2, 0.0, 10.0, Rng(seed))
            centers = np.array([ds.X[ds.y == k][0] for k in range(8)])
            intra, inter = [], []
            for a in range(8):
                for b in range(a + 1, 8):
                    d = float(np.linalg.norm(centers[a] - centers[b]))
                    (intra if a // 4 == b // 4 else inter).append(d)
            wins += np.mean(intra) < np.mean(inter)
        assert wins >= 19

    def test_determinism(self):
        a = make_blobs(4, 6, 2, 9, 1.0, 2.0, Rng(7))
        b = make_blobs(4, 6, 2, 9, 1.0, 2.0, Rng(7))
        assert np.array_equal(a.X, b.X)

    def test_group_divisibility_required(self):
        with pytest.raises(DomainError):
            make_blobs(7, 4, 2, 5, 1.0, 1.0, Rng(0))


class TestLongTail:
    def balanced(self, per_class=100, classes=3, seed=5):
        return make_blobs(classes, 4, 1, per_class, 1.0, 1.0, Rng(seed))

    def test_ratio_one_is_identity(self):
        ds = self.balanced()
        out = long_tail_subsample(ds, 1.0, Rng(6))
        assert np.array_equal(out.X, ds.X)
        assert np.array_equal(out.y, ds.y)

    def test_exponential_profile_100_10_1(self):
        ds = self.balanced(per_class=100, classes=3)
        out = long_tail_subsample(ds, 100.0, Rng(7))
        assert out.class_counts.tolist() == [100, 10, 1]

    @pytest.mark.parametrize("ratio", [10.0, 50.0, 100.0])
    def test_achieved_ratio_within_ten_percent(self, ratio):
        ds = self.balanced(per_class=100, classes=8)
        out = long_tail_subsample(ds, ratio, Rng(8))
        achieved = out.class_counts.max() / out.class_counts.min()
        assert 0.9 * ratio <= achieved <= 1.1 * ratio

    def test_achieved_ratio_monotone_in_requested(self):
        ds = self.balanced(per_class=200, classes=6)
        prev = 0.0
        for ratio in [1, 2, 5, 10, 20, 50, 100]:
            out = long_tail_subsample(ds, float(ratio), Rng(9))
            achieved = out.class_counts.max() / out.class_counts.min()
            assert achieved >= prev
            prev = achieved

    def test_feature_values_preserved(self):
        ds = self.balanced(per_class=50, classes=4)
        out = long_tail_subsample(ds, 10.0, Rng(10))
        # every kept row exists verbatim in the source
        source = {tuple(r) for r in ds.X}
        assert all(tuple(r) in source for r in out.X)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(DomainError):
            long_tail_subsample(self.balanced(), 0.5, Rng(0))

    def test_unbalanced_input_rejected(self):
        ds = self.balanced()
        once = long_tail_subsample(ds, 10.0, Rng(11))
        with pytest.raises(DomainError):
            long_tail_subsample(once, 2.0, Rng(12))

    def test_minimum_feasible_count_named_in_error(self):
        with pytest.raises(DomainError, match="at least 500"):
            long_tail_counts(3, 5, 1000.0)

    def test_counts_rounding(self):
        assert long_tail_counts(100, 3, 100.0) == [100, 10, 1]
        assert long_tail_counts(100, 2, 10.0) == [100, 10]


class TestSplitAndSelect:
    def test_split_per_class_counts(self):
        ds = make_blobs(4, 3, 2, 30, 1.0, 2.0, Rng(13))
        train, test = split_per_class(ds, 10)
        assert train.class_counts.tolist() == [20] * 4
        assert test.class_counts.tolist() == [10] * 4
        assert train.num_samples + test.num_samples == ds.num_samples

    def test_split_disjoint(self):
        ds = make_blobs(2, 3, 1, 12, 1.0, 1.0, Rng(14))
        train, test = split_per_class(ds, 5)
        train_rows = {tuple(r) for r in train.X}
        assert not any(tuple(r) in train_rows for r in test.X)


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = make_blobs(3, 5, 1, 11, 1.7, 2.3, Rng(16))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.class_counts, ds.class_counts)

    def test_edge_values_roundtrip_bit_exact(self, tmp_path):
        X = np.array(
            [
                [-0.0, 0.0, 5e-324, -5e-324],
                [2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
                [0.1, 1 / 3, np.nextafter(1.0, 2.0), 0.30000000000000004],
                [-2 / 3, 1.2345678901234567e-100, 6.02214076e23, np.pi],
            ]
        )
        ds = Dataset(X=X, y=np.array([0, 1, 1, 0]))
        path = tmp_path / "edge.csv"
        save_csv(ds, path)
        assert load_csv(path).X.tobytes() == X.tobytes()

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(FormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: expected a 'label,f0,...' header"

    def test_field_count_validated(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0\n")
        with pytest.raises(FormatError, match=r"ragged\.csv:2: expected 3 fields"):
            load_csv(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_refused_at_construction(self, value):
        X = np.zeros((3, 4))
        X[2, 1] = value
        with pytest.raises(DomainError, match="non-finite feature at row 2, column 1"):
            Dataset(X=X, y=np.array([0, 1, 0]))

    @pytest.mark.parametrize("y, message", [
        (np.array([0, -1, 1]), "negative label -1"),
        (np.array([0.0, 1.0, 1.0]), "labels must be 1-D integers, got float64 of shape (3,)"),
        (np.zeros((3, 1), np.int64), "labels must be 1-D integers, got int64 of shape (3, 1)"),
        (np.array([0, 1, 1], np.uint64), "labels must be 1-D integers, got uint64"),
        (np.array([0, 2**62, 1]), f"label {2**62} is too large: labels must be below 2**32"),
        (np.array([0, 2**32, 1]), f"label {2**32} is too large: labels must be below 2**32"),
    ])
    def test_malformed_labels_refused_at_construction(self, y, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            Dataset(X=np.zeros((3, 2)), y=y)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,0.5,{value}\n")
        with pytest.raises(FormatError, match=r"nonfinite\.csv:3: non-finite value in f1"):
            load_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "0,abc,2",
            "0,,2",
            "x,1,2",
            "1.5,1,2",
            "1e0,1,2",
            "1_0,1,2",
            "0,1_0,2",
            "0,1#x,2",
            "0,1,2#x",
            '"1",1,2',
            '0,"1",2',
            " ",
        ],
    )
    def test_unparsable_field_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0,f1\n0,1,2\n{row}\n")
        with pytest.raises(FormatError, match=r"bad\.csv:3: "):
            load_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"0,abc,2", "invalid value 'abc' in f0"),
            (b"0,1", "expected 3 fields"),
            (b"0,nan,2", "non-finite value in f0"),
            (b"0,\xff,2", "cannot decode byte 0xff"),
        ],
    )
    def test_error_located_past_the_first_rows(self, tmp_path, row, message):
        path = tmp_path / "big.csv"
        path.write_bytes(b"label,f0,f1\r\n" + b"1,0.5,-2.25\r\n" * 2999 + row + b"\r\n")
        with pytest.raises(FormatError, match=rf"big\.csv:3001: {message}$"):
            load_csv(path)

    def test_empty_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("label,f0,f1\n\n0,1,2\n\n1,3,4\n\n")
        assert load_csv(path).X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text("label,f0,f1\n\n0,1,2\n\n1,3,inf\n")
        with pytest.raises(FormatError, match=r"blank\.csv:5: non-finite value in f1"):
            load_csv(path)
        path.write_text("label,f0,f1\n\n\n")
        with pytest.raises(FormatError, match=r"blank\.csv: no data rows"):
            load_csv(path)

    def test_negative_label_rejected(self, tmp_path):
        # Dataset refuses it, and load_csv reports its text after the path
        path = tmp_path / "neg.csv"
        path.write_text("label,f0\n0,1\n-1,2\n")
        with pytest.raises(FormatError, match=r"neg\.csv: negative label -1$"):
            load_csv(path)

    @pytest.mark.parametrize("label", [2**62, 2**32])
    def test_label_too_large_to_count_rejected(self, tmp_path, label):
        # refused before np.bincount would size a count array by it
        path = tmp_path / "big.csv"
        path.write_text(f"label,f0\n0,1\n{label},2\n")
        message = rf"big\.csv: label {label} is too large: labels must be below 2\*\*32$"
        with pytest.raises(FormatError, match=message):
            load_csv(path)

    def test_unlocated_error_keeps_numpy_message(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("label,f0\n0,1\n99999999999999999999,2\n")
        with pytest.raises(FormatError, match=r"huge\.csv: .*'99999999999999999999'"):
            load_csv(path)

    def test_loadtxt_warning_is_an_error(self, tmp_path, monkeypatch):
        loadtxt = np.loadtxt

        def warn_then_load(*args, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warn_then_load)
        path = tmp_path / "warn.csv"
        path.write_text("label,f0\n0,1\n")
        with pytest.raises(FormatError, match=r"warn\.csv: parsing an integer via a float"):
            load_csv(path)

    def test_truncated_or_corrupted_file_loads_or_raises_format_error(self, tmp_path):
        good = b"label,f0,f1\n0,1.5,-2\n1,0.25,3e1\n"
        variants = [good[:n] for n in range(len(good))]
        variants += [
            good[:i] + byte + good[i + 1 :]
            for i in range(len(good))
            for byte in (b"x", b",", b"\n", b"\xff")
        ]
        variants.append(b"label,f0\n0," + b"1" * 200_000 + b"\n")  # over the csv field limit
        path = tmp_path / "c.csv"
        for raw in variants:
            path.write_bytes(raw)
            try:
                load_csv(path)
            except FormatError:
                pass
            except Exception as exc:
                pytest.fail(f"{raw[:40]!r}: {exc!r}")


class TestBatches:
    def dataset(self, n=20):
        return make_blobs(2, 3, 1, n // 2, 1.0, 1.0, Rng(17))

    def test_full_batch_is_permutation(self):
        ds = self.dataset(20)
        out = batches(ds, batch_size=20, seed=5, epoch=0)
        assert len(out) == 1
        assert sorted(out[0].tolist()) == list(range(20))
        assert out[0].tolist() != list(range(20))

    def test_same_seed_epoch_identical(self):
        ds = self.dataset(24)
        a = batches(ds, 4, 6, epoch=3)
        b = batches(ds, 4, 6, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_epochs_differ(self):
        ds = self.dataset(32)
        a = np.concatenate(batches(ds, 8, 7, epoch=0))
        b = np.concatenate(batches(ds, 8, 7, epoch=1))
        assert not np.array_equal(a, b)

    def test_epoch_covers_every_index_once(self):
        ds = self.dataset(30)
        out = batches(ds, 7, 8, epoch=2)
        flat = np.concatenate(out)
        assert sorted(flat.tolist()) == list(range(30))
        assert [len(b) for b in out] == [7, 7, 7, 7, 2]

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(DomainError):
            batches(self.dataset(10), 11, 0, epoch=0)
