import numpy as np
import pytest

import tck.data
from tck.data import (Dataset, FormatError, concat_mask, load_dataset,
                      save_dataset, standardize, zero_impute)

from poison import poison_missing


def make_dataset(values, mask, labels=None, n_classes=0):
    values = np.asarray(values, dtype=float)
    return Dataset(values, np.asarray(mask), labels, n_classes,
                   np.arange(1, values.shape[0] + 1))


def write_csv(path, meta, rows, header="series_id,attribute,time,value"):
    with open(path, "w") as fh:
        fh.write(meta + "\n" + header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class TestLoad:
    def test_rows_become_observed_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=1,V=1,T=3,N_c=0", [(1, 1, 1, 0.5), (1, 1, 2, 0.7)])
        ds = load_dataset(path)
        assert ds.mask.tolist() == [[[1, 1, 0]]]
        assert ds.values[0, 0, 0] == 0.5 and ds.values[0, 0, 1] == 0.7

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=0,V=1,T=1,N_c=0", [])
        ds = load_dataset(path)
        assert ds.n == 0

    def test_duplicate_triple_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=1,V=1,T=3,N_c=0", [(1, 1, 1, 0.5), (1, 1, 1, 0.7)])
        with pytest.raises(FormatError, match="duplicate"):
            load_dataset(path)

    @pytest.mark.parametrize("row", [(2, 1, 1, 0.5), (1, 3, 1, 0.5), (1, 1, 9, 0.5)])
    def test_out_of_range_rejected(self, tmp_path, row):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=1,V=2,T=3,N_c=0", [row])
        with pytest.raises(FormatError, match="outside"):
            load_dataset(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        lpath = tmp_path / "l.csv"
        write_csv(path, "# N=1,V=1,T=1,N_c=2", [(1, 1, 1, 0.5)])
        write_csv(lpath, "series_id,label", [(1, 3)], header="")
        # rebuild with proper label header only
        with open(lpath, "w") as fh:
            fh.write("series_id,label\n1,3\n")
        with pytest.raises(FormatError, match="label"):
            load_dataset(path, lpath)

    def test_empty_label_means_unlabeled(self, tmp_path):
        path = tmp_path / "d.csv"
        lpath = tmp_path / "l.csv"
        write_csv(path, "# N=2,V=1,T=1,N_c=2", [(1, 1, 1, 0.5), (2, 1, 1, 1.5)])
        with open(lpath, "w") as fh:
            fh.write("series_id,label\n1,2\n2,\n")
        ds = load_dataset(path, lpath)
        assert ds.labels.tolist() == [2, 0]

    def test_sparse_cohort_capacity(self, tmp_path):
        # 858 series, 11 attributes, T=10 with ~19.3% of cells observed
        n, v, t = 858, 11, 10
        rng = np.random.default_rng(7)
        target = round(0.193 * n * v * t)
        flat = rng.choice(n * v * t, size=target, replace=False)
        rows = [(int(f // (v * t)) + 1, int(f % (v * t) // t) + 1,
                 int(f % t) + 1, round(float(rng.normal()), 6)) for f in flat]
        path = tmp_path / "d.csv"
        write_csv(path, f"# N={n},V={v},T={t},N_c=2", rows)
        ds = load_dataset(path)
        observed = ds.mask.mean()
        assert abs(observed - 0.193) < 0.001
        assert abs((1 - observed) - 0.807) < 0.001

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 2, 4))
        mask = (rng.random((5, 2, 4)) < 0.6).astype(np.uint8)
        labels = np.array([1, 0, 2, 2, 1])
        ds = make_dataset(values, mask, labels, n_classes=2)
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "l.csv")
        back = load_dataset(tmp_path / "d.csv", tmp_path / "l.csv")
        assert np.array_equal(back.mask, ds.mask)
        assert np.array_equal(back.labels, ds.labels)
        obs = ds.mask.astype(bool)
        assert np.array_equal(back.values[obs], ds.values[obs])


def read_both_ways(monkeypatch, path, label_path=None):
    """load_dataset with the fast pass, and with the line loop forced."""
    fast = load_dataset(path, label_path)
    with monkeypatch.context() as m:
        m.setattr(tck.data, "_read_cells_fast", lambda *args: None)
        slow = load_dataset(path, label_path)
    return fast, slow


def assert_same_dataset(a, b):
    for name in ("values", "mask", "labels", "ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.n_classes == b.n_classes


class TestReader:
    """The fast pass and the line loop accept the same files and read the
    same bits; the line loop words every error."""

    # (data rows after the header, line and message of the error) with
    # "# N=1,V=2,T=3,N_c=0" declared.
    BAD = {
        "field-count": ("1,1,1,0.5\n1,1,2\n", "4: expected 4 fields, got 3"),
        "non-integer-id": ("1.5,1,1,0.5\n", "3: malformed row '1.5,1,1,0.5'"),
        "series-range": ("1,1,1,0.5\n2,1,1,0.5\n",
                         "4: series_id 2 outside [1, 1]"),
        "attribute-range": ("1,3,1,0.5\n", "3: attribute 3 outside [1, 2]"),
        "time-range": ("1,1,0,0.5\n", "3: time 0 outside [1, 3]"),
        "duplicate-cell": ("1,1,1,0.5\n1,2,1,0.5\n1,1,1,0.7\n",
                           "5: duplicate cell (1,1,1)"),
        # loadtxt strips 0x1c-0x1f as whitespace; float() does not
        "separator-char": ("1,1,1,0.5\x1c\n", "3: malformed row '1,1,1,0.5\\x1c'"),
    }

    @pytest.mark.parametrize("body, error", BAD.values(), ids=BAD.keys())
    def test_bad_rows_are_named(self, tmp_path, body, error):
        path = tmp_path / "d.csv"
        path.write_text("# N=1,V=2,T=3,N_c=0\nseries_id,attribute,time,value\n"
                        + body)
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:{error}"

    # Irregular files that the line loop accepts, some of which loadtxt
    # rejects; each holds the cells (1,1,1)=0.5 and (1,2,3)=10.
    GOOD = {
        "blank-line": "1,1,1,0.5\n\n1,2,3,10\n",
        "crlf": "1,1,1,0.5\r\n1,2,3,10\r\n",
        "space-padded": " 1 , 1,1 ,0.5\n1, 2, 3 , 10 \n",
        "underscore": "1,1,1,0.5\n1,2,3,1_0\n",
        "arabic-indic-digit": "\u0661,1,1,0.5\n1,2,3,10\n",
        "no-final-newline": "1,1,1,0.5\n1,2,3,10",
    }

    @pytest.mark.parametrize("body", GOOD.values(), ids=GOOD.keys())
    def test_irregular_files_still_load(self, tmp_path, monkeypatch, body):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# N=1,V=2,T=3,N_c=0\nseries_id,attribute,time,value\n"
                     + body)
        fast, slow = read_both_ways(monkeypatch, path)
        assert_same_dataset(fast, slow)
        assert fast.mask.tolist() == [[[1, 0, 0], [0, 0, 1]]]
        assert fast.values[0, 0, 0] == 0.5 and fast.values[0, 1, 2] == 10.0

    def test_non_ascii_digit_reads_as_int_reads_it(self, tmp_path, monkeypatch):
        # int() reads U+0968 (Devanagari two) as 2; loadtxt as 2360.
        path = tmp_path / "d.csv"
        path.write_text("# N=2360,V=1,T=1,N_c=0\nseries_id,attribute,time,value\n"
                        "\u0968,1,1,0.5\n")
        fast, slow = read_both_ways(monkeypatch, path)
        assert_same_dataset(fast, slow)
        assert np.flatnonzero(fast.mask).tolist() == [1]

    def test_large_file_reads_identically_both_ways(self):
        """Magnitudes from 1e-150 to 1e150, subnormals, shortest reprs and
        rows out of order. Both readers return before Dataset bounds the
        values, so they are compared directly."""
        rng = np.random.default_rng(11)
        n, v, t = 300, 3, 40
        scale = 10.0 ** rng.integers(-150, 150, (n, v, t))
        values = rng.normal(size=(n, v, t)) * scale
        values[rng.random((n, v, t)) < 0.1] = 5e-324        # subnormal
        mask = (rng.random((n, v, t)) < 0.4).astype(np.uint8)
        body = [f"{i + 1},{a + 1},{s + 1},{values[i, a, s]:.17g}"
                for i, a, s in np.argwhere(mask)]
        rng.shuffle(body)
        for i in range(0, len(body), 2):
            cell, _, x = body[i].rpartition(",")
            body[i] = f"{cell},{float(x)!r}"
        text = "\n".join(body) + "\n"
        fast = tck.data._read_cells_fast(text, n, v, t)
        assert fast is not None
        slow = tck.data._read_cells(text.split("\n"), "d.csv", n, v, t)
        for x, y in zip(fast, slow):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        obs = mask.astype(bool)
        assert np.array_equal(fast[1], mask)
        assert fast[0][obs].tobytes() == values[obs].tobytes()

    @pytest.mark.parametrize("meta, key", [
        ("N=-1,V=2,T=3,N_c=0", "N=-1"), ("N=1,V=0,T=3,N_c=0", "V=0"),
        ("N=1,V=2,T=0,N_c=0", "T=0"), ("N=1,V=2,T=3,N_c=-1", "N_c=-1"),
    ], ids=["N", "V", "T", "N_c"])
    def test_metadata_out_of_range_rejected(self, tmp_path, meta, key):
        path = tmp_path / "d.csv"
        write_csv(path, "# " + meta, [])
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        least = 1 if key[0] in "VT" else 0
        assert str(info.value) == f"{path}: metadata {key} must be at least {least}"

    def test_duplicate_label_row_rejected(self, tmp_path):
        path, lpath = tmp_path / "d.csv", tmp_path / "l.csv"
        write_csv(path, "# N=1,V=1,T=1,N_c=2", [(1, 1, 1, 0.5)])
        lpath.write_text("series_id,label\n1,1\n1,2\n")
        with pytest.raises(FormatError) as info:
            load_dataset(path, lpath)
        assert str(info.value) == f"{lpath}:3: duplicate label row for series_id 1"


class TestStandardize:
    def test_simple_values(self):
        ds = make_dataset([[[1.0, 2.0, 3.0]]], [[[1, 1, 1]]])
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.values[0, 0], [-1.0, 0.0, 1.0])
        assert stats.std[0] > 0

    def test_constant_attribute_maps_to_zero(self):
        ds = make_dataset([[[5.0, 5.0]]], [[[1, 1]]])
        out, stats = standardize(ds)
        np.testing.assert_array_equal(out.values[0, 0], [0.0, 0.0])
        assert stats.std[0] == 0

    def test_stats_respect_mask(self):
        ds = make_dataset([[[1.0, 99.0, 3.0]]], [[[1, 0, 1]]])
        out, stats = standardize(ds)
        assert stats.mean[0] == 2.0
        assert out.values[0, 0, 1] == 99.0  # missing cell untouched
        np.testing.assert_allclose(out.values[0, 0, [0, 2]],
                                   [-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(10, 3, 6)),
                          (rng.random((10, 3, 6)) < 0.8).astype(np.uint8))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        obs = ds.mask.astype(bool)
        assert np.abs(twice.values[obs] - once.values[obs]).max() < 1e-12

    def test_unobserved_attribute_is_an_error(self):
        ds = make_dataset(np.zeros((2, 2, 3)),
                          [[[1, 1, 1], [0, 0, 0]], [[1, 0, 1], [0, 0, 0]]])
        with pytest.raises(ValueError, match="attribute 2"):
            standardize(ds)


class TestMaskBaselines:
    def test_concat_mask_definition(self):
        ds = make_dataset([[[2.0, 9.0]]], [[[1, 0]]], np.array([1]), 1)
        out = concat_mask(ds)
        assert out.n_attributes == 2
        assert out.values[0, 1].tolist() == [1.0, 0.0]
        assert out.mask[0, 1].tolist() == [1, 1]
        assert out.mask[0, 0].tolist() == [1, 0]

    def test_concat_mask_fully_observed(self):
        ds = make_dataset(np.ones((2, 2, 3)), np.ones((2, 2, 3)))
        out = concat_mask(ds)
        assert (out.values[:, 2:, :] == 1).all()

    def test_concat_mask_empty(self):
        ds = Dataset(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)), None, 0,
                     np.arange(0))
        assert concat_mask(ds).n_attributes == 4

    def test_zero_impute(self):
        ds = make_dataset([[[7.0, 2.0]]], [[[0, 1]]])
        out = zero_impute(ds)
        assert out.values[0, 0].tolist() == [0.0, 2.0]
        assert out.mask.all()

    def test_zero_impute_identity_on_complete(self):
        ds = make_dataset([[[7.0, 2.0]]], [[[1, 1]]])
        out = zero_impute(ds)
        assert np.array_equal(out.values, ds.values)

    def test_zero_impute_all_missing(self):
        ds = make_dataset([[[7.0, 2.0]]], [[[0, 0]]])
        assert (zero_impute(ds).values == 0).all()

    def test_baselines_preserve_series_and_labels(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(size=(4, 2, 3)),
                          (rng.random((4, 2, 3)) < 0.5).astype(np.uint8),
                          np.array([1, 2, 0, 1]), 2)
        for op in (concat_mask, zero_impute):
            out = op(ds)
            assert out.n == ds.n
            assert np.array_equal(out.labels, ds.labels)


@pytest.mark.parametrize("rows", [[3, 0], np.array([1, 4]), [], np.arange(5)])
def test_take_copies_the_picked_rows(rows):
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.normal(size=(5, 2, 3)),
                      (rng.random((5, 2, 3)) < 0.5).astype(np.uint8),
                      np.array([1, 2, 0, 1, 2]), 2)
    out = ds.take(rows)
    picked = np.asarray(rows, dtype=np.int64)
    for name in ("values", "mask", "labels", "ids"):
        np.testing.assert_array_equal(getattr(out, name), getattr(ds, name)[picked])
        assert not np.shares_memory(getattr(out, name), getattr(ds, name)), name


def test_masked_cells_never_read():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(8, 2, 5)),
                      (rng.random((8, 2, 5)) < 0.7).astype(np.uint8))
    poisoned = poison_missing(ds, np.nan)
    out, stats = standardize(poisoned)
    obs = ds.mask.astype(bool)
    assert np.isfinite(out.values[obs]).all()
    clean, _ = standardize(ds)
    np.testing.assert_array_equal(out.values[obs], clean.values[obs])


class TestNonFiniteObservedValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_naming_series_attribute_and_time(self, bad):
        values = np.zeros((3, 2, 4))
        values[1, 1, 2] = bad
        with pytest.raises(ValueError,
                           match=r"series 20: non-finite .* \(attribute 2, time 3\)"):
            Dataset(values, np.ones((3, 2, 4), dtype=np.uint8), None, 0,
                    np.array([10, 20, 30]))

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_poison_in_unobserved_cells_accepted(self, poison):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng.normal(size=(5, 2, 4)),
                          (rng.random((5, 2, 4)) < 0.6).astype(np.uint8))
        poisoned = poison_missing(ds, poison)
        assert not np.isfinite(poisoned.values).all()
        assert np.array_equal(poisoned.values[ds.mask == 1], ds.values[ds.mask == 1])

    def test_nan_in_csv_fails_at_load(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=2,V=1,T=3,N_c=0", [(1, 1, 1, 0.5), (2, 1, 3, "nan")])
        with pytest.raises(ValueError, match=r"series 2: .*attribute 1, time 3"):
            load_dataset(path)

    @pytest.mark.parametrize("big", [np.nextafter(1e100, np.inf), -1e154, 1e160,
                                     np.finfo(float).max],
                             ids=["next-above-bound", "-1e154", "1e160", "max"])
    def test_value_above_bound_rejected(self, big):
        values = np.zeros((3, 2, 4))
        values[2, 0, 3] = big
        with pytest.raises(ValueError, match=r"^series 30: value .* \(attribute 1, "
                                             r"time 4\) exceeds 1e\+100 in magnitude$"):
            Dataset(values, np.ones((3, 2, 4), dtype=np.uint8), None, 0,
                    np.array([10, 20, 30]))

    def test_bound_itself_accepted(self, tmp_path):
        """+-1e100 pass Dataset and load_dataset; a larger unobserved value
        is never read."""
        values = np.zeros((2, 1, 3))
        values[:, 0, 1] = 1e100, -1e100
        mask = np.ones((2, 1, 3), dtype=np.uint8)
        mask[0, 0, 2] = 0
        values[0, 0, 2] = 1e300
        Dataset(values, mask, None, 0, np.array([1, 2]))
        path = tmp_path / "d.csv"
        write_csv(path, "# N=2,V=1,T=3,N_c=0", [(1, 1, 2, "1e100"), (2, 1, 2, "-1e100")])
        assert load_dataset(path).values[:, 0, 1].tolist() == [1e100, -1e100]

    @pytest.mark.parametrize("big, shown", [
        (repr(float(np.nextafter(1e100, np.inf))), r"1\.0000000000000002e\+100"),
        ("1e160", r"1e\+160")], ids=["next-above-bound", "1e160"])
    def test_value_above_bound_fails_at_load(self, tmp_path, big, shown):
        path = tmp_path / "d.csv"
        write_csv(path, "# N=2,V=2,T=3,N_c=0", [(1, 1, 1, 0.5), (2, 2, 3, big)])
        with pytest.raises(ValueError, match=rf"^series 2: value {shown} .*attribute 2, "
                                             r"time 3\) exceeds 1e\+100 in magnitude$"):
            load_dataset(path)


class TestMaskEntries:
    """The mask is checked as given, before the cast to uint8, which would
    wrap 256 to 0 and truncate 0.5 to 0 and 1.7 to 1."""

    @pytest.mark.parametrize("bad", [0.5, 1.7, 256, np.nan, -1],
                             ids=["half", "1.7", "256", "nan", "minus-one"])
    def test_non_binary_entry_rejected(self, bad):
        mask = np.array([[[1.0, 0.0, 1.0]]])
        mask[0, 0, 1] = bad
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            make_dataset(np.zeros((1, 1, 3)), mask)

    @pytest.mark.parametrize("mask", [np.array([[[True, False, True]]]),
                                      np.array([[[1.0, 0.0, 1.0]]])],
                             ids=["bool", "float"])
    def test_binary_entries_of_any_dtype_accepted(self, mask):
        ds = make_dataset(np.zeros((1, 1, 3)), mask)
        assert ds.mask.dtype == np.uint8
        assert ds.mask.tolist() == [[[1, 0, 1]]]
