import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov.data import (
    CsvFormatError,
    CsvLayout,
    Dataset,
    load_returns_csv,
    write_returns_csv,
)
from tests.conftest import vec_outer


class TestVecOuter:
    def test_unit_vector(self):
        np.testing.assert_array_equal(vec_outer(np.array([1.0, 0.0])), [1, 0, 0, 0])

    def test_direct_outer(self):
        np.testing.assert_array_equal(vec_outer(np.array([1.0, 2.0])), [1, 2, 2, 4])

    def test_zero_vector(self):
        np.testing.assert_array_equal(vec_outer(np.zeros(3)), np.zeros(9))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            vec_outer(np.array([1.0, np.inf]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_unvec_recovers_outer_product(self, values):
        y = np.asarray(values)
        p = len(y)
        np.testing.assert_array_equal(vec_outer(y).reshape(p, p, order="F"), np.outer(y, y))


class TestDataset:
    def test_dimensions(self):
        ds = Dataset(np.zeros((3, 2)), np.ones((3, 1)))
        assert (ds.n, ds.p, ds.d) == (3, 2, 1)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_non_finite_rejected(self):
        y = np.zeros((2, 2))
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(y, np.zeros((2, 1)))

    def test_immutable(self):
        ds = Dataset(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            ds.y[0, 0] = 1.0

    def test_fingerprint_tracks_content(self):
        a = Dataset(np.ones((2, 2)), np.zeros((2, 1)))
        b = Dataset(np.ones((2, 2)), np.zeros((2, 1)))
        c = Dataset(np.ones((2, 2)) * 2, np.zeros((2, 1)))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_computed_once(self):
        a = Dataset(np.ones((3, 2)), np.zeros((3, 1)))
        first = a.fingerprint()
        assert a.fingerprint() is first
        assert Dataset(a.y.copy(), a.u.copy()).fingerprint() == first

    def test_subset_keeps_dates(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.zeros((3, 1)), dates=("a", "b", "c"))
        sub = ds.subset([2, 0])
        assert sub.dates == ("c", "a")
        np.testing.assert_array_equal(sub.y, [[4, 5], [0, 1]])


class TestCsvLoading:
    def test_column_counting(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y1,y2,u1\n1,2,3\n4,5,6\n7,8,9\n")
        layout = CsvLayout(response_cols=("y1", "y2"), covariate_cols=("u1",))
        ds = load_returns_csv(path, layout)
        assert (ds.n, ds.p, ds.d) == (3, 2, 1)
        np.testing.assert_array_equal(ds.u[:, 0], [3, 6, 9])

    def test_lag_pairing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y1,u1\n10,1\n20,2\n30,3\n40,4\n")
        layout = CsvLayout(response_cols=("y1",), covariate_cols=("u1",), lag=1)
        ds = load_returns_csv(path, layout)
        assert ds.n == 3
        # Covariate from row t pairs with the response from row t+1.
        np.testing.assert_array_equal(ds.u[:, 0], [1, 2, 3])
        np.testing.assert_array_equal(ds.y[:, 0], [20, 30, 40])

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y1,y2,u1\n1,2,3\n4,5,oops\n")
        layout = CsvLayout(response_cols=("y1", "y2"), covariate_cols=("u1",))
        with pytest.raises(CsvFormatError, match=r"line 3, column 3"):
            load_returns_csv(path, layout)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"y1,y2,u1\n1,2,3\n\n4,{cell},6\n")
        layout = CsvLayout(response_cols=("y1", "y2"), covariate_cols=("u1",))
        with pytest.raises(CsvFormatError, match=r"non-finite cell at line 4, column 2"):
            load_returns_csv(path, layout)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y1,u1\n1,2\n")
        layout = CsvLayout(response_cols=("y1", "nope"), covariate_cols=("u1",))
        with pytest.raises(CsvFormatError, match="nope"):
            load_returns_csv(path, layout)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y1,u1\n1,2\n3\n")
        layout = CsvLayout(response_cols=("y1",), covariate_cols=("u1",))
        with pytest.raises(CsvFormatError, match="line 3 has 1 cells"):
            load_returns_csv(path, layout)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            CsvLayout(response_cols=(), covariate_cols=("u1",))

    @pytest.mark.parametrize("columns", [
        dict(response_cols=("y1", "y1"), covariate_cols=("u1",)),
        dict(response_cols=("y1",), covariate_cols=("u1", "y1")),
        dict(response_cols=("y1",), covariate_cols=("u1",), date_col="u1"),
    ], ids=["response", "covariate", "date"])
    def test_column_named_twice_rejected(self, columns):
        with pytest.raises(ValueError, match="more than once"):
            CsvLayout(**columns)

    def test_round_trip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        ds = Dataset(gen.standard_normal((7, 3)), gen.uniform(-1, 1, (7, 2)), dates=tuple("abcdefg"))
        layout = CsvLayout(
            response_cols=("y1", "y2", "y3"),
            covariate_cols=("u1", "u2"),
            date_col="date",
        )
        path = tmp_path / "rt.csv"
        write_returns_csv(path, ds, layout)
        back = load_returns_csv(path, layout)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.u, ds.u)
        assert back.dates == ds.dates
