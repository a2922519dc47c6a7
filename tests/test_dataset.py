import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyncov.data import (
    CsvFormatError,
    CsvLayout,
    Dataset,
    load_query_csv,
    load_returns_csv,
    write_returns_csv,
)
from tests.conftest import reference_load_query_csv, reference_load_returns_csv, vec_outer


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


GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5 ", "1_0", "-0.0", "+3", "5e-324", "1e308", '"2.5"', '" 7 "']),
)
BAD_CELLS = st.sampled_from(
    ["nan", "-inf", "inf", "Infinity", "1e309", "abc", "", "--1", '"1,5"', "0x1"]
)
DATE_CELLS = st.sampled_from(["2020-01-02", " d ", "", "nan", '"a,b"', '"x\ny"'])


@st.composite
def csv_inputs(draw):
    """(CSV text, layout): numeric columns, an optional date column first, in the
    middle or last, blank lines, quoted cells, and now and then a ragged row or a
    bad cell."""
    k = draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(k)]
    date_at = draw(st.sampled_from([None, 0, 1, k]))
    header = list(names)
    if date_at is not None:
        header.insert(date_at, "date")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        cells = [draw(DATE_CELLS) if h == "date" else draw(GOOD_CELLS) for h in header]
        fault = draw(st.sampled_from([None] * 8 + ["bad", "ragged"]))
        if fault == "bad":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        elif fault == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    order = draw(st.permutations(names))
    r = draw(st.integers(1, k - 1))
    layout = CsvLayout(
        response_cols=tuple(order[:r]),
        covariate_cols=tuple(order[r:]),
        date_col="date" if date_at is not None else None,
        lag=draw(st.integers(0, 3)),
    )
    return "\n".join(lines) + "\n", layout


def _outcome(load, *args):
    """The loaded arrays' bytes and shapes plus the dates, or the error text."""
    try:
        out = load(*args)
    except CsvFormatError as exc:
        return "error", str(exc)
    arrays = [out.y, out.u] if isinstance(out, Dataset) else [out]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], getattr(out, "dates", None)


class TestStreamedLoader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_inputs())
    def test_matches_cell_by_cell_reader(self, tmp_path, case):
        text, layout = case
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_returns_csv, path, layout) == _outcome(
            reference_load_returns_csv, path, layout
        )
        assert _outcome(load_query_csv, path) == _outcome(reference_load_query_csv, path)

    def test_peak_memory_near_returned_arrays(self, tmp_path):
        # A Python float per cell would cost over 4x the returned arrays.
        gen = np.random.default_rng(0)
        n, p, d = 2000, 200, 5
        layout = CsvLayout(
            response_cols=tuple(f"y{j + 1}" for j in range(p)),
            covariate_cols=tuple(f"u{j + 1}" for j in range(d)),
        )
        path = tmp_path / "wide.csv"
        write_returns_csv(path, Dataset(gen.standard_normal((n, p)), gen.uniform(-1, 1, (n, d))),
                          layout)
        tracemalloc.start()
        try:
            ds = load_returns_csv(path, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ds.n, ds.p, ds.d) == (n, p, d)
        assert peak < 2.5 * (ds.y.nbytes + ds.u.nbytes)
