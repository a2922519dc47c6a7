"""Paired response/covariate samples and CSV I/O.

A :class:`Dataset` holds ``n`` paired observations ``(y_i, u_i)`` with
``y_i`` a length-``p`` response vector and ``u_i`` a length-``d``
conditioning-covariate vector.  Datasets are immutable after construction.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


class CsvFormatError(ValueError):
    """An input CSV violates the declared layout."""


@dataclass(frozen=True)
class Dataset:
    """n paired observations with shared dimensions p and d."""

    y: np.ndarray  # (n, p)
    u: np.ndarray  # (n, d)
    dates: tuple[str, ...] | None = None
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        if y.ndim != 2 or u.ndim != 2:
            raise ValueError("y and u must be 2-d arrays")
        if y.shape[0] != u.shape[0]:
            raise ValueError(
                f"row mismatch: {y.shape[0]} responses vs {u.shape[0]} covariates"
            )
        if y.shape[0] < 1 or y.shape[1] < 1 or u.shape[1] < 1:
            raise ValueError("need n >= 1, p >= 1 and d >= 1")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(u))):
            raise ValueError("all entries must be finite")
        if self.dates is not None and len(self.dates) != y.shape[0]:
            raise ValueError("dates must align with rows")
        y.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        dates = tuple(self.dates[i] for i in idx) if self.dates is not None else None
        return Dataset(self.y[idx].copy(), self.u[idx].copy(), dates)

    def fingerprint(self) -> str:
        """Content hash used to guard against mixed-dataset misuse.

        Computed on first use and kept: y and u are read-only, so it cannot
        go stale.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64([self.n, self.p, self.d]).tobytes())
            h.update(self.y.tobytes())
            h.update(self.u.tobytes())
            object.__setattr__(self, "_fingerprint", h.hexdigest())
        return self._fingerprint


@dataclass(frozen=True)
class CsvLayout:
    """Which CSV columns are responses vs covariates, plus an optional lag.

    With ``lag = L`` the covariate vector from file row t is paired with the
    response vector from file row t + L (day-t factor returns conditioning
    day-(t+L) asset returns).
    """

    response_cols: tuple[str, ...]
    covariate_cols: tuple[str, ...]
    date_col: str | None = None
    lag: int = 0

    def __post_init__(self):
        if len(self.response_cols) == 0:
            raise ValueError("layout declares no response columns (p = 0)")
        if len(self.covariate_cols) == 0:
            raise ValueError("layout declares no covariate columns (d = 0)")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        names = self.response_cols + self.covariate_cols + (self.date_col,)
        repeated = [c for i, c in enumerate(names) if c is not None and c in names[:i]]
        if repeated:
            raise ValueError(f"layout names column {repeated[0]!r} more than once")


def _read_numeric_csv(path, text_col: str | None = None):
    """Header, values and text column of a headered CSV, every cell checked.

    Each cell is parsed as a finite float, except those of the column named
    ``text_col``, which are kept aside as stripped text.  Rows stream into a
    float64 array (N, len(header)) that grows by doubling; the text column's
    entries in it are 0.0.  A row is converted with ``map(float, ...)`` and
    checked for finiteness as a whole; only a row that fails is walked cell
    by cell to name the first bad cell.  Blank lines are skipped.  Errors
    name the file line (the header is line 1) and the 1-based column.
    Returns ``(header, values, texts)``, texts None without ``text_col``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        text_pos = _col_pos(path, header, text_col) if text_col is not None else None
        texts = [] if text_pos is not None else None
        values = np.empty((64, len(header)))
        n = 0
        for raw in reader:
            if not raw:
                continue
            if len(raw) != len(header):
                raise CsvFormatError(
                    f"{path}: line {reader.line_num} has {len(raw)} cells, "
                    f"header has {len(header)}"
                )
            if texts is not None:
                texts.append(raw[text_pos].strip())
                raw[text_pos] = "0"
            if n == len(values):
                grown = np.empty((2 * n, len(header)))
                grown[:n] = values
                values = grown
            try:
                values[n] = list(map(float, raw))
            except ValueError:
                _bad_cell(path, reader.line_num, raw, text_pos)
            if not np.isfinite(values[n]).all():
                _bad_cell(path, reader.line_num, raw, text_pos)
            n += 1
    return header, values[:n], texts


def _bad_cell(path, line: int, raw: list[str], text_pos: int | None):
    """Raise the error for the first non-numeric or non-finite cell of a row."""
    for c, cell in enumerate(raw, start=1):
        if c - 1 == text_pos:
            continue
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(
                f"{path}: non-numeric cell at line {line}, column {c} ({cell!r})"
            ) from None
        if not math.isfinite(value):
            raise CsvFormatError(
                f"{path}: non-finite cell at line {line}, column {c} ({cell!r})"
            )
    raise AssertionError("row has no bad cell")


def _col_pos(path, header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise CsvFormatError(f"{path}: column {name!r} not in header") from None


def load_returns_csv(path, layout: CsvLayout) -> Dataset:
    """Load a Dataset from a headered CSV per the layout descriptor.

    Rows keep file order.  Every cell but the date column must be a finite
    number; errors name the file line and column.  The file is streamed into
    one float64 array, from which y and u are gathered.
    """
    header, values, texts = _read_numeric_csv(path, layout.date_col)
    y_pos = [_col_pos(path, header, c) for c in layout.response_cols]
    u_pos = [_col_pos(path, header, c) for c in layout.covariate_cols]

    lag = layout.lag
    if len(values) <= lag:
        raise CsvFormatError(
            f"{path}: {len(values)} data rows cannot support lag={lag}"
        )
    n = len(values) - lag
    y = values[lag:].take(y_pos, axis=1)
    u = values[:n].take(u_pos, axis=1)
    # Date of the response row labels the paired observation.
    dates = tuple(texts[lag:]) if texts is not None else None
    return Dataset(y, u, dates)


def load_query_csv(path) -> np.ndarray:
    """Load query covariate vectors, one per row, from a headered CSV.

    Every row must have as many cells as the header and every cell must be a
    finite number.  Errors name the file line and column.
    """
    _, values, _ = _read_numeric_csv(path)
    if not len(values):
        raise CsvFormatError(f"{path}: no query rows")
    return values.copy()


def write_returns_csv(path, dataset: Dataset, layout: CsvLayout) -> None:
    """Write a Dataset back to CSV (lag must be 0; exact float round trip)."""
    if layout.lag != 0:
        raise ValueError("write_returns_csv only supports lag=0 layouts")
    if len(layout.response_cols) != dataset.p or len(layout.covariate_cols) != dataset.d:
        raise ValueError("layout does not match dataset dimensions")
    cols = list(layout.response_cols) + list(layout.covariate_cols)
    if layout.date_col is not None:
        cols = [layout.date_col] + cols
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.y[i]] + [repr(float(v)) for v in dataset.u[i]]
            if layout.date_col is not None:
                row = [dataset.dates[i] if dataset.dates else str(i)] + row
            writer.writerow(row)
