"""Raw covariate-conditional covariance estimates from paired forest weights.

The raw estimate at a query point u is the weighted second moment minus the
outer product of the weighted mean, each weighting coming from its own
honest forest.  The result is symmetric but not necessarily positive
semidefinite; see :mod:`dyncov.thresholding` for thresholding and the PD
correction.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .forest import Forest, ForestConfig, ResponseKind, train_forest, weight_vector


def _check_forest(forest: Forest, dataset: Dataset, kind: ResponseKind) -> None:
    if forest.response_kind is not kind:
        raise ValueError(f"forest has response kind {forest.response_kind}, need {kind}")
    if forest.dataset_fingerprint != dataset.fingerprint():
        raise ValueError("forest was trained on a different dataset")


def cond_mean(mean_forest: Forest, dataset: Dataset, u: np.ndarray) -> np.ndarray:
    """Weighted conditional mean of the responses at u."""
    _check_forest(mean_forest, dataset, ResponseKind.MEAN)
    w = weight_vector(mean_forest, u)
    return dataset.y[w.indices].T @ w.values


def cond_second_moment(sm_forest: Forest, dataset: Dataset, u: np.ndarray) -> np.ndarray:
    """Weighted conditional second moment sum_i w_i y_i y_i^T at u."""
    _check_forest(sm_forest, dataset, ResponseKind.SECOND_MOMENT)
    w = weight_vector(sm_forest, u)
    ys = dataset.y[w.indices]
    m = ys.T @ (ys * w.values[:, None])
    return (m + m.T) / 2.0


def raw_cov(
    mean_forest: Forest,
    sm_forest: Forest,
    dataset: Dataset,
    u: np.ndarray,
) -> np.ndarray:
    """Raw dynamic covariance estimate: second moment minus mean outer product."""
    if mean_forest.dataset_fingerprint != sm_forest.dataset_fingerprint:
        raise ValueError("forests were trained on different datasets")
    mean = cond_mean(mean_forest, dataset, u)
    second = cond_second_moment(sm_forest, dataset, u)
    return second - np.outer(mean, mean)


def train_cov_forests(dataset: Dataset, config: ForestConfig) -> tuple[Forest, Forest]:
    """Train the mean and the second-moment forest for raw_cov, mean first."""
    return (
        train_forest(dataset, config, ResponseKind.MEAN),
        train_forest(dataset, config, ResponseKind.SECOND_MOMENT),
    )


def write_matrix_csv(path, matrix: np.ndarray, header_lines: list[str] | None = None) -> None:
    """Write a matrix as rows of comma-separated ``repr`` floats, after
    ``# ``-prefixed header lines.

    ``repr`` runs once per distinct bit pattern (so -0.0 and 0.0, or two NaN
    payloads, stay apart), which halves the work on a symmetric matrix and
    does most of it once on a thresholded one; the text is the per-entry
    ``repr`` byte for byte.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {matrix.shape}")
    # A sort and a binary search over the int64 view find the patterns:
    # np.unique(return_inverse=True) argsorts instead, which pages in about
    # 0.3 MB of NumPy code that no other step of an estimate run touches.
    bits = matrix.view(np.int64)
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    # float.__repr__ of each NumPy scalar is the repr of the Python float,
    # without first holding every distinct value as a Python float.
    text = np.array(list(map(float.__repr__, distinct.view(np.float64))), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        for row in text[distinct.searchsorted(bits)].tolist():
            fh.write(",".join(row) + "\n")
