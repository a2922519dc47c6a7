"""Raw covariate-conditional covariance estimates from paired forest weights.

The raw estimate at a query point u is the weighted second moment minus the
outer product of the weighted mean, each weighting coming from its own
honest forest.  The result is symmetric but not necessarily positive
semidefinite; see :mod:`dyncov.thresholding` for thresholding and the PD
correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .forest import Forest, ForestConfig, ResponseKind, train_forest, weight_vector


def weighted_cov(
    y_mean: np.ndarray, w_mean: np.ndarray, y_sm: np.ndarray, w_sm: np.ndarray
) -> np.ndarray:
    """sum_i b_i y_i y_i^T - mu mu^T, mu = sum_i a_i y_i: the raw estimate
    from the rows ``y_mean`` weighted by ``w_mean`` (a) and the rows ``y_sm``
    weighted by ``w_sm`` (b).

    The forest passes each forest's nonzero weights and their rows; the
    kernel baseline passes one Nadaraya-Watson weighting of all rows twice.
    """
    mean = y_mean.T @ w_mean
    m = y_sm.T @ (y_sm * w_sm[:, None])
    return (m + m.T) / 2.0 - np.outer(mean, mean)


@dataclass(frozen=True)
class CovForests:
    """One fit: the mean and the second-moment forest, with the dataset both
    were trained on.  Each forest is checked once, here, for its response
    kind and for having been trained on ``dataset``."""

    mean: Forest
    second_moment: Forest
    dataset: Dataset

    def __post_init__(self):
        for forest, kind in ((self.mean, ResponseKind.MEAN), (self.second_moment, ResponseKind.SECOND_MOMENT)):
            if forest.response_kind is not kind:
                raise ValueError(f"forest has response kind {forest.response_kind}, need {kind}")
            if forest.dataset_fingerprint != self.dataset.fingerprint():
                raise ValueError("forest was trained on a different dataset")


def raw_cov(fit: CovForests, u: np.ndarray) -> np.ndarray:
    """Raw dynamic covariance estimate at u from the fit's two forests'
    weightings (``weighted_cov``)."""
    wm, ws = weight_vector(fit.mean, u), weight_vector(fit.second_moment, u)
    y = fit.dataset.y
    return weighted_cov(y[wm.indices], wm.values, y[ws.indices], ws.values)


def train_cov_forests(dataset: Dataset, config: ForestConfig, seed: int, worker=None) -> CovForests:
    """Train the mean and the second-moment forest for raw_cov from ``seed``.

    The second-moment forest goes to ``worker`` (``dyncov._worker.ForkWorker``)
    and the mean forest grows here meanwhile; without a worker both grow
    here, the mean forest first.  Each tree draws from its own stream, so the
    forests do not depend on where they grow.
    """
    if worker is None:
        return CovForests(train_forest(dataset, config, ResponseKind.MEAN, seed),
                          train_forest(dataset, config, ResponseKind.SECOND_MOMENT, seed), dataset)
    worker.submit(train_forest, dataset, config, ResponseKind.SECOND_MOMENT, seed)
    return CovForests(train_forest(dataset, config, ResponseKind.MEAN, seed), worker.result(), dataset)


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
