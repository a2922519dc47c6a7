"""Generalized shrinkage of off-diagonal entries, penalty selection by
cross-validation, positive-definite correction, and the precision matrix.

Every shrinkage rule s_lambda satisfies |s(z)| <= |z|, s(z) = 0 for
|z| <= lambda, and |s(z) - z| <= lambda.  The diagonal is never penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _streams
from .covariance import raw_cov, train_cov_forests
from .data import Dataset
from .forest import ForestConfig


@dataclass(frozen=True)
class ThresholdRule:
    """One of the four shrinkage rules: hard, soft, scad(a), alasso(eta)."""

    kind: str
    a: float = 3.7
    eta: float = 3.0

    def __post_init__(self):
        if self.kind not in ("hard", "soft", "scad", "alasso"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "scad" and self.a <= 2:
            raise ValueError("scad requires a > 2")
        if self.kind == "alasso" and self.eta <= 0:
            raise ValueError("alasso requires eta > 0")

    @classmethod
    def parse(cls, text: str) -> "ThresholdRule":
        """Parse CLI strings: hard | soft | scad[:a] | alasso[:eta]."""
        parts = text.strip().lower().split(":")
        kind = parts[0]
        if kind in ("hard", "soft"):
            if len(parts) > 1:
                raise ValueError(f"rule {kind!r} takes no parameter")
            return cls(kind)
        if kind == "scad":
            return cls("scad", a=float(parts[1])) if len(parts) > 1 else cls("scad")
        if kind == "alasso":
            return cls("alasso", eta=float(parts[1])) if len(parts) > 1 else cls("alasso")
        raise ValueError(f"unknown thresholding rule {text!r}")

    def __str__(self) -> str:
        if self.kind == "scad":
            return f"scad:{self.a:g}"
        if self.kind == "alasso":
            return f"alasso:{self.eta:g}"
        return self.kind


def shrink(z, lam: float, rule: ThresholdRule):
    """Apply the shrinkage rule elementwise; accepts scalars or arrays."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    if rule.kind == "hard":
        out = np.where(az > lam, z, 0.0)
    elif rule.kind == "soft":
        out = np.sign(z) * np.maximum(az - lam, 0.0)
    elif rule.kind == "scad":
        a = rule.a
        soft = np.sign(z) * np.maximum(az - lam, 0.0)
        mid = ((a - 1) * z - np.sign(z) * a * lam) / (a - 2)
        out = np.where(az <= 2 * lam, soft, np.where(az <= a * lam, mid, z))
    else:  # alasso
        # lam * (lam/|z|)^eta rather than lam^(eta+1) * |z|^-eta: equal
        # analytically, but exact (penalty == lam) when |z| == lam.
        safe_az = np.where(az > 0, az, 1.0)
        with np.errstate(over="ignore"):  # huge lam/|z| ratios overflow to inf: fine
            penalty = np.where(az > 0, lam * (lam / safe_az) ** rule.eta, np.inf)
        out = np.sign(z) * np.maximum(az - penalty, 0.0)
    return out if out.ndim else float(out)


def _shrink_offdiag(matrix: np.ndarray, lam: float, rule: ThresholdRule) -> np.ndarray:
    out = shrink(matrix, lam, rule)
    np.fill_diagonal(out, np.diagonal(matrix))
    return out


@dataclass(frozen=True)
class LambdaSelection:
    """A selected penalty with its rule, the evaluated grid and CV scores."""

    lam: float
    grid: np.ndarray
    cv_scores: np.ndarray
    rule: ThresholdRule

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid[0] != 0.0 or np.any(np.diff(grid) < 0):
            raise ValueError("grid must be ascending and start at 0")
        if self.lam not in grid:
            raise ValueError("selected lambda must belong to the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cv_scores", np.asarray(self.cv_scores, dtype=float))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Shrink the off-diagonal entries at the selected lambda; the diagonal is kept."""
        return _shrink_offdiag(matrix, self.lam, self.rule)


def lambda_grid(raw_matrix: np.ndarray, size: int = 20) -> np.ndarray:
    """0 plus `size` log-spaced values up to the max off-diagonal magnitude."""
    off = np.abs(raw_matrix - np.diag(np.diagonal(raw_matrix))).max(initial=0.0)
    if off <= 0:
        return np.array([0.0])
    return np.concatenate([[0.0], np.geomspace(off * 1e-3, off, size)])


def _cv_select(pairs, grid: np.ndarray, rule: ThresholdRule) -> LambdaSelection:
    """Pick the grid lambda minimizing the mean held-out Frobenius score.

    ``pairs`` yields one (fit, held) pair of raw matrices per fold: the
    estimate from the fold's training part and the one from its held-out part.
    """
    scores = np.zeros(len(grid))
    n_pairs = 0
    for fit, held in pairs:
        for g, lam in enumerate(grid):
            diff = _shrink_offdiag(fit, lam, rule) - held
            scores[g] += float(np.sum(diff * diff))
        n_pairs += 1
    scores /= n_pairs
    return LambdaSelection(lam=float(grid[int(np.argmin(scores))]), grid=grid, cv_scores=scores, rule=rule)


def _fold_splits(order: np.ndarray, folds: int, seed: int):
    """Yield the sorted (train, held) row indices of each fold of a seeded V-fold split.

    The folds partition ``order``, a permutation of the rows, after one
    shuffle drawn from the seed's fold stream.
    """
    perm = np.asarray(order)[_streams.substream(seed, _streams.FOLD).permutation(len(order))]
    for part in np.array_split(perm, folds):
        yield np.setdiff1d(perm, part), np.sort(part)


def cv_threshold(raw_full: np.ndarray, raw_fn, order: np.ndarray, rule: ThresholdRule,
                 folds: int, grid_size: int, seed: int) -> np.ndarray:
    """Threshold a weight-based estimate at a V-fold cross-validated lambda.

    ``raw_fn`` maps sorted row indices to the raw estimate on those rows and
    ``raw_full`` is its value on all rows.  A content-based ``order`` makes
    the selection invariant to permuting the sample rows.
    """
    grid = lambda_grid(raw_full, size=grid_size)
    if len(grid) == 1:  # no off-diagonal mass; nothing to tune
        return raw_full.copy()
    n = len(order)
    folds = min(folds, n // 2)
    if folds < 2:
        raise ValueError(f"n={n} too small for cross-validation")
    pairs = ((raw_fn(fit), raw_fn(held)) for fit, held in _fold_splits(order, folds, seed))
    return _cv_select(pairs, grid, rule).apply(raw_full)


def _subset_config(config: ForestConfig, m: int, n_full: int, n_trees: int) -> ForestConfig:
    """Scale a resolved config to an m-row subset (CV fold training)."""
    s = max(2, min(m, round(config.subsample_size * m / n_full)))
    k = min(config.min_leaf, max(1, s // 2))
    return replace(config, n_trees=n_trees, subsample_size=s, min_leaf=k)


# A fold forest is trained on at least CV_MIN_TRAIN_ROWS rows.
CV_MIN_TRAIN_ROWS = 4


def check_cv_folds(n: int, folds: int) -> None:
    """Raise ValueError unless n rows allow ``ForestCV`` with ``folds`` folds.

    Every fold must hold out at least 2 rows, and every fold's complement,
    the rows its forests train on, needs CV_MIN_TRAIN_ROWS rows; the largest
    fold, of ceil(n/folds) rows, leaves the smallest complement.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < 2 * folds:
        raise ValueError(f"n={n} too small for {folds}-fold CV")
    complement = n - math.ceil(n / folds)
    if complement < CV_MIN_TRAIN_ROWS:
        raise ValueError(
            f"n={n} too small for {folds}-fold CV: a fold's complement has {complement} rows,"
            f" a fold forest needs {CV_MIN_TRAIN_ROWS}"
        )


# Fold forests get 1/CV_TREE_DIVISOR of the main forests' trees, at least CV_MIN_TREES.
CV_TREE_DIVISOR = 5
CV_MIN_TREES = 50


class ForestCV:
    """V-fold machinery for selecting the thresholding penalty.

    Fold forests are trained once (with a reduced tree count, since tuning
    needs ranking fidelity rather than final precision) and reused for every
    query point: scoring a candidate lambda at u only requires evaluating the
    per-fold raw estimates there.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: ForestConfig,
        folds: int = 5,
        grid_size: int = 20,
    ):
        check_cv_folds(dataset.n, folds)
        cfg = config.resolve(dataset.n, dataset.d)
        n_cv_trees = max(CV_MIN_TREES, cfg.n_trees // CV_TREE_DIVISOR)
        self.grid_size = grid_size
        self._pairs = []
        for train_idx, fold in _fold_splits(np.arange(dataset.n), folds, cfg.seed):
            train_ds = dataset.subset(train_idx)
            hold_ds = dataset.subset(fold)
            train_cfg = _subset_config(cfg, len(train_idx), dataset.n, n_cv_trees)
            hold_cfg = _subset_config(cfg, len(fold), dataset.n, n_cv_trees)
            train_forests = train_cov_forests(train_ds, train_cfg)
            hold_forests = train_cov_forests(hold_ds, hold_cfg)
            self._pairs.append(((train_forests, train_ds), (hold_forests, hold_ds)))

    def select(self, u: np.ndarray, rule: ThresholdRule, raw: np.ndarray) -> LambdaSelection:
        """Cross-validated penalty at u; the raw estimate at u fixes the grid's upper end."""
        pairs = (
            (raw_cov(*train_forests, train_ds, u), raw_cov(*hold_forests, hold_ds, u))
            for (train_forests, train_ds), (hold_forests, hold_ds) in self._pairs
        )
        return _cv_select(pairs, lambda_grid(raw, size=self.grid_size), rule)


@dataclass(frozen=True)
class PDCorrection:
    """Outcome of the positive-definiteness correction."""

    delta_hat: float
    c_n: float
    applied: bool


def default_cn(matrix: np.ndarray) -> float:
    """Scale-aware small shift: 1e-4 times the largest diagonal entry."""
    top = float(np.diagonal(matrix).max(initial=0.0))
    return 1e-4 * top if top > 0 else 1e-8


def pd_correct(matrix: np.ndarray, c_n: float | None = None) -> tuple[np.ndarray, PDCorrection]:
    """Shift a symmetric matrix by (delta_hat + c_n) I when its smallest eigenvalue is <= 0."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    if np.abs(matrix - matrix.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if c_n is None:
        c_n = default_cn(matrix)
    if c_n <= 0:
        raise ValueError("c_n must be > 0")
    mu_min = float(np.linalg.eigvalsh(matrix)[0])
    if mu_min > 0:
        return matrix, PDCorrection(delta_hat=0.0, c_n=c_n, applied=False)
    delta_hat = -mu_min
    shifted = matrix + (delta_hat + c_n) * np.eye(matrix.shape[0])
    return shifted, PDCorrection(delta_hat=delta_hat, c_n=c_n, applied=True)


def precision(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite: Cholesky failed") from exc
    linv = np.linalg.solve(chol, np.eye(chol.shape[0]))
    inv = linv.T @ linv
    return (inv + inv.T) / 2.0
