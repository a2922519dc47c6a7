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
        if self.kind == "scad" and not (math.isfinite(self.a) and self.a > 2):
            raise ValueError(f"scad requires a finite a > 2, got {self.a}")
        if self.kind == "alasso" and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"alasso requires a finite eta > 0, got {self.eta}")

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


def _cv_select(raw_at, folds, grid: np.ndarray, rule: ThresholdRule) -> LambdaSelection:
    """Pick the grid lambda minimizing the mean held-out Frobenius score.

    ``folds`` lists each fold's (training, held-out) indices into a
    ``_fold_plan``'s row sets, and ``raw_at`` maps a set index to the raw
    estimate on that set.  A set's matrix is kept only for the next fold, so
    at 2 folds, where the folds swap roles, each is computed once.
    """
    scores = np.zeros(len(grid))
    kept = {}
    for fit, held in folds:
        kept = {s: kept[s] if s in kept else raw_at(s) for s in (fit, held)}
        for g, lam in enumerate(grid):
            diff = _shrink_offdiag(kept[fit], lam, rule) - kept[held]
            scores[g] += float(np.sum(diff * diff))
    scores /= len(folds)
    return LambdaSelection(lam=float(grid[int(np.argmin(scores))]), grid=grid, cv_scores=scores, rule=rule)


def _fold_plan(order: np.ndarray, folds: int, seed: int):
    """The distinct sorted row sets of a seeded V-fold split, and each fold's
    (training, held-out) indices into them.

    The folds, checked by ``check_cv_folds`` first, partition ``order``, a
    permutation of the rows, after one shuffle drawn from the seed's fold
    stream.  At 2 folds one fold's training rows are the other's held-out
    rows, so there are 2 sets and the folds are (0, 1) and (1, 0); at V >= 3
    there are 2V sets, fold k being (2k, 2k + 1).
    """
    check_cv_folds(len(order), folds)
    perm = np.asarray(order)[_streams.substream(seed, _streams.FOLD).permutation(len(order))]
    parts = np.array_split(perm, folds)
    if folds == 2:
        return [np.sort(parts[1]), np.sort(parts[0])], [(0, 1), (1, 0)]
    sets = [rows for part in parts for rows in (np.setdiff1d(perm, part), np.sort(part))]
    return sets, [(2 * k, 2 * k + 1) for k in range(folds)]


def cv_threshold(raw_full: np.ndarray, raw_fn, order: np.ndarray, rule: ThresholdRule,
                 folds: int, grid_size: int, seed: int) -> np.ndarray:
    """Threshold a weight-based estimate at a V-fold cross-validated lambda.

    ``raw_fn`` maps sorted row indices to the raw estimate on those rows and
    ``raw_full`` is its value on all rows.  A content-based ``order`` makes
    the selection invariant to permuting the sample rows.  The folds must
    pass ``check_cv_folds`` unless the grid is the single point 0.
    ``raw_fn`` runs once on each distinct row set of the fold plan
    (``_fold_plan``): 2 times at 2 folds, 2V times at V >= 3.
    """
    grid = lambda_grid(raw_full, size=grid_size)
    if len(grid) == 1:  # no off-diagonal mass; nothing to tune
        return raw_full.copy()
    sets, plan = _fold_plan(order, folds, seed)
    return _cv_select(lambda s: raw_fn(sets[s]), plan, grid, rule).apply(raw_full)


def _subset_config(config: ForestConfig, m: int, n_full: int, n_trees: int) -> ForestConfig:
    """Scale a resolved config to an m-row subset (CV fold training)."""
    s = max(2, min(m, round(config.subsample_size * m / n_full)))
    k = min(config.min_leaf, max(1, s // 2))
    return replace(config, n_trees=n_trees, subsample_size=s, min_leaf=k)


# A fold forest is trained on at least CV_MIN_TRAIN_ROWS rows.
CV_MIN_TRAIN_ROWS = 4


def check_cv_folds(n: int, folds: int) -> None:
    """Raise ValueError unless n rows allow ``folds``-fold CV, in any cross-validated arm.

    Every fold must hold out at least 2 rows, and every fold's complement,
    the rows a fold forest trains on, needs CV_MIN_TRAIN_ROWS rows; the
    largest fold, of ceil(n/folds) rows, leaves the smallest complement.
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
    per-fold raw estimates there.  ``seed`` draws the fold split and every
    fold forest.

    One forest pair is trained on each distinct row set of the fold plan
    (``_fold_plan``); a pair depends only on its rows, as the config scales
    with their count and the seed is the run's.  At 2 folds the folds swap
    roles, so 2 pairs are trained and ``select`` computes 2 raw estimates
    per point; at V >= 3 it is 2V of each.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: ForestConfig,
        seed: int,
        folds: int = 5,
        grid_size: int = 20,
    ):
        cfg = config.resolve(dataset.n, dataset.d)
        n_cv_trees = max(CV_MIN_TREES, cfg.n_trees // CV_TREE_DIVISOR)
        self.grid_size = grid_size
        sets, self._folds = _fold_plan(np.arange(dataset.n), folds, seed)
        self._fits = []  # (mean forest, second-moment forest, subset) per row set
        for rows in sets:
            sub = dataset.subset(rows)
            sub_cfg = _subset_config(cfg, len(rows), dataset.n, n_cv_trees)
            self._fits.append((*train_cov_forests(sub, sub_cfg, seed), sub))

    def select(self, u: np.ndarray, rule: ThresholdRule, raw: np.ndarray) -> LambdaSelection:
        """Cross-validated penalty at u; the raw estimate at u fixes the grid's upper end."""
        return _cv_select(lambda s: raw_cov(*self._fits[s], u), self._folds,
                          lambda_grid(raw, size=self.grid_size), rule)


@dataclass(frozen=True)
class PDCorrection:
    """Outcome of the positive-definiteness correction: the shift added is
    (delta_hat + c_n) I, with c_n the margin actually used."""

    delta_hat: float
    c_n: float
    applied: bool


def default_cn(matrix: np.ndarray) -> float:
    """Scale-aware small shift: 1e-4 times the largest diagonal entry."""
    top = float(np.diagonal(matrix).max(initial=0.0))
    return 1e-4 * top if top > 0 else 1e-8


def _rounding_floor(p: int, size: float) -> float:
    """2 (p+1)^2 u size, with u the unit roundoff; see ``pd_correct``."""
    return 2.0 * (p + 1) ** 2 * (float(np.finfo(float).eps) / 2) * size


def _factorizes(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def pd_correct(
    matrix: np.ndarray, c_n: float | None = None, where: str = ""
) -> tuple[np.ndarray, PDCorrection]:
    """Shift a symmetric matrix by (delta_hat + c) I unless it is positive definite.

    With mu the computed smallest eigenvalue, M is returned unchanged when
    mu > 0 and M passes a Cholesky factorization.  Otherwise delta_hat =
    max(0, -mu) and the margin c starts at max(c_n, t(N + delta_hat)), with
    N = p max_ij |M_ij| (a bound on ||M||_F >= ||M||_2) and
    t(x) = 2 (p+1)^2 u x (u the unit roundoff).  That floor makes the shifted
    matrix pass Cholesky however small the diagonal is next to the rest,
    as long as eigvalsh's error is within its model bound:

    - eigvalsh is backward stable; model its error as |mu - mu_exact| <=
      (p+1) u N (LAPACK's "modest function of p" times u ||M||_2 <= u N).
    - Cholesky of A succeeds when lambda_min(A) > p g/(1-g) max_i a_ii,
      g = (p+1)u/(1-(p+1)u) (Higham, Accuracy and Stability of Numerical
      Algorithms, Thm 10.7); p g/(1-g) <= (p+1)^2 u while 2 (p+1)^2 u <= 1.
    - Rounding the diagonal of M + s I, s = delta_hat + c, moves it by at
      most u (N + s), so lambda_min >= c - (p+2) u N - u (delta_hat + c),
      while max_i a_ii <= (1+u)(N + s); c >= t(N + delta_hat) covers both,
      as 2 (p+1)^2 > (p+1)^2 + p + 2 with room for the O(p^2 u) terms.

    eigvalsh can miss by more than that model (2.4e-13 ||M||_2 at p = 5,
    for entries of 1e95 and 1e-62), so the shifted matrix is factorized,
    and c grows 16-fold until it passes.  Where c_n already exceeds
    t(N + delta_hat) and the first shift passes, c = c_n as before.  A
    LinAlgError from the eigenvalues, or when no finite shift passes, names
    ``where``, the caller's location of the matrix (a query point, a day, a
    replication's test point).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    top = float(np.abs(matrix).max(initial=0.0))
    if np.abs(matrix - matrix.T).max(initial=0.0) > 1e-12 * max(1.0, top):
        raise ValueError("matrix is not symmetric within tolerance")
    if c_n is None:
        c_n = default_cn(matrix)
    if c_n <= 0:
        raise ValueError("c_n must be > 0")
    at = f" at {where}" if where else ""
    try:
        mu_min = float(np.linalg.eigvalsh(matrix)[0])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"PD correction{at}: eigvalsh failed: {exc}") from exc
    if mu_min > 0 and _factorizes(matrix):
        return matrix, PDCorrection(delta_hat=0.0, c_n=c_n, applied=False)
    p = matrix.shape[0]
    delta_hat = max(0.0, -mu_min)
    c = max(c_n, _rounding_floor(p, p * top + delta_hat))
    while True:
        shifted = matrix + (delta_hat + c) * np.eye(p)
        if _factorizes(shifted):
            return shifted, PDCorrection(delta_hat=delta_hat, c_n=c, applied=True)
        if not np.isfinite(shifted).all():
            raise np.linalg.LinAlgError(f"PD correction{at}: no finite shift passes Cholesky")
        c *= 16.0


def precision(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite: Cholesky failed") from exc
    linv = np.linalg.solve(chol, np.eye(chol.shape[0]))
    inv = linv.T @ linv
    return (inv + inv.T) / 2.0
