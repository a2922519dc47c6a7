"""Daily-rebalanced global minimum-variance portfolios over a rolling window.

Each out-of-sample day's covariance estimate is trained on the trailing
window of paired rows (factor vector u_t conditioning the next day's asset
returns y_t, per the loader's lag pairing) and never sees the evaluation
row.  The arm is a ``simulation.MethodSpec`` named in BACKTEST_METHODS, and
every arm but ``identity`` is PD-corrected before its matrix is inverted, so
no non-PD estimate is ever used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import raw_cov, train_cov_forests
from .data import Dataset
from .forest import ForestConfig
from .simulation import MethodSpec, kernel_dcm_baseline, static_baseline
from .thresholding import ForestCV, check_cv_folds, pd_correct

TRADING_DAYS_PER_YEAR = 252

BACKTEST_METHODS = ("mfdcm", "mkernel", "static", "identity")


def min_var_weights(sigma: np.ndarray, where: str = "") -> np.ndarray:
    """Global minimum-variance weights sigma^-1 1 / (1' sigma^-1 1).

    Short positions are allowed; the result is renormalized to sum to 1
    exactly.  Raises on non-PD input, naming ``where``, the caller's
    location (e.g. "day 3"), when one is given.
    """
    sigma = np.asarray(sigma, dtype=float)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        at = f" at {where}" if where else ""
        raise ValueError(
            f"minimum-variance weights{at} need a positive definite matrix: Cholesky failed: {exc}"
        ) from exc
    ones = np.ones(sigma.shape[0])
    z = np.linalg.solve(chol, ones)
    w = np.linalg.solve(chol.T, z)
    w = w / w.sum()
    w[0] += 1.0 - w.sum()  # compensate the renormalization's rounding ulp
    return w


@dataclass(frozen=True)
class Performance:
    """Annualized mean, volatility and their ratio (None when vol is 0)."""

    avr: float
    std: float
    ir: float | None


def performance(daily_returns) -> Performance:
    returns = np.asarray(daily_returns, dtype=float)
    if returns.size < 2:
        raise ValueError("need at least 2 daily returns")
    avr = float(returns.mean() * TRADING_DAYS_PER_YEAR)
    std = float(returns.std(ddof=1) * np.sqrt(TRADING_DAYS_PER_YEAR))
    ir = avr / std if std > 0 else None
    return Performance(avr=avr, std=std, ir=ir)


@dataclass
class BacktestResult:
    daily_returns: np.ndarray
    weights_log: np.ndarray  # (days, p)
    dates: tuple[str, ...] | None
    perf: Performance


def check_backtest_method(spec: MethodSpec) -> None:
    """Raise ValueError unless ``spec`` is an arm ``backtest`` runs."""
    if spec.name not in BACKTEST_METHODS:
        raise ValueError(f"backtest supports only PD arms {BACKTEST_METHODS}, got {spec.name!r}")


def check_backtest(spec: MethodSpec, n: int, d: int, window: int, stride: int,
                   forest_config: ForestConfig, folds: int) -> None:
    """Raise ValueError unless ``backtest`` can run ``spec`` on n panel rows of d
    covariates: the n - window out-of-sample days must be at least 2, as
    ``performance`` needs, every arm but ``identity`` cross-validates on
    ``window`` rows, and a forest arm's config must pass
    ``ForestConfig.resolve_main`` there."""
    check_backtest_method(spec)
    spec.check_covariate(d)
    if n < window + 2:
        raise ValueError(
            f"panel has {n} rows; window={window} needs at least {window + 2}"
            " for 2 out-of-sample days"
        )
    if window < 2:
        raise ValueError("window must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if spec.name != "identity":
        check_cv_folds(window, folds)
    if spec.forest:
        forest_config.resolve_main(window, d)


def backtest(
    panel: Dataset,
    spec: MethodSpec,
    window: int = 100,
    forest_config: ForestConfig = ForestConfig(),
    folds: int = 5,
    grid_size: int = 20,
    stride: int = 1,
    seed: int = 0,
) -> BacktestResult:
    """Daily-rebalanced minimum-variance backtest over a rolling window.

    Row i of the panel pairs the factor vector known before the evaluation
    day with that day's asset returns; weights for row i are computed from
    rows [i - window, i) only.  With ``stride`` m > 1 forests are retrained
    every m days and re-queried at the new factor vector in between.
    ``forest_config`` shapes the forests, and ``seed`` drives every random
    stream of the run, the forests' and the CV folds'.  Settings that
    ``check_backtest`` refuses raise before day 1, and a failed PD correction
    names its day as the returns file labels it.
    """
    check_backtest(spec, panel.n, panel.d, window, stride, forest_config, folds)
    T, p = panel.n, panel.p
    if window < p:
        warnings.warn(
            f"window {window} < p {p}: raw estimates are rank deficient; "
            "PD correction makes the backtest proceed",
            stacklevel=2,
        )

    daily = np.empty(T - window)
    weights = np.empty((T - window, p))
    for step, i in enumerate(range(window, T)):
        rows = np.arange(i - window, i)
        u = panel.u[i]
        day = panel.dates[i] if panel.dates is not None else step
        if spec.name == "identity":
            sigma = np.eye(p)
        else:
            if spec.forest:
                if step % stride == 0:
                    fit = panel.subset(rows)
                    forests = train_cov_forests(fit, forest_config, seed)
                    cv = ForestCV(fit, forest_config, seed, folds=folds, grid_size=grid_size)
                raw = raw_cov(*forests, fit, u)
                mat = cv.select(u, spec.rule, raw).apply(raw)
            elif spec.name == "static":
                mat = static_baseline(panel.subset(rows), spec.rule, folds=folds,
                                      grid_size=grid_size, seed=seed)
            else:  # mkernel
                mat = kernel_dcm_baseline(
                    panel.subset(rows), spec.kernel_covariate, u, spec.rule, folds=folds, grid_size=grid_size, seed=seed
                )
            sigma = pd_correct(mat, where=f"day {day}")[0]
        w = min_var_weights(sigma, where=f"day {day}")
        weights[step] = w
        daily[step] = float(w @ panel.y[i])

    dates = tuple(panel.dates[window:]) if panel.dates is not None else None
    return BacktestResult(
        daily_returns=daily,
        weights_log=weights,
        dates=dates,
        perf=performance(daily),
    )
