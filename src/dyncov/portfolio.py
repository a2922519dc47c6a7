"""Daily-rebalanced global minimum-variance portfolios over a rolling window.

Each out-of-sample day's covariance estimate is trained on the trailing
window of paired rows (factor vector u_t conditioning the next day's asset
returns y_t, per the loader's lag pairing) and never sees the evaluation
row.  Only positive-definite estimator arms are backtested; non-PD raw
estimates are refused rather than inverted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import raw_cov, train_cov_forests
from .data import Dataset
from .forest import ForestConfig
from .simulation import kernel_dcm_baseline, static_baseline
from .thresholding import ForestCV, ThresholdRule, pd_correct

TRADING_DAYS_PER_YEAR = 252

BACKTEST_METHODS = ("mfdcm", "mkernel", "static", "identity")


def min_var_weights(sigma: np.ndarray) -> np.ndarray:
    """Global minimum-variance weights sigma^-1 1 / (1' sigma^-1 1).

    Short positions are allowed; the result is renormalized to sum to 1
    exactly.  Raises on non-PD input.
    """
    sigma = np.asarray(sigma, dtype=float)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("minimum-variance weights need a positive definite matrix") from exc
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


@dataclass(frozen=True)
class BacktestSpec:
    """Which estimator arm drives the daily covariance estimate."""

    method: str  # mfdcm | mkernel | static | identity
    rule: ThresholdRule = field(default_factory=lambda: ThresholdRule("soft"))
    kernel_covariate: int = 1

    def __post_init__(self):
        if self.method not in BACKTEST_METHODS:
            raise ValueError(
                f"backtest supports only PD arms {BACKTEST_METHODS}, got {self.method!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "BacktestSpec":
        parts = text.strip().split(":")
        name = parts[0].lower()
        if name == "identity":
            return cls("identity")
        rest = parts[1:]
        cov = 1
        if name == "mkernel" and rest and rest[0].isdigit():
            cov = int(rest[0])
            rest = rest[1:]
        rule = ThresholdRule.parse(":".join(rest)) if rest else ThresholdRule("soft")
        return cls(method=name, rule=rule, kernel_covariate=cov)

    def __str__(self) -> str:
        if self.method == "identity":
            return "identity"
        if self.method == "mkernel":
            return f"{self.method}:{self.kernel_covariate}:{self.rule}"
        return f"{self.method}:{self.rule}"


@dataclass
class BacktestResult:
    daily_returns: np.ndarray
    weights_log: np.ndarray  # (days, p)
    dates: tuple[str, ...] | None
    perf: Performance


class _ForestArm:
    """Rolling forest estimator with optional retrain stride."""

    def __init__(self, spec, config, folds, grid_size):
        self.spec = spec
        self.config = config
        self.folds = folds
        self.grid_size = grid_size
        self._forests = None
        self._cv = None
        self._train = None

    def estimate(self, train: Dataset, u: np.ndarray, retrain: bool) -> np.ndarray:
        if retrain or self._forests is None:
            self._train = train
            self._forests = train_cov_forests(train, self.config)
            self._cv = ForestCV(train, self.config, folds=self.folds, grid_size=self.grid_size)
        raw = raw_cov(*self._forests, self._train, u)
        return pd_correct(self._cv.select(u, self.spec.rule, raw).apply(raw))[0]


def backtest(
    panel: Dataset,
    spec: BacktestSpec,
    window: int = 100,
    forest_config: ForestConfig | None = None,
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
    """
    T, p = panel.n, panel.p
    if T <= window:
        raise ValueError(f"panel has {T} rows; needs more than window={window}")
    if window < 2:
        raise ValueError("window must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if window < p:
        warnings.warn(
            f"window {window} < p {p}: raw estimates are rank deficient; "
            "PD correction makes the backtest proceed",
            stacklevel=2,
        )

    arm = None
    if spec.method == "mfdcm":
        cfg = replace((forest_config or ForestConfig()).resolve(window, panel.d), seed=seed)
        arm = _ForestArm(spec, cfg, folds, grid_size)

    daily = np.empty(T - window)
    weights = np.empty((T - window, p))
    for step, i in enumerate(range(window, T)):
        train = panel.subset(np.arange(i - window, i))
        u = panel.u[i]
        if spec.method == "identity":
            sigma = np.eye(p)
        elif spec.method == "static":
            mat = static_baseline(train, spec.rule, folds=folds, grid_size=grid_size, seed=seed)
            sigma = pd_correct(mat)[0]
        elif spec.method == "mkernel":
            mat = kernel_dcm_baseline(
                train, spec.kernel_covariate, u, spec.rule, folds=folds, grid_size=grid_size, seed=seed
            )
            sigma = pd_correct(mat)[0]
        else:  # mfdcm
            sigma = arm.estimate(train, u, retrain=step % stride == 0)
        w = min_var_weights(sigma)
        weights[step] = w
        daily[step] = float(w @ panel.y[i])

    dates = tuple(panel.dates[window:]) if panel.dates is not None else None
    return BacktestResult(
        daily_returns=daily,
        weights_log=weights,
        dates=dates,
        perf=performance(daily),
    )
