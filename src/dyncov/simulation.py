"""Monte Carlo benchmark harness: synthetic generators, loss metrics,
static and kernel-smoothing baselines, and the replicated experiment runner.

``MethodSpec`` names an estimator arm for this runner and for the backtest;
here the ``m`` arms, ``mfdcm`` and ``mkernel``, are PD-corrected.

Four generators are provided: two scaled AR(1)-style structures driven by
one or two covariate coordinates, and two banded varying-sparsity structures
whose off-diagonal support switches on and off with the covariates.
Accuracy is summarized by the median Frobenius/spectral losses over a fixed
set of 30 query points, and sparsity recovery by median true/false positive
rates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _streams
from .covariance import raw_cov, train_cov_forests
from .data import Dataset
from .forest import ForestConfig
from .thresholding import ForestCV, ThresholdRule, cv_threshold, pd_correct

N_TEST_POINTS = 30


@dataclass(frozen=True)
class ModelSpec:
    """One of the four synthetic generators with its dimensions."""

    model: int
    p: int
    d: int
    n: int

    def __post_init__(self):
        if self.model not in (1, 2, 3, 4):
            raise ValueError(f"model must be 1..4, got {self.model}")
        if self.p < 1 or self.d < 1 or self.n < 1:
            raise ValueError("p, d and n must be >= 1")
        if self.model in (2, 4) and self.d < 2:
            raise ValueError(f"model {self.model} reads u1 and u2; needs d >= 2")
        if self.model in (3, 4) and self.p < 3:
            raise ValueError(f"model {self.model} has a two-band structure; needs p >= 3")


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _bump(x: float, center: float, width: float) -> float:
    """Smooth bump supported on (center - width, center + width), 0 outside."""
    gap = width * width - (x - center) ** 2
    if gap <= 0:
        return 0.0
    return math.exp(-((x - center) ** 2) / gap)


def _band_matrix(p: int, coef1: float, coef2: float, scale: float) -> np.ndarray:
    """scale * (I + coef1 on |j-r|=1 + coef2 on |j-r|=2)."""
    m = np.eye(p)
    if coef1 != 0.0:
        m += coef1 * (np.eye(p, k=1) + np.eye(p, k=-1))
    if coef2 != 0.0:
        m += coef2 * (np.eye(p, k=2) + np.eye(p, k=-2))
    return scale * m


def _zeta_coefs(u1: float, u2: float) -> tuple[float, float, float]:
    """(first-band, second-band, scale) of the varying-sparsity structure."""
    c1 = 0.0
    if -0.5 <= u1 <= 1 and -0.5 <= u2 <= 1:
        c1 = 0.5 * _bump(u1, 0.25, 0.75)
    c2 = 0.0
    if 0.3 <= u1 <= 1 and 0.3 <= u2 <= 1:
        c2 = 0.4 * _bump(u1, 0.65, 0.35)
    return c1, c2, math.exp(2.0 * u1)


def true_cov(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    """Exact population covariance matrix of the generator at u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.d,):
        raise ValueError(f"u must have length d={spec.d}")
    p = spec.p
    if spec.model == 1:
        rho = _norm_pdf(u[0])
        bands = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        return math.exp(u[0]) * rho**bands
    if spec.model == 2:
        rho = _norm_pdf(u[0] / 2 + u[1] / 2)
        bands = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        return math.exp(u[0] + u[1]) * rho**bands
    if spec.model == 3:
        c1 = 0.5 * _bump(u[0], 0.25, 0.75) if -0.5 <= u[0] <= 1 else 0.0
        c2 = 0.4 * _bump(u[0], 0.65, 0.35) if 0.3 <= u[0] <= 1 else 0.0
        return _band_matrix(p, c1, c2, math.exp(2.0 * u[0]))
    # model 4: symmetrized pair of varying-sparsity structures
    c1a, c2a, sa = _zeta_coefs(u[0], u[1])
    c1b, c2b, sb = _zeta_coefs(u[1], u[0])
    return 0.5 * _band_matrix(p, c1a, c2a, sa) + 0.5 * _band_matrix(p, c1b, c2b, sb)


def sample_dataset(spec: ModelSpec, rng: np.random.Generator) -> Dataset:
    """n iid pairs: u uniform on [-1, 1]^d, y Gaussian with covariance at u."""
    u = rng.uniform(-1.0, 1.0, size=(spec.n, spec.d))
    y = np.empty((spec.n, spec.p))
    for i in range(spec.n):
        sigma = true_cov(spec, u[i])
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:  # generators are PD by construction
            raise AssertionError(f"generator not PD at u={u[i]}") from exc
        y[i] = chol @ rng.standard_normal(spec.p)
    return Dataset(y, u)


def test_points(d: int) -> np.ndarray:
    """The frozen benchmark query points for dimension d (constant across runs)."""
    rng = _streams.substream(_streams.TEST_POINT_ROOT, _streams.TEST_POINTS, d, N_TEST_POINTS)
    return rng.uniform(-1.0, 1.0, size=(N_TEST_POINTS, d))


def losses(est: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(Frobenius, spectral) distance between two symmetric matrices."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("dimension mismatch")
    diff = est - truth
    fro = float(np.linalg.norm(diff))
    spectral = float(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2.0)).max())
    return fro, spectral


def sparsity_rates(est: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(TPR, FPR) of the estimated support against the true support.

    Counts run over all (j, r) pairs including the diagonal; an empty
    reference set yields TPR = 1 (resp. FPR = 0).
    """
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError("dimension mismatch")
    est_nz = est != 0
    true_nz = truth != 0
    n_pos = int(true_nz.sum())
    n_neg = int((~true_nz).sum())
    tpr = float((est_nz & true_nz).sum() / n_pos) if n_pos else 1.0
    fpr = float((est_nz & ~true_nz).sum() / n_neg) if n_neg else 0.0
    return tpr, fpr


# --- baselines -------------------------------------------------------------


def _sample_cov(y: np.ndarray) -> np.ndarray:
    centered = y - y.mean(axis=0)
    return centered.T @ centered / y.shape[0]


def static_baseline(
    dataset: Dataset,
    rule: ThresholdRule,
    folds: int = 5,
    grid_size: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Sample covariance (denominator n) with cross-validated thresholding."""
    if dataset.n < 2:
        raise ValueError("static baseline needs n >= 2")
    return cv_threshold(
        _sample_cov(dataset.y),
        lambda idx: _sample_cov(dataset.y[idx]),
        _canonical_row_order(dataset),
        rule,
        folds,
        grid_size,
        seed,
    )


def _canonical_row_order(dataset: Dataset) -> np.ndarray:
    """Content-based row ordering (lexicographic on (y, u) rows)."""
    return np.lexsort(np.vstack([dataset.y.T, dataset.u.T]))


def _epanechnikov(x: np.ndarray) -> np.ndarray:
    return 0.75 * np.maximum(1.0 - x * x, 0.0)


def rule_of_thumb_bandwidth(uj: np.ndarray) -> float:
    sd = float(np.std(uj, ddof=1)) if len(uj) > 1 else 1.0
    return 1.06 * max(sd, 1e-12) * len(uj) ** (-0.2)


def _kernel_raw(y: np.ndarray, uj: np.ndarray, u_target: float, h: float, retries: int = 40) -> np.ndarray:
    for _ in range(retries):
        w = _epanechnikov((uj - u_target) / h)
        total = w.sum()
        if total > 0:
            w = w / total
            mean = y.T @ w
            second = y.T @ (y * w[:, None])
            return (second + second.T) / 2.0 - np.outer(mean, mean)
        h *= 2.0  # widen-bandwidth retry
    raise ValueError("all kernel weights zero even after widening the bandwidth")


def kernel_dcm_baseline(
    dataset: Dataset,
    covariate_index: int,
    u: np.ndarray,
    rule: ThresholdRule,
    folds: int = 5,
    grid_size: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Single-covariate kernel-weighted raw estimate with CV thresholding.

    ``covariate_index`` is 1-based.  Nadaraya-Watson weights built from an
    Epanechnikov kernel replace both the mean and second-moment weightings.
    """
    j = covariate_index - 1
    if not 0 <= j < dataset.d:
        raise ValueError(f"covariate index must be in 1..{dataset.d}")
    uj = dataset.u[:, j]
    target = float(np.asarray(u, dtype=float)[j])
    h = rule_of_thumb_bandwidth(uj)
    return cv_threshold(
        _kernel_raw(dataset.y, uj, target, h),
        lambda idx: _kernel_raw(dataset.y[idx], uj[idx], target, h),
        _canonical_row_order(dataset),
        rule,
        folds,
        grid_size,
        seed,
    )


# --- experiment runner -----------------------------------------------------

METHOD_NAMES = ("fdcm", "mfdcm", "static", "kernel", "mkernel", "identity")
SIMULATE_METHODS = ("fdcm", "mfdcm", "static", "kernel", "mkernel")


@dataclass(frozen=True)
class MethodSpec:
    """Estimator arm ``name[:J][:RULE]``: name, thresholding rule, kernel covariate.

    J, the 1-based covariate of a kernel arm, defaults to 1 and is refused on
    other arms; RULE defaults to soft; ``identity`` takes no parameter.
    """

    name: str
    rule: ThresholdRule = ThresholdRule("soft")
    kernel_covariate: int = 1

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; choose from {METHOD_NAMES}")
        if self.kernel_covariate < 1:
            raise ValueError("kernel covariate index is 1-based")
        if self.kernel_covariate != 1 and not self.kernel:
            raise ValueError(f"method {self.name!r} takes no covariate index")
        if self.name == "identity" and self.rule != ThresholdRule("soft"):
            raise ValueError("method 'identity' takes no parameter")

    @property
    def forest(self) -> bool:
        """Whether the arm is the forest estimator, trained with its fold forests."""
        return self.name in ("fdcm", "mfdcm")

    @property
    def kernel(self) -> bool:
        return self.name in ("kernel", "mkernel")

    def check_covariate(self, d: int) -> None:
        """Raise ValueError unless the kernel covariate is one of d covariates."""
        if self.kernel_covariate > d:
            raise ValueError(f"method {self}: covariate index must be in 1..{d}")

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse ``name[:J][:RULE]``; the inverse of ``str``."""
        name, *rest = text.strip().lower().split(":")
        if name == "identity" and rest:
            raise ValueError("method 'identity' takes no parameter")
        cov = int(rest.pop(0)) if rest and rest[0].isdigit() and cls(name).kernel else 1
        rule = ThresholdRule.parse(":".join(rest)) if rest else ThresholdRule("soft")
        return cls(name=name, rule=rule, kernel_covariate=cov)

    def __str__(self) -> str:
        if self.name == "identity":
            return self.name
        cov = f":{self.kernel_covariate}" if self.kernel else ""
        return f"{self.name}{cov}:{self.rule}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One replicated experiment; ``seed`` drives every random stream of the run
    (datasets, forests, CV folds), so ``forest.seed`` is not read."""

    model: ModelSpec
    methods: tuple[MethodSpec, ...]
    reps: int = 50
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)
    folds: int = 5
    grid_size: int = 20
    lambda_mode: str = "per-point"  # or "shared" (select once at the covariate centroid)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.lambda_mode not in ("per-point", "shared"):
            raise ValueError("lambda_mode must be 'per-point' or 'shared'")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if method.name not in SIMULATE_METHODS:
                raise ValueError(f"simulate supports only {SIMULATE_METHODS}, got {method.name!r}")
            method.check_covariate(self.model.d)


@dataclass
class MethodResult:
    """Per-replication metric values for one method."""

    method: MethodSpec
    mfl: np.ndarray
    msl: np.ndarray
    mtpr: np.ndarray | None
    mfpr: np.ndarray | None
    # Raw per-(rep, test point) losses, used by sanity checks.
    fro: np.ndarray
    spectral: np.ndarray


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    points: np.ndarray
    results: list[MethodResult]
    runtime_s: float

    def rows(self) -> list[tuple[str, str, float, float]]:
        """(method, metric, mean, sd) rows; sd is 0 for a single replication."""
        out = []
        for res in self.results:
            metrics = [("mfl", res.mfl), ("msl", res.msl)]
            if res.mtpr is not None:
                metrics += [("mtpr", res.mtpr), ("mfpr", res.mfpr)]
            for name, vals in metrics:
                sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                out.append((str(res.method), name, float(np.mean(vals)), sd))
        return out

    def to_csv_lines(self, header_lines=()) -> list[str]:
        lines = [f"# {h}" for h in header_lines]
        lines.append("method,metric,mean,sd")
        lines += [f"{m},{k},{repr(mean)},{repr(sd)}" for m, k, mean, sd in self.rows()]
        return lines

    def to_table(self) -> str:
        width = max(len(str(r.method)) for r in self.results) + 2
        lines = [f"{'method':<{width}}{'metric':<8}{'mean':>12}{'sd':>12}"]
        for m, k, mean, sd in self.rows():
            lines.append(f"{m:<{width}}{k:<8}{mean:>12.4f}{sd:>12.4f}")
        return "\n".join(lines)


def _forest_estimates(
    dataset: Dataset,
    config: ExperimentConfig,
    points: np.ndarray,
    rules: list[ThresholdRule],
) -> dict[ThresholdRule, list[np.ndarray]]:
    """Thresholded forest estimates at every query point, one list per rule."""
    forest = replace(config.forest, seed=config.seed)
    forests = train_cov_forests(dataset, forest)
    cv = ForestCV(dataset, forest, folds=config.folds, grid_size=config.grid_size)
    raws = [raw_cov(*forests, dataset, u) for u in points]
    out: dict[ThresholdRule, list[np.ndarray]] = {}
    for rule in rules:
        if config.lambda_mode == "shared":
            centroid = dataset.u.mean(axis=0)
            sel = cv.select(centroid, rule, raw_cov(*forests, dataset, centroid))
            out[rule] = [sel.apply(raw) for raw in raws]
        else:
            out[rule] = [cv.select(u, rule, raw).apply(raw) for u, raw in zip(points, raws)]
    return out


def _run_rep(config: ExperimentConfig, points: np.ndarray, rep: int):
    """One replication: fresh dataset, every method estimated at every point."""
    rng = _streams.substream(config.seed, _streams.REP, rep)
    dataset = sample_dataset(config.model, rng)
    truths = [true_cov(config.model, u) for u in points]

    forest_rules = sorted({m.rule for m in config.methods if m.forest}, key=str)
    forest_ests = (
        _forest_estimates(dataset, config, points, forest_rules) if forest_rules else {}
    )

    per_method = []
    for method in config.methods:
        if method.forest:
            mats = forest_ests[method.rule]
        elif method.name == "static":
            mat = static_baseline(
                dataset, method.rule, folds=config.folds, grid_size=config.grid_size, seed=config.seed
            )
            mats = [mat] * len(points)
        else:  # kernel / mkernel
            mats = [
                kernel_dcm_baseline(
                    dataset,
                    method.kernel_covariate,
                    u,
                    method.rule,
                    folds=config.folds,
                    grid_size=config.grid_size,
                    seed=config.seed,
                )
                for u in points
            ]
        if method.name in ("mfdcm", "mkernel"):
            mats = [pd_correct(m)[0] for m in mats]
        fro_sp = np.array([losses(m, t) for m, t in zip(mats, truths)])
        tpr_fpr = np.array([sparsity_rates(m, t) for m, t in zip(mats, truths)])
        per_method.append((fro_sp, tpr_fpr))
    return per_method


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the replicated benchmark; fully reproducible from the seed."""
    start = time.perf_counter()
    points = test_points(config.model.d)
    reps = [_run_rep(config, points, r) for r in range(config.reps)]

    sparsity_models = config.model.model in (3, 4)
    results = []
    for mi, method in enumerate(config.methods):
        fro = np.stack([reps[r][mi][0][:, 0] for r in range(config.reps)])
        spectral = np.stack([reps[r][mi][0][:, 1] for r in range(config.reps)])
        mfl = np.median(fro, axis=1)
        msl = np.median(spectral, axis=1)
        mtpr = mfpr = None
        if sparsity_models:
            tpr = np.stack([reps[r][mi][1][:, 0] for r in range(config.reps)])
            fpr = np.stack([reps[r][mi][1][:, 1] for r in range(config.reps)])
            mtpr = np.median(tpr, axis=1)
            mfpr = np.median(fpr, axis=1)
        results.append(
            MethodResult(method=method, mfl=mfl, msl=msl, mtpr=mtpr, mfpr=mfpr, fro=fro, spectral=spectral)
        )
    return ExperimentReport(
        config=config, points=points, results=results, runtime_s=time.perf_counter() - start
    )
