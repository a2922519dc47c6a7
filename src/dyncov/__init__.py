"""Covariate-conditional (dynamic) covariance estimation with honest forests.

Pipeline: honest subsampled forests produce similarity weights, the paired
mean/second-moment weightings form a raw covariance estimate, generalized
thresholding sparsifies it, and a diagonal shift guarantees positive
definiteness.  A Monte Carlo benchmark harness and a rolling minimum-variance
backtester exercise the estimator end to end.
"""

from .covariance import raw_cov, train_cov_forests
from .data import CsvLayout, Dataset, load_returns_csv
from .forest import Forest, ForestConfig, ResponseKind, train_forest, weight_vector
from .portfolio import BacktestSpec, backtest, min_var_weights, performance
from .simulation import (
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    kernel_dcm_baseline,
    run_experiment,
    sample_dataset,
    static_baseline,
    true_cov,
)
from .thresholding import ForestCV, LambdaSelection, PDCorrection, ThresholdRule, pd_correct, precision, shrink

__version__ = "0.1.0"
