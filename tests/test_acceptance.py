"""End-to-end acceptance gate.

Eleven numbered criteria cover the shrinkage laws, forest-weight correctness,
the Gram-matrix split-score shortcut, the positive-definite contract, the
Monte Carlo benchmark bands, metric sanity, portfolio properties, CLI
determinism, and the forest's lead over the baselines when the covariance
moves with two covariates.  Each test prints one PASS/FAIL line (run with ``pytest -s``
to see them as they complete).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dyncov import _streams
from dyncov.cli import EXIT_OK, main
from dyncov.data import CsvLayout, write_returns_csv
from dyncov.forest import (
    ForestConfig,
    ResponseKind,
    _target_gram,
    train_forest,
    weight_vector,
)
from dyncov.portfolio import backtest, min_var_weights
from dyncov.simulation import (
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    _sample_cov,
    run_experiment,
    sample_dataset,
    true_cov,
)
from dyncov.thresholding import ThresholdRule, pd_correct, precision, shrink
from tests.conftest import (
    best_split_on_feature,
    delta_criterion,
    j2_indices,
    make_dataset,
    oracle_weights,
    to_dense,
    trees,
    weight_total,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num:2d} ({label}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE criterion {num:2d} ({label}): PASS", flush=True)


ALL_RULES = (
    ThresholdRule("hard"),
    ThresholdRule("soft"),
    ThresholdRule("scad"),
    ThresholdRule("alasso"),
)


# --- shared benchmark runs (criteria 5-8) -----------------------------------

BENCH_DIMS = dict(p=100, d=10, n=100)
BENCH_FOREST = ForestConfig(n_trees=200)


@pytest.fixture(scope="module")
def bench_dense():
    """Dense-structure benchmark: forest estimator vs static baseline."""
    cfg = ExperimentConfig(
        model=ModelSpec(model=1, **BENCH_DIMS),
        methods=(MethodSpec.parse("fdcm:soft"), MethodSpec.parse("static:soft")),
        reps=10,
        seed=0,
        forest=BENCH_FOREST,
        folds=5,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def bench_sparse():
    """Varying-sparsity benchmark for support-recovery rates."""
    cfg = ExperimentConfig(
        model=ModelSpec(model=3, **BENCH_DIMS),
        methods=(MethodSpec.parse("fdcm:soft"),),
        reps=10,
        seed=0,
        forest=BENCH_FOREST,
        folds=5,
    )
    return run_experiment(cfg)


# --- criterion 1: shrinkage-rule laws ---------------------------------------


def _law_violations(z: np.ndarray, lam: float, rule: ThresholdRule) -> int:
    s = shrink(z, lam, rule)
    az = np.abs(z)
    # The three laws hold exactly in real arithmetic; the float evaluation of
    # |z| - penalty can land one ulp past the bound, so allow that rounding.
    slack = 1e-12 * np.maximum(az, lam)
    bad = int(np.sum(np.abs(s) > az + slack))
    bad += int(np.sum(s[az <= lam] != 0.0))
    bad += int(np.sum(np.abs(s - z) > lam + slack))
    return bad


def test_criterion_01_shrinkage_laws():
    with criterion(1, "shrinkage-rule laws, 1e5 pairs per rule"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        violations = 0
        for rule in ALL_RULES:
            for _ in range(100):  # 100 lambdas x 1000 z values = 1e5 pairs
                lam = float(10.0 ** rng.uniform(-8, 8))
                z = 10.0 ** rng.uniform(-10, 10, size=1000) * rng.choice([-1.0, 1.0], 1000)
                violations += _law_violations(z, lam, rule)
            # Deterministic grid around the kink points of each rule.
            eps = np.finfo(float).eps
            for lam in (0.0, 1e-6, 1.0, 3.5, 1e6):
                base = np.array(
                    [0.0, lam, lam * (1 - eps), lam * (1 + eps), 2 * lam,
                     3.7 * lam, 3.7 * lam * (1 + eps), 10 * lam, 1e3 * lam + 1.0]
                )
                z = np.concatenate([base, -base])
                violations += _law_violations(z, lam, rule)
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert elapsed < 5.0, f"law suite took {elapsed:.2f}s"


# --- criterion 2: forest-weight oracle equivalence --------------------------


def test_criterion_02_weight_oracle():
    with criterion(2, "forest weights match brute-force routing, 200 configs"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        for case in range(200):
            n = int(rng.integers(5, 13))
            d = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            cfg = ForestConfig(
                n_trees=int(rng.integers(1, 4)),
                subsample_size=int(rng.integers(4, n + 1)),
                min_leaf=1,
                mtry=1,
            )
            kind = ResponseKind.MEAN if case % 2 else ResponseKind.SECOND_MOMENT
            ds = make_dataset(n=n, p=p, d=d, seed=1000 + case)
            forest = train_forest(ds, cfg, kind, case)
            j2_union = set()
            for tree in trees(forest):
                assert not set(tree.j1[0]) & set(j2_indices(tree))
                j2_union |= set(int(i) for i in j2_indices(tree))
            for u in (ds.u[0], rng.uniform(-1, 1, d)):
                wv = weight_vector(forest, u)
                np.testing.assert_array_equal(to_dense(wv), oracle_weights(forest, ds, u))
                assert abs(weight_total(wv) - 1.0) <= 1e-12
                assert set(int(i) for i in wv.indices) <= j2_union
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"weight oracle took {elapsed:.2f}s"


# --- criterion 3: Gram-path split scores vs materialized targets ------------


def _naive_node_scan(targets, v1, v2, min_child_j2):
    """Split scores from explicitly materialized target vectors."""
    m1, m2 = len(v1), len(v2)
    values = np.unique(np.concatenate([v1, v2]))
    thresholds = (values[:-1] + values[1:]) / 2.0
    out = []
    for thr in thresholds:
        nl = int((v1 <= thr).sum())
        n2l = int((v2 <= thr).sum())
        if nl < 1 or nl > m1 - 1 or n2l < min_child_j2 or m2 - n2l < min_child_j2:
            continue
        left = targets[v1 <= thr].sum(axis=0)
        right = targets[v1 > thr].sum(axis=0)
        out.append((delta_criterion(left, nl, right, m1 - nl, m1), float(thr)))
    return out


def test_criterion_03_gram_equivalence():
    with criterion(3, "Gram split scores equal materialized-target scores"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        for node in range(1000):
            p = 50 if node % 10 == 0 else int(rng.integers(1, 51))
            m1 = int(rng.integers(2, 16))
            m2 = int(rng.integers(2, 16))
            mcj = int(rng.integers(1, 3))
            y = rng.standard_normal((m1, p))
            v1 = rng.uniform(-1, 1, m1)
            v2 = rng.uniform(-1, 1, m2)
            if node % 3 == 0:  # force ties in the split variable
                v1, v2 = np.round(v1, 1), np.round(v2, 1)
            kind = ResponseKind.SECOND_MOMENT if node % 2 else ResponseKind.MEAN
            fast = best_split_on_feature(v1, v2, _target_gram(y, kind), mcj)
            if kind is ResponseKind.SECOND_MOMENT:
                targets = np.einsum("ij,ik->ijk", y, y).reshape(m1, p * p)
            else:
                targets = y
            naive = _naive_node_scan(targets, v1, v2, mcj)
            if not naive:
                assert fast is None
                continue
            assert fast is not None
            fast_delta, fast_thr = fast
            best_delta = max(d for d, _ in naive)
            tol = 1e-9 * max(abs(best_delta), abs(fast_delta), 1e-12)
            assert abs(fast_delta - best_delta) <= tol
            naive_at_thr = next(d for d, t in naive if t == fast_thr)
            assert abs(naive_at_thr - best_delta) <= tol
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"Gram equivalence took {elapsed:.2f}s"


# --- criterion 4: PD correction and precision residual ----------------------


def test_criterion_04_pd_contract():
    with criterion(4, "PD correction floor and inverse residual, 500 cases"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        for case in range(500):
            p = int(rng.integers(2, 41))
            if case % 2:
                a = rng.standard_normal((p, p))
                mat = (a + a.T) / 2.0
                # Raw covariance estimates always carry nonnegative diagonals
                # (weighted second moments minus squared means).
                np.fill_diagonal(mat, np.abs(np.diagonal(mat)) + 0.5)
            else:
                n = int(rng.integers(2, max(3, p)))  # n < p: rank-deficient
                mat = _sample_cov(rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2))
            # Force a non-positive smallest eigenvalue so the shift is exercised.
            mu_min = float(np.linalg.eigvalsh(mat)[0])
            scale = max(1.0, float(np.abs(mat).max()))
            mat = mat - (max(mu_min, 0.0) + 1e-12 * scale) * np.eye(p)
            corrected, info = pd_correct(mat)
            assert info.applied
            out_min = float(np.linalg.eigvalsh(corrected)[0])
            assert out_min >= info.c_n - 1e-10
            residual = np.abs(corrected @ precision(corrected) - np.eye(p)).max()
            assert residual < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"PD contract took {elapsed:.2f}s"


# --- criteria 5-7: benchmark bands ------------------------------------------


def test_criterion_05_dense_loss_bands(bench_dense):
    with criterion(5, "dense benchmark: mean MFL in [5.0, 7.8], MSL in [0.9, 2.2]"):
        forest_res = bench_dense.results[0]
        assert str(forest_res.method) == "fdcm:soft"
        mfl = float(np.mean(forest_res.mfl))
        msl = float(np.mean(forest_res.msl))
        assert 5.0 <= mfl <= 7.8, f"mean MFL {mfl:.3f} outside [5.0, 7.8]"
        assert 0.9 <= msl <= 2.2, f"mean MSL {msl:.3f} outside [0.9, 2.2]"


def test_criterion_06_beats_static(bench_dense):
    with criterion(6, "forest MFL below static MFL in >= 8/10 reps"):
        forest_res, static_res = bench_dense.results
        assert str(static_res.method) == "static:soft"
        wins = int(np.sum(forest_res.mfl < static_res.mfl))
        assert np.mean(forest_res.mfl) < np.mean(static_res.mfl)
        assert wins >= 8, f"forest beat static in only {wins}/10 reps"


def test_criterion_07_sparsity_bands(bench_sparse):
    with criterion(7, "sparsity benchmark: mean MTPR in [0.29, 0.53], MFPR < 0.02"):
        res = bench_sparse.results[0]
        mtpr = float(np.mean(res.mtpr))
        mfpr = float(np.mean(res.mfpr))
        assert 0.29 <= mtpr <= 0.53, f"mean MTPR {mtpr:.3f} outside [0.29, 0.53]"
        assert mfpr < 0.02, f"mean MFPR {mfpr:.4f} not below 0.02"


# --- criterion 8: metric sanity ---------------------------------------------


def test_criterion_08_metric_sanity(bench_dense, bench_sparse):
    with criterion(8, "spectral <= Frobenius everywhere; generators PD"):
        for report in (bench_dense, bench_sparse):
            for res in report.results:
                gap = res.spectral - res.fro
                assert np.all(gap <= 1e-12 * np.maximum(res.fro, 1.0)), (
                    f"spectral exceeded Frobenius for {res.method}"
                )
        rng = np.random.default_rng(808)
        for model in (1, 2, 3, 4):
            spec = ModelSpec(model=model, p=20, d=3, n=10)
            for u in rng.uniform(-1, 1, (1000, 3)):
                assert np.linalg.eigvalsh(true_cov(spec, u))[0] > 0, (
                    f"model {model} not PD at u={u}"
                )


# --- criterion 9: portfolio properties --------------------------------------


def _panel(T, p, d, seed):
    spec = ModelSpec(model=1, p=p, d=d, n=T)
    return sample_dataset(spec, _streams.substream(seed, _streams.PANEL))


def test_criterion_09_portfolio_properties():
    with criterion(9, "minimum-variance weights and rolling-backtest checks"):
        # Exactness on a diagonal case.
        np.testing.assert_array_equal(min_var_weights(np.diag([1.0, 4.0])), [0.8, 0.2])
        # Scale invariance.
        rng = np.random.default_rng(909)
        a = rng.standard_normal((8, 8))
        sigma = a @ a.T + np.eye(8)
        w = min_var_weights(sigma)
        for c in (1e-6, 0.2, 5.0, 1e6):
            np.testing.assert_allclose(min_var_weights(c * sigma), w, atol=1e-13)
        # No lookahead: weights for the first evaluation days are unchanged
        # when future panel rows are deleted.
        panel = _panel(T=300, p=5, d=2, seed=0)
        arm = MethodSpec.parse("static:soft")
        full = backtest(panel, arm, window=100)
        truncated = backtest(panel.subset(np.arange(250)), arm, window=100)
        np.testing.assert_array_equal(full.weights_log[:150], truncated.weights_log)
        # Directional: the conditional forest arm attains annualized volatility
        # at or below the static arm's on most seeded panels.
        wins = 0
        for seed in range(5):
            px = _panel(T=260, p=20, d=5, seed=seed)
            cfg = ForestConfig(n_trees=200)
            dynamic = backtest(
                px, MethodSpec.parse("mfdcm:soft"), window=200,
                forest_config=cfg, folds=5, stride=5, seed=seed,
            )
            static = backtest(px, MethodSpec.parse("static:soft"), window=200, folds=5, seed=seed)
            wins += dynamic.perf.std <= static.perf.std
        assert wins >= 4, f"forest arm had lower volatility in only {wins}/5 runs"


# --- criterion 10: CLI determinism ------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "simulate/backtest byte-identical across reruns and worker counts"):
        # simulate: rerun with the same seed and with 8 workers, same output path.
        out = tmp_path / "sim"
        sim_flags = [
            "simulate", "--model", "1", "--p", "4", "--d", "2", "--n", "30",
            "--reps", "2", "--methods", "fdcm:soft,static:soft", "--trees", "8",
            "--min-leaf", "3", "--folds", "3", "--seed", "2", "--out", str(out),
        ]
        artifacts = (out.with_suffix(".csv"), out.with_suffix(".txt"))

        def run_and_snapshot(flags):
            assert main(flags) == EXIT_OK
            return [path.read_bytes() for path in artifacts]

        first = run_and_snapshot(sim_flags + ["--workers", "1"])
        assert run_and_snapshot(sim_flags + ["--workers", "1"]) == first
        assert run_and_snapshot(sim_flags + ["--workers", "8"]) == first

        # backtest: same protocol on a forest arm.
        panel_csv = tmp_path / "panel.csv"
        panel = _panel(T=26, p=3, d=2, seed=5)
        layout = CsvLayout(
            response_cols=("y1", "y2", "y3"), covariate_cols=("u1", "u2")
        )
        write_returns_csv(panel_csv, panel, layout)
        bt_out = tmp_path / "bt"
        bt_flags = [
            "backtest", "--panel", str(panel_csv),
            "--response-cols", "y1,y2,y3", "--covariate-cols", "u1,u2",
            "--method", "mfdcm:soft", "--window", "12", "--trees", "8",
            "--min-leaf", "1", "--folds", "2", "--stride", "2",
            "--seed", "0", "--out", str(bt_out),
        ]
        artifacts = (
            bt_out.with_suffix(".returns.csv"),
            bt_out.with_suffix(".weights.csv"),
            bt_out.with_suffix(".summary.txt"),
        )
        first = run_and_snapshot(bt_flags + ["--workers", "1"])
        assert run_and_snapshot(bt_flags + ["--workers", "1"]) == first
        assert run_and_snapshot(bt_flags + ["--workers", "8"]) == first


# --- criterion 11: the multi-covariate claim ----------------------------------


def test_criterion_11_multi_covariate():
    with criterion(11, "model 4: forest MFL below kernel:1, kernel:2 and static in every rep"):
        # Model 4's covariance moves with u1 and u2, so a kernel baseline that
        # smooths along one covariate misses part of it, and static misses
        # all of it.  Seed 1 was fixed before the run was looked at.  There
        # the smallest margin over the 4 reps is 1.55 MFL (kernel:2, rep 3),
        # against mean MFLs of 7.98 (forest), 11.02 (kernel:1), 10.82
        # (kernel:2) and 10.59 (static); at seeds 0-3 it is 0.97.
        arms = ("fdcm:soft", "kernel:1:soft", "kernel:2:soft", "static:soft")
        cfg = ExperimentConfig(
            model=ModelSpec(model=4, **BENCH_DIMS),
            methods=tuple(MethodSpec.parse(a) for a in arms),
            reps=4,
            seed=1,
            forest=BENCH_FOREST,
            folds=5,
        )
        forest_res, *others = run_experiment(cfg).results
        for res in others:
            margin = res.mfl - forest_res.mfl
            assert np.all(margin > 0), (
                f"forest MFL not below {res.method} in every rep: margins {margin.round(3).tolist()}"
            )
