import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyncov import forest, simulation, thresholding
from dyncov.data import Dataset
from dyncov.forest import ForestConfig
from dyncov.simulation import (
    METHOD_NAMES,
    ExperimentConfig,
    MethodSpec,
    ModelSpec,
    _epanechnikov,
    _kernel_raw,
    _sample_cov,
    kernel_dcm_baseline,
    losses,
    rule_of_thumb_bandwidth,
    run_experiment,
    sample_dataset,
    sparsity_rates,
    static_baseline,
    true_cov,
)
from dyncov.simulation import test_points as fixed_test_points
from dyncov.thresholding import ThresholdRule
from tests.conftest import reference_run_rep

FIXTURES = Path(__file__).parent / "fixtures"


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(model=5, p=3, d=2, n=10)
        with pytest.raises(ValueError):
            ModelSpec(model=2, p=3, d=1, n=10)
        with pytest.raises(ValueError):
            ModelSpec(model=3, p=2, d=2, n=10)
        ModelSpec(model=4, p=3, d=2, n=10)


class TestTrueCov:
    def test_model1_at_zero(self):
        spec = ModelSpec(model=1, p=3, d=1, n=10)
        m = true_cov(spec, np.zeros(1))
        phi0 = 1.0 / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(np.diagonal(m), 1.0)
        np.testing.assert_allclose(m[0, 1], phi0)
        np.testing.assert_allclose(m[0, 2], phi0**2)

    def test_model2_reduces_to_model1_shape(self):
        p = 4
        m2 = true_cov(ModelSpec(model=2, p=p, d=2, n=10), np.array([0.3, 0.3]))
        m1 = true_cov(ModelSpec(model=1, p=p, d=1, n=10), np.array([0.3]))
        # exp(u1+u2) = exp(0.6) vs exp(0.3): same correlation profile, scaled.
        np.testing.assert_allclose(m2 / m2[0, 0], m1 / m1[0, 0])

    def test_model3_outside_support_is_diagonal(self):
        spec = ModelSpec(model=3, p=5, d=2, n=10)
        m = true_cov(spec, np.array([-0.9, 0.4]))
        np.testing.assert_allclose(m, math.exp(-1.8) * np.eye(5))

    def test_model3_band_structure(self):
        spec = ModelSpec(model=3, p=6, d=1, n=10)
        m = true_cov(spec, np.array([0.5]))
        assert m[0, 1] != 0.0
        assert m[0, 2] != 0.0
        assert m[0, 3] == 0.0

    def test_model4_symmetrization_collapse(self):
        spec = ModelSpec(model=4, p=5, d=2, n=10)
        u = np.array([0.4, 0.4])
        m = true_cov(spec, u)
        # With u1 = u2 both halves coincide.
        swapped = true_cov(spec, u[::-1])
        np.testing.assert_array_equal(m, swapped)

    def test_model4_swap_invariance(self):
        spec = ModelSpec(model=4, p=5, d=2, n=10)
        u = np.array([0.2, 0.7])
        np.testing.assert_allclose(true_cov(spec, u), true_cov(spec, u[::-1]))

    def test_pd_on_random_points(self):
        rng = np.random.default_rng(0)
        for model, d in ((1, 2), (2, 2), (3, 2), (4, 2)):
            spec = ModelSpec(model=model, p=8, d=d, n=10)
            for _ in range(50):
                m = true_cov(spec, rng.uniform(-1, 1, d))
                assert np.linalg.eigvalsh(m)[0] > 0


class TestSampleDataset:
    def test_reproducible(self):
        spec = ModelSpec(model=1, p=3, d=2, n=15)
        a = sample_dataset(spec, np.random.default_rng(5))
        b = sample_dataset(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.u, b.u)

    def test_support(self):
        spec = ModelSpec(model=2, p=2, d=3, n=50)
        ds = sample_dataset(spec, np.random.default_rng(1))
        assert np.all(ds.u >= -1) and np.all(ds.u <= 1)
        assert (ds.n, ds.p, ds.d) == (50, 2, 3)

    def test_monte_carlo_convergence(self):
        # 1e5 conditional draws at a fixed u reproduce true_cov entrywise
        # within 2% of the dominant entry.
        spec = ModelSpec(model=1, p=3, d=1, n=10)
        u = np.array([0.2])
        sigma = true_cov(spec, u)
        chol = np.linalg.cholesky(sigma)
        z = np.random.default_rng(42).standard_normal((100_000, 3))
        y = z @ chol.T
        emp = _sample_cov(y)
        assert np.abs(emp - sigma).max() < 0.02 * np.abs(sigma).max()


class TestTestPoints:
    def test_frozen_and_in_support(self):
        pts = fixed_test_points(4)
        again = fixed_test_points(4)
        np.testing.assert_array_equal(pts, again)
        assert pts.shape == (30, 4)
        assert np.all((pts >= -1) & (pts <= 1))

    def test_matches_checked_in_fixture(self):
        fixture = np.loadtxt(FIXTURES / "test_points_d10.csv", delimiter=",")
        np.testing.assert_array_equal(fixed_test_points(10), fixture)


class TestLosses:
    def test_zero(self):
        m = np.eye(3)
        assert losses(m, m) == (0.0, 0.0)

    def test_rank_one_diagonal(self):
        fro, sp = losses(np.diag([3.0, 0.0]), np.zeros((2, 2)))
        assert fro == pytest.approx(3.0)
        assert sp == pytest.approx(3.0)

    def test_identity_difference(self):
        fro, sp = losses(np.eye(4), np.zeros((4, 4)))
        assert fro == pytest.approx(2.0)
        assert sp == pytest.approx(1.0)

    def test_spectral_below_frobenius(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            fro, sp = losses((a + a.T) / 2, np.zeros((5, 5)))
            assert sp <= fro + 1e-12


class TestSparsityRates:
    def test_perfect_recovery(self):
        truth = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert sparsity_rates(truth, truth) == (1.0, 0.0)

    def test_diagonal_truth_diagonal_estimate(self):
        assert sparsity_rates(np.eye(3), np.diag([1.0, 2.0, 3.0])) == (1.0, 0.0)

    def test_hand_count_3x3(self):
        # Truth: diagonal plus both first-off-diagonal bands nonzero (4
        # off-diagonal entries). Estimate misses one symmetric pair.
        truth = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        est = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        tpr, fpr = sparsity_rates(est, truth)
        assert tpr == pytest.approx((3 + 2) / (3 + 4))
        assert fpr == 0.0

    def test_false_positive(self):
        truth = np.eye(2)
        est = np.array([[1.0, 0.1], [0.1, 1.0]])
        tpr, fpr = sparsity_rates(est, truth)
        assert tpr == 1.0
        assert fpr == pytest.approx(1.0)  # both zero entries claimed nonzero

    def test_empty_reference_conventions(self):
        zero = np.zeros((2, 2))
        dense = np.ones((2, 2))
        assert sparsity_rates(zero, zero) == (1.0, 0.0)
        assert sparsity_rates(dense, dense) == (1.0, 0.0)


class TestStaticBaseline:
    def test_sample_cov_matches_textbook(self):
        y = np.random.default_rng(0).standard_normal((40, 4))
        np.testing.assert_allclose(_sample_cov(y), np.cov(y.T, ddof=0), atol=1e-12)

    def test_two_samples_p1(self):
        ds = Dataset(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
        out = static_baseline(ds, ThresholdRule("soft"))
        np.testing.assert_allclose(out, [[1.0]])

    def test_ignores_covariates(self):
        gen = np.random.default_rng(2)
        y = gen.standard_normal((30, 3))
        a = static_baseline(Dataset(y, gen.uniform(-1, 1, (30, 2))), ThresholdRule("soft"))
        # Different covariates enter the canonical row ordering, so only the
        # estimate itself (not bitwise fold sums) is required to match.
        b = static_baseline(Dataset(y, np.tile(np.linspace(0, 1, 30)[:, None], (1, 2))),
                            ThresholdRule("soft"))
        np.testing.assert_allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("rule", ["soft", "hard", "scad", "alasso"])
@pytest.mark.parametrize("arm", ["static", "kernel:1", "kernel:2"])
def test_baseline_ignores_row_order(arm, rule):
    # Both baselines draw their folds over a content-based row order.  The
    # kernel sums its weighted moments in dataset order, so the match is to
    # rounding, not bitwise.
    spec = ModelSpec(model=1, p=4, d=2, n=40)
    ds = sample_dataset(spec, np.random.default_rng(9))
    perm = np.random.default_rng(1).permutation(ds.n)
    shuffled = Dataset(ds.y[perm], ds.u[perm])
    method = MethodSpec.parse(f"{arm}:{rule}")

    def estimate(data):
        if method.kernel:
            return kernel_dcm_baseline(data, method.kernel_covariate, np.array([0.3, -0.2]), method.rule)
        return static_baseline(data, method.rule)

    np.testing.assert_allclose(estimate(ds), estimate(shuffled), rtol=1e-9, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(10, 59), p=st.integers(2, 7), d=st.integers(1, 3),
       rule=st.sampled_from(["hard", "soft", "scad", "alasso"]), seed=st.integers(0, 2**32 - 1))
def test_baselines_ignore_row_order_property(n, p, d, rule, seed):
    # The folds are drawn over a content-based row order, so each fold holds
    # the same rows under any reordering; but within a fold the rows come in
    # dataset order, which sets the order of the sums, so the estimates agree
    # to rounding, not bit for bit.  Rounding can flip a near-tie, so a draw
    # is assumed away where the two best CV scores lie within 1e-9 relative,
    # or a fold estimate's off-diagonal entry lies within 1e-9 relative of a
    # grid lambda, where the hard rule jumps (a kernel fold estimate can
    # equal the full one, whose largest entry is the grid's top).
    gen = np.random.default_rng(seed)
    ds = Dataset(gen.standard_normal((n, p)) * gen.uniform(0.5, 2.0, p), gen.uniform(-1, 1, (n, d)))
    perm = gen.permutation(n)
    shuffled = Dataset(ds.y[perm], ds.u[perm])
    u, j = gen.uniform(-1, 1, d), int(gen.integers(1, d + 1))
    rule = ThresholdRule(rule)
    near, select = [], thresholding._cv_select

    def recording(raw_at, folds, grid, *rest):
        def checked(s):
            raw = raw_at(s)
            off = np.abs(raw[~np.eye(p, dtype=bool)])
            near.append(np.isclose(off[:, None], grid[1:], rtol=1e-9, atol=0).any())
            return raw

        sel = select(checked, folds, grid, *rest)
        best, second = np.sort(sel.cv_scores)[:2]
        near.append(second - best <= 1e-9 * best)
        return sel

    with mock.patch.object(thresholding, "_cv_select", recording):
        for estimate in (lambda data: static_baseline(data, rule, folds=3),
                         lambda data: kernel_dcm_baseline(data, j, u, rule, folds=3)):
            a, b = estimate(ds), estimate(shuffled)
            assume(not any(near))
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


class TestKernelBaseline:
    def test_constant_kernel_matches_static_moments(self):
        gen = np.random.default_rng(3)
        y = gen.standard_normal((25, 3))
        uj = np.full(25, 0.4)
        raw = _kernel_raw(y, uj, 0.4, h=1.0)
        np.testing.assert_allclose(raw, _sample_cov(y), atol=1e-12)

    def test_huge_bandwidth_limit(self):
        gen = np.random.default_rng(4)
        y = gen.standard_normal((30, 3))
        uj = gen.uniform(-1, 1, 30)
        raw = _kernel_raw(y, uj, 0.0, h=1e6)
        np.testing.assert_allclose(raw, _sample_cov(y), atol=1e-9)

    def test_compact_support(self):
        # Points beyond one bandwidth get exactly zero kernel weight.
        gen = np.random.default_rng(5)
        y_near = gen.standard_normal((10, 2))
        y_far = gen.standard_normal((5, 2)) * 100.0
        y = np.vstack([y_near, y_far])
        uj = np.concatenate([np.full(10, 0.0), np.full(5, 5.0)])
        raw = _kernel_raw(y, uj, 0.0, h=1.0)
        np.testing.assert_allclose(raw, _sample_cov(y_near), atol=1e-12)
        assert _epanechnikov(np.array([1.5]))[0] == 0.0

    def test_widen_bandwidth_retry(self, monkeypatch):
        gen = np.random.default_rng(6)
        y = gen.standard_normal((10, 2))
        uj = np.zeros(10)
        # Target far outside support with a tiny h: the doubling retry must
        # eventually cover the data.
        raw = _kernel_raw(y, uj, 10.0, h=1e-3)
        assert raw.shape == (2, 2)
        # One try, at a bandwidth that covers no row, leaves every weight zero.
        monkeypatch.setattr(simulation, "KERNEL_RETRIES", 1)
        with pytest.raises(ValueError, match="all kernel weights zero"):
            _kernel_raw(y, uj, 10.0, h=1e-3)

    def test_full_baseline_runs(self):
        spec = ModelSpec(model=1, p=3, d=2, n=40)
        ds = sample_dataset(spec, np.random.default_rng(7))
        out = kernel_dcm_baseline(ds, 1, np.array([0.1, 0.2]), ThresholdRule("soft"))
        np.testing.assert_array_equal(out, out.T)
        with pytest.raises(ValueError):
            kernel_dcm_baseline(ds, 3, np.array([0.1, 0.2]), ThresholdRule("soft"))

    @pytest.mark.parametrize("u, message", [
        ([np.nan, 0.0], "coordinate 0 is not finite"),
        ([0.1, -np.inf], "coordinate 1 is not finite"),
        ([0.1], r"must have length d=2, got shape \(1,\)"),
    ], ids=["nan-in-kernel-covariate", "inf-in-other-covariate", "short"])
    def test_bad_query_point_refused_at_once(self, monkeypatch, u, message):
        def started(*args, **kwargs):
            raise AssertionError("work started")

        spec = ModelSpec(model=1, p=3, d=2, n=40)
        ds = sample_dataset(spec, np.random.default_rng(7))
        monkeypatch.setattr(simulation, "_kernel_raw", started)
        with pytest.raises(ValueError, match=message):
            kernel_dcm_baseline(ds, 1, np.array(u), ThresholdRule("soft"))

    def test_rule_of_thumb_shape(self):
        uj = np.random.default_rng(8).uniform(-1, 1, 100)
        h = rule_of_thumb_bandwidth(uj)
        assert h == pytest.approx(1.06 * np.std(uj, ddof=1) * 100 ** (-0.2))


RULE_TEXTS = ("hard", "soft", "scad", "scad:4.5", "alasso", "alasso:0.5")


class TestMethodSpec:
    def test_parse_round_trip(self):
        for name in METHOD_NAMES:
            if name == "identity":
                texts = ["identity", "IDENTITY"]
            elif name in ("kernel", "mkernel"):
                texts = [f"{name}:{j}:{r}" for j in (1, 2) for r in RULE_TEXTS]
                texts += [f"{name}:{j}" for j in (1, 2)]
            else:
                texts = [f"{name}:{r}" for r in RULE_TEXTS] + [name.upper()]
            for text in texts:
                spec = MethodSpec.parse(text)
                assert spec.name == name
                assert MethodSpec.parse(str(spec)) == spec
        assert str(MethodSpec.parse("kernel:2:scad")) == "kernel:2:scad:3.7"
        assert str(MethodSpec.parse("static:alasso:0.5")) == "static:alasso:0.5"

    def test_kernel_default_covariate(self):
        assert MethodSpec.parse("kernel:soft").kernel_covariate == 1
        assert MethodSpec.parse("mkernel") == MethodSpec.parse("mkernel:1:soft")

    def test_default_rule(self):
        for name in ("fdcm", "mfdcm", "static", "kernel", "mkernel"):
            assert MethodSpec.parse(name) == MethodSpec.parse(f"{name}:soft")
            assert MethodSpec.parse(name).rule == ThresholdRule("soft")
        assert str(MethodSpec.parse("fdcm")) == "fdcm:soft"
        assert MethodSpec("identity") == MethodSpec.parse("identity")

    def test_invalid(self):
        for text in ("bogus:soft", "identity:soft", "identity:2", "kernel:0:soft",
                     "mkernel:0", "fdcm:2:soft", "static:1", "fdcm:", "fdcm:bogus",
                     "kernel:2:hard:3"):
            with pytest.raises(ValueError):
                MethodSpec.parse(text)
        with pytest.raises(ValueError):
            MethodSpec("identity", ThresholdRule("hard"))

    @pytest.mark.parametrize("text", ["mkernel:2:alasso:2:5", "fdcm:scad:3.7:banana", "static:hard:1"])
    def test_rule_with_more_parts_than_it_takes(self, text):
        with pytest.raises(ValueError, match="has too many parts"):
            MethodSpec.parse(text)

    def test_forest_and_kernel_arms(self):
        assert [n for n in METHOD_NAMES if MethodSpec(n).forest] == ["fdcm", "mfdcm"]
        assert [n for n in METHOD_NAMES if MethodSpec(n).kernel] == ["kernel", "mkernel"]


class TestRunExperiment:
    def _config(self, model=1, methods=("static:soft",), reps=1, **kw):
        spec = ModelSpec(model=model, p=4, d=2, n=30)
        forest = ForestConfig(n_trees=20, min_leaf=2)
        return ExperimentConfig(
            model=spec,
            methods=tuple(MethodSpec.parse(m) for m in methods),
            reps=reps,
            seed=3,
            forest=forest,
            folds=3,
            **kw,
        )

    def test_single_rep_sd_zero(self):
        report = run_experiment(self._config())
        rows = report.rows()
        assert all(sd == 0.0 for _, _, _, sd in rows)
        assert {m for m, _, _, _ in rows} == {"static:soft"}

    def test_determinism(self):
        cfg = self._config(methods=("fdcm:soft", "static:soft"), reps=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_csv_lines() == b.to_csv_lines()

    def test_sparsity_metrics_only_for_banded_models(self):
        plain = run_experiment(self._config(model=1))
        banded = run_experiment(self._config(model=3))
        assert plain.results[0].mtpr is None
        assert banded.results[0].mtpr is not None
        assert np.all((banded.results[0].mtpr >= 0) & (banded.results[0].mtpr <= 1))

    def test_spectral_never_exceeds_frobenius(self):
        cfg = self._config(methods=("fdcm:soft", "mfdcm:soft", "static:soft"), reps=2)
        report = run_experiment(cfg)
        for res in report.results:
            assert np.all(res.spectral <= res.fro + 1e-12)

    def test_report_formats(self):
        report = run_experiment(self._config(model=3, methods=("mfdcm:soft",)))
        lines = report.to_csv_lines(["seed=3"])
        assert lines[0] == "# seed=3"
        assert lines[1] == "method,metric,mean,sd"
        assert len(lines) == 2 + 4  # mfl, msl, mtpr, mfpr
        table = report.to_table()
        assert "mfdcm:soft" in table and "mtpr" in table

    def test_shared_lambda_mode(self):
        report = run_experiment(self._config(methods=("fdcm:soft",), lambda_mode="shared"))
        assert len(report.results) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._config(reps=0)
        with pytest.raises(ValueError):
            self._config(lambda_mode="global")
        with pytest.raises(ValueError):
            self._config(methods=())
        with pytest.raises(ValueError, match="simulate supports only"):
            self._config(methods=("identity",))
        with pytest.raises(ValueError, match=r"covariate index must be in 1\.\.2"):
            self._config(methods=("static:soft", "mkernel:3:soft"))
        with pytest.raises(ValueError, match="methods name arm 'static:scad:3.7' more than once"):
            self._config(methods=("static:scad", "fdcm:soft", "static:scad:3.7"))
        with pytest.raises(ValueError, match="methods name arm 'kernel:2:soft' more than once"):
            self._config(methods=("kernel:2", "kernel:1", "kernel:2:soft"))
        self._config(methods=("kernel:2:soft",))
        self._config(methods=("fdcm:soft", "mfdcm:soft", "fdcm:hard", "kernel:1", "kernel:2"))

    @pytest.mark.parametrize("methods, forest_cfg, folds, message", [
        (("fdcm:soft", "static:soft", "kernel:1:soft"), ForestConfig(n_trees=5, min_leaf=2), 5,
         "n=8 too small for 5-fold CV"),
        (("static:soft",), ForestConfig(), 5, "n=8 too small for 5-fold CV"),
        (("kernel:2:hard",), ForestConfig(), 5, "n=8 too small for 5-fold CV"),
        (("fdcm:soft",), ForestConfig(n_trees=5, min_leaf=9, subsample_size=8), 2,
         "min_leaf=9 exceeds the J2 half-sample size"),
    ], ids=["forest-and-baselines", "static", "kernel", "infeasible-forest"])
    def test_refused_before_any_work(self, monkeypatch, methods, forest_cfg, folds, message):
        def started(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((forest, "grow_tree"), (simulation, "sample_dataset"),
                             (simulation, "static_baseline"), (simulation, "kernel_dcm_baseline")):
            monkeypatch.setattr(module, name, started)
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig(
                model=ModelSpec(model=1, p=3, d=2, n=8),
                methods=tuple(MethodSpec.parse(m) for m in methods),
                reps=1,
                forest=forest_cfg,
                folds=folds,
            ))

    @pytest.mark.parametrize("lambda_mode", ["per-point", "shared"])
    @pytest.mark.parametrize("model", [1, 2, 3, 4])
    def test_matches_the_all_points_reference_runner(self, monkeypatch, model, lambda_mode):
        methods = ("fdcm:soft", "mfdcm:hard", "static:scad", "kernel:2:soft", "mkernel:1:alasso")
        cfg = self._config(model=model, methods=methods, reps=2, lambda_mode=lambda_mode)
        streamed = run_experiment(cfg).to_csv_lines()
        monkeypatch.setattr(simulation, "_run_rep", reference_run_rep)
        assert streamed == run_experiment(cfg).to_csv_lines()

    def test_peak_memory_is_a_few_matrices(self):
        # Scoring one test point at a time peaks at about 20 p x p matrices
        # here, about 5 of them fold forests and datasets that do not grow
        # with p; holding every arm's estimate at all 30 points before
        # scoring them peaked at about 104.
        p = 200
        cfg = ExperimentConfig(
            model=ModelSpec(model=1, p=p, d=2, n=40),
            methods=tuple(MethodSpec.parse(m) for m in ("fdcm:soft", "mfdcm:soft", "static:soft",
                                                        "kernel:1:soft")),
            reps=1,
            forest=ForestConfig(n_trees=5),
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * p * p * 8

    def test_forest_config_checked_only_for_a_forest_arm(self):
        infeasible = ForestConfig(n_trees=5, min_leaf=9)
        with pytest.raises(ValueError, match="min_leaf=9 exceeds"):
            replace(self._config(methods=("mfdcm:soft",)), forest=infeasible)
        replace(self._config(), forest=infeasible)

    def test_run_seed_drives_the_forests(self, monkeypatch):
        seeds = []

        def recording(fn):
            def call(dataset, config, seed, *args, **kwargs):
                seeds.append((fn.__name__, seed))
                return fn(dataset, config, seed, *args, **kwargs)
            return call

        for name in ("train_cov_forests", "ForestCV"):
            monkeypatch.setattr(simulation, name, recording(getattr(simulation, name)))
        run_experiment(self._config(methods=("fdcm:soft",), reps=2))
        assert seeds == [("train_cov_forests", 3), ("ForestCV", 3)] * 2
