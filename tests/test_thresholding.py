import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncov import thresholding
from dyncov.covariance import raw_cov, train_cov_forests
from dyncov.data import Dataset
from dyncov.forest import ForestConfig
from dyncov.simulation import ModelSpec, sample_dataset
from dyncov.thresholding import (
    ForestCV,
    LambdaSelection,
    ThresholdRule,
    check_cv_folds,
    cv_threshold,
    default_cn,
    lambda_grid,
    pd_correct,
    precision,
    shrink,
)
from tests.conftest import (
    reference_cv_select,
    reference_cv_threshold,
    reference_forest_cv_pairs,
    same_forest,
)

RULES = [
    ThresholdRule("hard"),
    ThresholdRule("soft"),
    ThresholdRule("scad"),
    ThresholdRule("alasso"),
]


class TestRuleParsing:
    def test_round_trip(self):
        for text in ("hard", "soft", "scad:3.7", "alasso:3", "scad:2.5", "alasso:1.5"):
            rule = ThresholdRule.parse(text)
            assert ThresholdRule.parse(str(rule)) == rule

    def test_defaults(self):
        assert ThresholdRule.parse("scad").a == 3.7
        assert ThresholdRule.parse("alasso").eta == 3.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ThresholdRule.parse("ridge")
        with pytest.raises(ValueError):
            ThresholdRule("scad", a=2.0)
        with pytest.raises(ValueError):
            ThresholdRule("alasso", eta=0.0)
        with pytest.raises(ValueError):
            ThresholdRule.parse("soft:1")

    @pytest.mark.parametrize("text, form", [
        ("hard:1", "write hard"), ("soft:1:2", "write soft"),
        ("scad:3.7:banana", "write scad[:a]"), ("alasso:2:x", "write alasso[:eta]"),
    ])
    def test_more_parts_than_the_rule_takes(self, text, form):
        message = f"thresholding rule '{text}' has too many parts; {form}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ThresholdRule.parse(text)

    @pytest.mark.parametrize("text", ["scad:inf", "scad:nan", "alasso:inf", "alasso:nan"])
    def test_non_finite_parameter_rejected(self, text):
        with pytest.raises(ValueError, match="requires a finite"):
            ThresholdRule.parse(text)


class TestShrinkExamples:
    def test_soft_below_lambda(self):
        assert shrink(0.3, 0.5, ThresholdRule("soft")) == 0.0

    def test_soft_above_lambda(self):
        assert shrink(2.0, 0.5, ThresholdRule("soft")) == 1.5

    def test_hard_keeps_value(self):
        assert shrink(2.0, 0.5, ThresholdRule("hard")) == 2.0

    def test_scad_soft_region(self):
        # |z| = 0.8 <= 2 lambda = 1.0, so the soft rule applies: 0.8 - 0.5.
        assert shrink(0.8, 0.5, ThresholdRule("scad")) == pytest.approx(0.3)

    def test_scad_identity_region(self):
        # |z| = 2.0 > a * lambda = 1.85.
        assert shrink(2.0, 0.5, ThresholdRule("scad")) == 2.0

    def test_scad_middle_region(self):
        a, lam, z = 3.7, 0.5, 1.5
        expected = ((a - 1) * z - a * lam) / (a - 2)
        assert shrink(z, lam, ThresholdRule("scad")) == pytest.approx(expected)

    def test_alasso_heavier_shrink_for_small_z(self):
        rule = ThresholdRule("alasso")
        lam = 0.5
        big, small = 3.0, 0.7
        assert big - shrink(big, lam, rule) < small - shrink(small, lam, rule)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1, ThresholdRule("soft"))

    def test_vectorized(self):
        z = np.array([-2.0, -0.2, 0.0, 0.2, 2.0])
        out = shrink(z, 0.5, ThresholdRule("soft"))
        np.testing.assert_allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])


def _check_laws(z, lam, rule):
    # The three laws hold exactly in real arithmetic; the ulp-scale slack
    # (relative to the larger of |z| and lam) only absorbs final rounding
    # of the float subtractions inside shrink.
    s = np.asarray(shrink(z, lam, rule))
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    ulps = 1e-12 * np.maximum(az, lam)
    assert np.all(np.abs(s) <= az + ulps), f"{rule}: |s(z)| > |z|"
    assert np.all(s[az <= lam] == 0.0), f"{rule}: s(z) != 0 inside [-lam, lam]"
    assert np.all(np.abs(s - z) <= lam + ulps), f"{rule}: |s(z) - z| > lam"


class TestShrinkLaws:
    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_deterministic_grid(self, rule):
        lams = [0.0, 0.25, 0.5, 1.0, 2.0]
        for lam in lams:
            pts = np.concatenate(
                [np.linspace(-5, 5, 201), [-2 * lam, -lam, lam, 2 * lam, 3.7 * lam]]
            )
            _check_laws(pts, lam, rule)

    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_random_fuzz(self, rule):
        gen = np.random.default_rng(99)
        for _ in range(50):
            lam = float(gen.uniform(0, 3))
            z = gen.uniform(-10, 10, size=200)
            _check_laws(z, lam, rule)

    @pytest.mark.parametrize("rule", RULES, ids=str)
    @given(z=st.floats(-1e8, 1e8), lam=st.floats(0, 1e8))
    def test_laws_property(self, rule, z, lam):
        _check_laws(np.array([z]), lam, rule)

    @pytest.mark.parametrize("rule", RULES, ids=str)
    @given(z=st.floats(-1e8, 1e8), lam=st.floats(0, 1e8))
    def test_odd_in_z(self, rule, z, lam):
        assert shrink(-z, lam, rule) == -shrink(z, lam, rule)


def _apply(matrix, lam, rule):
    """Threshold at lam through the public path: a selection's apply()."""
    sel = LambdaSelection(lam=lam, grid=np.array([0.0, lam]), cv_scores=np.zeros(2), rule=rule)
    return sel.apply(matrix)


class TestApplyThreshold:
    def test_lambda_zero_is_identity(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        for rule in RULES:
            np.testing.assert_array_equal(_apply(m, 0.0, rule), m)

    def test_huge_lambda_hard_gives_diagonal(self):
        m = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
        out = _apply(m, 10.0, ThresholdRule("hard"))
        np.testing.assert_array_equal(out, np.diag(np.diagonal(m)))

    def test_small_diagonal_survives(self):
        m = np.array([[0.01, 0.3], [0.3, 0.01]])
        out = _apply(m, 0.5, ThresholdRule("soft"))
        assert out[0, 0] == 0.01
        assert out[1, 1] == 0.01
        assert out[0, 1] == 0.0

    def test_symmetry_preserved(self):
        gen = np.random.default_rng(5)
        a = gen.standard_normal((6, 6))
        m = (a + a.T) / 2
        for rule in RULES:
            out = _apply(m, 0.4, rule)
            np.testing.assert_array_equal(out, out.T)

    def test_zero_set_monotone_in_lambda(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((8, 8))
        m = (a + a.T) / 2
        for rule in (ThresholdRule("hard"), ThresholdRule("soft")):
            prev_zeros = None
            for lam in np.linspace(0, 3, 13):
                zeros = {
                    (j, r)
                    for j in range(8)
                    for r in range(8)
                    if j != r and _apply(m, lam, rule)[j, r] == 0
                }
                if prev_zeros is not None:
                    assert prev_zeros <= zeros
                prev_zeros = zeros


class TestLambdaGrid:
    def test_shape_and_anchors(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        grid = lambda_grid(m, size=20)
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == 0.5
        assert np.all(np.diff(grid) > 0)

    def test_degenerate(self):
        np.testing.assert_array_equal(lambda_grid(np.diag([1.0, 2.0])), [0.0])

    def test_selection_invariants(self):
        grid = np.array([0.0, 0.1, 0.2])
        soft = ThresholdRule("soft")
        sel = LambdaSelection(lam=0.1, grid=grid, cv_scores=np.zeros(3), rule=soft)
        assert sel.lam in sel.grid
        with pytest.raises(ValueError):
            LambdaSelection(lam=0.3, grid=grid, cv_scores=np.zeros(3), rule=soft)
        with pytest.raises(ValueError):
            LambdaSelection(lam=0.1, grid=np.array([0.1, 0.2]), cv_scores=np.zeros(2), rule=soft)


def _select(fit, u, rule, folds, grid_size=20, cv=None):
    """Cross-validated lambda at u, the way the CLI subcommands pick it."""
    cv = cv or ForestCV(fit.dataset, fit.mean.config, 0, folds=folds, grid_size=grid_size)
    return cv.select(u, rule, raw_cov(fit, u))


class TestSelectLambda:
    def _fit(self, dataset, trees=40):
        cfg = ForestConfig(n_trees=trees, min_leaf=3)
        return train_cov_forests(dataset, cfg.resolve(dataset.n, dataset.d), 0)

    def test_degenerate_grid_returns_zero(self):
        # p = 1 has no off-diagonal, so the grid collapses to {0}.
        gen = np.random.default_rng(0)
        ds = Dataset(gen.standard_normal((30, 1)), gen.uniform(-1, 1, (30, 1)))
        sel = _select(self._fit(ds), np.zeros(1), ThresholdRule("soft"), folds=3)
        assert sel.lam == 0.0
        assert len(sel.grid) == 1

    def test_scores_align_with_grid(self):
        spec = ModelSpec(model=1, p=4, d=2, n=40)
        ds = sample_dataset(spec, np.random.default_rng(1))
        sel = _select(self._fit(ds), np.zeros(2), ThresholdRule("soft"), folds=3, grid_size=20)
        assert len(sel.grid) == 21
        assert len(sel.cv_scores) == 21
        assert sel.lam == sel.grid[int(np.argmin(sel.cv_scores))]

    def test_diagonal_truth_zeroes_off_diagonal(self):
        # Generator 3 with u1 = -0.9 has a diagonal population matrix, so the
        # chosen penalty should kill every off-diagonal entry there.
        spec = ModelSpec(model=3, p=8, d=2, n=200)
        ds = sample_dataset(spec, np.random.default_rng(4))
        cfg = ForestConfig(n_trees=100, min_leaf=4).resolve(ds.n, ds.d)
        fit = train_cov_forests(ds, cfg, 0)
        u = np.array([-0.9, 0.0])
        rule = ThresholdRule("soft")
        sel = _select(fit, u, rule, folds=5)
        final = sel.apply(raw_cov(fit, u))
        assert sel.rule == rule
        off = final - np.diag(np.diagonal(final))
        assert np.count_nonzero(off) == 0

    def test_cv_reuse_matches_fresh(self):
        spec = ModelSpec(model=1, p=3, d=2, n=40)
        ds = sample_dataset(spec, np.random.default_rng(2))
        fit = self._fit(ds)
        cv = ForestCV(ds, fit.mean.config, 0, folds=3)
        u = np.array([0.2, -0.1])
        fresh = _select(fit, u, ThresholdRule("soft"), folds=3)
        reused = _select(fit, u, ThresholdRule("soft"), folds=3, cv=cv)
        assert fresh.lam == reused.lam
        np.testing.assert_array_equal(fresh.cv_scores, reused.cv_scores)

    def test_too_few_rows(self):
        gen = np.random.default_rng(0)
        ds = Dataset(gen.standard_normal((6, 2)), gen.uniform(-1, 1, (6, 1)))
        with pytest.raises(ValueError):
            ForestCV(ds, ForestConfig(n_trees=5, min_leaf=1), 0, folds=5)


class TestForestCVFits:
    @pytest.mark.parametrize("folds", [2, 3])
    @pytest.mark.parametrize("n", [40, 41])
    def test_matches_the_per_fold_reference(self, folds, n):
        # Each distinct fold row set is fitted once; every fold forest, and
        # every selection scored from them, is the per-fold loop's bit for bit.
        ds = sample_dataset(ModelSpec(model=1, p=4, d=2, n=n), np.random.default_rng(n))
        cfg = ForestConfig(n_trees=20, min_leaf=3)
        with mock.patch.object(thresholding, "train_cov_forests",
                               wraps=thresholding.train_cov_forests) as fits:
            cv = ForestCV(ds, cfg, 7, folds=folds)
        assert fits.call_count == (2 if folds == 2 else 2 * folds)
        ref = reference_forest_cv_pairs(ds, cfg, 7, folds)
        assert len(cv._folds) == len(ref) == folds
        for fold, want_pair in zip(cv._folds, ref):
            for s, want in zip(fold, want_pair):
                got = cv._fits[s]
                assert got.dataset.fingerprint() == want.dataset.fingerprint()
                assert same_forest(got.mean, want.mean)
                assert same_forest(got.second_moment, want.second_moment)
        fit = train_cov_forests(ds, cfg.resolve(ds.n, ds.d), 7)
        for u in ([0.0, 0.0], [0.5, -0.3], [-0.9, 0.8]):
            u = np.array(u)
            raw = raw_cov(fit, u)
            for rule in (ThresholdRule("soft"), ThresholdRule("scad")):
                got = cv.select(u, rule, raw)
                pairs = ((raw_cov(train, u), raw_cov(held, u)) for train, held in ref)
                want = reference_cv_select(pairs, lambda_grid(raw), rule)
                assert got.lam == want.lam
                assert got.grid.tobytes() == want.grid.tobytes()
                assert got.cv_scores.tobytes() == want.cv_scores.tobytes()

    @pytest.mark.parametrize("folds,calls", [(2, 2), (3, 6)])
    def test_each_fold_fit_scored_once_per_point(self, folds, calls):
        # At 2 folds the folds swap roles, so each fold fit's raw estimate
        # is computed once per point and serves as fit in one fold and as
        # held-out target in the other; at V >= 3 all 2V fits differ.
        ds = sample_dataset(ModelSpec(model=1, p=4, d=2, n=40), np.random.default_rng(3))
        cv = ForestCV(ds, ForestConfig(n_trees=20, min_leaf=3), 7, folds=folds)
        raw = np.eye(4) + 0.1
        with mock.patch.object(thresholding, "raw_cov", wraps=thresholding.raw_cov) as spy:
            cv.select(np.zeros(2), ThresholdRule("soft"), raw)
        assert spy.call_count == calls


def _sample_cov(y):
    centered = y - y.mean(axis=0)
    return centered.T @ centered / len(y)


class TestCvThreshold:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 24), p=st.integers(1, 5), folds=st.integers(1, 8),
           grid_size=st.sampled_from([0, 1, 20]), rule=st.sampled_from(RULES),
           seed=st.integers(0, 2**32 - 1))
    def test_one_fold_rule_and_the_reference_selection(self, n, p, folds, grid_size, rule, seed):
        # Where check_cv_folds allows the folds, or the grid is the single
        # point 0 with nothing to tune, the selection is the reference's bit
        # for bit; anywhere else the baseline CV refuses them.
        gen = np.random.default_rng(seed)
        y = gen.standard_normal((n, p))
        args = (_sample_cov(y), lambda idx: _sample_cov(y[idx]), gen.permutation(n), rule,
                folds, grid_size, seed)
        try:
            check_cv_folds(n, folds)
            allowed = True
        except ValueError:
            allowed = False
        if allowed or len(lambda_grid(args[0], size=grid_size)) == 1:
            got, want = cv_threshold(*args), reference_cv_threshold(*args)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError, match="too small for|need at least 2 folds"):
                cv_threshold(*args)

    @pytest.mark.parametrize("folds,calls", [(2, 2), (3, 6)])
    def test_raw_fn_runs_once_per_row_set(self, folds, calls):
        # At 2 folds each fold's training rows are the other's held-out rows.
        y = np.random.default_rng(0).standard_normal((20, 3))
        raw_fn = mock.Mock(side_effect=lambda idx: _sample_cov(y[idx]))
        cv_threshold(_sample_cov(y), raw_fn, np.arange(20), ThresholdRule("soft"), folds, 20, 0)
        assert raw_fn.call_count == calls


# Entries 0 or of magnitude 1e-100 to 1e101, either sign: a diagonal can be
# zero, negative or tiny next to the rest, and the factorizations neither
# overflow nor underflow.
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 10.0),
              st.integers(-100, 100), st.sampled_from([-1.0, 1.0])),
)


@st.composite
def _symmetric(draw):
    p = draw(st.integers(1, 8))
    upper = np.array(draw(st.lists(_ENTRY, min_size=p * (p + 1) // 2,
                                   max_size=p * (p + 1) // 2)))
    m = np.zeros((p, p))
    m[np.triu_indices(p)] = upper
    return m + np.triu(m, 1).T


class TestPdCorrect:
    @settings(max_examples=500, deadline=None)
    @given(m=_symmetric())
    @example(m=np.array([[1e-12, 1.0], [1.0, 1e-12]]))
    @example(m=np.ones((3, 3)))
    # eigvalsh misses lambda_min by 2.4e-13 ||M||_2 here, past the floor's model.
    @example(m=np.array([[0, 0, 0, 0, -1e-62], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                         [0, 0, 0, -1e-61, -1e95], [-1e-62, 0, 0, -1e95, 0]]))
    def test_output_passes_cholesky(self, m):
        np.linalg.cholesky(pd_correct(m)[0])

    def test_shift_identity(self):
        m = np.diag([-0.3, 1.0])
        out, info = pd_correct(m)
        assert info.applied
        assert info.delta_hat == pytest.approx(0.3)
        assert info.c_n == default_cn(m)
        np.testing.assert_allclose(np.linalg.eigvalsh(out)[0], default_cn(m), atol=1e-12)

    def test_already_pd_unchanged(self):
        m = np.array([[2.0, 0.1], [0.1, 1.0]])
        out, info = pd_correct(m)
        assert not info.applied
        np.testing.assert_array_equal(out, m)

    def test_zero_matrix_boundary(self):
        # mu_min = 0 counts as "<= 0", so the zero matrix becomes c_n * I.
        zero = np.zeros((2, 2))
        out, info = pd_correct(zero)
        assert info.applied
        assert info.c_n == default_cn(zero)
        np.testing.assert_array_equal(out, default_cn(zero) * np.eye(2))

    def test_default_cn_scale(self):
        m = np.diag([3.0, -1.0])
        assert default_cn(m) == pytest.approx(3e-4)
        assert default_cn(-np.eye(2)) == 1e-8

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            pd_correct(np.zeros((2, 3)))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            pd_correct(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestPrecision:
    def test_diagonal(self):
        np.testing.assert_allclose(precision(np.diag([1.0, 4.0])), np.diag([1.0, 0.25]))

    def test_scaled_identity(self):
        np.testing.assert_allclose(precision(0.01 * np.eye(3)), 100.0 * np.eye(3))

    def test_residual_contract(self):
        gen = np.random.default_rng(11)
        a = gen.standard_normal((5, 5))
        m = a @ a.T + 0.5 * np.eye(5)
        inv = precision(m)
        assert np.abs(m @ inv - np.eye(5)).max() < 1e-8

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="not positive definite"):
            precision(np.diag([1.0, -1.0]))
