import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyncov.covariance import (
    CovForests,
    raw_cov,
    train_cov_forests,
    weighted_cov,
    write_matrix_csv,
)
from dyncov.data import Dataset
from dyncov.forest import ForestConfig, ResponseKind, train_forest, weight_vector
from dyncov.simulation import _epanechnikov, _kernel_raw
from tests.conftest import (
    j2_indices,
    make_dataset,
    oracle_weights,
    reference_write_matrix_csv,
    to_dense,
    tree_view,
)

UNIFORM_CFG = ForestConfig(n_trees=1, subsample_size=4, min_leaf=2, mtry=1)


def _second_moment(forest, ds, u):
    """The weighted second moment sum_i w_i y_i y_i^T of ``forest``'s
    weighting at u: ``weighted_cov`` with an empty mean weighting."""
    w = weight_vector(forest, u)
    ys = ds.y[w.indices]
    return weighted_cov(ys[:0], w.values[:0], ys, w.values)


class TestForestMoments:
    @pytest.mark.parametrize("y", [
        [[1.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[1.0], [-1.0], [1.0], [-1.0]],
    ], ids=["two-columns", "plus-minus-one"])
    def test_uniform_leaf_averages(self, y):
        # Identical covariates: each forest's one tree is a single leaf, so
        # both moments are plain averages over its J2 members.
        ds = Dataset(np.array(y), np.full((4, 1), 0.5))
        fit = train_cov_forests(ds, UNIFORM_CFG, 0)
        ym = ds.y[j2_indices(tree_view(fit.mean, 0))]
        ys = ds.y[j2_indices(tree_view(fit.second_moment, 0))]
        mean = ym.mean(axis=0)
        second = (ys[:, :, None] * ys[:, None, :]).mean(axis=0)
        np.testing.assert_allclose(_second_moment(fit.second_moment, ds, np.array([0.5])), second)
        np.testing.assert_allclose(raw_cov(fit, np.array([0.5])), second - np.outer(mean, mean))

    @pytest.mark.parametrize("c, n, trees, seed", [
        ([2.0, -1.0], 20, 5, 0),
        ([1.0, 2.0], 8, 3, 1),
    ], ids=["twenty-rows", "eight-rows"])
    def test_constant_responses(self, c, n, trees, seed):
        # Each weighting sums to one: the second moment is c c^T, and then the
        # zero raw estimate leaves the weighted mean c (both weights are >= 0).
        c = np.array(c)
        ds = Dataset(np.tile(c, (n, 1)), np.random.default_rng(seed).uniform(-1, 1, (n, 1)))
        fit = train_cov_forests(ds, ForestConfig(n_trees=trees, min_leaf=2), 0)
        for u in ([-0.5], [0.0], [0.2], [0.9]):
            np.testing.assert_allclose(_second_moment(fit.second_moment, ds, np.array(u)),
                                       np.outer(c, c), atol=1e-14)
            np.testing.assert_allclose(raw_cov(fit, np.array(u)), 0.0, atol=1e-14)

    def test_kind_guard(self):
        # A fit refuses, when it is made, a forest of the wrong response kind.
        ds = make_dataset(n=10, p=2, d=1, seed=0)
        fit = train_cov_forests(ds, ForestConfig(n_trees=1, min_leaf=2), 0)
        mean_f, sm_f = fit.mean, fit.second_moment
        for forests in ((sm_f, sm_f), (mean_f, mean_f), (sm_f, mean_f)):
            with pytest.raises(ValueError, match="response kind"):
                CovForests(*forests, ds)

    def test_second_moment_symmetric(self):
        ds = make_dataset(n=40, p=4, d=2, seed=5)
        forest = train_forest(ds, ForestConfig(n_trees=10, min_leaf=3),
                              ResponseKind.SECOND_MOMENT, 0)
        out = _second_moment(forest, ds, np.array([0.1, 0.1]))
        np.testing.assert_array_equal(out, out.T)

    def test_second_moment_diagonal_nonnegative(self):
        ds = make_dataset(n=40, p=3, d=2, seed=6)
        forest = train_forest(ds, ForestConfig(n_trees=10, min_leaf=3),
                              ResponseKind.SECOND_MOMENT, 0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            out = _second_moment(forest, ds, rng.uniform(-1, 1, 2))
            assert np.all(np.diagonal(out) >= 0)


class TestWeightedCov:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shape=st.sampled_from(["forest", "kernel"]),
        n=st.integers(1, 40),
        p=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_brute_force_loop_property(self, data, shape, n, p, seed):
        # The two call shapes: the forest passes each weighting's own rows
        # (two index sets, nonzero weights); the kernel baseline passes all
        # rows twice with one Epanechnikov weighting, zeros included, which
        # ``_kernel_raw`` must hand over unchanged.
        gen = np.random.default_rng(seed)
        y = gen.standard_normal((n, p)) * 10.0 ** gen.uniform(-3, 3, p)
        if shape == "forest":
            ia = np.flatnonzero(data.draw(hnp.arrays(bool, n)))
            ib = np.flatnonzero(data.draw(hnp.arrays(bool, n)))
            assume(len(ia) and len(ib))
            a, b = gen.uniform(0.01, 1.0, len(ia)), gen.uniform(0.01, 1.0, len(ib))
            a, b = a / a.sum(), b / b.sum()
            got = weighted_cov(y[ia], a, y[ib], b)
        else:
            uj = gen.uniform(-1, 1, n)
            target, h = data.draw(st.floats(-1.5, 1.5)), data.draw(st.floats(0.05, 2.0))
            w = _epanechnikov((uj - target) / h)
            assume(w.sum() > 0)
            ia = ib = np.arange(n)
            a = b = w / w.sum()
            got = weighted_cov(y, a, y, b)
            np.testing.assert_array_equal(_kernel_raw(y, uj, target, h), got)
        mean = np.zeros(p)
        second = np.zeros((p, p))
        for i, ai in zip(ia, a):
            mean += ai * y[i]
        for i, bi in zip(ib, b):
            second += bi * np.outer(y[i], y[i])
        expected = second - np.outer(mean, mean)
        # Each entry of either computation is a sum of at most n + 1 rounded
        # products, so each lies within gamma_{n+3} (S + 3 M) of the exact
        # value (Higham 2002, ch. 3): S = sum_i b_i |y_i| |y_i|^T bounds the
        # second moment's terms, M = m m^T with m = sum_i a_i |y_i| the mean
        # outer product's, and the three extra roundings cover the outer
        # product, the symmetrisation and the difference.  The two
        # computations differ by at most twice that.
        absy = np.abs(y)
        scale = (absy[ib].T * b) @ absy[ib] + 3.0 * np.outer(a @ absy[ia], a @ absy[ia])
        bound = 2.0 * (n + 3) * 2.0**-53 / (1.0 - (n + 3) * 2.0**-53) * scale
        assert np.all(np.abs(got - expected) <= bound)
        np.testing.assert_array_equal(got, got.T)


class TestRawCov:
    def test_hand_example_p1(self):
        ds = Dataset(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.full((4, 1), 0.5))
        fit = train_cov_forests(ds, UNIFORM_CFG, 0)
        est = raw_cov(fit, np.array([0.5]))
        # Single unsplittable leaf: second moment 1, mean 0 (even J2 split of +-1)
        # or +-1 mean when the J2 half is unbalanced; both forests share the
        # subsample stream per kind, so just check Eq. by hand from weights.
        from dyncov.forest import weight_vector

        a = to_dense(weight_vector(fit.mean, np.array([0.5])))
        b = to_dense(weight_vector(fit.second_moment, np.array([0.5])))
        expected = (b * ds.y[:, 0] ** 2).sum() - (a * ds.y[:, 0]).sum() ** 2
        np.testing.assert_allclose(est, [[expected]])

    def test_constant_responses_zero_matrix(self):
        c = np.array([3.0, 1.0, -2.0])
        ds = Dataset(np.tile(c, (20, 1)), np.random.default_rng(3).uniform(-1, 1, (20, 1)))
        fit = train_cov_forests(ds, ForestConfig(n_trees=5, min_leaf=2), 0)
        est = raw_cov(fit, np.array([0.0]))
        np.testing.assert_allclose(est, np.zeros((3, 3)), atol=1e-12)

    def test_materialized_weights_oracle(self):
        # Literal evaluation with explicit dense weight vectors from the
        # independent routing reference.
        ds = make_dataset(n=25, p=3, d=2, seed=10)
        fit = train_cov_forests(ds, ForestConfig(n_trees=3, min_leaf=2), 7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(-1, 1, 2)
            alpha = oracle_weights(fit.mean, ds, u)
            beta = oracle_weights(fit.second_moment, ds, u)
            second = sum(b * np.outer(y, y) for b, y in zip(beta, ds.y))
            mean = (alpha[:, None] * ds.y).sum(axis=0)
            expected = second - np.outer(mean, mean)
            got = raw_cov(fit, u)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_symmetric_over_query_grid(self):
        ds = make_dataset(n=40, p=4, d=2, seed=11)
        fit = train_cov_forests(ds, ForestConfig(n_trees=8, min_leaf=3), 1)
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = raw_cov(fit, rng.uniform(-1, 1, 2))
            np.testing.assert_array_equal(m, m.T)

    def test_fingerprint_guard(self):
        # A fit refuses, when it is made, a forest trained on another dataset.
        ds = make_dataset(n=20, p=2, d=1, seed=0)
        other = make_dataset(n=20, p=2, d=1, seed=1)
        cfg = ForestConfig(n_trees=2, min_leaf=2)
        fit = train_cov_forests(ds, cfg, 0)
        with pytest.raises(ValueError, match="different dataset"):
            CovForests(fit.mean, fit.second_moment, other)
        # A pair of forests from two datasets: either forest fails the check.
        others = train_cov_forests(other, cfg, 0)
        for pair in ((fit.mean, others.second_moment), (others.mean, fit.second_moment)):
            for data in (ds, other):
                with pytest.raises(ValueError, match="different dataset"):
                    CovForests(*pair, data)

    def test_monotone_covariate_transform_at_training_points(self):
        # Strictly increasing per-coordinate maps preserve covariate ranks, so
        # with fixed seeds the trees make the same splits.  Rows 0, 7 and 23
        # route identically; row 28 does not, as it lies outside some trees'
        # subsamples (see the property below, which takes every row).
        ds = make_dataset(n=40, p=3, d=2, seed=13)
        cfg = ForestConfig(n_trees=10, min_leaf=3)
        fit = train_cov_forests(ds, cfg, 3)
        u2 = np.stack([ds.u[:, 0] ** 3, np.exp(ds.u[:, 1])], axis=1)
        ds2 = Dataset(ds.y.copy(), u2)
        fit2 = train_cov_forests(ds2, cfg, 3)
        for i in (0, 7, 23):
            a = raw_cov(fit, ds.u[i])
            b = raw_cov(fit2, ds2.u[i])
            np.testing.assert_array_equal(a, b)

    # Strictly increasing maps of [-1, 1], each with a free parameter c > 0.
    MAPS = {
        "affine": lambda x, c: c * x - 3.0,
        "cube": lambda x, c: x**3 + c * x,
        "exp": lambda x, c: np.exp(c * x),
        "arctan": lambda x, c: np.arctan(c * x),
        "sinh": lambda x, c: np.sinh(c * x),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(8, 30),
        d=st.integers(1, 3),
        p=st.integers(1, 3),
        map_name=st.sampled_from(sorted(MAPS)),
        c=st.floats(0.1, 5.0),
        trees=st.integers(1, 6),
        min_leaf=st.integers(1, 3),
        random_split_prob=st.sampled_from([0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_monotone_covariate_map_keeps_training_weights_property(
        self, data, n, d, p, map_name, c, trees, min_leaf, random_split_prob, seed
    ):
        # Splits read covariates only through their order (sorts, and counts
        # against midpoints of adjacent distinct values), and the map keeps
        # that order, so with the same seed both forests make the same splits
        # and route every training row to the same leaves.  Assumptions:
        # - every tree's subsample is all n rows (subsample_size = n).  A row
        #   outside a tree's subsample can lie strictly between two adjacent
        #   values of a node, where the map can move the midpoint across it:
        #   at the default s = ceil(n/2) that happens at row 28 of the fixed
        #   example above, which checks rows 0, 7 and 23;
        # - the map, rounded to doubles, is strictly increasing on the sample;
        # - in neither sample does the midpoint of two adjacent values round
        #   onto one of them.  Such a midpoint changes the counts ``_scan``
        #   takes against it.
        # Draws from a few values make ties likely; ties map to ties.
        values = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]))
        u = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
        j = data.draw(st.integers(0, d - 1))
        x, where = np.unique(u[:, j], return_inverse=True)
        fx = self.MAPS[map_name](x, c)
        assume(np.all(fx[:-1] < fx[1:]))
        mapped = u.copy()
        mapped[:, j] = fx[where]
        for sample in (x, fx):
            mid = (sample[:-1] + sample[1:]) / 2.0
            assume(np.all((sample[:-1] < mid) & (mid < sample[1:])))

        y = np.random.default_rng(seed).standard_normal((n, p))
        cfg = ForestConfig(n_trees=trees, subsample_size=n, min_leaf=min_leaf,
                           random_split_prob=random_split_prob)
        ds, ds2 = Dataset(y, u), Dataset(y, mapped)
        fit, fit2 = train_cov_forests(ds, cfg, seed), train_cov_forests(ds2, cfg, seed)
        for forest, forest2 in ((fit.mean, fit2.mean), (fit.second_moment, fit2.second_moment)):
            for i in range(n):
                a, b = weight_vector(forest, ds.u[i]), weight_vector(forest2, ds2.u[i])
                np.testing.assert_array_equal(a.indices, b.indices)
                np.testing.assert_array_equal(a.values, b.values)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((4, 4))
        m[0, :3] = [-0.0, 5e-324, 1e13]  # signed zero, subnormal, large
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m, header_lines=["seed=0", "note"])
        assert path.read_text().splitlines()[:2] == ["# seed=0", "# note"]
        back = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        assert back.tobytes() == m.tobytes()

    @staticmethod
    def _same_as_per_entry_writer(tmp_path, m):
        header = ["seed=0", "point=3"]
        write_matrix_csv(tmp_path / "new.csv", m, header)
        reference_write_matrix_csv(tmp_path / "ref.csv", m, header)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", [
        "repeated", "thresholded", "signed-zeros", "subnormals", "repr-boundaries",
        "non-symmetric", "empty",
    ])
    def test_matches_per_entry_writer(self, tmp_path, name):
        gen = np.random.default_rng(4)
        a = gen.standard_normal((6, 6))
        sym = (a + a.T) / 2
        m = {
            "repeated": np.round(sym, 1),
            "thresholded": np.where(np.abs(sym) > 1.0, sym, 0.0),
            "signed-zeros": np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]]),
            "subnormals": np.array([[5e-324, -5e-324], [2.2250738585072009e-308, 1e-310]]),
            # repr switches to exponent notation below 1e-4 and from 1e16 on.
            "repr-boundaries": np.array([
                [1e16, np.nextafter(1e16, 0), -1e16, 1e-5],
                [np.nextafter(1e-4, 0), 1e-4, 1e-05, np.nextafter(1e-5, 1)],
            ]),
            "non-symmetric": a[:4],
            "empty": np.zeros((0, 0)),
        }[name]
        self._same_as_per_entry_writer(tmp_path, m)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_matrix_csv(tmp_path / "v.csv", np.array([1.5, 2.0]))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                        elements=st.floats(width=64)))
    def test_matches_per_entry_writer_on_any_floats(self, tmp_path, m):
        self._same_as_per_entry_writer(tmp_path, m)
