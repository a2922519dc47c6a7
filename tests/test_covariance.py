import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyncov.covariance import (
    cond_mean,
    cond_second_moment,
    raw_cov,
    train_cov_forests,
    write_matrix_csv,
)
from dyncov.data import Dataset
from dyncov.forest import ForestConfig, ResponseKind, train_forest
from tests.conftest import (
    j2_indices,
    make_dataset,
    oracle_weights,
    reference_write_matrix_csv,
    to_dense,
    tree_view,
)

UNIFORM_CFG = ForestConfig(n_trees=1, subsample_size=4, min_leaf=2, mtry=1, seed=0)


def _uniform_leaf_setup():
    """Dataset and config where a single tree is forced into one leaf."""
    y = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    u = np.full((4, 1), 0.5)  # identical covariates: unsplittable
    return Dataset(y, u)


class TestCondMean:
    def test_uniform_leaf_average(self):
        ds = _uniform_leaf_setup()
        forest = train_forest(ds, UNIFORM_CFG, ResponseKind.MEAN)
        # One leaf with two J2 members: plain average of their responses.
        j2 = j2_indices(tree_view(forest, 0))
        expected = ds.y[j2].mean(axis=0)
        np.testing.assert_allclose(cond_mean(forest, ds, np.array([0.5])), expected)

    def test_constant_responses(self):
        c = np.array([2.0, -1.0])
        ds = Dataset(np.tile(c, (20, 1)), np.random.default_rng(0).uniform(-1, 1, (20, 1)))
        forest = train_forest(ds, ForestConfig(n_trees=5, min_leaf=2, seed=0), ResponseKind.MEAN)
        for u in ([-0.5], [0.0], [0.9]):
            np.testing.assert_allclose(cond_mean(forest, ds, np.array(u)), c, atol=1e-14)

    def test_kind_guard(self):
        ds = make_dataset(n=10, p=2, d=1, seed=0)
        forest = train_forest(ds, ForestConfig(n_trees=1, min_leaf=2, seed=0),
                              ResponseKind.SECOND_MOMENT)
        with pytest.raises(ValueError):
            cond_mean(forest, ds, np.zeros(1))


class TestCondSecondMoment:
    def test_average_of_squares(self):
        ds = Dataset(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.full((4, 1), 0.5))
        forest = train_forest(ds, UNIFORM_CFG, ResponseKind.SECOND_MOMENT)
        out = cond_second_moment(forest, ds, np.array([0.5]))
        np.testing.assert_allclose(out, [[1.0]])

    def test_single_outer_product(self):
        y = np.array([1.0, 2.0])
        ds = Dataset(np.tile(y, (8, 1)), np.random.default_rng(1).uniform(-1, 1, (8, 1)))
        forest = train_forest(ds, ForestConfig(n_trees=3, min_leaf=2, seed=0),
                              ResponseKind.SECOND_MOMENT)
        out = cond_second_moment(forest, ds, np.array([0.2]))
        np.testing.assert_allclose(out, [[1.0, 2.0], [2.0, 4.0]])

    def test_symmetric(self):
        ds = make_dataset(n=40, p=4, d=2, seed=5)
        forest = train_forest(ds, ForestConfig(n_trees=10, min_leaf=3, seed=0),
                              ResponseKind.SECOND_MOMENT)
        out = cond_second_moment(forest, ds, np.array([0.1, 0.1]))
        np.testing.assert_array_equal(out, out.T)

    def test_diagonal_nonnegative(self):
        ds = make_dataset(n=40, p=3, d=2, seed=6)
        forest = train_forest(ds, ForestConfig(n_trees=10, min_leaf=3, seed=0),
                              ResponseKind.SECOND_MOMENT)
        rng = np.random.default_rng(2)
        for _ in range(10):
            out = cond_second_moment(forest, ds, rng.uniform(-1, 1, 2))
            assert np.all(np.diagonal(out) >= 0)


class TestRawCov:
    def test_hand_example_p1(self):
        ds = Dataset(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.full((4, 1), 0.5))
        mean_f, sm_f = train_cov_forests(ds, UNIFORM_CFG)
        est = raw_cov(mean_f, sm_f, ds, np.array([0.5]))
        # Single unsplittable leaf: second moment 1, mean 0 (even J2 split of +-1)
        # or +-1 mean when the J2 half is unbalanced; both forests share the
        # subsample stream per kind, so just check Eq. by hand from weights.
        from dyncov.forest import weight_vector

        a = to_dense(weight_vector(mean_f, np.array([0.5])))
        b = to_dense(weight_vector(sm_f, np.array([0.5])))
        expected = (b * ds.y[:, 0] ** 2).sum() - (a * ds.y[:, 0]).sum() ** 2
        np.testing.assert_allclose(est, [[expected]])

    def test_constant_responses_zero_matrix(self):
        c = np.array([3.0, 1.0, -2.0])
        ds = Dataset(np.tile(c, (20, 1)), np.random.default_rng(3).uniform(-1, 1, (20, 1)))
        forests = train_cov_forests(ds, ForestConfig(n_trees=5, min_leaf=2, seed=0))
        est = raw_cov(*forests, ds, np.array([0.0]))
        np.testing.assert_allclose(est, np.zeros((3, 3)), atol=1e-12)

    def test_materialized_weights_oracle(self):
        # Literal evaluation with explicit dense weight vectors from the
        # independent routing reference.
        ds = make_dataset(n=25, p=3, d=2, seed=10)
        forests = train_cov_forests(ds, ForestConfig(n_trees=3, min_leaf=2, seed=7))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(-1, 1, 2)
            alpha = oracle_weights(forests[0], ds, u)
            beta = oracle_weights(forests[1], ds, u)
            second = sum(b * np.outer(y, y) for b, y in zip(beta, ds.y))
            mean = (alpha[:, None] * ds.y).sum(axis=0)
            expected = second - np.outer(mean, mean)
            got = raw_cov(*forests, ds, u)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_symmetric_over_query_grid(self):
        ds = make_dataset(n=40, p=4, d=2, seed=11)
        forests = train_cov_forests(ds, ForestConfig(n_trees=8, min_leaf=3, seed=1))
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = raw_cov(*forests, ds, rng.uniform(-1, 1, 2))
            np.testing.assert_array_equal(m, m.T)

    def test_fingerprint_guard(self):
        ds = make_dataset(n=20, p=2, d=1, seed=0)
        other = make_dataset(n=20, p=2, d=1, seed=1)
        forests = train_cov_forests(ds, ForestConfig(n_trees=2, min_leaf=2, seed=0))
        with pytest.raises(ValueError):
            raw_cov(*forests, other, np.zeros(1))

    def test_monotone_covariate_transform_at_training_points(self):
        # Strictly increasing per-coordinate maps preserve covariate ranks, so
        # with fixed seeds the trees route training points identically and the
        # raw estimate at any training covariate vector is unchanged.
        ds = make_dataset(n=40, p=3, d=2, seed=13)
        cfg = ForestConfig(n_trees=10, min_leaf=3, seed=3)
        forests = train_cov_forests(ds, cfg)
        u2 = np.stack([ds.u[:, 0] ** 3, np.exp(ds.u[:, 1])], axis=1)
        ds2 = Dataset(ds.y.copy(), u2)
        forests2 = train_cov_forests(ds2, cfg)
        for i in (0, 7, 23):
            a = raw_cov(*forests, ds, ds.u[i])
            b = raw_cov(*forests2, ds2, ds2.u[i])
            np.testing.assert_array_equal(a, b)


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
