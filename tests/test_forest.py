import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyncov import forest as forest_module
from dyncov.data import Dataset
from dyncov.forest import (
    Forest,
    ForestConfig,
    ResponseKind,
    best_split,
    grow_tree,
    split_sample,
    subsample,
    train_forest,
    weight_vector,
    WINDOW,
    _scan,
    _target_gram,
    _workspace,
)
from tests.conftest import (
    delta_criterion,
    j2_indices,
    leaf_members,
    loop_weights,
    make_dataset,
    oracle_weights,
    reference_best_split_on_feature,
    reference_forest,
    route_independent,
    same_forest,
    to_dense,
    tree_view,
    trees,
    vec_outer,
    weight_total,
)


class TestSubsample:
    def test_full_set(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(subsample(5, 5, rng), np.arange(5))

    def test_deterministic(self):
        a = subsample(10, 4, np.random.default_rng(7))
        b = subsample(10, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 4

    def test_too_large(self):
        with pytest.raises(ValueError):
            subsample(3, 4, np.random.default_rng(0))


class TestSplitSample:
    def test_even(self):
        j1, j2 = split_sample(np.arange(6), np.random.default_rng(0))
        assert (len(j1), len(j2)) == (3, 3)
        assert set(j1) & set(j2) == set()

    def test_odd(self):
        j1, j2 = split_sample(np.arange(7), np.random.default_rng(0))
        assert (len(j1), len(j2)) == (4, 3)

    def test_partition_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            idx = np.sort(rng.choice(100, size=rng.integers(2, 30), replace=False))
            j1, j2 = split_sample(idx, rng)
            assert sorted(j1.tolist() + j2.tolist()) == idx.tolist()

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_sample(np.array([1]), np.random.default_rng(0))


class TestDeltaCriterion:
    def test_hand_example(self):
        # Children with scalar targets {0,0} and {2,2}: ||0-2||^2 * 4/16 = 1.
        assert delta_criterion(np.array([0.0]), 2, np.array([4.0]), 2, 4) == 1.0

    def test_identical_means(self):
        assert delta_criterion(np.array([2.0, 2.0]), 2, np.array([3.0, 3.0]), 3, 5) == 0.0

    def test_symmetry(self):
        s1, s2 = np.array([1.0, 2.0]), np.array([5.0, -1.0])
        assert delta_criterion(s1, 2, s2, 3, 5) == delta_criterion(s2, 3, s1, 2, 5)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            delta_criterion(np.zeros(2), 0, np.zeros(2), 2, 2)


def _naive_best_split_1d(y, v1, v2, min_child_j2, kind):
    """Exhaustive reference: materialize targets, scan every midpoint."""
    targets = np.array([vec_outer(row) if kind is ResponseKind.SECOND_MOMENT else row for row in y])
    values = np.unique(np.concatenate([v1, v2]))
    best = None
    m1 = len(v1)
    for thr in (values[:-1] + values[1:]) / 2.0:
        left1 = v1 <= thr
        n1, n2 = int(left1.sum()), m1 - int(left1.sum())
        j2_left = int((v2 <= thr).sum())
        if n1 < 1 or n2 < 1:
            continue
        if j2_left < min_child_j2 or len(v2) - j2_left < min_child_j2:
            continue
        delta = delta_criterion(targets[left1].sum(axis=0), n1, targets[~left1].sum(axis=0), n2, m1)
        if best is None or delta > best[0] + 1e-15 * max(1.0, abs(best[0])):
            best = (delta, thr)
    return best


class TestBestSplit:
    def _config(self, **kw):
        base = dict(n_trees=1, subsample_size=8, min_leaf=1, regularity=0.05,
                    random_split_prob=1e-12, mtry=1)
        base.update(kw)
        return ForestConfig(**base)

    def test_separable_targets(self):
        # J1 targets split cleanly around the middle of the covariate range.
        u_j1 = np.array([[0.1], [0.2], [0.8], [0.9]])
        y_j1 = np.array([[0.0], [0.0], [10.0], [10.0]])
        u_j2 = np.array([[0.05], [0.15], [0.75], [0.95]])
        gram = _target_gram(y_j1, ResponseKind.MEAN)
        rng = np.random.default_rng(0)
        split = best_split(u_j1, u_j2, gram, np.arange(len(u_j1)), self._config(), rng, d=1)
        assert split is not None
        f, thr = split
        assert f == 0
        assert 0.2 < thr < 0.8
        ref = _naive_best_split_1d(y_j1, u_j1[:, 0], u_j2[:, 0], 1, ResponseKind.MEAN)
        assert thr == ref[1]

    def test_constant_targets_tie_break(self):
        # All targets equal: every split scores 0, lowest threshold wins.
        u_j1 = np.array([[0.1], [0.5], [0.9]])
        y_j1 = np.ones((3, 1))
        u_j2 = np.array([[0.2], [0.4], [0.6], [0.8]])
        gram = _target_gram(y_j1, ResponseKind.MEAN)
        split = best_split(u_j1, u_j2, gram, np.arange(len(u_j1)), self._config(min_leaf=2),
                           np.random.default_rng(1), d=1)
        assert split is not None
        f, thr = split
        # min_child_j2 = 2 forces the threshold between the 2nd and 3rd J2 value.
        assert thr == pytest.approx(0.45)

    def test_small_j2_makes_leaf(self):
        u_j1 = np.array([[0.1], [0.9]])
        y_j1 = np.array([[0.0], [1.0]])
        u_j2 = np.array([[0.2], [0.3], [0.8]])  # 2k-1 points for k=2
        gram = _target_gram(y_j1, ResponseKind.MEAN)
        split = best_split(u_j1, u_j2, gram, np.arange(len(u_j1)), self._config(min_leaf=2),
                           np.random.default_rng(0), d=1)
        assert split is None

    def test_identical_covariates_make_leaf(self):
        u_j1 = np.full((4, 1), 0.5)
        y_j1 = np.arange(4.0)[:, None]
        u_j2 = np.full((4, 1), 0.5)
        gram = _target_gram(y_j1, ResponseKind.MEAN)
        split = best_split(u_j1, u_j2, gram, np.arange(len(u_j1)), self._config(),
                           np.random.default_rng(0), d=1)
        assert split is None

    def test_matches_naive_scan_random(self):
        rng = np.random.default_rng(42)
        for kind in (ResponseKind.MEAN, ResponseKind.SECOND_MOMENT):
            for _ in range(30):
                m1 = int(rng.integers(3, 12))
                m2 = int(rng.integers(4, 12))
                p = int(rng.integers(1, 4))
                y = rng.standard_normal((m1, p))
                v1 = rng.uniform(-1, 1, m1)
                v2 = rng.uniform(-1, 1, m2)
                gram = _target_gram(y, kind)
                cfg = self._config(min_leaf=1)
                got = best_split(v1[:, None], v2[:, None], gram, np.arange(m1), cfg,
                                 np.random.default_rng(0), d=1)
                ref = _naive_best_split_1d(y, v1, v2, 1, kind)
                if ref is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[1] == ref[1]


# |J1| = ceil(ceil(n/2)/2): n = 4|J1| gives root blocks at and around the
# window size and its multiples, and n up to 800 gives |J1| up to 200.
_WINDOW_EDGES = [4 * WINDOW + k for k in (-4, 0, 4)] + [8 * WINDOW, 8 * WINDOW + 4]


class TestSplitSearchIdentity:
    """The one-scan split search grows the trees of the per-feature loop bit for
    bit, with root blocks of one window and of several."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.one_of(st.integers(8, 100), st.sampled_from(_WINDOW_EDGES), st.integers(101, 800)),
        p=st.integers(1, 4),
        d=st.integers(1, 5),
        mtry=st.integers(1, 5),
        min_leaf=st.integers(1, 5),
        random_split_prob=st.sampled_from([0.05, 1.0]),
        kind=st.sampled_from(list(ResponseKind)),
        covariates=st.sampled_from(["continuous", "rounded", "adjacent", "duplicated", "mirrored"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_forest(self, n, p, d, mtry, min_leaf, random_split_prob,
                                      kind, covariates, seed):
        n = max(n, 4 * min_leaf)  # |J2| = floor(ceil(n/2)/2) must reach min_leaf
        ds = make_dataset(n=n, p=p, d=d, seed=seed)
        u = ds.u if covariates == "continuous" else np.round(ds.u, 1)
        if covariates == "adjacent":
            # A value or the next double up: their midpoint rounds onto one of the two.
            up = np.random.default_rng(seed).random(u.shape) < 0.5
            u = np.where(up, np.nextafter(u, np.inf), u)
        elif covariates == "duplicated":
            # Identical features score equal deltas: the lowest feature must win.
            u = np.repeat(ds.u[:, :1], d, axis=1)
        elif covariates == "mirrored":
            # u and -u score the same splits summed in opposite orders, so the
            # winner hangs on the last bits of each delta.
            u = np.where(np.arange(d) % 2, -ds.u[:, :1], ds.u[:, :1])
        ds = Dataset(ds.y, u)
        cfg = ForestConfig(n_trees=3, min_leaf=min_leaf, random_split_prob=random_split_prob,
                           mtry=min(mtry, d))
        assert same_forest(train_forest(ds, cfg, kind, seed), reference_forest(ds, cfg, kind, seed))


class TestScanWorkspace:
    """A workspace left dirty by a larger block changes no scan result."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.one_of(st.integers(2, 24), st.integers(WINDOW - 2, 3 * WINDOW + 2)),
        n_features=st.integers(1, 4),
        root=st.booleans(),
        min_child_j2=st.integers(1, 3),
        kind=st.sampled_from(list(ResponseKind)),
        seed=st.integers(0, 2**16),
    )
    def test_dirty_workspace_matches_fresh(self, size, n_features, root, min_child_j2, kind,
                                           seed):
        gen = np.random.default_rng(seed)
        gram = _target_gram(gen.standard_normal((size, 3)), kind)
        workspace = _workspace(size)
        workspace.fill(np.nan)
        # The root block (m1 = |J1|) passes all its windows through the
        # workspace; a node's block then reuses its first entries.
        root_args = (gen.uniform(-1, 1, (n_features, size)), gen.uniform(-1, 1, (n_features, 8)),
                     gram, gen.permutation(size), 1)
        assert _scan(*root_args, workspace) == _scan(*root_args)
        m1 = size if root else int(gen.integers(2, size + 1))
        rows = gen.permutation(size)[:m1]
        v1 = np.round(gen.uniform(-1, 1, (n_features, m1)), 1)
        v2 = np.round(gen.uniform(-1, 1, (n_features, int(gen.integers(2, 12)))), 1)
        args = (v1, v2, gram, rows, min_child_j2)
        assert _scan(*args, workspace) == _scan(*args)

    def test_second_moment_gram_squares_the_inner_products(self):
        y = np.random.default_rng(5).standard_normal((30, 4))
        inner = y @ y.T
        assert _target_gram(y, ResponseKind.MEAN).tobytes() == inner.tobytes()
        assert _target_gram(y, ResponseKind.SECOND_MOMENT).tobytes() == (inner**2).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 200), p=st.integers(1, 50), kind=st.sampled_from(list(ResponseKind)),
           seed=st.integers(0, 2**16))
    def test_gram_is_exactly_symmetric(self, m, p, kind, seed):
        # The masked pass reads row k left of the diagonal for column k below it.
        gram = _target_gram(np.random.default_rng(seed).standard_normal((m, p)), kind)
        assert np.array_equal(gram, gram.T)


def _wide_node(m1, n_features, style, seed):
    """(v1, v2) of a node with m1 J1 rows and 30 J2 rows.  "duplicated":
    every candidate is one feature; "mirrored": that feature and its negative
    alternate; "rounded": independent features rounded to 0.1."""
    gen = np.random.default_rng(seed)
    if style == "rounded":
        return (np.round(gen.uniform(-1, 1, (n_features, m1)), 1),
                np.round(gen.uniform(-1, 1, (n_features, 30)), 1))
    sign = np.where(np.arange(n_features) % 2, -1.0, 1.0) if style == "mirrored" else 1.0
    v1, v2 = gen.uniform(-1, 1, m1), gen.uniform(-1, 1, 30)
    return np.outer(sign, v1), np.outer(sign, v2)


def _exact_best(v1, v2, node_gram, min_child_j2):
    """(candidate, threshold) of the per-feature reference scan: on equal
    deltas the lowest candidate, then the lowest threshold, wins."""
    best = None
    for f in range(len(v1)):
        hit = reference_best_split_on_feature(v1[f], v2[f], node_gram, min_child_j2)
        if hit is not None and (best is None or hit[0] > best[0]):
            best = (hit[0], f, hit[1])
    return None if best is None else best[1:]


class TestWideNodeScan:
    """Nodes wider than one window take the masked pass, and the error bound
    sends every node it cannot settle to the exact scan: the split is the
    exact scan's."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(WINDOW + 1, 200),
        data=st.data(),
        n_features=st.integers(2, 4),
        style=st.sampled_from(["mirrored", "duplicated", "rounded"]),
        kind=st.sampled_from(list(ResponseKind)),
        p=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_exact_scan(self, size, data, n_features, style, kind, p, seed):
        m1 = data.draw(st.integers(WINDOW + 1, size))
        gen = np.random.default_rng(seed)
        gram = _target_gram(gen.standard_normal((size, p)), kind)
        rows = gen.permutation(size)[:m1]
        v1, v2 = _wide_node(m1, n_features, style, seed)
        hit = _scan(v1, v2, gram, rows, 3, _workspace(size))
        want = _exact_best(v1, v2, gram[np.ix_(rows, rows)], 3)
        assert (None if hit is None else hit[1:]) == want

    def _exact_scans(self, monkeypatch, v1, v2, gram):
        calls = []
        exact = forest_module._exact_prefixes

        def counted(*args):
            calls.append(args[1].shape)
            return exact(*args)

        monkeypatch.setattr(forest_module, "_exact_prefixes", counted)
        _scan(v1, v2, gram, np.arange(len(gram)), 3)
        return calls

    def test_mirrored_node_takes_the_exact_scan(self, monkeypatch):
        # u and -u reach the same deltas from opposite ends: no margin.
        gram = _target_gram(np.random.default_rng(3).standard_normal((150, 2)), ResponseKind.MEAN)
        v1, v2 = _wide_node(150, 2, "mirrored", 3)
        assert self._exact_scans(monkeypatch, v1, v2, gram) == [(2, 150)]

    def test_plain_node_takes_only_the_masked_pass(self, monkeypatch):
        gen = np.random.default_rng(4)
        gram = _target_gram(gen.standard_normal((150, 2)), ResponseKind.SECOND_MOMENT)
        v1, v2 = gen.uniform(-1, 1, (3, 150)), gen.uniform(-1, 1, (3, 30))
        assert self._exact_scans(monkeypatch, v1, v2, gram) == []


def _traverse_leaves(tree):
    """Yield (node id, depth) for every leaf, plus omega-regularity checks."""
    out = []
    stack = [(0, 0)]
    while stack:
        nid, depth = stack.pop()
        if tree.feature[nid] < 0:
            out.append((nid, depth))
        else:
            stack.append((int(tree.left[nid]), depth + 1))
            stack.append((int(tree.right[nid]), depth + 1))
    return out


def _j2_count_below(tree, nid):
    if tree.feature[nid] < 0:
        return len(leaf_members(tree, nid))
    return _j2_count_below(tree, int(tree.left[nid])) + _j2_count_below(tree, int(tree.right[nid]))


class TestGrowTree:
    def test_forced_single_leaf(self):
        ds = make_dataset(n=10, p=2, d=1, seed=1)
        cfg = ForestConfig(n_trees=1, subsample_size=10, min_leaf=5, mtry=1)
        tree = grow_tree(ds, np.arange(5), np.arange(5, 10), ResponseKind.MEAN,
                         cfg, np.random.default_rng(0))
        # |J2| = 5 = k: no feasible split, all of J2 in the root leaf.
        assert tree.feature[0] == -1
        np.testing.assert_array_equal(np.sort(leaf_members(tree, 0)), np.arange(5, 10))

    def test_separable_depth_one(self):
        u = np.concatenate([np.linspace(0.0, 0.2, 8), np.linspace(0.8, 1.0, 8)])[:, None]
        y = np.concatenate([np.zeros(8), np.full(8, 10.0)])[:, None]
        ds = Dataset(y, u)
        j1 = np.arange(0, 16, 2)
        j2 = np.arange(1, 16, 2)
        cfg = ForestConfig(n_trees=1, subsample_size=16, min_leaf=4, mtry=1,
                           random_split_prob=1e-12)
        tree = grow_tree(ds, j1, j2, ResponseKind.MEAN, cfg, np.random.default_rng(0))
        assert tree.feature[0] == 0
        assert 0.2 < tree.threshold[0] < 0.8
        leaves = _traverse_leaves(tree)
        assert sorted(depth for _, depth in leaves) == [1, 1]

    def test_honesty_j2_responses_unread(self):
        # Zeroing the J2 rows' responses must not change the tree structure.
        ds = make_dataset(n=24, p=2, d=2, seed=9)
        j1, j2 = np.arange(12), np.arange(12, 24)
        y2 = ds.y.copy()
        y2[j2] = 0.0
        ds2 = Dataset(y2, ds.u)
        cfg = ForestConfig(n_trees=1, subsample_size=24, min_leaf=2, mtry=2)
        t1 = grow_tree(ds, j1, j2, ResponseKind.SECOND_MOMENT, cfg, np.random.default_rng(5))
        t2 = grow_tree(ds2, j1, j2, ResponseKind.SECOND_MOMENT, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(t1.feature, t2.feature)
        np.testing.assert_array_equal(t1.threshold, t2.threshold)
        for nid in range(len(t1.feature)):
            np.testing.assert_array_equal(leaf_members(t1, nid), leaf_members(t2, nid))

    def test_returns_one_tree_forest(self):
        ds = make_dataset(n=24, p=2, d=2, seed=2)
        cfg = ForestConfig(n_trees=7, subsample_size=24, min_leaf=2, mtry=2)
        j1, j2 = np.arange(0, 24, 2), np.arange(1, 24, 2)
        tree = grow_tree(ds, j1, j2, ResponseKind.MEAN, cfg, np.random.default_rng(0))
        assert isinstance(tree, Forest) and tree.n_trees == 1
        np.testing.assert_array_equal(tree.roots, [0])
        np.testing.assert_array_equal(tree.j1, j1[None])
        leaf = tree.feature < 0
        np.testing.assert_array_equal(tree.left[leaf], np.flatnonzero(leaf))
        np.testing.assert_array_equal(tree.right[leaf], np.flatnonzero(leaf))
        assert (tree.config, tree.n, tree.d) == (cfg, ds.n, ds.d)
        assert tree.dataset_fingerprint == ds.fingerprint()

    def test_j2_too_small(self):
        ds = make_dataset(n=6, p=1, d=1, seed=0)
        cfg = ForestConfig(n_trees=1, subsample_size=6, min_leaf=4, mtry=1)
        with pytest.raises(ValueError):
            grow_tree(ds, np.arange(3), np.arange(3, 6), ResponseKind.MEAN,
                      cfg, np.random.default_rng(0))

    def test_growth_memory_is_one_gram_matrix(self):
        # At |J1| = 1000 the Gram matrix is 8 MB; the windows add about 1 MB.
        size = 1000
        ds = make_dataset(n=2 * size, p=3, d=2, seed=4)
        cfg = ForestConfig(n_trees=1, subsample_size=2 * size, min_leaf=5, mtry=2)
        j1, j2 = np.arange(0, 2 * size, 2), np.arange(1, 2 * size, 2)
        tracemalloc.start()
        try:
            grow_tree(ds, j1, j2, ResponseKind.SECOND_MOMENT, cfg, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size**2 * 8

    def test_structural_invariants(self):
        ds = make_dataset(n=80, p=3, d=2, seed=3)
        cfg = ForestConfig(n_trees=20, subsample_size=60, min_leaf=3,
                           regularity=0.1, mtry=2)
        forest = train_forest(ds, cfg, ResponseKind.SECOND_MOMENT, 11)
        for tree in trees(forest):
            k = cfg.min_leaf
            assert set(tree.j1[0]) & set(j2_indices(tree)) == set()
            assert len(tree.j1[0]) + len(j2_indices(tree)) == cfg.subsample_size
            # Leaf size bounds.
            for nid, _ in _traverse_leaves(tree):
                size = len(leaf_members(tree, nid))
                if tree.oversized[nid]:
                    assert size > 2 * k - 1
                else:
                    assert k <= size <= 2 * k - 1
            # omega-regularity at every internal node.
            for nid in range(len(tree.feature)):
                if tree.feature[nid] < 0:
                    continue
                parent = _j2_count_below(tree, nid)
                for child in (int(tree.left[nid]), int(tree.right[nid])):
                    assert _j2_count_below(tree, child) >= math.ceil(cfg.regularity * parent)
            # Every J2 sample routes to the leaf that lists it.
            for i in j2_indices(tree):
                leaf = route_independent(tree, ds.u[i])
                assert int(i) in leaf_members(tree, leaf).tolist()


class TestTrainForest:
    def test_single_tree(self):
        ds = make_dataset(n=12, p=2, d=1, seed=0)
        cfg = ForestConfig(n_trees=1, min_leaf=2)
        forest = train_forest(ds, cfg, ResponseKind.MEAN, 0)
        assert forest.n_trees == 1

    def test_same_seed_identical(self):
        ds = make_dataset(n=30, p=2, d=2, seed=0)
        cfg = ForestConfig(n_trees=8, min_leaf=2)
        a = train_forest(ds, cfg, ResponseKind.MEAN, 21)
        b = train_forest(ds, cfg, ResponseKind.MEAN, 21)
        assert same_forest(a, b)

    def test_mean_and_second_moment_streams_differ(self):
        ds = make_dataset(n=30, p=2, d=2, seed=0)
        cfg = ForestConfig(n_trees=4, min_leaf=2)
        a = train_forest(ds, cfg, ResponseKind.MEAN, 0)
        b = train_forest(ds, cfg, ResponseKind.SECOND_MOMENT, 0)
        # Compare the trees, not just the response-kind tag.
        assert not same_forest(a, dataclasses.replace(b, response_kind=a.response_kind))

    def test_config_validation(self):
        ds = make_dataset(n=10, p=1, d=1, seed=0)
        with pytest.raises(ValueError):
            train_forest(ds, ForestConfig(n_trees=0), ResponseKind.MEAN, 0)
        with pytest.raises(ValueError, match="subsample size must satisfy"):
            train_forest(ds, ForestConfig(subsample_size=11), ResponseKind.MEAN, 0)
        with pytest.raises(ValueError):
            train_forest(ds, ForestConfig(regularity=0.5), ResponseKind.MEAN, 0)
        with pytest.raises(ValueError, match="mtry must satisfy"):
            train_forest(ds, ForestConfig(mtry=3, min_leaf=2), ResponseKind.MEAN, 0)

    def test_main_forest_needs_a_root_split(self):
        # s=8 leaves |J2|=4, two leaves of 2; s=7 leaves 3, one leaf of 2 only.
        assert ForestConfig(subsample_size=8, min_leaf=2).resolve_main(10, 1).subsample_size == 8
        short = ForestConfig(subsample_size=7, min_leaf=2)
        assert short.resolve(10, 1).subsample_size == 7  # what fold forests are held to
        with pytest.raises(ValueError, match=r"root split needs floor\(s/2\) >= 2\*min_leaf"):
            short.resolve_main(10, 1)


class TestConcat:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(8, 60),
        d=st.integers(1, 3),
        B=st.integers(1, 8),
        min_leaf=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(list(ResponseKind)),
    )
    def test_round_trip_and_one_tree_weights(self, n, d, B, min_leaf, seed, kind):
        n = max(n, 4 * min_leaf)  # |J2| = floor(ceil(n/2)/2) must reach min_leaf
        ds = make_dataset(n=n, p=2, d=d, seed=seed)
        ds = Dataset(ds.y, np.round(ds.u, 1))
        forest = train_forest(ds, ForestConfig(n_trees=B, min_leaf=min_leaf, mtry=d), kind, seed)
        assert same_forest(Forest.concat(trees(forest)), forest)
        points = _query_points(forest, ds, np.random.default_rng(seed))
        for tree in trees(forest):
            for u in points:
                assert to_dense(weight_vector(tree, u)).tobytes() == loop_weights(tree, u).tobytes()

    def test_metadata_must_agree(self):
        ds = make_dataset(n=20, p=1, d=2, seed=0)
        cfg = ForestConfig(n_trees=2, min_leaf=2)
        a = train_forest(ds, cfg, ResponseKind.MEAN, 0)
        b = train_forest(ds, cfg, ResponseKind.SECOND_MOMENT, 0)
        with pytest.raises(ValueError, match="different metadata"):
            Forest.concat([a, b])


def _manual_forest(n, d, leaves):
    """One single-leaf tree per member list, joined by ``Forest.concat``."""
    cfg = ForestConfig(n_trees=len(leaves), subsample_size=max(2, n // 2), min_leaf=1, mtry=1)
    return Forest.concat([_leaf_tree(members, cfg, n, d) for members in leaves])


def _leaf_tree(members, cfg, n, d):
    return Forest(
        feature=np.array([-1]),
        threshold=np.array([math.nan]),
        left=np.array([0]),
        right=np.array([0]),
        start=np.array([0]),
        count=np.array([len(members)]),
        oversized=np.array([True]),
        members=np.asarray(members, dtype=int),
        roots=np.array([0]),
        j1=np.empty((1, 0), dtype=int),
        config=cfg,
        response_kind=ResponseKind.MEAN,
        n=n,
        d=d,
        dataset_fingerprint="manual",
    )


class TestWeightVector:
    def test_single_tree_single_leaf(self):
        forest = _manual_forest(10, 1, [[3, 7]])
        w = to_dense(weight_vector(forest, np.array([0.5])))
        expected = np.zeros(10)
        expected[[3, 7]] = 0.5
        np.testing.assert_array_equal(w, expected)

    def test_two_tree_average(self):
        forest = _manual_forest(10, 1, [[3], [3, 7]])
        w = to_dense(weight_vector(forest, np.array([0.5])))
        assert w[3] == 0.75
        assert w[7] == 0.25
        assert w.sum() == 1.0

    def test_sums_to_one(self):
        ds = make_dataset(n=50, p=2, d=2, seed=8)
        cfg = ForestConfig(n_trees=30, min_leaf=3)
        forest = train_forest(ds, cfg, ResponseKind.MEAN, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = weight_vector(forest, rng.uniform(-1, 1, 2))
            assert abs(weight_total(w) - 1.0) < 1e-12
            assert np.all(w.values > 0)

    def test_honesty_support(self):
        ds = make_dataset(n=40, p=2, d=2, seed=4)
        cfg = ForestConfig(n_trees=10, min_leaf=2)
        forest = train_forest(ds, cfg, ResponseKind.MEAN, 3)
        j2_union = set()
        for tree in trees(forest):
            j2_union |= set(j2_indices(tree).tolist())
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = weight_vector(forest, rng.uniform(-1, 1, 2))
            assert set(w.indices.tolist()) <= j2_union

    def test_wrong_query_length(self):
        ds = make_dataset(n=20, p=1, d=2, seed=0)
        forest = train_forest(ds, ForestConfig(n_trees=2, min_leaf=2), ResponseKind.MEAN, 0)
        with pytest.raises(ValueError):
            weight_vector(forest, np.zeros(3))

    def test_brute_force_oracle(self):
        # Independent routing reference on tiny random configurations.
        rng = np.random.default_rng(77)
        for case in range(40):
            n = int(rng.integers(6, 13))
            d = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            B = int(rng.integers(1, 4))
            ds = make_dataset(n=n, p=p, d=d, seed=1000 + case)
            s = int(rng.integers(4, n + 1))
            cfg = ForestConfig(n_trees=B, subsample_size=s, min_leaf=1,
                               mtry=d)
            kind = ResponseKind.MEAN if case % 2 else ResponseKind.SECOND_MOMENT
            forest = train_forest(ds, cfg, kind, case)
            for _ in range(3):
                u = rng.uniform(-1, 1, d)
                got = to_dense(weight_vector(forest, u))
                np.testing.assert_array_equal(got, oracle_weights(forest, ds, u))


def _query_points(forest, ds, rng):
    """Random points, points far outside the covariate hull, training points
    and points sitting exactly on a split threshold (the <= tie)."""
    d = forest.d
    points = [rng.uniform(-1, 1, d), rng.uniform(-1, 1, d) * 50.0, np.full(d, -7.0), np.full(d, 7.0)]
    points += [ds.u[i] for i in rng.choice(ds.n, size=2, replace=False)]
    for nid in rng.choice(np.flatnonzero(forest.feature >= 0), size=3) if (forest.feature >= 0).any() else []:
        u = rng.uniform(-1, 1, d)
        u[forest.feature[nid]] = forest.threshold[nid]
        points.append(u)
    return points


class TestFlatRouter:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(8, 60),
        d=st.integers(1, 3),
        B=st.integers(1, 12),
        min_leaf=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["mean", "second_moment"]),
    )
    def test_matches_oracle_and_seed_loop_exactly(self, n, d, B, min_leaf, seed, kind):
        n = max(n, 4 * min_leaf)  # |J2| = floor(ceil(n/2)/2) must reach min_leaf
        ds = make_dataset(n=n, p=2, d=d, seed=seed)
        # Coarse covariates make many ties between rows and split thresholds.
        ds = Dataset(ds.y, np.round(ds.u, 1))
        cfg = ForestConfig(n_trees=B, min_leaf=min_leaf, mtry=d)
        forest = train_forest(ds, cfg, ResponseKind(kind), seed)
        for u in _query_points(forest, ds, np.random.default_rng(seed)):
            got = to_dense(weight_vector(forest, u))
            np.testing.assert_array_equal(got, oracle_weights(forest, ds, u))
            assert got.tobytes() == loop_weights(forest, u).tobytes()

    def test_threshold_tie_goes_left(self):
        u = np.concatenate([np.linspace(0.0, 0.2, 8), np.linspace(0.8, 1.0, 8)])[:, None]
        y = np.concatenate([np.zeros(8), np.full(8, 10.0)])[:, None]
        ds = Dataset(y, u)
        cfg = ForestConfig(n_trees=1, subsample_size=16, min_leaf=4, mtry=1,
                           random_split_prob=1e-12)
        forest = train_forest(ds, cfg, ResponseKind.MEAN, 0)
        tree = tree_view(forest, 0)
        w = weight_vector(forest, tree.threshold[:1])
        np.testing.assert_array_equal(w.indices, np.sort(leaf_members(tree, tree.left[0])))

    def test_layout_is_flat(self):
        ds = make_dataset(n=40, p=2, d=2, seed=1)
        forest = train_forest(ds, ForestConfig(n_trees=5, min_leaf=2), ResponseKind.MEAN, 1)
        N = len(forest.feature)
        assert forest.roots[0] == 0 and len(forest.roots) == 5
        leaf = forest.feature < 0
        # Leaves route to themselves; internal children are global ids in range.
        np.testing.assert_array_equal(forest.left[leaf], np.flatnonzero(leaf))
        np.testing.assert_array_equal(forest.right[leaf], np.flatnonzero(leaf))
        assert ((forest.left[~leaf] > 0) & (forest.right[~leaf] < N)).all()
        assert (forest.count[~leaf] == 0).all() and (forest.count[leaf] >= 2).all()
        assert forest.count.sum() == len(forest.members)
        # Tree views share the forest's memory rather than copying it.
        tree = tree_view(forest, 2)
        assert np.shares_memory(tree.feature, forest.feature)
        assert np.shares_memory(tree.members, forest.members)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        ds = make_dataset(n=20, p=1, d=2, seed=0)
        forest = train_forest(ds, ForestConfig(n_trees=3, min_leaf=2), ResponseKind.MEAN, 0)
        with pytest.raises(ValueError, match="coordinate 1 is not finite"):
            weight_vector(forest, np.array([0.0, bad]))
