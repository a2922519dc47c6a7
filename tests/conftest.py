"""Shared helpers for the test suite."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from dyncov import forest as forest_module
from dyncov.data import Dataset
from dyncov.forest import Forest, Tree, _target_gram


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_dataset(n=20, p=3, d=2, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset(gen.standard_normal((n, p)), gen.uniform(-1, 1, (n, d)))


def vec_outer(y):
    """Column-stacked outer product: entry (j, r) of y y^T at flat position j + r * p."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("vec_outer expects a 1-d vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("vec_outer requires finite input")
    return np.outer(y, y).ravel(order="F")


def same_forest(a, b):
    """True when two forests agree bit for bit: every flat array and all metadata."""
    for f in dataclasses.fields(Forest):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


def route_independent(tree, u):
    """Reference routing that re-walks the node arrays from scratch."""
    nid = 0
    while tree.feature[nid] >= 0:
        if u[tree.feature[nid]] <= tree.threshold[nid]:
            nid = int(tree.left[nid])
        else:
            nid = int(tree.right[nid])
    return nid


def oracle_weights(forest, dataset, u):
    """Brute-force reference for weight_vector.

    Routes the query point and every J2 sample of every tree through the
    node arrays independently, then accumulates co-leaf frequencies.
    """
    dense = np.zeros(dataset.n)
    B = len(forest.trees)
    for tree in forest.trees:
        leaf = route_independent(tree, u)
        members = [int(i) for i in tree.j2_indices if route_independent(tree, dataset.u[i]) == leaf]
        if not members:
            continue
        for i in members:
            dense[i] += 1.0 / (B * len(members))
    return dense


def loop_weights(forest, u):
    """The per-tree loop that computed weight_vector before the flat layout.

    Kept as the bit-for-bit reference for the vectorized router: it walks
    each tree in turn and adds 1/(B |leaf|) to the reached leaf's members.
    """
    dense = np.zeros(forest.n)
    B = forest.n_trees
    for tree in forest.trees:
        nid = 0
        while tree.feature[nid] >= 0:
            nid = tree.left[nid] if u[tree.feature[nid]] <= tree.threshold[nid] else tree.right[nid]
        members = tree.leaf_members(nid)
        if len(members) == 0:  # cannot occur under the leaf-size invariant
            continue
        dense[members] += 1.0 / (B * len(members))
    return dense


def reference_best_split_on_feature(v1, v2, gram, min_child_j2):
    """The per-feature split scan that preceded the one-scan-per-node search.

    Kept, with ``reference_best_split`` and ``reference_grow_tree``, as the
    bit-for-bit reference for tree growth: it sorts one feature at a time
    and gathers its Gram block from the node's own Gram copy.
    """
    m1, m2 = len(v1), len(v2)
    values = np.unique(np.concatenate([v1, v2]))
    if len(values) < 2:
        return None
    thresholds = (values[:-1] + values[1:]) / 2.0

    order = np.argsort(v1, kind="stable")
    v1s = v1[order]
    g = gram[np.ix_(order, order)]
    double_prefix = g.cumsum(axis=0).cumsum(axis=1).diagonal()
    row_sums = g.sum(axis=1)
    dot_total_prefix = np.cumsum(row_sums)
    total_norm = float(row_sums.sum())

    n1_left = np.searchsorted(v1s, thresholds, side="right")
    n2_left = np.searchsorted(np.sort(v2), thresholds, side="right")
    feasible = (
        (n1_left >= 1)
        & (n1_left <= m1 - 1)
        & (n2_left >= min_child_j2)
        & (m2 - n2_left >= min_child_j2)
    )
    if not feasible.any():
        return None

    idx = np.flatnonzero(feasible)
    nl = n1_left[idx]
    nr = m1 - nl
    s_left = double_prefix[nl - 1]
    d_left = dot_total_prefix[nl - 1]
    cross = d_left - s_left
    s_right = total_norm - 2.0 * d_left + s_left
    delta = (s_left / nl**2 - 2.0 * cross / (nl * nr) + s_right / nr**2) * nl * nr / m1**2
    best = int(np.argmax(delta))
    return float(delta[best]), float(thresholds[idx[best]])


def reference_best_split(u_j1, gram, u_j2, config, rng, d):
    """Loop over the candidate features; a strictly larger delta replaces the best."""
    m1, m2 = len(u_j1), len(u_j2)
    if m1 < 2 or m2 < 2 * config.min_leaf:
        return None
    min_child_j2 = max(config.min_leaf, math.ceil(config.regularity * m2))

    if rng.random() < config.random_split_prob:
        features = [int(rng.integers(d))]
    else:
        features = sorted(int(f) for f in rng.choice(d, size=config.mtry, replace=False))

    best = None
    for f in features:
        cand = reference_best_split_on_feature(u_j1[:, f], u_j2[:, f], gram, min_child_j2)
        if cand is None:
            continue
        delta, thr = cand
        if best is None or delta > best[0]:
            best = (delta, f, thr)
    if best is None:
        return None
    return best[1], best[2]


def reference_grow_tree(dataset, j1, j2, response_kind, config, rng):
    """Grow one tree with ``reference_best_split``, copying each node's Gram block."""
    j1 = np.sort(np.asarray(j1, dtype=int))
    j2 = np.sort(np.asarray(j2, dtype=int))
    if len(j2) < config.min_leaf:
        raise ValueError(f"|J2|={len(j2)} below min_leaf={config.min_leaf}")
    u = dataset.u
    gram_all = _target_gram(dataset.y[j1], response_kind)
    d = dataset.d

    feature, threshold, left, right = [], [], [], []
    start, count, oversized = [], [], []
    chunks = []
    filled = 0

    def new_node():
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        start.append(0)
        count.append(0)
        oversized.append(False)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(len(j1)), np.arange(len(j2)))]
    while stack:
        nid, p1, p2 = stack.pop()
        split = reference_best_split(u[j1[p1]], gram_all[np.ix_(p1, p1)], u[j2[p2]], config, rng, d)
        if split is None:
            chunks.append(j2[p2])
            start[nid], count[nid] = filled, len(p2)
            filled += len(p2)
            oversized[nid] = len(p2) > 2 * config.min_leaf - 1
            continue
        f, thr = split
        feature[nid], threshold[nid] = f, thr
        mask1 = u[j1[p1], f] <= thr
        mask2 = u[j2[p2], f] <= thr
        lid, rid = new_node(), new_node()
        left[nid], right[nid] = lid, rid
        stack.append((rid, p1[~mask1], p2[~mask2]))
        stack.append((lid, p1[mask1], p2[mask2]))

    return Tree(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        start=np.asarray(start, dtype=int),
        count=np.asarray(count, dtype=int),
        members=np.concatenate(chunks),
        j1_indices=j1,
        oversized=np.asarray(oversized, dtype=bool),
    )


def reference_forest(dataset, config, response_kind):
    """``train_forest`` with every tree grown by ``reference_grow_tree``."""
    with mock.patch.object(forest_module, "grow_tree", reference_grow_tree):
        return forest_module.train_forest(dataset, config, response_kind)
