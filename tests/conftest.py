"""Shared helpers for the test suite."""

import dataclasses

import numpy as np
import pytest

from dyncov.data import Dataset
from dyncov.forest import Forest


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
