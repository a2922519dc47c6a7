"""Honest, subsampled, regularized trees and forest similarity weights.

Each tree is grown on an s-of-n subsample that is split into two halves:
J1 targets plus J1/J2 covariates choose the splits, J2 alone populates the
leaves.  A query point's weight vector spreads mass 1/B across the J2
members of the leaf it reaches in every tree.

Split quality is the squared distance between child target means scaled by
n1*n2/nP^2.  For second-moment targets the p^2-vectors vec(y y^T) are never
materialized during growth: their inner products reduce to squared response
inner products, so all split scores come from a per-tree Gram matrix.

Layout.  ``grow_tree`` returns one :class:`Tree`; ``train_forest`` packs the
B trees of a :class:`Forest` into one set of flat arrays over all its nodes:

- ``feature``, ``threshold``, ``left``, ``right`` with global node ids.  A
  leaf has feature -1 and is its own left and right child, so routing can
  step every tree at once and leaves stay put;
- ``roots``: the root id of each tree; tree b owns nodes
  ``roots[b]:roots[b + 1]``;
- leaf members in CSR form: one ``members`` array of dataset indices plus a
  ``start`` and a ``count`` per node (count 0 at internal nodes).

``weight_vector`` routes a query point through all B trees together, one
NumPy step per tree level, and adds up the leaves' weights with
``np.bincount``.  ``Forest.trees`` rebuilds per-tree views for inspection;
nothing on the estimation path uses them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _streams
from .data import Dataset


class ResponseKind(enum.Enum):
    """What a forest's trees target: responses y, or second moments vec(y y^T)."""

    MEAN = "mean"
    SECOND_MOMENT = "second_moment"


@dataclass(frozen=True)
class ForestConfig:
    """Tuning knobs for honest-forest training.

    ``subsample_size=None`` resolves to ceil(n/2) and ``mtry=None`` to
    ceil(sqrt(d)) at training time.
    """

    n_trees: int = 500
    subsample_size: int | None = None
    min_leaf: int = 5
    regularity: float = 0.05
    random_split_prob: float = 0.05
    mtry: int | None = None
    seed: int = 0

    def resolve(self, n: int, d: int) -> "ForestConfig":
        s = self.subsample_size if self.subsample_size is not None else math.ceil(n / 2)
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(d))
        cfg = replace(self, subsample_size=s, mtry=mtry)
        cfg.validate(n, d)
        return cfg

    def validate(self, n: int, d: int) -> None:
        s, mtry = self.subsample_size, self.mtry
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if s is None or not 2 <= s <= n:
            raise ValueError(f"subsample size must satisfy 2 <= s <= n, got s={s}, n={n}")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.min_leaf > s // 2:
            raise ValueError(
                f"min_leaf={self.min_leaf} exceeds the J2 half-sample size floor(s/2)={s // 2} (s={s})"
            )
        if not 0 < self.regularity <= 0.2:
            raise ValueError("regularity must lie in (0, 0.2]")
        if not 0 < self.random_split_prob <= 1:
            raise ValueError("random_split_prob must lie in (0, 1]")
        if mtry is None or not 1 <= mtry <= d:
            raise ValueError(f"mtry must satisfy 1 <= mtry <= d, got {mtry}, d={d}")


@dataclass
class Tree:
    """Binary tree over covariate space with its J2 members at the leaves.

    Node ids are local, with the root at 0.  Internal node i splits on
    ``feature[i]`` at ``threshold[i]`` (<= goes left) into ``left[i]`` and
    ``right[i]``; leaves have feature -1 and children -1.  Leaf i holds the
    dataset indices ``members[start[i]:start[i] + count[i]]`` of its J2
    members; internal nodes have count 0.  ``oversized`` flags leaves kept
    above the 2k-1 bound because no feasible split existed.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    start: np.ndarray
    count: np.ndarray
    members: np.ndarray
    j1_indices: np.ndarray
    oversized: np.ndarray

    @property
    def j2_indices(self) -> np.ndarray:
        """The J2 half of the subsample: the leaves partition it."""
        return np.sort(self.members)

    def leaf_members(self, nid: int) -> np.ndarray:
        return self.members[self.start[nid] : self.start[nid] + self.count[nid]]


@dataclass
class Forest:
    """B honest trees packed into flat node arrays; see the module docstring."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    start: np.ndarray
    count: np.ndarray
    oversized: np.ndarray
    members: np.ndarray
    roots: np.ndarray
    j1: np.ndarray  # (B, |J1|): every tree of a forest draws the same subsample size
    config: ForestConfig
    response_kind: ResponseKind
    n: int
    d: int
    dataset_fingerprint: str

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @classmethod
    def from_trees(cls, trees: list[Tree], config: ForestConfig, response_kind: ResponseKind,
                   n: int, d: int, dataset_fingerprint: str) -> "Forest":
        """Pack trees into the flat layout, shifting node ids and member offsets."""
        sizes = [len(t.feature) for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        member_offsets = np.cumsum([0] + [len(t.members) for t in trees[:-1]])
        nodes = np.arange(sum(sizes))
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        shift = np.repeat(roots, sizes)
        return cls(
            feature=feature,
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.where(leaf, nodes, np.concatenate([t.left for t in trees]) + shift),
            right=np.where(leaf, nodes, np.concatenate([t.right for t in trees]) + shift),
            start=np.concatenate([t.start for t in trees]) + np.repeat(member_offsets, sizes),
            count=np.concatenate([t.count for t in trees]),
            oversized=np.concatenate([t.oversized for t in trees]),
            members=np.concatenate([t.members for t in trees]),
            roots=roots,
            j1=np.stack([t.j1_indices for t in trees]),
            config=config,
            response_kind=response_kind,
            n=n,
            d=d,
            dataset_fingerprint=dataset_fingerprint,
        )

    def tree(self, b: int) -> Tree:
        """Tree b with local node ids.

        Its arrays are slices of the forest's, except ``left``, ``right`` and
        ``start``, which are shifted to the tree's own ids and offsets.
        """
        lo = int(self.roots[b])
        hi = int(self.roots[b + 1]) if b + 1 < self.n_trees else len(self.feature)
        feature = self.feature[lo:hi]
        start = self.start[lo:hi]
        count = self.count[lo:hi]
        first = int(start.min())
        leaf = feature < 0
        return Tree(
            feature=feature,
            threshold=self.threshold[lo:hi],
            left=np.where(leaf, -1, self.left[lo:hi] - lo),
            right=np.where(leaf, -1, self.right[lo:hi] - lo),
            start=start - first,
            count=count,
            members=self.members[first : first + int(count.sum())],
            j1_indices=self.j1[b],
            oversized=self.oversized[lo:hi],
        )

    @property
    def trees(self) -> list[Tree]:
        return [self.tree(b) for b in range(self.n_trees)]


@dataclass(frozen=True)
class WeightVector:
    """Sparse nonnegative similarity weights over the n training indices."""

    n: int
    indices: np.ndarray
    values: np.ndarray

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n)
        dense[self.indices] = self.values
        return dense

    def total(self) -> float:
        return float(self.values.sum())


def subsample(n: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform s-of-n index subset without replacement, sorted."""
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    return np.sort(rng.choice(n, size=s, replace=False))


def split_sample(indices: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random partition into halves of sizes ceil(m/2) and floor(m/2)."""
    indices = np.asarray(indices)
    m = len(indices)
    if m < 2:
        raise ValueError("need at least 2 indices to split")
    perm = rng.permutation(m)
    cut = math.ceil(m / 2)
    return np.sort(indices[perm[:cut]]), np.sort(indices[perm[cut:]])


def delta_criterion(sum1: np.ndarray, n1: int, sum2: np.ndarray, n2: int, n_parent: int) -> float:
    """Split score ||sum1/n1 - sum2/n2||^2 * n1*n2 / n_parent^2."""
    if n1 < 1 or n2 < 1:
        raise ValueError("child counts must be >= 1")
    diff = np.asarray(sum1, dtype=float) / n1 - np.asarray(sum2, dtype=float) / n2
    return float(diff @ diff * n1 * n2 / n_parent**2)


def _target_gram(y_j1: np.ndarray, kind: ResponseKind) -> np.ndarray:
    """Inner products of the (virtual) target vectors of the J1 rows."""
    inner = y_j1 @ y_j1.T
    return inner**2 if kind is ResponseKind.SECOND_MOMENT else inner


def _best_split_on_feature(v1, v2, gram, min_child_j2):
    """Best (delta, threshold) on one feature, or None if nothing is feasible.

    v1/v2 are the node's J1/J2 values of the feature; gram is the node's J1
    target Gram matrix aligned with v1.
    """
    m1, m2 = len(v1), len(v2)
    values = np.unique(np.concatenate([v1, v2]))
    if len(values) < 2:
        return None
    thresholds = (values[:-1] + values[1:]) / 2.0

    order = np.argsort(v1, kind="stable")
    v1s = v1[order]
    g = gram[np.ix_(order, order)]
    # Prefix quantities over the sorted J1 points: after taking the first m
    # points left, ||S_left||^2 is the double prefix sum and S_left . S_total
    # is the prefix of row sums.
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
    best = int(np.argmax(delta))  # first max -> lowest threshold on ties
    return float(delta[best]), float(thresholds[idx[best]])


def best_split(u_j1, gram, u_j2, config: ForestConfig, rng: np.random.Generator, d: int):
    """Choose a split for a node, or None to make it a leaf.

    With probability ``random_split_prob`` one feature is drawn uniformly and
    only it is scanned; otherwise ``mtry`` candidate features compete on the
    delta criterion.  Any split must leave each child >= max(k, ceil(omega *
    node J2 count)) J2 points and >= 1 J1 point.
    """
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
        cand = _best_split_on_feature(u_j1[:, f], u_j2[:, f], gram, min_child_j2)
        if cand is None:
            continue
        delta, thr = cand
        if best is None or delta > best[0]:
            best = (delta, f, thr)
    if best is None:
        return None
    return best[1], best[2]


def grow_tree(
    dataset: Dataset,
    j1: np.ndarray,
    j2: np.ndarray,
    response_kind: ResponseKind,
    config: ForestConfig,
    rng: np.random.Generator,
) -> Tree:
    """Grow one honest tree: J1 targets drive splits, J2 fills the leaves."""
    j1 = np.sort(np.asarray(j1, dtype=int))
    j2 = np.sort(np.asarray(j2, dtype=int))
    if len(j2) < config.min_leaf:
        raise ValueError(f"|J2|={len(j2)} below min_leaf={config.min_leaf}")
    u = dataset.u
    gram_all = _target_gram(dataset.y[j1], response_kind)
    d = dataset.d

    feature, threshold, left, right = [], [], [], []
    start, count, oversized = [], [], []
    chunks: list[np.ndarray] = []  # leaf members, in the order leaves are closed
    filled = 0

    def new_node() -> int:
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
        split = best_split(u[j1[p1]], gram_all[np.ix_(p1, p1)], u[j2[p2]], config, rng, d)
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
        # Push right first so the left branch is grown (and draws RNG) first.
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


def train_forest(dataset: Dataset, config: ForestConfig, response_kind: ResponseKind) -> Forest:
    """Train B honest trees on independent subsamples, one after another.

    Each tree draws from its own RNG stream keyed on (seed, kind, tree index),
    so no tree's draws depend on the order the trees are grown in.
    """
    cfg = config.resolve(dataset.n, dataset.d)
    kind_tag = 0 if response_kind is ResponseKind.MEAN else 1
    trees = []
    for b in range(cfg.n_trees):
        rng = _streams.substream(cfg.seed, _streams.TREE, kind_tag, b)
        j1, j2 = split_sample(subsample(dataset.n, cfg.subsample_size, rng), rng)
        trees.append(grow_tree(dataset, j1, j2, response_kind, cfg, rng))
    return Forest.from_trees(trees, cfg, response_kind, dataset.n, dataset.d, dataset.fingerprint())


def weight_vector(forest: Forest, u: np.ndarray) -> WeightVector:
    """Co-leaf similarity weights of the training indices for query point u.

    A (B,) vector of node ids starts at the roots and every tree advances one
    level per step until all entries sit on leaves (which route to
    themselves).  ``bincount`` then adds 1/(B |leaf|) over the leaves'
    members in tree order, the order of a loop over trees, so the weights
    are bit-for-bit that loop's.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (forest.d,):
        raise ValueError(f"query point must have length d={forest.d}, got shape {u.shape}")
    if not np.isfinite(u).all():
        j = int(np.flatnonzero(~np.isfinite(u))[0])
        raise ValueError(f"query point coordinate {j} is not finite ({u[j]})")
    node = forest.roots
    feat = forest.feature[node]
    # Loop while some tree is not at a leaf yet (argmax is cheaper than max).
    while feat[feat.argmax()] >= 0:
        node = np.where(u[feat] <= forest.threshold[node], forest.left[node], forest.right[node])
        feat = forest.feature[node]
    count = forest.count[node]
    ends = np.cumsum(count)
    # Positions of every reached leaf's members, leaf after leaf.
    pos = np.arange(ends[-1]) + np.repeat(forest.start[node] - (ends - count), count)
    vals = 1.0 / np.repeat(len(node) * count, count)
    dense = np.bincount(forest.members[pos], weights=vals, minlength=forest.n)
    idx = np.flatnonzero(dense)
    return WeightVector(n=forest.n, indices=idx, values=dense[idx])
