"""Honest, subsampled, regularized trees and forest similarity weights.

Each tree is grown on an s-of-n subsample that is split into two halves:
J1 targets plus J1/J2 covariates choose the splits, J2 alone populates the
leaves.  A query point's weight vector spreads mass 1/B across the J2
members of the leaf it reaches in every tree.

Split quality is the squared distance between child target means scaled by
n1*n2/nP^2.  For second-moment targets the p^2-vectors vec(y y^T) are never
materialized during growth: their inner products reduce to squared response
inner products, so all split scores come from a per-tree Gram matrix.

Split search makes one scan per node over its F candidate features.  Each
sort covers all F at once: a stable argsort of their J1 values, and a sort
of the merged J1/J2 values, whose adjacent distinct values give the candidate
thresholds at their midpoints.  Every feasible delta of every candidate goes
into one array, and its first maximum picks the split, so on equal deltas
the lowest feature, then the lowest threshold, wins.  Only the m1 x m1 work
runs per candidate: its block of the tree's Gram matrix, in the candidate's
sorted order, is streamed through a window of WINDOW rows and reduced to the
prefix sums the delta needs, with every sum's operands in the order of a
whole-block pass.  The window is one workspace per tree of (2w + 1) |J1|
floats, w = min(WINDOW, |J1|), so growth holds the |J1|^2 Gram matrix and
little else, and the nodes of a tree reuse memory instead of mapping fresh
blocks.

Layout.  A :class:`Forest` holds its trees in one set of flat arrays over
all its nodes, and a tree is a forest of one: ``grow_tree`` returns a
one-tree forest with local node ids, and ``train_forest`` joins the B trees
with :meth:`Forest.concat`, which shifts node ids and member offsets.

- ``feature``, ``threshold``, ``left``, ``right``: node i sends u to
  ``left[i]`` when ``u[feature[i]] <= threshold[i]``, else to ``right[i]``.
  A leaf has feature -1 and is its own left and right child, so routing can
  step every tree at once and leaves stay put;
- ``roots``: the root id of each tree; tree b owns nodes
  ``roots[b]:roots[b + 1]``, and ``j1[b]`` holds its J1 rows;
- leaf members in CSR form: one ``members`` array of dataset indices plus a
  ``start`` and a ``count`` per node (count 0 at internal nodes);
  ``oversized`` flags leaves above the 2k-1 bound that no split could cut.

``weight_vector`` routes a query point through all B trees together, one
NumPy step per tree level, and adds up the leaves' weights with
``np.bincount``.
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
    """Tuning knobs for honest-forest training; the seed is ``train_forest``'s argument.

    ``subsample_size=None`` resolves to ceil(n/2) and ``mtry=None`` to
    ceil(sqrt(d)) at training time.
    """

    n_trees: int = 500
    subsample_size: int | None = None
    min_leaf: int = 5
    regularity: float = 0.05
    random_split_prob: float = 0.05
    mtry: int | None = None

    def resolve(self, n: int, d: int) -> "ForestConfig":
        """``check``, then s and mtry filled in and checked for n rows of dimension d."""
        self.check()
        s = self.subsample_size if self.subsample_size is not None else math.ceil(n / 2)
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(d))
        if not 2 <= s <= n:
            raise ValueError(f"subsample size must satisfy 2 <= s <= n, got s={s}, n={n}")
        if self.min_leaf > s // 2:
            raise ValueError(
                f"min_leaf={self.min_leaf} exceeds the J2 half-sample size floor(s/2)={s // 2} (s={s})"
            )
        if not 1 <= mtry <= d:
            raise ValueError(f"mtry must satisfy 1 <= mtry <= d, got {mtry}, d={d}")
        return replace(self, subsample_size=s, mtry=mtry)

    def resolve_main(self, n: int, d: int) -> "ForestConfig":
        """``resolve``, refused also when no tree could split at its root: a root
        split leaves min_leaf J2 rows on each side, so floor(s/2) >= 2 * min_leaf.

        Only the drivers' main forests are held to this; the fold forests of
        ``ForestCV`` are only resolved.
        """
        cfg = self.resolve(n, d)
        s, k = cfg.subsample_size, cfg.min_leaf
        if s // 2 < 2 * k:
            raise ValueError(
                f"no tree could split: a root split needs floor(s/2) >= 2*min_leaf, "
                f"got floor(s/2)={s // 2} (s={s}) and min_leaf={k}"
            )
        return cfg

    def check(self) -> None:
        """The rules that hold whatever the data: at least one tree, a leaf
        size of at least one, and omega and the random-split probability
        finite numbers in their ranges."""
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        # A NaN fails both comparisons, and so does an infinity.
        if not 0 < self.regularity <= 0.2:
            raise ValueError(f"regularity must be finite and lie in (0, 0.2], got {self.regularity}")
        if not 0 < self.random_split_prob <= 1:
            raise ValueError(
                f"random_split_prob must be finite and lie in (0, 1], got {self.random_split_prob}"
            )


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

    @staticmethod
    def concat(parts: list["Forest"]) -> "Forest":
        """The trees of ``parts`` in order, as one forest; node ids and member
        offsets are shifted, and every part must share the same metadata."""
        first = parts[0]
        meta = ("config", "response_kind", "n", "d", "dataset_fingerprint")
        if any(getattr(f, k) != getattr(first, k) for f in parts for k in meta):
            raise ValueError("cannot concatenate forests with different metadata")
        sizes = [len(f.feature) for f in parts]
        firsts = np.cumsum([0] + sizes[:-1])  # each part's first node id
        offsets = np.cumsum([0] + [len(f.members) for f in parts[:-1]])
        node_shift, member_shift = np.repeat(firsts, sizes), np.repeat(offsets, sizes)

        def cat(name):
            return np.concatenate([getattr(f, name) for f in parts])

        return replace(
            first,
            feature=cat("feature"),
            threshold=cat("threshold"),
            left=cat("left") + node_shift,
            right=cat("right") + node_shift,
            start=cat("start") + member_shift,
            count=cat("count"),
            oversized=cat("oversized"),
            members=cat("members"),
            roots=np.concatenate([f.roots + k for f, k in zip(parts, firsts)]),
            j1=cat("j1"),
        )


@dataclass(frozen=True)
class WeightVector:
    """Sparse nonnegative similarity weights over the n training indices."""

    n: int
    indices: np.ndarray
    values: np.ndarray


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


def _target_gram(y_j1: np.ndarray, kind: ResponseKind) -> np.ndarray:
    """Inner products of the (virtual) target vectors of the J1 rows.

    For second moments <vec(y y^T), vec(z z^T)> = (y . z)^2, squared in place.
    """
    inner = y_j1 @ y_j1.T
    if kind is ResponseKind.SECOND_MOMENT:
        np.square(inner, out=inner)
    return inner


WINDOW = 64  # Gram block rows that _scan reduces at a time


def _workspace(size: int) -> np.ndarray:
    """One flat buffer of (2w + 1) * size floats, w = min(WINDOW, size), for
    ``_scan``'s Gram windows: w gathered rows of the tree's Gram matrix, and
    w + 1 rows of a candidate's block, the first of them the carry row.

    A tree makes one and all its nodes reuse it: under glibc's malloc,
    freeing it lets the next tree's come from the heap and reuse its pages
    instead of being mapped afresh.
    """
    return np.empty((2 * min(WINDOW, size) + 1) * size)


def _scan(v1, v2, gram, rows, min_child_j2, workspace=None):
    """Best (delta, candidate, threshold) over F candidate features, or None.

    v1 (F, m1) and v2 (F, m2) hold the node's J1 and J2 values of each
    candidate; ``gram[np.ix_(rows, rows)]`` is the node's J1 target Gram
    matrix, with rows aligned with the columns of v1.  All F candidates are
    scanned together; only the Gram prefix sums are built one candidate at a
    time, from its block in sorted order, w = min(WINDOW, len(gram)) rows at
    a time.  The windows are gathered into ``workspace``, a flat buffer of
    at least (2w + 1) * len(gram) floats whose contents are overwritten (see
    :func:`_workspace`; one is made when none is given), so a tree's nodes
    reuse the same memory.
    """
    m1, m2 = v1.shape[1], v2.shape[1]
    order = np.argsort(v1, axis=1, kind="stable")
    v1s, v2s = np.sort(v1, axis=1), np.sort(v2, axis=1)
    merged = np.sort(np.concatenate([v1s, v2s], axis=1), axis=1)
    # Candidate thresholds: midpoints of adjacent distinct values, the same
    # set as the midpoints of np.unique; repeated values give no candidate.
    lo, hi = merged[:, :-1], merged[:, 1:]
    thresholds = (lo + hi) / 2.0
    # Count against each threshold itself, not its gap: the midpoint of two
    # adjacent doubles rounds onto one of them.
    n1_left = np.empty(thresholds.shape, dtype=np.intp)
    n2_left = np.empty(thresholds.shape, dtype=np.intp)
    for f in range(len(v1)):
        n1_left[f] = v1s[f].searchsorted(thresholds[f], side="right")
        n2_left[f] = v2s[f].searchsorted(thresholds[f], side="right")
    feasible = (
        (lo != hi)
        & (n1_left >= 1)
        & (n1_left <= m1 - 1)
        & (n2_left >= min_child_j2)
        & (m2 - n2_left >= min_child_j2)
    )
    cand, t = np.nonzero(feasible)  # candidate-major, thresholds ascending
    if len(cand) == 0:
        return None

    # Prefix quantities over each candidate's sorted J1 points: after taking
    # the first m points left, ||S_left||^2 is the double prefix sum and
    # S_left . S_total is the prefix of row sums.  Rows a:b of the block are
    # gathered into g, a C-contiguous array of whole rows, since the row
    # sums' pairwise order follows the memory layout.  The column prefix
    # sums continue from the carry, the last column-prefix row of the
    # previous window, kept in the row above g (the first window has none,
    # so its first row is taken as is); the row prefix sums stop at column b,
    # since only the diagonal is read.
    sorted_rows = rows[order]
    double_prefix = np.zeros((len(v1), m1))
    row_sums = np.zeros((len(v1), m1))
    size = len(gram)
    w = min(WINDOW, size)
    if workspace is None:
        workspace = _workspace(size)
    windows = []
    for a in range(0, m1, w):
        b = min(a + w, m1)
        taken = workspace[: (b - a) * size].reshape(b - a, size)
        block = workspace[w * size : w * size + (b - a + 1) * m1].reshape(b - a + 1, m1)
        g = block[1:]
        windows.append((a, b, taken, block, g, block if a else g, g[:, :b]))
    for f in np.flatnonzero(feasible.any(axis=1)):
        r = sorted_rows[f]
        for a, b, taken, block, g, columns, lower in windows:
            # mode="clip" lets take write into out unbuffered; every index is in range.
            gram.take(r[a:b], axis=0, out=taken, mode="clip")
            taken.take(r, axis=1, out=g, mode="clip")
            row_sums[f, a:b] = g.sum(axis=1)
            columns.cumsum(axis=0, out=columns)
            if b < m1:
                block[0] = g[-1]
            lower.cumsum(axis=1, out=lower)
            double_prefix[f, a:b] = g.diagonal(a)
    dot_total_prefix = row_sums.cumsum(axis=1)
    total_norm = row_sums.sum(axis=1)

    nl = n1_left[cand, t]
    nr = m1 - nl
    s_left = double_prefix[cand, nl - 1]
    d_left = dot_total_prefix[cand, nl - 1]
    cross = d_left - s_left
    s_right = total_norm[cand] - 2.0 * d_left + s_left
    delta = (s_left / nl**2 - 2.0 * cross / (nl * nr) + s_right / nr**2) * nl * nr / m1**2
    # First max: the first candidate reaching the best delta, at its lowest threshold.
    best = int(np.argmax(delta))
    return float(delta[best]), int(cand[best]), float(thresholds[cand[best], t[best]])


def best_split(
    u_j1, u_j2, gram, rows, config: ForestConfig, rng: np.random.Generator, d: int, workspace=None
):
    """Choose a split for a node, or None to make it a leaf.

    u_j1/u_j2 are the node's J1/J2 covariates and ``gram[np.ix_(rows,
    rows)]`` its J1 target Gram matrix, in the row order of u_j1.  With
    probability ``random_split_prob`` one feature is drawn uniformly and only
    it is scanned; otherwise ``mtry`` candidate features compete on the delta
    criterion, all in one scan of the node.  Each candidate's Gram block is
    read from ``gram`` in its sorted order, one candidate and one window of
    rows at a time, through ``workspace`` when one is given (see
    :func:`_scan`).  On equal deltas the lowest feature, then the lowest
    threshold, wins.  Any split must leave each child >= max(k, ceil(omega *
    node J2 count)) J2 points and >= 1 J1 point.
    """
    m1, m2 = len(u_j1), len(u_j2)
    if m1 < 2 or m2 < 2 * config.min_leaf:
        return None
    min_child_j2 = max(config.min_leaf, math.ceil(config.regularity * m2))

    if rng.random() < config.random_split_prob:
        features = np.array([rng.integers(d)])
    else:
        features = np.sort(rng.choice(d, size=config.mtry, replace=False))

    hit = _scan(u_j1[:, features].T, u_j2[:, features].T, gram, rows, min_child_j2, workspace)
    if hit is None:
        return None
    return int(features[hit[1]]), hit[2]


def grow_tree(
    dataset: Dataset,
    j1: np.ndarray,
    j2: np.ndarray,
    response_kind: ResponseKind,
    config: ForestConfig,
    rng: np.random.Generator,
) -> Forest:
    """Grow one honest tree as a one-tree forest with local node ids: J1
    targets drive splits, J2 fills the leaves.  Growth holds the |J1|^2 Gram
    matrix and one window workspace of (2w + 1) |J1| floats (see
    :func:`_workspace`), which every node's split scan reuses."""
    j1 = np.sort(np.asarray(j1, dtype=int))
    j2 = np.sort(np.asarray(j2, dtype=int))
    if len(j2) < config.min_leaf:
        raise ValueError(f"|J2|={len(j2)} below min_leaf={config.min_leaf}")
    u1, u2 = dataset.u[j1], dataset.u[j2]
    gram_all = _target_gram(dataset.y[j1], response_kind)
    workspace = _workspace(len(j1))
    d = dataset.d

    feature, threshold, left, right = [], [], [], []
    start, count, oversized = [], [], []
    chunks: list[np.ndarray] = []  # leaf members, in the order leaves are closed
    filled = 0

    def new_node() -> int:
        nid = len(feature)
        feature.append(-1)
        threshold.append(math.nan)
        left.append(nid)  # a leaf is its own child until it is split
        right.append(nid)
        start.append(0)
        count.append(0)
        oversized.append(False)
        return nid

    root = new_node()
    stack = [(root, np.arange(len(j1)), np.arange(len(j2)))]
    while stack:
        nid, p1, p2 = stack.pop()
        split = best_split(u1[p1], u2[p2], gram_all, p1, config, rng, d, workspace)
        if split is None:
            chunks.append(j2[p2])
            start[nid], count[nid] = filled, len(p2)
            filled += len(p2)
            oversized[nid] = len(p2) > 2 * config.min_leaf - 1
            continue
        f, thr = split
        feature[nid], threshold[nid] = f, thr
        mask1 = u1[p1, f] <= thr
        mask2 = u2[p2, f] <= thr
        lid, rid = new_node(), new_node()
        left[nid], right[nid] = lid, rid
        # Push right first so the left branch is grown (and draws RNG) first.
        stack.append((rid, p1[~mask1], p2[~mask2]))
        stack.append((lid, p1[mask1], p2[mask2]))

    return Forest(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        start=np.asarray(start, dtype=int),
        count=np.asarray(count, dtype=int),
        oversized=np.asarray(oversized, dtype=bool),
        members=np.concatenate(chunks),
        roots=np.zeros(1, dtype=int),
        j1=j1[None],
        config=config,
        response_kind=response_kind,
        n=dataset.n,
        d=dataset.d,
        dataset_fingerprint=dataset.fingerprint(),
    )


def train_forest(
    dataset: Dataset, config: ForestConfig, response_kind: ResponseKind, seed: int
) -> Forest:
    """Train B honest trees on independent subsamples, one after another.

    Each tree draws from its own RNG stream keyed on (``seed``, kind, tree
    index), so no tree's draws depend on the order the trees are grown in.
    """
    cfg = config.resolve(dataset.n, dataset.d)
    kind_tag = 0 if response_kind is ResponseKind.MEAN else 1
    trees = []
    for b in range(cfg.n_trees):
        rng = _streams.substream(seed, _streams.TREE, kind_tag, b)
        j1, j2 = split_sample(subsample(dataset.n, cfg.subsample_size, rng), rng)
        trees.append(grow_tree(dataset, j1, j2, response_kind, cfg, rng))
    return Forest.concat(trees)


def check_query_point(u: np.ndarray, d: int) -> np.ndarray:
    """u as a float array; raise ValueError unless it holds d finite coordinates."""
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError(f"query point must have length d={d}, got shape {u.shape}")
    if not np.isfinite(u).all():
        j = int(np.flatnonzero(~np.isfinite(u))[0])
        raise ValueError(f"query point coordinate {j} is not finite ({u[j]})")
    return u


def weight_vector(forest: Forest, u: np.ndarray) -> WeightVector:
    """Co-leaf similarity weights of the training indices for query point u.

    A (B,) vector of node ids starts at the roots and every tree advances one
    level per step until all entries sit on leaves (which route to
    themselves).  ``bincount`` then adds 1/(B |leaf|) over the leaves'
    members in tree order, the order of a loop over trees, so the weights
    are bit-for-bit that loop's.
    """
    u = check_query_point(u, forest.d)
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
