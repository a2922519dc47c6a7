"""Shared helpers for the test suite."""

import csv
import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dyncov import forest as forest_module
from dyncov.data import CsvFormatError, Dataset, _col_pos
from dyncov.forest import Forest, _scan, _target_gram


def pytest_collection_modifyitems(items):
    """Fail a test of this suite that leaves a file unclosed.

    The filters are marks on this directory's tests, not pyproject settings,
    because they would also apply to the benchmark's own tests.
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


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


def tree_view(forest, b):
    """Tree b as a one-tree forest with local node ids.

    Its arrays are slices of the forest's, except ``left``, ``right`` and
    ``start``, which are shifted to the tree's own ids and offsets.
    """
    lo = int(forest.roots[b])
    hi = int(forest.roots[b + 1]) if b + 1 < forest.n_trees else len(forest.feature)
    start, count = forest.start[lo:hi], forest.count[lo:hi]
    first = int(start.min())
    return dataclasses.replace(
        forest,
        feature=forest.feature[lo:hi],
        threshold=forest.threshold[lo:hi],
        left=forest.left[lo:hi] - lo,
        right=forest.right[lo:hi] - lo,
        start=start - first,
        count=count,
        oversized=forest.oversized[lo:hi],
        members=forest.members[first : first + int(count.sum())],
        roots=np.zeros(1, dtype=forest.roots.dtype),
        j1=forest.j1[b : b + 1],
    )


def trees(forest):
    return [tree_view(forest, b) for b in range(forest.n_trees)]


def leaf_members(tree, nid):
    return tree.members[tree.start[nid] : tree.start[nid] + tree.count[nid]]


def j2_indices(tree):
    """The J2 half of a one-tree forest's subsample: its leaves partition it."""
    return np.sort(tree.members)


def to_dense(w):
    dense = np.zeros(w.n)
    dense[w.indices] = w.values
    return dense


def weight_total(w):
    return float(w.values.sum())


def delta_criterion(sum1, n1, sum2, n2, n_parent):
    """Split score ||sum1/n1 - sum2/n2||^2 * n1*n2 / n_parent^2."""
    if n1 < 1 or n2 < 1:
        raise ValueError("child counts must be >= 1")
    diff = np.asarray(sum1, dtype=float) / n1 - np.asarray(sum2, dtype=float) / n2
    return float(diff @ diff * n1 * n2 / n_parent**2)


def best_split_on_feature(v1, v2, gram, min_child_j2):
    """Best (delta, threshold) of ``forest._scan`` on one feature, or None.

    v1/v2 are the node's J1/J2 values of the feature; gram is the node's J1
    target Gram matrix aligned with v1.
    """
    hit = _scan(v1[None], v2[None], gram, np.arange(len(v1)), min_child_j2)
    return None if hit is None else (hit[0], hit[2])


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
    B = forest.n_trees
    for tree in trees(forest):
        leaf = route_independent(tree, u)
        members = [int(i) for i in j2_indices(tree) if route_independent(tree, dataset.u[i]) == leaf]
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
    for tree in trees(forest):
        nid = 0
        while tree.feature[nid] >= 0:
            nid = tree.left[nid] if u[tree.feature[nid]] <= tree.threshold[nid] else tree.right[nid]
        members = leaf_members(tree, nid)
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
    """Grow one tree with ``reference_best_split``, copying each node's Gram block.

    Returned as a one-tree forest, the packaging of ``grow_tree``.
    """
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
        nid = len(feature)
        feature.append(-1)
        threshold.append(math.nan)
        left.append(nid)
        right.append(nid)
        start.append(0)
        count.append(0)
        oversized.append(False)
        return nid

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


def reference_forest(dataset, config, response_kind):
    """``train_forest`` with every tree grown by ``reference_grow_tree``."""
    with mock.patch.object(forest_module, "grow_tree", reference_grow_tree):
        return forest_module.train_forest(dataset, config, response_kind)


def reference_read_numeric_csv(path, text_col=None):
    """The cell-by-cell CSV reader that preceded the streamed one.

    Kept, with ``reference_load_returns_csv`` and ``reference_load_query_csv``,
    as the reference for accepted input, values and error messages: every
    cell becomes a Python float, or stripped text in ``text_col``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        text_pos = _col_pos(path, header, text_col) if text_col is not None else None
        rows = []
        for raw in reader:
            if not raw:
                continue
            line = reader.line_num
            if len(raw) != len(header):
                raise CsvFormatError(
                    f"{path}: line {line} has {len(raw)} cells, header has {len(header)}"
                )
            row = []
            for c, cell in enumerate(raw, start=1):
                if c - 1 == text_pos:
                    row.append(cell.strip())
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: non-numeric cell at line {line}, column {c} ({cell!r})"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}: non-finite cell at line {line}, column {c} ({cell!r})"
                    )
                row.append(value)
            rows.append(row)
    return header, rows


def reference_load_returns_csv(path, layout):
    header, rows = reference_read_numeric_csv(path, layout.date_col)
    y_pos = [_col_pos(path, header, c) for c in layout.response_cols]
    u_pos = [_col_pos(path, header, c) for c in layout.covariate_cols]
    d_pos = _col_pos(path, header, layout.date_col) if layout.date_col is not None else None
    lag = layout.lag
    if len(rows) <= lag:
        raise CsvFormatError(f"{path}: {len(rows)} data rows cannot support lag={lag}")
    n = len(rows) - lag
    y = np.array([[rows[t + lag][c] for c in y_pos] for t in range(n)], dtype=float)
    u = np.array([[rows[t][c] for c in u_pos] for t in range(n)], dtype=float)
    dates = None
    if d_pos is not None:
        dates = tuple(str(rows[t + lag][d_pos]) for t in range(n))
    return Dataset(y, u, dates)


def reference_load_query_csv(path):
    _, rows = reference_read_numeric_csv(path)
    if not rows:
        raise CsvFormatError(f"{path}: no query rows")
    return np.array(rows, dtype=float)


def reference_write_matrix_csv(path, matrix, header_lines=None):
    """The per-entry matrix writer: ``repr`` of every entry in turn."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        for row in np.asarray(matrix, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")
