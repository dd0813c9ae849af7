"""Random forest of Gini decision trees with impurity-based feature importance.

Trees are grown on seeded bootstrap samples, each split chooses the best
threshold among ``mtry`` randomly sampled features, and ties in impurity
decrease resolve to the lowest feature index then the lowest threshold so a
(dataset, config) pair always yields the identical model.

Level-wise growth. Tree ``i`` owns the stream ``default_rng(seed ^ i)``.
It draws its bootstrap first, then at each depth one candidate set per
splittable node of that depth, in breadth-first order, in a single draw;
leaves draw nothing. Trees grow in groups of ``_GROUP``, and a group grows
one depth at a time: its frontier holds every node of that depth of every
tree, sorted by tree, and one batched search splits all of them. A tree's
draws depend only on its own earlier depths, never on the other trees of
its group, so the model is the one that growing the trees one after
another would give. Its bootstrap, ``integers(0, n, size=n)`` from that
stream, is part of the contract; only its row weights are kept. Nodes are
stored breadth-first, so a split's right child follows its left: ``left + 1``.

The batched search never sorts floats. A node holds its distinct bootstrap
rows with integer weights, and each column's values are replaced once per
forest by dense ranks (equal values share a rank). One integer sort of
packed (segment, rank, weight, class) keys orders the rows of every (node,
candidate) segment of a chunk of at most ``_CHUNK`` rows. Splits fall only
between distinct values, so the order inside a tie cannot matter; class
counts are exact integers, and each gain is computed with the same float
expression as a scan of the node's sorted column, so every choice, and
every importance, is bit-for-bit what that scan gives. In-flight memory is
bounded by the group and chunk sizes, not by ``n_trees``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .preprocess import all_finite

_MIN_GAIN = 1e-12
_GROUP = 25  # trees grown together, one depth at a time
_CHUNK = 1 << 13  # rows per batched split-search sort


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    mtry: int | None = None  # default ceil(sqrt(p))
    seed: int = 0

    def validate(self) -> None:
        """The checks that need no data; ``mtry_for`` checks mtry against the columns."""
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 or None")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def mtry_for(self, p: int) -> int:
        """Features tried at each split of a forest grown on p columns."""
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(p))
        if not 1 <= mtry <= p:
            raise ConfigError(f"mtry must be in [1, {p}], got {mtry}")
        return mtry


@dataclass
class DecisionTree:
    """Flat breadth-first node arrays: feature == -1 marks a leaf, the right child is left + 1."""

    feature: np.ndarray  # (nodes,) int, -1 for leaves
    threshold: np.ndarray  # (nodes,) float, nan for leaves
    left: np.ndarray  # (nodes,) int left child index, -1 for leaves
    counts: np.ndarray  # (nodes, k) class counts of the node's sample set
    importance: np.ndarray  # (p,) raw impurity-decrease importance

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, m: np.ndarray) -> np.ndarray:
        """Move every row one level per gather until all rows sit at leaves."""
        node, rows = np.zeros(m.shape[0], dtype=np.int64), np.arange(m.shape[0])
        while len(rows):
            at = node[rows]
            inner = self.feature[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = m[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = self.left[at] + ~go_left  # the right child is left + 1
        return np.argmax(self.counts[node], axis=1)


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    normalized_importance: np.ndarray  # (p,) sums to 1 unless degenerate
    class_names: list[str]
    n_features: int
    degenerate: bool  # no split anywhere (e.g. single-class training data)
    config: ForestConfig

    def to_text(self) -> str:
        """Canonical breadth-first node-list dump, stable across identical trainings."""
        lines = [f"forest trees={len(self.trees)} features={self.n_features} "
                 f"classes={len(self.class_names)} seed={self.config.seed}"]
        for t, tree in enumerate(self.trees):
            lines.append(f"tree {t} nodes={tree.n_nodes}")
            for i in range(tree.n_nodes):
                counts = ",".join(str(int(c)) for c in tree.counts[i])
                if tree.feature[i] < 0:
                    lines.append(f"  node {i} leaf counts={counts}")
                else:
                    lines.append(
                        f"  node {i} split feature={int(tree.feature[i])} "
                        f"threshold={float(tree.threshold[i])!r} "
                        f"left={int(tree.left[i])} right={int(tree.left[i]) + 1} counts={counts}")
        return "\n".join(lines)

    def shape(self) -> dict:
        """Tree, node and leaf counts and the depth of the deepest leaf (the root is depth 0)."""
        max_depth = 0
        for tree in self.trees:
            a, b, depth = 0, 1, 0  # nodes [a, b) are one depth: the children of the one above
            while (kids := tree.left[a:b][tree.feature[a:b] >= 0]).size:
                a, b, depth = kids[0], kids[-1] + 2, depth + 1
            max_depth = max(max_depth, depth)
        return {"trees": len(self.trees), "nodes": sum(t.n_nodes for t in self.trees),
                "leaves": sum(int((t.feature < 0).sum()) for t in self.trees),
                "max_depth": max_depth}


class _Ranks:
    """Dense per-column ranks of a training matrix, computed once per forest.

    Equal values share a rank (-0.0 ties with 0.0, as under ``<``), so rank
    order is value order with each tie kept together.
    """

    def __init__(self, x: np.ndarray):
        n, p = x.shape
        self.x, self.n = x, n
        self.rank = np.empty(p * n, dtype=np.int32)  # rank of row r in column j at j * n + r
        top = 0
        for j in range(p):
            _, rank = np.unique(x[:, j], return_inverse=True)
            self.rank[j * n:(j + 1) * n] = rank
            top = max(top, int(rank.max()))
        self.bits = top.bit_length()


def _chunks(sizes: np.ndarray):
    """Consecutive (a, b) ranges whose sizes sum to at most _CHUNK (or one item)."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + _CHUNK, side="right")))
        yield a, b
        a = b


def _ranges(starts: np.ndarray, sizes: np.ndarray):
    """Owner index and position of every element of the concatenated [start, start + size) ranges."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    positions = np.arange(owner.size) + (starts - (np.cumsum(sizes) - sizes))[owner]
    return owner, positions


class _Pool:
    """The distinct bootstrap rows of a group of trees; each node owns a contiguous range.

    ``payload`` packs each row's bootstrap weight above its class, the low
    bits of the split-search sort keys.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray, y: np.ndarray, k: int, ranks: _Ranks):
        self.rows = rows.astype(np.int32)
        self.class_bits = (k - 1).bit_length()
        self.payload_bits = self.class_bits + int(weights.max()).bit_length()
        self.payload = ((weights << self.class_bits) | y[rows]).astype(np.int32)
        self.segment_shift = self.payload_bits + ranks.bits
        # A chunk holds at most _CHUNK // 2 segments: a splittable node has two distinct rows.
        if self.payload_bits > 31 or self.segment_shift + (_CHUNK // 2).bit_length() > 63:
            raise DataError("training data too large for the packed split-search keys")


def _firsts(ids: np.ndarray) -> np.ndarray:
    """Index of the first entry of every run of equal values in ``ids``."""
    new = np.empty(len(ids), dtype=bool)
    new[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return np.flatnonzero(new)


def _search(ranks: _Ranks, pool: _Pool, start: np.ndarray, size: np.ndarray,
            cand: np.ndarray, counts: np.ndarray):
    """Best split of every node in a batch over its ascending candidate columns.

    Segment ``j * mtry + c`` holds node j's rows keyed by candidate c. One
    sort per chunk orders every segment by (segment, rank). Each boundary
    between distinct values gets the gain a scan of that column's sorted
    values would compute, operation for operation. Positions are visited in
    (candidate, value) order, so the first maximum is the lowest column,
    then the lowest threshold; a later chunk replaces a node's best only by
    a strictly larger gain.

    Returns per node the gain (-inf when no candidate has two distinct
    values), the column, the rank of the largest value going left, and the
    class counts going left.
    """
    b_nodes, mtry = cand.shape
    k = counts.shape[1]
    n_node = counts.sum(axis=1)
    gini_parent = 1.0 - (counts * counts).sum(axis=1) / (n_node * n_node)
    counts_t = np.ascontiguousarray(counts.T)
    seg_size = np.repeat(size, mtry)
    seg_start = np.repeat(start, mtry)
    seg_col = cand.ravel()
    best_gain = np.full(b_nodes, -np.inf)
    best_col = np.zeros(b_nodes, dtype=np.int64)
    best_low = np.zeros(b_nodes, dtype=np.int64)
    best_left = np.zeros((k, b_nodes), dtype=np.int64)
    rank_mask = (1 << ranks.bits) - 1
    class_mask = (1 << pool.class_bits) - 1
    weight_mask = (1 << (pool.payload_bits - pool.class_bits)) - 1

    for a, b in _chunks(seg_size):
        sizes = seg_size[a:b]
        sid, pos = _ranges(seg_start[a:b], sizes)
        key = np.left_shift(ranks.rank[(seg_col[a:b] * ranks.n)[sid] + pool.rows[pos]],
                            pool.payload_bits, dtype=np.int64)
        key |= pool.payload[pos]
        key |= sid << pool.segment_shift
        key.sort()
        m = len(key)
        # cum[c, i]: weight of class c among the segment's sorted rows up to i (inclusive).
        cum = np.zeros((k, m), dtype=np.int64)
        cum.ravel()[(key & class_mask) * m + np.arange(m)] = (key >> pool.class_bits) & weight_mask
        np.cumsum(cum, axis=1, out=cum)
        value = key >> pool.payload_bits
        # Split positions: the last row of a value that has a larger value in its segment.
        first = np.cumsum(sizes) - sizes
        boundary = value[1:] != value[:-1]
        boundary[first[1:] - 1] = False
        at = np.flatnonzero(boundary)
        if len(at) == 0:
            continue
        seg = sid[at]
        before = np.zeros((k, b - a), dtype=np.int64)
        before[:, 1:] = cum[:, first[1:] - 1]
        c_left = np.take(cum, at, axis=1)
        c_left -= np.take(before, seg, axis=1)
        node = (a + seg) // mtry
        n = n_node[node]
        n_left = c_left.sum(axis=0)
        n_right = n - n_left
        c_right = np.take(counts_t, node, axis=1)
        c_right -= c_left
        # Class counts are integers, so every sum below is exact; the rest is
        # the scan's float expression, in its order.
        gini_left = (c_left * c_left).sum(axis=0) / (n_left * n_left)
        np.subtract(1.0, gini_left, out=gini_left)
        gini_right = (c_right * c_right).sum(axis=0) / (n_right * n_right)
        np.subtract(1.0, gini_right, out=gini_right)
        gini_left *= n_left
        gini_right *= n_right
        gini_left += gini_right
        gini_left /= n
        gain = gini_parent[node]
        gain -= gini_left

        heads = _firsts(node)
        top = np.maximum.reduceat(gain, heads)
        hits = np.flatnonzero(gain == np.repeat(top, np.diff(heads, append=len(gain))))
        first_hit = hits[_firsts(node[hits])]
        better = top > best_gain[node[heads]]
        won, hit = node[heads][better], first_hit[better]
        best_gain[won] = top[better]
        best_col[won] = seg_col[a + seg[hit]]
        best_low[won] = value[at[hit]] & rank_mask
        best_left[:, won] = c_left[:, hit]
    return best_gain, best_col, best_low, best_left.T


def _partition(ranks: _Ranks, pool: _Pool, start: np.ndarray, size: np.ndarray,
               column: np.ndarray, low: np.ndarray):
    """Reorder each split node's range so rows with rank <= low come first.

    Returns the left sizes and the thresholds: the midpoint between the
    largest value going left and the smallest going right.
    """
    left_size = np.empty(len(size), dtype=np.int64)
    threshold = np.empty(len(size))
    for a, b in _chunks(size):
        owner, pos = _ranges(start[a:b], size[a:b])
        col = column[a:b][owner]
        right = ranks.rank[col * ranks.n + pool.rows[pos]] > low[a:b][owner]
        order = np.argsort(owner * 2 + right, kind="stable")  # owners stay in place
        moved = pos[order]
        pool.rows[pos] = pool.rows[moved]
        pool.payload[pos] = pool.payload[moved]
        left_size[a:b] = size[a:b] - np.bincount(owner[right], minlength=b - a)
        value = ranks.x[pool.rows[pos], col]
        first = np.cumsum(size[a:b]) - size[a:b]
        heads = np.column_stack([first, first + left_size[a:b]]).ravel()
        threshold[a:b] = (np.maximum.reduceat(value, heads)[0::2]
                          + np.minimum.reduceat(value, heads)[1::2]) / 2.0
    return left_size, threshold


def _grow_group(ranks: _Ranks, y: np.ndarray, k: int, mtry: int, cfg: ForestConfig,
                tree_ids: range) -> list[DecisionTree]:
    """Grow the given trees one depth at a time, one batched split search per depth."""
    n, p = ranks.x.shape
    g = len(tree_ids)
    rngs, rows, weights, counts = [], [], [], []
    for i in tree_ids:  # a bootstrap draw goes once it is counted into row weights
        rngs.append(np.random.default_rng(cfg.seed ^ i))
        weight = np.bincount(rngs[-1].integers(0, n, size=n), minlength=n)
        rows.append(np.flatnonzero(weight))
        weights.append(weight[rows[-1]])
        counts.append(np.bincount(y[rows[-1]], weights[-1], minlength=k))  # exact integers
    pool = _Pool(np.concatenate(rows), np.concatenate(weights), y, k, ranks)
    # The frontier: every node of one depth, sorted by tree, breadth-first within each tree.
    counts = np.array(counts, dtype=np.int64)
    size = np.array([len(r) for r in rows], dtype=np.int64)
    start, owner, splittable = np.cumsum(size) - size, np.arange(g), counts.max(axis=1) < n
    del rows, weights, weight
    # Per tree: feature, threshold, left child and class counts of every node so far.
    records = [(array("q"), array("d"), array("q"), array("d")) for _ in range(g)]
    n_nodes, importance = np.zeros(g, dtype=np.int64), np.zeros((g, p))
    depth = 0
    while len(owner):
        depth += 1
        at = np.flatnonzero(splittable)
        cand = np.concatenate([rng.random((c, p)).argsort(axis=1)[:, :mtry] for rng, c
                               in zip(rngs, np.bincount(owner[at], minlength=g).tolist())])
        gain, column, low, c_left = _search(ranks, pool, start[at], size[at],
                                            np.sort(cand, axis=1), counts[at])
        won = gain > _MIN_GAIN
        split, column, gain, c_left = at[won], column[won], gain[won], c_left[won]
        left_size, threshold = _partition(ranks, pool, start[split], size[split], column, low[won])
        by = owner[split]
        np.add.at(importance, (by, column), counts[split].sum(axis=1) / n * gain)

        # This depth's records. A tree's next depth starts after them and holds
        # the children of its splits, left then right, in the order of their parents.
        bounds = np.searchsorted(owner, np.arange(g + 1))
        n_nodes += np.diff(bounds)
        feature, left = np.full((2, len(owner)), -1, dtype=np.int64)
        thresholds = np.full(len(owner), np.nan)
        feature[split], thresholds[split] = column, threshold
        left[split] = n_nodes[by] + 2 * (np.arange(len(split)) - np.searchsorted(by, by))
        fields = (feature, thresholds, left, counts.astype(np.float64))
        for record, a, b in zip(records, bounds.tolist(), bounds[1:].tolist()):
            for buffer, values in zip(record, fields):
                buffer.frombytes(values[a:b].tobytes())

        counts = np.stack([c_left, counts[split] - c_left], axis=1).reshape(-1, k)
        start = np.column_stack([start[split], start[split] + left_size]).ravel()
        size = np.column_stack([left_size, size[split] - left_size]).ravel()
        owner = np.repeat(by, 2)
        n_child = counts.sum(axis=1)
        splittable = (counts.max(axis=1) < n_child) & (n_child >= cfg.min_samples_split)
        splittable &= cfg.max_depth is None or depth < cfg.max_depth

    # Zero-copy views: the records become the model's arrays.
    views = [[np.frombuffer(r, dtype=r.typecode) for r in record] for record in records]
    return [DecisionTree(*v[:3], v[3].reshape(-1, k), imp) for v, imp in zip(views, importance)]


def train_forest_xy(x: np.ndarray, y: np.ndarray, n_classes: int, cfg: ForestConfig,
                    class_names: list[str] | None = None) -> ForestModel:
    """Train on a bare (matrix, labels) pair; used directly by the Boruta loop."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise DataError(f"training matrix must be non-empty 2-D, got shape {x.shape}")
    if len(y) != x.shape[0]:
        raise DataError("labels length does not match matrix rows")
    if x.shape[0] < cfg.min_samples_split:
        raise DataError(f"need at least min_samples_split={cfg.min_samples_split} rows, got {x.shape[0]}")
    if not all_finite(x):
        raise DataError("feature matrix contains non-finite entries")
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"labels must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    cfg.validate()
    mtry = cfg.mtry_for(x.shape[1])

    ranks = _Ranks(x)
    trees = []
    for first in range(0, cfg.n_trees, _GROUP):
        group = range(first, min(first + _GROUP, cfg.n_trees))
        trees.extend(_grow_group(ranks, y, n_classes, mtry, cfg, group))

    raw = np.mean([t.importance for t in trees], axis=0)
    total = raw.sum()
    degenerate = total <= 0.0
    normalized = raw / total if not degenerate else raw
    if class_names is None:
        class_names = [str(i) for i in range(n_classes)]
    return ForestModel(trees=trees, normalized_importance=normalized,
                       class_names=list(class_names), n_features=x.shape[1],
                       degenerate=degenerate, config=cfg)


def predict(model: ForestModel, m: np.ndarray) -> np.ndarray:
    """Plurality vote over trees; vote ties resolve to the lowest class index."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.n_features:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, "
                        f"model expects {model.n_features}")
    tallies = np.zeros((len(model.class_names), len(m)), dtype=np.int64)  # (k, n)
    for tree in model.trees:
        tallies[tree.predict(m), np.arange(len(m))] += 1
    return np.argmax(tallies, axis=0)


def per_tree_importances(model: ForestModel) -> np.ndarray:
    """(T, p) matrix of per-tree importances, each tree's vector scaled to sum 1 (all-zero
    trees stay zero), making trees comparable regardless of their total impurity decrease;
    this is the matrix the Boruta Z-scores consume.
    """
    raw = np.stack([t.importance for t in model.trees])
    sums = raw.sum(axis=1, keepdims=True)
    return raw / np.where(sums > 0.0, sums, 1.0)
