"""Random forest of Gini decision trees with impurity-based feature importance.

Trees are grown on seeded bootstrap samples, each split chooses the best
threshold among ``mtry`` randomly sampled features, and ties in impurity
decrease resolve to the lowest feature index then the lowest threshold so a
(dataset, config) pair always yields the identical model.

Lockstep growth. Tree ``i`` owns the stream ``default_rng(seed ^ i)`` and
its own preorder stack. It draws its bootstrap first, then one candidate
set per splittable node in preorder; leaves draw nothing. Trees grow in
groups of ``_GROUP``, and a group advances in steps: every unfinished tree
emits the leaves it pops until it reaches a node it may split, draws that
node's candidates from its own stream, and hands the node over; one
batched search then splits every handed-over node. A tree's draws depend
only on its own earlier nodes, never on how the trees interleave, so the
model is the one that growing the trees one after another would give.

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

from .dataset import Dataset
from .errors import ConfigError, DataError

_MIN_GAIN = 1e-12
_GROUP = 25  # trees grown in lockstep
_CHUNK = 1 << 13  # rows per batched split-search sort


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    mtry: int | None = None  # default ceil(sqrt(p))
    seed: int = 0

    def validate(self, p: int) -> int:
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 or None")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(p))
        if not 1 <= mtry <= p:
            raise ConfigError(f"mtry must be in [1, {p}], got {mtry}")
        return mtry


@dataclass
class DecisionTree:
    """Flat preorder node arrays: feature == -1 marks a leaf."""

    feature: np.ndarray  # (nodes,) int, -1 for leaves
    threshold: np.ndarray  # (nodes,) float, nan for leaves
    left: np.ndarray  # (nodes,) int child index, -1 for leaves
    right: np.ndarray
    counts: np.ndarray  # (nodes, k) class counts of the node's sample set
    importance: np.ndarray  # (p,) raw impurity-decrease importance
    bootstrap_indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, m: np.ndarray) -> np.ndarray:
        out = np.empty(m.shape[0], dtype=np.int64)
        stack = [(0, np.arange(m.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if self.feature[node] < 0:
                out[idx] = int(np.argmax(self.counts[node]))
                continue
            mask = m[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[mask]))
            stack.append((self.right[node], idx[~mask]))
        return out


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    normalized_importance: np.ndarray  # (p,) sums to 1 unless degenerate
    class_names: list[str]
    n_features: int
    degenerate: bool  # no split anywhere (e.g. single-class training data)
    config: ForestConfig

    def to_text(self) -> str:
        """Canonical preorder node-list dump, stable across identical trainings."""
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
                        f"left={int(tree.left[i])} right={int(tree.right[i])} counts={counts}")
        return "\n".join(lines)


class _Ranks:
    """Dense per-column ranks of a training matrix, computed once per forest.

    Equal values share a rank (-0.0 ties with 0.0, as under ``<``), so rank
    order is value order with each tie kept together.
    """

    def __init__(self, x: np.ndarray):
        n, p = x.shape
        self.x = x
        self.n = n
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


class _Tree:
    """A growing tree: its random stream, preorder stack and compact node records."""

    __slots__ = ("rng", "bootstrap", "stack", "feature", "threshold", "left", "right",
                 "counts", "importance")

    def __init__(self, rng: np.random.Generator, bootstrap: np.ndarray, root: tuple, p: int):
        self.rng = rng
        self.bootstrap = bootstrap
        # Entries: (pool start, distinct rows, depth, parent, is_left, class counts, splittable).
        self.stack = [root]
        self.feature = array("q")
        self.threshold = array("d")
        self.left = array("q")
        self.right = array("q")
        self.counts = array("d")
        self.importance = [0.0] * p

    def next_splittable(self):
        """Emit popped nodes as leaves until one may split; return it, or None when done."""
        while self.stack:
            start, size, depth, parent, is_left, counts, splittable = self.stack.pop()
            node = len(self.feature)
            if parent >= 0:
                (self.left if is_left else self.right)[parent] = node
            self.feature.append(-1)
            self.threshold.append(math.nan)
            self.left.append(-1)
            self.right.append(-1)
            self.counts.extend(counts)
            if splittable:
                return node, start, size, depth, counts
        return None

    def finish(self, k: int) -> DecisionTree:
        # Zero-copy views: the records become the model's arrays.
        return DecisionTree(
            feature=np.frombuffer(self.feature, dtype=np.int64),
            threshold=np.frombuffer(self.threshold, dtype=np.float64),
            left=np.frombuffer(self.left, dtype=np.int64),
            right=np.frombuffer(self.right, dtype=np.int64),
            counts=np.frombuffer(self.counts, dtype=np.float64).reshape(-1, k),
            importance=np.array(self.importance),
            bootstrap_indices=self.bootstrap,
        )


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
    """Grow the given trees in lockstep, one batched split search per step."""
    n, p = ranks.x.shape
    trees, rows, weights = [], [], []
    offset = 0
    for i in tree_ids:
        rng = np.random.default_rng(cfg.seed ^ i)
        bootstrap = rng.integers(0, n, size=n)
        weight = np.bincount(bootstrap, minlength=n)
        distinct = np.flatnonzero(weight)
        counts = np.bincount(y, weights=weight, minlength=k).astype(np.int64).tolist()
        trees.append(_Tree(rng, bootstrap, (offset, len(distinct), 0, -1, False, counts,
                                            max(counts) < n), p))
        rows.append(distinct)
        weights.append(weight[distinct])
        offset += len(distinct)
    pool = _Pool(np.concatenate(rows), np.concatenate(weights), y, k, ranks)
    del rows, weights

    while True:
        batch, draws = [], []
        for tree in trees:
            found = tree.next_splittable()
            if found is not None:
                batch.append((tree,) + found)
                draws.append(tree.rng.choice(p, size=mtry, replace=False))
        if not batch:
            return [tree.finish(k) for tree in trees]
        _, _, start, size, _, counts = zip(*batch)
        start = np.array(start, dtype=np.int64)
        size = np.array(size, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        gain, column, low, c_left = _search(ranks, pool, start, size,
                                            np.sort(np.array(draws), axis=1), counts)

        split = np.flatnonzero(gain > _MIN_GAIN)
        left_size, threshold = _partition(ranks, pool, start[split], size[split], column[split],
                                          low[split])
        c_left = c_left[split]
        c_right = counts[split] - c_left
        n_left = c_left.sum(axis=1)
        n_right = c_right.sum(axis=1)
        ok_left = (c_left.max(axis=1) < n_left) & (n_left >= cfg.min_samples_split)
        ok_right = (c_right.max(axis=1) < n_right) & (n_right >= cfg.min_samples_split)
        for j, f, thr, g, ls, cl, cr, sl, sr in zip(
                split.tolist(), column[split].tolist(), threshold.tolist(), gain[split].tolist(),
                left_size.tolist(), c_left.tolist(), c_right.tolist(), ok_left.tolist(),
                ok_right.tolist()):
            tree, node, st, sz, depth, node_counts = batch[j]
            tree.feature[node] = f
            tree.threshold[node] = thr
            tree.importance[f] += (sum(node_counts) / n) * g
            depth += 1
            deeper = cfg.max_depth is None or depth < cfg.max_depth
            tree.stack.append((st + ls, sz - ls, depth, node, False, cr, sr and deeper))
            tree.stack.append((st, ls, depth, node, True, cl, sl and deeper))


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
    if not np.isfinite(x).all():
        raise DataError("feature matrix contains non-finite entries")
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"labels must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    mtry = cfg.validate(x.shape[1])

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


def train_forest(d: Dataset, cfg: ForestConfig) -> ForestModel:
    return train_forest_xy(d.features, d.labels, len(d.class_names), cfg,
                           class_names=d.class_names)


def predict(model: ForestModel, m: np.ndarray) -> np.ndarray:
    """Plurality vote over trees; vote ties resolve to the lowest class index."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.n_features:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, "
                        f"model expects {model.n_features}")
    votes = np.stack([tree.predict(m) for tree in model.trees])  # (T, n)
    k = len(model.class_names)
    tallies = np.stack([(votes == c).sum(axis=0) for c in range(k)])  # (k, n)
    return np.argmax(tallies, axis=0)


def feature_importance(model: ForestModel) -> np.ndarray:
    return model.normalized_importance.copy()


def per_tree_importances(model: ForestModel, normalize: bool = True) -> np.ndarray:
    """(T, p) matrix of per-tree importances.

    With normalize=True each tree's vector is scaled to sum 1 (all-zero trees
    stay zero), making trees comparable regardless of their total impurity
    decrease; this is the matrix the Boruta Z-scores consume.
    """
    raw = np.stack([t.importance for t in model.trees])
    if not normalize:
        return raw
    sums = raw.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0.0, sums, 1.0)
    return raw / safe
