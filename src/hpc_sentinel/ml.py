"""Classifiers over counter datasets: decision tree, random forest, and a
small neural network, plus splitting, balancing, and evaluation metrics.

All three trainers are deterministic given (dataset, params, seed).
Trees grow on the distinct (counter vector, label) rows of their fit,
each weighted by how often it occurs, which gives the trees the repeated
rows would. A forest grows all its trees in lockstep, batching the split
searches of one node per tree into one histogram kernel call over the
rank codes of its features; every tree draws from its own generator
spawned from the master seed, so it equals the tree grown on its own. A
decision tree searches all its pending nodes in each call. Trees and
forests predict from one flattened node table. A forest tree draws the
feature subsets of its nodes in blocks, equal to per-node
Generator.choice draws.

A network trains on the distinct (counter vector, label) rows of its set,
each weighted by its count over the set's size, which gives the
gradients and loss of the repeated rows; the standardization comes from
the full rows. Each set's rows are padded with weight-0 rows to a
multiple of NN_ROW_BLOCK, so its arrays depend on the set alone, and
networks of one padded (rows, features) shape train as one stack
(train_nn_stack), each bit for bit the network train_nn gives alone.

Every caller trains through train_eval_cells, for one cell or many:
it splits each cell's dataset, balances the training side if asked,
fits the cell's kind with train_dt, train_rf or train_nn_stack (which
stacks the cells' networks) and scores the held-out side. Callers
derive the seeds of their cells with derive_seed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (EmptyDataset, InconsistentFeatures, NonFiniteLoss,
                     SingleClass, TooFewSamples, read_json, write_json)
from .hpc import Dataset

# Entries per split-search call, a node counting its candidate columns
# times its rows or the widest column's histogram, whichever is more:
# enough nodes to amortize numpy's per-call cost, few enough to keep the
# search's working set small.
SPLIT_BATCH_ENTRIES = 16384

# (row, tree) pairs advanced together per prediction step, for the same
# reason.
PREDICT_BLOCK_PAIRS = 8192

# Nodes whose feature subsets a forest tree draws with one generator call.
# Most trees of the class-elimination sweep search fewer nodes than this,
# so a tree usually draws once; draws a tree never uses cost nothing
# else, because nothing reads its generator after it is grown.
FEATURE_DRAW_NODES = 16


# A network's distinct training rows are padded with weight-0 rows to a
# multiple of this, so that networks whose sets differ a little in their
# distinct counts share a shape and train as one stack. A fixed block,
# not the largest set of a stack, keeps each network's arrays, and so its
# bits, independent of the networks stacked with it. Every set that
# reproduce trains has fewer distinct rows than this.
NN_ROW_BLOCK = 32


# --- splitting and balancing -------------------------------------------------

def split(d: Dataset, train_fraction: float, seed: int):
    """Stratified partition into (train, test), each in dataset row order;
    train gets floor(train_fraction * n) rows, train_fraction in (0, 1).

    Each class's share stays within one sample of the global fraction,
    using largest-remainder rounding so the total is still exactly
    floor(train_fraction * n).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = len(d)
    n_train = int(math.floor(train_fraction * n))
    if n < 2 or n_train < 1 or n - n_train < 1:
        raise TooFewSamples(f"cannot split {n} samples at {train_fraction}")
    rng = np.random.default_rng(seed)
    y = d.labels()
    if (y == 0).sum() == 0 or (y == 1).sum() == 0:
        raise TooFewSamples("stratified split needs both classes")
    targets = {}
    remainders = []
    for c in (0, 1):
        exact = train_fraction * int((y == c).sum())
        targets[c] = int(math.floor(exact))
        remainders.append((-(exact - math.floor(exact)), c))
    short = n_train - sum(targets.values())
    for _, c in sorted(remainders)[:short]:
        targets[c] += 1
    in_train = np.zeros(n, dtype=bool)
    for c in (0, 1):
        pool = np.flatnonzero(y == c)
        picked = rng.permutation(pool.shape[0])[:targets[c]]
        in_train[pool[picked]] = True
    return (d.subset(np.flatnonzero(in_train)),
            d.subset(np.flatnonzero(~in_train)))


def balance(d: Dataset, seed: int = 0) -> Dataset:
    """Equalize class counts by oversampling the minority with
    replacement."""
    y = d.labels()
    n0, n1 = int((y == 0).sum()), int((y == 1).sum())
    if n0 == 0 or n1 == 0:
        raise SingleClass("balancing needs both classes present")
    if n0 == n1:
        return d
    rng = np.random.default_rng(seed)
    minority = 0 if n0 < n1 else 1
    min_idx = np.flatnonzero(y == minority)
    maj_idx = np.flatnonzero(y != minority)
    extra = rng.choice(min_idx, size=maj_idx.shape[0] - min_idx.shape[0],
                       replace=True)
    return d.subset(np.concatenate([np.arange(len(d)), extra]))


# --- confusion counts and metrics -------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        for v in (self.tp, self.tn, self.fp, self.fn):
            if v < 0:
                raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionCounts":
        t = np.asarray(y_true)
        p = np.asarray(y_pred)
        return cls(tp=int(((t == 1) & (p == 1)).sum()),
                   tn=int(((t == 0) & (p == 0)).sum()),
                   fp=int(((t == 0) & (p == 1)).sum()),
                   fn=int(((t == 1) & (p == 0)).sum()))

    def as_dict(self):
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


@dataclass(frozen=True)
class Metrics:
    """Accuracy, precision and recall with malicious as the positive
    class; precision/recall carry defined-flags because their
    denominators can vanish."""

    accuracy: float
    precision: float
    recall: float
    fp_rate: float
    fn_rate: float
    precision_defined: bool = True
    recall_defined: bool = True

    @classmethod
    def from_counts(cls, c: ConfusionCounts) -> "Metrics":
        total = c.total
        if total == 0:
            raise ValueError("no samples evaluated")
        p_den = c.tp + c.fp
        r_den = c.tp + c.fn
        return cls(
            accuracy=(c.tp + c.tn) / total,
            precision=(c.tp / p_den) if p_den else float("nan"),
            recall=(c.tp / r_den) if r_den else float("nan"),
            fp_rate=c.fp / total,
            fn_rate=c.fn / total,
            precision_defined=p_den > 0,
            recall_defined=r_den > 0,
        )

    def as_dict(self):
        """The metrics as JSON values: an undefined precision or recall
        is None (JSON null), since NaN is not JSON."""
        return {"accuracy": self.accuracy,
                "precision": self.precision if self.precision_defined
                else None,
                "recall": self.recall if self.recall_defined else None,
                "fp_rate": self.fp_rate,
                "fn_rate": self.fn_rate,
                "precision_defined": self.precision_defined,
                "recall_defined": self.recall_defined}


# --- decision tree ------------------------------------------------------------

@dataclass
class DecisionTreeModel:
    """Flat-array binary tree; node i is a leaf when feature[i] == -1.

    Internal nodes test x[feature] <= threshold and descend left on
    true. Leaves carry the training class counts; prediction is the
    majority class with ties resolved benign.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    feature_names: tuple
    params: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def depth(self) -> int:
        def walk(i):
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(self.left[i]), walk(self.right[i]))
        return walk(0)

    def predict(self, X) -> np.ndarray:
        return _predict_trees([self], X)

    def to_dict(self):
        return {"kind": "dt", "params": self.params,
                "feature_names": list(self.feature_names),
                "feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "counts": self.counts.tolist()}

    @classmethod
    def from_dict(cls, d) -> "DecisionTreeModel":
        model = cls(feature=np.asarray(d["feature"]),
                    threshold=np.asarray(d["threshold"]),
                    left=np.asarray(d["left"]), right=np.asarray(d["right"]),
                    counts=np.asarray(d["counts"]),
                    feature_names=tuple(d["feature_names"]),
                    params=dict(d.get("params", {})))
        model._check()
        return model

    def _check(self):
        """Reject a malformed node table. Its entries must be integers, not
        floats or strings numpy would truncate or parse. Prediction
        concatenates trees, so a child index outside its tree would
        silently land in the next one; children must follow their parent
        (preorder ids), which also rules out cycles."""
        if self.feature.ndim != 1 or self.n_nodes == 0:
            raise ValueError("tree has no node table")
        if any(a.dtype.kind != "i" for a in (
                self.feature, self.threshold, self.left, self.right,
                self.counts)):
            raise ValueError("tree node arrays must hold integers only")
        n = self.n_nodes
        if any(a.shape != (n,) for a in (self.threshold, self.left,
                                         self.right)) \
                or self.counts.shape != (n, 2):
            raise ValueError("tree node arrays differ in length")
        if (self.feature >= len(self.feature_names)).any():
            raise ValueError("tree feature index out of range")
        inner = np.flatnonzero(self.feature >= 0)
        for child in (self.left[inner], self.right[inner]):
            if ((child <= inner) | (child >= n)).any():
                raise ValueError("tree child index out of range")


def _predict_trees(trees, X) -> np.ndarray:
    """Strict-majority vote of the trees on each row of X; a tied vote
    stays benign, and a tree of one votes its leaf's majority.

    Each distinct row of X is traversed once (_groups) and its vote
    copied to the rows equal to it. The trees' nodes are concatenated
    into one table, leaves pointing at themselves, and each numpy step
    moves a block of (row, tree) pairs one level down, as in
    QuickScorer's flattened traversal.
    """
    X = np.asarray(X)
    # rows of no columns are all the same row, and lexsort needs a key
    keys = X.T if X.shape[1] else np.zeros((1, X.shape[0]), dtype=np.int64)
    group, first = _groups(keys)
    X = X[first]
    out = np.zeros(X.shape[0], dtype=np.int64)
    sizes = [t.n_nodes for t in trees]
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    ids = np.arange(feature.shape[0])
    left = np.where(leaf, ids,
                    np.concatenate([t.left for t in trees]) + offset)
    right = np.where(leaf, ids,
                     np.concatenate([t.right for t in trees]) + offset)
    feature = np.where(leaf, 0, feature)
    threshold = np.concatenate([t.threshold for t in trees])
    vote = np.concatenate([t.counts[:, 1] > t.counts[:, 0] for t in trees])
    n_trees = len(trees)
    step = max(1, PREDICT_BLOCK_PAIRS // n_trees)
    for lo in range(0, X.shape[0], step):
        xb = X[lo:lo + step]
        row = np.repeat(np.arange(xb.shape[0]), n_trees)
        node = np.tile(roots, xb.shape[0])
        while not leaf[node].all():
            go_left = xb[row, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        votes = vote[node].reshape(-1, n_trees).sum(axis=1)
        out[lo:lo + step] = 2 * votes > n_trees
    return out[group]


class _GrowingTree:
    """One tree under construction. A node is a list [counts, feature,
    threshold, left, right], its children nodes themselves. pending is a
    stack of the nodes still to search, each (node, ids, rows, malicious
    rows) with ids the node's entries (see _grow_trees) and the counts
    weighted; its top is the next of them in preorder. A forest tree also
    keeps the drawn feature subsets its searched nodes take in turn."""

    def __init__(self, ids, n, c1, feature_rng, subsets):
        self.feature_rng = feature_rng
        self.subsets = subsets
        self.drawn = 0
        self.pending = []
        self.root = self.add(ids, n, c1)

    def add(self, ids, n, c1):
        """A new leaf of n rows, c1 of them malicious; one that holds both
        classes is pushed for a split search."""
        node = [(n - c1, c1), -1, 0, None, None]
        if 0 < c1 < n:
            self.pending.append((node, ids, n, c1))
        return node

    def next_subset(self, n_total, n_feats):
        """The feature subset of the tree's next searched node."""
        if self.drawn == FEATURE_DRAW_NODES:
            self.subsets = _draw_feature_subsets(
                [self.feature_rng], n_total, n_feats)[0]
            self.drawn = 0
        self.drawn += 1
        return self.subsets[self.drawn - 1]

    def model(self, feature_names, params) -> DecisionTreeModel:
        """The node table, node ids in preorder: a node's left child
        follows it, and its right child follows the left one's subtree."""
        rows, stack = [], [(self.root, -1)]
        while stack:
            (counts, feature, threshold, left, right), parent = stack.pop()
            if parent >= 0:
                rows[parent][3] = len(rows)
            if left is None:
                rows.append([feature, threshold, -1, -1, *counts])
            else:
                rows.append([feature, threshold, len(rows) + 1, -1,
                             *counts])
                stack += ((right, len(rows) - 1), (left, -1))
        table = np.array(rows, dtype=np.int64)
        return DecisionTreeModel(
            feature=table[:, 0], threshold=table[:, 1], left=table[:, 2],
            right=table[:, 3], counts=table[:, 4:],
            feature_names=tuple(feature_names), params=params)


def _draw_feature_subsets(rngs, n_total, n_feats):
    """FEATURE_DRAW_NODES sorted n_feats-of-n_total feature subsets per
    generator, as an (len(rngs), FEATURE_DRAW_NODES, n_feats) array.

    Each generator makes one integers call, which takes the draws that
    successive rng.choice(n_total, n_feats, replace=False) calls take for
    n_total up to 10,000: Floyd's n_feats draws with highs
    n_total - n_feats + 1 ... n_total, then the n_feats - 1 draws of its
    shuffle with highs n_feats ... 2. Floyd's rule is decoded for every
    node at once on a boolean mask, whose nonzero columns are the sorted
    subsets, so each subset equals the sorted choice draw.
    """
    highs = np.concatenate([np.arange(n_total - n_feats + 1, n_total + 1),
                            np.arange(n_feats, 1, -1)])
    block = np.tile(highs, FEATURE_DRAW_NODES)
    draws = np.concatenate([rng.integers(0, block) for rng in rngs])
    draws = draws.reshape(-1, highs.shape[0])
    base = np.arange(draws.shape[0]) * n_total
    chosen = np.zeros(draws.shape[0] * n_total, dtype=bool)
    for i, top in enumerate(range(n_total - n_feats, n_total)):
        pick = base + draws[:, i]
        chosen[np.where(chosen[pick], base + top, pick)] = True
    feats = np.nonzero(chosen)[0].reshape(draws.shape[0], n_feats)
    return (feats - base[:, None]).reshape(len(rngs), FEATURE_DRAW_NODES,
                                           n_feats)


def _row_groups(codes, n_bins, y):
    """Groups of equal samples (_groups): codes holds the samples' rank
    codes by feature, feature j taking n_bins[j] codes, and y their
    labels. Returns each sample's group id and one sample of each group.

    The codes of several features pack into one int64 key by mixed radix,
    so that few keys are lexsorted."""
    keys, key, span = [], y, 2
    for col, bins in zip(codes, n_bins.tolist()):
        if span * bins > 2**62:
            keys.append(key)
            key, span = col, bins
        else:
            key = key * bins + col
            span *= bins
    keys.append(key)
    return _groups(keys)


def _groups(keys):
    """Groups of the samples equal on every key, keys a sequence of
    arrays over the samples. Returns each sample's group id and one
    sample of each group.

    The keys are lexsorted, and a group starts wherever a key changes
    (np.unique would import numpy.ma, about 1.6 MB)."""
    order = np.lexsort(keys)
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(order.shape[0], dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _grow_trees(X, y, boots, feature_rngs, n_feats, feature_names, params):
    """Grow one tree per row-index vector in boots, all in lockstep.

    X is rank-coded once, column by column, and its rows are grouped once
    by (codes, label) (_row_groups). A tree grows on the distinct rows its
    boot draws, each weighted by how many of the boot's draws fall in its
    group, so a decision tree, whose boot is every row, weights each by
    its group's size; every split search and leaf count equals the one on
    the repeated rows.

    A node holding both classes is searched, and becomes a leaf when no
    split improves it. Each round searches the next pending node of every
    forest tree, and every pending node of a decision tree, through
    batched histogram kernel calls of at most SPLIT_BATCH_ENTRIES entries
    (one node may exceed it alone). A tree whose feature_rng is None
    searches all features at every node; otherwise each searched node
    takes the next of its n_feats-feature subsets, drawn
    FEATURE_DRAW_NODES at a time (_draw_feature_subsets), the first block
    of every tree in one decode. Children are pushed right then left, so
    a forest tree searches its nodes, and takes its subsets, in preorder;
    node ids are numbered in preorder once a tree is grown, so every tree
    equals the one grown on its own.
    """
    n_total = X.shape[1]
    all_feats = np.arange(n_total, dtype=np.int64)
    codes, values, offsets = _kernels.rank_code(X.T)
    n_bins = np.diff(offsets)
    max_bins = int(n_bins.max(initial=0))
    group, distinct = _row_groups(codes, n_bins, y)
    codes = codes[:, distinct]
    y = y[distinct]
    # A node's entries are ids tree * n_distinct + distinct row, and
    # weights[id] is that row's multiplicity in that tree's boot.
    n_distinct = distinct.shape[0]
    n_trees = len(boots)
    weights = np.bincount(
        np.repeat(np.arange(n_trees) * n_distinct,
                  [boot.shape[0] for boot in boots])
        + group[np.concatenate(boots)], minlength=n_trees * n_distinct)

    def split(batch):
        # a batch item: (tree, node, ids, rows, malicious rows, features)
        sizes = np.array([item[2].shape[0] for item in batch])
        ids = np.concatenate([item[2] for item in batch])
        rows = ids % n_distinct
        w = weights[ids]
        feats = np.array([item[5] for item in batch])
        y_rows = y[rows]
        cols, below, above, found = _kernels.best_split_codes(
            codes[np.repeat(feats.T, sizes, axis=1), rows], y_rows, w,
            sizes, n_bins[feats])
        f = feats[np.arange(len(batch)), cols]
        at = offsets[f]
        thrs = (values[at + below] + values[at + above]) // 2
        go_left = (codes[np.repeat(f, sizes), rows]
                   <= np.repeat(below, sizes))
        # a searched node holds both classes, so every reduceat segment
        # is non-empty
        ends = np.cumsum(sizes)
        starts = ends - sizes
        w_left = w * go_left
        n_left = np.add.reduceat(w_left, starts)
        c1_left = np.add.reduceat(w_left * y_rows, starts)
        # each node's children are consecutive runs of left and right
        left, right = ids[go_left], ids[~go_left]
        left_end = np.cumsum(np.add.reduceat(go_left, starts,
                                             dtype=np.int64))
        ls = rs = 0
        for (t, node, _, n, c1, _), fi, thr, ok, nl, l1, le, re in zip(
                batch, f.tolist(), thrs.tolist(), found.tolist(),
                n_left.tolist(), c1_left.tolist(), left_end.tolist(),
                (ends - left_end).tolist()):
            if ok:
                # the right child is pushed first, so the left one is
                # searched next
                right_child = t.add(right[rs:re], n - nl, c1 - l1)
                node[1:] = fi, thr, t.add(left[ls:le], nl, l1), right_child
            ls, rs = le, re

    drawing = [rng for rng in feature_rngs if rng is not None]
    subsets = iter(_draw_feature_subsets(drawing, n_total, n_feats)
                   if drawing else ())
    per_tree = weights.reshape(n_trees, n_distinct)
    roots = np.split(np.flatnonzero(weights),
                     np.cumsum(np.count_nonzero(per_tree, axis=1))[:-1])
    trees = [_GrowingTree(ids, n, c1, rng,
                          None if rng is None else next(subsets))
             for ids, n, c1, rng in zip(roots, per_tree.sum(axis=1).tolist(),
                                        (per_tree @ y).tolist(), feature_rngs)]
    active = [t for t in trees if t.pending]
    while active:
        batch, entries = [], 0
        for t in active:
            if t.feature_rng is None:
                # no feature draws to keep in preorder
                items = [(t, *item, all_feats) for item in t.pending]
                t.pending = []
            else:
                items = [(t, *t.pending.pop(),
                          t.next_subset(n_total, n_feats))]
            for item in items:
                size = item[5].shape[0] * max(item[2].shape[0], max_bins)
                if batch and entries + size > SPLIT_BATCH_ENTRIES:
                    split(batch)
                    batch, entries = [], 0
                batch.append(item)
                entries += size
        if batch:
            split(batch)
        active = [t for t in active if t.pending]
    return [t.model(feature_names, params) for t in trees]


def train_dt(train: Dataset) -> DecisionTreeModel:
    """CART with Gini impurity on integer features.

    Thresholds are midpoints (integer floor) between adjacent distinct
    values; node scoring compares exact integer cross-products so ties
    break reproducibly on (lowest feature, lowest threshold). A split
    must strictly reduce impurity or the node becomes a leaf.
    """
    if len(train) == 0:
        raise EmptyDataset("decision tree needs at least one sample")
    X = train.matrix()
    # the model JSON records the CART settings every tree is grown with
    params = {"max_depth": None, "min_samples_split": 2}
    return _grow_trees(X, train.labels(), [np.arange(X.shape[0])], [None],
                       X.shape[1], train.feature_names, params)[0]


# --- random forest ------------------------------------------------------------

@dataclass
class RandomForestModel:
    trees: list
    feature_names: tuple
    params: dict = field(default_factory=dict)

    def predict(self, X) -> np.ndarray:
        return _predict_trees(self.trees, X)

    def to_dict(self):
        return {"kind": "rf", "params": self.params,
                "feature_names": list(self.feature_names),
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d) -> "RandomForestModel":
        """Forest from its JSON form. Prediction reads the forest's
        columns, so every tree must name the forest's counters."""
        names = tuple(d["feature_names"])
        trees = [DecisionTreeModel.from_dict(t) for t in d["trees"]]
        if not trees:
            raise ValueError("forest has no trees")
        if any(t.feature_names != names for t in trees):
            raise ValueError("every forest tree must name the forest's "
                             "counters")
        return cls(trees=trees, feature_names=names,
                   params=dict(d.get("params", {})))


def train_rf(train: Dataset, n_trees: int = 100,
             seed: int = 0) -> RandomForestModel:
    """Bagged trees with per-split random feature subsets.

    Every tree gets its own generator spawned from the master seed, which
    draws its bootstrap rows and then, at each node, ceil(sqrt(F)) of the
    F features, so a tree does not depend on the others.
    """
    if len(train) == 0:
        raise EmptyDataset("random forest needs at least one sample")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X = train.matrix()
    n, total = X.shape
    m = math.isqrt(total - 1) + 1  # ceil(sqrt(total))
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    trees = _grow_trees(X, train.labels(), boots,
                        rngs if m < total else [None] * n_trees, m,
                        train.feature_names, {})
    return RandomForestModel(
        trees=trees, feature_names=tuple(train.feature_names),
        params={"n_trees": n_trees, "seed": seed, "bootstrap": True,
                "max_features": "sqrt", "max_depth": None,
                "min_samples_split": 2})


# --- neural network -----------------------------------------------------------

def _relu(z):
    return np.maximum(z, 0.0)


def _sigmoid(z):
    # exp(-|z|) only, so neither quotient overflows; min(z, -z) is -|z|
    # but, unlike -abs(z), keeps the sign bit of a NaN input. One divide
    # gives 1 / (1 + e) or e / (1 + e), whichever the sign of z picks.
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e)


def _bce(p, y, c):
    """Binary cross-entropy of probabilities p against labels y, row i
    weighted by c[i]."""
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-(c * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))).sum())


@dataclass
class NeuralNetModel:
    """One ReLU hidden layer into a sigmoid unit; inputs standardized
    with the training split's per-feature mean and deviation."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple
    final_loss: float = float("nan")
    params: dict = field(default_factory=dict)

    def _standardize(self, X):
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std

    def predict_proba(self, X) -> np.ndarray:
        a1 = _relu(self._standardize(X) @ self.w1 + self.b1)
        return _sigmoid(a1 @ self.w2 + self.b2)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    def to_dict(self):
        return {"kind": "nn", "params": self.params,
                "feature_names": list(self.feature_names),
                "layers": [self.w1.shape[0], self.w1.shape[1], 1],
                "activations": ["relu", "sigmoid"],
                "w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2,
                "mean": self.mean.tolist(), "std": self.std.tolist(),
                "final_loss": self.final_loss}

    @classmethod
    def from_dict(cls, d) -> "NeuralNetModel":
        model = cls(w1=np.asarray(d["w1"]), b1=np.asarray(d["b1"]),
                    w2=np.asarray(d["w2"]), b2=d["b2"],
                    mean=np.asarray(d["mean"]), std=np.asarray(d["std"]),
                    feature_names=tuple(d["feature_names"]),
                    final_loss=float(d.get("final_loss", float("nan"))),
                    params=dict(d.get("params", {})))
        model._check()
        return model

    def _check(self):
        """Reject weights that are not numbers, do not fit the features,
        or are not finite, and a standardization that divides by zero:
        numpy would parse numeric strings and take true as 1, broadcast a
        short array, and a NaN reaching the output predicts benign."""
        arrays = (self.w1, self.b1, self.w2, self.mean, self.std)
        if (any(a.dtype.kind not in "iuf" for a in arrays)
                or isinstance(self.b2, bool)
                or not isinstance(self.b2, (int, float))):
            raise ValueError("network weights, mean and std must be numbers")
        n = len(self.feature_names)
        if self.w1.ndim != 2 or self.w1.shape[0] != n:
            raise ValueError(f"network w1 must be {n} x hidden")
        hidden = self.w1.shape[1:]
        if self.b1.shape != hidden or self.w2.shape != hidden:
            raise ValueError("network b1 and w2 must have one entry per "
                             "hidden unit")
        if self.mean.shape != (n,) or self.std.shape != (n,):
            raise ValueError("network mean and std must have one entry per "
                             "feature")
        if not (all(np.isfinite(a).all() for a in (
                self.w1, self.b1, self.w2, self.b2, self.mean, self.std))
                and (self.std > 0).all()):
            raise ValueError("network weights, mean and std must be "
                             "finite, with std > 0")


def _init_nn(n_features: int, hidden: int, rng):
    lim1 = math.sqrt(6.0 / (n_features + hidden))
    lim2 = math.sqrt(6.0 / (hidden + 1))
    w1 = rng.uniform(-lim1, lim1, size=(n_features, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-lim2, lim2, size=hidden)
    b2 = 0.0
    return w1, b1, w2, b2


@dataclass
class _NetRows:
    """The rows one network trains on (_net_rows): Xs standardized, y the
    labels and c the row weights, with the full set's mean and std."""

    Xs: np.ndarray
    y: np.ndarray
    c: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    feature_names: tuple


def _net_rows(train: Dataset) -> _NetRows:
    """The distinct (counter vector, label) rows of a training set (_groups),
    row i weighted by c[i] = its count / the set's size, so a weighted sum
    over them is the mean over the set's rows. They are padded to a
    multiple of NN_ROW_BLOCK with weight-0 copies of the first one, whose
    outputs turn NaN only when that row's do. mean and std are the full
    rows' (a constant feature's std is 1), and Xs is standardized with
    them."""
    if len(train) == 0:
        raise EmptyDataset("network training needs at least one sample")
    X = train.matrix()
    y = train.labels()
    Xf = X.astype(np.float64)
    mean = Xf.mean(axis=0)
    std = Xf.std(axis=0)
    std[std == 0.0] = 1.0
    group, first = _groups([*X.T, y])
    pad = -first.shape[0] % NN_ROW_BLOCK
    rows = np.concatenate([first, np.repeat(first[:1], pad)])
    weights = np.concatenate([np.bincount(group), np.zeros(pad)])
    return _NetRows(Xs=(Xf[rows] - mean) / std,
                    y=y[rows].astype(np.float64), c=weights / X.shape[0],
                    mean=mean, std=std,
                    feature_names=tuple(train.feature_names))


def _hidden_buffers(k: int, n: int, hidden: int):
    """Hidden-layer arrays for _forward_grads on a stack of k networks
    over n rows: z1, a1 and dz1 (float) and the active-unit mask."""
    return (np.empty((k, n, hidden)), np.empty((k, n, hidden)),
            np.empty((k, n, hidden)), np.empty((k, n, hidden), dtype=bool))


def _forward_grads(w1, b1, w2, b2, Xs, y, c, hidden_buffers):
    """Output probabilities and the analytic gradients of the weighted BCE
    loss (_bce) of a stack of K networks: Xs (K, n, f), already
    standardized, y and the row weights c (K, n), w1 (K, f, h), b1 and w2
    (K, h), b2 (K,). Weighting the output error by c weights every
    gradient, since each is linear in it.

    Each network's slice goes through the same BLAS calls and elementwise
    steps, in the same order, as one network's 2-D arrays, so it is
    computed bit for bit as if alone. The (K, n, h) values are written
    into hidden_buffers (_hidden_buffers), which a training loop reuses:
    fresh arrays of that size each epoch cost more in page faults than
    the arithmetic once they pass the allocator's mmap threshold.
    """
    z1, a1, dz1, active = hidden_buffers
    np.matmul(Xs, w1, out=z1)
    z1 += b1[:, None, :]
    np.maximum(z1, 0.0, out=a1)
    p = _sigmoid((a1 @ w2[:, :, None])[:, :, 0] + b2[:, None])
    dz2 = (p - y) * c
    gw2 = (a1.transpose(0, 2, 1) @ dz2[:, :, None])[:, :, 0]
    gb2 = dz2.sum(axis=1)
    np.multiply(dz2[:, :, None], w2[:, None, :], out=dz1)
    dz1 *= np.greater(z1, 0.0, out=active)
    gw1 = Xs.transpose(0, 2, 1) @ dz1
    gb1 = dz1.sum(axis=1)
    return p, gw1, gb1, gw2, gb2


def train_nn(train: Dataset, hidden: int = 16, epochs: int = 600,
             lr: float = 0.5, seed: int = 0) -> NeuralNetModel:
    """Full-batch gradient descent on the set's weighted distinct rows
    (_net_rows); raises NonFiniteLoss on divergence. The one-network case
    of train_nn_stack, kept for the tests and perfbench/tracer.py, which
    wraps this name."""
    return train_nn_stack([train], [seed], hidden, epochs, lr)[0]


def train_nn_stack(trains, seeds, hidden: int = 16, epochs: int = 600,
                   lr: float = 0.5) -> list:
    """The networks that train_nn gives for each training set and seed.
    Consecutive sets whose padded rows (_net_rows) share a (rows,
    features) shape train as one stack (_train_stack), and a failure
    raises what training the networks one after another would."""
    models = []
    for _, run in itertools.groupby(
            zip(map(_net_rows, trains), seeds),
            key=lambda set_seed: set_seed[0].Xs.shape):
        sets, run_seeds = zip(*run)
        models += _train_stack(sets, run_seeds, hidden, epochs, lr)
    return models


def _train_stack(sets, seeds, hidden, epochs, lr) -> list:
    """The networks of sets (_net_rows of one shape) and seeds, trained
    as one stack: every epoch steps all K networks through (K, n, f)
    inputs and (K, f, hidden) weights.

    The loss is computed once, after the last epoch. An epoch checks the
    output-bias gradients instead: p is clipped inside the loss, so a
    network's loss is non-finite exactly when some p is NaN, which is
    exactly when its gradient, a sum over every p, is NaN (a weight-0
    row's term is NaN exactly when its p is). A failure raises what
    training the networks one after another would: the NonFiniteLoss of
    the first network in order whose gradient turned NaN at some epoch
    or whose final loss is not finite. Training stops early only when
    the first network diverges, since a later one's error cannot come
    first.
    """
    Xs, y, c = (np.stack([getattr(rows, name) for rows in sets])
                for name in ("Xs", "y", "c"))
    w1, b1, w2, b2 = (np.stack(parts) for parts in zip(*(
        _init_nn(Xs.shape[2], hidden, np.random.default_rng(s))
        for s in seeds)))
    buffers = _hidden_buffers(len(sets), Xs.shape[1], hidden)
    diverged = np.full(len(sets), -1)
    losses = [float("nan")] * len(sets)
    # divergence is detected explicitly below; silence the overflow chatter
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            _, gw1, gb1, gw2, gb2 = _forward_grads(w1, b1, w2, b2, Xs, y, c,
                                                   buffers)
            if math.isnan(gb2.sum()):
                diverged[np.isnan(gb2) & (diverged < 0)] = epoch
                if diverged[0] >= 0:
                    break
            w1 -= lr * gw1
            b1 -= lr * gb1
            w2 -= lr * gw2
            b2 -= lr * gb2
        if epochs > 0 and diverged[0] < 0:
            p, *_ = _forward_grads(w1, b1, w2, b2, Xs, y, c, buffers)
            losses = [_bce(p[k], y[k], c[k]) for k in range(len(sets))]
    for epoch, loss in zip(diverged.tolist(), losses):
        if epoch >= 0:
            raise NonFiniteLoss(epoch, float("nan"))
        if not math.isfinite(loss) and epochs > 0:
            raise NonFiniteLoss(epochs, loss)
    return [NeuralNetModel(w1=w1[k], b1=b1[k], w2=w2[k], b2=float(b2[k]),
                           mean=rows.mean, std=rows.std,
                           feature_names=rows.feature_names,
                           final_loss=losses[k],
                           params={"hidden": hidden, "epochs": epochs,
                                   "lr": lr, "seed": seed})
            for k, (rows, seed) in enumerate(zip(sets, seeds))]


# --- evaluation and serialization ---------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    metrics: Metrics
    predictions: tuple
    by_attack: dict

    def as_dict(self):
        return {"counts": self.counts.as_dict(),
                "metrics": self.metrics.as_dict(),
                "n": self.counts.total,
                "predictions": list(self.predictions),
                "by_attack": {k: v.as_dict()
                              for k, v in self.by_attack.items()}}


def evaluate(model, test: Dataset) -> EvalReport:
    """Confusion counts and metrics on a held-out set, with a per-attack
    breakdown (benign rows grouped under "benign")."""
    if len(test) == 0:
        raise EmptyDataset("evaluation needs at least one sample")
    if tuple(model.feature_names) != tuple(test.feature_names):
        raise InconsistentFeatures(
            f"model expects features {model.feature_names}, dataset has "
            f"{test.feature_names}")
    y = test.labels()
    pred = model.predict(test.matrix())
    counts = ConfusionCounts.from_predictions(y, pred)
    group = np.where(test.attack == "", "benign", test.attack)
    by_attack = {k: ConfusionCounts.from_predictions(y[group == k],
                                                     pred[group == k])
                 for k in sorted(set(group.tolist()))}
    return EvalReport(counts=counts, metrics=Metrics.from_counts(counts),
                      predictions=tuple(int(p) for p in pred),
                      by_attack=by_attack)


def derive_seed(*key) -> int:
    """Seed of one derived stream: the first 32-bit word of the
    SeedSequence built from key, a tuple of non-negative ints."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


TRAINERS = ("dt", "rf", "nn")


def train_eval_cells(cells, train_fraction: float = 0.7, hp=None):
    """(model, EvalReport) of every (kind, dataset, seed, balanced) cell,
    yielded in cell order: the cell's seed splits its dataset, balances
    the training side if asked and seeds the trainer of its kind (the
    decision tree ignores it), and the model is scored on the held-out
    side. hp maps a kind to its trainer's keyword arguments, such as
    {"rf": {"n_trees": 10}}; an unknown kind raises ValueError.

    The networks' cells are split first and trained by one train_nn_stack
    call, which stacks the networks that follow one another among them
    and whose padded rows share a shape, and raises what the first
    failing network would. Every other cell is split and fit when it is
    reached, so only one such model and split is held at a time. The
    trainers are looked up by name when called, so a wrapper installed
    on the module (perfbench/tracer.py's, a test's) sees every fit.
    """
    hp = hp or {}
    cells = list(cells)
    nets = [(i, *_split_cell(ds, seed, train_fraction, balanced), seed)
            for i, (kind, ds, seed, balanced) in enumerate(cells)
            if kind == "nn"]
    models = train_nn_stack([tr for _, tr, _, _ in nets],
                            [seed for _, _, _, seed in nets],
                            **hp.get("nn", {}))
    trained = {i: (model, te) for (i, _, te, _), model in zip(nets, models)}
    # the networks' training sides are not held while the other cells fit
    del nets
    for i, (kind, ds, seed, balanced) in enumerate(cells):
        if kind == "nn":
            model, te = trained.pop(i)
        else:
            tr, te = _split_cell(ds, seed, train_fraction, balanced)
            if kind == "dt":
                model = train_dt(tr)
            elif kind == "rf":
                model = train_rf(tr, seed=seed, **hp.get("rf", {}))
            else:
                raise ValueError(f"unknown model {kind!r}")
        yield model, evaluate(model, te)


def _split_cell(ds: Dataset, seed: int, train_fraction: float,
                balanced: bool):
    """(train, test) of one cell, the train side balanced if asked."""
    tr, te = split(ds, train_fraction, seed)
    if balanced:
        tr = balance(tr, seed=seed)
    return tr, te


_MODEL_KINDS = {"dt": DecisionTreeModel, "rf": RandomForestModel,
                "nn": NeuralNetModel}


def model_from_dict(d):
    """Model from its JSON form; a malformed one raises ValueError,
    TypeError or KeyError."""
    if not isinstance(d, dict):
        raise ValueError("a model must be a JSON object")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    names = d.get("feature_names")
    if not (isinstance(names, list)
            and all(isinstance(n, str) for n in names)):
        raise ValueError("the model's \"feature_names\" must be a list "
                         "of names")
    if not isinstance(d.get("params", {}), dict):
        raise ValueError("the model's \"params\" must be an object")
    return _MODEL_KINDS[kind].from_dict(d)


def save_model(model, path):
    write_json(path, model.to_dict())


def load_model(path):
    """Model from a JSON file; a file that is not UTF-8 JSON of a
    well-formed model raises DataError naming it."""
    return read_json(path, "model", model_from_dict)
