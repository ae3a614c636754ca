"""Classifiers over counter datasets: decision tree, random forest, and a
small neural network, plus splitting, balancing, and evaluation metrics.

All three trainers are deterministic given (dataset, params, seed). A
forest grows all its trees in lockstep, batching the split searches of
one node per tree into one histogram kernel call over the rank codes of
its features; every tree draws from its own generator spawned from the
master seed, so it equals the tree grown on its own. Trees and forests
predict from one flattened node table.

Every caller trains through fit, which dispatches on the model kind, or
train_eval (split, optional balancing, fit, evaluate), and derives the
seeds of its sub-runs with derive_seed.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (DataError, EmptyDataset, InconsistentFeatures,
                     NonFiniteLoss, SingleClass, TooFewSamples)
from .hpc import Dataset

# Entries per split-search call, a node counting its candidate columns
# times its rows or the widest column's histogram, whichever is more:
# enough nodes to amortize numpy's per-call cost, few enough to keep the
# search's working set small.
SPLIT_BATCH_ENTRIES = 16384

# (row, tree) pairs advanced together per prediction step, for the same
# reason.
PREDICT_BLOCK_PAIRS = 8192


# --- splitting and balancing -------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def split(d: Dataset, spec: SplitSpec):
    """Stratified partition into (train, test), each in dataset row order;
    train gets floor(fraction * n) rows.

    Each class's share stays within one sample of the global fraction,
    using largest-remainder rounding so the total is still exactly
    floor(fraction * n).
    """
    n = len(d)
    n_train = int(math.floor(spec.train_fraction * n))
    if n < 2 or n_train < 1 or n - n_train < 1:
        raise TooFewSamples(f"cannot split {n} samples at "
                            f"{spec.train_fraction}")
    rng = np.random.default_rng(spec.seed)
    y = d.labels()
    if (y == 0).sum() == 0 or (y == 1).sum() == 0:
        raise TooFewSamples("stratified split needs both classes")
    targets = {}
    remainders = []
    for c in (0, 1):
        exact = spec.train_fraction * int((y == c).sum())
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


def balance(d: Dataset, seed: int = 0, downsample: bool = False) -> Dataset:
    """Equalize class counts; oversamples the minority with replacement
    by default, or discards majority rows when downsample is set."""
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
    if downsample:
        keep = rng.choice(maj_idx, size=min_idx.shape[0], replace=False)
        return d.subset(np.sort(np.concatenate([min_idx, keep])))
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
        return {"accuracy": self.accuracy,
                "precision": self.precision,
                "recall": self.recall,
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
        model = cls(feature=np.asarray(d["feature"], dtype=np.int64),
                    threshold=np.asarray(d["threshold"], dtype=np.int64),
                    left=np.asarray(d["left"], dtype=np.int64),
                    right=np.asarray(d["right"], dtype=np.int64),
                    counts=np.asarray(d["counts"], dtype=np.int64),
                    feature_names=tuple(d["feature_names"]),
                    params=dict(d.get("params", {})))
        model._check()
        return model

    def _check(self):
        """Reject a malformed node table. Prediction concatenates trees,
        so a child index outside its tree would silently land in the next
        one; children must follow their parent (preorder ids), which also
        rules out cycles."""
        if self.feature.ndim != 1 or self.n_nodes == 0:
            raise ValueError("tree has no node table")
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

    The trees' nodes are concatenated into one table, leaves pointing at
    themselves, and each numpy step moves a block of (row, tree) pairs
    one level down, as in QuickScorer's flattened traversal.
    """
    X = np.asarray(X)
    out = np.zeros(X.shape[0], dtype=np.int64)
    if not trees:
        return out
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
    return out


class _GrowingTree:
    """Node arrays of one tree under construction and its stack of nodes
    still to grow, each (rows, depth, parent, is_right, malicious rows)."""

    def __init__(self, rows, c1, feature_rng):
        self.feature_rng = feature_rng
        self.stack = [(rows, 0, -1, False, c1)]
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.counts = []

    def emit(self, parent, is_right, counts) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(counts)
        if parent >= 0:
            (self.right if is_right else self.left)[parent] = node
        return node

    def model(self, feature_names, params) -> DecisionTreeModel:
        return DecisionTreeModel(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.int64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            counts=np.asarray(self.counts, dtype=np.int64),
            feature_names=tuple(feature_names), params=params)


def _grow_trees(X, y, boots, feature_rngs, n_feats, max_depth,
                min_samples_split, feature_names, params):
    """Grow one tree per row-index vector in boots, all in lockstep.

    X is rank-coded once, column by column. Each round pops the next
    node of every tree, emitting leaves until it reaches one that needs a
    split search, and searches those nodes through batched histogram
    kernel calls of at most SPLIT_BATCH_ENTRIES entries (one node may
    exceed it alone). Children are pushed right then left, so node ids
    and feature_rng draws follow each tree's preorder and every tree
    equals the one grown on its own. A tree whose feature_rng is None
    searches all features at every node; otherwise it draws n_feats of
    them per node.
    """
    all_feats = np.arange(X.shape[1], dtype=np.int64)
    codes, values, offsets = _kernels.rank_code(X.T)
    n_bins = np.diff(offsets)
    max_bins = int(n_bins.max(initial=0))

    def next_split(t):
        while t.stack:
            rows, depth, parent, is_right, c1 = t.stack.pop()
            c0 = rows.shape[0] - c1
            node = t.emit(parent, is_right, (c0, c1))
            if (c0 == 0 or c1 == 0 or rows.shape[0] < min_samples_split
                    or (max_depth is not None and depth >= max_depth)):
                continue
            if t.feature_rng is None:
                feats = all_feats
            else:
                feats = t.feature_rng.choice(all_feats.shape[0],
                                             size=n_feats, replace=False)
                feats.sort()
            return t, node, rows, feats, depth, c1
        return None

    def split(batch):
        sizes = np.array([item[2].shape[0] for item in batch])
        rows = np.concatenate([item[2] for item in batch])
        feats = np.array([item[3] for item in batch])
        y_rows = y[rows]
        cols, below, above, found = _kernels.best_split_codes(
            codes[np.repeat(feats.T, sizes, axis=1), rows], y_rows, sizes,
            n_bins[feats])
        f = feats[np.arange(len(batch)), cols]
        at = offsets[f]
        thrs = (values[at + below] + values[at + above]) // 2
        go_left = (codes[np.repeat(f, sizes), rows]
                   <= np.repeat(below, sizes))
        go_right = ~go_left
        # a searched node holds at least min_samples_split >= 2 rows, so
        # every reduceat segment is non-empty
        c1_left = np.add.reduceat(y_rows * go_left, np.cumsum(sizes) - sizes)
        end = 0
        for (t, node, rows, _, depth, c1), n, fi, thr, ok, l1 in zip(
                batch, sizes.tolist(), f.tolist(), thrs.tolist(),
                found.tolist(), c1_left.tolist()):
            start, end = end, end + n
            if not ok:
                continue
            t.feature[node] = fi
            t.threshold[node] = thr
            t.stack.append((rows[go_right[start:end]], depth + 1, node, True,
                            c1 - l1))
            t.stack.append((rows[go_left[start:end]], depth + 1, node, False,
                            l1))

    trees = [_GrowingTree(rows, int(y[rows].sum()), rng)
             for rows, rng in zip(boots, feature_rngs)]
    active = trees
    while active:
        batch, entries = [], 0
        for t in active:
            item = next_split(t)
            if item is None:
                continue
            size = item[3].shape[0] * max(item[2].shape[0], max_bins)
            if batch and entries + size > SPLIT_BATCH_ENTRIES:
                split(batch)
                batch, entries = [], 0
            batch.append(item)
            entries += size
        if batch:
            split(batch)
        active = [t for t in active if t.stack]
    return [t.model(feature_names, params) for t in trees]


def train_dt(train: Dataset, max_depth=None,
             min_samples_split: int = 2) -> DecisionTreeModel:
    """CART with Gini impurity on integer features.

    Thresholds are midpoints (integer floor) between adjacent distinct
    values; node scoring compares exact integer cross-products so ties
    break reproducibly on (lowest feature, lowest threshold). A split
    must strictly reduce impurity or the node becomes a leaf.
    """
    if len(train) == 0:
        raise EmptyDataset("decision tree needs at least one sample")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")
    X = train.matrix()
    params = {"max_depth": max_depth, "min_samples_split": min_samples_split}
    return _grow_trees(X, train.labels(), [np.arange(X.shape[0])], [None],
                       X.shape[1], max_depth, min_samples_split,
                       train.feature_names, params)[0]


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
        return cls(trees=[DecisionTreeModel.from_dict(t)
                          for t in d["trees"]],
                   feature_names=tuple(d["feature_names"]),
                   params=dict(d.get("params", {})))


def _resolve_max_features(max_features, total: int) -> int:
    if max_features is None:
        return total
    if max_features == "sqrt":
        return min(total, math.isqrt(total - 1) + 1 if total > 1 else 1)
    m = int(max_features)
    if not 1 <= m <= total:
        raise ValueError(f"max_features {m} outside [1, {total}]")
    return m


def train_rf(train: Dataset, n_trees: int = 100, seed: int = 0,
             bootstrap: bool = True, max_features="sqrt", max_depth=None,
             min_samples_split: int = 2) -> RandomForestModel:
    """Bagged trees with per-split random feature subsets.

    Every tree gets its own generator spawned from the master seed, which
    draws its bootstrap rows and then its feature subsets, so a tree does
    not depend on the others. max_features: "sqrt" (ceil of sqrt, the
    default), an int, or None for all features.
    """
    if len(train) == 0:
        raise EmptyDataset("random forest needs at least one sample")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X = train.matrix()
    n, total = X.shape
    m = _resolve_max_features(max_features, total)
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(n_trees)]
    boots = [rng.integers(0, n, size=n) if bootstrap else np.arange(n)
             for rng in rngs]
    trees = _grow_trees(X, train.labels(), boots,
                        rngs if m < total else [None] * n_trees, m,
                        max_depth, min_samples_split, train.feature_names, {})
    return RandomForestModel(
        trees=trees, feature_names=tuple(train.feature_names),
        params={"n_trees": n_trees, "seed": seed, "bootstrap": bootstrap,
                "max_features": max_features, "max_depth": max_depth,
                "min_samples_split": min_samples_split})


# --- neural network -----------------------------------------------------------

def _relu(z):
    return np.maximum(z, 0.0)


def _sigmoid(z):
    # exp(-|z|) only, so neither branch overflows; min(z, -z) is -|z|
    # but, unlike -abs(z), keeps the sign bit of a NaN input
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _bce(p, y):
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


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
        return cls(w1=np.asarray(d["w1"], dtype=np.float64),
                   b1=np.asarray(d["b1"], dtype=np.float64),
                   w2=np.asarray(d["w2"], dtype=np.float64),
                   b2=float(d["b2"]),
                   mean=np.asarray(d["mean"], dtype=np.float64),
                   std=np.asarray(d["std"], dtype=np.float64),
                   feature_names=tuple(d["feature_names"]),
                   final_loss=float(d.get("final_loss", float("nan"))),
                   params=dict(d.get("params", {})))


def _init_nn(n_features: int, hidden: int, rng):
    lim1 = math.sqrt(6.0 / (n_features + hidden))
    lim2 = math.sqrt(6.0 / (hidden + 1))
    w1 = rng.uniform(-lim1, lim1, size=(n_features, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-lim2, lim2, size=hidden)
    b2 = 0.0
    return w1, b1, w2, b2


def _forward_grads(w1, b1, w2, b2, Xs, y):
    """Output probabilities and the analytic gradients of the BCE loss;
    Xs already standardized."""
    n = Xs.shape[0]
    z1 = Xs @ w1 + b1
    a1 = _relu(z1)
    p = _sigmoid(a1 @ w2 + b2)
    dz2 = (p - y) / n
    gw2 = a1.T @ dz2
    gb2 = float(dz2.sum())
    dz1 = dz2[:, None] * w2 * (z1 > 0)
    gw1 = Xs.T @ dz1
    gb1 = dz1.sum(axis=0)
    return p, gw1, gb1, gw2, gb2


def nn_loss_and_grads(w1, b1, w2, b2, Xs, y):
    """Full-batch BCE loss and analytic gradients; Xs already
    standardized."""
    p, gw1, gb1, gw2, gb2 = _forward_grads(w1, b1, w2, b2, Xs, y)
    return _bce(p, y), gw1, gb1, gw2, gb2


def train_nn(train: Dataset, hidden: int = 16, epochs: int = 600,
             lr: float = 0.5, seed: int = 0) -> NeuralNetModel:
    """Full-batch gradient descent; raises NonFiniteLoss on divergence.

    The loss is computed once, after the last epoch. An epoch checks the
    output-bias gradient instead: p is clipped inside the loss, so the
    loss is non-finite exactly when some p is NaN, which is exactly when
    that gradient, a sum over every p, is NaN.
    """
    if len(train) == 0:
        raise EmptyDataset("network training needs at least one sample")
    X = train.matrix().astype(np.float64)
    y = train.labels().astype(np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (X - mean) / std
    rng = np.random.default_rng(seed)
    w1, b1, w2, b2 = _init_nn(X.shape[1], hidden, rng)
    loss = float("nan")
    # divergence is detected explicitly below; silence the overflow chatter
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            _, gw1, gb1, gw2, gb2 = _forward_grads(w1, b1, w2, b2, Xs, y)
            if math.isnan(gb2):
                raise NonFiniteLoss(epoch, float("nan"))
            w1 -= lr * gw1
            b1 -= lr * gb1
            w2 -= lr * gw2
            b2 -= lr * gb2
        if epochs > 0:
            loss, *_ = nn_loss_and_grads(w1, b1, w2, b2, Xs, y)
            if not math.isfinite(loss):
                raise NonFiniteLoss(epochs, loss)
    return NeuralNetModel(w1=w1, b1=b1, w2=w2, b2=b2, mean=mean, std=std,
                          feature_names=tuple(train.feature_names),
                          final_loss=loss,
                          params={"hidden": hidden, "epochs": epochs,
                                  "lr": lr, "seed": seed})


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


def fit(kind: str, train: Dataset, seed: int = 0, **hp):
    """Train a model of the given kind ("dt", "rf" or "nn"); hp are the
    trainer's keyword arguments. The decision tree ignores the seed."""
    if kind == "dt":
        return train_dt(train, **hp)
    if kind == "rf":
        return train_rf(train, seed=seed, **hp)
    if kind == "nn":
        return train_nn(train, seed=seed, **hp)
    raise ValueError(f"unknown model {kind!r}")


def train_eval(kind: str, ds: Dataset, seed: int,
               train_fraction: float = 0.7, balanced: bool = False, **hp):
    """Split ds, optionally balance the training side, fit a model and
    score it on the held-out side; one seed drives all three. Returns
    (model, EvalReport)."""
    tr, te = split(ds, SplitSpec(train_fraction=train_fraction, seed=seed))
    if balanced:
        tr = balance(tr, seed=seed)
    model = fit(kind, tr, seed, **hp)
    return model, evaluate(model, te)


_MODEL_KINDS = {"dt": DecisionTreeModel, "rf": RandomForestModel,
                "nn": NeuralNetModel}


def model_to_json(model) -> str:
    return json.dumps(model.to_dict(), indent=2) + "\n"


def model_from_json(text: str):
    """Model from its JSON form; a malformed one raises ValueError,
    TypeError or KeyError."""
    d = json.loads(text)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    """Model from a JSON file; a file that is not UTF-8 JSON of a
    well-formed model raises DataError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return model_from_json(fh.read())
        except (ValueError, TypeError, KeyError, OverflowError,
                RecursionError) as e:
            raise DataError(f"model {path}: {e}") from e
