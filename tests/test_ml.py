"""Classifier correctness against independent references.

Three oracles live here: exact rational confusion-metric identities, a
Fraction-arithmetic greedy reference tree that enumerates every
(feature, threshold) candidate, and central finite differences for the
network gradients.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel import _kernels, hpc, ml, mutate, pca
from hpc_sentinel.asm import parse_listing
from hpc_sentinel.errors import (EmptyDataset, InconsistentFeatures,
                                 NonFiniteLoss, SingleClass, TooFewSamples)

from conftest import make_dataset, train_eval_oracle
from test_kernels import best_split_loop


# --- confusion counts and metric identities ------------------------------------

def test_confusion_from_predictions_matches_manual_tally():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 200)
    p = rng.integers(0, 2, 200)
    c = ml.ConfusionCounts.from_predictions(y, p)
    assert c.tp == int(np.sum((y == 1) & (p == 1)))
    assert c.tn == int(np.sum((y == 0) & (p == 0)))
    assert c.fp == int(np.sum((y == 0) & (p == 1)))
    assert c.fn == int(np.sum((y == 1) & (p == 0)))
    assert c.total == 200


@given(st.integers(0, 500), st.integers(0, 500),
       st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=400, deadline=None)
def test_metric_rational_identities(tp, tn, fp, fn):
    c = ml.ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
    if c.total == 0:
        return
    m = ml.Metrics.from_counts(c)
    # float() of an exact Fraction is the correctly rounded quotient, so
    # equality with IEEE division is exact, not approximate
    assert m.accuracy == float(Fraction(tp + tn, c.total))
    assert m.fp_rate == float(Fraction(fp, c.total))
    assert m.fn_rate == float(Fraction(fn, c.total))
    if tp + fp > 0:
        assert m.precision_defined
        assert m.precision == float(Fraction(tp, tp + fp))
    else:
        assert not m.precision_defined and np.isnan(m.precision)
    if tp + fn > 0:
        assert m.recall_defined
        assert m.recall == float(Fraction(tp, tp + fn))
    else:
        assert not m.recall_defined and np.isnan(m.recall)


# --- reference decision tree ----------------------------------------------------

def _purity(c0, c1):
    # larger is purer: sum of squared class counts over node size
    return Fraction(c0 * c0 + c1 * c1, c0 + c1)


def _ref_grow(X, y, idx):
    c1 = sum(y[i] for i in idx)
    c0 = len(idx) - c1
    leaf = ("leaf", 1 if c1 > c0 else 0)
    if c0 == 0 or c1 == 0:
        return leaf
    parent = _purity(c0, c1)
    best = None  # (score, feature, threshold, left_idx, right_idx)
    for f in range(X.shape[1]):
        vals = sorted({int(X[i, f]) for i in idx})
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) // 2
            left = [i for i in idx if X[i, f] <= t]
            right = [i for i in idx if X[i, f] > t]
            l1 = sum(y[i] for i in left)
            r1 = sum(y[i] for i in right)
            score = (_purity(len(left) - l1, l1)
                     + _purity(len(right) - r1, r1))
            # ascending (f, t) scan plus strict improvement gives the
            # lowest-feature-then-lowest-threshold tie-break for free
            if score > parent and (best is None or score > best[0]):
                best = (score, f, t, left, right)
    if best is None:
        return leaf
    _, f, t, left, right = best
    return ("split", f, t, _ref_grow(X, y, left), _ref_grow(X, y, right))


def _ref_predict(node, x):
    while node[0] == "split":
        _, f, t, left, right = node
        node = left if x[f] <= t else right
    return node[1]


def reference_tree_predictions(X, y):
    root = _ref_grow(X, y, list(range(len(y))))
    return [_ref_predict(root, x) for x in X]


def _dt_predictions(X, y):
    names = hpc.FEATURE_NAMES[: X.shape[1]]
    ds = make_dataset(X, y, feature_names=names).project(names)
    model = ml.train_dt(ds)
    return ml.evaluate(model, ds).predictions


def test_dt_matches_reference_on_random_small_instances():
    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        n_feat = int(rng.integers(1, 4))
        X = rng.integers(0, 3, size=(n, n_feat))
        y = rng.integers(0, 2, size=n)
        want = reference_tree_predictions(X, y)
        got = list(_dt_predictions(X, y))
        assert got == want, (X.tolist(), y.tolist())


def test_dt_matches_reference_all_labelings_small_grid():
    # every labeling of a fixed 6-point, 2-feature ternary design
    X = np.array([[0, 0], [0, 1], [1, 2], [2, 2], [2, 0], [1, 1]])
    for bits in itertools.product([0, 1], repeat=6):
        y = np.array(bits)
        want = reference_tree_predictions(X, y)
        got = list(_dt_predictions(X, y))
        assert got == want, bits


def test_dt_constant_features_single_leaf_majority():
    X = np.zeros((5, 3), dtype=np.int64)
    y = np.array([1, 1, 1, 0, 0])
    preds = _dt_predictions(X, y)
    assert list(preds) == [1] * 5
    # 0/1 tie in the leaf -> benign
    X2 = np.zeros((4, 3), dtype=np.int64)
    y2 = np.array([1, 1, 0, 0])
    assert list(_dt_predictions(X2, y2)) == [0] * 4


def test_dt_pure_training_set_is_memorized(tiny_dataset):
    model = ml.train_dt(tiny_dataset)
    rep = ml.evaluate(model, tiny_dataset)
    assert rep.metrics.accuracy == 1.0


def test_dt_matches_reference_on_large_values():
    # values up to 2^40: split scores count rows, not values, and every
    # threshold must be the floor of the midpoint of two such values, as
    # in the reference; 12 rows keep every node on the exact-fraction path
    rng = np.random.default_rng(3)
    X = rng.integers(0, 2**40, size=(12, 4)).astype(np.int64)
    y = rng.integers(0, 2, size=12)
    want = reference_tree_predictions(X, y)
    got = list(_dt_predictions(X, y))
    assert got == want


# --- random forest ---------------------------------------------------------------

def _leaf_tree(prediction, feature_names):
    counts = np.array([[0, 1]] if prediction else [[1, 0]], dtype=np.int64)
    return ml.DecisionTreeModel(
        feature=np.array([-1]), threshold=np.array([0]),
        left=np.array([-1]), right=np.array([-1]),
        counts=counts, feature_names=tuple(feature_names), params={})


def test_rf_vote_tie_goes_benign(tiny_dataset):
    names = tiny_dataset.feature_names
    forest = ml.RandomForestModel(
        trees=(_leaf_tree(0, names), _leaf_tree(1, names)),
        feature_names=tuple(names), params={})
    preds = forest.predict(tiny_dataset.matrix())
    assert preds.tolist() == [0] * len(tiny_dataset)


def test_rf_parallel_equals_serial(monkeypatch):
    # trees grown in lockstep equal trees grown one at a time from the
    # same spawned generators, however the rounds are cut into kernel
    # calls; random labels make the trees deep
    rng = np.random.default_rng(11)
    d = make_dataset(rng.integers(0, 10, size=(60, 30)),
                     rng.integers(0, 2, size=60))
    X, y = d.matrix(), d.labels()
    alone = []
    for child in np.random.SeedSequence(4).spawn(12):
        tree_rng = np.random.default_rng(child)
        boot = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        alone.append(ml._grow_trees(X, y, [boot], [tree_rng], 6,
                                    d.feature_names, {})[0].to_dict())
    assert min(len(t["feature"]) for t in alone) > 5
    for batch_entries in (ml.SPLIT_BATCH_ENTRIES, 500):
        monkeypatch.setattr(ml, "SPLIT_BATCH_ENTRIES", batch_entries)
        forest = ml.train_rf(d, n_trees=12, seed=4)
        assert [t.to_dict() for t in forest.trees] == alone


def _recursive_tree(X, y, rows, rng, m):
    """Depth-first reference grower: preorder node ids, one feature draw
    per searched node, the loop split kernel."""
    nodes = []

    def grow(rows):
        i = len(nodes)
        c1 = int(y[rows].sum())
        nodes.append([-1, 0, -1, -1, [rows.shape[0] - c1, c1]])
        if 0 < c1 < rows.shape[0]:
            feats = np.sort(rng.choice(X.shape[1], size=m, replace=False))
            f, t, found = best_split_loop(X[rows], y[rows], feats, True)
            if found:
                go_left = X[rows, f] <= t
                nodes[i][:2] = [int(f), int(t)]
                nodes[i][2] = grow(rows[go_left])
                nodes[i][3] = grow(rows[~go_left])
        return i

    grow(rows)
    return [list(column) for column in zip(*nodes)]


def test_rf_trees_match_recursive_reference():
    # node ids and feature draws follow each tree's preorder, as a
    # recursive grower makes them
    rng = np.random.default_rng(12)
    d = make_dataset(rng.integers(0, 10, size=(50, 30)),
                     rng.integers(0, 2, size=50))
    X, y = d.matrix(), d.labels()
    forest = ml.train_rf(d, n_trees=5, seed=9)
    for tree, child in zip(forest.trees,
                           np.random.SeedSequence(9).spawn(5)):
        tree_rng = np.random.default_rng(child)
        boot = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        want = _recursive_tree(X, y, boot, tree_rng, 6)
        got = [tree.feature.tolist(), tree.threshold.tolist(),
               tree.left.tolist(), tree.right.tolist(), tree.counts.tolist()]
        assert got == want


@pytest.mark.parametrize("n_total,n_feats", [(30, 6), (20, 5), (12, 4),
                                             (3, 2)])
def test_feature_subsets_equal_choice_draws(n_total, n_feats):
    # after the bootstrap draw, as in train_rf; odd and even bootstrap
    # sizes leave the generator's buffered 32-bit half in both states, and
    # three blocks per tree stand for trees that search more nodes than
    # one block holds
    blocks = 3
    for seed in range(100):
        n = 20 + seed % 7
        want = []
        for s in (seed, seed + 1000):
            ref = np.random.default_rng(s)
            ref.integers(0, n, size=n)
            want.append([np.sort(ref.choice(n_total, n_feats, replace=False))
                         .tolist()
                         for _ in range(blocks * ml.FEATURE_DRAW_NODES)])
        rngs = [np.random.default_rng(s) for s in (seed, seed + 1000)]
        for rng in rngs:
            rng.integers(0, n, size=n)
        # the first block of several generators is decoded in one call
        got = [block.tolist() for block in
               ml._draw_feature_subsets(rngs, n_total, n_feats)]
        for _ in range(blocks - 1):
            for tree, rng in zip(got, rngs):
                tree += ml._draw_feature_subsets(
                    [rng], n_total, n_feats)[0].tolist()
        assert got == want


def test_rf_trees_taking_several_feature_blocks_match_reference(
        monkeypatch):
    # trees whose searched nodes need several blocks, at the shipped block
    # size and at blocks of one and two nodes, still take the per-node
    # choice draws of the recursive reference
    rng = np.random.default_rng(5)
    d = make_dataset(rng.integers(0, 10, size=(80, 30)),
                     rng.integers(0, 2, size=80))
    X, y = d.matrix(), d.labels()
    want = []
    for child in np.random.SeedSequence(3).spawn(6):
        tree_rng = np.random.default_rng(child)
        boot = tree_rng.integers(0, X.shape[0], size=X.shape[0])
        want.append(_recursive_tree(X, y, boot, tree_rng, 6))
    searched = [sum(1 for c0, c1 in t[4] if c0 and c1) for t in want]
    assert max(searched) > ml.FEATURE_DRAW_NODES
    for nodes in (ml.FEATURE_DRAW_NODES, 1, 2):
        monkeypatch.setattr(ml, "FEATURE_DRAW_NODES", nodes)
        forest = ml.train_rf(d, n_trees=6, seed=3)
        assert [_tree_columns(t) for t in forest.trees] == want, nodes


def _rows_dataset(duplicated):
    """A heavily duplicated dataset (9 counter patterns over 180 rows, a
    tenth of the copies relabeled, so some patterns carry both labels) or
    one whose 90 rows are all distinct (values up to 10^6, so the rows'
    codes need several packed sort keys)."""
    rng = np.random.default_rng(21)
    if duplicated:
        pick = rng.integers(0, 9, size=180)
        X = rng.integers(0, 4, size=(9, 30))[pick]
        y = (pick % 3 == 0) ^ (rng.random(180) < 0.1)
    else:
        X = rng.integers(0, 10**6, size=(90, 30))
        y = rng.integers(0, 2, size=90)
    return make_dataset(X, y.astype(np.int64))


@pytest.mark.parametrize("duplicated", [True, False],
                         ids=["duplicated", "distinct"])
def test_trees_on_duplicated_and_distinct_rows_match_reference(duplicated):
    # trees grown on distinct rows weighted by multiplicity equal the
    # reference grown on every copy
    d = _rows_dataset(duplicated)
    X, y = d.matrix(), d.labels()
    distinct = len({(tuple(row), label)
                    for row, label in zip(X.tolist(), y.tolist())})
    assert distinct <= 18 if duplicated else distinct == len(y)
    want_dt = _recursive_tree(X, y, np.arange(len(y)),
                              np.random.default_rng(0), X.shape[1])
    assert _tree_columns(ml.train_dt(d)) == want_dt
    want_rf = []
    for child in np.random.SeedSequence(8).spawn(6):
        tree_rng = np.random.default_rng(child)
        boot = tree_rng.integers(0, len(y), size=len(y))
        want_rf.append(_recursive_tree(X, y, boot, tree_rng, 6))
    assert max(len(t[0]) for t in want_rf) > 5
    forest = ml.train_rf(d, n_trees=6, seed=8)
    assert [_tree_columns(t) for t in forest.trees] == want_rf


# Bit patterns of 0.0, -0.0 and four NaNs (quiet and signalling payloads,
# both signs), as the simulation CSV writer groups its float columns.
_FLOAT_BITS = np.array([0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001,
                        0x7FF0000000000001, 0xFFF8000000000000],
                       dtype=np.uint64).view(np.int64).tolist()

# (values, dtype) of one key: small ints of both signs, ranges whose
# products cross group_rows' 2^62 packing bound, the int64 extremes, float
# bit patterns, unsigned ints past 2^63, and floats (no NaN: a float key
# compares by value, and NaN equals nothing)
_KEY_KINDS = st.sampled_from([
    (st.integers(-3, 3), np.int64),
    (st.integers(-2**31, 2**31), np.int64),
    (st.sampled_from([-2**63, -2**63 + 1, -2**62, 0, 2**62 - 1, 2**62,
                      2**63 - 1]), np.int64),
    (st.integers(-2**63, 2**63 - 1), np.int64),
    (st.sampled_from(_FLOAT_BITS), np.int64),
    (st.integers(2**63 - 2, 2**64 - 1), np.uint64),
    (st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf]), np.float64),
])


@st.composite
def _keyed_samples(draw):
    """Keys over 0-30 samples, each sample one of a few distinct rows so
    that equal samples are common."""
    n_rows = draw(st.integers(1, 5))
    pick = np.array(draw(st.lists(st.integers(0, n_rows - 1), max_size=30)),
                    dtype=np.int64)
    keys = []
    for values, dtype in draw(st.lists(_KEY_KINDS, min_size=1, max_size=6)):
        rows = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        keys.append(np.array(rows, dtype=dtype)[pick])
    return keys


@given(_keyed_samples())
@settings(max_examples=300, deadline=None)
def test_row_groups_join_exactly_equal_rows(keys):
    # two samples share a group exactly when they are equal on every key,
    # and the groups are numbered in lexsort order of the keys as given,
    # each represented by its first sample
    group, first = _kernels.group_rows(keys)
    n = len(keys[0])
    rows = list(zip(*(k.tolist() for k in keys)))
    assert group.shape == (n,)
    for i, j in itertools.combinations(range(n), 2):
        assert (group[i] == group[j]) == (rows[i] == rows[j]), (i, j)
    ranks = group[np.lexsort(keys)]
    assert ranks.tolist() == sorted(ranks.tolist())
    assert first.tolist() == [group.tolist().index(g)
                              for g in range(len(first))]
    assert set(group.tolist()) == set(range(len(first)))


def _wide_values_dataset(seed, n=60):
    """Columns whose rank codes differ from their values: negative,
    +-10^6, near +-2^60, constant, and small of both signs."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(-50, 0, size=n),
        rng.integers(-10**6, 10**6, size=n),
        rng.choice([-1, 1], size=n) * 2**60 + rng.integers(-3, 4, size=n),
        np.full(n, 7),
        rng.integers(-5, 5, size=n),
    ])
    names = hpc.FEATURE_NAMES[:X.shape[1]]
    return make_dataset(X, rng.integers(0, 2, size=n),
                        feature_names=names).project(names)


def _tree_columns(tree):
    return [tree.feature.tolist(), tree.threshold.tolist(),
            tree.left.tolist(), tree.right.tolist(), tree.counts.tolist()]


def test_trees_on_wide_values_match_recursive_reference(monkeypatch):
    # every threshold goes through the rank code -> value mapping; a batch
    # cap of one node's histogram budget sends each node to the kernel
    # alone, even nodes whose rows alone would share a call
    d = _wide_values_dataset(3)
    X, y = d.matrix(), d.labels()
    n, n_cols = X.shape
    m = 3  # ceil(sqrt(5)) features drawn per node
    # drawing all n_cols columns searches every feature, as train_dt does
    want_dt = _recursive_tree(X, y, np.arange(n), np.random.default_rng(0),
                              n_cols)
    want_rf = []
    for child in np.random.SeedSequence(2).spawn(8):
        tree_rng = np.random.default_rng(child)
        boot = tree_rng.integers(0, n, size=n)
        want_rf.append(_recursive_tree(X, y, boot, tree_rng, m))
    assert max(len(t[0]) for t in want_rf) > 5

    nodes_per_call = []
    kernel = _kernels.best_split_codes

    def counting(codes, y, weights, sizes, bins):
        nodes_per_call.append(len(sizes))
        return kernel(codes, y, weights, sizes, bins)

    monkeypatch.setattr(_kernels, "best_split_codes", counting)
    max_bins = max(len(set(col)) for col in X.T.tolist())
    searched = sum(1 for c0, c1 in want_dt[4] if c0 and c1)
    for cap, most in ((ml.SPLIT_BATCH_ENTRIES, 8), (m * max_bins, 1)):
        monkeypatch.setattr(ml, "SPLIT_BATCH_ENTRIES", cap)
        nodes_per_call.clear()
        assert _tree_columns(ml.train_dt(d)) == want_dt
        # the decision tree searches its pending nodes together, as far
        # as the cap lets it
        assert sum(nodes_per_call) == searched
        assert (len(nodes_per_call) < searched) == (most > 1), cap
        nodes_per_call.clear()
        forest = ml.train_rf(d, n_trees=8, seed=2)
        assert [_tree_columns(t) for t in forest.trees] == want_rf
        assert max(nodes_per_call) == most, cap


def test_rf_deterministic_and_seed_sensitive(tiny_dataset):
    X = tiny_dataset.matrix()
    a = ml.train_rf(tiny_dataset, n_trees=8, seed=1)
    b = ml.train_rf(tiny_dataset, n_trees=8, seed=1)
    assert a.predict(X).tolist() == b.predict(X).tolist()
    assert [t.feature.tolist() for t in a.trees] == \
           [t.feature.tolist() for t in b.trees]


def test_rf_learns_separable_data(tiny_dataset):
    forest = ml.train_rf(tiny_dataset, n_trees=25, seed=0)
    rep = ml.evaluate(forest, tiny_dataset)
    assert rep.metrics.accuracy == 1.0


# --- neural network ---------------------------------------------------------------

def _weighted_step(w1, b1, w2, b2, Xs, y, c):
    """The weighted loss and gradients of one network, through the
    stacked step on a stack of one."""
    p, gw1, gb1, gw2, gb2 = ml._forward_grads(
        w1[None], b1[None], w2[None], np.array([b2]), Xs[None], y[None],
        c[None], ml._hidden_buffers(1, Xs.shape[0], w1.shape[1]))
    return ml._bce(p[0], y, c), gw1[0], gb1[0], gw2[0], float(gb2[0])


def _fd_check(w1, b1, w2, b2, Xs, y, rng, n_points=10, eps=1e-6, c=None):
    """The worst relative error of the weighted step's gradients against
    central differences of its loss; every row weighs 1/n unless the row
    weights c are given."""
    if c is None:
        c = np.full(Xs.shape[0], 1.0 / Xs.shape[0])
    loss, gw1, gb1, gw2, gb2 = _weighted_step(w1, b1, w2, b2, Xs, y, c)
    grads = {"w1": gw1, "b1": gb1, "w2": gw2}
    worst = 0.0
    for name, g in grads.items():
        arr = {"w1": w1, "b1": b1, "w2": w2}[name]
        flat_idx = rng.choice(arr.size, size=min(n_points, arr.size),
                              replace=False)
        for k in flat_idx:
            idx = np.unravel_index(k, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = _weighted_step(w1, b1, w2, b2, Xs, y, c)[0]
            arr[idx] = orig - eps
            lm = _weighted_step(w1, b1, w2, b2, Xs, y, c)[0]
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            a = float(np.asarray(g)[idx])
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            worst = max(worst, rel)
    # bias of the output unit, a scalar
    lp = _weighted_step(w1, b1, w2, b2 + eps, Xs, y, c)[0]
    lm = _weighted_step(w1, b1, w2, b2 - eps, Xs, y, c)[0]
    fd = (lp - lm) / (2 * eps)
    worst = max(worst, abs(gb2 - fd) / max(1e-8, abs(gb2) + abs(fd)))
    return worst


def test_nn_gradients_match_finite_differences():
    # rows of weights 1-4 and three weight-0 padding rows
    rng = np.random.default_rng(21)
    for _ in range(3):
        n, f, h = 12, 5, 4
        Xs = rng.normal(size=(n, f))
        y = rng.integers(0, 2, n).astype(np.float64)
        w = np.concatenate([rng.integers(1, 5, n - 3), np.zeros(3)])
        c = w / w.sum()
        w1 = rng.normal(scale=0.5, size=(f, h))
        b1 = rng.normal(scale=0.1, size=h)
        w2 = rng.normal(scale=0.5, size=h)
        b2 = float(rng.normal(scale=0.1))
        assert _fd_check(w1, b1, w2, b2, Xs, y, rng, c=c) < 1e-4


def test_nn_loss_is_binary_cross_entropy():
    # the weighted rows' loss is the mean over the rows they stand for: the
    # first three times, the second once, the third (padding) never
    Xs = np.array([[1.0], [-1.0], [0.5]])
    y = np.array([1.0, 0.0, 1.0])
    c = np.array([3.0, 1.0, 0.0]) / 4
    w1 = np.array([[2.0, -1.0]])
    b1 = np.zeros(2)
    w2 = np.array([1.0, 1.0])
    b2 = 0.25
    loss = _weighted_step(w1, b1, w2, b2, Xs, y, c)[0]
    rows = np.array([0, 0, 0, 1])
    z1 = Xs[rows] @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    p = 1.0 / (1.0 + np.exp(-(a1 @ w2 + b2)))
    want = float(-(y[rows] * np.log(p)
                   + (1 - y[rows]) * np.log(1 - p)).mean())
    assert loss == pytest.approx(want, rel=1e-12)


def test_nn_learns_separable_data(tiny_dataset):
    model = ml.train_nn(tiny_dataset, hidden=8, epochs=400, lr=0.5, seed=0)
    rep = ml.evaluate(model, tiny_dataset)
    assert rep.metrics.accuracy == 1.0
    assert np.isfinite(model.final_loss)


def test_nn_learns_xor():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]]) * 10
    y = np.array([0, 1, 1, 0])
    names = hpc.FEATURE_NAMES[:2]
    ds = make_dataset(X, y, feature_names=names).project(names)
    model = ml.train_nn(ds, hidden=8, epochs=3000, lr=0.5, seed=1)
    assert ml.evaluate(model, ds).metrics.accuracy == 1.0


def test_nn_divergence_raises(tiny_dataset):
    with pytest.raises(NonFiniteLoss):
        ml.train_nn(tiny_dataset, hidden=8, epochs=100, lr=1e12, seed=0)


def _diverging_epoch_reference(ds, hidden, epochs, lr, seed):
    """The training loop with the loss computed every epoch: the
    NonFiniteLoss of the first non-finite loss, or None."""
    rows = ml._net_rows(ds)
    w1, b1, w2, b2 = ml._init_nn(rows.Xs.shape[1], hidden,
                                 np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            loss, gw1, gb1, gw2, gb2 = _weighted_step(w1, b1, w2, b2,
                                                      rows.Xs, rows.y, rows.c)
            if not math.isfinite(loss):
                return NonFiniteLoss(epoch, loss)
            w1, b1 = w1 - lr * gw1, b1 - lr * gb1
            w2, b2 = w2 - lr * gw2, b2 - lr * gb2
    return None


@pytest.mark.parametrize("lr,seed,epochs", [
    (1e12, 0, 100), (1e3, 1, 100), (100.0, 0, 100),
    (100.0, 1, 90),     # first non-finite loss is the one after training
    (30.0, 0, 100),     # no divergence
])
def test_nn_divergence_matches_per_epoch_loss(tiny_dataset, lr, seed,
                                              epochs):
    want = _diverging_epoch_reference(tiny_dataset, 8, epochs, lr, seed)
    if want is None:
        ml.train_nn(tiny_dataset, hidden=8, epochs=epochs, lr=lr, seed=seed)
        return
    with pytest.raises(NonFiniteLoss) as got:
        ml.train_nn(tiny_dataset, hidden=8, epochs=epochs, lr=lr, seed=seed)
    assert got.value.epoch == want.epoch
    assert str(got.value) == str(want)


def _forward_grads_alone(w1, b1, w2, b2, Xs, y, c):
    """One network's weighted step on its own 2-D arrays: the reference
    that each network of the stacked step equals bit for bit."""
    z1 = Xs @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    p = ml._sigmoid(a1 @ w2 + b2)
    dz2 = (p - y) * c
    gw2 = a1.T @ dz2
    gb2 = float(dz2.sum())
    dz1 = dz2[:, None] * w2 * (z1 > 0)
    gw1 = Xs.T @ dz1
    gb1 = dz1.sum(axis=0)
    return p, gw1, gb1, gw2, gb2


def _train_alone(ds, hidden, epochs, lr, seed):
    """(w1, b1, w2, b2, final loss) of one network trained on its own
    weighted, padded rows, or the NonFiniteLoss it raises."""
    rows = ml._net_rows(ds)
    Xs, y, c = rows.Xs, rows.y, rows.c
    w1, b1, w2, b2 = ml._init_nn(Xs.shape[1], hidden,
                                 np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            _, gw1, gb1, gw2, gb2 = _forward_grads_alone(w1, b1, w2, b2,
                                                         Xs, y, c)
            if math.isnan(gb2):
                return NonFiniteLoss(epoch, float("nan"))
            w1 -= lr * gw1
            b1 -= lr * gb1
            w2 -= lr * gw2
            b2 -= lr * gb2
        p, *_ = _forward_grads_alone(w1, b1, w2, b2, Xs, y, c)
    loss = ml._bce(p, y, c)
    if not math.isfinite(loss):
        return NonFiniteLoss(epochs, loss)
    return w1, b1, w2, b2, loss


@pytest.fixture(scope="module")
def seed42_dataset():
    """The dataset of a seed-42 reproduce run."""
    corpus = mutate.build_corpus(mutate.synth_base_listing(seed=42),
                                 seed=42)
    return hpc.emit_dataset(
        [(kind, "benign" if kind == "benign" else "malicious",
          None if kind == "benign" else kind, parse_listing(text))
         for kind, text in sorted(corpus.items())])


@pytest.fixture(scope="module")
def double_exclusion_cells(seed42_dataset):
    """Training sides of the ten 12-feature cells of a seed-42 sweep."""
    specs = [s for s in pca.all_specs() if len(s.excluded) == 2]
    return [(ml.split(seed42_dataset.project(s.features), 0.7,
                      ml.derive_seed(42, 5 + i, 2))[0],
             ml.derive_seed(42, 5 + i, 2)) for i, s in enumerate(specs)]


def _seed42_network_sets(ds):
    """The training sides of reproduce's four seed-42 networks on every
    counter and of its two top-3 networks."""
    top = ds.project(pca.rank_features(ds, n_components=3).top(3))
    sets = []
    for d, seeds in ((ds, (42, 42)),
                     (top, (ml.derive_seed(42, 3, 0),
                            ml.derive_seed(42, 3, 1)))):
        for balanced, seed in enumerate(seeds):
            cell_seed = ml.derive_seed(seed, balanced, 2)
            sets.append(ml._split_cell(d, cell_seed, 0.7, balanced)[0])
    return sets


def test_weighted_step_equals_full_rows(seed42_dataset):
    # the distinct rows, weighted by count, give the repeated rows' loss
    # and gradients, at the initial weights and after 100 epochs
    for tr in _seed42_network_sets(seed42_dataset):
        rows = ml._net_rows(tr)
        n = len(tr)
        assert rows.Xs.shape[0] % ml.NN_ROW_BLOCK == 0
        assert np.count_nonzero(rows.c) < n
        assert math.isclose(rows.c.sum(), 1.0, rel_tol=1e-12)
        X = tr.matrix().astype(np.float64)
        Xs = (X - rows.mean) / rows.std
        y = tr.labels().astype(np.float64)
        for epochs in (0, 100):
            net = ml.train_nn(tr, epochs=epochs, seed=3)
            params = (net.w1, net.b1, net.w2, net.b2)
            want = _weighted_step(*params, Xs, y, np.full(n, 1.0 / n))
            got = _weighted_step(*params, rows.Xs, rows.y, rows.c)
            for a, b in zip(got, want):
                err = np.max(np.abs(np.subtract(a, b)))
                assert err <= 1e-12 * np.max(np.abs(b)), (n, epochs)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_nn_stack_equals_networks_trained_alone(double_exclusion_cells, k):
    cells = double_exclusion_cells[:k]
    # the sets differ in their distinct counts, and are padded to one shape
    distinct = {int(np.count_nonzero(ml._net_rows(tr).c)) for tr, _ in cells}
    assert len(distinct) > 1 or k == 1
    nets = ml.train_nn_stack([tr for tr, _ in cells],
                             [seed for _, seed in cells], epochs=150)
    assert len(nets) == k
    for net, (tr, seed) in zip(nets, cells):
        w1, b1, w2, b2, loss = _train_alone(tr, 16, 150, 0.5, seed)
        assert net.w1.tobytes() == w1.tobytes()
        assert net.b1.tobytes() == b1.tobytes()
        assert net.w2.tobytes() == w2.tobytes()
        assert net.b2 == b2 and net.final_loss == loss
        assert net.params["seed"] == seed


@pytest.mark.parametrize("lr,epochs,seeds", [
    (1e3, 100, (1, 2, 4)),   # the second diverges 30 epochs before the first
    (1e3, 100, (4, 1, 2)),   # the first never diverges
    (100.0, 90, (1, 27)),    # the first's final loss, the second's epoch
])
def test_nn_stack_raises_first_networks_error(tiny_dataset, lr, epochs,
                                              seeds):
    alone = [_train_alone(tiny_dataset, 8, epochs, lr, s) for s in seeds]
    failed = [a for a in alone if isinstance(a, NonFiniteLoss)]
    assert len(failed) >= 2
    # a later network fails at an earlier epoch than the first failure
    assert failed[1].epoch < failed[0].epoch
    with pytest.raises(NonFiniteLoss) as got:
        ml.train_nn_stack([tiny_dataset] * len(seeds), list(seeds),
                          hidden=8, epochs=epochs, lr=lr)
    assert got.value.epoch == failed[0].epoch
    assert str(got.value) == str(failed[0])


def _assert_cells_equal_oracle(cells, hp=None):
    got = list(ml.train_eval_cells(cells, 0.7, hp))
    assert len(got) == len(cells)
    for (kind, ds, seed, balanced), (model, report) in zip(cells, got):
        want_model, want_report = train_eval_oracle(kind, ds, seed, 0.7,
                                                    balanced, hp)
        assert repr(model.to_dict()) == repr(want_model.to_dict())
        assert repr(report) == repr(want_report)
    return [model for model, _ in got]


@pytest.mark.parametrize("balanced", [False, True])
def test_train_eval_cells_equal_train_eval(balanced):
    # networks of alternating shapes, with trees between them, train as
    # runs of stacks; each cell's model and report equal the step-by-step
    # oracle's
    rng = np.random.default_rng(8)
    d = make_dataset(rng.integers(0, 8, size=(50, 30)),
                     rng.integers(0, 2, size=50))
    wide, narrow = d, d.project(hpc.FEATURE_NAMES[:12])
    _assert_cells_equal_oracle(
        [("nn", wide, 1, balanced), ("dt", narrow, 2, balanced),
         ("nn", wide, 3, balanced), ("nn", narrow, 4, balanced),
         ("dt", wide, 5, balanced), ("nn", narrow, 6, balanced),
         ("nn", wide, 7, balanced)])


def test_train_eval_cells_mixed_balanced_flags(seed42_dataset):
    # reproduce's train stage: every kind unbalanced, then balanced, on
    # the seed-42 dataset; its two networks train as one stack
    ds = seed42_dataset
    cells = [(kind, ds, ml.derive_seed(42, int(balanced), i), balanced)
             for balanced in (False, True)
             for i, kind in enumerate(ml.TRAINERS)]
    stacks = []
    stack = ml._train_stack

    def counting(sets, *args):
        stacks.append(len(sets))
        return stack(sets, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ml, "_train_stack", counting)
        _assert_cells_equal_oracle(cells)
    # one stack of two, then one network per oracle cell
    assert stacks == [2, 1, 1]


def test_train_eval_cells_pass_hyperparameters():
    # every kind's trainer gets its own entry of hp, and only that
    rng = np.random.default_rng(4)
    d = make_dataset(rng.integers(0, 8, size=(50, 30)),
                     rng.integers(0, 2, size=50))
    hp = {"rf": {"n_trees": 3}, "nn": {"hidden": 4, "epochs": 30}}
    cells = [(kind, d, seed, seed % 2 == 1)
             for seed, kind in enumerate(ml.TRAINERS + ml.TRAINERS)]
    _, rf, nn, *_ = _assert_cells_equal_oracle(cells, hp)
    assert len(rf.trees) == 3 and nn.w1.shape == (30, 4)
    assert nn.params["epochs"] == 30


def test_train_eval_cells_unknown_kind(tiny_dataset):
    with pytest.raises(ValueError, match="unknown model 'svm'"):
        list(ml.train_eval_cells([("svm", tiny_dataset, 0, False)]))


def _masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_form_bitwise():
    special = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf,
               np.nan, -np.nan]
    z = np.concatenate([special,
                        np.random.default_rng(0).normal(scale=10,
                                                        size=5000)])
    with np.errstate(over="ignore", invalid="ignore"):
        want = _masked_sigmoid(z)
        got = ml._sigmoid(z)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_nn_deterministic(tiny_dataset):
    a = ml.train_nn(tiny_dataset, hidden=4, epochs=50, seed=9)
    b = ml.train_nn(tiny_dataset, hidden=4, epochs=50, seed=9)
    assert np.array_equal(a.w1, b.w1) and a.final_loss == b.final_loss


def test_nn_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        ml.train_nn(make_dataset(np.zeros((0, 30)), []))


# --- split and balance -------------------------------------------------------------

def _mixed_dataset(n_benign, n_malicious, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 30, size=(n_benign + n_malicious, 30))
    y = np.array([0] * n_benign + [1] * n_malicious)
    return make_dataset(X, y)


def test_split_stratified_quotas():
    ds = _mixed_dataset(10, 6)
    train, test = ml.split(ds, 0.7, 1)
    assert len(train) + len(test) == 16
    tb, tm = train.class_counts()
    assert tb == 7 and tm == 4  # round(0.7*10), largest-remainder of 0.7*6
    assert test.class_counts() == (3, 2)


def test_split_deterministic_and_disjoint():
    ds = _mixed_dataset(12, 12)
    t1, e1 = ml.split(ds, 0.7, 5)
    t2, e2 = ml.split(ds, 0.7, 5)
    keys = lambda d: list(zip(d.firmware_id.tolist(), d.window_index.tolist()))
    assert keys(t1) == keys(t2)
    assert keys(e1) == keys(e2)
    assert set(keys(t1)).isdisjoint(keys(e1))


def test_split_needs_both_classes():
    with pytest.raises(TooFewSamples):
        ml.split(_mixed_dataset(5, 0), 0.7, 0)


def test_split_fraction_bounds():
    ds = _mixed_dataset(10, 6)
    with pytest.raises(ValueError):
        ml.split(ds, 0.0, 0)
    with pytest.raises(ValueError):
        ml.split(ds, 1.0, 0)


def test_balance_upsamples_minority():
    ds = _mixed_dataset(10, 4)
    bal = ml.balance(ds, seed=0)
    assert bal.class_counts() == (10, 10)
    # upsampling only repeats existing samples
    keys = lambda d: list(zip(d.firmware_id.tolist(), d.window_index.tolist()))
    assert set(keys(bal)) <= set(keys(ds))


def test_balance_deterministic():
    ds = _mixed_dataset(9, 3)
    keys = lambda d: list(zip(d.firmware_id.tolist(), d.window_index.tolist()))
    a = ml.balance(ds, seed=2)
    b = ml.balance(ds, seed=2)
    assert keys(a) == keys(b)


def test_balance_single_class_rejected():
    with pytest.raises(SingleClass):
        ml.balance(_mixed_dataset(6, 0))


# --- evaluation and serialization ---------------------------------------------------

def test_evaluate_by_attack_breakdown():
    ds = _mixed_dataset(8, 8)
    model = ml.train_dt(ds)
    rep = ml.evaluate(model, ds)
    assert set(rep.by_attack) == {"benign", "mppt_dos"}
    assert rep.by_attack["benign"].total == 8
    assert rep.by_attack["mppt_dos"].total == 8
    assert rep.counts.total == 16


def test_evaluate_feature_mismatch_rejected(tiny_dataset):
    model = ml.train_dt(tiny_dataset)
    shrunk = tiny_dataset.project(tiny_dataset.feature_names[:10])
    with pytest.raises(InconsistentFeatures):
        ml.evaluate(model, shrunk)


@pytest.mark.parametrize("kind", ["dt", "rf", "nn"])
def test_model_json_round_trip(tmp_path, tiny_dataset, kind):
    train = {"dt": lambda d: ml.train_dt(d),
             "rf": lambda d: ml.train_rf(d, n_trees=5, seed=0),
             "nn": lambda d: ml.train_nn(d, hidden=4, epochs=30, seed=0)}[kind]
    model = train(tiny_dataset)
    path = tmp_path / f"{kind}.json"
    ml.save_model(model, path)
    back = ml.load_model(path)
    X = tiny_dataset.matrix()
    assert type(back) is type(model)
    assert back.predict(X).tolist() == model.predict(X).tolist()
