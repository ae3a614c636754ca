"""Kernels against loop references: the batched split search against a
per-node loop, and the flattened tree predictor against a per-row walk.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpc_sentinel import _kernels, ml


def test_backend_reports_name():
    assert _kernels.backend() == "pure"


def test_window_counts_kernel_shapes():
    cats = np.array([0, 1, 2, 3, 4, 5, 0], dtype=np.int64)
    counts = np.asarray(_kernels.window_counts(cats, 3))
    assert counts.shape == (3, 30)
    # last, partial window holds the lone trailing arithmetic code
    assert counts[2, 0] == 1 and counts[2].sum() == 1


# --- batched split search against the loop kernel ---------------------------

def best_split_loop(x, y, feats, exact):
    """Best (feature, integer threshold) split of a binary-labeled node.

    Only splits that strictly improve on the parent score qualify. Returns
    (feature, threshold, found) with found == 0 when no improving split
    exists; the predicate for the left child is value <= threshold.
    """
    n = x.shape[0]
    tot1 = 0
    for i in range(n):
        tot1 += y[i]
    tot0 = n - tot1
    parent_num = tot0 * tot0 + tot1 * tot1  # over denominator n

    best_feat = np.int64(-1)
    best_thr = np.int64(0)
    best_num = np.int64(0)
    best_den = np.int64(1)
    best_f = -1.0
    found = False

    for fi in range(feats.shape[0]):
        f = feats[fi]
        col = x[:, f].copy()
        order = np.argsort(col)
        c1 = np.int64(0)
        for i in range(n - 1):
            c1 += y[order[i]]
            lo = col[order[i]]
            hi = col[order[i + 1]]
            if lo == hi:
                continue
            nl = np.int64(i + 1)
            nr = np.int64(n) - nl
            c0l = nl - c1
            c1r = np.int64(tot1) - c1
            c0r = nr - c1r
            num = (c0l * c0l + c1 * c1) * nr + (c0r * c0r + c1r * c1r) * nl
            den = nl * nr
            if exact:
                if num * n <= parent_num * den:
                    continue
                better = (not found) or (num * best_den > best_num * den)
            else:
                s = num / den
                if s <= parent_num / n:
                    continue
                better = (not found) or (s > best_f)
            if better:
                found = True
                best_feat = np.int64(f)
                best_thr = (lo + hi) // 2
                best_num = num
                best_den = den
                best_f = num / den
    return best_feat, best_thr, (np.int64(1) if found else np.int64(0))


_HUGE = 2**60


def _node(rng, n, k, style, labels):
    if style == "ties":
        x = rng.integers(0, 3, size=(n, k))
    elif style == "wide":
        x = rng.integers(-10**6, 10**6, size=(n, k))
    elif style == "constant":
        x = rng.integers(0, 5, size=(n, k))
        x[:, rng.integers(0, k)] = 7
    else:  # "huge": values near +-2^60, a few distinct per column
        x = rng.choice([-1, 1]) * _HUGE + rng.integers(0, 4, size=(n, k))
    if labels == "mixed":
        y = rng.integers(0, 2, size=n)
    else:
        y = np.full(n, int(labels == "malicious"))
    return x.astype(np.int64), y.astype(np.int64)


@st.composite
def _split_batches(draw):
    """Random batches of nodes sharing a column count, optionally with
    one node above EXACT_SPLIT_LIMIT."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    if draw(st.booleans()):
        big = _kernels.EXACT_SPLIT_LIMIT + draw(st.integers(1, 40))
        sizes.insert(draw(st.integers(0, len(sizes))), big)
    nodes = []
    for n in sizes:
        style = draw(st.sampled_from(["ties", "wide", "constant", "huge"]))
        labels = draw(st.sampled_from(["mixed", "mixed", "benign",
                                       "malicious"]))
        nodes.append(_node(rng, n, k, style, labels))
    return nodes


def _mixed_extremes():
    # -2^60 and +2^60 nodes in one batch
    rng = np.random.default_rng(5)
    return [_node(rng, 9, 2, style, "mixed")
            for style in ("huge", "ties", "huge", "huge", "wide")]


@given(_split_batches())
@example(_mixed_extremes())
@settings(max_examples=60, deadline=None)
def test_best_split_codes_matches_loop_per_node(nodes):
    # the batch is rank-coded as a whole, so a node's codes skip the
    # values only other nodes hold; best_split codes each node alone
    xs, ys = zip(*nodes)
    codes, values, offsets = _kernels.rank_code(np.concatenate(xs).T)
    bins = np.broadcast_to(np.diff(offsets), (len(nodes), codes.shape[0]))
    col, lo, hi, found = _kernels.best_split_codes(
        codes, np.concatenate(ys), np.ones(codes.shape[1], dtype=np.int64),
        [x.shape[0] for x in xs], bins)
    for i, (x, y) in enumerate(nodes):
        feats = np.arange(x.shape[1], dtype=np.int64)
        want = tuple(int(v) for v in best_split_loop(
            x, y, feats, x.shape[0] <= _kernels.EXACT_SPLIT_LIMIT))
        thr = 0
        if found[i]:
            at = offsets[col[i]]
            thr = int((values[at + lo[i]] + values[at + hi[i]]) // 2)
        assert (int(col[i]), thr, int(found[i])) == want, i
        assert tuple(int(v) for v in _kernels.best_split(x, y, feats)) \
            == want, i


@st.composite
def _weighted_batches(draw):
    """Batches of _split_batches with a positive weight per row; the
    weights of a heavy node lift its weighted size above
    EXACT_SPLIT_LIMIT, whatever its row count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = _kernels.EXACT_SPLIT_LIMIT
    nodes = []
    for x, y in draw(_split_batches()):
        n = x.shape[0]
        w = rng.integers(1, 4, size=n)
        if draw(st.booleans()):
            w += limit // n
        nodes.append((x, y, w))
    return nodes


def _heavy_node():
    # 12 entries standing for about 25,000 rows, scored in float64
    rng = np.random.default_rng(9)
    x, y = _node(rng, 12, 3, "ties", "mixed")
    return [(x, y, rng.integers(1500, 2700, size=12))]


@given(_weighted_batches())
@example(_heavy_node())
@settings(max_examples=40, deadline=None)
def test_weighted_split_equals_repeated_rows(nodes):
    # an entry of weight w scores as w copies of its row, and the exact
    # or float comparison follows the weighted node size
    xs, ys, ws = zip(*nodes)
    codes, _, offsets = _kernels.rank_code(np.concatenate(xs).T)
    bins = np.broadcast_to(np.diff(offsets), (len(nodes), codes.shape[0]))
    y, w = np.concatenate(ys), np.concatenate(ws)
    got = _kernels.best_split_codes(codes, y, w, [len(v) for v in ys], bins)
    want = _kernels.best_split_codes(
        np.repeat(codes, w, axis=1), np.repeat(y, w),
        np.ones(int(w.sum()), dtype=np.int64), [int(v.sum()) for v in ws],
        bins)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


# --- flattened prediction against a per-row walk -----------------------------

def _random_tree(rng, n_features, max_depth):
    feature, threshold, left, right, counts = [], [], [], [], []

    def grow(depth):
        i = len(feature)
        feature.append(-1)
        threshold.append(0)
        left.append(-1)
        right.append(-1)
        counts.append(rng.integers(0, 3, size=2).tolist())  # ties included
        if depth < max_depth and rng.random() < 0.7:
            feature[i] = int(rng.integers(0, n_features))
            threshold[i] = int(rng.integers(0, 10))
            left[i] = grow(depth + 1)
            right[i] = grow(depth + 1)
        return i

    grow(0)
    return ml.DecisionTreeModel(
        feature=np.array(feature), threshold=np.array(threshold),
        left=np.array(left), right=np.array(right), counts=np.array(counts),
        feature_names=tuple(f"f{j}" for j in range(n_features)))


def _walk_vote(trees, X):
    votes = [0] * len(X)
    for t in trees:
        f, th = t.feature.tolist(), t.threshold.tolist()
        lt, rt, c = t.left.tolist(), t.right.tolist(), t.counts.tolist()
        for r, row in enumerate(X.tolist()):
            i = 0
            while f[i] >= 0:
                i = lt[i] if row[f[i]] <= th[i] else rt[i]
            votes[r] += c[i][1] > c[i][0]
    return [int(2 * v > len(trees)) for v in votes]


@pytest.mark.parametrize("n_trees,n_rows,block", [
    (1, 2 * ml.PREDICT_BLOCK_PAIRS + 5, ml.PREDICT_BLOCK_PAIRS),
    (7, 3000, ml.PREDICT_BLOCK_PAIRS),
    (20, 9, 16),    # more trees than pairs per block: one row per block
])
def test_flattened_predict_matches_row_walk(monkeypatch, n_trees, n_rows,
                                            block):
    monkeypatch.setattr(ml, "PREDICT_BLOCK_PAIRS", block)
    rng = np.random.default_rng(n_trees)
    trees = [_random_tree(rng, 4, 6) for _ in range(n_trees)]
    X = rng.integers(0, 10, size=(n_rows, 4))
    want = _walk_vote(trees, X)
    forest = ml.RandomForestModel(trees=trees,
                                  feature_names=trees[0].feature_names)
    assert forest.predict(X).tolist() == want
    if n_trees == 1:
        assert trees[0].predict(X).tolist() == want
