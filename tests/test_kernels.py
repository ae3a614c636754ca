"""Kernels against loop references: the batched split search against a
per-node loop, and the flattened tree predictor against a per-row walk.
"""

from fractions import Fraction

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


def _overflowing_node():
    # 8 entries standing for 84,702 rows: exact int64 scoring would
    # overflow there (n^4 > 2^63) and cut column 1 between its codes 2
    # and 3 instead of 1 and 2, the float (and true) best
    x = np.array([[0, 1, 3], [3, 2, 0], [1, 0, 0], [2, 1, 0], [3, 3, 3],
                  [0, 2, 2], [0, 1, 0], [1, 3, 3]], dtype=np.int64)
    y = np.array([0, 1, 1, 1, 1, 1, 1, 1], dtype=np.int64)
    w = np.array([19698, 5999, 3719, 668, 18986, 14573, 6151, 14908])
    return [(x, y, w)]


@given(_weighted_batches())
@example(_heavy_node())
@example(_overflowing_node())
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



def _fraction_best_cut(y, w):
    """The cut (left child: entries up to lo) that scores best in exact
    Fractions on a one-column node whose entry i holds code i, ties to the
    lowest, or None when no cut beats the node itself."""
    tot = [sum(wi for yi, wi in zip(y, w) if yi == c) for c in (0, 1)]

    def score(c0, c1):
        return Fraction(c0 * c0 + c1 * c1, c0 + c1)

    best, lo = score(*tot), None
    left = [0, 0]
    for i in range(len(y) - 1):
        left[y[i]] += w[i]
        s = score(*left) + score(tot[0] - left[0], tot[1] - left[1])
        if s > best:
            best, lo = s, i
    return lo


@pytest.mark.parametrize("scale", [10**5, 10**6])
def test_float_split_of_node_beyond_int64_numerator(scale):
    # at 10^6 the node holds 8M weighted rows, where a cut's numerator,
    # up to n^3, passes 2^63 in int64
    y, w = [0, 1, 0, 1], [3 * scale, scale, scale, 3 * scale]
    lo = _fraction_best_cut(y, w)
    assert lo == 0
    _, got_lo, got_hi, found = _kernels.best_split_codes(
        np.array([[0, 1, 2, 3]]), y, np.array(w), [4], [[4]])
    assert (found.tolist(), got_lo.tolist(), got_hi.tolist()) == \
        ([1], [lo], [lo + 1])

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


def _predict_rows(rng, n_rows, rows):
    """n_rows rows over the 4 features the trees read: "distinct" rows
    (a fifth column, read by no tree, tells them apart), rows drawn from
    5 distinct ones ("repeated"), or one row repeated ("equal")."""
    if rows == "distinct":
        X = rng.integers(0, 10, size=(n_rows, 4))
        return np.column_stack([X, np.arange(n_rows)])
    pool = rng.integers(0, 10, size=(5 if rows == "repeated" else 1, 4))
    return pool[rng.integers(0, pool.shape[0], size=n_rows)]


_BLOCK = ml.PREDICT_BLOCK_PAIRS


@pytest.mark.parametrize("n_trees,n_rows,block,rows", [
    pytest.param(1, 2 * _BLOCK + 5, _BLOCK, "distinct",
                 id=f"1-{2 * _BLOCK + 5}-{_BLOCK}"),
    pytest.param(7, 3000, _BLOCK, "distinct", id=f"7-3000-{_BLOCK}"),
    # more trees than pairs per block: one row per block
    pytest.param(20, 9, 16, "distinct", id="20-9-16"),
    (7, 3000, _BLOCK, "repeated"),
    (20, 40, 16, "repeated"),
    (1, 50, _BLOCK, "equal"),
    (7, 50, 16, "equal"),
    (7, 1, _BLOCK, "equal"),    # a single row
])
def test_flattened_predict_matches_row_walk(monkeypatch, n_trees, n_rows,
                                            block, rows):
    # each distinct row is walked once, in blocks of distinct rows
    monkeypatch.setattr(ml, "PREDICT_BLOCK_PAIRS", block)
    rng = np.random.default_rng(n_trees)
    trees = [_random_tree(rng, 4, 6) for _ in range(n_trees)]
    X = _predict_rows(rng, n_rows, rows)
    want = _walk_vote(trees, X)
    forest = ml.RandomForestModel(trees=trees,
                                  feature_names=trees[0].feature_names)
    assert forest.predict(X).tolist() == want
    if n_trees == 1:
        assert trees[0].predict(X).tolist() == want


def test_predict_rows_without_columns():
    # a model of no features is one leaf, and every row is the same row
    leaf = ml.DecisionTreeModel(
        feature=np.array([-1]), threshold=np.array([0]),
        left=np.array([-1]), right=np.array([-1]),
        counts=np.array([[1, 2]]), feature_names=())
    assert leaf.predict(np.zeros((3, 0), dtype=np.int64)).tolist() == [1] * 3
