"""Jit and plain-python kernel paths must agree bit for bit.

The path is chosen at import time from HPC_SENTINEL_NO_NUMBA, so the
alternate path runs in a subprocess and ships its results back through an
npz file. The batched split search and the flattened tree predictor are
also checked in-process against loop references.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpc_sentinel import _kernels, ml

_COMPUTE = textwrap.dedent("""
    import sys
    import numpy as np
    from hpc_sentinel import _kernels

    out = sys.argv[1]
    rng = np.random.default_rng(2024)

    wc_out = []
    for n in (0, 1, 49, 50, 137, 400):
        cats = rng.integers(0, 6, size=n).astype(np.int64)
        for w in (1, 7, 50):
            wc_out.append(np.asarray(_kernels.window_counts(cats, w)))

    bs_out = []
    for trial in range(30):
        n = int(rng.integers(2, 40))
        f = int(rng.integers(1, 6))
        x = rng.integers(0, 50, size=(n, f)).astype(np.int64)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        feats = np.arange(f, dtype=np.int64)
        for exact in (0, 1):
            r = _kernels.best_split(x, y, feats, exact)
            bs_out.append(np.asarray(r, dtype=np.int64))
    # values near the int64 cliff exercise the exact path's wide arithmetic
    xb = (rng.integers(0, 2**31, size=(12, 3)) * 2**29).astype(np.int64)
    yb = rng.integers(0, 2, size=12).astype(np.int64)
    r = _kernels.best_split(xb, yb, np.arange(3, dtype=np.int64), 1)
    bs_out.append(np.asarray(r, dtype=np.int64))

    params = np.array([800.0, 437.0, 10.0, 2.185, 43.7, 100.0, 100.0, 50.0,
                       500.0, 2.0, 0.0, 60.0, 1.0, 0.5, 1000.0, 1.0])
    n_steps, substeps = 400, 10
    load = np.full(n_steps, 500.0); load[200:] = 800.0
    irr = np.full(n_steps, 1.0)
    mppt_on = np.ones(n_steps, dtype=np.int64)
    inv_on = np.ones(n_steps, dtype=np.int64); inv_on[150:250] = 0
    pert_amp = np.zeros(n_steps); pert_amp[300:] = 0.1
    pert_freq = np.zeros(n_steps); pert_freq[300:] = 0.5
    sim = _kernels.simulate_core(n_steps, substeps, 0.01, 0.001, load, irr,
                                 mppt_on, inv_on, pert_amp, pert_freq, params)

    arrays = {"backend": np.array([_kernels.backend() == "numba"], dtype=np.int64),
              "sim": np.asarray(sim)}
    for i, a in enumerate(wc_out):
        arrays[f"wc{i}"] = a
    for i, a in enumerate(bs_out):
        arrays[f"bs{i}"] = a
    np.savez(out, **arrays)
""")


def _run(path, no_numba):
    env = dict(os.environ)
    if no_numba:
        env["HPC_SENTINEL_NO_NUMBA"] = "1"
    else:
        env.pop("HPC_SENTINEL_NO_NUMBA", None)
    subprocess.run([sys.executable, "-c", _COMPUTE, str(path)], check=True,
                   env=env, capture_output=True)
    return np.load(path)


def test_backends_agree_exactly(tmp_path):
    jit = _run(tmp_path / "jit.npz", no_numba=False)
    pure = _run(tmp_path / "pure.npz", no_numba=True)
    assert jit["backend"][0] == 1, "jit process did not select numba"
    assert pure["backend"][0] == 0, "pure process selected numba anyway"
    assert set(jit.files) == set(pure.files)
    for key in jit.files:
        if key == "backend":
            continue
        a, b = jit[key], pure[key]
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b), key  # exact, including float bits


def test_backend_reports_name():
    assert _kernels.backend() in ("numba", "pure")


def test_window_counts_kernel_shapes():
    cats = np.array([0, 1, 2, 3, 4, 5, 0], dtype=np.int64)
    counts = np.asarray(_kernels.window_counts(cats, 3))
    assert counts.shape == (3, 30)
    # last, partial window holds the lone trailing arithmetic code
    assert counts[2, 0] == 1 and counts[2].sum() == 1


# --- batched split search against the loop kernel ---------------------------

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
def test_best_split_batch_matches_loop_per_node(nodes):
    xs, ys = zip(*nodes)
    sizes = [x.shape[0] for x in xs]
    col, thr, found = _kernels.best_split_batch(
        np.concatenate(xs), np.concatenate(ys), sizes)
    for i, (x, y) in enumerate(nodes):
        feats = np.arange(x.shape[1], dtype=np.int64)
        want = _kernels._best_split_loop(
            x, y, feats, x.shape[0] <= _kernels.EXACT_SPLIT_LIMIT)
        assert (int(col[i]), int(thr[i]), int(found[i])) == \
            tuple(int(v) for v in want), i


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
