"""Eigendecomposition against an independent cyclic Jacobi oracle, ranking
invariances, and elimination-experiment bookkeeping."""

import numpy as np
import pytest

from hpc_sentinel import hpc, ml, pca
from hpc_sentinel.errors import (DegenerateCovariance, TooManyExclusions,
                                 write_json)

from conftest import make_dataset, train_eval_oracle


def jacobi_eigh(A, sweeps=60, tol=1e-14):
    """Cyclic Jacobi rotations for a symmetric matrix; returns eigenvalues
    descending and the matching eigenvector columns. Deliberately naive."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(sum(A[p, q] ** 2 for p in range(n)
                          for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < tol:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta ** 2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t ** 2 + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    vals = np.diag(A).copy()
    order = np.argsort(vals)[::-1]
    return vals[order], V[:, order]


def _cov(X):
    Xc = X - X.mean(axis=0)
    return (Xc.T @ Xc) / (X.shape[0] - 1)


@pytest.mark.parametrize("n_feat", [5, 30])
def test_pca_matches_jacobi_oracle(n_feat):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(80, n_feat)) @ rng.normal(size=(n_feat, n_feat))
    vals, vecs = pca.pca_eig(X)
    ref_vals, _ = jacobi_eigh(_cov(X))
    scale = max(1.0, float(ref_vals[0]))
    assert np.all(np.abs(vals - ref_vals) <= 1e-8 * scale)
    # eigenpair residual and orthonormality against the actual covariance
    C = _cov(X)
    for j in range(n_feat):
        r = C @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(r) <= 1e-8 * scale
    assert np.allclose(vecs.T @ vecs, np.eye(n_feat), atol=1e-10)


def test_pca_eigenvalues_nonnegative_and_descending():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 12))
    vals, _ = pca.pca_eig(X)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals >= -1e-10)


def test_pca_sign_convention():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 6))
    _, vecs = pca.pca_eig(X)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_pca_degenerate_inputs():
    with pytest.raises(DegenerateCovariance):
        pca.pca_eig(np.ones((1, 4)))
    with pytest.raises(DegenerateCovariance):
        pca.pca_eig(np.ones((10, 4)))  # zero variance everywhere


def _ranking_dataset(seed=0, planted=None):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(60, 30))
    if planted is not None:
        X[:, planted] = rng.integers(0, 50, size=60)
    y = np.array([0, 1] * 30)
    return make_dataset(X, y)


def test_rank_scores_non_increasing_and_complete():
    ranking = pca.rank_features(_ranking_dataset())
    assert len(ranking.ranked) == 30
    scores = [s for _, s in ranking.ranked]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert set(ranking.names()) == set(hpc.FEATURE_NAMES)


def test_rank_order_invariant_under_uniform_scaling():
    ds = _ranking_dataset(3)
    base = pca.rank_features(ds).names()
    X = ds.matrix().astype(np.float64)
    # scale every counter by the same positive constant: scores scale by
    # its square, the order must not move
    for factor in (7.0, 0.25):
        vals, vecs = pca.pca_eig(X * factor)
        k = 3
        scores = np.abs(vecs[:, :k]) @ np.clip(vals[:k], 0.0, None)
        order = tuple(hpc.FEATURE_NAMES[i]
                      for i in np.lexsort((np.arange(30), -scores)))
        assert order == base


def test_rank_planted_variance_wins():
    ranking = pca.rank_features(_ranking_dataset(1, planted=13))
    assert ranking.names()[0] == hpc.FEATURE_NAMES[13]


def test_ranking_top_k():
    ranking = pca.rank_features(_ranking_dataset())
    assert ranking.top(3) == ranking.names()[:3]
    assert len(ranking.top(10)) == 10


def test_ranking_json_round_trip(tmp_path):
    import json
    ranking = pca.rank_features(_ranking_dataset())
    path = tmp_path / "ranking.json"
    write_json(path, ranking.as_dict())
    obj = json.loads(path.read_text())
    assert [name for name, _ in ranking.ranked] == \
        [r["feature"] for r in obj["ranking"]]


# --- elimination experiments ---------------------------------------------------

def test_elimination_cardinalities_exhaustive():
    assert len(pca.eliminate([]).features) == 30
    for c in pca.CLASS_ORDER:
        assert len(pca.eliminate([c]).features) == 20
    for i, c1 in enumerate(pca.CLASS_ORDER):
        for c2 in pca.CLASS_ORDER[i + 1:]:
            assert len(pca.eliminate([c1, c2]).features) == 12


def test_elimination_names():
    assert pca.eliminate([]).name == "ALL"
    assert pca.eliminate(["s"]).name == "BLAN"
    assert pca.eliminate(["l", "s"]).name == "BAN"
    # retained-class initials keep a fixed class order regardless of
    # exclusion spelling order
    assert pca.eliminate(["s", "l"]).name == "BAN"


def test_elimination_removes_touching_features():
    spec = pca.eliminate(["b"])
    assert "b" not in spec.features
    assert all("b" not in f for f in spec.features)
    assert "aa" in spec.features and "a" in spec.features


def test_elimination_rejects_three():
    with pytest.raises(TooManyExclusions):
        pca.eliminate(["a", "b", "l"])


def test_all_specs_structure():
    specs = pca.all_specs()
    assert len(specs) == 15
    sizes = sorted(len(s.features) for s in specs)
    assert sizes == [12] * 10 + [20] * 5
    assert len({s.name for s in specs}) == 15
    assert "ALL" not in {s.name for s in specs}


def test_run_ablation_rows_and_determinism(tmp_path):
    ds = _ranking_dataset(11)
    specs = pca.all_specs()
    rep1 = pca.run_ablation(ds, specs=specs, seed=7)
    rep2 = pca.run_ablation(ds, specs=specs, seed=7)
    assert len(rep1.rows) == 45
    assert [(r.spec_name, r.model) for r in rep1.rows] == [
        (s.name, m) for s in specs for m in ml.TRAINERS]
    assert [r.n_features for r in rep1.rows] == [
        len(s.features) for s in specs for _ in ml.TRAINERS]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep1.to_csv(p1)
    rep2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("spec,excluded,model,n_features,accuracy")


def test_run_ablation_cells_equal_train_eval():
    # specs whose shapes alternate cut the networks into several stacks;
    # the rows follow the given specs, each spec's models in ml.TRAINERS
    # order, and each scores what the step-by-step oracle gives its cell
    ds = _ranking_dataset(4)
    grid = pca.all_specs()
    specs = [grid[5], grid[1], grid[9]]
    keys = [(s, m) for s in specs for m in ml.TRAINERS]
    rep = pca.run_ablation(ds, specs=specs, seed=5)
    assert [(r.spec_name, r.model) for r in rep.rows] == [
        (s.name, m) for s, m in keys]
    for row, (spec, model) in zip(rep.rows, keys):
        seed = ml.derive_seed(5, grid.index(spec), ml.TRAINERS.index(model))
        _, want = train_eval_oracle(model, ds.project(spec.features), seed)
        assert repr(row.metrics) == repr(want.metrics)
