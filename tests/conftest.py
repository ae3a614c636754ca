"""Shared fixtures: small dataset builders, and the one-cell oracle of
ml.train_eval_cells."""

import numpy as np
import pytest

from hpc_sentinel import hpc, ml


def make_dataset(X, y, attack="mppt_dos", feature_names=hpc.FEATURE_NAMES):
    """Dataset from a dense matrix: row i becomes window i of firmware fw<i>,
    zero-padded to the given features."""
    X = np.asarray(X, dtype=np.int64)
    padded = np.zeros((len(y), len(feature_names)), dtype=np.int64)
    padded[:, :X.shape[1]] = X
    y = np.asarray(y, dtype=np.int64)
    return hpc.Dataset(X=padded, y=y,
                       firmware_id=[f"fw{i}" for i in range(len(y))],
                       window_index=np.arange(len(y)),
                       partial=np.zeros(len(y), dtype=bool),
                       attack=np.where(y == 1, attack, ""),
                       feature_names=feature_names)


def train_eval_oracle(kind, ds, seed, train_fraction=0.7, balanced=False,
                      hp=None):
    """One cell of ml.train_eval_cells done step by step: split, balance
    the training side if asked, the kind's own trainer, evaluate. Returns
    (model, EvalReport)."""
    hp = hp or {}
    tr, te = ml.split(ds, train_fraction, seed)
    if balanced:
        tr = ml.balance(tr, seed=seed)
    if kind == "dt":
        model = ml.train_dt(tr)
    elif kind == "rf":
        model = ml.train_rf(tr, seed=seed, **hp.get("rf", {}))
    else:
        model = ml.train_nn(tr, seed=seed, **hp.get("nn", {}))
    return model, ml.evaluate(model, te)


@pytest.fixture
def tiny_dataset():
    """20 linearly separable samples on the first feature."""
    rng = np.random.default_rng(7)
    X = rng.integers(0, 10, size=(20, 30))
    X[:10, 0] = rng.integers(0, 5, size=10)
    X[10:, 0] = rng.integers(20, 30, size=10)
    y = np.array([0] * 10 + [1] * 10)
    return make_dataset(X, y)
