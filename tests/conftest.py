"""Shared fixtures: small dataset builders."""

import numpy as np
import pytest

from hpc_sentinel import hpc


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


@pytest.fixture
def tiny_dataset():
    """20 linearly separable samples on the first feature."""
    rng = np.random.default_rng(7)
    X = rng.integers(0, 10, size=(20, 30))
    X[:10, 0] = rng.integers(0, 5, size=10)
    X[10:, 0] = rng.integers(20, 30, size=10)
    y = np.array([0] * 10 + [1] * 10)
    return make_dataset(X, y)
