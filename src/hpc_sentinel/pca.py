"""Principal-component feature ranking and the instruction-class
elimination study.

Ranking: center the counter matrix, eigendecompose its sample
covariance, and score each feature by the eigenvalue-weighted absolute
loadings summed over the leading components. Elimination: drop one or
two of the five instruction classes and every bigram touching them,
then retrain each classifier on what remains.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import ml
from .errors import DegenerateCovariance, TooManyExclusions
from .hpc import FEATURE_NAMES, Dataset

# Class letters in the order the elimination names use (BLAN, BAN, ...).
CLASS_ORDER = ("b", "l", "a", "n", "s")


@dataclass(frozen=True)
class FeatureRanking:
    """Features with non-increasing scores, best first."""

    ranked: tuple  # of (name, score)
    n_components: int

    def __post_init__(self):
        scores = [s for _, s in self.ranked]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")

    def names(self):
        return tuple(n for n, _ in self.ranked)

    def top(self, k: int):
        return self.names()[:k]

    def as_dict(self):
        return {"n_components": self.n_components,
                "ranking": [{"feature": n, "score": s}
                            for n, s in self.ranked]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def pca_eig(X):
    """Centered covariance eigenpairs, eigenvalues descending, each
    vector's largest-magnitude component made positive."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise DegenerateCovariance("need at least two samples")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    if not np.any(np.diag(cov) > 0.0):
        raise DegenerateCovariance("every feature is constant")
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        k = np.argmax(np.abs(vecs[:, j]))
        if vecs[k, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


def rank_features(d: Dataset, n_components: int = 3) -> FeatureRanking:
    """Score every feature by sum over the top components of
    eigenvalue * |loading|, then sort descending (ties keep dataset
    feature order)."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    vals, vecs = pca_eig(d.matrix())
    k = min(n_components, vals.shape[0])
    w = np.clip(vals[:k], 0.0, None)
    scores = np.abs(vecs[:, :k]) @ w
    order = sorted(range(len(d.feature_names)),
                   key=lambda i: (-scores[i], i))
    return FeatureRanking(
        ranked=tuple((d.feature_names[i], float(scores[i])) for i in order),
        n_components=n_components)


@dataclass(frozen=True)
class EliminationSpec:
    """Feature subset left after dropping whole instruction classes.

    Dropping class x removes the unigram x and all ten bigrams with x in
    either position, so k surviving classes keep k + k^2 features. The
    subset's name lists the surviving class letters in the order
    b, l, a, n, s (dropping s gives BLAN); no exclusions is named ALL.
    """

    excluded: tuple
    features: tuple

    @property
    def name(self) -> str:
        kept = [c for c in CLASS_ORDER if c not in self.excluded]
        return "".join(kept).upper() if self.excluded else "ALL"


def eliminate(classes, full_features=FEATURE_NAMES) -> EliminationSpec:
    excluded = tuple(sorted({c.lower() for c in classes}))
    if len(excluded) > 2:
        raise TooManyExclusions(f"at most two classes, got {excluded}")
    bad = [c for c in excluded if c not in CLASS_ORDER]
    if bad:
        raise ValueError(f"unknown instruction classes {bad}")
    kept = tuple(n for n in full_features
                 if not any(c in n for c in excluded))
    return EliminationSpec(excluded=excluded, features=kept)


def all_specs():
    """Every single and double exclusion, singles first, each group in
    CLASS_ORDER."""
    return ([eliminate((c,)) for c in CLASS_ORDER]
            + [eliminate(pair)
               for pair in itertools.combinations(CLASS_ORDER, 2)])


@dataclass(frozen=True)
class AblationRow:
    spec_name: str
    excluded: tuple
    model: str
    n_features: int
    metrics: ml.Metrics


@dataclass
class AblationReport:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["spec", "excluded", "model", "n_features",
                        "accuracy", "precision", "recall",
                        "fp_rate", "fn_rate"])
            for r in self.rows:
                m = r.metrics
                w.writerow([r.spec_name, "".join(r.excluded), r.model,
                            r.n_features, repr(m.accuracy),
                            repr(m.precision), repr(m.recall),
                            repr(m.fp_rate), repr(m.fn_rate)])


def run_ablation(d: Dataset, specs=None, seed: int = 0,
                 train_fraction: float = 0.7,
                 balanced: bool = False) -> AblationReport:
    """Train and score every model of ml.TRAINERS on every eliminated
    feature set; the rows come in grid order, spec by spec, each spec's
    models in ml.TRAINERS order.

    Each (spec, model) cell derives its own seed from the master and the
    cell's place in the full grid (the spec's index in all_specs(), with
    eliminate(()) after them, and the model's index in ml.TRAINERS), so a
    cell scores the same whatever grid it is run in. All cells train
    through one ml.train_eval_cells call, which trains the networks of
    each run of specs whose padded training rows share a shape as one
    stack.
    """
    grid = all_specs() + [eliminate(())]
    specs = grid[:-1] if specs is None else list(specs)
    keys = [(spec, model) for spec in specs for model in ml.TRAINERS]
    projections = {spec: d.project(spec.features) for spec in specs}
    results = ml.train_eval_cells(
        [(model, projections[spec],
          ml.derive_seed(seed, grid.index(spec), ml.TRAINERS.index(model)),
          balanced)
         for spec, model in keys], train_fraction)
    return AblationReport(rows=[
        AblationRow(spec_name=spec.name, excluded=spec.excluded, model=model,
                    n_features=len(spec.features), metrics=rep.metrics)
        for (spec, model), (_, rep) in zip(keys, results)])
