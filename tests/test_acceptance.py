"""Acceptance gate: twelve checks covering extraction exactness, oracle
equivalence, model identities, corpus-level detection quality, microgrid
behavior under attack, and bundle determinism.

Each test prints one summary line; the pytest verdict per test is the
pass/fail record.
"""

import hashlib
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from hpc_sentinel import cli, hpc, mgsim, ml, mutate, pca, study
from hpc_sentinel.asm import Listing, parse_listing

from conftest import make_dataset
from test_hpc import WORKED_LISTING, oracle_windows
from test_ml import _fd_check, reference_tree_predictions
from test_mgsim import grid_sweep_mpp
from test_pca import jacobi_eigh


# --- corpus pipeline shared by criteria 8 and 9 -----------------------------------

@pytest.fixture(scope="module")
def corpus_dataset():
    base = mutate.synth_base_listing(seed=42)
    corpus = mutate.build_corpus(base, seed=42)
    return hpc.emit_dataset(
        [(kind, "benign" if kind == "benign" else "malicious",
          None if kind == "benign" else kind, parse_listing(text))
         for kind, text in sorted(corpus.items())])


def test_criterion_01_worked_example_exact():
    t0 = time.perf_counter()
    X = hpc.extract_windows(parse_listing(WORKED_LISTING), window=50)
    elapsed = time.perf_counter() - t0
    assert X.shape == (1, len(hpc.FEATURE_NAMES))
    expected = {"la": 2, "an": 2, "na": 2, "ab": 2, "bl": 1,
                "l": 2, "a": 4, "n": 2, "b": 2}
    for name, count in zip(hpc.FEATURE_NAMES, X[0]):
        assert count == expected.get(name, 0), name
    assert elapsed < 1.0
    print(f"criterion 1 PASS: worked-example counters exact "
          f"({elapsed * 1e3:.1f} ms)")


def test_criterion_02_extraction_oracle_thousand_streams():
    rng = np.random.default_rng(20240815)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(0, 501))
        listing = Listing(codes=rng.integers(0, 6, size=n), skipped={})
        for window in (1, 7, 50):
            ds = hpc.emit_dataset([("fw", "benign", None, listing)], window)
            want = oracle_windows(listing.codes.tolist(), window)
            assert ds.X.tolist() == [counts for counts, _, _ in want]
            assert ds.partial.tolist() == [p for _, _, p in want]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2 PASS: 1000 random streams x windows (1,7,50) match "
          f"the chunk-and-scan oracle ({elapsed:.2f} s)")


def test_criterion_03_metric_identities_rational():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(10_000):
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 400, size=4))
        c = ml.ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        if c.total == 0:
            continue
        m = ml.Metrics.from_counts(c)
        assert m.accuracy == float(Fraction(tp + tn, c.total))
        assert m.fp_rate == float(Fraction(fp, c.total))
        assert m.fn_rate == float(Fraction(fn, c.total))
        if tp + fp:
            assert m.precision == float(Fraction(tp, tp + fp))
        else:
            assert not m.precision_defined
        if tp + fn:
            assert m.recall == float(Fraction(tp, tp + fn))
        else:
            assert not m.recall_defined
        checked += 1
    print(f"criterion 3 PASS: metric identities exact on {checked} random "
          f"confusion counts")


def test_criterion_04_decision_tree_reference_equivalence():
    designs = [
        np.array(list(itertools.product([0, 1], repeat=3))),       # 8x3
        np.array([[0, 0], [0, 1], [1, 2], [2, 2], [2, 0], [1, 1]]),  # 6x2
        np.array([[0], [0], [1], [1], [2], [2], [2], [0]]),          # 8x1
        np.array([[1, 2, 0], [1, 2, 0], [0, 1, 2], [2, 0, 1],
                  [2, 2, 2]]),                                       # dup rows
    ]
    rng = np.random.default_rng(4)
    designs.append(rng.integers(0, 3, size=(8, 3)))
    cases = 0
    for X in designs:
        n = len(X)
        names = hpc.FEATURE_NAMES[: X.shape[1]]
        for bits in itertools.product([0, 1], repeat=n):
            y = np.array(bits)
            ds = make_dataset(X, y).project(names)
            got = list(ml.evaluate(ml.train_dt(ds), ds).predictions)
            want = reference_tree_predictions(X, y)
            assert got == want, (X.tolist(), bits)
            cases += 1
    print(f"criterion 4 PASS: trained tree equals the exhaustive-split "
          f"Fraction reference on {cases} labelings")


def test_criterion_05_nn_gradient_check():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(6, 20))
        f = int(rng.integers(2, 8))
        h = int(rng.integers(2, 8))
        Xs = rng.normal(size=(n, f))
        y = rng.integers(0, 2, n).astype(np.float64)
        w1 = rng.normal(scale=0.6, size=(f, h))
        b1 = rng.normal(scale=0.1, size=h)
        w2 = rng.normal(scale=0.6, size=h)
        b2 = float(rng.normal(scale=0.1))
        worst = max(worst, _fd_check(w1, b1, w2, b2, Xs, y, rng, n_points=10))
    assert worst < 1e-4
    print(f"criterion 5 PASS: analytic gradients match central differences "
          f"(worst relative error {worst:.2e})")


def test_criterion_06_pca_jacobi_oracle_and_scale_invariance():
    rng = np.random.default_rng(6)
    for n_feat in (5, 30):
        X = rng.normal(size=(90, n_feat)) @ rng.normal(size=(n_feat, n_feat))
        Xc = X - X.mean(axis=0)
        C = (Xc.T @ Xc) / (X.shape[0] - 1)
        vals, vecs = pca.pca_eig(X)
        ref_vals, _ = jacobi_eigh(C)
        scale = float(max(abs(ref_vals[0]), 1.0))
        assert np.max(np.abs(vals - ref_vals)) <= 1e-8 * scale
        for j in range(n_feat):
            assert np.linalg.norm(C @ vecs[:, j] - vals[j] * vecs[:, j]) \
                <= 1e-8 * scale

    counts = rng.integers(0, 9, size=(50, 30))
    y = np.array([0, 1] * 25)
    base = pca.rank_features(make_dataset(counts, y)).names()
    for factor in (3, 11):
        scaled = pca.rank_features(make_dataset(counts * factor, y)).names()
        assert scaled == base
    print("criterion 6 PASS: eigenvalues match the Jacobi oracle within "
          "1e-8; ranking order invariant under uniform scaling")


def test_criterion_07_elimination_cardinalities():
    assert len(pca.eliminate([]).features) == 30
    for c in pca.CLASS_ORDER:
        assert len(pca.eliminate([c]).features) == 20
    pairs = 0
    for i, c1 in enumerate(pca.CLASS_ORDER):
        for c2 in pca.CLASS_ORDER[i + 1:]:
            assert len(pca.eliminate([c1, c2]).features) == 12
            pairs += 1
    assert pairs == 10
    print("criterion 7 PASS: 0/1/2 exclusions keep exactly 30/20/12 "
          "features across all subsets")


def test_criterion_08_corpus_detection_floor(corpus_dataset):
    t0 = time.perf_counter()
    train, test = ml.split(corpus_dataset, 0.7, 42)
    balanced = ml.balance(train, seed=42)
    forest = ml.train_rf(balanced, n_trees=100, seed=42)
    rep = ml.evaluate(forest, test)
    elapsed = time.perf_counter() - t0
    assert rep.metrics.accuracy >= 0.85
    assert rep.metrics.recall_defined and rep.metrics.recall >= 0.85
    assert elapsed < 60.0
    print(f"criterion 8 PASS: balanced RF-100 on the seed-42 corpus reaches "
          f"accuracy {rep.metrics.accuracy:.4f}, recall "
          f"{rep.metrics.recall:.4f} ({elapsed:.1f} s)")


def test_criterion_09_ranking_dominated_by_discriminative_classes(
        corpus_dataset):
    top3 = pca.rank_features(corpus_dataset).top(3)
    hits = sum(1 for name in top3 if name in {"n", "a", "b"})
    assert hits >= 2, top3
    print(f"criterion 9 PASS: top-3 ranked features {top3} contain {hits} "
          f"of the n/a/b unigrams")


def test_criterion_10_mppt_tracks_and_perturbation_raises_variance():
    t0 = time.perf_counter()
    nominal = mgsim.run_scenario(mgsim.named_scenario("nominal"))
    sine = mgsim.run_scenario(mgsim.named_scenario("input_sine"))
    p_star_kw, _ = grid_sweep_mpp()
    p_star_kw /= 1000.0

    # settled tracking, before the 35 s load step changes nothing for PV:
    # judge the tail of the constant-irradiance run
    tail = nominal.pv_kw[nominal.time_s >= 10.0]
    track_err = abs(tail.mean() - p_star_kw) / p_star_kw
    assert track_err <= 0.02

    # the sensed-voltage sine keeps the tracker moving: its output-power
    # variance exceeds nominal on every settled 10 s window
    def window_vars(trace):
        out = []
        t = trace.time_s
        for lo in range(10, 60, 10):
            seg = trace.pv_kw[(lo <= t) & (t < lo + 10)]
            out.append(float(np.var(seg)))
        return out

    v_nom = window_vars(nominal)
    v_sin = window_vars(sine)
    for a, b in zip(v_sin, v_nom):
        assert a > b
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 10 PASS: tracking error {track_err * 100:.3f}% of the "
          f"swept MPP; perturbed variance exceeds nominal on all settled "
          f"windows (min ratio "
          f"{min(a / b for a, b in zip(v_sin, v_nom)):.0f}x; {elapsed:.1f} s)")


def test_criterion_11_attack_scenario_shapes():
    trace = mgsim.run_scenario(mgsim.named_scenario("inverter_dos"))
    t = trace.time_s
    gated = ((15.0 <= t) & (t < 30.0)) | (t >= 45.0)
    assert np.all(trace.pv_kw[gated] == 0.0)
    assert np.all((trace.pv_kw[~gated] > 0.0) | (t[~gated] < 0.5))

    # generation follows the 500 -> 800 kW load: settled tail of every
    # segment at least 10 s long lands within 1% of the demanded load
    gen = trace.pv_kw + trace.diesel_kw + trace.ess_kw
    load = trace.load_kw
    for lo, hi in ((0.0, 15.0), (15.0, 30.0), (35.0, 45.0), (45.0, 60.0)):
        seg = (t >= hi - 2.0) & (t < hi)
        seg_load = load[seg].max()
        assert np.abs(gen[seg] - load[seg]).max() <= 0.01 * seg_load
    # and never beyond what the sources can physically deliver
    s = mgsim.named_scenario("inverter_dos")
    assert np.all(gen <= 250.1 + s.diesel_max_kw + s.ess_p_max_kw)

    nominal_mean = np.mean(
        mgsim.run_scenario(mgsim.named_scenario("nominal")).pv_kw)
    dos_mean = np.mean(
        mgsim.run_scenario(mgsim.named_scenario("mppt_dos")).pv_kw)
    assert dos_mean < nominal_mean
    print(f"criterion 11 PASS: inverter gating exact on [15,30) and "
          f"[45,60); settled generation within 1% of load; tracker-DoS "
          f"mean PV {dos_mean:.1f} kW below nominal {nominal_mean:.1f} kW")


# SHA-256 of the seed-42 bundle files computed with integer arithmetic
# only. The network, ranking and simulation files are left out: their
# floats depend on the BLAS and libm builds.
GOLDEN_SEED_42 = {
    "dataset.csv":
        "3c43bb6c826ae7c5449d6d910577b50f1c3f417927cc54ea4230ecc96fb17c08",
    "dt_balanced.json":
        "e5df72ef3f7f4ec205c7f808a4678e26c4ea3734e203a7e674e6c4149f4ed278",
    "dt_unbalanced.json":
        "b2d278887697758cb4e7d9337f594b10a15c006427be683083d38d49bc210245",
    "rf_balanced.json":
        "75bb85d6c91925827a854264edccde94383d84b012371fe0e6b6437e15956e15",
    "rf_unbalanced.json":
        "f1bd39ed3ab952bf448694b77553561d27d375fa86431dd6e590f5c170d9b0d0",
}


@pytest.fixture(scope="module")
def seed42_bundles(tmp_path_factory):
    """Two reproduce --seed 42 bundles, made once for criterion 12 and
    the worker-sweep check."""
    root = tmp_path_factory.mktemp("seed42")
    for name in ("one", "two"):
        assert cli.main(["reproduce", "--seed", "42",
                         "--out", str(root / name)]) == 0
    return root / "one", root / "two"


def test_criterion_12_reproduce_byte_identical(seed42_bundles, tmp_path):
    out1, out2 = seed42_bundles
    # the bundle's own base listing, fed back with --base, gives it again
    out3 = tmp_path / "base"
    assert cli.main(["reproduce", "--seed", "42", "--base",
                     str(out1 / "benign.asm"), "--out", str(out3)]) == 0
    names1 = sorted(p.name for p in out1.iterdir() if p.is_file())
    for out in (out2, out3):
        names = sorted(p.name for p in out.iterdir() if p.is_file())
        assert names == names1 and len(names1) == 20
        for name in names1:
            assert (out / name).read_bytes() == (out1 / name).read_bytes(), \
                name
    for name, digest in GOLDEN_SEED_42.items():
        got = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
        assert got == digest, name
    print(f"criterion 12 PASS: three seed-42 bundles, one from its own "
          f"base listing, byte-identical across all {len(names1)} files; "
          f"{len(GOLDEN_SEED_42)} match their golden digests")


def test_worker_sweep_rows_match_bundle(seed42_bundles, tmp_path):
    # reproduce's worker runs the whole sweep as one run_ablation call; the
    # same call in this process gives the bundle's ablation.csv bytes
    bundle = seed42_bundles[0]
    ds = hpc.read_dataset_csv(bundle / "dataset.csv")
    out = tmp_path / "ablation.csv"
    pca.run_ablation(ds, seed=42).to_csv(out)
    assert out.read_bytes() == (bundle / "ablation.csv").read_bytes()


def test_saved_models_match_summary(seed42_bundles):
    # each saved model, scored on its cell's held-out side of the bundle's
    # dataset, gives its row of the two detection-metrics tables
    bundle = seed42_bundles[0]
    ds = hpc.read_dataset_csv(bundle / "dataset.csv")
    sections = {}
    for section in (bundle / "summary.md").read_text().split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        sections[heading] = body.splitlines()
    for balanced, heading in (
            (False, "Detection metrics, unbalanced training (70/30 split)"),
            (True, "Detection metrics, balanced training")):
        for i, kind in enumerate(ml.TRAINERS):
            seed = ml.derive_seed(42, int(balanced), i)
            _, test = ml.split(ds, 0.7, seed)
            label = "balanced" if balanced else "unbalanced"
            model = ml.load_model(bundle / f"{kind}_{label}.json")
            metrics = ml.evaluate(model, test).metrics
            row = study._metrics_table([(kind, metrics)])[-1]
            assert row in sections[heading], (kind, label)
    print("saved models PASS: the six model files score their "
          "summary.md rows")
