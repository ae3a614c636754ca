"""Window counting against an independent chunk-and-scan oracle, plus
dataset container and CSV round-trip behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel import hpc
from hpc_sentinel.asm import Listing, parse_listing
from hpc_sentinel.errors import DataError, InconsistentFeatures

N_FEATURES = len(hpc.FEATURE_NAMES)


def oracle_windows(codes, window):
    """Brute-force reference: slice the stream into window-sized chunks,
    tally unigrams and adjacent in-chunk categorized pairs by direct scan.

    Written independently of the library kernels; kept dumb on purpose.
    """
    codes = list(codes)
    out = []
    for start in range(0, len(codes), window):
        chunk = codes[start:start + window]
        counts = [0] * N_FEATURES
        for c in chunk:
            if c < 5:
                counts[c] += 1
        for i in range(len(chunk) - 1):
            prev, nxt = chunk[i], chunk[i + 1]
            if prev < 5 and nxt < 5:
                counts[5 + 5 * prev + nxt] += 1
        out.append((counts, len(chunk), len(chunk) < window))
    return out


def listing_of(codes):
    """A parsed listing holding the given category codes."""
    return Listing(codes=np.asarray(codes, dtype=np.int64), skipped={})


def windows(codes, window):
    return hpc.extract_windows(listing_of(codes), window)


def assert_matches_oracle(codes, window):
    want = oracle_windows(codes, window)
    X = windows(codes, window)
    assert X.dtype == np.int64 and X.shape == (len(want), N_FEATURES)
    assert X.tolist() == [counts for counts, _, _ in want]
    ds = hpc.emit_dataset([("fw", "benign", None, listing_of(codes))],
                          window)
    assert ds.partial.tolist() == [partial for _, _, partial in want]


# --- worked example -----------------------------------------------------------

WORKED_LISTING = """\
008000 a501 MOV AL,@VarA
008001 a502 ADD AL,#1
008002 a503 ANDB AL,#0x0F
008003 a504 SUBB AL,#2
008004 a505 B next,UNC
008005 a506 MOV AH,@VarB
008006 a507 ADD AH,#1
008007 a508 ANDB AH,#0x0F
008008 a509 SUBB AH,#2
008009 a50a B done,UNC
"""


def test_worked_example_exact_counts():
    listing = parse_listing(WORKED_LISTING)
    X = hpc.extract_windows(listing, window=50)
    assert X.shape == (1, N_FEATURES) and len(listing) == 10
    ds = hpc.emit_dataset([("worked", "benign", None, listing)], 50)
    assert ds.partial.tolist() == [True]
    expected = {"l": 2, "a": 4, "n": 2, "b": 2,
                "la": 2, "an": 2, "na": 2, "ab": 2, "bl": 1}
    for name, count in zip(hpc.FEATURE_NAMES, X[0]):
        assert count == expected.get(name, 0), name


def test_feature_name_order():
    assert hpc.FEATURE_NAMES[:5] == ("a", "b", "l", "n", "s")
    assert len(hpc.FEATURE_NAMES) == 30
    syms = "ablns"
    assert hpc.FEATURE_NAMES[5:] == tuple(x + y for x in syms for y in syms)


# --- oracle equivalence -------------------------------------------------------

def test_random_streams_match_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(0, 501))
        codes = rng.integers(0, 6, size=n)
        for window in (1, 7, 50):
            assert_matches_oracle(codes, window)


@given(st.lists(st.integers(0, 5), max_size=200),
       st.sampled_from([1, 2, 7, 50]))
@settings(max_examples=200, deadline=None)
def test_property_matches_oracle(codes, window):
    assert_matches_oracle(codes, window)


@given(st.lists(st.integers(0, 5), max_size=200),
       st.sampled_from([1, 7, 50]))
@settings(max_examples=150, deadline=None)
def test_unigram_conservation(codes, window):
    # categorized unigrams plus Other occurrences account for every slot
    for row, chunk_start in zip(windows(codes, window),
                                range(0, len(codes), window)):
        chunk = codes[chunk_start:chunk_start + window]
        n_other = sum(1 for c in chunk if c == 5)
        assert int(row[:5].sum()) + n_other == len(chunk)


@given(st.lists(st.integers(0, 5), max_size=200),
       st.sampled_from([1, 7, 50]))
@settings(max_examples=150, deadline=None)
def test_bigram_total_counts_categorized_adjacencies(codes, window):
    for row, start in zip(windows(codes, window),
                          range(0, len(codes), window)):
        chunk = codes[start:start + window]
        pairs = sum(1 for i in range(len(chunk) - 1)
                    if chunk[i] < 5 and chunk[i + 1] < 5)
        assert int(row[5:].sum()) == pairs


@given(st.lists(st.integers(0, 5), min_size=0, max_size=120),
       st.lists(st.integers(0, 5), min_size=0, max_size=120),
       st.sampled_from([1, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_concatenation_when_first_is_whole_windows(s1, s2, window):
    # pairs never span a window boundary, so a whole-window prefix is
    # independent of what follows
    s1 = s1[: (len(s1) // window) * window]
    joined = windows(s1 + s2, window)
    parts = windows(s1, window).tolist() + windows(s2, window).tolist()
    assert joined.tolist() == parts


@given(st.lists(st.integers(0, 5), min_size=1, max_size=200),
       st.sampled_from([1, 7, 50]))
@settings(max_examples=100, deadline=None)
def test_only_last_window_may_be_partial(codes, window):
    partial = hpc.emit_dataset(
        [("fw", "benign", None, listing_of(codes))], window).partial
    assert not partial[:-1].any()
    assert partial[-1] == (len(codes) % window != 0)


@given(st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=40),
                          st.sampled_from(["benign", "malicious"])),
                max_size=5),
       st.sampled_from([1, 3, 7]))
@settings(max_examples=100, deadline=None)
def test_emit_dataset_rows_follow_runs(runs, window):
    # row by row: each run's oracle windows in input order, numbered from
    # 0 within the run and carrying the run's id, label and attack kind
    want = [(f"fw{i}", w, partial, counts, label,
             "mppt_dos" if label == "malicious" else "")
            for i, (codes, label) in enumerate(runs)
            for w, (counts, _, partial) in enumerate(
                oracle_windows(codes, window))]
    ds = hpc.emit_dataset(
        [(f"fw{i}", label, "mppt_dos" if label == "malicious" else None,
          listing_of(codes)) for i, (codes, label) in enumerate(runs)],
        window)
    assert list(zip(ds.firmware_id.tolist(), ds.window_index.tolist(),
                    ds.partial.tolist(), ds.X.tolist(),
                    [hpc.LABELS[y] for y in ds.y.tolist()],
                    ds.attack.tolist())) == want
    assert ds.feature_names == hpc.FEATURE_NAMES


def test_window_one_has_no_bigrams():
    for row in windows([0, 1, 2, 3, 4, 5, 0, 1], 1):
        assert int(row[5:].sum()) == 0


def test_empty_stream_yields_no_windows():
    assert windows([], 50).shape == (0, N_FEATURES)


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        windows([0], 0)


# --- dataset container ---------------------------------------------------------

def _dataset(labels, attacks, seed=0, partial=None):
    rng = np.random.default_rng(seed)
    n = len(labels)
    return hpc.Dataset(X=rng.integers(0, 9, (n, N_FEATURES)), y=labels,
                       firmware_id=[f"f{i}" for i in range(n)],
                       window_index=list(range(n)),
                       partial=partial or [False] * n, attack=attacks)


def test_sample_label_attack_consistency():
    _dataset([0], [""])
    _dataset([1], ["mppt_dos"])
    with pytest.raises(ValueError):
        _dataset([0], ["mppt_dos"])
    with pytest.raises(ValueError):
        _dataset([1], [""])
    with pytest.raises(ValueError):
        _dataset([2], [""])


def test_dataset_matrix_and_labels():
    ds = _dataset([0, 1], ["", "inverter_dos"])
    assert ds.matrix().shape == (2, N_FEATURES)
    assert ds.labels().tolist() == [0, 1]
    assert ds.class_counts() == (1, 1)


def test_dataset_project_subsets_columns():
    ds = _dataset([0], [""], seed=1)
    sub = ds.project(("a", "la", "ss"))
    assert sub.feature_names == ("a", "la", "ss")
    src = ds.matrix()[0]
    assert sub.matrix()[0].tolist() == [
        src[hpc.FEATURE_NAMES.index(n)] for n in ("a", "la", "ss")]
    with pytest.raises(InconsistentFeatures):
        ds.project(("a", "zz"))


def test_csv_round_trip(tmp_path):
    ds = _dataset([i % 2 for i in range(6)],
                  ["input_sine" if i % 2 else "" for i in range(6)], seed=5,
                  partial=[i == 5 for i in range(6)])
    path = tmp_path / "data.csv"
    hpc.write_dataset_csv(ds, path)
    back = hpc.read_dataset_csv(path)
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.matrix(), ds.matrix())
    assert back.labels().tolist() == ds.labels().tolist()
    assert back.attack.tolist() == ds.attack.tolist()
    assert back.partial.tolist() == ds.partial.tolist()


def test_csv_rejects_unknown_feature_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("firmware_id,window_index,partial,zz,label,attack_kind\n"
                    "f,0,0,3,benign,\n")
    with pytest.raises(InconsistentFeatures):
        hpc.read_dataset_csv(path)


def test_csv_not_utf8_names_file(tmp_path):
    ds = _dataset([0, 1], ["", "input_sine"], seed=5)
    path = tmp_path / "data.csv"
    hpc.write_dataset_csv(ds, path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(DataError, match="not UTF-8") as info:
        hpc.read_dataset_csv(path)
    assert str(path) in str(info.value)
