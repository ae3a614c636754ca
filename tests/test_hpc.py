"""Window counting against an independent chunk-and-scan oracle, plus
dataset container and CSV round-trip behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel import hpc
from hpc_sentinel.asm import InstructionCategory, parse_listing
from hpc_sentinel.errors import InconsistentFeatures

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


def assert_matches_oracle(codes, window):
    got = hpc.windows_from_codes(np.asarray(codes, dtype=np.int64), window)
    want = oracle_windows(codes, window)
    assert len(got) == len(want)
    for vec, (counts, length, partial) in zip(got, want):
        assert vec.counts.tolist() == counts
        assert vec.window_len == length
        assert vec.partial == partial


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
    vecs = hpc.extract_windows(parse_listing(WORKED_LISTING), window=50)
    assert len(vecs) == 1
    v = vecs[0]
    assert v.partial and v.window_len == 10
    expected = {"l": 2, "a": 4, "n": 2, "b": 2,
                "la": 2, "an": 2, "na": 2, "ab": 2, "bl": 1}
    for name, count in zip(hpc.FEATURE_NAMES, v.counts):
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
    for vec, chunk_start in zip(
            hpc.windows_from_codes(np.asarray(codes, dtype=np.int64), window),
            range(0, len(codes), window)):
        chunk = codes[chunk_start:chunk_start + window]
        n_other = sum(1 for c in chunk if c == 5)
        assert int(vec.counts[:5].sum()) + n_other == vec.window_len


@given(st.lists(st.integers(0, 5), max_size=200),
       st.sampled_from([1, 7, 50]))
@settings(max_examples=150, deadline=None)
def test_bigram_total_counts_categorized_adjacencies(codes, window):
    vecs = hpc.windows_from_codes(np.asarray(codes, dtype=np.int64), window)
    for vec, start in zip(vecs, range(0, len(codes), window)):
        chunk = codes[start:start + window]
        pairs = sum(1 for i in range(len(chunk) - 1)
                    if chunk[i] < 5 and chunk[i + 1] < 5)
        assert int(vec.counts[5:].sum()) == pairs


@given(st.lists(st.integers(0, 5), min_size=0, max_size=120),
       st.lists(st.integers(0, 5), min_size=0, max_size=120),
       st.sampled_from([1, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_concatenation_when_first_is_whole_windows(s1, s2, window):
    # pairs never span a window boundary, so a whole-window prefix is
    # independent of what follows
    s1 = s1[: (len(s1) // window) * window]
    joined = hpc.windows_from_codes(np.asarray(s1 + s2, dtype=np.int64), window)
    parts = (hpc.windows_from_codes(np.asarray(s1, dtype=np.int64), window)
             + hpc.windows_from_codes(np.asarray(s2, dtype=np.int64), window))
    assert joined == parts


@given(st.lists(st.integers(0, 5), min_size=1, max_size=200),
       st.sampled_from([1, 7, 50]))
@settings(max_examples=100, deadline=None)
def test_only_last_window_may_be_partial(codes, window):
    vecs = hpc.windows_from_codes(np.asarray(codes, dtype=np.int64), window)
    assert all(not v.partial for v in vecs[:-1])
    assert vecs[-1].partial == (len(codes) % window != 0)


def test_window_one_has_no_bigrams():
    codes = np.array([0, 1, 2, 3, 4, 5, 0, 1], dtype=np.int64)
    for v in hpc.windows_from_codes(codes, 1):
        assert int(v.counts[5:].sum()) == 0


def test_empty_stream_yields_no_windows():
    assert hpc.windows_from_codes(np.array([], dtype=np.int64), 50) == []


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        hpc.windows_from_codes(np.array([0], dtype=np.int64), 0)


def test_compute_bigram_names():
    IC = InstructionCategory
    assert hpc.compute_bigram(IC.LOAD, IC.ARITHMETIC) == "la"
    assert hpc.compute_bigram(IC.BRANCH, IC.BRANCH) == "bb"
    assert hpc.compute_bigram(IC.OTHER, IC.ARITHMETIC) is None
    assert hpc.compute_bigram(IC.STORE, IC.OTHER) is None


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
