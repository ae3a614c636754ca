"""End-to-end command behavior: happy-path chains and the exit-code
contract (0 ok, 2 usage, 3 bad data, 4 numeric divergence)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpc_sentinel import cli, hpc, mgsim, ml, mutate, pca, study
from hpc_sentinel.errors import (AnchorNotFound, DataError,
                                 DegenerateCovariance, NonFiniteLoss)
from hpc_sentinel.mutate import (AttackKind, default_template,
                                 synth_base_listing)

from conftest import train_eval_oracle

REPO = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


@pytest.fixture(scope="module")
def base_asm(tmp_path_factory):
    path = tmp_path_factory.mktemp("fw") / "base.asm"
    path.write_text(synth_base_listing(seed=6), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory, base_asm):
    root = tmp_path_factory.mktemp("corpus")
    mutant = root / "bad.asm"
    assert run_cli("mutate", "--base", str(base_asm), "--attack", "mppt_dos",
                   "--seed", "3", "--out", str(mutant)) == 0
    benign = root / "benign.csv"
    mal = root / "mal.csv"
    assert run_cli("extract", "--label", "benign", "--out", str(benign),
                   str(base_asm)) == 0
    assert run_cli("extract", "--label", "malicious", "--attack", "mppt_dos",
                   "--out", str(mal), str(mutant)) == 0
    merged = root / "data.csv"
    b_lines = benign.read_text().splitlines()
    m_lines = mal.read_text().splitlines()
    assert b_lines[0] == m_lines[0]
    merged.write_text("\n".join(b_lines + m_lines[1:]) + "\n")
    return merged


def test_extract_header_and_rows(corpus_csv):
    lines = corpus_csv.read_text().splitlines()
    assert lines[0].startswith("firmware_id,window_index,partial,a,b,l,n,s,aa,")
    assert lines[0].endswith(",label,attack_kind")
    assert len(lines) > 100


def test_extract_with_shipped_map_equals_default(tmp_path, base_asm):
    shipped = resources.files("hpc_sentinel.data") / "c28x_categories.json"
    plain, mapped = tmp_path / "plain.csv", tmp_path / "mapped.csv"
    assert run_cli("extract", "--label", "benign", "--out", str(plain),
                   str(base_asm)) == 0
    assert run_cli("extract", "--map", str(shipped), "--label", "benign",
                   "--out", str(mapped), str(base_asm)) == 0
    assert mapped.read_bytes() == plain.read_bytes()


def test_train_eval_rank_chain(tmp_path, corpus_csv):
    model = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--data", str(corpus_csv),
                   "--seed", "9", "--out", str(model)) == 0
    obj = json.loads(model.read_text())
    assert obj["kind"] == "dt"

    report = tmp_path / "report.json"
    assert run_cli("eval", "--model", str(model), "--data", str(corpus_csv),
                   "--out", str(report)) == 0
    rep = json.loads(report.read_text())
    assert set(rep["metrics"]) >= {"accuracy", "precision", "recall",
                                   "fp_rate", "fn_rate"}
    assert 0.0 <= rep["metrics"]["accuracy"] <= 1.0

    ranking = tmp_path / "rank.json"
    assert run_cli("rank", "--data", str(corpus_csv),
                   "--out", str(ranking)) == 0
    robj = json.loads(ranking.read_text())
    assert len(robj["ranking"]) == 30


def test_train_balanced_rf_and_nn(tmp_path, capsys, corpus_csv):
    # each saved model and its printed held-out accuracy are the oracle's
    # for the same flags, so a flag that does not reach its trainer fails
    ds = hpc.read_dataset_csv(corpus_csv)
    for kind, flags, seed, balanced, hp in (
            ("dt", (), 9, False, None),
            ("rf", ("--trees", "10", "--balance"), 1, True,
             {"rf": {"n_trees": 10}}),
            ("nn", ("--hidden", "4", "--epochs", "40", "--lr", "0.3"), 1,
             False, {"nn": {"hidden": 4, "epochs": 40, "lr": 0.3}})):
        out = tmp_path / f"{kind}.json"
        assert run_cli("train", "--model", kind, "--data", str(corpus_csv),
                       *flags, "--seed", str(seed), "--out", str(out)) == 0
        model, report = train_eval_oracle(kind, ds, seed, 0.7, balanced, hp)
        want = tmp_path / f"{kind}_oracle.json"
        ml.save_model(model, want)
        assert out.read_bytes() == want.read_bytes(), kind
        assert capsys.readouterr().out == (
            f"wrote {out} ({kind}, held-out accuracy "
            f"{report.metrics.accuracy:.4f})\n")


def test_ablate_row_count(tmp_path, corpus_csv):
    out = tmp_path / "abl.csv"
    assert run_cli("ablate", "--data", str(corpus_csv), "--exclusions", "1",
                   "--seed", "2", "--out", str(out)) == 0
    # 5 single-class exclusions, each evaluated with all three model kinds
    assert len(out.read_text().splitlines()) == 1 + 15


def test_ablate_cells_independent_of_grid(tmp_path, corpus_csv):
    # a cell's seed follows its place in the full grid, so the two-class
    # run repeats the two-class rows of the full sweep
    rows = {}
    for which in ("2", "all"):
        out = tmp_path / f"abl_{which}.csv"
        assert run_cli("ablate", "--data", str(corpus_csv), "--exclusions",
                       which, "--seed", "2", "--out", str(out)) == 0
        rows[which] = out.read_text().splitlines()
    assert len(rows["2"]) == 1 + 30
    assert rows["2"] == rows["all"][:1] + rows["all"][16:]


def test_simulate_named_and_file_scenarios(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--scenario", "nominal",
                   "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1 + 6000

    from hpc_sentinel.mgsim import named_scenario
    spec = named_scenario("mppt_dos").to_dict()
    spec["duration_s"] = 2.0
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(spec))
    out2 = tmp_path / "sim2.csv"
    assert run_cli("simulate", "--scenario-file", str(sc_file),
                   "--out", str(out2)) == 0
    assert len(out2.read_text().splitlines()) == 1 + 200


def test_report_renders_charts(tmp_path):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    assert run_cli("simulate", "--scenario", "nominal",
                   "--out", str(bundle / "sim_nominal.csv")) == 0
    assert run_cli("report", "--bundle", str(bundle)) == 0
    power = bundle / "plots" / "nominal_power.svg"
    freq = bundle / "plots" / "nominal_freq.svg"
    assert power.exists() and freq.exists()
    assert power.read_text().lstrip().startswith("<svg")


def test_report_escapes_chart_text(tmp_path):
    # a scenario name is the file name, and goes into each chart's title
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    assert run_cli("simulate", "--scenario", "nominal",
                   "--out", str(bundle / "sim_a&b<c.csv")) == 0
    assert run_cli("report", "--bundle", str(bundle)) == 0
    for chart in ("a&b<c_power.svg", "a&b<c_freq.svg"):
        title = ET.parse(bundle / "plots" / chart).getroot().find(
            "{http://www.w3.org/2000/svg}text").text
        assert title.startswith("a&b<c: "), chart


_SIM_HEADER = ",".join(mgsim.CSV_COLUMNS)
_SIM_ROW = "0.000000,60.0,35.0,1.0,100.0,50.0,500.0,1,1"


@pytest.mark.parametrize("text,words", [
    pytest.param("", "has no data rows", id=""),
    pytest.param("time_s,pv_kw,freq_hz,mppt_on,inverter_on\n",
                 "has no data rows",
                 id="time_s,pv_kw,freq_hz,mppt_on,inverter_on\n"),
    pytest.param(f"{_SIM_HEADER}\n{_SIM_ROW}\n0.01,1.0\n",
                 "line 3 has 2 fields, the header 9", id="ragged"),
    pytest.param(f"{_SIM_HEADER}\n0.000000,60.0,n/a,1.0,100.0,50.0,500.0,"
                 "1,1\n", "line 2: could not convert string to float: 'n/a'",
                 id="not_a_number"),
    pytest.param(f"{_SIM_HEADER}\n0.000000,60.0," + "1" * 200000
                 + ",1.0,100.0,50.0,500.0,1,1\n",
                 "field larger than field limit", id="field_over_csv_limit"),
])
def test_report_rejects_broken_sim_csv(tmp_path, capsys, text, words):
    # each case stops at its own check: the full header takes the ragged,
    # not-a-number and oversized rows past the chart-column check
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    sim = bundle / "sim_nominal.csv"
    sim.write_text(text)
    assert run_cli("report", "--bundle", str(bundle)) == 3
    err = capsys.readouterr().err
    assert str(sim) in err and words in err and "Traceback" not in err


@pytest.mark.parametrize("row,words", [
    ("0.010000,60.0,inf,1.0,100.0,50.0,500.0,1,1", "pv_kw is 'inf'"),
    ("0.010000,nan,35.0,1.0,100.0,50.0,500.0,1,1", "freq_hz is 'nan'"),
    ("0.010000,60.0,35.0,1.0,100.0,50.0,-inf,1,1", "load_kw is '-inf'"),
    ("0.010000,60.0,35.0,1.0,n/a,50.0,500.0,1,1", "'n/a'"),
    ("0.010000,60.0,35.0,1.0,100.0", "has 5 fields"),
], ids=["inf", "nan", "minus_inf", "not_a_number", "ragged"])
def test_report_names_line_of_bad_value(tmp_path, capsys, row, words):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    sim = bundle / "sim_nominal.csv"
    sim.write_text(f"{_SIM_HEADER}\n{_SIM_ROW}\n{row}\n{_SIM_ROW}\n")
    assert run_cli("report", "--bundle", str(bundle)) == 3
    err = capsys.readouterr().err
    assert f"{sim} line 3" in err and words in err
    assert "Traceback" not in err
    assert not (bundle / "plots" / "nominal_power.svg").exists()


@pytest.mark.parametrize("column", study.CHART_COLUMNS)
def test_report_names_missing_column(tmp_path, capsys, column):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    sim = bundle / "sim_nominal.csv"
    header = _SIM_HEADER.replace(column, column.upper())
    sim.write_text(f"{header}\n{_SIM_ROW}\n{_SIM_ROW}\n")
    assert run_cli("report", "--bundle", str(bundle)) == 3
    err = capsys.readouterr().err
    assert str(sim) in err and f"no {column!r} column" in err
    assert "Traceback" not in err


def test_report_rejects_non_utf8_sim_csv(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    sim = bundle / "sim_nominal.csv"
    sim.write_bytes(b"time_s,pv_kw,freq_hz,mppt_on,inverter_on\n"
                    b"0.0,\xff,60.0,1,1\n")
    assert run_cli("report", "--bundle", str(bundle)) == 3
    err = capsys.readouterr().err
    assert str(sim) in err and "UTF-8" in err and "Traceback" not in err


# --- exit codes -----------------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, corpus_csv):
    assert run_cli("no-such-command") == 2
    assert run_cli("extract", "--label", "nonsense", "--out", "x.csv",
                   "f.asm") == 2
    # malicious extraction without an attack kind, and the converse
    assert run_cli("extract", "--label", "malicious", "--out", "x.csv",
                   "f.asm") == 2
    assert run_cli("extract", "--label", "benign", "--attack", "mppt_dos",
                   "--out", "x.csv", "f.asm") == 2
    assert run_cli("simulate", "--out", str(tmp_path / "s.csv")) == 2
    assert run_cli("train", "--model", "svm", "--data", str(corpus_csv),
                   "--out", str(tmp_path / "m.json")) == 2
    # a zero window is refused before the bundle directory is made
    assert run_cli("reproduce", "--window", "0",
                   "--out", str(tmp_path / "bundle")) == 2
    assert not (tmp_path / "bundle").exists()
    # so are a split outside (0, 1) and more components than counters
    for flag, value in (("--split", "0"), ("--split", "1.5"),
                        ("--components", "0"), ("--components", "99")):
        assert run_cli("reproduce", flag, value,
                       "--out", str(tmp_path / "bundle")) == 2, flag
        assert not (tmp_path / "bundle").exists(), flag
    # train's numeric flags are range-checked before the data is read
    for model, flag, value in (
            ("dt", "--split", "0"), ("dt", "--split", "1"),
            ("rf", "--trees", "0"), ("nn", "--hidden", "-1"),
            ("nn", "--epochs", "0"), ("nn", "--lr", "0"),
            ("nn", "--lr", "-0.5"), ("nn", "--lr", "nan"),
            ("nn", "--lr", "inf")):
        assert run_cli("train", "--model", model, "--data", str(corpus_csv),
                       flag, value, "--out", str(tmp_path / "m.json")) == 2, \
            (flag, value)
        assert not (tmp_path / "m.json").exists(), (flag, value)


@pytest.mark.parametrize("command,flag,value", [
    ("extract", "--window", str(10**21)),
    ("extract", "--window", str(2**63)),
    ("reproduce", "--window", str(10**21)),
    ("mutate", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("ablate", "--seed", "-1"),
    ("reproduce", "--seed", "-1"),
    ("train", "--trees", str(cli.FLAG_BOUNDS["trees"][1] + 1)),
    ("train", "--hidden", str(cli.FLAG_BOUNDS["hidden"][1] + 1)),
    ("train", "--epochs", str(cli.FLAG_BOUNDS["epochs"][1] + 1)),
])
def test_flag_bounds_exit_2_naming_flag(tmp_path, capsys, command, flag,
                                        value):
    # checked before any work: the input files need not exist
    out = tmp_path / "out"
    assert run_cli(command, *_required_args(command, tmp_path / "missing"),
                   flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"usage error: {flag} must" in err and "Traceback" not in err
    assert not out.exists()


def _required_args(command, missing):
    """The required arguments of command but --out, naming the missing
    path for every input file."""
    return {"extract": ["--label", "benign", str(missing)],
            "mutate": ["--base", str(missing), "--attack", "mppt_dos"],
            "train": ["--model", "dt", "--data", str(missing)],
            "rank": ["--data", str(missing)],
            "ablate": ["--data", str(missing)],
            "reproduce": []}[command]


def _outside(low, high):
    """Integers below low, or above high when there is one, up to 2^64
    away from zero."""
    below = st.integers(-2**64, low - 1)
    return below if high is None else below | st.integers(high + 1, 2**64)


def _int_flags():
    """(command, flag) of every integer flag that FLAG_BOUNDS checks."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [(command, a.option_strings[0])
            for command, parser in sub.choices.items()
            for a in parser._actions if a.dest in cli.FLAG_BOUNDS]


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_OUTSIDE_UNIT = _NON_FINITE | st.floats(max_value=0.0) | st.floats(
    min_value=1.0)
# Values outside each numeric flag's range: a command checks all of them
# before any work, so no example trains, simulates or allocates.
_BAD_FLAG_VALUES = [
    (command, flag, _outside(*cli.FLAG_BOUNDS[flag[2:]]))
    for command, flag in _int_flags()] + [
    ("train", "--lr", _NON_FINITE | st.floats(max_value=0.0)),
    ("train", "--split", _OUTSIDE_UNIT),
    ("reproduce", "--split", _OUTSIDE_UNIT),
]


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(_BAD_FLAG_VALUES), data=st.data())
def test_out_of_range_flags_exit_2_naming_flag(case, data):
    command, flag, values = case
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(command, *_required_args(command,
                                                    Path(tmp) / "missing"),
                           f"{flag}={value}", "--out", str(out))
        assert code == 2, (flag, value, err.getvalue())
        assert f"usage error: {flag} must" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


def test_largest_window_runs(tmp_path, base_asm):
    out = tmp_path / "w.csv"
    assert run_cli("extract", "--label", "benign", "--window",
                   str(hpc.MAX_WINDOW), "--out", str(out),
                   str(base_asm)) == 0
    assert len(out.read_text().splitlines()) == 2   # one partial window


def test_parser_choices_are_the_library_names():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")

    def choices(command, dest):
        action = next(a for a in sub.choices[command]._actions
                      if a.dest == dest)
        return list(action.choices)

    kinds = [k.value for k in AttackKind]
    assert choices("extract", "attack") == kinds
    assert choices("mutate", "attack") == kinds
    assert choices("simulate", "scenario") == list(mgsim.SCENARIO_NAMES)
    assert cli.BUNDLE_SIMS == tuple(f"sim_{n}.csv"
                                    for n in mgsim.SCENARIO_NAMES)


def _modules_after(argv):
    """The hpc_sentinel modules a fresh interpreter holds after cli.main
    runs argv."""
    code = ("import json, sys\n"
            "from hpc_sentinel import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps([m for m in sys.modules\n"
            "                  if m.startswith('hpc_sentinel.')]))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_extract_and_eval_load_only_what_they_run(tmp_path, base_asm,
                                                  corpus_csv):
    out = tmp_path / "x.csv"
    loaded = _modules_after(["extract", "--label", "benign", "--out",
                             str(out), str(base_asm)])
    assert not loaded & {"hpc_sentinel.ml", "hpc_sentinel.mgsim",
                         "hpc_sentinel.mutate", "hpc_sentinel.pca",
                         "hpc_sentinel.study"}
    model = tmp_path / "dt.json"
    loaded = _modules_after(["train", "--model", "dt", "--data",
                             str(corpus_csv), "--out", str(model)])
    assert "hpc_sentinel.study" not in loaded
    loaded = _modules_after(["eval", "--model", str(model), "--data",
                             str(corpus_csv), "--out",
                             str(tmp_path / "r.json")])
    assert "hpc_sentinel.ml" in loaded
    assert not loaded & {"hpc_sentinel.mgsim", "hpc_sentinel.mutate",
                         "hpc_sentinel.pca", "hpc_sentinel.study"}
    # report runs in study, which loads none of the modules it does not run
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "sim_nominal.csv").write_text(
        f"{_SIM_HEADER}\n{_SIM_ROW}\n{_SIM_ROW}\n")
    loaded = _modules_after(["report", "--bundle", str(bundle)])
    assert "hpc_sentinel.study" in loaded
    assert not loaded & {"hpc_sentinel.ml", "hpc_sentinel.mgsim",
                         "hpc_sentinel.mutate", "hpc_sentinel.pca"}


def test_rank_components_range(tmp_path, capsys, corpus_csv):
    out = tmp_path / "ranking.json"
    # outside FLAG_BOUNDS is refused before the data is read, so a missing
    # file still exits 2
    for value in ("0", "31"):
        assert run_cli("rank", "--data", str(tmp_path / "missing.csv"),
                       "--components", value, "--out", str(out)) == 2
        assert "--components must lie in [1, 30]" in capsys.readouterr().err
    # more components than the data's own counters
    two = tmp_path / "two.csv"
    two.write_text("firmware_id,window_index,partial,a,b,label,attack_kind\n"
                   "f,0,0,1,2,benign,\ng,0,0,3,1,malicious,mppt_dos\n"
                   "f,1,0,2,2,benign,\ng,1,0,4,0,malicious,mppt_dos\n")
    assert run_cli("rank", "--data", str(two),
                   "--components", "3", "--out", str(out)) == 2
    assert f"[1, 2]: {two} has 2 counters" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("rank", "--data", str(corpus_csv),
                   "--components", "30", "--out", str(out)) == 0
    assert json.loads(out.read_text())["n_components"] == 30


def test_data_errors_exit_3(tmp_path, base_asm):
    assert run_cli("extract", "--label", "benign",
                   "--out", str(tmp_path / "x.csv"),
                   str(tmp_path / "missing.asm")) == 3
    assert run_cli("train", "--model", "dt",
                   "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "m.json")) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("firmware_id,window_index,partial,zz,label,attack_kind\n"
                   "f,0,0,1,benign,\n")
    assert run_cli("rank", "--data", str(bad),
                   "--out", str(tmp_path / "r.json")) == 3
    # a short row, and an empty file
    short = tmp_path / "short.csv"
    short.write_text("firmware_id,window_index,partial,a,b,label,attack_kind\n"
                     "f,0,0,1,2,benign,\n"
                     "f,1,0,3\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for data in (short, empty):
        assert run_cli("rank", "--data", str(data),
                       "--out", str(tmp_path / "r.json")) == 3, data
    # a header without counter columns, which no tree can split on
    bare = tmp_path / "bare.csv"
    bare.write_text("firmware_id,window_index,partial,label,attack_kind\n"
                    + "f,0,0,benign,\ng,0,0,malicious,mppt_dos\n" * 3)
    for model in ("dt", "rf"):
        assert run_cli("train", "--model", model, "--data", str(bare),
                       "--out", str(tmp_path / "m.json")) == 3, model
    # mutate with an anchorless base listing
    flat = tmp_path / "flat.asm"
    flat.write_text("008000 a501 MOV AL,@VarA\n")
    assert run_cli("mutate", "--base", str(flat), "--attack", "mppt_dos",
                   "--out", str(tmp_path / "m.asm")) == 3
    # scenario file that is not valid JSON
    bad_json = tmp_path / "scenario.json"
    bad_json.write_text("{not json")
    assert run_cli("simulate", "--scenario-file", str(bad_json),
                   "--out", str(tmp_path / "s.csv")) == 3


@pytest.mark.parametrize("content", [
    b'{"categories":{"MOV":5}}',
    b'{"categories":{"MOV":null}}',
    b'{"categories":["MOV"]}',
    b'null',
    b'{"name":"x"}',
    b'{"name":7,"categories":{}}',
    b'{"categories":{"":"load"}}',
    b'{"categories":{"MOV AL":"load"}}',
    b'{"categories":{"MOV":"mystery"}}',
    b'{not json',
    b'\xff{"categories":{}}',
    b'[' * 100000,
], ids=["int_category", "null_category", "list_categories", "null",
        "no_categories", "int_name", "empty_mnemonic", "spaced_mnemonic",
        "unknown_category", "not_json", "not_utf8", "deep_nesting"])
def test_malformed_map_exits_3_naming_file(tmp_path, capsys, base_asm,
                                           content):
    path = tmp_path / "map.json"
    path.write_bytes(content)
    assert run_cli("extract", "--map", str(path), "--label", "benign",
                   "--out", str(tmp_path / "x.csv"), str(base_asm)) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_listing_not_utf8_exits_3_naming_file(tmp_path, capsys):
    path = tmp_path / "fw.asm"
    path.write_bytes(b"008000 a501 MOV AL,@VarA\n\xff\n")
    assert run_cli("extract", "--label", "benign",
                   "--out", str(tmp_path / "x.csv"), str(path)) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err


def test_extract_reports_skipped_lines(tmp_path, capsys):
    listing = tmp_path / "fw.asm"
    listing.write_text("; banner\n.text\nmain:\n\n008000 a501 MOV AL,@A\n"
                       "008001 a502 .word 0x1\nnot code\n")
    twice = [str(listing), str(listing)]
    out = tmp_path / "x.csv"
    assert run_cli("extract", "--label", "benign", "--out", str(out),
                   *twice) == 0
    assert capsys.readouterr().out == (
        f"wrote {out} (2 windows from 2 files; skipped 12 lines: 2 blank, "
        f"2 comment, 2 label, 4 directive, 2 unrecognized)\n")


_LISTING_LINES = st.sampled_from([
    b"008000 a501 MOV AL,@VarA", b"8001 ffff add AL,#1 ; c", b"main:",
    b"  .sect \".text\"", b"8002 0000 .word 0x1", b"; comment", b"",
    b"\xa0", b"\xc2\xa0", b"\xff\xfe", b"\x00", b"8003 a5\tB x\x85y",
    b"garbage", b"\r"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)
_MAP_DOC = st.one_of(
    st.none(),
    st.binary(max_size=40),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.dictionaries(st.sampled_from(["MOV", "mov", "B", "", " ", "A;"])
                    | st.text(max_size=4),
                    st.sampled_from(["load", "branch", "x"]) | _JSON,
                    max_size=4).map(
        lambda cats: json.dumps({"categories": cats}).encode()))


@settings(max_examples=60, deadline=None)
@given(listing=st.one_of(
           st.binary(max_size=200),
           st.lists(_LISTING_LINES | st.binary(max_size=12),
                    max_size=20).map(b"\n".join)),
       map_doc=_MAP_DOC, window=st.integers(-1, 60))
def test_extract_fuzz_never_escapes(listing, map_doc, window):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "fw.asm").write_bytes(listing)
        argv = ["extract", "--label", "benign", "--window", str(window),
                "--out", str(root / "x.csv"), str(root / "fw.asm")]
        if map_doc is not None:
            (root / "map.json").write_bytes(map_doc)
            argv += ["--map", str(root / "map.json")]
        assert cli.main(argv) in (0, 2, 3, 4)


def _input_argv(command, path, out_dir, base_asm, corpus_csv):
    """Arguments under which command reads path as its JSON or CSV
    input."""
    out = str(out_dir / "out")
    return {"extract": ["extract", "--map", str(path), "--label", "benign",
                        "--out", out, str(base_asm)],
            "mutate": ["mutate", "--base", str(base_asm), "--attack",
                       "mppt_dos", "--template", str(path), "--out", out],
            "simulate": ["simulate", "--scenario-file", str(path),
                         "--out", out],
            "eval": ["eval", "--model", str(path), "--data",
                     str(corpus_csv), "--out", out],
            "train": ["train", "--model", "dt", "--data", str(path),
                      "--out", out]}[command]


_TEMPLATE = default_template(AttackKind.MPPT_DOS).to_dict()


@pytest.mark.parametrize("command,content", [
    ("mutate", b"[" * 100000),
    ("simulate", b"[" * 100000),
    ("eval", b"[" * 100000),
    ("eval", b"[1]"),
    ("mutate", json.dumps({**_TEMPLATE, "attack": 5}).encode()),
    ("mutate", json.dumps({**_TEMPLATE, "payload": [5]}).encode()),
    ("mutate", json.dumps({**_TEMPLATE, "payload": "ADD AL"}).encode()),
    ("mutate", json.dumps({**_TEMPLATE, "period_ticks": 1.5}).encode()),
    ("train", b"firmware_id,window_index,partial,a,label,attack_kind\n"
              b"f,0,0,99999999999999999999,benign,\n"),
    ("train", b"firmware_id,window_index,partial,a,label,attack_kind\n"
              b"f,0,0," + b"1" * 200000 + b",benign,\n"),
], ids=["template_deep_nesting", "scenario_deep_nesting",
        "model_deep_nesting", "model_list", "template_int_attack",
        "template_int_payload_line", "template_string_payload",
        "template_float_period", "dataset_count_overflow",
        "dataset_field_over_csv_limit"])
def test_malformed_input_exits_3_naming_file(tmp_path, capsys, base_asm,
                                             corpus_csv, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert run_cli(*_input_argv(command, path, tmp_path, base_asm,
                                corpus_csv)) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


# The label each command's JSON input flag names in its errors.
_JSON_LABELS = {"extract": "category map", "mutate": "template",
                "simulate": "scenario", "eval": "model"}


@pytest.mark.parametrize("command", sorted(_JSON_LABELS))
@pytest.mark.parametrize("content", [None, b"\xff{}", b"[" * 100000, b"[]"],
                         ids=["missing", "not_utf8", "deep_nesting",
                              "list"])
def test_json_inputs_exit_3_naming_label_and_file(tmp_path, capsys,
                                                  base_asm, corpus_csv,
                                                  command, content):
    # every JSON input flag reads through one reader, so each has one
    # contract: exit 3 with a message naming the flag's label and the file
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    assert run_cli(*_input_argv(command, path, tmp_path, base_asm,
                                corpus_csv)) == 3
    err = capsys.readouterr().err
    assert _JSON_LABELS[command] in err and str(path) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def dt_model_doc(tmp_path_factory, corpus_csv):
    path = tmp_path_factory.mktemp("model") / "dt.json"
    assert run_cli("train", "--model", "dt", "--data", str(corpus_csv),
                   "--out", str(path)) == 0
    return json.loads(path.read_text())


def _edited(doc, keys):
    """JSON bytes of doc with up to three of keys, or new keys, set to
    arbitrary JSON values."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=4),
                           _JSON | st.floats(), max_size=3).map(
        lambda edits: json.dumps({**doc, **edits}).encode())


# duration_s and mppt_dt_s stay fixed so that no drawn scenario runs long;
# their bounds have their own tests below.
_SHORT_SCENARIO = {**mgsim.named_scenario("input_sine").to_dict(),
                   "duration_s": 0.2}
_CSV_HEADER = "firmware_id,window_index,partial,a,b,label,attack_kind"
_CSV_CELL = st.sampled_from(["0", "1", "-2", "99999999999999999999", "1.5",
                             "benign", "malicious", "mppt_dos", ""]) \
    | st.text(max_size=3)


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["mutate", "simulate", "eval", "train"]),
       data=st.data())
def test_input_files_fuzz_never_escape(base_asm, corpus_csv, dt_model_doc,
                                       command, data):
    structured = {
        "mutate": _edited(_TEMPLATE, sorted(_TEMPLATE)),
        "simulate": _edited(_SHORT_SCENARIO, sorted(
            set(_SHORT_SCENARIO) - {"duration_s", "mppt_dt_s"})),
        "eval": _edited(dt_model_doc, sorted(dt_model_doc)),
        "train": st.lists(st.lists(_CSV_CELL, min_size=6, max_size=8),
                          max_size=6).map(lambda rows: "\n".join(
            [_CSV_HEADER] + [",".join(r) for r in rows]).encode()),
    }[command]
    content = data.draw(st.binary(max_size=200)
                        | _JSON.map(lambda doc: json.dumps(doc).encode())
                        | structured)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "input").write_bytes(content)
        argv = _input_argv(command, root / "input", root, base_asm,
                           corpus_csv)
        assert cli.main(argv) in (0, 2, 3, 4)


def test_oversized_scenario_rejected_before_running(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_scenario reached")

    monkeypatch.setattr(mgsim, "run_scenario", never)
    # too many grid steps, then too many tracker updates (6000 x 10^4)
    for change in ({"duration_s": 1e12}, {"mppt_dt_s": 1e-6}):
        spec = {**mgsim.named_scenario("nominal").to_dict(), **change}
        sc_file = tmp_path / "huge.json"
        sc_file.write_text(json.dumps(spec))
        assert run_cli("simulate", "--scenario-file", str(sc_file),
                       "--out", str(tmp_path / "s.csv")) == 3, change
        assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("change", [
    {"duration_s": 0.004},                       # under half a grid step
    {"irradiance": "sunny"},
    {"irradiance": []},
    {"s_base_kw": 0.0},
    {"damping": -0.5},
    {"diesel_tau_s": 0.0},
    {"load_schedule": [[0.0, 500.0], [1.0, -10.0]]},
    {"k_f": float("nan")},
    {"irradiance": {"kind": "constant", "value": float("nan")}},
    {"delta_i_a": -2.185},
    {"ess_p_max_kw": -50.0},
    {"ess_initial_kwh": 600.0},                  # capacity is 100 kWh
    {"load_schedule": None},                     # None drops the key
    {"i_ref0_a": float("nan")},
    {"diesel_initial_kw": float("nan")},
    {"f_nominal_hz": float("nan")},
    {"pv": {"v_oc_v": 800.0, "i_sc_a": 437.0, "knee": float("nan")}},
    {"attack_schedule": [[float("nan"), 1.0, {"kind": "mppt_off"}]]},
    {"attack_schedule": [[0.5, float("nan"), {"kind": "mppt_off"}]]},
    {"attack_schedule": [[0.0, 1.0, {"kind": "sensor_perturb",
                                     "amplitude": float("nan"),
                                     "frequency_hz": 5.0}]]},
    {"attack_schedule": [[0.0, 1.0, {"kind": "sensor_perturb",
                                     "amplitude": 0.1,
                                     "frequency_hz": float("nan")}]]},
    {"load_schedule": [[float("nan"), 500.0]]},
    {"load_schedule": [[0.0, float("inf")]]},
    {"ess_capacity_kwh": float("inf"), "ess_initial_kwh": float("inf")},
    {"pv": {"v_oc_v": float("inf"), "i_sc_a": 437.0, "knee": 10.0}},
    {"islanding_time_s": 10.0},                  # the run starts islanded
    {"irradiance": {"kind": "trapezoid"}},       # no breakpoints
    {"irradiance": {"kind": "sunrise", "value": 1.0}},
    {"attack_schedule": [[0.0, float("inf"), {"kind": "mppt_off"}]]},
    {"attack_schedule": [[0.0, 1.0, {"kind": "mppt_off",
                                     "amplitude": float("inf")}]]},
    # JSON numbers must be numbers: no bools, no numeric strings
    {"damping": True},
    {"name": 5},
    {"load_schedule": [[0.0, "500"]]},
    {"load_schedule": [[0.0, True]]},
    {"attack_schedule": [["0", "1", {"kind": "sensor_perturb",
                                     "amplitude": "0.1",
                                     "frequency_hz": "5"}]]},
    {"attack_schedule": [["0", 1.0, {"kind": "mppt_off"}]]},
    {"attack_schedule": [[0.0, 1.0, {"kind": "sensor_perturb",
                                     "amplitude": "0.1",
                                     "frequency_hz": 5.0}]]},
    {"attack_schedule": [[0.0, 1.0, {"kind": "sensor_perturb",
                                     "amplitude": 0.1,
                                     "frequency_hz": "5"}]]},
    {"irradiance": {"kind": "constant", "value": True}},
    {"pv": {"v_oc_v": 800.0, "i_sc_a": 437.0, "knee": 10.0,
            "p_rated_kw": True}},
])
def test_invalid_scenario_exits_3(tmp_path, capsys, change):
    spec = {**mgsim.named_scenario("nominal").to_dict(), "duration_s": 2.0,
            **change}
    spec = {k: v for k, v in spec.items() if v is not None}
    sc_file = tmp_path / "bad.json"
    sc_file.write_text(json.dumps(spec))
    assert run_cli("simulate", "--scenario-file", str(sc_file),
                   "--out", str(tmp_path / "s.csv")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the message names the file and the offending key in words, not as a
    # bare KeyError
    key = next(iter(change))
    assert str(sc_file) in err and key in err and f"'{key}'" not in err
    assert not (tmp_path / "s.csv").exists()


def _fake_bundle(root):
    """A cheap stand-in for a reproduce bundle: every file one line, each
    CSV a header plus the fewest rows a complete bundle may hold."""
    rows = {"dataset.csv": 10, "ablation.csv": 45,
            **{name: 100 for name in cli.BUNDLE_SIMS}}
    root.mkdir()
    for name in cli.BUNDLE_FILES:
        (root / name).write_text("header\n" + "row\n" * rows.get(name, 0))
    return root


@pytest.mark.parametrize("name,text", [
    ("ranking.json", None),                      # missing file
    ("notes.txt", "extra\n"),                    # extra file
    ("summary.md", ""),                          # empty file
    ("ablation.csv", "header\n" + "row\n" * 44),
    ("dataset.csv", "header\n" + "row\n" * 9),
    ("sim_mppt_dos.csv", "header\n" + "row\n" * 99),
])
def test_validate_bundle_rejects_incomplete(tmp_path, name, text):
    bundle = _fake_bundle(tmp_path / "bundle")
    cli.validate_bundle(bundle)
    if text is None:
        (bundle / name).unlink()
    else:
        (bundle / name).write_text(text)
    with pytest.raises(DataError):
        cli.validate_bundle(bundle)


def test_runtime_needs_only_numpy(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    # importing the CLI and validating a bundle load no package outside
    # the standard library except numpy
    bundle = _fake_bundle(tmp_path / "bundle")
    code = ("import sys\n"
            "start = set(sys.modules)\n"
            "from hpc_sentinel import cli\n"
            "cli.validate_bundle(sys.argv[1])\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - start}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(bundle)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['hpc_sentinel', 'numpy']"


def test_reproduce_checks_payloads_against_map(tmp_path):
    # the mppt_dos payload uses CMPB; a map without it must stop the run
    shipped = resources.files("hpc_sentinel.data") / "c28x_categories.json"
    cmap = json.loads(shipped.read_text(encoding="utf-8"))
    del cmap["categories"]["CMPB"]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(cmap))
    assert run_cli("reproduce", "--map", str(path),
                   "--out", str(tmp_path / "bundle")) == 3


def test_eval_rejects_malformed_tree_exit_3(tmp_path, capsys, corpus_csv):
    model = tmp_path / "dt.json"
    assert run_cli("train", "--model", "dt", "--data", str(corpus_csv),
                   "--seed", "9", "--out", str(model)) == 0
    good = json.loads(model.read_text())
    inner = next(i for i, f in enumerate(good["feature"]) if f >= 0)
    n = len(good["feature"])
    bad_child = json.loads(model.read_text())
    bad_child["right"][inner] = n  # one past the last node
    bad_counts = json.loads(model.read_text())
    bad_counts["counts"].pop()
    cycle = json.loads(model.read_text())
    cycle["left"][inner] = inner
    # numpy would truncate a float and parse a numeric string
    float_threshold = json.loads(model.read_text())
    float_threshold["threshold"][inner] = 2.7
    string_threshold = json.loads(model.read_text())
    string_threshold["threshold"][inner] = "3"
    for i, obj in enumerate((bad_child, bad_counts, cycle, float_threshold,
                             string_threshold)):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        assert run_cli("eval", "--model", str(path), "--data",
                       str(corpus_csv),
                       "--out", str(tmp_path / "r.json")) == 3, i
    # a forest with a bad tree or none is refused on load, naming the file,
    # and so is a tree that names one counter more than the forest and
    # tests it: prediction reads the forest's columns
    wide = json.loads(model.read_text())
    wide["feature_names"].append("extra")
    wide["feature"][inner] = len(good["feature_names"])
    forest = tmp_path / "rf.json"
    for trees in ([good, bad_child], [], [wide]):
        forest.write_text(json.dumps({"kind": "rf", "params": {},
                                      "feature_names": good["feature_names"],
                                      "trees": trees}))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(forest), "--data",
                       str(corpus_csv),
                       "--out", str(tmp_path / "r.json")) == 3, trees
        err = capsys.readouterr().err
        assert f"model {forest}: " in err and "Traceback" not in err


def test_eval_rejects_malformed_network_exit_3(tmp_path, capsys,
                                               corpus_csv):
    # numpy would broadcast a short mean, divide by a zero std and carry
    # a NaN to the output; each file is refused on load, naming it, with
    # no warning
    model = tmp_path / "nn.json"
    assert run_cli("train", "--model", "nn", "--data", str(corpus_csv),
                   "--hidden", "4", "--epochs", "40",
                   "--out", str(model)) == 0
    good = json.loads(model.read_text())
    n = len(good["feature_names"])
    cases = {
        "short_mean": {"mean": good["mean"][:1]},
        "zero_std": {"std": [0.0] * n},
        "nan_mean": {"mean": [math.nan] * n},
        "nan_w2": {"w2": [math.nan] * len(good["w2"])},
        "short_w1": {"w1": good["w1"][1:]},
        "flat_w1": {"w1": good["w2"]},
        "long_b1": {"b1": good["b1"] + [0.0]},
        "short_w2": {"w2": good["w2"][1:]},
        "string_w2": {"w2": [str(w) for w in good["w2"]]},
        "bool_b2": {"b2": True},
    }
    capsys.readouterr()
    for name, change in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**good, **change}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("eval", "--model", str(path), "--data",
                           str(corpus_csv),
                           "--out", str(tmp_path / "r.json")) == 3, name
        err = capsys.readouterr().err
        assert f"model {path}: " in err and "Traceback" not in err, name
        assert "Warning" not in err and caught == [], name


def test_eval_report_is_strict_json(tmp_path, corpus_csv):
    # a one-leaf benign tree predicts no window malicious, so precision is
    # undefined; the report writes it as null, not as the token NaN
    names = hpc.read_dataset_csv(corpus_csv).feature_names
    model = tmp_path / "leaf.json"
    model.write_text(json.dumps({
        "kind": "dt", "params": {}, "feature_names": list(names),
        "feature": [-1], "threshold": [0], "left": [-1], "right": [-1],
        "counts": [[1, 0]]}))
    out = tmp_path / "r.json"
    assert run_cli("eval", "--model", str(model), "--data", str(corpus_csv),
                   "--out", str(out)) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    metrics = json.loads(out.read_text(), parse_constant=reject)["metrics"]
    assert metrics["precision"] is None and not metrics["precision_defined"]
    assert metrics["recall"] == 0.0 and metrics["recall_defined"]


def test_numeric_divergence_exits_4(tmp_path, corpus_csv):
    assert run_cli("train", "--model", "nn", "--data", str(corpus_csv),
                   "--lr", "1e12", "--epochs", "60",
                   "--out", str(tmp_path / "nn.json")) == 4


def test_tracer_wraps_every_hook(tmp_path, corpus_csv):
    # the benchmark's tracer looks its hooks up by name before the command
    # runs, so renaming a traced function fails here
    def traced(*argv):
        spans = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "tracer.py"),
             str(spans), "--", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return {span[0]: span[4]
                for span in json.loads(spans.read_text())["spans"]}

    spans = traced("rank", "--data", str(corpus_csv),
                   "--out", str(tmp_path / "rank.json"))
    assert "hpc.matrix" in spans

    # the benchmark's hpc.windows is len() of what extract_windows returns
    listing = tmp_path / "fw.asm"
    listing.write_text("008000 a501 MOV AL,@VarA\n" * 120)
    spans = traced("extract", "--label", "benign", str(listing),
                   "--out", str(tmp_path / "x.csv"))
    assert spans["hpc.extract"] == {"windows": 3}
    assert "kernels.window_counts" in spans and "asm.parse" in spans

    # the benchmark's mgsim.steps is len() of what run_scenario returns
    spec = {**mgsim.named_scenario("nominal").to_dict(), "duration_s": 1.0}
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(spec))
    spans = traced("simulate", "--scenario-file", str(sc_file),
                   "--out", str(tmp_path / "sim.csv"))
    assert spans["mgsim.run"] == {"steps": 100}
    assert spans["kernels.simulate_core"] == {"steps": 100}
    assert "mgsim.csv_write" in spans and "kernels.simulate_core" in spans

    # train looks its trainer up when it runs, so the tracer's wrapper
    # sees the forest
    spans = traced("train", "--model", "rf", "--trees", "3",
                   "--data", str(corpus_csv),
                   "--out", str(tmp_path / "rf.json"))
    assert spans["ml.train_rf"]["trees"] == 3
    assert "ml.split" in spans and "ml.evaluate" in spans


def test_reproduce_smoke(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("reproduce", "--seed", "7", "--out", str(out)) == 0
    files = {p.name for p in out.iterdir() if p.is_file()}
    assert len(files) == 20
    assert "summary.md" in files and "dataset.csv" in files


def test_split_label_follows_fraction():
    assert study._split_label(0.7) == "70/30"
    assert study._split_label(0.8) == "80/20"


def test_reproduce_refuses_stray_files(tmp_path, capsys):
    # checked before the mutate stage, so the run writes nothing
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "notes.txt").write_text("mine\n")
    assert run_cli("reproduce", "--out", str(bundle)) == 3
    captured = capsys.readouterr()
    assert "['notes.txt']" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert [p.name for p in bundle.iterdir()] == ["notes.txt"]


def test_reproduce_reruns_into_complete_bundle(tmp_path, dt_only):
    # report's plots/ directory is not a stray file
    bundle = tmp_path / "bundle"
    assert run_cli("reproduce", "--out", str(bundle)) == 0
    assert run_cli("report", "--bundle", str(bundle)) == 0
    first = {p.name: p.read_bytes() for p in bundle.iterdir() if p.is_file()}
    assert run_cli("reproduce", "--out", str(bundle)) == 0
    assert {p.name: p.read_bytes() for p in bundle.iterdir()
            if p.is_file()} == first
    assert (bundle / "plots" / "nominal_power.svg").exists()


# --- the sweep worker of reproduce ---------------------------------------------

@pytest.fixture
def dt_only(monkeypatch):
    """Every model of a reproduce run is a decision tree, which keeps the
    parent's train and rank and the worker's sweep well under a second.
    The forests and networks call ml.train_dt when they run, so a hook on
    it sees every fit."""
    monkeypatch.setattr(ml, "train_rf", lambda train, seed=0, **hp:
                        ml.train_dt(train))
    monkeypatch.setattr(ml, "train_nn_stack", lambda trains, seeds, **hp:
                        [ml.train_dt(train) for train in trains])


def _raise(error):
    def run(*args, **kwargs):
        raise error
    return run


@pytest.mark.parametrize("fail,code,words", [
    (_raise(DataError("no cell")), 3, "no cell"),
    (_raise(NonFiniteLoss(5, float("inf"))), 4, "epoch 5"),
    (_raise(NonFiniteLoss(7, float("nan"))), 4, "epoch 7"),
    (lambda *args, **kwargs: os._exit(9), 3,
     "worker process ended with exit status 9"),
], ids=["ablate_data_error", "ablate_non_finite_loss", "non_finite_loss",
        "exit_9"])
def test_sweep_failure_in_worker(tmp_path, capsys, monkeypatch, dt_only,
                                 fail, code, words):
    # the worker runs the sweep, and this process the simulations; the
    # worker is forked from this process, so it runs the patched sweep, and
    # its exceptions cannot be unpickled and travel as text
    monkeypatch.setattr(pca, "run_ablation", fail)
    assert run_cli("reproduce", "--out", str(tmp_path / "bundle")) == code
    err = capsys.readouterr().err
    assert "error: stage ablate: " in err and words in err
    assert "Traceback" not in err


def test_reproduce_forks_before_blas(tmp_path, monkeypatch, dt_only):
    # ml and pca make this process's BLAS calls; the worker must be forked
    # before the first of them
    calls = []
    fork, fit, rank = os.fork, ml.train_dt, pca.rank_features

    def recording_fork():
        pid = fork()
        if pid:
            calls.append("fork")
        return pid

    def recording(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(ml, "train_dt", recording("fit", fit))
    monkeypatch.setattr(pca, "rank_features", recording("rank", rank))
    assert run_cli("reproduce", "--out", str(tmp_path / "bundle")) == 0
    assert calls.count("fork") == 1 and calls[0] == "fork"
    assert "fit" in calls and "rank" in calls


def _recording_fork(monkeypatch, calls):
    """Make os.fork append the worker's pid to calls in the parent."""
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)


def test_reproduce_forks_after_extract(tmp_path, monkeypatch, dt_only):
    # the worker inherits the extracted dataset, and this process's first
    # BLAS call comes after the one fork
    calls = []
    _recording_fork(monkeypatch, calls)

    def recording(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    for owner, name in ((hpc, "emit_dataset"), (ml, "train_dt"),
                        (pca, "rank_features")):
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    assert run_cli("reproduce", "--out", str(tmp_path / "bundle")) == 0
    forks = [i for i, call in enumerate(calls) if isinstance(call, int)]
    assert len(forks) == 1 and calls[:forks[0]] == ["emit_dataset"]
    assert calls[forks[0] + 1] in ("train_dt", "rank_features")


def test_reproduce_prints_each_stage_once(tmp_path, capfd, dt_only):
    # read from the file descriptor, so a line the worker wrote would show
    bundle = tmp_path / "bundle"
    assert run_cli("reproduce", "--out", str(bundle)) == 0
    stages = ("mutate", "extract", "train", "rank", "simulate", "ablate",
              "summary")
    assert capfd.readouterr().out.splitlines() == [
        f"[reproduce] {stage}" for stage in stages] + [
        f"bundle complete: {bundle} (20 files)"]


def _failure_kills_worker(tmp_path, monkeypatch, owner, name, error):
    """reproduce with owner.name raising error in this process while the
    worker's sweep waits: it exits 3, and its worker is killed and reaped
    before it writes a file."""
    pids = []
    _recording_fork(monkeypatch, pids)
    release, late = tmp_path / "release", tmp_path / "late"

    def held_sweep(ds, **kwargs):
        # waits for the test, so a worker that outlived reproduce would
        # write its file after the release
        deadline = time.monotonic() + 10.0
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        late.write_text("late\n")

    monkeypatch.setattr(pca, "run_ablation", held_sweep)
    monkeypatch.setattr(owner, name, _raise(error))
    assert run_cli("reproduce", "--out", str(tmp_path / "bundle")) == 3
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):   # killed and reaped
        os.waitpid(pids[0], os.WNOHANG)
    release.touch()
    time.sleep(0.3)
    assert not late.exists()


def test_failed_stage_kills_worker(tmp_path, monkeypatch, dt_only):
    _failure_kills_worker(tmp_path, monkeypatch, mgsim, "run_scenario",
                          DataError("no scenario"))


def test_mutate_error_forks_no_worker(tmp_path, capsys, monkeypatch,
                                      dt_only):
    pids = []
    _recording_fork(monkeypatch, pids)
    monkeypatch.setattr(mutate, "build_corpus",
                        _raise(AnchorNotFound("isr_block")))
    bundle = tmp_path / "bundle"
    assert run_cli("reproduce", "--out", str(bundle)) == 3
    assert pids == [] and not list(bundle.glob("sim_*.csv"))
    err = capsys.readouterr().err
    assert "stage mutate: anchor label 'isr_block'" in err
    assert "Traceback" not in err


def test_large_dataset_reaches_busy_worker(tmp_path, monkeypatch, dt_only):
    # the worker inherits a large dataset (--window 7) through the fork,
    # and its sweep waits here until this process's first fit, so a parent
    # that waited on the worker before training would never get there
    release = tmp_path / "release"
    run_ablation, fit = pca.run_ablation, ml.train_dt

    def held_sweep(ds, **kwargs):
        deadline = time.monotonic() + 20.0
        while not release.exists():
            if time.monotonic() > deadline:
                raise DataError("the parent never started training")
            time.sleep(0.01)
        return run_ablation(ds, **kwargs)

    def releasing_fit(*args, **kwargs):
        release.touch()
        return fit(*args, **kwargs)

    monkeypatch.setattr(pca, "run_ablation", held_sweep)
    monkeypatch.setattr(ml, "train_dt", releasing_fit)
    bundle = tmp_path / "bundle"
    assert run_cli("reproduce", "--window", "7", "--out", str(bundle)) == 0
    cli.validate_bundle(bundle)


@pytest.mark.parametrize("stage,patch,code,words", [
    ("rank", (pca, "rank_features", DegenerateCovariance("flat")), 3,
     "flat"),
    ("simulate", (mgsim, "run_scenario", NonFiniteLoss(5, float("nan"))), 4,
     "epoch 5"),
    ("train", (ml, "train_eval_cells", DataError("no cell")), 3, "no cell"),
], ids=["rank", "simulate", "train"])
def test_parent_stage_errors_name_stage(tmp_path, capsys, monkeypatch,
                                        dt_only, stage, patch, code, words):
    owner, name, error = patch
    parent, real = os.getpid(), getattr(owner, name)

    def failing_in_parent(*args, **kwargs):  # the worker's share runs
        if os.getpid() == parent:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing_in_parent)
    assert run_cli("reproduce", "--out", str(tmp_path / "bundle")) == code
    err = capsys.readouterr().err
    assert f"error: stage {stage}: " in err and words in err
    assert "Traceback" not in err


def test_single_class_train_split_names_stage(tmp_path, capsys):
    # a window longer than every listing leaves one window per listing,
    # the stratified split trains on malicious windows only, and
    # balancing rejects that
    assert run_cli("reproduce", "--seed", "3", "--window", "100000",
                   "--out", str(tmp_path / "bundle")) == 3
    err = capsys.readouterr().err
    assert ("error: stage train: balancing needs both classes present"
            in err)
    assert "Traceback" not in err


def test_reproduce_ablation_follows_split(tmp_path, capsys, monkeypatch,
                                         dt_only):
    # the sweep runs in the worker, so it reports its fraction through the
    # error text
    def recording(ds, **kwargs):
        raise DataError(f"train_fraction {kwargs.get('train_fraction')}")

    monkeypatch.setattr(pca, "run_ablation", recording)
    assert run_cli("reproduce", "--split", "0.8",
                   "--out", str(tmp_path / "bundle")) == 3
    assert "error: stage ablate: train_fraction 0.8\n" in \
        capsys.readouterr().err


@pytest.mark.parametrize("error", [SystemExit, KeyboardInterrupt])
def test_worker_never_returns_into_caller(tmp_path, error):
    parent = os.getpid()
    try:
        with study._Forked(_raise(error)) as worker:
            with pytest.raises(DataError, match="exit status 1"):
                worker.join()
    finally:
        if os.getpid() != parent:   # the worker came back here
            (tmp_path / "returned").touch()
            os._exit(0)
    assert not (tmp_path / "returned").exists()


def test_text_before_fork_printed_once():
    # a pipe makes stdout block-buffered, so text the parent printed but
    # did not flush would be written again by a worker that flushes
    code = ("import sys\n"
            "from hpc_sentinel import study\n"
            "def work():\n"
            "    print('worker')\n"
            "    sys.stdout.flush()\n"
            "print('before fork')\n"
            "with study._Forked(work) as worker:\n"
            "    worker.join()\n"
            "print('after join')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before fork", "worker", "after join"]
