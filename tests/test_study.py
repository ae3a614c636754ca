"""summary.md rendered from a hand-built study record, with no run."""

from hpc_sentinel import study
from hpc_sentinel.ml import Metrics
from hpc_sentinel.pca import AblationRow


def _metrics(accuracy):
    return Metrics(accuracy=accuracy, precision=0.5, recall=0.25,
                   fp_rate=0.125, fn_rate=0.0625)


def _record():
    two = {"dt": _metrics(0.9), "nn": _metrics(0.8)}
    sweep = [AblationRow("alns", ("b",), "dt", 20, _metrics(0.75)),
             AblationRow("lns", ("a", "b"), "dt", 12, _metrics(0.7)),
             AblationRow("abn", ("l", "s"), "nn", 12, _metrics(0.6))]
    sims = [("nominal", 250.0, 59.9, 60.1, 48.3333),
            ("mppt_dos", 12.5, 59.5, 60.25, 40.0)]
    return study.Study(
        seed=5, backend="pure", window=50, split=0.8, components=2,
        benign=60, malicious=244, counters=30, unbalanced=two,
        balanced={"dt": _metrics(0.6), "nn": _metrics(0.5)},
        ranked=(("la", 0.75), ("ab", 0.5)), top=("la", "ab", "s"),
        top_unbalanced=two, top_balanced=two, ablation=sweep, sims=sims)


def test_render_summary_from_record():
    lines = study.render_summary(_record()).splitlines()
    headings = [line for line in lines if line.startswith("#")]
    assert headings == [
        "# Firmware-counter detection and microgrid impact study",
        "## Detection metrics, unbalanced training (80/20 split)",
        "## Detection metrics, balanced training",
        "## False-positive / false-negative shares of the test set",
        "## Top-2 counter ranking",
        "## Instruction-class elimination",
        "### One class removed",
        "### Two classes removed",
        "## Simulation scenarios"]
    assert ("Corpus: 5 firmware listings, 304 windows of 50 instructions "
            "(60 benign / 244 malicious), 30 counters.") in lines
    assert "Seed 5; kernel backend `pure`." in lines
    # one row of each table
    assert "| nn | 0.8000 | 0.5000 | 0.2500 | 0.1250 | 0.0625 |" in lines
    assert "| dt | balanced | 0.1250 | 0.0625 |" in lines
    assert "| 2 | ab | 0.5000 |" in lines
    assert ("Models retrained on the top 3 counters (la, ab, s), "
            "unbalanced:") in lines
    one = lines.index("### One class removed")
    both = lines.index("### Two classes removed")
    assert ("| alns | b | dt | 20 | 0.7500 | 0.5000 | 0.2500 |"
            in lines[one:both])
    assert ("| abn | ls | nn | 12 | 0.6000 | 0.5000 | 0.2500 |"
            in lines[both:])
    assert lines[-1] == "| mppt_dos | 12.50 | 59.5000 | 60.2500 | 40.000 |"
