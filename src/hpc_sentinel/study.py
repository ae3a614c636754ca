"""The study that reproduce runs, and report's SVG charts of a bundle.

run mutates and extracts, then makes one worker process with os.fork,
which inherits the dataset. The worker runs the whole class-elimination
sweep, while the parent trains, ranks and runs the five simulations,
then waits for the sweep; reproduce uses up to two cores and needs a
POSIX os.fork. An error names the stage that raised it, the sweep's
included. render_summary renders summary.md from run's Study record.
"""

import contextlib
import csv
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import hpc
from .asm import parse_listing
from .errors import DataError, NumericError, SentinelError, read_text
from .names import BUNDLE_ASM, BUNDLE_SIMS, SCENARIO_NAMES, AttackKind

# --- report (SVG charts from bundle CSVs) --------------------------------------

# The simulate CSV columns that report charts.
CHART_COLUMNS = ("time_s", "pv_kw", "diesel_kw", "ess_kw", "load_kw",
                 "freq_hz")


def _read_sim_csv(path):
    """The CHART_COLUMNS of a simulate CSV as float lists; DataError naming
    the file if it is not UTF-8 CSV, has no data rows, has a row of the
    wrong width, lacks a chart column, or has a chart value that is not a
    finite number (naming the line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as e:
            raise DataError(f"report: {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise DataError(f"report: {path} is not UTF-8 text: {e}") from e
    if len(rows) < 2:
        raise DataError(f"report: {path} has no data rows")
    header = rows[0]
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise DataError(f"report: {path} line {line} has {len(row)} "
                            f"fields, the header {len(header)}")
    missing = [name for name in CHART_COLUMNS if name not in header]
    if missing:
        raise DataError(f"report: {path} has no {missing[0]!r} column")
    at = [header.index(name) for name in CHART_COLUMNS]
    values = []
    for line, row in enumerate(rows[1:], 2):
        try:
            floats = [float(row[i]) for i in at]
        except ValueError as e:
            raise DataError(f"report: {path} line {line}: {e}") from e
        for name, i, value in zip(CHART_COLUMNS, at, floats):
            if not math.isfinite(value):
                raise DataError(f"report: {path} line {line}: {name} is "
                                f"{row[i]!r}, not a finite number")
        values.append(floats)
    return dict(zip(CHART_COLUMNS, map(list, zip(*values))))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _svg_chart(t, series, title, ylabel, out_path, width=860, height=360):
    """Minimal SVG polyline chart; downsamples long traces."""
    pad_l, pad_r, pad_t, pad_b = 56, 16, 28, 36
    iw, ih = width - pad_l - pad_r, height - pad_t - pad_b
    step = max(1, len(t) // 600)
    t = t[::step]
    series = {k: v[::step] for k, v in series.items()}
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    if hi == lo:
        hi = lo + 1.0
    sx = iw / (t[-1] - t[0]) if t[-1] > t[0] else 1.0
    sy = ih / (hi - lo)

    def px(x):
        return pad_l + (x - t[0]) * sx

    def py(y):
        return pad_t + ih - (y - lo) * sy

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">'
             f'{title.translate(_XML_TEXT)}</text>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = lo + frac * (hi - lo)
        yp = py(yv)
        parts.append(f'<line x1="{pad_l}" y1="{yp:.1f}" '
                     f'x2="{width - pad_r}" y2="{yp:.1f}" '
                     f'stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{yp + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{yv:.2f}</text>')
        xv = t[0] + frac * (t[-1] - t[0])
        xp = px(xv)
        parts.append(f'<text x="{xp:.1f}" y="{height - 14}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{xv:.0f}</text>')
    for i, (name, vals) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}"
                       for x, y in zip(t, vals))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lx = pad_l + 10 + i * 150
        parts.append(f'<line x1="{lx}" y1="{height - 6}" x2="{lx + 18}" '
                     f'y2="{height - 6}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{lx + 22}" y="{height - 2}" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{name.translate(_XML_TEXT)}</text>')
    parts.append(f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {height / 2:.0f})">'
                 f'{ylabel.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def report(bundle, out) -> int:
    """Two charts per sim_*.csv of bundle into out; returns how many."""
    sims = sorted(bundle.glob("sim_*.csv"))
    if not sims:
        raise DataError(f"report: no sim_*.csv files under {bundle}")
    out.mkdir(parents=True, exist_ok=True)
    for sim in sims:
        cols = _read_sim_csv(sim)
        name = sim.stem.removeprefix("sim_")
        _svg_chart(cols["time_s"],
                   {"pv": cols["pv_kw"], "diesel": cols["diesel_kw"],
                    "ess": cols["ess_kw"], "load": cols["load_kw"]},
                   f"{name}: dispatch", "power (kW)",
                   out / f"{name}_power.svg")
        _svg_chart(cols["time_s"], {"frequency": cols["freq_hz"]},
                   f"{name}: grid frequency", "Hz",
                   out / f"{name}_freq.svg")
    return 2 * len(sims)


# --- reproduce ----------------------------------------------------------------

class Study(NamedTuple):
    """What summary.md reports of one run; a training is {kind: Metrics}."""
    seed: int
    backend: str  # _kernels.backend()
    window: int
    split: float
    components: int
    benign: int
    malicious: int
    counters: int
    unbalanced: dict
    balanced: dict
    ranked: tuple  # (counter, score) of the top `components`
    top: tuple  # the counters that top_unbalanced and top_balanced use
    top_unbalanced: dict
    top_balanced: dict
    ablation: list  # the sweep's pca.AblationRow rows
    sims: list  # (scenario, mean pv, min freq, max freq, final ess kWh)


def _metrics_table(rows) -> list:
    out = ["| model | accuracy | precision | recall | fp rate | fn rate |",
           "|---|---|---|---|---|---|"]
    for name, m in rows:
        out.append(f"| {name} | {m.accuracy:.4f} | {m.precision:.4f} "
                   f"| {m.recall:.4f} | {m.fp_rate:.4f} | {m.fn_rate:.4f} |")
    return out


def _ablation_table(rows) -> list:
    out = ["| subset | excluded | model | features | accuracy "
           "| precision | recall |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        m = r.metrics
        out.append(f"| {r.spec_name} | {''.join(r.excluded)} | {r.model} "
                   f"| {r.n_features} | {m.accuracy:.4f} "
                   f"| {m.precision:.4f} | {m.recall:.4f} |")
    return out


def _train_eval_all(ds, unbalanced_seed, balanced_seed,
                    train_fraction: float = 0.7):
    """Every model kind, unbalanced and then balanced, each on its own
    seed, through one ml.train_eval_cells call, which stacks the two
    networks when their padded rows share a shape. Returns the two
    {kind: (model, report)} dicts."""
    from . import ml
    cells = [(kind, ds, ml.derive_seed(seed, int(balanced), i), balanced)
             for balanced, seed in ((False, unbalanced_seed),
                                    (True, balanced_seed))
             for i, kind in enumerate(ml.TRAINERS)]
    results = iter(ml.train_eval_cells(cells, train_fraction))
    return ({kind: next(results) for kind in ml.TRAINERS},
            {kind: next(results) for kind in ml.TRAINERS})


def _split_label(train_fraction: float) -> str:
    """The train/test percentages of a split, "70/30" for 0.7."""
    train = round(train_fraction * 100)
    return f"{train}/{100 - train}"


class _Forked:
    """fn() run in one child process made with os.fork.

    fn takes no argument: the child inherits what it needs through the
    fork. The child pickles (None, fn's result), or fn's error as (is it a
    NumericError, message), into a pipe, and always leaves through
    os._exit, so it never returns into the caller's code. Errors travel as
    text because exceptions with their own __init__ signature do not
    unpickle. join() waits for the child and returns the result, or
    re-raises its error as NumericError or DataError, also when the child
    ended without a result; leaving the with block kills and reaps a child
    that was not joined.

    Make it before the process's first BLAS call (numpy matrix work in
    ml and pca): with some BLAS builds, a child forked after the thread
    pool has started can hang in its own first BLAS call.
    """

    def __init__(self, fn):
        import os
        import pickle
        sys.stdout.flush()  # or the child could write buffered text again
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    record = (None, fn())
                except Exception as e:
                    record = (isinstance(e, NumericError), str(e))
                with open(write_fd, "wb") as fh:
                    pickle.dump(record, fh)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")

    def __enter__(self):
        return self

    def join(self):
        import os
        import pickle
        with self._pipe:
            data = self._pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise DataError(f"worker process ended with exit status {code} "
                            f"and no result")
        numeric, value = pickle.loads(data)
        if numeric is None:
            return value
        raise (NumericError if numeric else DataError)(value)

    def __exit__(self, *exc_info):
        if self.pid is not None:
            import os
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._pipe.close()


@contextlib.contextmanager
def _stage(name):
    """Announce a reproduce stage run in this process; an error raised in
    it names the stage and keeps its exit code."""
    print(f"[reproduce] {name}")
    try:
        yield
    except NumericError as e:
        raise NumericError(f"stage {name}: {e}") from e
    except (SentinelError, OSError, ValueError) as e:
        raise DataError(f"stage {name}: {e}") from e


def run(out, *, seed, base, cmap, window, split, components) -> Study:
    """Every bundle file but summary.md into the existing directory out,
    from the listing at path base, or from one synthesized if it is None."""
    # Imported before the fork, so the worker does not import them again.
    from . import _kernels, mgsim, ml, mutate, pca  # noqa: F401

    with _stage("mutate"):
        if base:
            base = read_text(base, "mutate")
        else:
            base = mutate.synth_base_listing(seed=seed)
        corpus = mutate.build_corpus(base, seed=seed, cmap=cmap)
        ids = ["benign"] + [k.value for k in AttackKind]
        for fid, fname in zip(ids, BUNDLE_ASM):
            (out / fname).write_text(corpus[fid], encoding="utf-8")

    with _stage("extract"):
        runs = [(fid, "benign" if fid == "benign" else "malicious",
                 None if fid == "benign" else fid,
                 parse_listing(corpus[fid], cmap)) for fid in ids]
        ds = hpc.emit_dataset(runs, window, out / "dataset.csv")

    # Forked after extract, so the worker inherits ds, and before this
    # process's first BLAS call (ml and pca make them), so the worker's
    # own numpy work is safe even where numpy's BLAS starts threads in
    # this process. The worker runs the class-elimination sweep while
    # this process trains, ranks and simulates.
    with _Forked(lambda: pca.run_ablation(
            ds, seed=seed, train_fraction=split)) as worker:
        with _stage("train"):
            unbal, bal = _train_eval_all(ds, seed, seed, split)
            for name in ml.TRAINERS:
                ml.save_model(unbal[name][0], out / f"{name}_unbalanced.json")
                ml.save_model(bal[name][0], out / f"{name}_balanced.json")

        with _stage("rank"):
            ranking = pca.rank_features(ds, n_components=components)
            (out / "ranking.json").write_text(ranking.to_json(),
                                              encoding="utf-8")
            top3 = ranking.top(3)
            top_ds = ds.project(top3)
            top_unbal, top_bal = _train_eval_all(
                top_ds, ml.derive_seed(seed, 3, 0), ml.derive_seed(seed, 3, 1),
                split)

        with _stage("simulate"):
            sim_stats = []
            for name, fname in zip(SCENARIO_NAMES, BUNDLE_SIMS):
                trace = mgsim.run_scenario(mgsim.named_scenario(name),
                                           out / fname)
                sim_stats.append((name, trace.pv_kw.mean(),
                                  trace.freq_hz.min(), trace.freq_hz.max(),
                                  trace.ess_kwh[-1]))

        with _stage("ablate"):
            ablation = worker.join()
            ablation.to_csv(out / "ablation.csv")

    def metrics(group):
        return {kind: rep.metrics for kind, (_, rep) in group.items()}

    n0, n1 = ds.class_counts()
    return Study(seed, _kernels.backend(), window, split, components,
                 n0, n1, len(ds.feature_names), metrics(unbal),
                 metrics(bal), ranking.ranked[:components], top3,
                 metrics(top_unbal), metrics(top_bal), ablation.rows,
                 sim_stats)


def render_summary(s: Study) -> str:
    """The summary.md text of a study."""
    lines = [
        "# Firmware-counter detection and microgrid impact study", "",
        f"Seed {s.seed}; kernel backend `{s.backend}`.",
        f"Corpus: {len(BUNDLE_ASM)} firmware listings, "
        f"{s.benign + s.malicious} windows of {s.window} instructions "
        f"({s.benign} benign / {s.malicious} malicious), "
        f"{s.counters} counters.", "",
        f"## Detection metrics, unbalanced training "
        f"({_split_label(s.split)} split)", "",
    ]
    lines += _metrics_table(s.unbalanced.items())
    lines += ["", "## Detection metrics, balanced training", ""]
    lines += _metrics_table(s.balanced.items())
    lines += ["", "## False-positive / false-negative shares of the "
                  "test set", "",
              "| model | training | fp rate | fn rate |",
              "|---|---|---|---|"]
    for label, group in (("unbalanced", s.unbalanced),
                         ("balanced", s.balanced)):
        for k, m in group.items():
            lines.append(f"| {k} | {label} | {m.fp_rate:.4f} "
                         f"| {m.fn_rate:.4f} |")
    lines += ["", f"## Top-{s.components} counter ranking", "",
              "| rank | counter | score |", "|---|---|---|"]
    for i, (name, score) in enumerate(s.ranked, 1):
        lines.append(f"| {i} | {name} | {score:.4f} |")
    lines += ["", f"Models retrained on the top {len(s.top)} counters "
                  f"({', '.join(s.top)}), unbalanced:", ""]
    lines += _metrics_table(s.top_unbalanced.items())
    lines += ["", "Same counters, balanced:", ""]
    lines += _metrics_table(s.top_balanced.items())
    lines += ["", "## Instruction-class elimination", "",
              "### One class removed", ""]
    lines += _ablation_table(r for r in s.ablation if len(r.excluded) == 1)
    lines += ["", "### Two classes removed", ""]
    lines += _ablation_table(r for r in s.ablation if len(r.excluded) == 2)
    lines += ["", "## Simulation scenarios", "",
              "| scenario | mean pv (kW) | min freq (Hz) | max freq (Hz) "
              "| final ess (kWh) |", "|---|---|---|---|---|"]
    for name, mean_pv, fmin, fmax, e_end in s.sims:
        lines.append(f"| {name} | {mean_pv:.2f} | {fmin:.4f} "
                     f"| {fmax:.4f} | {e_end:.3f} |")
    return "\n".join(lines) + "\n"
