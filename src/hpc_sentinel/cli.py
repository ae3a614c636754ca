"""Command-line front end.

Subcommands: extract, mutate, train, eval, rank, ablate, simulate,
report, and the end-to-end reproduce pipeline. Exit codes: 0 success,
2 usage error, 3 data error, 4 numeric divergence. Every subcommand is
deterministic given its inputs, flags and --seed.

Each command imports only the modules it runs, on top of asm, hpc,
_kernels, errors and names, which building the parser loads: extract
loads no other; mutate loads mutate; train and eval load ml; rank and
ablate load pca and ml; simulate loads mgsim; report loads none; and
reproduce loads them all before it forks. Every call is a fresh process,
so a module a command does not run is not compiled or executed for it.

reproduce mutates and extracts, then makes one worker process with
os.fork, which inherits the dataset. The worker runs the whole
class-elimination sweep, while the parent trains, ranks and runs the
five simulations, then waits for the sweep; reproduce uses up to two
cores and needs a POSIX os.fork. An error names the stage that raised
it, the sweep's included.
"""

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

from . import hpc
from .asm import SKIP_KINDS, CategoryMap, parse_listing
from .errors import DataError, NumericError, SentinelError
from .names import SCENARIO_NAMES, AttackKind


class UsageError(Exception):
    """Bad flag combination caught after argparse; maps to exit 2."""


def _load_map(path) -> CategoryMap:
    if path is None:
        return CategoryMap.default()
    return CategoryMap.from_json(path)


def _read_text(path, stage: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"{stage}: cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{stage}: {path} is not UTF-8 text: {e}") from e


def _read_json(path, stage: str, from_json):
    """from_json(text) of a JSON input file; a file it rejects, nesting
    too deep for the JSON parser included, raises DataError naming it."""
    text = _read_text(path, stage)
    try:
        return from_json(text)
    except (ValueError, TypeError, KeyError, OverflowError,
            RecursionError) as e:
        raise DataError(f"{stage}: {path}: {e}") from e


# --- extract ------------------------------------------------------------------

def cmd_extract(args) -> int:
    if args.label == "malicious" and not args.attack:
        raise UsageError("--label malicious requires --attack")
    if args.label == "benign" and args.attack:
        raise UsageError("--attack is only valid with --label malicious")
    cmap = _load_map(args.map)
    runs = []
    skipped = dict.fromkeys(SKIP_KINDS, 0)
    for f in args.files:
        text = _read_text(f, "extract")
        listing = parse_listing(text, cmap)
        for kind, n in listing.skipped.items():
            skipped[kind] += n
        runs.append((Path(f).stem, args.label,
                     args.attack if args.label == "malicious" else None,
                     listing))
    ds = hpc.emit_dataset(runs, args.window, args.out)
    tally = ", ".join(f"{n} {kind}" for kind, n in skipped.items())
    print(f"wrote {args.out} ({len(ds)} windows from {len(runs)} files; "
          f"skipped {sum(skipped.values())} lines: {tally})")
    return 0


# --- mutate -------------------------------------------------------------------

def cmd_mutate(args) -> int:
    from . import mutate
    base = _read_text(args.base, "mutate")
    kind = AttackKind.from_name(args.attack)
    if args.template:
        template = _read_json(args.template, "mutate",
                              mutate.InjectionTemplate.from_json)
        if template.attack is not kind:
            raise DataError(f"template is for {template.attack.value}, "
                            f"--attack says {kind.value}")
    else:
        template = mutate.default_template(kind)
    mutated = mutate.inject(base, template, args.seed, _load_map(args.map))
    Path(args.out).write_text(mutated, encoding="utf-8")
    print(f"wrote {args.out} ({kind.value}, +{len(template.payload)} "
          f"instructions)")
    return 0


# --- train / eval -------------------------------------------------------------

def cmd_train(args) -> int:
    from . import ml
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must lie in (0, 1)")
    if not (math.isfinite(args.lr) and args.lr > 0.0):
        raise UsageError("--lr must be a finite number > 0")
    ds = hpc.read_dataset_csv(args.data)
    hp = {"rf": {"n_trees": args.trees},
          "nn": {"hidden": args.hidden, "epochs": args.epochs,
                 "lr": args.lr}}.get(args.model, {})
    model, report = ml.train_eval(args.model, ds, args.seed, args.split,
                                  args.balance, **hp)
    ml.save_model(model, args.out)
    print(f"wrote {args.out} ({args.model}, held-out accuracy "
          f"{report.metrics.accuracy:.4f})")
    return 0


def cmd_eval(args) -> int:
    from . import ml
    model = ml.load_model(Path(args.model))
    ds = hpc.read_dataset_csv(args.data).project(model.feature_names)
    report = ml.evaluate(model, ds)
    Path(args.out).write_text(json.dumps(report.as_dict(), indent=2) + "\n",
                              encoding="utf-8")
    m = report.metrics
    print(f"wrote {args.out} (accuracy {m.accuracy:.4f}, "
          f"precision {m.precision:.4f}, recall {m.recall:.4f})")
    return 0


# --- rank / ablate ------------------------------------------------------------

def cmd_rank(args) -> int:
    from . import pca
    if args.components < 1:
        raise UsageError("--components must be >= 1")
    ds = hpc.read_dataset_csv(args.data)
    if args.components > len(ds.feature_names):
        raise UsageError(f"--components must lie in "
                         f"[1, {len(ds.feature_names)}]: {args.data} has "
                         f"{len(ds.feature_names)} counters")
    ranking = pca.rank_features(ds, n_components=args.components)
    Path(args.out).write_text(ranking.to_json(), encoding="utf-8")
    top = ", ".join(ranking.top(3))
    print(f"wrote {args.out} (top features: {top})")
    return 0


def cmd_ablate(args) -> int:
    from . import pca
    ds = hpc.read_dataset_csv(args.data)
    specs = [s for s in pca.all_specs() if args.exclusions == "all"
             or len(s.excluded) == int(args.exclusions)]
    report = pca.run_ablation(ds, specs=specs, seed=args.seed,
                              balanced=args.balanced)
    report.to_csv(args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


# --- simulate -----------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import mgsim
    if args.scenario_file:
        scenario = _read_json(args.scenario_file, "simulate",
                              mgsim.Scenario.from_json)
    else:
        scenario = mgsim.named_scenario(args.scenario)
    if args.pno_variant:
        scenario.pno_variant = args.pno_variant
    trace = mgsim.run_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(trace)} steps, mean pv "
          f"{trace.pv_kw.mean():.1f} kW)")
    return 0


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
             f'font-family="sans-serif" font-size="14">{title}</text>']
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
                     f'{name}</text>')
    parts.append(f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {height / 2:.0f})">'
                 f'{ylabel}</text>')
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_report(args) -> int:
    bundle = Path(args.bundle)
    sims = sorted(bundle.glob("sim_*.csv"))
    if not sims:
        raise DataError(f"report: no sim_*.csv files under {bundle}")
    out_dir = Path(args.out) if args.out else bundle / "plots"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for sim in sims:
        cols = _read_sim_csv(sim)
        name = sim.stem.removeprefix("sim_")
        _svg_chart(cols["time_s"],
                   {"pv": cols["pv_kw"], "diesel": cols["diesel_kw"],
                    "ess": cols["ess_kw"], "load": cols["load_kw"]},
                   f"{name}: dispatch", "power (kW)",
                   out_dir / f"{name}_power.svg")
        _svg_chart(cols["time_s"], {"frequency": cols["freq_hz"]},
                   f"{name}: grid frequency", "Hz",
                   out_dir / f"{name}_freq.svg")
        written += 2
    print(f"wrote {written} charts to {out_dir}")
    return 0


# --- reproduce ----------------------------------------------------------------

BUNDLE_ASM = ("benign.asm", "mppt_dos.asm", "inverter_dos.asm",
              "input_array.asm", "input_sine.asm")
BUNDLE_MODELS = ("dt_unbalanced.json", "rf_unbalanced.json",
                 "nn_unbalanced.json", "dt_balanced.json",
                 "rf_balanced.json", "nn_balanced.json")
BUNDLE_SIMS = tuple(f"sim_{n}.csv" for n in SCENARIO_NAMES)
BUNDLE_FILES = (BUNDLE_ASM + ("dataset.csv",) + BUNDLE_MODELS
                + ("ranking.json", "ablation.csv") + BUNDLE_SIMS
                + ("summary.md",))


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


def _simulate_bundle(out):
    """The five named scenarios into the bundle's sim_*.csv files; returns
    (name, mean pv, min f, max f, final kWh) per scenario."""
    from . import mgsim
    sim_stats = []
    for name, fname in zip(SCENARIO_NAMES, BUNDLE_SIMS):
        trace = mgsim.run_scenario(mgsim.named_scenario(name), out / fname)
        sim_stats.append((name, trace.pv_kw.mean(), trace.freq_hz.min(),
                          trace.freq_hz.max(), trace.ess_kwh[-1]))
    return sim_stats


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


def cmd_reproduce(args) -> int:
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must lie in (0, 1)")
    if not 1 <= args.components <= len(hpc.FEATURE_NAMES):
        raise UsageError(f"--components must lie in "
                         f"[1, {len(hpc.FEATURE_NAMES)}]")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    cmap = _load_map(args.map)
    # Imported before the fork, so that the worker does not import them
    # again.
    from . import _kernels, mgsim, ml, mutate, pca  # noqa: F401

    with _stage("mutate"):
        if args.base:
            base = _read_text(args.base, "mutate")
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
        ds = hpc.emit_dataset(runs, args.window, out / "dataset.csv")

    # Forked after extract, so the worker inherits ds, and before this
    # process's first BLAS call (ml and pca make them), so the worker's
    # own numpy work is safe even where numpy's BLAS starts threads in
    # this process. The worker runs the class-elimination sweep while
    # this process trains, ranks and simulates.
    with _Forked(lambda: pca.run_ablation(
            ds, seed=seed, train_fraction=args.split)) as worker:
        with _stage("train"):
            unbal, bal = _train_eval_all(ds, seed, seed, args.split)
            for name in ml.TRAINERS:
                ml.save_model(unbal[name][0], out / f"{name}_unbalanced.json")
                ml.save_model(bal[name][0], out / f"{name}_balanced.json")

        with _stage("rank"):
            ranking = pca.rank_features(ds, n_components=args.components)
            (out / "ranking.json").write_text(ranking.to_json(),
                                              encoding="utf-8")
            top3 = ranking.top(3)
            top_ds = ds.project(top3)
            top_unbal, top_bal = _train_eval_all(
                top_ds, ml.derive_seed(seed, 3, 0), ml.derive_seed(seed, 3, 1),
                args.split)

        with _stage("simulate"):
            sim_stats = _simulate_bundle(out)

        with _stage("ablate"):
            ablation = worker.join()
            ablation.to_csv(out / "ablation.csv")

    print("[reproduce] summary")
    n0, n1 = ds.class_counts()
    lines = [
        "# Firmware-counter detection and microgrid impact study", "",
        f"Seed {seed}; kernel backend `{_kernels.backend()}`.",
        f"Corpus: {len(BUNDLE_ASM)} firmware listings, {len(ds)} windows "
        f"of {args.window} instructions ({n0} benign / {n1} malicious), "
        f"{len(ds.feature_names)} counters.", "",
        f"## Detection metrics, unbalanced training "
        f"({_split_label(args.split)} split)", "",
    ]
    lines += _metrics_table([(k, v[1].metrics) for k, v in unbal.items()])
    lines += ["", "## Detection metrics, balanced training", ""]
    lines += _metrics_table([(k, v[1].metrics) for k, v in bal.items()])
    lines += ["", "## False-positive / false-negative shares of the "
                  "test set", "",
              "| model | training | fp rate | fn rate |",
              "|---|---|---|---|"]
    for label, group in (("unbalanced", unbal), ("balanced", bal)):
        for k, (_, rep) in group.items():
            m = rep.metrics
            lines.append(f"| {k} | {label} | {m.fp_rate:.4f} "
                         f"| {m.fn_rate:.4f} |")
    lines += ["", f"## Top-{args.components} counter ranking", "",
              "| rank | counter | score |", "|---|---|---|"]
    for i, (name, score) in enumerate(ranking.ranked[:args.components], 1):
        lines.append(f"| {i} | {name} | {score:.4f} |")
    lines += ["", f"Models retrained on the top {len(top3)} counters "
                  f"({', '.join(top3)}), unbalanced:", ""]
    lines += _metrics_table([(k, v[1].metrics)
                             for k, v in top_unbal.items()])
    lines += ["", "Same counters, balanced:", ""]
    lines += _metrics_table([(k, v[1].metrics) for k, v in top_bal.items()])
    singles = [r for r in ablation.rows if len(r.excluded) == 1]
    doubles = [r for r in ablation.rows if len(r.excluded) == 2]
    lines += ["", "## Instruction-class elimination", "",
              "### One class removed", ""]
    lines += _ablation_table(singles)
    lines += ["", "### Two classes removed", ""]
    lines += _ablation_table(doubles)
    lines += ["", "## Simulation scenarios", "",
              "| scenario | mean pv (kW) | min freq (Hz) | max freq (Hz) "
              "| final ess (kWh) |", "|---|---|---|---|---|"]
    for name, mean_pv, fmin, fmax, e_end in sim_stats:
        lines.append(f"| {name} | {mean_pv:.2f} | {fmin:.4f} "
                     f"| {fmax:.4f} | {e_end:.3f} |")
    (out / "summary.md").write_text("\n".join(lines) + "\n",
                                    encoding="utf-8")

    validate_bundle(out, seed=seed)
    print(f"bundle complete: {out} ({len(BUNDLE_FILES)} files)")
    return 0


def validate_bundle(bundle_dir, seed: int = 0) -> dict:
    """Check that a reproduce bundle is complete and return its manifest.

    The bundle must hold exactly BUNDLE_FILES, none of them empty, with
    at least 10 dataset rows, 45 ablation rows and 100 rows per
    simulation. A broken constraint raises DataError naming it.
    """
    bundle = Path(bundle_dir)

    def fail(what):
        raise DataError(f"bundle {bundle_dir} is incomplete: {what}")

    sizes = {p.name: p.stat().st_size
             for p in sorted(bundle.iterdir()) if p.is_file()}
    missing = sorted(set(BUNDLE_FILES) - set(sizes))
    extra = sorted(set(sizes) - set(BUNDLE_FILES))
    if missing or extra:
        fail(f"missing files {missing}, unexpected files {extra}")
    empty = [name for name, size in sizes.items() if size < 1]
    if empty:
        fail(f"empty files {empty}")

    def rows(name):
        with open(bundle / name, newline="", encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1

    manifest = {"seed": seed,
                "files": {name: {"bytes": size}
                          for name, size in sizes.items()},
                "dataset_rows": rows("dataset.csv"),
                "ablation_rows": rows("ablation.csv"),
                "sim_rows": {n: rows(f"sim_{n}.csv")
                             for n in SCENARIO_NAMES}}
    checks = [("dataset_rows >= 10", manifest["dataset_rows"] >= 10),
              ("ablation_rows == 45", manifest["ablation_rows"] == 45)]
    checks += [(f"sim_rows[{n}] >= 100", r >= 100)
               for n, r in manifest["sim_rows"].items()]
    broken = [name for name, ok in checks if not ok]
    if broken:
        fail(f"needs {', '.join(broken)}")
    return manifest


# --- parser and entry point -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hpc-sentinel",
        description="Instruction-counter firmware screening and islanded "
                    "microgrid attack simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("extract", help="counter windows from listings")
    q.add_argument("files", nargs="+", metavar="listing.asm")
    q.add_argument("--map", help="category map JSON (default: built-in)")
    q.add_argument("--window", type=int, default=hpc.DEFAULT_WINDOW)
    q.add_argument("--label", choices=("benign", "malicious"),
                   required=True)
    q.add_argument("--attack", choices=[k.value for k in AttackKind])
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_extract)

    q = sub.add_parser("mutate", help="inject an attack payload")
    q.add_argument("--base", required=True)
    q.add_argument("--attack", required=True,
                   choices=[k.value for k in AttackKind])
    q.add_argument("--template", help="custom template JSON")
    q.add_argument("--map", help="category map JSON (default: built-in)")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_mutate)

    q = sub.add_parser("train", help="fit a classifier on a dataset CSV")
    q.add_argument("--model", choices=("dt", "rf", "nn"), required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--split", type=float, default=0.7)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--balance", action="store_true")
    q.add_argument("--trees", type=int, default=100)
    q.add_argument("--hidden", type=int, default=16)
    q.add_argument("--epochs", type=int, default=600)
    q.add_argument("--lr", type=float, default=0.5)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_train)

    q = sub.add_parser("eval", help="score a model on a dataset CSV")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("rank", help="rank counters by component loadings")
    q.add_argument("--data", required=True)
    q.add_argument("--components", type=int, default=3)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_rank)

    q = sub.add_parser("ablate", help="class-elimination study")
    q.add_argument("--data", required=True)
    q.add_argument("--exclusions", choices=("1", "2", "all"),
                   default="all")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--balanced", action="store_true")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_ablate)

    q = sub.add_parser("simulate", help="run a microgrid scenario")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--scenario", choices=SCENARIO_NAMES)
    g.add_argument("--scenario-file")
    q.add_argument("--pno-variant", choices=("literal", "symmetric"))
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("report", help="render SVG charts for a bundle")
    q.add_argument("--bundle", required=True)
    q.add_argument("--out", help="chart directory (default: bundle/plots)")
    q.set_defaults(func=cmd_report)

    q = sub.add_parser("reproduce", help="full pipeline into one bundle")
    q.add_argument("--seed", type=int, default=42)
    q.add_argument("--out", required=True)
    q.add_argument("--base", help="base listing (default: synthesized)")
    q.add_argument("--map", help="category map JSON (default: built-in)")
    q.add_argument("--window", type=int, default=hpc.DEFAULT_WINDOW)
    q.add_argument("--split", type=float, default=0.7)
    q.add_argument("--components", type=int, default=3)
    q.set_defaults(func=cmd_reproduce)

    return p


# Bounds [low, high] of the integer flags, high None for no bound, checked
# before any command runs. A window indexes int64 instruction positions
# in _kernels.window_counts, and numpy seeds its generators from
# non-negative ints only. The model bounds keep a train on a 304-window
# dataset to seconds (one CPU core): 10,000 trees took 2.2 s to grow and
# 1.8 s to save, peaking at 250 MB, and a forest's memory grows with its
# trees; 4,096 hidden units, whose buffers hold rows x hidden floats,
# took 4.3 s; 100,000 epochs took 8.1 s.
FLAG_BOUNDS = {"seed": (0, None), "window": (1, hpc.MAX_WINDOW),
               "trees": (1, 10_000), "hidden": (1, 4_096),
               "epochs": (1, 100_000)}


def _check_flag_bounds(args):
    """UsageError naming the first integer flag outside FLAG_BOUNDS."""
    for flag, (low, high) in FLAG_BOUNDS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if high is None and value < low:
            raise UsageError(f"--{flag} must be >= {low}")
        if high is not None and not low <= value <= high:
            raise UsageError(f"--{flag} must lie in [{low}, {high}]")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flag_bounds(args)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (SentinelError, OSError, ValueError, TypeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
