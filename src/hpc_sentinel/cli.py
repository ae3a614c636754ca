"""Command-line front end.

Subcommands: extract, mutate, train, eval, rank, ablate, simulate,
report, and the end-to-end reproduce pipeline. Exit codes: 0 success,
2 usage error, 3 data error, 4 numeric divergence. Every subcommand is
deterministic given its inputs, flags and --seed.

Each command imports only the modules it runs, on top of asm, hpc,
_kernels, errors and names, which building the parser loads: extract
loads no other; mutate loads mutate; train and eval load ml; rank and
ablate load pca and ml; simulate loads mgsim; report loads study; and
reproduce, which runs in study, loads them all before it forks. Every call
is a fresh process, so a module a command does not run is not compiled.
"""

import argparse
import math
import sys
from pathlib import Path

from . import hpc
from .asm import SKIP_KINDS, CategoryMap, parse_listing
from .errors import (DataError, NumericError, SentinelError, read_json,
                     read_text, write_json)
from .names import BUNDLE_FILES, BUNDLE_SIMS, SCENARIO_NAMES, AttackKind


class UsageError(Exception):
    """Bad flag combination caught after argparse; maps to exit 2."""


def _load_map(path) -> CategoryMap:
    if path is None:
        return CategoryMap.default()
    return read_json(path, "category map", CategoryMap.from_dict)


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
        text = read_text(f, "extract")
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
    base = read_text(args.base, "mutate")
    kind = AttackKind.from_name(args.attack)
    if args.template:
        template = read_json(args.template, "template",
                             mutate.InjectionTemplate.from_dict)
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
                 "lr": args.lr}}
    [(model, report)] = ml.train_eval_cells(
        [(args.model, ds, args.seed, args.balance)], args.split, hp)
    ml.save_model(model, args.out)
    print(f"wrote {args.out} ({args.model}, held-out accuracy "
          f"{report.metrics.accuracy:.4f})")
    return 0


def cmd_eval(args) -> int:
    from . import ml
    model = ml.load_model(args.model)
    ds = hpc.read_dataset_csv(args.data).project(model.feature_names)
    report = ml.evaluate(model, ds)
    write_json(args.out, report.as_dict())
    m = report.metrics
    print(f"wrote {args.out} (accuracy {m.accuracy:.4f}, "
          f"precision {m.precision:.4f}, recall {m.recall:.4f})")
    return 0


# --- rank / ablate ------------------------------------------------------------

def cmd_rank(args) -> int:
    from . import pca
    ds = hpc.read_dataset_csv(args.data)
    if args.components > len(ds.feature_names):
        raise UsageError(f"--components must lie in "
                         f"[1, {len(ds.feature_names)}]: {args.data} has "
                         f"{len(ds.feature_names)} counters")
    ranking = pca.rank_features(ds, n_components=args.components)
    write_json(args.out, ranking.as_dict())
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
        scenario = read_json(args.scenario_file, "scenario",
                             mgsim.Scenario.from_dict)
    else:
        scenario = mgsim.named_scenario(args.scenario)
    if args.pno_variant:
        scenario.pno_variant = args.pno_variant
    trace = mgsim.run_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(trace)} steps, mean pv "
          f"{trace.pv_kw.mean():.1f} kW)")
    return 0


# --- report / reproduce (the study module) -------------------------------------

def cmd_report(args) -> int:
    from . import study
    out = Path(args.out) if args.out else Path(args.bundle) / "plots"
    print(f"wrote {study.report(Path(args.bundle), out)} charts to {out}")
    return 0


def cmd_reproduce(args) -> int:
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must lie in (0, 1)")
    out = Path(args.out)
    stray = sorted(p.name for p in out.glob("*")
                   if p.is_file() and p.name not in BUNDLE_FILES)
    if stray:
        raise DataError(f"{out} holds files outside a bundle: {stray}")
    out.mkdir(parents=True, exist_ok=True)
    from . import study
    result = study.run(out, seed=args.seed, base=args.base,
                       cmap=_load_map(args.map), window=args.window,
                       split=args.split, components=args.components)
    print("[reproduce] summary")
    (out / "summary.md").write_text(study.render_summary(result),
                                    encoding="utf-8")
    validate_bundle(out, seed=args.seed)
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
                "sim_rows": {n: rows(f)
                             for n, f in zip(SCENARIO_NAMES, BUNDLE_SIMS)}}
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
               "epochs": (1, 100_000),
               "components": (1, len(hpc.FEATURE_NAMES))}


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
