"""Traced run of one hpc-sentinel command, and the per-layer metrics.

Run as a script, it imports the CLI, wraps the public functions of each
module where their callers look them up, runs ``cli.main`` in-process
with the given arguments and writes the recorded spans as JSON:

    python3 perfbench/tracer.py SPANS.json -- extract --label benign ...

A span is [name, start, end, parent index, counts]. Spans stay in memory
until the command returns. Imported as a module, it turns the span
files of one benchmark operation into the per-layer metrics.
"""

import functools
import json
import resource
import sys
import time

def unit(name):
    """Units follow the metric names: *_s seconds, *_ratio a ratio, and
    every other per-layer metric a count."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# --- recording (traced child) ------------------------------------------------

class Recorder:
    """Spans of one process, kept in memory until the command returns."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span[4] = counts(args, out)
            return out
        return traced


def _parse_counts(args, out):
    lines = len(args[0].splitlines())
    return {"lines": lines, "instructions": len(out),
            "skipped": lines - len(out)}


def _tree_nodes(model):
    trees = getattr(model, "trees", [model])
    return sum(t.n_nodes for t in trees)


def _install(rec, cli):
    """Wrap every traced function where its callers look it up."""
    from hpc_sentinel import _kernels, hpc, mgsim, ml, mutate, pca

    table = (
        # cli and mutate import parse_listing by name.
        (cli, "parse_listing", "asm.parse", _parse_counts),
        (mutate, "parse_listing", "asm.parse", _parse_counts),
        (hpc, "extract_windows", "hpc.extract",
         lambda a, out: {"windows": len(out)}),
        (_kernels, "window_counts", "kernels.window_counts", None),
        (hpc, "write_dataset_csv", "hpc.csv_write", None),
        (hpc, "read_dataset_csv", "hpc.csv_read", None),
        (hpc.Dataset, "matrix", "hpc.matrix", None),
        (hpc.Dataset, "subset", "hpc.subset", None),
        (mutate, "synth_base_listing", "mutate.synth", None),
        (mutate, "build_corpus", "mutate.corpus", None),
        (_kernels, "best_split", "kernels.best_split",
         lambda a, out: {"rows": int(a[0].shape[0]), "found": int(out[2])}),
        (_kernels, "simulate_core", "kernels.simulate_core",
         lambda a, out: {"steps": int(a[0])}),
        (ml, "train_dt", "ml.train_dt",
         lambda a, out: {"nodes": _tree_nodes(out)}),
        (ml, "train_rf", "ml.train_rf",
         lambda a, out: {"trees": len(out.trees),
                         "nodes": _tree_nodes(out)}),
        (ml, "train_nn", "ml.train_nn",
         lambda a, out: {"epochs": int(out.params["epochs"])}),
        (ml, "split", "ml.split", None),
        (ml, "balance", "ml.balance", None),
        (ml, "save_model", "ml.save_model", None),
        (ml, "load_model", "ml.load_model", None),
        (ml, "evaluate", "ml.evaluate", None),
        (ml.DecisionTreeModel, "predict", "ml.predict",
         lambda a, out: {"rows": len(out)}),
        (ml.RandomForestModel, "predict", "ml.predict",
         lambda a, out: {"rows": len(out)}),
        (ml.NeuralNetModel, "predict", "ml.predict",
         lambda a, out: {"rows": len(out)}),
        (pca, "rank_features", "pca.rank", None),
        (pca, "run_ablation", "pca.ablate",
         lambda a, out: {"cells": len(out.rows)}),
        (mgsim, "run_scenario", "mgsim.run",
         lambda a, out: {"steps": len(out)}),
        (mgsim, "write_states_csv", "mgsim.csv_write", None),
        (cli, "validate_bundle", "cli.validate", None),
    )
    for owner, attr, name, counts in table:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), counts))


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <hpc-sentinel arguments>")
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    from hpc_sentinel import cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    _install(rec, cli)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    code = rec.wrap("cli.main", cli.main)(cli_args)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = ((cpu1.ru_utime - cpu0.ru_utime)
             + (cpu1.ru_stime - cpu0.ru_stime))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "cpu_s": cpu_s,
                   "spans": rec.spans}, fh)
    return code


# --- reduction (benchmark process) -------------------------------------------

class _Spans:
    """Spans of the traced calls of one operation."""

    def __init__(self, docs):
        self.outer = {}     # name -> [(duration, counts, children time)]
        for doc in docs:
            spans = doc["spans"]
            child_time = [0.0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += t1 - t0
            for i, (name, t0, t1, parent, counts) in enumerate(spans):
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:   # outermost span of its name
                    self.outer.setdefault(name, []).append(
                        (t1 - t0, counts, child_time[i]))

    def total(self, name):
        return sum(d for d, _, _ in self.outer.get(name, ()))

    def self_time(self, name):
        return sum(d - c for d, _, c in self.outer.get(name, ()))

    def calls(self, name):
        return len(self.outer.get(name, ()))

    def count(self, name, key):
        return sum(c.get(key, 0) for _, c, _ in self.outer.get(name, ()))


def operation_metrics(docs):
    """Per-layer metrics of one traced operation from its span files.

    Every per-layer metric but trace.overhead_s, which compares traced
    with untraced operations, is here. perfbench/README.md gives the
    end-to-end metric each should move and the workload where its layer
    does most of its work.
    """
    s = _Spans(docs)
    calls = s.calls("kernels.best_split")
    return {
        "asm.parse_s": s.total("asm.parse"),
        "asm.lines": s.count("asm.parse", "lines"),
        "asm.instructions": s.count("asm.parse", "instructions"),
        "asm.skipped": s.count("asm.parse", "skipped"),
        "hpc.extract_s": s.total("hpc.extract"),
        "hpc.windows": s.count("hpc.extract", "windows"),
        "hpc.csv_write_s": s.total("hpc.csv_write"),
        "hpc.csv_read_s": s.total("hpc.csv_read"),
        "hpc.matrix_s": s.total("hpc.matrix"),
        "hpc.matrix_calls": s.calls("hpc.matrix"),
        "hpc.subset_s": s.total("hpc.subset"),
        "hpc.subset_calls": s.calls("hpc.subset"),
        "mutate.synth_s": s.total("mutate.synth"),
        "mutate.corpus_s": s.total("mutate.corpus"),
        "kernels.window_counts_s": s.total("kernels.window_counts"),
        "kernels.best_split_s": s.total("kernels.best_split"),
        "kernels.best_split_calls": calls,
        "kernels.best_split_rows": s.count("kernels.best_split", "rows"),
        "kernels.best_split_found_ratio":
            s.count("kernels.best_split", "found") / calls if calls else 0.0,
        "kernels.simulate_core_s": s.total("kernels.simulate_core"),
        "kernels.sim_steps": s.count("kernels.simulate_core", "steps"),
        "ml.train_dt_s": s.total("ml.train_dt"),
        "ml.train_rf_s": s.total("ml.train_rf"),
        "ml.train_nn_s": s.total("ml.train_nn"),
        "ml.trees": s.count("ml.train_rf", "trees"),
        "ml.tree_nodes": (s.count("ml.train_dt", "nodes")
                          + s.count("ml.train_rf", "nodes")),
        "ml.nn_epochs": s.count("ml.train_nn", "epochs"),
        "ml.split_s": s.total("ml.split"),
        "ml.balance_s": s.total("ml.balance"),
        "ml.model_save_s": s.total("ml.save_model"),
        "ml.predict_s": s.total("ml.predict"),
        "ml.rows_predicted": s.count("ml.predict", "rows"),
        "ml.evaluate_self_s": s.self_time("ml.evaluate"),
        "ml.model_load_s": s.total("ml.load_model"),
        "pca.rank_s": s.total("pca.rank"),
        "pca.ablate_s": s.total("pca.ablate"),
        "pca.ablate_self_s": s.self_time("pca.ablate"),
        "pca.cells": s.count("pca.ablate", "cells"),
        "mgsim.run_s": s.total("mgsim.run"),
        "mgsim.run_self_s": s.self_time("mgsim.run"),
        "mgsim.csv_write_s": s.total("mgsim.csv_write"),
        "mgsim.steps": s.count("mgsim.run", "steps"),
        "cli.import_s": sum(d["import_s"] for d in docs),
        "cli.self_s": s.self_time("cli.main"),
        "cli.validate_s": s.total("cli.validate"),
        "cli.cpu_s": sum(d["cpu_s"] for d in docs),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
