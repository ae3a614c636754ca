"""Smoke check of the benchmark itself.

Runs every workload, simulate_long too, which BENCHMARK.json does not
list, at its smallest size, once untraced and once traced. Checks that
each run names every metric of BENCHMARK.json with its unit, reports the
workload's readings and fail_ratio 0, and counts no failed operation.
Run from the root of a checkout:

    python3 perfbench/smoke.py

Exits 0 when every check holds. Takes about a minute, most of it the
reproduce workload, which has only its default size.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOAD_CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Readings each workload prints with a value besides the JSON metrics;
# the others print as n/a.
READINGS = {
    "reproduce": ("detect_accuracy",),
    "screen": ("detect_accuracy", "lines_per_s"),
    "simulate_long": ("sim_s_per_s",),
}


def check(workload, trace, spec) -> list:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, failed "
                        f"{result['failed']} of {result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metrics {sorted(got)}")
    for m in wanted:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit "
                            f"{got[m['name']]['unit']}, not {m['unit']}")
    if not trace:
        table = {ln.split()[0]: ln.split()[1:] for ln in lines[:-1]
                 if ln.strip()}
        for name in READINGS[workload]:
            if table.get(name, ["n/a"])[0] == "n/a":
                problems.append(f"{where}: {name} not printed")
        if table.get("fail_ratio", ["?"])[0] != "0":
            problems.append(f"{where}: fail_ratio {table.get('fail_ratio')}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOAD_CLASSES:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
