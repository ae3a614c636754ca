"""Benchmark of the hpc-sentinel CLI: one closed-loop client, one fresh
CLI process per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 50 \\
        --trace 0

Operations run one at a time, each next one only after the previous one
finished, for --seconds seconds. Every call is a fresh
``python3 -m hpc_sentinel.cli`` with the checkout's ``src`` on
PYTHONPATH and every HPC_SENTINEL_* variable cleared, so the program's
defaults run. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run. The last line
of standard output is one JSON object; the lines before it name every
metric with its unit, the environment and the per-operation samples.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s; calls still running at this point are
# killed and count as failed.
DEADLINE_S = 170.0

# Share of an untraced run spent repeating set-up, and the fewest
# repetitions whose median is reported. The repetitions are spread
# between the operations because the host's load drifts over minutes:
# a few seconds of it, back to back, gave a median that spread across
# runs wider than wall_s did.
SETUP_SHARE = 0.2
MIN_SETUPS = 5

# One operation runs on one core: numpy's math library would otherwise
# start a thread per core, and on a 2-vCPU host whose second vCPU is
# often taken by other tenants that doubled the spread of reproduce's
# wall time. This differs from the program's default, so a change whose
# effect depends on BLAS threading cannot show in wall_s.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_CODE = """\
import json, platform, numpy
import hpc_sentinel, hpc_sentinel.cli
from hpc_sentinel import _kernels
_kernels.warmup()
print(json.dumps({"backend": _kernels.backend(),
                  "python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "package": hpc_sentinel.__file__}))
"""


@dataclass
class Call:
    """One finished child process."""

    label: str
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


class Runner:
    """Starts child processes, times them and collects their usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("HPC_SENTINEL_")}
        self.env.update(PYTHONPATH=str(SRC), **ONE_THREAD)

    def spawn(self, argv, label) -> Call:
        out_path = self.work / "call.out"
        err_path = self.work / "call.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(label=label, exit_code=proc.returncode, wall_s=wall,
                    maxrss_mb=usage.ru_maxrss / 1024.0,
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return call

    def cli(self, args, traced: bool) -> Call:
        """One hpc-sentinel call, under the tracer when traced."""
        label = f"{'traced ' if traced else ''}{args[0]}"
        if not traced:
            return self.spawn([sys.executable, "-m", "hpc_sentinel.cli",
                               *args], label)
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        call = self.spawn([sys.executable, str(HERE / "tracer.py"),
                           str(spans), "--", *args], label)
        if spans.exists():
            call.trace = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        elif call.exit_code == 0:
            call.exit_code = -1
            call.stderr += "tracer wrote no spans\n"
        return call

    def interpreter_setup(self) -> Call:
        """A fresh interpreter importing the CLI and warming the kernels."""
        return self.spawn([sys.executable, "-c", SETUP_CODE], "setup")

    def validate_bundle(self, bundle, seed):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from hpc_sentinel.cli import validate_bundle
        validate_bundle(bundle, seed=seed)


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def setup_once(workload, runner):
    """One set-up repetition: its time (s) and the environment the
    program reported."""
    call = runner.interpreter_setup()
    if workloads.call_problems(call):
        raise RuntimeError(f"set-up interpreter failed:\n{call.stderr}")
    env = json.loads(call.stdout.strip().splitlines()[-1])
    package = Path(env["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError(f"imported hpc_sentinel from {package}, "
                           f"not from {SRC}")
    calls = [call] + workload.setup(runner)
    return sum(c.wall_s for c in calls), env


def closed_loop(workload, runner, seconds, traced_too, setup_times):
    """Operations back to back for `seconds`.

    Untraced, set-up repetitions are spread between the operations so
    that they take SETUP_SHARE of the run and meet the same host load as
    the operations; their times are appended to `setup_times`. With
    traced_too, untraced and traced operations alternate instead, at
    least two of each, and set-up is not repeated.
    """
    untraced, traced = [], []
    start = time.monotonic()
    while time.monotonic() < runner.deadline - 5.0:
        elapsed = time.monotonic() - start
        if traced_too:
            if elapsed >= seconds and len(untraced) >= 2 and len(traced) >= 2:
                break
            kind = traced if len(traced) < len(untraced) else untraced
            kind.append(workload.operation(runner, kind is traced))
            continue
        if (elapsed >= seconds and untraced
                and len(setup_times) >= MIN_SETUPS):
            break
        if (sum(setup_times) < SETUP_SHARE * elapsed
                or (elapsed >= seconds and untraced)):
            setup_times.append(setup_once(workload, runner)[0])
        else:
            untraced.append(workload.operation(runner, False))
    return untraced, traced


def end_to_end(ops, setup_times):
    walls = [op.wall_s for op in ops]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops),
                        "MB"),
    }


def per_layer(untraced, traced):
    """Times are medians over the traced operations that passed their
    checks; counts must repeat exactly between them."""
    per_op = [tracer.operation_metrics([c.trace for c in op.calls])
              for op in traced if not op.problems]
    problems = []
    out = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if tracer.unit(name) == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced "
                                f"operations: {values}")
    out["trace.overhead_s"] = (
        statistics.median(op.wall_s for op in traced)
        - statistics.median(op.wall_s for op in untraced))
    return {k: (v, tracer.unit(k)) for k, v in out.items()}, problems


# Workload-specific readings, printed as medians over the operations
# that produced them.
_READING_UNITS = {"detect_accuracy": "fraction", "lines_per_s": "lines/s",
                  "sim_s_per_s": "sim_s/s"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOAD_CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.FLEET_SIZES),
                   default="default",
                   help="input size preset; 'tiny' is for the smoke check")
    args = p.parse_args(argv)

    if not (SRC / "hpc_sentinel" / "cli.py").is_file():
        print(f"error: no hpc-sentinel sources under {SRC}", file=sys.stderr)
        return 1

    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, t_start + DEADLINE_S)
        workload = workloads.WORKLOAD_CLASSES[args.workload](
            args.seed, args.size, work)
        input_digest = workload.prepare()
        try:
            setup_s, program_env = setup_once(workload, runner)
            setup_times = [setup_s]
            untraced, traced = closed_loop(workload, runner, args.seconds,
                                           bool(args.trace), setup_times)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = untraced + traced
    failed = [op for op in ops if op.problems]
    problems = [p for op in failed for p in op.problems]
    if not untraced or (args.trace and all(op.problems for op in traced)):
        print(f"error: no operation to report on: {problems}",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics, trace_problems = per_layer(untraced, traced)
        problems += trace_problems
    else:
        metrics = end_to_end(untraced, setup_times)

    env = dict(program_env, workload=args.workload, seed=args.seed,
               size=args.size, input_digest=input_digest, **ONE_THREAD,
               nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               platform=platform.platform(),
               loadavg=Path("/proc/loadavg").read_text().split()[:3]
               if Path("/proc/loadavg").exists() else None)
    walls = [op.wall_s for op in untraced]
    q1, q2, q3 = quartiles(walls)
    print(f"env {json.dumps(env, sort_keys=True)}")
    samples = {"op_wall_s": walls,
               "traced_op_wall_s": [op.wall_s for op in traced],
               "setup_s": setup_times}
    print(f"samples {json.dumps(samples)}")
    print(f"noise: {len(walls)} untraced operations, wall q1 {q1:.4f} s, "
          f"median {q2:.4f} s, q3 {q3:.4f} s, "
          f"(q3-q1)/median {(q3 - q1) / q2:.4f}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"{'metric':34} {'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if unit == "count" else f"{value:14.6g}"
        print(f"{name:34} {shown}  {unit}")
    if not args.trace:
        for name, unit in _READING_UNITS.items():
            values = [op.readings[name] for op in untraced
                      if name in op.readings]
            shown = (f"{statistics.median(values):14.6g}" if values
                     else f"{'n/a':>14}")
            print(f"{name:34} {shown}  {unit}")
        print(f"{'fail_ratio':34} {len(failed) / len(ops):14.6g}  "
              f"fraction ({len(failed)}/{len(ops)})")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
