"""Workload inputs, operations and output checks for the benchmark.

Every input is generated here from the workload seed with the standard
library's generator, so a change to the program cannot change what the
benchmark feeds it. Sizes depend only on the size preset, never on the
seed: two seeds give different contents with the same amount of work.
"""

import csv
import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Window length of the program's default extraction.
WINDOW = 50
# The motifs below are ten instructions long, which divides WINDOW, so
# interior windows of a benign section repeat one counter vector and a
# payload whose length is not a multiple of ten shifts every later window
# out of phase.
MOTIF_LEN = 10

# Benchmark-owned firmware family. Each section has several motif
# variants; the seed picks one per listing. Mnemonics cover all five
# counted classes plus a few the default category map leaves as Other.
_MOTIFS = {
    "boot": (
        ("MOVW DP, #{imm}", "MOVL XAR{ar}, #{imm}", "EALLOW",
         "MOVH @PCLKCR{n}, AL", "ORB AL, #{small}", "MOVH @GPAMUX{n}, AL",
         "EDIS", "ADDB SP, #{small}", "CMPB AL, #{small}",
         "SB boot_next, NEQ"),
        ("MOVB AL, #{small}", "MOVH @WDCR, AL", "SETC INTM",
         "MOVL XAR{ar}, #{imm}", "PUSH XAR{ar}", "POP ACC", "ANDB AL, #0x7F",
         "MOVH @SCSR, AL", "NOP", "LB boot_main"),
    ),
    "adc_isr": (
        ("PUSH ACC", "IN AL, @ADCRESULT{n}", "MOV AH, @ADCRESULT{n}",
         "LSR AL, #{bit}", "ADDL ACC, @ADC_SUM", "MOVH @ADC_SUM, ACC",
         "TBIT @ADCINTFLG, #{bit}", "SBF adc_done, NTC", "POP ACC", "IRET"),
        ("PUSH XAR{ar}", "MOVL ACC, @ADC_RAW", "SUBL ACC, @ADC_OFS",
         "MPY P, T, @ADC_GAIN", "MOVH @V_MEAS, ACC", "IN AL, @ADCRESULT{n}",
         "ANDB AL, #0x0FFF", "MOVH @I_MEAS, AL", "POP XAR{ar}", "IRET"),
    ),
    "control": (
        ("MOVL XT, @V_MEAS", "MPY P, XT, @I_MEAS", "MOVL ACC, @P_LAST",
         "SUBL ACC, P", "MOVH @P_DELTA, ACC", "CMPB AL, #0", "SB ctl_up, GEQ",
         "DEC @I_CMD", "ADDB AL, #{small}", "LSL ACC, #{bit}"),
        ("MOVL ACC, @I_CMD", "ADDL ACC, @I_STEP", "MOVH @I_CMD, ACC",
         "CMP AL, @I_MAX", "BF ctl_clamp, LEQ", "MOV AL, @I_MAX",
         "MOVH @I_CMD, AL", "XOR AL, @DIR", "NEG ACC", "LRETR"),
        ("MOV T, @K_P", "MPYS P, T, @ERR", "MOVL ACC, P", "ADDL ACC, @INTEG",
         "MOVH @INTEG, ACC", "ASR AL, #{bit}", "TSET @CTL_FLAGS, #{bit}",
         "BANZ ctl_loop, AR{ar}--", "INC @TICKS", "RPT #{small}"),
    ),
    "comms": (
        ("MOV AL, @SCIRXBUF", "ANDB AL, #0xFF", "MOVH @RX_BYTE, AL",
         "CMPB AL, #{small}", "BF rx_frame, EQ", "ADDB AL, #{small}",
         "OUT @SCITXBUF, AL", "XORB AL, #0x5A", "MOVH @CRC, AL", "LRETR"),
        ("MOVL XAR{ar}, #{imm}", "MOV AL, *XAR{ar}++", "OR AL, @CRC",
         "ROL ACC", "MOVH @CRC, AL", "SUBB AL, #{small}", "SB tx_loop, NEQ",
         "PWRITE *XAR{ar}, AL", "ASP", "LRET"),
    ),
    "pwm": (
        ("MOV T, @I_CMD", "LSL ACC, #{bit}", "ANDB AL, #0x3F",
         "MOVH @EPWM{n}_CMPA, ACC", "LSRL ACC, T", "BF pwm_wrap, EQ",
         "SBF pwm_skip, NTC", "DEC @DUTY_GUARD", "BANZ pwm_loop, AR0--",
         "NOT AH"),
        ("MOVU ACC, @DUTY", "ADDU ACC, @DEADBAND", "MOVH @EPWM{n}_CMPB, ACC",
         "TCLR @EPWM{n}_FLG, #{bit}", "MOVZ AR{ar}, @PERIOD",
         "SUBU ACC, @PERIOD", "SB pwm_ok, LT", "MOV AL, @PERIOD",
         "MOVH @DUTY, AL", "IDLE"),
    ),
    "housekeeping": (
        ("IN AL, @TEMP_SENSE", "MOVH @TEMP, AL", "CMP AL, @TEMP_TRIP",
         "SB hk_ok, LT", "TSET @FAULTS, #{bit}", "MOVB AL, #{small}",
         "OUT @LED{n}, AL", "ADD AL, @UPTIME", "MOVH @UPTIME, AL", "LRETR"),
        ("MOVL ACC, @UPTIME", "ADDB ACC, #1", "MOVL @UPTIME, ACC", "ABS ACC",
         "CLRC TC", "XB @hk_table, UNC", "MOVW DP, #{imm}", "MOVH @WDKEY, AL",
         "ESTOP0", "LRET"),
    ),
}

# Payload vocabulary for tampering: what an implant typically adds, a
# timer poll, a store to an actuator register, a conditional jump.
_PAYLOAD_POOL = (
    "MOVL ACC, @T{n}TIM", "CMPB AL, #{small}", "SB implant_{n}, GT",
    "MOVB AL, #0", "MOVH @EPWM{n}_CMPA, AL", "MOVH @I_CMD, AL",
    "TCLR @CTL_FLAGS, #{bit}", "XB @implant_ret, UNC", "MOV AL, @V_MEAS",
    "MPYB P, T, #{small}", "MOVH @V_MEAS, AL", "LSR AL, #{bit}", "PUSH ACC",
    "POP ACC", "OUT @SCITXBUF, AL",
)
# Lengths of a tampered listing's two payloads; neither is a multiple
# of MOTIF_LEN.
_PAYLOAD_LENS = (7, 11)

# (listings per class, motif repeats per section), per size preset. The
# screen fleet is the held-out set the deployed forest is scored on; the
# training fleet is what set-up trains that forest on.
FLEET_SIZES = {
    "default": {"fleet": (20, 60), "train": (4, 40)},
    "tiny": {"fleet": (2, 8), "train": (2, 8)},
}
SIM_DURATION_S = {"default": 600.0, "tiny": 20.0}


def _fill(template: str, rng: random.Random) -> str:
    return template.format(imm=f"0x{rng.randrange(1 << 16):04x}",
                           small=rng.randrange(1, 16), bit=rng.randrange(16),
                           ar=rng.randrange(8), n=rng.randrange(4))


@dataclass
class Listing:
    """One generated firmware listing and its instruction count."""

    name: str
    text: str
    instructions: int
    lines: int
    path: Path | None = None


def make_listing(seed: int, name: str, repeats: int,
                 tampered: bool) -> Listing:
    """A C28x-style listing of the benchmark's own firmware family.

    Section lengths depend on ``repeats`` alone and the payload lengths
    are fixed, so the amount of code is the same for every seed. A
    tampered listing carries two payloads, spliced into sections chosen
    by the seed.
    """
    rng = random.Random(f"{seed}/{name}")
    lines = [f"; {name}: microinverter control firmware", "    .text", ""]
    addr = 0x3F0000
    n_instr = 0
    implant_at = (sorted(rng.sample(range(1, len(_MOTIFS)),
                                    len(_PAYLOAD_LENS)))
                  if tampered else [])
    for k, (section, variants) in enumerate(_MOTIFS.items()):
        motif = rng.choice(variants)
        lines.append(f"; --- {section} ---")
        lines.append(f"{section}:")
        body = []
        for _ in range(repeats):
            body.extend(_fill(template, rng) for template in motif)
        if k in implant_at:
            size = _PAYLOAD_LENS[implant_at.index(k)]
            payload = [_fill(rng.choice(_PAYLOAD_POOL), rng)
                       for _ in range(size)]
            cut = MOTIF_LEN * rng.randrange(repeats // 4 + 1)
            body[cut:cut] = payload
        for i, text in enumerate(body):
            mnemonic, _, operands = text.partition(" ")
            line = f"{addr:06x} {rng.randrange(1 << 16):04x} {mnemonic}"
            if operands:
                line += f"  {operands}"
            if i % 17 == 5:
                line += f"  ; {section} step {i}"
            lines.append(line)
            addr += 1
            if i % 97 == 96:
                lines.append("")
        n_instr += len(body)
        lines.append(f"{section}_table:")
        lines.append("    .align 2")
        for _ in range(4):
            lines.append(f"{addr:06x} {rng.randrange(1 << 16):04x} .word "
                         f"0x{rng.randrange(1 << 16):04x}")
            addr += 1
    text = "\n".join(lines) + "\n"
    return Listing(name=name, text=text, instructions=n_instr,
                   lines=len(lines))


def scenario_dict(seed: int, duration_s: float) -> dict:
    """A long islanded run with load steps and all four attack effects.

    Irradiance stays constant at 1.0, as in the five shipped scenarios:
    with the shipped tracker a profile that dips below i_ref/i_sc pins PV
    at zero for the rest of the run, which would measure a stuck tracker
    rather than the simulator.
    """
    rng = random.Random(f"{seed}/scenario")
    loads = [[0.0, float(rng.randrange(300, 700, 10))]]
    t = 0.0
    while True:
        t += rng.uniform(20.0, 60.0)
        if t >= duration_s:
            break
        loads.append([round(t, 2), float(rng.randrange(300, 900, 10))])
    effects = [{"kind": "mppt_off"}, {"kind": "inverter_off"},
               {"kind": "sensor_perturb", "amplitude": 0.1,
                "frequency_hz": 0.5},
               {"kind": "sensor_perturb", "amplitude": 0.1,
                "frequency_hz": 5.0}]
    slot = duration_s / len(effects)
    attacks = []
    for k, effect in enumerate(effects):
        start = k * slot + rng.uniform(0.05, 0.5) * slot
        end = start + 0.45 * slot
        attacks.append([round(start, 2), round(end, 2), effect])
    return {"name": f"bench_long_{seed}", "duration_s": duration_s,
            "pno_variant": "symmetric",
            "irradiance": {"kind": "constant", "value": 1.0},
            "load_schedule": loads, "attack_schedule": attacks}


def digest(paths) -> str:
    """sha256 over the names and bytes of generated input files."""
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# --- workloads ---------------------------------------------------------------

@dataclass
class Operation:
    """One closed-loop operation: the CLI calls it made, what its output
    checks found wrong, and workload-specific readings."""

    calls: list
    problems: list = field(default_factory=list)
    readings: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.maxrss_mb for c in self.calls)


def call_problems(call) -> list:
    """Failures every CLI call is checked for."""
    out = []
    if call.exit_code != 0:
        out.append(f"{call.label}: exit code {call.exit_code}")
    if "Traceback" in call.stderr:
        out.append(f"{call.label}: traceback on stderr")
    return out


def checked(check, *args) -> list:
    """Run an output check; output it cannot read is a failure too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            csv.Error) as e:
        return [f"unreadable output: {e!r}"]


def _windows(listings) -> int:
    return sum(-(-x.instructions // WINDOW) for x in listings)


def _merge_csv(parts, out: Path) -> int:
    """Concatenate dataset CSVs under the first header; returns data rows."""
    rows = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        for k, part in enumerate(parts):
            lines = Path(part).read_text(encoding="utf-8").splitlines(True)
            fh.writelines(lines if k == 0 else lines[1:])
            rows += len(lines) - 1
    return rows


class Reproduce:
    """``reproduce --seed <seed>`` at default size: the headline number."""

    name = "reproduce"

    def __init__(self, seed, size, work: Path):
        self.seed, self.work = seed, work
        self.first_bundle = None

    def prepare(self) -> str:
        # The program's only input is its argument list.
        return hashlib.sha256(
            f"reproduce --seed {self.seed}".encode()).hexdigest()[:16]

    def setup(self, runner) -> list:
        return []

    def operation(self, runner, traced: bool) -> Operation:
        bundle = self.work / "bundle"
        shutil.rmtree(bundle, ignore_errors=True)
        call = runner.cli(["reproduce", "--seed", str(self.seed), "--out",
                           str(bundle)], traced)
        op = Operation([call], call_problems(call))
        if not op.problems:
            op.problems += checked(self._check, runner, bundle, op.readings)
        shutil.rmtree(bundle, ignore_errors=True)
        return op

    def _check(self, runner, bundle: Path, readings) -> list:
        try:
            runner.validate_bundle(bundle, self.seed)
        except Exception as e:  # whatever validation raises is a failure
            return [f"bundle fails validate_bundle: {e}"]
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(bundle.iterdir()) if p.is_file()}
        if self.first_bundle is None:
            self.first_bundle = files
        elif files != self.first_bundle:
            diff = sorted(n for n in set(files) | set(self.first_bundle)
                          if files.get(n) != self.first_bundle.get(n))
            return [f"bundle differs from the first repeat in {diff}"]
        summary = (bundle / "summary.md").read_text(encoding="utf-8")
        m = re.search(r"unbalanced training.*?\n\| rf \| ([0-9.]+) \|",
                      summary, re.S)
        if m is None:
            return ["summary.md has no rf/unbalanced accuracy"]
        readings["detect_accuracy"] = float(m.group(1))
        return []


class Screen:
    """``extract`` over a fleet of listings, then ``eval`` of the deployed
    forest on it."""

    name = "screen"
    # extract takes one attack kind per call; the fleet's implants are
    # filed under this one.
    tamper_label = "input_array"

    def __init__(self, seed, size, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.model = work / "setup" / "rf.json"
        self.model_bytes = None

    def prepare(self) -> str:
        (n_fleet, r_fleet) = FLEET_SIZES[self.size]["fleet"]
        (n_train, r_train) = FLEET_SIZES[self.size]["train"]
        self.fleet = self._write(self.work / "fleet", "fleet", n_fleet,
                                 r_fleet)
        self.train = self._write(self.work / "train", "train", n_train,
                                 r_train)
        every = [x.path for group in (self.fleet, self.train)
                 for x in group["benign"] + group["tampered"]]
        return digest(every)

    def _write(self, out_dir, prefix, per_class, repeats) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        group = {"benign": [], "tampered": []}
        for i in range(per_class):
            for key in group:
                name = f"{prefix}_{key}_{i:03d}"
                item = make_listing(self.seed, name, repeats,
                                    key == "tampered")
                item.path = out_dir / f"{name}.asm"
                item.path.write_text(item.text, encoding="utf-8")
                group[key].append(item)
        return group

    def _extract(self, runner, group, out_dir: Path, traced):
        """Two extract calls, one per label, merged into one dataset."""
        calls = [
            runner.cli(["extract", "--label", "benign", "--out",
                        str(out_dir / "benign.csv")]
                       + [str(x.path) for x in group["benign"]], traced),
            runner.cli(["extract", "--label", "malicious", "--attack",
                        self.tamper_label, "--out",
                        str(out_dir / "tampered.csv")]
                       + [str(x.path) for x in group["tampered"]], traced),
        ]
        problems = [p for c in calls for p in call_problems(c)]
        rows = 0
        if not problems:
            rows = _merge_csv([out_dir / "benign.csv",
                               out_dir / "tampered.csv"],
                              out_dir / "data.csv")
        return calls, problems, rows

    def setup(self, runner) -> list:
        """Extract the training fleet and train the deployed forest."""
        out_dir = self.model.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        calls, problems, _ = self._extract(runner, self.train, out_dir,
                                           False)
        if not problems:
            calls.append(runner.cli(
                ["train", "--model", "rf", "--data", str(out_dir / "data.csv"),
                 "--seed", str(self.seed), "--out", str(self.model)], False))
            problems = call_problems(calls[-1])
        if problems:
            raise RuntimeError(f"screen set-up failed: {problems}")
        model = self.model.read_bytes()
        if self.model_bytes not in (None, model):
            raise RuntimeError("screen set-up trained a different forest "
                               "from the same data and seed")
        self.model_bytes = model
        return calls

    def operation(self, runner, traced: bool) -> Operation:
        out_dir = self.work / "op"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        calls, problems, rows = self._extract(runner, self.fleet, out_dir,
                                              traced)
        op = Operation(calls, problems)
        if problems:
            return op
        report_path = out_dir / "report.json"
        call = runner.cli(["eval", "--model", str(self.model), "--data",
                           str(out_dir / "data.csv"), "--out",
                           str(report_path)], traced)
        op.calls.append(call)
        op.problems += call_problems(call)
        if not op.problems:
            op.problems += checked(self._check, report_path, rows, op)
        return op

    def _check(self, report_path: Path, rows: int, op) -> list:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        expected = _windows(self.fleet["benign"] + self.fleet["tampered"])
        if report["n"] != rows or rows != expected:
            return [f"eval scored {report['n']} windows, extract wrote "
                    f"{rows}, the fleet has {expected}"]
        n_benign = _windows(self.fleet["benign"])
        pred = report["predictions"]
        right = (sum(p == 0 for p in pred[:n_benign])
                 + sum(p == 1 for p in pred[n_benign:]))
        accuracy = right / rows
        if abs(accuracy - report["metrics"]["accuracy"]) > 1e-12:
            return [f"eval reports accuracy {report['metrics']['accuracy']}"
                    f", its predictions give {accuracy}"]
        lines = sum(x.lines for x in self.fleet["benign"]
                    + self.fleet["tampered"])
        op.readings["detect_accuracy"] = accuracy
        op.readings["lines_per_s"] = lines / op.wall_s
        return []


class SimulateLong:
    """``simulate --scenario-file`` on a long generated scenario."""

    name = "simulate_long"
    grid_dt_s = 0.01

    def __init__(self, seed, size, work: Path):
        self.seed, self.work = seed, work
        self.duration_s = SIM_DURATION_S[size]

    def prepare(self) -> str:
        scenario = scenario_dict(self.seed, self.duration_s)
        scenario.update(grid_dt_s=self.grid_dt_s, mppt_dt_s=0.001)
        self.scenario = self.work / "scenario.json"
        self.scenario.write_text(json.dumps(scenario, indent=2) + "\n",
                                 encoding="utf-8")
        return digest([self.scenario])

    def setup(self, runner) -> list:
        return []

    def operation(self, runner, traced: bool) -> Operation:
        out = self.work / "sim.csv"
        out.unlink(missing_ok=True)
        call = runner.cli(["simulate", "--scenario-file", str(self.scenario),
                           "--out", str(out)], traced)
        op = Operation([call], call_problems(call))
        if not op.problems:
            op.problems += checked(self._check, out, op)
        return op

    def _check(self, out: Path, op) -> list:
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            pv_col = next(reader).index("pv_kw")
            pv = [float(row[pv_col]) for row in reader]
        expected = round(self.duration_s / self.grid_dt_s)
        if len(pv) != expected:
            return [f"sim CSV has {len(pv)} rows, expected {expected}"]
        if not sum(pv) / len(pv) > 0.0:
            return ["mean PV output is not above 0 kW"]
        op.readings["sim_s_per_s"] = self.duration_s / op.wall_s
        return []


WORKLOAD_CLASSES = {w.name: w for w in (Reproduce, Screen, SimulateLong)}
