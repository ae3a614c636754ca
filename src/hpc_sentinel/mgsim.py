"""Islanded-microgrid simulation: PV through a current-tracking
microinverter, battery storage, a diesel generator, and a lumped
frequency model, with attack effects scheduled on top.

The electrical network is reduced to a power balance. Storage covers
the load-minus-PV residual first (within power and energy limits), the
diesel generator ramps toward the remainder with a first-order lag, and
whatever is left drives the frequency deviation. All constants live in
the Scenario, not in code.
"""

import enum
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .names import SCENARIO_NAMES

NOMINAL_HZ = 60.0

# Largest number of grid steps a scenario may ask for. A run peaks at
# about 350 bytes per step (schedules, trace columns and, while the CSV is
# written, one Python float per cell), so this keeps a run under about
# 0.35 GB; ten minutes at the default 10 ms step is 60,000 steps.
MAX_STEPS = 1_000_000

# Largest number of tracker updates (grid steps x substeps) a scenario may
# ask for. The kernel loops over them in Python, so this keeps a run
# to about half a minute; ten minutes at the default steps is 600,000.
MAX_TRACKER_UPDATES = 10_000_000


def _finite(x) -> bool:
    """Whether x is an int or float, not a bool, that is neither NaN nor
    infinite."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _check_finite(obj, prefix=""):
    """Raise ValueError naming the first float field of the dataclass obj
    that holds no finite number."""
    for f in fields(obj):
        if f.type is float and not _finite(getattr(obj, f.name)):
            raise ValueError(f"{prefix}{f.name} must be a finite number")


@dataclass(frozen=True)
class PvModel:
    """Single-knee I-V curve: I(V) = g * i_sc * (1 - (V/v_oc)^knee).

    knee = 10 puts the maximum power point near 250 kW for the default
    800 V / 437 A array; the MPP voltage does not depend on irradiance.
    """

    v_oc_v: float = 800.0
    i_sc_a: float = 437.0
    knee: float = 10.0
    p_rated_kw: float = 250.0

    def __post_init__(self):
        _check_finite(self, "pv.")
        if not (self.v_oc_v > 0 and self.i_sc_a > 0 and self.knee > 1):
            raise ValueError("pv needs v_oc_v > 0, i_sc_a > 0, knee > 1")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class MgTrace:
    """Per-step columns of one simulation run of the islanded grid:
    float64 arrays, except the two flags, which are bool."""

    time_s: np.ndarray
    freq_hz: np.ndarray
    pv_kw: np.ndarray
    diesel_kw: np.ndarray
    ess_kw: np.ndarray
    ess_kwh: np.ndarray
    load_kw: np.ndarray
    inverter_online: np.ndarray
    mppt_enabled: np.ndarray

    def __len__(self):
        return self.time_s.shape[0]


CSV_COLUMNS = tuple(f.name for f in fields(MgTrace))


class AttackName(enum.Enum):
    MPPT_OFF = "mppt_off"
    INVERTER_OFF = "inverter_off"
    SENSOR_PERTURB = "sensor_perturb"


@dataclass(frozen=True)
class AttackEffect:
    """What an active attack does to the inverter during its window.

    mppt_off freezes the current reference; inverter_off drops PV to
    zero; sensor_perturb multiplies the measured voltage and current by
    1 + amplitude * sin(2*pi*frequency*t) before the tracker sees them.
    """

    kind: AttackName
    amplitude: float = 0.0
    frequency_hz: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.kind is AttackName.SENSOR_PERTURB:
            if not self.amplitude >= 0.0:
                raise ValueError("sensor_perturb amplitude must be >= 0")
            if not self.frequency_hz > 0.0:
                raise ValueError("sensor_perturb frequency_hz must be "
                                 "positive")

    def to_dict(self):
        d = {"kind": self.kind.value}
        if self.kind is AttackName.SENSOR_PERTURB:
            d["amplitude"] = self.amplitude
            d["frequency_hz"] = self.frequency_hz
        return d

    @classmethod
    def from_dict(cls, d) -> "AttackEffect":
        if not (isinstance(d, dict) and "kind" in d):
            raise ValueError("an attack effect must be an object with a kind")
        return cls(kind=AttackName(d["kind"]),
                   amplitude=d.get("amplitude", 0.0),
                   frequency_hz=d.get("frequency_hz", 0.0))


_TRAPEZOID_KEYS = ("rise_start_s", "rise_end_s", "fall_start_s",
                   "fall_end_s")


def _irradiance_ok(spec) -> bool:
    """Whether spec is an irradiance profile _irradiance_series can run."""
    if not (isinstance(spec, dict) and all(
            _finite(x) and x >= 0
            for x in (spec.get("value", 1.0), spec.get("peak", 1.0)))):
        return False
    kind = spec.get("kind", "constant")
    if kind == "trapezoid":
        times = [spec.get(key) for key in _TRAPEZOID_KEYS]
        return all(map(_finite, times)) and times == sorted(times)
    return kind == "constant"


# (field, predicate on the scenario, rule) rows that Scenario checks once
# every float field is known to be finite. The frequency model divides by
# s_base_kw and damping and the diesel ramp by diesel_tau_s: zero gives
# NaN traces, and a negative value an unstable or sign-flipped response.
_FIELD_CHECKS = (
    ("s_base_kw", lambda s: s.s_base_kw > 0, "positive"),
    ("damping", lambda s: s.damping > 0, "positive"),
    ("diesel_tau_s", lambda s: s.diesel_tau_s > 0, "positive"),
    ("delta_i_a", lambda s: s.delta_i_a > 0, "positive"),
    ("i_ref0_a", lambda s: s.i_ref0_a >= 0, "non-negative"),
    ("ess_p_max_kw", lambda s: s.ess_p_max_kw >= 0, "non-negative"),
    ("ess_initial_kwh",
     lambda s: 0.0 <= s.ess_initial_kwh <= s.ess_capacity_kwh,
     "in [0, ess_capacity_kwh]"),
    ("diesel_initial_kw",
     lambda s: 0.0 <= s.diesel_initial_kw <= s.diesel_max_kw,
     "in [0, diesel_max_kw]"),
    ("f_nominal_hz", lambda s: s.f_nominal_hz > 0, "positive"),
    ("islanding_time_s", lambda s: s.islanding_time_s == 0,
     "0: a run starts at islanding"),
    ("irradiance", lambda s: _irradiance_ok(s.irradiance),
     "a constant or trapezoid profile: finite value and peak >= 0, and "
     "finite rise_start_s <= rise_end_s <= fall_start_s <= fall_end_s"),
)


@dataclass
class Scenario:
    """Complete, JSON-serializable description of one simulation run.

    load_schedule holds (time_s, total_kw) breakpoints, a step function;
    attack_schedule holds (start_s, end_s, AttackEffect) windows, active
    on [start, end). Islanding happens at time zero: the run covers only
    the islanded interval.
    """

    name: str = "nominal"
    duration_s: float = 60.0
    grid_dt_s: float = 0.01
    mppt_dt_s: float = 0.001
    islanding_time_s: float = 0.0
    pno_variant: str = "literal"
    pv: PvModel = field(default_factory=PvModel)
    delta_i_a: float = 2.185
    i_ref0_a: float = 43.7
    ess_p_max_kw: float = 100.0
    ess_capacity_kwh: float = 100.0
    ess_initial_kwh: float = 50.0
    diesel_max_kw: float = 1000.0
    diesel_tau_s: float = 2.0
    diesel_initial_kw: float = 0.0
    f_nominal_hz: float = NOMINAL_HZ
    k_f: float = 1.0
    damping: float = 0.5
    s_base_kw: float = 1000.0
    irradiance: dict = field(default_factory=lambda: {"kind": "constant",
                                                      "value": 1.0})
    load_schedule: list = field(
        default_factory=lambda: [(0.0, 500.0), (35.0, 800.0)])
    attack_schedule: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError("name must be a string")
        _check_finite(self)
        if self.duration_s <= 0 or self.grid_dt_s <= 0 or self.mppt_dt_s <= 0:
            raise ValueError("duration and timesteps must be positive")
        if not self.duration_s / self.grid_dt_s <= MAX_STEPS:
            raise ValueError(f"duration_s / grid_dt_s must not exceed "
                             f"{MAX_STEPS} steps")
        if self.n_steps < 1:
            raise ValueError("duration_s must cover at least one grid step")
        if not self.duration_s / self.mppt_dt_s <= MAX_TRACKER_UPDATES:
            raise ValueError(f"duration_s / mppt_dt_s must not exceed "
                             f"{MAX_TRACKER_UPDATES} tracker updates")
        sub = self.grid_dt_s / self.mppt_dt_s
        if abs(sub - round(sub)) > 1e-9 or round(sub) < 1:
            raise ValueError("grid_dt_s must be a whole multiple of "
                             "mppt_dt_s")
        if self.pno_variant not in ("literal", "symmetric"):
            raise ValueError(f"unknown tracker variant {self.pno_variant!r}")
        for name, ok, rule in _FIELD_CHECKS:
            if not ok(self):
                raise ValueError(f"{name} must be {rule}")
        if not all(_finite(t) and _finite(kw) and kw >= 0
                   for t, kw in self.load_schedule):
            raise ValueError("load_schedule needs finite times and finite, "
                             "non-negative loads")
        times = [t for t, _ in self.load_schedule]
        if not self.load_schedule or times != sorted(times):
            raise ValueError("load_schedule must be non-empty and "
                             "time-sorted")
        for start, end, eff in self.attack_schedule:
            if not (_finite(start) and _finite(end) and start < end):
                raise ValueError(f"attack_schedule window [{start}, {end}) "
                                 f"is empty or not finite")
            if not isinstance(eff, AttackEffect):
                raise TypeError("attack_schedule entries need an "
                                "AttackEffect")
        starts = [w[0] for w in self.attack_schedule]
        if starts != sorted(starts):
            raise ValueError("attack_schedule must be time-sorted")

    @property
    def substeps(self) -> int:
        return round(self.grid_dt_s / self.mppt_dt_s)

    @property
    def n_steps(self) -> int:
        return round(self.duration_s / self.grid_dt_s)

    def to_dict(self):
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "pv": self.pv.to_dict(), "irradiance": dict(self.irradiance),
                "load_schedule": [[t, kw] for t, kw in self.load_schedule],
                "attack_schedule": [[s, e, eff.to_dict()]
                                    for s, e, eff in self.attack_schedule]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d) -> "Scenario":
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object")
        pv = d.get("pv", {})
        for what, obj, known in (("scenario", d, cls), ("pv", pv, PvModel)):
            if not isinstance(obj, dict):
                raise ValueError(f"{what} must be a JSON object")
            bad = sorted(set(obj) - {f.name for f in fields(known)})
            if bad:
                raise ValueError(f"unknown {what} fields: {', '.join(bad)}")
        for key, width in (("load_schedule", 2), ("attack_schedule", 3)):
            entries = d.get(key, [])
            if not (isinstance(entries, list) and all(
                    isinstance(e, list) and len(e) == width for e in entries)):
                raise ValueError(f"{key} must be a list of {width}-item lists")
        kw = {**d, "pv": PvModel(**pv), "load_schedule": [
            (t, p) for t, p in d.get("load_schedule", [])]}
        try:
            kw["attack_schedule"] = [
                (s, e, AttackEffect.from_dict(eff))
                for s, e, eff in d.get("attack_schedule", [])]
        except ValueError as e:
            raise ValueError(f"attack_schedule: {e}") from None
        return cls(**kw)


def _irradiance_series(spec: dict, times: np.ndarray) -> np.ndarray:
    """Per-step irradiance of a profile that _irradiance_ok accepts."""
    if spec.get("kind", "constant") == "constant":
        return np.full(times.shape[0], float(spec.get("value", 1.0)))
    peak = float(spec.get("peak", 1.0))
    return np.interp(times, [float(spec[key]) for key in _TRAPEZOID_KEYS],
                     [0.0, peak, peak, 0.0], left=0.0, right=0.0)


def _compile_schedules(s: Scenario):
    n = s.n_steps
    times = np.arange(n, dtype=np.float64) * s.grid_dt_s
    pts = sorted(s.load_schedule)
    # Step function: each step takes the level of the last breakpoint at
    # or before it, and steps before the first breakpoint take its level.
    last = np.searchsorted([t for t, _ in pts], times + 1e-12,
                           side="right") - 1
    load = np.array([kw for _, kw in pts],
                    dtype=np.float64)[np.maximum(last, 0)]
    irr = _irradiance_series(s.irradiance, times)
    mppt_on = np.ones(n, dtype=bool)
    inv_on = np.ones(n, dtype=bool)
    pert_amp = np.zeros(n, dtype=np.float64)
    pert_freq = np.zeros(n, dtype=np.float64)
    for start, end, eff in s.attack_schedule:
        active = (times >= start - 1e-12) & (times < end - 1e-12)
        if eff.kind is AttackName.MPPT_OFF:
            mppt_on[active] = False
        elif eff.kind is AttackName.INVERTER_OFF:
            inv_on[active] = False
        else:
            pert_amp[active] = eff.amplitude
            pert_freq[active] = eff.frequency_hz
    return times, load, irr, mppt_on, inv_on, pert_amp, pert_freq


def run_scenario(s: Scenario, out_path=None) -> MgTrace:
    """Simulate the scenario and return its per-step MgTrace.

    The loop is fixed-step and seedless, so the same Scenario always
    produces byte-identical CSV output.
    """
    times, load, irr, mppt_on, inv_on, pert_amp, pert_freq = (
        _compile_schedules(s))
    out = _kernels.simulate_core(s.n_steps, s, load, irr, mppt_on, inv_on,
                                 pert_amp, pert_freq)
    trace = MgTrace(time_s=times, freq_hz=out[:, 0], pv_kw=out[:, 1],
                    diesel_kw=out[:, 2], ess_kw=out[:, 3], ess_kwh=out[:, 4],
                    load_kw=load, inverter_online=inv_on,
                    mppt_enabled=mppt_on)
    if out_path is not None:
        write_states_csv(trace, out_path)
    return trace


def write_states_csv(trace: MgTrace, path):
    """One row per step in CSV_COLUMNS order: time_s to the microsecond,
    the other floats as repr (so they read back bit for bit) and the two
    flags as 0/1, in CRLF-ended lines: the bytes csv.writer gives.

    Each row is written as it is formatted (_formatted), so a trace's
    text and its values as Python floats, about 3 MB for 6000 steps, are
    never held whole on top of what the caller holds (reproduce's trained
    models)."""
    columns = [_formatted(trace.time_s, "{:.6f}".format)]
    columns += [_formatted(getattr(trace, name), repr)
                for name in CSV_COLUMNS[1:-2]]
    columns += [map("01".__getitem__, getattr(trace, name).tolist())
                for name in CSV_COLUMNS[-2:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for line in map(",".join, zip(*columns)):
            fh.write(line + "\r\n")


# A float column with at most one distinct bit pattern per this many
# rows is formatted through a table of its patterns (_formatted).
_TABLE_ROWS_PER_VALUE = 16


def _formatted(column, fmt):
    """fmt of each float of column, in order, as an iterator of strings.

    A column of at most len(column) / _TABLE_ROWS_PER_VALUE distinct bit
    patterns formats each pattern once and indexes its string back: in a
    6000-step trace, pv_kw (1-36 patterns) took 0.5 ms this way against
    3.2 ms for a repr per row, and ess_kw and load_kw (1-2 patterns)
    0.5 ms against 0.8-1.4 ms; reproduce's five CSVs took 96 ms against
    118 ms (one process, min of 7). The patterns are group_rows' groups of
    the bits of the column's floats, so 0.0 and -0.0, and NaN payloads,
    stay apart. The index holds the smallest unsigned int per row and is
    read as the rows are written: a list of Python ints per row raised
    reproduce's peak RSS by 0.1 MB. The rule bounds memory, not time: a
    column of more patterns (freq_hz, diesel_kw and ess_kwh have one per
    step) is formatted row by row as it is read, since its table would
    hold the column's whole text; a table of at most one string per 16
    rows takes less than the column's own floats."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    group, first = _kernels.group_rows([bits])
    if first.shape[0] * _TABLE_ROWS_PER_VALUE > bits.shape[0]:
        return map(fmt, map(float, column))
    table = list(map(fmt, bits[first].view(np.float64).tolist()))
    index = group.astype(np.min_scalar_type(len(table)))
    return map(table.__getitem__, index)


def named_scenario(name: str) -> Scenario:
    """The five canned runs: an attack-free baseline and the four
    attacks layered onto it.

    The 500 kW -> 800 kW step at t = 35 s is the industrial feeder
    moving from 250 to 550 kW on top of a constant 250 kW residential
    block. The shipped runs use the symmetric tracker variant; the
    literal rule never leaves its initial operating point from a cold
    start (see _kernels.pno_update).
    """
    base = dict(duration_s=60.0, pno_variant="symmetric")
    if name == "nominal":
        return Scenario(name=name, **base)
    if name == "mppt_dos":
        return Scenario(name=name, attack_schedule=[
            (0.0, 60.0, AttackEffect(AttackName.MPPT_OFF))], **base)
    if name == "inverter_dos":
        return Scenario(name=name, attack_schedule=[
            (15.0, 30.0, AttackEffect(AttackName.INVERTER_OFF)),
            (45.0, 60.0, AttackEffect(AttackName.INVERTER_OFF))], **base)
    if name == "input_sine":
        return Scenario(name=name, attack_schedule=[
            (0.0, 60.0, AttackEffect(AttackName.SENSOR_PERTURB,
                                     amplitude=0.1, frequency_hz=0.5))],
            **base)
    if name == "input_sine_fast":
        return Scenario(name=name, attack_schedule=[
            (0.0, 60.0, AttackEffect(AttackName.SENSOR_PERTURB,
                                     amplitude=0.1, frequency_hz=5.0))],
            **base)
    raise ValueError(f"unknown scenario {name!r}; "
                     f"choose from {SCENARIO_NAMES}")
