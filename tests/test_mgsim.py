"""Microgrid dynamics against closed-form and grid-sweep oracles."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from hpc_sentinel import _kernels, mgsim


# --- PV curve -------------------------------------------------------------------

PV = mgsim.PvModel()


def pv_voltage(amps, irradiance=1.0):
    """Terminal voltage of the default array when the converter draws amps,
    the inverse of I(V) = g * i_sc * (1 - (V/v_oc)^knee)."""
    return _kernels.pv_voltage(amps, irradiance, PV.v_oc_v, PV.i_sc_a,
                               PV.knee)


def test_pv_curve_endpoints():
    assert pv_voltage(0.0) == PV.v_oc_v
    assert pv_voltage(PV.i_sc_a) == 0.0
    assert pv_voltage(0.4 * PV.i_sc_a, irradiance=0.4) == 0.0
    # past the short-circuit current and below zero the curve saturates
    assert pv_voltage(PV.i_sc_a + 1.0) == 0.0
    assert pv_voltage(-1.0) == PV.v_oc_v
    # on the curve, the current at that voltage is the one drawn
    v = pv_voltage(300.0, irradiance=0.8)
    assert 0.8 * PV.i_sc_a * (1.0 - (v / PV.v_oc_v) ** PV.knee) == \
        pytest.approx(300.0, rel=1e-12)


def test_pv_curve_monotone_decreasing():
    v = np.array([pv_voltage(i) for i in np.linspace(0.0, PV.i_sc_a, 400)])
    assert np.all(np.diff(v) <= 1e-9)


def grid_sweep_mpp(irradiance=1.0, step=0.01):
    """Independent maximum search: brute-force sweep of P = I * V(I) over
    the drawn current."""
    best_p, best_v = -1.0, 0.0
    i = 0.0
    while i <= PV.i_sc_a * irradiance:
        v = pv_voltage(i, irradiance=irradiance)
        if i * v > best_p:
            best_p, best_v = i * v, v
        i = round(i + step, 10)
    return best_p, best_v


def test_grid_sweep_mpp_location():
    best_p, best_v = grid_sweep_mpp()
    # analytic optimum of V*(1-(V/800)^10) sits at 800/11^0.1
    v_star = 800.0 / (11.0 ** 0.1)
    p_star = v_star * PV.i_sc_a * (1.0 - (v_star / PV.v_oc_v) ** PV.knee)
    assert best_v == pytest.approx(v_star, abs=0.1)
    assert best_p == pytest.approx(p_star, rel=1e-6)


# --- tracker --------------------------------------------------------------------

def pno(p_i, v_i, v_rt, i_rt, i_ref=100.0, i_max=437.0, symmetric=False):
    """One tracker update with a 2 A step; returns (p_i, v_i, i_ref)."""
    return _kernels.pno_update(p_i, v_i, i_ref, 2.0, v_rt, i_rt, i_max,
                               symmetric)


def test_pno_literal_acts_only_on_power_drop():
    # power dropped, voltage rose: slid down the knee, raise the current
    assert pno(1000.0, 500.0, 510.0, 1.0)[2] == pytest.approx(102.0)
    # power dropped, voltage fell: backed off too far, lower the current
    assert pno(1000.0, 500.0, 490.0, 1.0)[2] == pytest.approx(98.0)
    # power rose: the literal rule holds the command
    p_i, v_i, i_ref = pno(100.0, 500.0, 510.0, 10.0)
    assert i_ref == pytest.approx(100.0)
    # history always advances
    assert p_i == pytest.approx(5100.0) and v_i == pytest.approx(510.0)


def test_pno_symmetric_steers_on_power_rise():
    assert pno(100.0, 500.0, 510.0, 10.0, symmetric=True)[2] == \
        pytest.approx(98.0)
    assert pno(100.0, 500.0, 490.0, 10.0, symmetric=True)[2] == \
        pytest.approx(102.0)
    # on a power drop both variants agree
    assert pno(1000.0, 500.0, 510.0, 1.0) == \
        pno(1000.0, 500.0, 510.0, 1.0, symmetric=True)


def test_pno_at_zero_volts():
    # at or past short circuit power and voltage stay 0 whatever the
    # command does: the symmetric variant lowers the current, the literal
    # one holds it
    assert pno(0.0, 0.0, 0.0, 437.0, i_ref=437.0,
               symmetric=True)[2] == pytest.approx(435.0)
    assert pno(0.0, 0.0, 0.0, 437.0, i_ref=437.0)[2] == 437.0


def test_pno_clamps_to_current_limits():
    assert pno(1000.0, 500.0, 510.0, 1.0, i_ref=436.5)[2] == 437.0
    assert pno(1000.0, 500.0, 490.0, 1.0, i_ref=1.0)[2] == 0.0


# --- dispatch and frequency ------------------------------------------------------

def step_dispatch(load_kw, pv_kw, diesel_prev_kw, ess_kwh, dt_s):
    """One dispatch step with the default scenario's storage and diesel;
    returns (diesel_kw, ess_kw, ess_kwh_after)."""
    s = mgsim.Scenario()
    return _kernels.dispatch_update(
        load_kw, pv_kw, diesel_prev_kw, ess_kwh, s.ess_p_max_kw,
        s.ess_capacity_kwh, s.diesel_max_kw,
        math.exp(-dt_s / s.diesel_tau_s), dt_s)


def step_frequency(f_hz, imbalance_kw, dt_s):
    """One frequency step with k_f 1, damping 0.5 on a 1000 kW base."""
    return _kernels.frequency_step(f_hz, imbalance_kw, 1000.0, 1.0, 0.5,
                                   60.0, dt_s)


def test_dispatch_ess_absorbs_first():
    # deficit of 250 kW: storage covers its 100 kW limit, diesel ramps
    # toward the remaining 150 kW from standstill
    diesel, ess, kwh = step_dispatch(500.0, 250.0, 0.0, 50.0, 0.01)
    assert ess == pytest.approx(100.0)
    target = 150.0
    assert diesel == pytest.approx(target * (1.0 - math.exp(-0.01 / 2.0)))
    assert kwh == pytest.approx(50.0 - 100.0 * 0.01 / 3600.0)


def test_dispatch_surplus_charges_storage():
    diesel, ess, kwh = step_dispatch(100.0, 250.0, 0.0, 50.0, 0.01)
    assert ess == pytest.approx(-100.0)
    assert kwh == pytest.approx(50.0 + 100.0 * 0.01 / 3600.0)
    assert diesel == pytest.approx(0.0)


def test_dispatch_respects_energy_bounds():
    # storage nearly empty: it can only discharge what remains
    dt = 36.0  # one hundredth of an hour, keeps the arithmetic readable
    diesel, ess, kwh = step_dispatch(500.0, 0.0, 0.0, 0.5, dt)
    assert kwh >= 0.0
    assert ess == pytest.approx(0.5 / (dt / 3600.0))
    # full storage cannot absorb surplus
    diesel, ess, kwh = step_dispatch(0.0, 300.0, 0.0, 100.0, dt)
    assert kwh <= 100.0
    assert ess == pytest.approx(0.0)


def test_diesel_exponential_ramp_closed_form():
    # holding a constant 150 kW residual, the engine follows the
    # first-order step response exactly
    dt, tau, target = 0.01, 2.0, 150.0
    diesel = 0.0
    kwh = 0.0  # storage empty so the whole residual lands on the engine
    for k in range(1, 201):
        diesel, _, kwh = step_dispatch(150.0, 0.0, diesel, kwh, dt)
        want = target * (1.0 - math.exp(-k * dt / tau))
        assert diesel == pytest.approx(want, rel=1e-9)


def test_frequency_equilibrium_and_closed_form():
    # zero imbalance decays to nominal
    f = 59.5
    for _ in range(4000):
        f = step_frequency(f, 0.0, 0.01)
    assert f == pytest.approx(60.0, abs=1e-6)
    # constant imbalance lands on the droop equilibrium
    imb, k_f, damping = 80.0, 1.0, 0.5
    f_eq = 60.0 + k_f * (imb / 1000.0) / damping
    f = 60.0
    for _ in range(8000):
        f = step_frequency(f, imb, 0.01)
    assert f == pytest.approx(f_eq, abs=1e-9)
    # single step matches the exponential relaxation toward f_eq
    got = step_frequency(60.0, imb, 0.01)
    want = f_eq + (60.0 - f_eq) * math.exp(-damping * 0.01)
    assert got == pytest.approx(want, rel=1e-12)


def test_frequency_sign_follows_imbalance():
    up = step_frequency(60.0, 200.0, 0.01)
    down = step_frequency(60.0, -200.0, 0.01)
    assert up > 60.0 > down


# --- scenarios -------------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ValueError):
        mgsim.Scenario(name="x", duration_s=-1.0)
    with pytest.raises(ValueError):
        mgsim.Scenario(name="x", grid_dt_s=0.0)
    with pytest.raises(ValueError):
        mgsim.Scenario(name="x", pno_variant="diagonal")
    with pytest.raises(ValueError):
        mgsim.Scenario(name="x", mppt_dt_s=0.02, grid_dt_s=0.01)


def test_scenario_json_round_trip():
    s = mgsim.named_scenario("input_sine")
    back = mgsim.Scenario.from_dict(json.loads(s.to_json()))
    assert back == s
    obj = json.loads(s.to_json())
    assert obj["name"] == "input_sine"


def test_named_scenetypes_and_unknown():
    for name in mgsim.SCENARIO_NAMES:
        s = mgsim.named_scenario(name)
        assert s.name == name
        assert s.pno_variant == "symmetric"
    with pytest.raises(ValueError):
        mgsim.named_scenario("doomsday")


def _short(name, duration=8.0):
    s = mgsim.named_scenario(name)
    return mgsim.Scenario.from_dict({**s.to_dict(), "duration_s": duration})


def test_run_scenario_row_shape_and_grid():
    s = _short("nominal")
    trace = mgsim.run_scenario(s)
    assert len(trace) == s.n_steps
    for name in mgsim.CSV_COLUMNS:
        assert getattr(trace, name).shape == (s.n_steps,)
    assert trace.time_s[0] == pytest.approx(0.0)
    assert trace.time_s[1] - trace.time_s[0] == pytest.approx(s.grid_dt_s)
    assert trace.load_kw[:100] == pytest.approx(500.0)
    assert trace.inverter_online[:100].all()
    assert trace.mppt_enabled[:100].all()


def test_run_scenario_physical_envelopes():
    s = _short("nominal", duration=20.0)
    trace = mgsim.run_scenario(s)
    assert np.all(0.0 <= trace.ess_kwh)
    assert np.all(trace.ess_kwh <= s.ess_capacity_kwh + 1e-9)
    assert np.all(np.abs(trace.ess_kw) <= s.ess_p_max_kw + 1e-9)
    assert np.all(-1e-9 <= trace.diesel_kw)
    assert np.all(trace.diesel_kw <= s.diesel_max_kw + 1e-9)
    assert np.all(trace.pv_kw >= -1e-9)


def test_run_scenario_storage_energy_bookkeeping():
    s = _short("nominal", duration=5.0)
    trace = mgsim.run_scenario(s)
    dt_h = s.grid_dt_s / 3600.0
    drop = trace.ess_kwh[:-1] - trace.ess_kwh[1:]
    assert drop == pytest.approx(trace.ess_kw[1:] * dt_h, abs=1e-9)


def test_run_scenario_deterministic_csv(tmp_path):
    s = _short("input_sine", duration=4.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mgsim.run_scenario(s, out_path=p1)
    mgsim.run_scenario(s, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ("time_s,freq_hz,pv_kw,diesel_kw,ess_kw,ess_kwh,"
                      "load_kw,inverter_online,mppt_enabled")


def _load_by_loop(load_schedule, times):
    """Reference step function: walk the breakpoints once per step."""
    pts = sorted(load_schedule)
    level, j, out = pts[0][1], 0, []
    for t in times:
        while j < len(pts) and pts[j][0] <= t + 1e-12:
            level = pts[j][1]
            j += 1
        out.append(level)
    return np.array(out)


@pytest.mark.parametrize("grid_dt_s, schedule", [
    (0.01, [(0.0, 500.0), (35.0, 800.0)]),
    (0.01, [(0.5, 400.0), (4.0, 650.0), (8.03, 300.0)]),  # first after 0
    (0.01, [(0.0, 1.0), (2.0, 3.0), (2.0, 5.0), (2.0, 2.0), (9.99, 0.0)]),
    (0.01, [(0.0, 7.0), (0.01, 8.0), (0.02, 9.0), (0.025, 1.0)]),
    (0.01, [(20.0, 100.0)]),                       # after the last step
    # 11 * 0.03 and 15 * 0.03 fall just below 0.33 and 0.45
    (0.03, [(0.0, 1.0), (0.33, 2.0), (0.45, 3.0)]),
])
def test_load_schedule_matches_step_loop(grid_dt_s, schedule):
    s = mgsim.Scenario(name="x", duration_s=10.0, grid_dt_s=grid_dt_s,
                       load_schedule=schedule)
    times, load = mgsim._compile_schedules(s)[:2]
    assert load.dtype == np.float64
    assert np.array_equal(load, _load_by_loop(schedule, times))


def test_mppt_converges_near_mpp():
    s = _short("nominal", duration=20.0)
    trace = mgsim.run_scenario(s)
    p_star, _ = grid_sweep_mpp()
    tail = trace.pv_kw[trace.time_s >= 10.0]
    assert np.mean(tail) * 1000.0 == pytest.approx(p_star, rel=0.02)


def test_mppt_tracks_trapezoid_from_dark_start():
    # irradiance ramps up from 0, where every command is at or past the
    # short-circuit current; the tracker still reaches the plateau's MPP
    s = mgsim.Scenario.from_dict({
        **_short("nominal", duration=20.0).to_dict(),
        "irradiance": {"kind": "trapezoid", "rise_start_s": 0.0,
                       "rise_end_s": 10.0, "fall_start_s": 20.0,
                       "fall_end_s": 30.0, "peak": 1.0}})
    trace = mgsim.run_scenario(s)
    plateau = trace.pv_kw[trace.time_s >= 15.0]
    assert plateau.min() >= 0.95 * s.pv.p_rated_kw


def test_literal_tracker_holds_command_through_dark_start():
    # the literal rule sees no power drop while the panel is dark, so it
    # keeps its initial command and the plateau gives that command's power
    s = mgsim.Scenario.from_dict({
        **mgsim.Scenario(duration_s=20.0).to_dict(),
        "irradiance": {"kind": "trapezoid", "rise_start_s": 0.0,
                       "rise_end_s": 10.0, "fall_start_s": 20.0,
                       "fall_end_s": 30.0, "peak": 1.0}})
    assert s.pno_variant == "literal"
    trace = mgsim.run_scenario(s)
    i0 = s.i_ref0_a
    p0_kw = i0 * _kernels.pv_voltage(i0, 1.0, s.pv.v_oc_v, s.pv.i_sc_a,
                                     s.pv.knee) / 1000.0
    plateau = trace.pv_kw[trace.time_s >= 15.0]
    assert np.allclose(plateau, p0_kw, rtol=1e-12)


def test_inverter_dos_gates_pv_output():
    s = mgsim.named_scenario("inverter_dos")
    trace = mgsim.run_scenario(s)
    t = trace.time_s
    offline = ((15.0 <= t) & (t < 30.0)) | (t >= 45.0)
    assert np.all(trace.pv_kw[offline] == 0.0)
    assert not trace.inverter_online[offline].any()
    assert trace.inverter_online[~offline].all()


def test_load_step_appears_in_rows():
    s = mgsim.named_scenario("nominal")
    trace = mgsim.run_scenario(s)
    before = trace.load_kw[trace.time_s < 35.0]
    after = trace.load_kw[trace.time_s >= 35.0]
    assert set(before.tolist()) == {500.0}
    assert set(after.tolist()) == {800.0}


# --- step replay ------------------------------------------------------------------

def reference_simulate_core(n_steps, s, load_kw, irr, mppt_on, inv_on,
                            pert_amp, pert_freq):
    """_kernels.simulate_core without step replay: every tracker substep
    of every step is computed, on numpy scalars read from the scenario."""
    v_oc, i_sc, knee = (np.float64(getattr(s.pv, name))
                        for name in ("v_oc_v", "i_sc_a", "knee"))
    (grid_dt, mppt_dt, d_i, i_ref, ess_p_max, ess_cap, ess_e, diesel_max,
     tau_d, diesel, f_nom, k_f, damping, s_base) = (
        np.float64(getattr(s, name)) for name in (
            "grid_dt_s", "mppt_dt_s", "delta_i_a", "i_ref0_a",
            "ess_p_max_kw", "ess_capacity_kwh", "ess_initial_kwh",
            "diesel_max_kw", "diesel_tau_s", "diesel_initial_kw",
            "f_nominal_hz", "k_f", "damping", "s_base_kw"))
    substeps = s.substeps
    symmetric = s.pno_variant == "symmetric"
    ramp_k = math.exp(-grid_dt / tau_d)
    p_i = v_i = 0.0
    freq = f_nom
    out = np.empty((n_steps, 6), dtype=np.float64)
    for k in range(n_steps):
        g = irr[k]
        t0 = k * grid_dt
        if inv_on[k] != 0:
            acc = 0.0
            for j in range(substeps):
                i_act = i_ref
                lim = g * i_sc
                if i_act > lim:
                    i_act = lim
                v_rt = _kernels.pv_voltage(i_act, g, v_oc, i_sc, knee)
                acc += v_rt * i_act
                if mppt_on[k] != 0:
                    amp = pert_amp[k]
                    if amp > 0.0:
                        wig = 1.0 + amp * math.sin(
                            2.0 * math.pi * pert_freq[k] * (t0 + j * mppt_dt))
                        vm = v_rt * wig
                        im = i_act * wig
                    else:
                        vm = v_rt
                        im = i_act
                    p_i, v_i, i_ref = _kernels.pno_update(
                        p_i, v_i, i_ref, d_i, vm, im, i_sc, symmetric)
            pv_kw = acc / substeps / 1000.0
        else:
            pv_kw = 0.0
        diesel, ess, ess_e = _kernels.dispatch_update(
            load_kw[k], pv_kw, diesel, ess_e,
            ess_p_max, ess_cap, diesel_max, ramp_k, grid_dt)
        imbalance = pv_kw + diesel + ess - load_kw[k]
        freq = _kernels.frequency_step(freq, imbalance, s_base, k_f, damping,
                                       f_nom, grid_dt)
        out[k] = (freq, pv_kw, diesel, ess, ess_e, i_ref)
    return out


def _kernel_args(spec):
    """The arguments run_scenario passes simulate_core for a scenario
    given as a dict over the defaults of a 10 s symmetric-tracker run."""
    s = mgsim.Scenario.from_dict({
        **mgsim.Scenario(duration_s=10.0, pno_variant="symmetric").to_dict(),
        **spec})
    captured = []
    kernel = _kernels.simulate_core

    def capture(*args):
        captured.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "simulate_core", capture)
        mgsim.run_scenario(s)
    return captured[0]


DARK_START = {"kind": "trapezoid", "rise_start_s": 0.0, "rise_end_s": 3.0,
              "fall_start_s": 6.0, "fall_end_s": 9.0, "peak": 1.0}


@pytest.mark.parametrize("spec", [
    {"load_schedule": [[0.0, 500.0], [5.0, 800.0]]},
    {"load_schedule": [[0.0, 500.0], [2.0, 100.0]]},   # PV charges the ESS
    {"irradiance": DARK_START},
    {"irradiance": DARK_START, "pno_variant": "literal"},
    {"attack_schedule": [[2.0, 5.0, {"kind": "mppt_off"}]]},
    {"attack_schedule": [[2.0, 4.0, {"kind": "inverter_off"}]]},
    {"attack_schedule": [[3.0, 6.0, {"kind": "sensor_perturb",
                                     "amplitude": 0.1,
                                     "frequency_hz": 2.0}]]},
], ids=["load_step", "load_drop", "dark_start_symmetric", "dark_start_literal",
        "mppt_off", "inverter_off", "sensor_perturb"])
def test_step_replay_matches_full_substep_loop(spec):
    args = _kernel_args(spec)
    replay = {}
    got = _kernels.simulate_core(*args, replay=replay)
    assert got.tobytes() == reference_simulate_core(*args).tobytes()
    assert 0 < len(replay) < args[0]     # some steps were replayed


def test_step_replay_table_stays_bounded(monkeypatch):
    class Watched(dict):
        largest = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.largest = max(self.largest, len(self))

    # every step of the ramps is a new key
    monkeypatch.setattr(_kernels, "REPLAY_SLOTS", 16)
    args = _kernel_args({"irradiance": DARK_START})
    replay = Watched()
    got = _kernels.simulate_core(*args, replay=replay)
    assert replay.largest == 16
    assert got.tobytes() == reference_simulate_core(*args).tobytes()


def test_states_csv_equals_csv_writer(tmp_path):
    # the line writer gives csv.writer's bytes: CRLF lines, floats as
    # repr (signed zeros, subnormals, non-finite values), flags as 0/1
    trace = mgsim.run_scenario(mgsim.named_scenario("input_sine"))
    odd = [0.0, -0.0, 5e-324, -1.5e300, math.inf, -math.inf, math.nan,
           1 / 3, 60.000000001]
    cols = {name: getattr(trace, name).copy() for name in mgsim.CSV_COLUMNS}
    for i, name in enumerate(mgsim.CSV_COLUMNS[1:-2]):
        cols[name][:len(odd)] = np.roll(odd, i)
    cols["time_s"][:3] = [1e-7, 2.5e-7, 123456.0000005]
    cols["mppt_enabled"][::7] = False
    trace = mgsim.MgTrace(**cols)
    mgsim.write_states_csv(trace, tmp_path / "lines.csv")
    with open(tmp_path / "writer.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(mgsim.CSV_COLUMNS)
        w.writerows(zip(map("{:.6f}".format, trace.time_s.tolist()),
                        *(getattr(trace, name).tolist()
                          for name in mgsim.CSV_COLUMNS[1:-2]),
                        *(getattr(trace, name).astype(int).tolist()
                          for name in mgsim.CSV_COLUMNS[-2:])))
    assert ((tmp_path / "lines.csv").read_bytes()
            == (tmp_path / "writer.csv").read_bytes())


def test_states_csv_streams_rows(tmp_path):
    # reproduce writes the five traces on top of its trained models, so
    # a 6000-step trace's text and Python floats (about 3 MB) must never
    # be held at once
    trace = mgsim.run_scenario(mgsim.named_scenario("nominal"))
    tracemalloc.start()
    try:
        mgsim.write_states_csv(trace, tmp_path / "sim.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 6000 and peak < 2**20
