"""Microgrid dynamics against closed-form and grid-sweep oracles."""

import json
import math

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
    back = mgsim.Scenario.from_json(s.to_json())
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
