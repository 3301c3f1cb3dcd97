"""Adaptive corner integration: events, sampling, conservation, oracle."""
import math
import time

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    IntegrationFailure,
    InvalidInput,
    ScaleFreeRun,
    ScaledState,
    SingularRadius,
    characteristic_roots,
    integrate_corner,
    kernel_K2_dot,
    kernels_K2_H2,
    oracle_fast_time_integration,
    radial_rhs,
    scaled_params_direct,
    scaled_params_from_physical,
    scaled_to_cartesian,
)
from cornerimpact import _kernels
from cornerimpact._kernels import _rhs, _substep, integrate_radial
from cornerimpact.corner_phase import ORACLE_MAX_RHS, default_horizon

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def params_at(eta):
    return scaled_params_direct(eta, "derive", UNIT, DAMP2)


def lin_roots(damping):
    """(xi1, xi2, 2 sqrt(D)), the kernel's view of the linear part."""
    return damping.xi1, damping.xi2, 2.0 * damping.sqrt_delta


def test_radial_rhs_values():
    p = params_at(1e-2)
    dR, ddR, dTh = radial_rhs(ScaledState(0.0, 1.0, 0.5, 0.0), p)
    c3 = p.E * (1.0 - p.eps) ** 2
    assert dR == 0.5
    assert ddR == pytest.approx(c3 - 2.0 * 2.0 * 0.5 - 1.0, rel=1e-15)
    assert dTh == pytest.approx(math.sqrt(p.E) * (1.0 - p.eps), rel=1e-15)
    with pytest.raises(SingularRadius):
        radial_rhs(ScaledState(0.0, 0.0, 0.5, 0.0), p)
    with pytest.raises(SingularRadius):
        radial_rhs(ScaledState(0.0, -1.0, 0.5, 0.0), p)


def test_acute_exit_regression():
    # Deterministic pin.
    res = integrate_corner(params_at(1e-2), ACUTE)
    assert res.exit_tau == pytest.approx(4.9997617401402155e-05, rel=1e-12,
                                         abs=0.0)
    st = res.exit_state
    assert st.R == pytest.approx(0.005773081589641302, rel=1e-12, abs=0.0)
    assert st.dR == pytest.approx(86.59130465777689, rel=1e-12)
    assert abs(st.Theta - ACUTE.theta_bar) <= 1e-14
    assert res.tau[-1] == res.exit_tau


def test_obtuse_exit_regression():
    res = integrate_corner(params_at(1e-2), OBTUSE)
    assert res.exit_tau == pytest.approx(12.516784287211966, rel=1e-12)
    assert res.exit_state.R == pytest.approx(1.0254348268261178, rel=1e-12)
    assert abs(res.exit_state.Theta - OBTUSE.theta_bar) <= 1e-14
    # The obtuse passage exits well before the default settle horizon.
    assert res.exit_tau < res.horizon


def test_angle_event_tolerance():
    for eta in (1e-2, 1e-3):
        res = integrate_corner(params_at(eta), ACUTE)
        assert abs(res.exit_state.Theta - ACUTE.theta_bar) <= 1e-14


# (alpha, theta_bar, eta): two acute exits and one obtuse.
REFERENCE_CASES = [(2.0, math.pi / 3.0, 0.1), (1.5, 1.2, 0.1),
                   (1.5, 2.0 * math.pi / 3.0, 0.1)]


@pytest.mark.parametrize("alpha, theta_bar, eta", REFERENCE_CASES)
def test_exit_time_matches_high_precision_reference(alpha, theta_bar, eta):
    # The same scaled flow solved by a 25-digit Taylor series and rooted
    # at Theta = theta_bar: the exit time is off by the integration error
    # alone, at rtol 1e-10 and at rtol 1e-13.
    mp = pytest.importorskip("mpmath")
    p = scaled_params_direct(eta, "derive", UNIT, characteristic_roots(alpha))
    cone = ConeGeometry(theta_bar)
    runs = {rtol: integrate_corner(p, cone, rtol=rtol, atol=1e-2 * rtol)
            for rtol in (1e-10, 1e-13)}
    with mp.workdps(25):
        one = 1 - mp.mpf(p.eps)
        c3 = mp.mpf(p.E) * one * one
        cth = mp.sqrt(mp.mpf(p.E)) * one
        a = mp.mpf(p.damping.alpha)
        sol = mp.odefun(
            lambda t, y: [y[1], c3 / y[0] ** 3 - 2 * a * y[1] - y[0],
                          cth / y[0] ** 2],
            0, [mp.mpf(p.R0), mp.mpf(p.dR0), mp.mpf(0)])
        ref = float(mp.findroot(lambda t: sol(t)[2] - theta_bar,
                                mp.mpf(runs[1e-13].exit_tau)))
    for rtol, res in runs.items():
        assert abs(res.exit_tau - ref) <= 10.0 * rtol * ref, rtol


def test_acute_exit_time_scale():
    # tau_bar ~ tau0 + 0.5 eta^2 for unit data at theta_bar = pi/3.
    for eta in (1e-2, 1e-3):
        p = params_at(eta)
        res = integrate_corner(p, ACUTE)
        est = p.tau0 + 0.5 * eta * eta
        assert res.exit_tau / est == pytest.approx(1.0, abs=5e-3)


def test_samples_start_at_zero_and_increase():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE)
    assert res.tau[0] == 0.0
    assert res.R[0] == p.R0 and res.dR[0] == p.dR0 and res.Theta[0] == 0.0
    assert np.all(np.diff(res.tau) > 0.0)
    assert res.n_accepted + 1 >= res.tau.size - 1


def test_eval_grid_states():
    p = params_at(1e-2)
    ev = np.array([1e-4, 1e-2, 1.0, 5.0])
    res = integrate_corner(p, OBTUSE, stop_at_event=False, horizon=6.0)
    st = res.sample(ev)
    np.testing.assert_array_equal(st.tau, ev)
    # Sampled states interleave consistently with the accepted samples.
    interp_R = np.interp(ev, res.tau, res.R)
    np.testing.assert_allclose(st.R, interp_R, rtol=5e-3)
    # Momentum holds at the samples too.
    mom = st.R ** 2 * (math.sqrt(p.E) * (1 - p.eps) / st.R ** 2)
    np.testing.assert_allclose(mom, p.momentum, rtol=1e-15)


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_dense_output_matches_single_step(cone):
    # Samples come from the single-step map from the covering step's
    # start, evaluated for all of them at once; the scalar map is the
    # reference.
    p = params_at(1e-3)
    res = integrate_corner(p, cone)
    rng = np.random.default_rng(20)
    step = rng.integers(0, res.tau.size - 1, 50)
    x = rng.uniform(0.0, 1.0, 50)
    ev = np.unique(res.tau[step] + x * (res.tau[step + 1] - res.tau[step]))
    st = res.sample(ev)
    np.testing.assert_array_equal(st.tau, ev)

    one = 1.0 - p.eps
    c3, cth = p.E * one * one, math.sqrt(p.E) * one
    lin = lin_roots(p.damping)
    ref = np.empty((ev.size, 3))
    for j, tau in enumerate(ev):
        i = np.searchsorted(res.tau, tau, side="right") - 1
        R, V, T = res.R[i], res.dR[i], res.Theta[i]
        ok, *ref[j] = _substep(R, V, T, *_rhs(R, c3, cth), tau - res.tau[i],
                               c3, cth, *lin)
        assert ok
    np.testing.assert_allclose(st.R, ref[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(st.Theta, ref[:, 2], rtol=1e-13, atol=0.0)
    # dR changes sign at the turning point: relative to its scale.
    dR_scale = np.max(np.abs(res.dR))
    assert np.max(np.abs(st.dR - ref[:, 1])) <= 1e-13 * dR_scale


def test_linear_part_is_exact():
    # Without the penalty term the flow is the damped-linear propagator
    # itself; Lawson steps carry it exactly, so the step size is free to
    # grow to the horizon.
    R0, V0 = 1.0, -0.3
    ts, ys, exit, nacc, _ = integrate_radial(
        R0, V0, 0.0, 0.0, *lin_roots(DAMP2), 1.0, 50.0, 1e-10, 1e-12,
        1e-3, True)
    assert exit is None and nacc <= 10
    assert ts[-1] == 50.0
    K2, H2 = kernels_K2_H2(DAMP2, ts)
    dK2 = kernel_K2_dot(DAMP2, ts)
    np.testing.assert_allclose(ys[:, 0], H2 * R0 + K2 * V0, rtol=1e-13,
                               atol=0.0)
    np.testing.assert_allclose(ys[:, 1], -K2 * R0 + dK2 * V0, rtol=1e-13,
                               atol=0.0)


def test_rest_point_is_exact():
    # At the rest point Rc = c3^(1/4) the penalty force balances the
    # spring.  Each step is taken about the rest point of the frozen
    # force, so it is exact there: the run stays put and its step grows to
    # the horizon, as in the settle phase of a run past the exit.
    c3, cth = 0.3, 0.5
    Rc = c3 ** 0.25
    ts, ys, exit, nacc, _ = integrate_radial(
        Rc, 0.0, c3, cth, *lin_roots(characteristic_roots(8.0)), math.inf,
        50.0, 1e-10, 1e-12, 1e-3, True)
    assert exit is None and nacc <= 10 and ts[-1] == 50.0
    np.testing.assert_allclose(ys[:, 0], Rc, rtol=1e-14, atol=0.0)
    assert np.max(np.abs(ys[:, 1])) <= 1e-14 * Rc
    np.testing.assert_allclose(ys[:, 2], cth / Rc ** 2 * ts, rtol=1e-13,
                               atol=0.0)


@pytest.mark.parametrize("cth,error,message", [
    (0.0, SingularRadius, "radius collapsed"),
    (0.5, IntegrationFailure, "step size underflow"),
])
def test_kernel_step_underflow(cth, error, message):
    # With c3 = 0 nothing stops the radius, which reaches zero near
    # tau = 0.127.  Without an angle the last rejected steps have stage
    # radii outside (0, inf); with cth = 0.5 the error test of the angle
    # quadrature rejects them first.
    with pytest.raises(error, match=message):
        integrate_radial(1.0, -10.0, 0.0, cth, *lin_roots(DAMP2), math.inf,
                         50.0, 1e-10, 1e-12, 1e-3, True)


def test_step_budget_names_the_kernel_budget(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPS", 10)
    with pytest.raises(IntegrationFailure, match="step budget 10 exhausted"):
        integrate_corner(params_at(1e-2), OBTUSE)


# Exit (tau, R, R', Theta), the last sample, the states ``sample`` gives
# at the times in ``samples`` that the run covered, and the step counts of
# four runs, pinned bit for bit (rtol 1e-10, atol 1e-12).  The acute run
# stops at its exit near 5e-5, before every sample time.
# At eta = 1e-20 the obtuse run takes Lawson steps tens of tau long and
# the samples fall inside them.  "past_exit" is the asym-report run: it
# continues past the exit to tau3 = zeta ln(1/eta) at alpha = 8 and
# settles toward the rest point Rc, where the step is taken about w = n1.
BITWISE_PINS = {
    "acute": dict(
        eta=1e-2, cone=ACUTE, samples=[1e-4, 1e-2, 0.5],
        exit=(4.9997617401402155e-05, 0.005773081589641302,
              86.59130465777689, 1.0471975511965976),
        R=[], dR=[], Theta=[], steps=(53, 0)),
    "obtuse": dict(
        eta=1e-2, cone=OBTUSE, samples=[1e-4, 1e-2, 0.5],
        exit=(12.516784287211966, 1.0254348268261178, -0.2575705735704632,
              2.0943951023931953),
        R=[0.010407197559978392, 0.9804259663192579, 20.784766543427956],
        dR=[96.0498928421035, 96.09103743542535, 9.907297643268851],
        Theta=[1.289813359528239, 1.5684222301103354, 1.571828767599425],
        steps=(252, 0)),
    "obtuse_far": dict(
        eta=1e-20, cone=OBTUSE, samples=[1.0, 20.0, 60.0, 120.0, 160.0],
        exit=(167.19758058098014, 1.0252001001012556, -0.25749571991447,
              2.0943951023931953),
        R=[2.139091302813837e+19, 1.3584143569910666e+17,
           3008001405344.153, 313434.42400606157, 6.940578532657352],
        dR=[-3.337309714260046e+18, -3.639860299425991e+16,
            -805991547393.6481, -83984.5007925383, -1.8596674625207796],
        Theta=[1.5707963279009665, 1.5707963279009665, 1.5707963279009665,
               1.5707963279064505, 1.5819788524165923],
        steps=(340, 22)),
    "past_exit": dict(
        eta=1e-2, alpha=8.0, cone=ACUTE, horizon=36.69688332983271,
        samples=[1e-4, 1e-2, 0.5, 5.0, 30.0],
        exit=(1.0910560790904328e-05, 0.0012598152342222133,
              86.59305062095987, 1.0471975511965976),
        last=(36.69688332983271, 0.6339250781694045, -0.03881004528695248,
              2.818272770251655),
        R=[0.010013064117653932, 0.9242316605941496, 6.103630775045192,
           4.603814640724943, 0.9602011418210945],
        dR=[99.65692801898618, 85.22335691995758, -0.34835685288262896,
            -0.28886873907796323, -0.059970859032666295],
        Theta=[1.5080309297704406, 1.5707652763164472, 1.5723445561926834,
               1.5825635891965761, 2.104170583394649],
        steps=(813, 0)),
}


@pytest.mark.parametrize("case", BITWISE_PINS)
def test_bitwise_pin(case):
    pin = BITWISE_PINS[case]
    params = scaled_params_direct(pin["eta"], "derive", UNIT,
                                  characteristic_roots(pin.get("alpha", 2.0)))
    res = integrate_corner(params, pin["cone"], rtol=1e-10, atol=1e-12,
                           horizon=pin.get("horizon"),
                           stop_at_event="horizon" not in pin)
    st = res.exit_state
    assert (res.exit_tau, st.R, st.dR, st.Theta) == pin["exit"]
    last = (res.tau[-1], res.R[-1], res.dR[-1], res.Theta[-1])
    assert tuple(map(float, last)) == pin.get("last", pin["exit"])
    sampled = res.sample([t for t in pin["samples"] if t <= res.tau[-1]])
    for name in ("R", "dR", "Theta"):
        assert list(map(float, getattr(sampled, name))) == pin[name], name
    assert (res.n_accepted, res.n_rejected) == pin["steps"]


def test_obtuse_cost_is_flat_in_k():
    # Along the second asymptotic R decays from ~1/eta at the exact linear
    # rate, so shrinking eta by two orders of magnitude adds only the
    # steps of the longer approach, not thousands.
    cone = ConeGeometry(2.0)
    steps = [integrate_corner(scaled_params_from_physical(UNIT, DAMP2, k),
                              cone).n_accepted for k in (1e4, 1.2e6)]
    assert max(steps) < 2 * min(steps), steps


def test_samples_across_long_steps():
    # At eta = 1e-20 the obtuse passage takes steps of tens of tau units
    # while R >> 1; samples inside them stay finite and accurate.
    p = params_at(1e-20)
    run = integrate_corner(p, OBTUSE)
    assert np.max(np.diff(run.tau)) > 10.0
    ev = np.linspace(0.1, 0.99, 300) * run.exit_tau
    res = run.sample(ev)
    ref = integrate_corner(p, OBTUSE, rtol=1e-13, atol=1e-15).sample(ev)
    for name in ("R", "dR", "Theta"):
        got, want = getattr(res, name), getattr(ref, name)
        assert got.size == 300 and np.all(np.isfinite(got)), name
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0,
                                   err_msg=name)


def test_sample_outside_the_run_is_invalid():
    # The run stops at its exit near 5e-5: its window is [0, exit], in
    # any order, and every time outside it, or not finite, or not in a
    # 1-D array, is refused.
    p = params_at(1e-2)
    res = integrate_corner(p, ACUTE)
    st = res.sample([res.exit_tau, 0.0])
    assert st.R[1] == p.R0 and st.dR[1] == p.dR0 and st.Theta[1] == 0.0
    assert st.Theta[0] == pytest.approx(ACUTE.theta_bar, rel=1e-14)
    assert res.sample([]).R.size == 0
    for bad in ([1e-2], [-1e-9], [math.nan], [math.inf], [[1e-5]], 1e-5):
        with pytest.raises(InvalidInput, match="corner sample times"):
            res.sample(bad)
    # A run to its horizon covers it, past the exit.
    run = integrate_corner(p, OBTUSE, horizon=20.0, stop_at_event=False)
    assert run.tau[-1] >= 20.0 > run.exit_tau
    assert np.all(np.isfinite(run.sample([run.exit_tau, 20.0]).R))


def test_eval_point_at_accepted_time_matches_state():
    # Sampling at an accepted time reproduces the stored state up to one
    # rounding of the step-offset subtraction.
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, horizon=2.0)
    st = res.sample([res.tau[5]])
    assert st.R[0] == pytest.approx(res.R[5], rel=1e-14)
    assert st.dR[0] == pytest.approx(res.dR[5], rel=1e-13, abs=1e-14)


def test_sample_at_step_starts():
    # At offset 0 the single-step map gives R' and Theta exactly and R as
    # w + (R - w), within an ulp; it is not exact in R.
    res = integrate_corner(params_at(1e-2), ConeGeometry(2.0), horizon=20.0,
                           stop_at_event=False)
    starts = res.tau[:-1]
    st = res.sample(starts)
    assert starts.size > 400
    assert np.all(np.abs(st.R - res.R[:-1]) <= np.spacing(res.R[:-1]))
    np.testing.assert_array_equal(st.dR, res.dR[:-1])
    np.testing.assert_array_equal(st.Theta, res.Theta[:-1])


def test_continue_after_event():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, stop_at_event=False)
    assert res.exit_tau is not None
    assert res.tau[-1] >= res.horizon
    assert res.tau[-1] == pytest.approx(res.horizon, rel=1e-12)
    assert res.tau[-1] > res.exit_tau


def test_zero_horizon():
    res = integrate_corner(params_at(1e-2), ACUTE, horizon=0.0)
    assert res.tau.size == 1 and res.tau[0] == 0.0
    assert res.n_accepted == 0


def test_default_horizon_budget():
    p = params_at(1e-2)
    expected = (0.5 / abs(DAMP2.xi1)) * math.log(1.0 / p.eta) \
        * (1.0 + 2.0 * 2.3680339887498949)
    assert default_horizon(p) == pytest.approx(expected, rel=1e-12)


def test_input_validation():
    p = params_at(1e-2)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, rtol=0.0)
    with pytest.raises(InvalidInput, match="rtol must be at least"):
        integrate_corner(p, ACUTE, rtol=1e-24, atol=1e-26)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, horizon=-1.0)


def test_tolerance_consistency():
    # Tighter tolerances change the exit time only within the looser one.
    p = params_at(1e-2)
    loose = integrate_corner(p, OBTUSE, rtol=1e-6, atol=1e-9)
    tight = integrate_corner(p, OBTUSE, rtol=1e-12, atol=1e-13)
    assert loose.exit_tau == pytest.approx(tight.exit_tau, rel=1e-5)
    assert loose.n_accepted < tight.n_accepted


def test_reconstruct_cartesian():
    phys = scaled_params_from_physical(UNIT, DAMP2, 100.0)
    res = integrate_corner(phys, ACUTE)
    t, u, v = scaled_to_cartesian(phys, res.tau, res.R, res.dR, res.Theta)
    assert t.shape == (res.tau.size,)
    assert u.shape == v.shape == (res.tau.size, 2)
    np.testing.assert_allclose(t, 1.0 + res.tau / 10.0, rtol=1e-15)
    r = phys.eta * res.R / 10.0
    np.testing.assert_allclose(u[:, 0], r * np.cos(res.Theta), rtol=1e-14)
    np.testing.assert_allclose(u[:, 1], r * np.sin(res.Theta), rtol=1e-14)
    # Radial velocity eta R' and transverse velocity r Theta' in physical
    # time, where Theta' = sqrt(E)(1-eps)/R^2 in scaled time.
    e_r = np.column_stack([np.cos(res.Theta), np.sin(res.Theta)])
    e_th = np.column_stack([-np.sin(res.Theta), np.cos(res.Theta)])
    np.testing.assert_allclose(np.sum(v * e_r, axis=1), phys.eta * res.dR,
                               rtol=1e-12)
    np.testing.assert_allclose(np.sum(v * e_th, axis=1),
                               r * phys.momentum / res.R ** 2 * 10.0,
                               rtol=1e-12)
    # A scalar state gives a scalar time and Cartesian pairs.
    st = res.exit_state
    t1, u1, v1 = scaled_to_cartesian(phys, st.tau, st.R, st.dR, st.Theta)
    assert np.ndim(t1) == 0 and u1.shape == v1.shape == (2,)
    assert t1 == t[-1]
    np.testing.assert_array_equal(u1, u[-1])
    np.testing.assert_array_equal(v1, v[-1])
    with pytest.raises(ScaleFreeRun):
        scaled_to_cartesian(params_at(1e-2), res.tau, res.R, res.dR,
                            res.Theta)


def test_oracle_agrees_near_first_crossing():
    # Independent Cartesian fast-time route vs the closed-form face phase.
    from cornerimpact import r1_phase_state

    k = 100.0
    run = oracle_fast_time_integration(UNIT, DAMP2, ACUTE, k, horizon=0.9)
    t = np.linspace(0.0, 0.9, 7)
    u = run.sample(t)
    r_ref, _, s_ref, _ = r1_phase_state(UNIT, DAMP2, k, t)
    np.testing.assert_allclose(u[:, 0], r_ref, atol=1e-8)
    np.testing.assert_allclose(u[:, 1], s_ref, atol=1e-8)


def test_oracle_validation():
    with pytest.raises(InvalidInput):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, -1.0, horizon=1.0)
    with pytest.raises(InvalidInput):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=0.0)


@pytest.mark.parametrize("tol", [dict(atol=-1.0), dict(rtol=0.0),
                                 dict(rtol=math.nan), dict(atol=math.inf)],
                         ids=["atol<0", "rtol=0", "rtol=nan", "atol=inf"])
def test_oracle_rejects_bad_tolerances(tol):
    # Each used to be a bare ValueError, a warning with a silent clamp, a
    # run through the whole budget, or a 9-step "success".
    start = time.perf_counter()
    (name,) = tol
    with pytest.raises(InvalidInput, match=f"{name} must be"):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=1.0,
                                     **tol)
    assert time.perf_counter() - start < 1.0


def test_oracle_sample_stays_inside_the_run():
    run = oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=0.5)
    for bad in ([-0.5], [3.0], [0.0, 0.5 + 1e-9], [math.nan], [math.inf]):
        with pytest.raises(InvalidInput, match="oracle sample times"):
            run.sample(bad)
    u = run.sample([0.0, 0.25, 0.5])
    assert u.shape == (3, 2)
    np.testing.assert_array_equal(u[0], [0.0, UNIT.s0])
    np.testing.assert_allclose(u[2], run.u[-1], rtol=0.0, atol=1e-15)
    assert run.sample(0.25).shape == (2,)
    np.testing.assert_array_equal(run.sample(0.25), u[1])
    assert run.sample([]).shape == (0, 2)


# The documented step collapse: alpha = 2, theta_bar = 1, k = 1e4.
COLLAPSE = dict(damping=DAMP2, cone=ConeGeometry(1.0), k=1e4, rtol=1e-11,
                atol=1e-13)


def test_oracle_fails_fast_past_its_budget():
    # Horizon 2.0 needs ~8M right-hand-side calls (over a minute).
    start = time.perf_counter()
    with pytest.raises(IntegrationFailure,
                       match=rf"budget of {ORACLE_MAX_RHS} .* fast time"):
        oracle_fast_time_integration(UNIT, horizon=2.0, **COLLAPSE)
    assert time.perf_counter() - start < 10.0


def test_oracle_runs_into_the_collapse_within_budget():
    run = oracle_fast_time_integration(UNIT, horizon=1.5, **COLLAPSE)
    assert run.t[-1] == pytest.approx(1.5, rel=1e-12)
    assert np.all(np.isfinite(run.u)) and np.all(np.isfinite(run.v))


def test_oracle_overflow_is_integration_failure():
    # A state that overflows used to escape as InvalidInput from the
    # per-call point validation.
    with pytest.raises(IntegrationFailure):
        oracle_fast_time_integration(InitialData(-1.0, 1e300, 1e300),
                                     horizon=1.0, **COLLAPSE)
