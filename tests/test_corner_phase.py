"""Adaptive corner integration: events, sampling, conservation, oracle."""
import math
import random
import re
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    IntegrationFailure,
    InvalidInput,
    ScaleFreeRun,
    ScaledState,
    SimConfig,
    SingularRadius,
    asymptotic_times,
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
from cornerimpact._kernels import _polar, _rhs, _substep, integrate_radial
from cornerimpact.corner_phase import (
    ORACLE_MAX_RHS,
    _flow_constants,
    default_horizon,
    substep_many,
)

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def params_at(eta):
    return scaled_params_direct(eta, "derive", UNIT, DAMP2)


def lin_roots(damping):
    """(xi1, xi2, 2 sqrt(D)), the kernel's view of the linear part."""
    return damping.xi1, damping.xi2, 2.0 * damping.sqrt_delta


def polar_spring(R, n1, lin):
    """(om2, xi1, xi2, sd2) of a polar step from R, with first stage
    n1 = c3 / R^3, as a run forms them at the step start: omega^2 =
    1 + 3 n1 / R up to SPRING_CAP alpha^2 and the roots of x^2 + 2 alpha x
    + omega^2, or omega^2 = 1 and the flow's roots ``lin`` while
    SPRING_CAP alpha^2 <= 1."""
    alpha, D, dmax = _kernels._spring_constants(*lin)
    if not dmax > 0.0:
        return (1.0, *lin)
    d = 3.0 * n1 / R
    d = d if d < dmax else dmax
    om2 = 1.0 + d
    r = math.sqrt(D - d)
    xi2 = -alpha - r
    return om2, om2 / xi2, xi2, r + r


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
    assert res.exit_tau == pytest.approx(4.9997617400403035e-05, rel=1e-12,
                                         abs=0.0)
    st = res.exit_state
    assert st.R == pytest.approx(0.0057730815895653265, rel=1e-12, abs=0.0)
    assert st.dR == pytest.approx(86.59130465820813, rel=1e-12)
    assert abs(st.Theta - ACUTE.theta_bar) <= 1e-14
    assert res.tau[-1] == res.exit_tau


def test_obtuse_exit_regression():
    # The run's own values; at rtol 1e-13 the exit lies at
    # tau = 12.516784290007546 and R = 1.025434826014956.
    res = integrate_corner(params_at(1e-2), OBTUSE)
    assert res.exit_tau == pytest.approx(12.51678428704823, rel=1e-12)
    assert res.exit_state.R == pytest.approx(1.0254348268208007, rel=1e-12)
    assert abs(res.exit_state.Theta - OBTUSE.theta_bar) <= 1e-14
    # The obtuse passage exits well before the default settle horizon.
    assert res.exit_tau < res.horizon


def test_angle_event_tolerance():
    for eta in (1e-2, 1e-3):
        res = integrate_corner(params_at(eta), ACUTE)
        assert abs(res.exit_state.Theta - ACUTE.theta_bar) <= 1e-14


def locate(at, f0, f1):
    """``_locate_exit`` over a step of length 1 that ends in the state
    "end", with the offsets ``at`` was called at."""
    calls = []

    def logged(s):
        calls.append(s)
        return at(s)

    return _kernels._locate_exit(logged, 1.0, f0, f1, "end"), calls


def test_exit_search_bisects_where_the_slope_is_zero():
    found, calls = locate(lambda s: (s - 0.5, 0.0, s), -0.1, 0.9)
    assert calls[:4] == pytest.approx([0.1, 0.55, 0.325, 0.4375])
    assert found[0] == found[1] == pytest.approx(0.5, abs=1e-15)


def test_exit_search_stops_where_newton_stops_moving():
    # At 0.5 the value 1e-20 moves s by less than half a float spacing.
    found, calls = locate(lambda s: (s - 0.5 + 1e-20, 1.0, s), -0.5, 0.5)
    assert calls == [0.5] and found == (0.5, 0.5)


# (alpha, theta_bar, eta): two acute exits and two obtuse.  At
# theta_bar = 1.7 the exit time is 1.7175490521903976, which an interval
# enclosure of the same flow confirms; there the exit lies far past the
# free-flight window, Theta' is small, and the polar chart's angle error
# (about 3 rtol) puts the exit 25 rtol off at rtol 1e-10 and 27 rtol off
# at 1e-13.
REFERENCE_CASES = [
    (2.0, math.pi / 3.0, 0.1), (1.5, 1.2, 0.1),
    (1.5, 2.0 * math.pi / 3.0, 0.1),
    pytest.param(2.0, 1.7, 0.1, marks=pytest.mark.xfail(
        strict=True, reason="polar-chart angle error near theta_bar = 1.7")),
]


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
    # start, evaluated for all of them at once; the exit search's map
    # ``_substep`` is the reference, bit for bit.  The Cartesian reference
    # maps to Theta with the absolute angle of ``_polar``, the samples with
    # the angle turned since the step start, so Theta agrees there to
    # round-off.
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
    cart = np.zeros(ev.size, bool)
    constants = _kernels._spring_constants(*lin)
    for j, tau in enumerate(ev.tolist()):
        i = np.searchsorted(res.tau, tau, side="right") - 1
        s = tau - res.tau[i].item()
        if i < len(res.cartesian):
            ref[j] = _polar(*_substep(True, *res.cartesian[i].tolist(), s,
                                      -(lin[0] + lin[1]) * cth, *lin))
            cart[j] = True
        else:
            R, V, T = (res.R[i].item(), res.dR[i].item(),
                       res.Theta[i].item())
            ref[j] = _substep(False, R, V, T, s, c3, cth, *lin, *constants)
    for name, got, want in (("R", st.R, ref[:, 0]), ("dR", st.dR, ref[:, 1]),
                            ("Theta", st.Theta[~cart], ref[~cart, 2])):
        assert [x.hex() for x in got.tolist()] == \
            [x.hex() for x in want.tolist()], name
    np.testing.assert_allclose(st.Theta[cart], ref[cart, 2], rtol=1e-13,
                               atol=0.0)


def test_linear_part_is_exact():
    # Without the penalty term the flow is the damped-linear propagator
    # itself; Lawson steps carry it exactly, so the step size is free to
    # grow to the horizon.
    # Both charts: with tau1 = 0 the run starts in the polar chart, and
    # with tau1 = 50 it stays in the Cartesian one.
    R0, V0 = 1.0, -0.3
    for tau1 in (0.0, 50.0):
        ts, ys, xs, exit, nacc, _ = integrate_radial(
            R0, V0, 0.0, 0.0, *lin_roots(DAMP2), 1.0, 50.0, 1e-10, 1e-12,
            True, tau1, 1.0)
        assert exit is None and nacc <= 10
        assert xs.shape == ((nacc if tau1 else 0), 4)
        assert ts[-1] == 50.0
        K2, H2 = kernels_K2_H2(DAMP2, ts)
        dK2 = kernel_K2_dot(DAMP2, ts)
        np.testing.assert_allclose(ys[:, 0], H2 * R0 + K2 * V0, rtol=1e-13,
                                   atol=0.0)
        np.testing.assert_allclose(ys[:, 1], -K2 * R0 + dK2 * V0,
                                   rtol=1e-13, atol=0.0)


def test_rest_point_is_exact():
    # At the rest point Rc = c3^(1/4) the penalty force balances the
    # spring.  Each step is taken about the rest point of the frozen
    # force, so it is exact there: the run stays put and its step grows to
    # the horizon, as in the settle phase of a run past the exit.  The run
    # starts in the polar chart (tau1 = 0).
    c3, cth = 0.3, 0.5
    Rc = c3 ** 0.25
    ts, ys, _, exit, nacc, _ = integrate_radial(
        Rc, 0.0, c3, cth, *lin_roots(characteristic_roots(8.0)), math.inf,
        50.0, 1e-10, 1e-12, True, 0.0, 1.0)
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
    # quadrature rejects them first.  Both runs are in the polar chart
    # (tau1 = 0): the Cartesian chart passes straight through the origin.
    with pytest.raises(error, match=message):
        integrate_radial(1.0, -10.0, 0.0, cth, *lin_roots(DAMP2), math.inf,
                         50.0, 1e-10, 1e-12, True, 0.0, 1.0)


@pytest.mark.parametrize("c3", [0.0, 1e-300])
def test_kernel_stage_radius_cube_underflow(c3):
    # From R = 1e-100 the radius reaches zero within tau ~ 1e-100, and the
    # cubes of the stage radii underflow to 0 below R ~ 1e-108 while the
    # radii themselves are still in (0, inf).  The polar trial step rejects
    # those stages instead of dividing c3 by the cube, so the run ends as
    # a collapse, not with a ZeroDivisionError.
    with pytest.raises(SingularRadius, match="radius collapsed"):
        integrate_radial(1e-100, -1.0, c3, 0.5, *lin_roots(DAMP2), math.inf,
                         5.0, 1e-10, 1e-12, True, 0.0, 1.0)


def test_slow_mode_error_scale_is_the_phase_plane(monkeypatch):
    # On the slow mode R' = xi1 R (|xi1| = 0.27 at alpha = 2), the paper's
    # second asymptotic, the polar chart scales the error of R' by the
    # state's size in the phase plane, max(|R'|, |R|) over the step, not by
    # |R'| alone, which would hold R' 3.7 times tighter than R.  The run
    # from R = 10 toward the rest point takes fewer attempts than with the
    # |R'|-only scale, and its states stay within 10 rtol of a run at
    # rtol 1e-13, read at its step ends by the single-step map.
    p = params_at(1e-2)
    c3, cth = p.E * (1.0 - p.eps) ** 2, math.sqrt(p.E) * (1.0 - p.eps)
    lin = lin_roots(DAMP2)
    R0 = 10.0

    def run(rtol, atol):
        ts, ys, _, exit, nacc, nrej = integrate_radial(
            R0, lin[0] * R0, c3, cth, *lin, math.inf, 10.0, rtol, atol,
            True, 0.0, 1.0)
        assert exit is None and ts[-1] == 10.0
        return ts, ys, nacc + nrej

    ts, ys, attempts = run(1e-10, 1e-12)
    rts, rys, _ = run(1e-13, 1e-15)
    i = np.minimum(np.searchsorted(rts, ts, side="right") - 1, rts.size - 2)
    ref = substep_many(rys[i, 0], rys[i, 1], rys[i, 2], ts - rts[i], c3,
                       cth, *lin, np.zeros(ts.size, bool), np.empty((0, 4)))
    plane = np.hypot(ref[:, 0], ref[:, 1])
    assert np.all(np.hypot(*(ys[:, :2] - ref[:, :2]).T) <= 1e-9 * plane)
    np.testing.assert_allclose(ys[:, 2], ref[:, 2], rtol=1e-9, atol=0.0)
    # The same loop with the |R'|-only scale.
    entry = _kernels._LOOPS["polar"]
    monkeypatch.setitem(_kernels._LOOPS, "polar", (*entry[:3], {},
                                                   *entry[4:]))
    loop = dict(vars(_kernels))
    exec(_kernels._loop_source("polar"), loop)
    monkeypatch.setattr(_kernels, "_run_polar", loop["_run_polar"])
    assert attempts < run(1e-10, 1e-12)[2]


@pytest.mark.parametrize("budget, chart", [(10, "cartesian"), (68, "polar")])
def test_step_budget_names_the_kernel_budget(monkeypatch, budget, chart):
    # The message names the budget, how far the run got, its horizon, and
    # the run's alpha and eta.  The budget runs out once in each chart's
    # loop: the run takes 48 Cartesian steps and switches at tau = 2.9e-4.
    p = params_at(1e-2)
    full = integrate_corner(p, OBTUSE)
    assert len(full.cartesian) == 48
    switch = full.tau[len(full.cartesian)]
    monkeypatch.setattr(_kernels, "MAX_STEPS", budget)
    with pytest.raises(IntegrationFailure,
                       match=rf"step budget {budget} exhausted at tau ~ \S+ "
                             r"of \S+ \(alpha = 2, eta = 0\.01\)") as exc:
        integrate_corner(p, OBTUSE)
    tau = float(re.search(r"tau ~ (\S+)", str(exc.value)).group(1))
    assert (tau < switch) == (chart == "cartesian")


def test_run_that_ends_in_the_cartesian_window_takes_no_polar_step(
        monkeypatch):
    # With the horizon at half the switch time the run stays in the
    # Cartesian loop: every accepted step is Cartesian, the run ends at the
    # horizon without an exit, and the polar loop is never entered.
    p = params_at(1e-2)
    full = integrate_corner(p, OBTUSE)
    horizon = 0.5 * full.tau[len(full.cartesian)]
    calls = []
    step = _kernels._attempt
    monkeypatch.setattr(_kernels, "_attempt",
                        lambda *a: calls.append(a) or step(*a))
    res = integrate_corner(p, OBTUSE, horizon=horizon)
    assert res.n_accepted == 38 and len(res.cartesian) == res.n_accepted
    assert res.tau[-1] == horizon and res.exit_tau is None
    assert calls == []
    st = res.sample(0.5 * (res.tau[:-1] + res.tau[1:]))
    for name in ("R", "dR", "Theta"):
        assert np.all(np.isfinite(getattr(st, name))), name


@pytest.mark.parametrize("alpha", [30.0, 300.0, 1000.0])
def test_large_alpha_run_takes_few_steps(alpha):
    # The asym-report run at eta = 1e-2 (default data, to tau3): each polar
    # step linearises the penalty about its start, so the step is not held
    # at 2 alpha h ~ 1 while the run creeps toward the rest point on the
    # slow mode.  Without the linearisation these runs took 3,976, 129,506
    # and 450,657 accepted steps.
    config = SimConfig().override(alpha=alpha)
    params = scaled_params_direct(1e-2, config.eps, config.init,
                                  config.damping)
    tau3 = asymptotic_times(1e-2, config.damping, gamma1=config.gamma1,
                            zeta=config.zeta).tau3
    res = integrate_corner(params, config.cone, rtol=config.rtol,
                           atol=config.atol, horizon=tau3,
                           stop_at_event=False)
    assert res.tau[-1] == tau3
    assert res.n_accepted <= 15_000


# Exit (tau, R, R', Theta), the last sample, the states ``sample`` gives
# at the times in ``samples`` that the run covered, and the step counts of
# four runs, pinned bit for bit (rtol 1e-10, atol 1e-12).  The acute run
# stops at its exit near 5e-5, before every sample time.
# At eta = 1e-20 the obtuse run takes Lawson steps tens of tau long and
# the samples fall inside them.  "past_exit" is the asym-report run: it
# continues past the exit to tau3 = zeta ln(1/eta) at alpha = 8 and
# settles toward the rest point Rc, where the step is taken about the rest
# point w of the linearised spring.
BITWISE_PINS = {
    "acute": dict(
        eta=1e-2, cone=ACUTE, samples=[1e-4, 1e-2, 0.5],
        exit=(4.9997617400403035e-05, 0.005773081589565329,
              86.5913046582081, 1.0471975511965976),
        R=[], dR=[], Theta=[], steps=(24, 2)),
    "obtuse": dict(
        eta=1e-2, cone=OBTUSE, samples=[1e-4, 1e-2, 0.5],
        exit=(12.51678428704823, 1.0254348268208007, -0.25757057358261953,
              2.0943951023931953),
        R=[0.010407197559709926, 0.9804259662669856, 20.784766542324164],
        dR=[96.04989284190054, 96.09103743032419, 9.907297642742858],
        Theta=[1.2898133595604753, 1.5684222300934494, 1.571828767578945],
        steps=(180, 4)),
    "obtuse_far": dict(
        eta=1e-20, cone=OBTUSE, samples=[1.0, 20.0, 60.0, 120.0, 160.0],
        exit=(167.19758058456273, 1.0252000990874786, -0.25749571960494283,
              2.0943951023931953),
        R=[2.1390913026027962e+19, 1.3584143568570474e+17,
           3008001405047.389, 313434.42397513683, 6.94057853194657],
        dR=[-3.3373097139308027e+18, -3.639860299066887e+16,
            -805991547314.1305, -83984.50078425204, -1.859667462246738],
        Theta=[1.5707963267948966, 1.5707963267948966, 1.5707963267948966,
               1.570796326801123, 1.5819788513307946],
        steps=(114, 25)),
    "past_exit": dict(
        eta=1e-2, alpha=8.0, cone=ACUTE, horizon=36.69688332983271,
        samples=[1e-4, 1e-2, 0.5, 5.0, 30.0],
        exit=(1.0910560790685653e-05, 0.0012598152342055734,
              86.59305062139171, 1.0471975511965976),
        last=(36.69688332983271, 0.6339250781331411, -0.03881004528118317,
              2.818272770395175),
        R=[0.010013064117017214, 0.92423166054024, 6.103630774689397,
           4.603814640444546, 0.960201141764514],
        dR=[99.65692801309513, 85.22335691499194, -0.3483568528624012,
            -0.2888687388697964, -0.05997085901529679],
        Theta=[1.508030929743815, 1.5707652763034763, 1.5723445561711447,
               1.582563589203232, 2.1041705834590263],
        steps=(305, 3)),
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


def tableau():
    """C, A and E of ``_kernels`` as exact fractions."""
    return ([Fraction(*x) for x in _kernels.C],
            [[Fraction(*x) for x in row] for row in _kernels.A],
            [Fraction(*x) for x in _kernels.E])


def chain_values(h, xi1, sd2):
    """e = e^{xi1 s} and m = expm1(-sd2 s) at each offset s = c_i - c_l
    of the tableau, keyed by the offset: by exp and expm1 at the bases of
    ``_kernels._phi_chain``, and along it e_{p+q} = e_p e_q and
    m_{p+q} = m_p + m_q + m_p m_q, in the generated steps' order."""
    c = tableau()[0]
    unit = math.lcm(*(x.denominator for x in c))
    offsets = {ci - cl for i, ci in enumerate(c) for cl in c[:i]} - {0}
    plan = _kernels._phi_chain(int(x * unit) for x in offsets)
    e, m = {}, {}
    for n in sorted(plan):
        if plan[n] is None:
            s = float(Fraction(n, unit)) * h
            e[n], m[n] = math.exp(xi1 * s), math.expm1(-sd2 * s)
        else:
            p, q = plan[n]
            e[n], m[n] = e[p] * e[q], m[p] + m[q] + m[p] * m[q]
    return {Fraction(n, unit): (e[n], m[n]) for n in plan}


def reference_phi(h, xi1, xi2, sd2):
    """(H, K, K') at each offset of the tableau, 0 included: K = e (m nu)
    with nu = -1 / sd2, H = e - xi1 K and K' = e + xi2 K."""
    nu = -1.0 / sd2
    table = {Fraction(0): (1.0, 0.0, 1.0)}
    for x, (e, m) in chain_values(h, xi1, sd2).items():
        K = e * (m * nu)
        table[x] = (e - xi1 * K, K, e + xi2 * K)
    return table


# What a trial step returns when a stage radius leaves (0, inf): infinite
# error components, which the step loop rejects.
POLAR_BAD = (0.0,) * 5 + (math.inf,) * 3
CARTESIAN_BAD = (0.0,) * 5 + (math.inf,) * 4


def reference_attempt(R, V, T, n1, g1, h, c3, cth, om2, xi1, xi2, sd2,
                      linearised=True):
    """The trial step as a plain loop over C, A and E, with the operations
    of the generated ``_attempt`` in its order: each sum a ``+`` chain from
    its first term over the nonzero coefficients, with the R terms at
    offset 0 (K = 0) left out.  With ``linearised=False`` it is the step
    without the spring omega^2: w = min(n1, R), forces n_k - w and -K u in the
    velocity row."""
    c, A, E = tableau()
    table = reference_phi(h, xi1, xi2, sd2)

    def phi(i, l):  # (H, K, K') at (c_i - c_l) h
        return table[c[i] - c[l]]

    def chain(i, a, first, form, y):  # form: 1 K, 2 K', None 1
        return [float(a[l]) * (1.0 if form is None else phi(i, l)[form])
                * y[l] for l in range(first, len(a))
                if a[l] and not (form == 1 and c[i] == c[l])]

    if linearised:
        d = om2 - 1.0
        N1 = n1 + d * R
        w = N1 / om2
        w = w if w < R else R
        om2w = om2 * w
        m = [N1 - om2w]
    else:
        w = n1 if n1 < R else R
        m = [n1 - w]
    u, g = R - w, [g1]
    for i in range(1, len(A)):
        H, K, dK = phi(i, 0)
        v = V + h * float(A[i][0]) * m[0]
        Ri = w + H * u + K * v
        rest = chain(i, A[i], 1, 1, m)
        if rest:
            Ri = Ri + h * reduce(add, rest)
        if not 0.0 < Ri < math.inf:
            return POLAR_BAD
        Q = Ri * Ri
        n, gi = c3 / (Q * Ri), cth / Q
        m.append(n + d * Ri - om2w if linearised else n - w)
        g.append(gi)
    b = A[-1]
    Vn = ((-om2 * K if linearised else -K) * u + dK * v
          + h * reduce(add, chain(i, b, 1, 2, m)))
    Tn = T + h * reduce(add, chain(i, b, 0, None, g))
    return (Ri, Vn, Tn, n, gi,
            *(h * reduce(add, chain(i, E, 0, form, y))
              for form, y in ((1, m), (2, m), (None, g))))


def check_map(chart, ok, groups):
    """The sample map of ``chart`` on floats, on the arguments in ``ok``
    (pairs of the map's arguments and the output of the trial step from
    the same start, of the same length, with the first stage and spring
    that a run forms there), against the trial steps' ends: bit for bit
    when compiled with libm's exp and expm1 in place of numpy's, and as
    it is within 32 eps of the scale of each group of state columns (the
    largest start or end value in it) on the steps whose error estimate
    is within 1e-2 of that scale, and within 1024 eps on every other step.
    numpy's exp differs from libm's in the last bit on some arguments; the
    Phi chain carries a base's difference into the offsets built from it,
    and the stage sums amplify it by up to the size of the tableau's
    weights.  Far from the flow, a stage radius near 0 amplifies it further
    through the penalty force c3 / R^3: over 32 seeded sets of 3,000 draws
    of either chart the largest differences were 15 eps on the near steps
    and 638 eps on the others."""
    args, outs = zip(*ok)
    n = sum(map(len, groups))
    ends = np.array([out[:n] for out in outs])
    errs = np.abs(np.array([out[-n:] for out in outs]))
    libm = libm_map(chart)
    np.testing.assert_array_equal(np.array([libm(*a) for a in args]), ends)
    one = getattr(_kernels, f"_{chart}_one")
    got = np.array([one(*a) for a in args])
    size = np.abs(np.stack([np.array(args)[:, :n], ends]))
    eps = np.finfo(float).eps
    for g in groups:
        scale = size[:, :, g].max(axis=(0, 2))[:, None]
        near = np.all(errs[:, g] <= 1e-2 * scale, axis=1)
        assert near.sum() > 0.7 * len(ok), (chart, g)
        bound = np.where(near, 32.0, 1024.0)[:, None] * eps * scale
        assert np.all(np.abs(got[:, g] - ends[:, g]) <= bound), (chart, g)


def libm_map(chart):
    """The sample map of ``chart`` on floats, compiled where exp and expm1
    are libm's, as in the trial steps."""
    libm = {"exp": math.exp, "expm1": math.expm1, "sqrt": math.sqrt,
            "minimum": _kernels._minimum}
    exec(_kernels._step_source(chart, many=True), libm)
    return libm[f"_{chart}_many"]


def polar_draws(seed, n):
    """Seeded arguments of ``_attempt``, each with those of the sample map
    ``_polar_many`` from the same start, of the same length and with the
    same spring: h from 1e-14 to 1e3, so that many trial steps have a
    stage radius outside (0, inf), V = +-0.0 now and then, and the spring
    omega^2 and roots as a run forms them (``polar_spring``), or
    omega^2 = 1 with the flow's own roots one time in four, which the map
    takes with dmax = 0, as in a run that keeps omega^2 = 1."""
    rng = random.Random(seed)
    for _ in range(n):
        roots = lin_roots(
            characteristic_roots(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)))
        c3 = 10.0 ** rng.uniform(-6.0, 2.0)
        cth = math.sqrt(c3) * rng.uniform(0.1, 1.0)
        R = 10.0 ** rng.uniform(-3.0, 2.5)
        V = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        if rng.random() < 0.05:
            V = rng.choice((0.0, -0.0))
        n1, g1 = _rhs(R, c3, cth)
        alpha, D, dmax = _kernels._spring_constants(*roots)
        if rng.random() < 0.75:
            spring = polar_spring(R, n1, roots)
        else:
            spring, dmax = (1.0, *roots), 0.0
        T, h = rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-14.0, 3.0)
        yield ((R, V, T, n1, g1, h, c3, cth, *spring),
               (R, V, T, h, c3, cth, *roots, alpha, D, dmax))


def test_generated_step_matches_the_reference_loop():
    rejected = 0
    ok = []
    for args, many in polar_draws(19, 3000):
        out = _kernels._attempt(*args)
        ref = reference_attempt(*args)
        assert [x.hex() for x in out] == [x.hex() for x in ref], args
        rejected += out == POLAR_BAD
        if out != POLAR_BAD:
            ok.append((many, out))
    assert 100 < rejected < 2900
    check_map("polar", ok, ([0, 1], [2]))


def test_unit_spring_is_the_step_without_it():
    # With omega^2 = 1 the linearised step does the float operations of the
    # step without the spring, bit for bit, whatever the roots: d R_k = 0
    # adds 0, omega^2 w = w and -omega^2 K = -K.
    for a, _ in polar_draws(23, 3000):
        a = a[:8] + (1.0,) + a[9:]
        out = _kernels._attempt(*a)
        ref = reference_attempt(*a, linearised=False)
        assert [x.hex() for x in out] == [x.hex() for x in ref], a


@pytest.mark.parametrize("alpha, cone",
                         [(1.004, OBTUSE), (2.0, OBTUSE), (8.0, ACUTE)])
def test_each_polar_step_linearises_the_penalty_at_its_start(
        alpha, cone, monkeypatch):
    # Every polar trial step of a run takes the spring and roots of
    # ``polar_spring`` at its start, bit for bit: omega^2 = 1 + 3 c3 / R^4,
    # the Jacobian of spring and penalty at R, up to SPRING_CAP alpha^2,
    # and the roots of x^2 + 2 alpha x + omega^2; omega^2 = 1 and the
    # flow's own roots at alpha = 1.004, where SPRING_CAP alpha^2 <= 1;
    # also the first step of a run that starts in the polar chart.
    # From each accepted step's start, its length and the run's constants,
    # the sample map of either chart forms that step's first stage and
    # spring itself and, compiled with libm's exp and expm1, rebuilds the
    # step's end bit for bit.
    p = scaled_params_direct(1e-3, "derive", UNIT, characteristic_roots(alpha))
    lin = lin_roots(p.damping)
    constants = _kernels._spring_constants(*lin)
    dmax = constants[2]
    calls = {"polar": [], "cartesian": []}  # per chart: (args, output)
    for chart, name in (("polar", "_attempt"),
                        ("cartesian", "_attempt_cartesian")):
        def attempt(*args, step=getattr(_kernels, name), chart=chart):
            out = step(*args)
            calls[chart].append((args, out))
            return out
        monkeypatch.setattr(_kernels, name, attempt)
    res = integrate_corner(p, cone, horizon=20.0, stop_at_event=False)
    # A run that starts in the polar chart (tau1 = 0), below Rc at rest;
    # kappa = 1 sets its first step to 1e-3.
    c3, cth = _flow_constants(p)[:2]
    R0 = 0.5 * c3 ** 0.25
    nacc = integrate_radial(R0, 0.0, c3, cth, *lin, math.inf, 5.0, 1e-10,
                            1e-12, False, 0.0, 1.0)[4]
    # start (R, V, T) -> (n1, (om2, xi1, xi2, sd2))
    steps = {args[:3]: (args[3], args[8:]) for args, _ in calls["polar"]}
    assert len(steps) > 50
    assert (R0, 0.0, 0.0) in steps
    capped = 0
    for (R, V, T), (n1, spring) in steps.items():
        assert n1 == _rhs(R, c3, cth)[0]
        om2, xi1, xi2, sd2 = spring
        assert spring == polar_spring(R, n1, lin)
        assert xi1 * xi2 == pytest.approx(om2, rel=1e-14)
        assert xi1 + xi2 == pytest.approx(-2.0 * alpha, rel=1e-14)
        assert xi1 - xi2 == pytest.approx(sd2, rel=1e-14)
        capped += om2 == 1.0 + dmax
    assert (alpha == 1.004) == all(x[1][0] == 1.0 for x in steps.values())
    assert (capped > 0) == (dmax > 0.0)

    # A step's accepted attempt is the last one from its start; h is the
    # sixth argument of either trial step.
    m = len(res.cartesian)
    for chart, n, run, count in (
            ("polar", 3, (c3, cth, *lin, *constants),
             res.n_accepted - m + nacc),
            ("cartesian", 4, (-(lin[0] + lin[1]) * cth, *lin), m)):
        accepted = {args[:n]: (args[5], out[:n])
                    for args, out in calls[chart]}
        assert len(accepted) == count > 10, chart
        libm = libm_map(chart)
        for start, (h, end) in accepted.items():
            assert libm(*start, h, *run) == end, (chart, start)


def test_phi_chain_is_as_accurate_as_libm():
    # e and m at every offset, built by the chain from three bases, against
    # exp and expm1 of each offset directly: seeded draws with alpha from
    # 1 + 1e-8 to 1e4 (both ends included) and h from 1e-14 to 1e3.  Over
    # seeds 0-7 the largest differences were 4.5 (1 + |xi1 s|) eps for e
    # (at most about 9 roundings below 1) and 3.4 eps for m, relative to
    # the direct value or, where it is subnormal, to the smallest normal.
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    rng = random.Random(31)
    for j in range(3000):
        alpha = (1.0 + 1e-8, 1e4, min(1.0 + 10.0 ** rng.uniform(-8.0, 4.0),
                                      1e4))[min(j, 2)]
        xi1, _, sd2 = lin_roots(characteristic_roots(alpha))
        h = 10.0 ** rng.uniform(-14.0, 3.0)
        values = chain_values(h, xi1, sd2)
        assert len(values) == 13
        for x, (e, m) in values.items():
            s = float(x) * h
            de, dm = math.exp(xi1 * s), math.expm1(-sd2 * s)
            assert math.isfinite(e) and math.isfinite(m)
            assert abs(e - de) <= 5.0 * eps * (1.0 + abs(xi1 * s)) \
                * max(de, tiny), (alpha, h, x)
            assert abs(m - dm) <= 4.0 * eps * max(-dm, tiny), (alpha, h, x)


def test_tableau_is_consistent():
    # Exact: the rows sum to the nodes, b = A[-1] has order 5 and
    # b^ = b - E order 4.
    c, A, E = tableau()
    assert [sum(row) for row in A] == c
    b = A[-1] + [Fraction(0)]
    bhat = [bl - el for bl, el in zip(b, E)]
    for q in range(1, 6):
        assert sum(bl * cl ** (q - 1) for bl, cl in zip(b, c)) == \
            Fraction(1, q)
    for q in range(1, 5):
        assert sum(bl * cl ** (q - 1) for bl, cl in zip(bhat, c)) == \
            Fraction(1, q)
    assert sum(E) == 0


def reference_attempt_cartesian(x, y, px, py, f1, h, tc, xi1, xi2, sd2):
    """The Cartesian trial step as a plain loop over C, A and E, with the
    operations of the generated ``_attempt_cartesian`` in its order: per
    stage the x and y positions, each sum a ``+`` chain from its first term
    over the nonzero coefficients, with the terms at offset 0 (K = 0) left
    out, and the velocities at the step end."""
    c, A, E = tableau()
    table = reference_phi(h, xi1, xi2, sd2)

    def phi(i, l):  # (H, K, K') at (c_i - c_l) h
        return table[c[i] - c[l]]

    def chain(i, a, first, form, m):  # form: 1 K, 2 K'
        return h * reduce(add, [
            float(a[l]) * phi(i, l)[form] * m[l] for l in range(first, len(a))
            if a[l] and not (form == 1 and c[i] == c[l])])

    X, P = (x, y), (px, py)
    m = ([-f1 * y], [f1 * x])
    for i in range(1, len(A)):
        H, K, dK = phi(i, 0)
        v = [P[j] + h * float(A[i][0]) * m[j][0] for j in (0, 1)]
        Xi = [H * X[j] + K * v[j] for j in (0, 1)]
        if i > 1:
            Xi = [Xi[j] + chain(i, A[i], 1, 1, m[j]) for j in (0, 1)]
        Q = Xi[0] * Xi[0] + Xi[1] * Xi[1]
        if not 0.0 < Q < math.inf:
            return CARTESIAN_BAD
        f = tc / Q
        m[0].append(-f * Xi[1])
        m[1].append(f * Xi[0])
    Pn = [-K * X[j] + dK * v[j] + chain(i, A[i], 1, 2, m[j]) for j in (0, 1)]
    return (*Xi, *Pn, f,
            *(chain(i, E, 0, form, m[j]) for form in (1, 2) for j in (0, 1)))


def test_generated_cartesian_step_matches_the_reference_loop():
    # Seeded states over many scales: some scaled by 1e-170, whose r^2
    # underflows to 0, some by 1e160, whose r^2 overflows, and one at the
    # origin; h from 1e-14 to 1e3.  The sample map forms the first stage
    # f1 = tc / r^2 at its start, so it is checked against the trial steps
    # from those starts whose r^2 is inside (0, inf), with that f1.
    rng = random.Random(29)
    rejected = 0
    ok = []
    for n in range(3000):
        xi1, xi2, sd2 = lin_roots(
            characteristic_roots(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)))
        scale = rng.choice((1e-170, 1e160) + (1.0,) * 8)
        state = [scale * rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
                 for lo, hi in ((-3.0, 2.5), (-3.0, 2.5), (-6.0, 3.0),
                                (-6.0, 3.0))]
        if n == 0:
            state = [0.0, 0.0, 0.0, 0.0]
        args = (*state, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6),
                10.0 ** rng.uniform(-14.0, 3.0),
                -(xi1 + xi2) * 10.0 ** rng.uniform(-3.0, 1.0), xi1, xi2, sd2)
        out = _kernels._attempt_cartesian(*args)
        ref = reference_attempt_cartesian(*args)
        assert [x.hex() for x in out] == [x.hex() for x in ref], args
        rejected += out == CARTESIAN_BAD
        if n == 0:
            assert out == CARTESIAN_BAD
        x, y = state[:2]
        if 0.0 < x * x + y * y < math.inf:
            many = (*state, *args[5:])
            out = _kernels._attempt_cartesian(
                *state, args[6] / (x * x + y * y), *args[5:])
            if out != CARTESIAN_BAD:
                ok.append((many, out))
    assert 300 < rejected < 2700
    check_map("cartesian", ok, ([0, 1, 2, 3],))


def test_generated_step_evaluates_phi_once_per_offset():
    # 13 distinct offsets c_i - c_l among the stages of either chart, in
    # units of h / 90: 8, 9 and 10 are the bases of the chain, evaluated by
    # one exp and one expm1 each in the trial step and in the array map,
    # and each other offset is the sum of two earlier ones.  Profiles and
    # tracebacks name the generated bodies.  The array map has no stage
    # checks; it first forms at the step start what the step loop forms
    # there (``_CHARTS``: the first stage and, polar, the spring), and its
    # other statements, but for the first stage's rest point and the
    # return, are the trial step's, in the same order.
    plan = _kernels._phi_chain(
        [8, 9, 10, 18, 27, 45, 53, 54, 62, 63, 72, 80, 90])
    assert [n for n, pq in plan.items() if pq is None] == [8, 9, 10]
    assert all(p + q == n and p < n and q < n
               for n, (p, q) in ((n, pq) for n, pq in plan.items() if pq))
    for chart, names in (("polar", ("_attempt", "_polar_many")),
                         ("cartesian", ("_attempt_cartesian",
                                        "_cartesian_many"))):
        for many, name in enumerate(names):
            src = _kernels._step_source(chart, many)
            assert src.count("exp(") == src.count("expm1(") == 3
            assert src.count(" e90 = ") == src.count(" K90 = ") == 1
            assert src.startswith(f"def {name}(")
            assert getattr(_kernels, name).__code__.co_filename == \
                f"<_kernels.{name}>"
        step, array = (_kernels._step_source(chart, many)
                       for many in (False, True))
        assert "bad" not in array and "INF" not in array
        head = _kernels._side(_kernels._CHARTS[chart][5], True)
        array = array.splitlines()
        assert array[1:1 + len(head)] == [f"    {x}" for x in head]
        step = iter(step.splitlines())
        assert all(line in step for line in array[1 + len(head):-1]
                   if "minimum(" not in line)


def test_each_step_loop_names_only_its_own_chart():
    # One template states the step control of both charts; each loop is
    # generated from it with its own chart's names and tests no chart
    # flag.  Its error norm has one scale per state component of
    # ``_CHARTS``.  Profiles and tracebacks name the generated loops.
    polar, cartesian = (_kernels._loop_source(chart)
                        for chart in ("polar", "cartesian"))
    for word in ("_attempt_cartesian", "xs", "tau1"):
        assert not re.search(rf"\b{word}\b", polar), word
    for word in ("_attempt(", "om2", "dmax"):
        assert word not in cartesian, word
    for src, scales in ((polar, 3), (cartesian, 4)):
        assert not re.search(r"\bcart\b", src)
        assert src.count("/= atol + rtol * (b if b > a else a)") == scales
    for chart in ("polar", "cartesian"):
        loop = getattr(_kernels, f"_run_{chart}")
        assert loop.__code__.co_filename == f"<_kernels._run_{chart}>"


def test_obtuse_cost_is_flat_in_k():
    # Along the second asymptotic R decays from ~1/eta at the exact linear
    # rate, so shrinking eta by two orders of magnitude adds only the
    # steps of the longer approach, not thousands.
    cone = ConeGeometry(2.0)
    steps = [integrate_corner(scaled_params_from_physical(UNIT, DAMP2, k),
                              cone).n_accepted for k in (1e4, 1.2e6)]
    assert max(steps) < 2 * min(steps), steps


def test_step_grows_freely_between_the_vertex_and_tau_one():
    # Between the vertex time kappa ~ eta^2 and tau = 1 the flow has no
    # scale of its own: the free flight is a straight line and then the
    # damped-linear part is propagated exactly, so the error estimates lie
    # far inside the tolerance.  At eta = 1e-70 the run climbs the 141
    # decades from kappa to tau = 1 in 99 steps, where a growth bound of 5
    # per step took 207.
    res = integrate_corner(params_at(1e-70), ConeGeometry(2.0))
    assert res.exit_tau > 1.0
    assert np.searchsorted(res.tau, 1.0) <= 120


@pytest.mark.parametrize("eta, early", [(1e-6, False), (1e-4, True)])
def test_early_switch_only_when_kappa_exceeds_rtol(eta, early):
    # Past 10 kappa the run leaves the Cartesian chart early only when
    # kappa > rtol, where the vertex passage can limit a step at the run's
    # tolerance: at eta = 1e-4 (kappa = 2.9e-9) it leaves at about
    # 10 kappa, at eta = 1e-6 (kappa = 2.9e-13) not before tau1.
    p = params_at(eta)
    res = integrate_corner(p, ConeGeometry(2.0), rtol=1e-10)
    switch = res.tau[len(res.cartesian)]
    tau1 = asymptotic_times(p.eta, p.damping).tau1
    assert (p.kappa > 1e-10) == early
    if early:
        assert 10.0 * p.kappa <= switch < 12.0 * p.kappa < tau1
    else:
        assert switch >= tau1


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
    # At offset 0 the single-step map gives R' and Theta exactly; R is
    # exact in the Cartesian chart and w + (R - w), within an ulp, in the
    # polar chart.  At alpha = 3 the run settles toward the rest point on
    # a slower mode than at alpha = 2, whose steps grow so fast there that
    # no horizon gives it 300 of them.
    p = scaled_params_direct(1e-2, "derive", UNIT, characteristic_roots(3.0))
    res = integrate_corner(p, ConeGeometry(2.0), horizon=40.0,
                           stop_at_event=False)
    starts = res.tau[:-1]
    st = res.sample(starts)
    assert starts.size > 300 and len(res.cartesian) > 20
    assert np.all(np.abs(st.R - res.R[:-1]) <= np.spacing(res.R[:-1]))
    np.testing.assert_array_equal(st.dR, res.dR[:-1])
    np.testing.assert_array_equal(st.Theta, res.Theta[:-1])


def test_sample_is_continuous_across_the_chart_switch():
    # The run leaves the Cartesian chart at the start of step m: just
    # before it the last Cartesian step's map, at it the first polar
    # step's, and both give the stored switch state.
    res = integrate_corner(params_at(1e-2), OBTUSE)
    m = len(res.cartesian)
    assert 0 < m < res.n_accepted
    t = res.tau[m]
    st = res.sample([np.nextafter(t, 0.0), t])
    assert st.dR[1] == res.dR[m] and st.Theta[1] == res.Theta[m]
    for name in ("R", "dR", "Theta"):
        np.testing.assert_allclose(getattr(st, name), getattr(res, name)[m],
                                   rtol=1e-13, atol=0.0, err_msg=name)


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_cartesian_step_ends_match_the_stored_states(cone):
    # ``sample`` reads a step end as the next step's start, so the map of
    # the Cartesian steps is evaluated at their full length directly: it
    # reproduces the stored (R, R', Theta) to round-off.
    res = integrate_corner(params_at(1e-3), cone)
    m = len(res.cartesian)
    assert m > 10
    i = np.arange(m)
    y = substep_many(res.R[i], res.dR[i], res.Theta[i],
                     res.tau[i + 1] - res.tau[i],
                     *_flow_constants(res.params), np.ones(m, bool),
                     res.cartesian)
    np.testing.assert_allclose(y[:, 0], res.R[1:m + 1], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(y[:, 2], res.Theta[1:m + 1], rtol=1e-14,
                               atol=0.0)
    assert np.max(np.abs(y[:, 1] - res.dR[1:m + 1])) <= \
        1e-13 * np.max(np.abs(res.dR))


@pytest.mark.parametrize("alpha, cone", [(2.0, OBTUSE), (8.0, ACUTE)])
def test_polar_step_ends_match_the_stored_states(alpha, cone):
    # The polar twin of the test above, on runs past the exit to a horizon:
    # the map of each polar step, with the spring and roots rebuilt from
    # its start, evaluated at its full length reproduces the stored next
    # state to round-off.
    p = scaled_params_direct(1e-3, "derive", UNIT, characteristic_roots(alpha))
    res = integrate_corner(p, cone, horizon=20.0, stop_at_event=False)
    m = len(res.cartesian)
    i = np.arange(m, res.tau.size - 1)
    assert i.size > 50
    y = substep_many(res.R[i], res.dR[i], res.Theta[i],
                     res.tau[i + 1] - res.tau[i], *_flow_constants(p),
                     np.zeros(i.size, bool), res.cartesian[:0])
    np.testing.assert_allclose(y[:, 0], res.R[i + 1], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(y[:, 2], res.Theta[i + 1], rtol=1e-14,
                               atol=0.0)
    assert np.max(np.abs(y[:, 1] - res.dR[i + 1])) <= \
        1e-13 * np.max(np.abs(res.dR))


@pytest.mark.parametrize("params, cone", [
    # Acute, at k = 1e3: Cartesian steps, then polar ones past the exit.
    (scaled_params_from_physical(UNIT, characteristic_roots(2.5), 1e3),
     ACUTE),
    # Obtuse, with the polar chart's spring on (alpha = 2).
    (params_at(1e-3), OBTUSE),
    # alpha = 1.004: SPRING_CAP alpha^2 < 1, so the spring is off.
    (scaled_params_direct(1e-3, "derive", UNIT, characteristic_roots(1.004)),
     OBTUSE),
], ids=["acute-k1e3", "obtuse-spring", "obtuse-alpha1.004"])
def test_sample_bits_do_not_depend_on_the_batch(monkeypatch, params, cone):
    # A chart's samples go through its array map, or one by one through the
    # same map on floats when there are fewer than FEW_SAMPLES of them.
    # Seeded times in each chart's steps, in batches of 1, FEW_SAMPLES - 1,
    # FEW_SAMPLES and 600, give each sample the bits it has when taken
    # alone, and both routes run in both charts.
    calls = dict.fromkeys(("_polar_one", "_polar_many", "_cartesian_one",
                           "_cartesian_many"), 0)
    for name in calls:
        def counted(*args, f=getattr(_kernels, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(_kernels, name, counted)
    res = integrate_corner(params, cone, horizon=20.0, stop_at_event=False)
    m = len(res.cartesian)
    assert 0 < m < res.tau.size - 10
    rng = np.random.default_rng(34)
    few = _kernels.FEW_SAMPLES
    for lo, hi in ((0.0, res.tau[m]), (res.tau[m], res.tau[-1])):
        for n in (1, few - 1, few, 600):
            t = np.sort(rng.uniform(lo, hi, n))
            t[0] = lo
            batch = res.sample(t)
            for j, tj in enumerate(t.tolist()):
                alone = res.sample([tj])
                for name in ("R", "dR", "Theta"):
                    assert getattr(batch, name)[j].hex() == \
                        getattr(alone, name)[0].hex(), (n, tj, name)
    assert all(calls.values()), calls


def test_continue_after_event():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, stop_at_event=False)
    assert res.exit_tau is not None
    assert res.tau[-1] >= res.horizon
    assert res.tau[-1] == pytest.approx(res.horizon, rel=1e-12)
    assert res.tau[-1] > res.exit_tau


def test_zero_horizon():
    p = params_at(1e-2)
    res = integrate_corner(p, ACUTE, horizon=0.0)
    assert res.tau.size == 1 and res.tau[0] == 0.0
    assert res.n_accepted == 0
    st = res.sample([0.0])
    assert (st.R[0], st.dR[0], st.Theta[0]) == (p.R0, p.dR0, 0.0)


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
