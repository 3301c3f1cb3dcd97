"""Adaptive corner integration: events, sampling, conservation, oracle."""
import math

import numpy as np
import pytest

from cornerimpact import (
    BACKEND,
    ConeGeometry,
    InitialData,
    InvalidInput,
    ScaleFreeRun,
    ScaledState,
    SingularRadius,
    characteristic_roots,
    integrate_corner,
    oracle_fast_time_integration,
    radial_rhs,
    reconstruct_cartesian,
    scaled_params_direct,
    scaled_params_from_physical,
)
from cornerimpact._kernels import DENSE_P, _rhs, _substep
from cornerimpact.corner_phase import default_horizon

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def params_at(eta):
    return scaled_params_direct(eta, "derive", UNIT, DAMP2)


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
    # Deterministic pin; identical under both backends.
    res = integrate_corner(params_at(1e-2), ACUTE)
    assert res.exit_tau == pytest.approx(4.99976174086278e-05, rel=1e-12)
    st = res.exit_state
    assert st.R == pytest.approx(0.005773081590290175, rel=1e-12)
    assert st.dR == pytest.approx(86.59130466111013, rel=1e-12)
    assert abs(st.Theta - ACUTE.theta_bar) <= 1e-10
    assert not res.reached_horizon
    assert res.tau[-1] == res.exit_tau


def test_obtuse_exit_regression():
    res = integrate_corner(params_at(1e-2), OBTUSE)
    assert res.exit_tau == pytest.approx(12.516784288239046, rel=1e-12)
    assert res.exit_state.R == pytest.approx(1.0254348265945852, rel=1e-12)
    assert abs(res.exit_state.Theta - OBTUSE.theta_bar) <= 1e-10
    # The obtuse passage exits well before the default settle horizon.
    assert res.exit_tau < res.horizon


@pytest.mark.parametrize("eta", [1e-2, 1e-3])
@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_momentum_drift_is_roundoff(eta, cone):
    res = integrate_corner(params_at(eta), cone)
    assert res.momentum_drift <= 1e-14


@pytest.mark.skipif(BACKEND == "numba",
                    reason="compiled kernels do not call a patched function")
@pytest.mark.parametrize("eta", [1e-2, 1e-4])
@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_exit_matches_unbracketed_bisection(cone, eta, monkeypatch):
    # Bisection probes outside the Newton bracket take their side without a
    # step; the exit must be the one found by stepping at every probe.
    from cornerimpact import _kernels

    fast = integrate_corner(params_at(eta), cone)
    monkeypatch.setattr(_kernels, "_exit_bracket", lambda *a: (0.0, a[6]))
    full = integrate_corner(params_at(eta), cone)
    assert fast.exit_tau == full.exit_tau
    assert fast.exit_state == full.exit_state


def test_angle_event_tolerance():
    for eta in (1e-2, 1e-3):
        res = integrate_corner(params_at(eta), ACUTE)
        assert abs(res.exit_state.Theta - ACUTE.theta_bar) <= 1e-10


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
    res = integrate_corner(p, OBTUSE, tau_eval=ev, stop_at_event=False,
                           horizon=6.0)
    np.testing.assert_array_equal(res.eval_tau, ev)
    # Eval states interleave consistently with the accepted samples.
    interp_R = np.interp(ev, res.tau, res.R)
    np.testing.assert_allclose(res.eval_R, interp_R, rtol=5e-3)
    # Momentum holds on the eval grid too.
    mom = res.eval_R ** 2 * (math.sqrt(p.E) * (1 - p.eps) / res.eval_R ** 2)
    np.testing.assert_allclose(mom, p.momentum, rtol=1e-15)


def test_dense_coefficients_match_scipy():
    from scipy.integrate._ivp.rk import RK45

    assert not np.any(RK45.P[1])            # k2 has zero weight
    np.testing.assert_array_equal(DENSE_P, np.delete(RK45.P, 1, axis=0))


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_dense_output_matches_single_step(cone):
    # eval_* come from the continuous extension of the covering step; a
    # 5th-order single step from that step's start is the reference.
    p = params_at(1e-3)
    run = integrate_corner(p, cone)
    rng = np.random.default_rng(20)
    step = rng.integers(0, run.tau.size - 1, 50)
    x = rng.uniform(0.0, 1.0, 50)
    ev = np.unique(run.tau[step] + x * (run.tau[step + 1] - run.tau[step]))
    res = integrate_corner(p, cone, tau_eval=ev)
    np.testing.assert_array_equal(res.eval_tau, ev)

    one = 1.0 - p.eps
    c3, cth = p.E * one * one, math.sqrt(p.E) * one
    alpha = p.damping.alpha
    ref = np.empty((ev.size, 3))
    for j, tau in enumerate(ev):
        i = np.searchsorted(res.tau, tau, side="right") - 1
        R, V, T = res.R[i], res.dR[i], res.Theta[i]
        ok, *ref[j] = _substep(R, V, T, *_rhs(R, V, c3, alpha, cth),
                               tau - res.tau[i], c3, alpha, cth)
        assert ok
    np.testing.assert_allclose(res.eval_R, ref[:, 0], rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(res.eval_Theta, ref[:, 2], rtol=1e-8,
                               atol=0.0)
    # dR changes sign at the turning point: relative to its scale.
    dR_scale = np.max(np.abs(res.dR))
    assert np.max(np.abs(res.eval_dR - ref[:, 1])) <= 1e-8 * dR_scale


def test_eval_points_clipped_at_event_stop():
    p = params_at(1e-2)
    res = integrate_corner(p, ACUTE, tau_eval=[1e-2, 1.0])
    # Exit fires near 5e-5, so no eval point is covered.
    assert res.eval_tau.size == 0


def test_eval_point_at_accepted_time_matches_state():
    # Re-evaluating at an accepted time reproduces the stored state up to
    # one rounding of the step-offset subtraction.
    p = params_at(1e-2)
    first = integrate_corner(p, OBTUSE, horizon=2.0, theta_event=False)
    pick = first.tau[5]
    again = integrate_corner(p, OBTUSE, horizon=2.0, theta_event=False,
                             tau_eval=[pick])
    i = np.searchsorted(again.tau, pick)
    assert again.tau[i] == pick
    assert again.eval_R[0] == pytest.approx(again.R[i], rel=1e-14)
    assert again.eval_dR[0] == pytest.approx(again.dR[i], rel=1e-13,
                                             abs=1e-14)


def test_continue_after_event():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, stop_at_event=False)
    assert res.exit_tau is not None
    assert res.reached_horizon
    assert res.tau[-1] == pytest.approx(res.horizon, rel=1e-12)
    assert res.tau[-1] > res.exit_tau


def test_event_disabled():
    res = integrate_corner(params_at(1e-2), OBTUSE, theta_event=False,
                           horizon=20.0)
    assert res.exit_tau is None and res.exit_state is None
    assert res.reached_horizon


def test_zero_horizon():
    res = integrate_corner(params_at(1e-2), ACUTE, horizon=0.0)
    assert res.tau.size == 1 and res.tau[0] == 0.0
    assert res.n_accepted == 0


def test_default_horizon_budget():
    p = params_at(1e-2)
    expected = (0.5 / abs(DAMP2.xi1)) * math.log(1.0 / p.eta) \
        * (1.0 + 2.0 * 2.3680339887498949)
    assert default_horizon(p) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidInput):
        default_horizon(p, zeta=10.0)


def test_input_validation():
    p = params_at(1e-2)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, rtol=0.0)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, horizon=-1.0)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, tau_eval=[0.0, 1.0])     # not positive
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, tau_eval=[2.0, 1.0])     # not increasing
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, initial_step=0.0)


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
    out = reconstruct_cartesian(res, phys)
    assert out.shape == (res.tau.size, 3)
    np.testing.assert_allclose(out[:, 0], 1.0 + res.tau / 10.0, rtol=1e-15)
    r = phys.eta * res.R / 10.0
    np.testing.assert_allclose(out[:, 1], r * np.cos(res.Theta), rtol=1e-14)
    with pytest.raises(ScaleFreeRun):
        reconstruct_cartesian(res, params_at(1e-2))


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


def test_backend_report():
    res = integrate_corner(params_at(1e-2), ACUTE)
    assert res.backend in ("numba", "numpy")
