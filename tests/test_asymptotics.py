"""Matched-asymptotic objects: comparison orbit, kernels, bounds, attractor.

Independent reference routes used here:

* derivatives of the fundamental pair (z1, z2) by hand-derived closed
  forms (the implementation only exposes the values);
* the contraction integral by its x-form antiderivative
  F(x) = y x/(1+x^2) - (y^2-1)/(2(1+x^2)), checked against the antiderivative
  in the angle phi = atan(x) that delta_bound evaluates.
"""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    InvalidInput,
    OutOfPhase,
    asymptotic_times,
    characteristic_roots,
    critical_point,
    delta_bound,
    exit_equivalents,
    first_asymptotic_R1,
    first_asymptotic_Theta1,
    first_asymptotic_dR1,
    kernel_J,
    kernel_K,
    kernel_solutions_z,
    kernels_K2_H2,
    lyapunov_F,
    lyapunov_Q,
    obtuse_exponents,
    scaled_params_direct,
    second_asymptotic_R2,
    trapping_threshold,
)

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
P2 = scaled_params_direct(1e-2, "derive", UNIT, DAMP2)
T2 = asymptotic_times(1e-2, DAMP2)
P_ZERO = scaled_params_direct(1e-2, 0.0, UNIT, DAMP2)


def d5(vals, h):
    return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)


def dd5(vals, h):
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
            - vals[4]) / (12 * h * h)


def test_first_asymptotic_first_integral():
    tau = np.linspace(0.0, 2.0, 400)
    R1 = first_asymptotic_R1(P2, tau)
    dR1 = first_asymptotic_dR1(P2, tau)
    np.testing.assert_allclose(dR1 ** 2 + P2.E / R1 ** 2, P2.W, rtol=1e-12)


def test_first_asymptotic_turning_point():
    assert first_asymptotic_R1(P2, P2.tau0) == pytest.approx(
        math.sqrt(P2.E / P2.W), rel=1e-15)
    assert first_asymptotic_dR1(P2, P2.tau0) == 0.0
    # R1 is minimal there.
    eps = 1e-6
    assert first_asymptotic_R1(P2, P2.tau0) <= min(
        first_asymptotic_R1(P2, P2.tau0 - eps),
        first_asymptotic_R1(P2, P2.tau0 + eps))


def turning_stencil(params, u, h):
    # The comparison orbit varies on the scale kappa around its turning
    # point, so finite differences use u = (tau - tau0)/kappa with a step
    # that grows with distance from the minimum.
    return params.tau0 + params.kappa * (u + h * np.arange(-2.0, 3.0))


def test_first_asymptotic_ode():
    # R1'' = E/R1^3 exactly (undamped central-force comparison orbit).
    for u in (-30.0, -4.0, -1.0, 0.0, 1.0, 4.0, 30.0):
        h = 3e-3 * math.sqrt(1.0 + u * u)
        R = first_asymptotic_R1(P2, turning_stencil(P2, u, h))
        lhs = dd5(R, P2.kappa * h)
        rhs = P2.E / R[2] ** 3
        assert lhs == pytest.approx(rhs, rel=1e-7)


def test_first_asymptotic_angle():
    assert first_asymptotic_Theta1(P2, 0.0) == pytest.approx(0.0, abs=1e-16)
    tau = np.linspace(0.0, 2.0, 50)
    Th = first_asymptotic_Theta1(P2, tau)
    assert np.all(np.diff(Th) > 0.0)
    # d Theta1/d tau = sqrt(E)/R1^2.
    for u in (-2.0, 0.0, 1.0, 10.0):
        h = 1e-3 * math.sqrt(1.0 + u * u)
        stencil = turning_stencil(P2, u, h)
        lhs = d5(first_asymptotic_Theta1(P2, stencil), P2.kappa * h)
        rhs = math.sqrt(P2.E) / first_asymptotic_R1(P2, stencil[2]) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)


def z_derivatives(params, tau):
    # Hand-derived closed forms for (z1', z2'); kept independent of the
    # implementation, which never exposes them.
    R1 = first_asymptotic_R1(params, tau)
    dR1 = first_asymptotic_dR1(params, tau)
    z1 = params.W * (tau - params.tau0) / R1
    z2 = (-params.E / params.W ** 2 + tau * (tau - params.tau0)) / R1
    dz1 = params.W / R1 - z1 * dR1 / R1
    dz2 = (2.0 * tau - params.tau0) / R1 - z2 * dR1 / R1
    return dz1, dz2


def test_kernel_solutions_wronskian():
    for tau in np.linspace(0.0, 1.0, 100):
        z1, z2 = kernel_solutions_z(P2, tau)
        dz1, dz2 = z_derivatives(P2, tau)
        assert z1 * dz2 - z2 * dz1 == pytest.approx(1.0, abs=1e-10)


def test_kernel_solutions_ode():
    # z'' + 3 E z / R1^4 = 0 for both solutions.
    for u in (-3.0, -1.0, 0.0, 0.5, 2.0, 4.0):
        h = 3e-3 * math.sqrt(1.0 + u * u)
        stencil = turning_stencil(P2, u, h)
        z1s, z2s = kernel_solutions_z(P2, stencil)
        R1s = first_asymptotic_R1(P2, stencil)
        for zs in (np.asarray(z1s), np.asarray(z2s)):
            term = 3.0 * P2.E * zs / R1s ** 4
            res = dd5(zs, P2.kappa * h) + term[2]
            assert abs(res) / np.max(np.abs(term)) < 1e-7


def test_z1_is_radial_velocity():
    tau = np.linspace(0.0, 1.0, 13)
    z1, _ = kernel_solutions_z(P2, tau)
    np.testing.assert_allclose(z1, first_asymptotic_dR1(P2, tau),
                               rtol=1e-15)


def test_kernel_K_frozen_value():
    # Oracle: (tau-sigma) J / (R1(tau) R1(sigma)) evaluated directly.
    assert kernel_K(P2, 0.01, 0.005) == pytest.approx(
        0.0049999791674885047, rel=1e-13)


def test_kernel_K_structure():
    taus = np.linspace(0.0, 0.1, 40)
    for tau in taus:
        for sigma in taus:
            K = kernel_K(P2, tau, sigma)
            if sigma > tau:
                assert K == 0.0
            else:
                assert K >= 0.0
    assert kernel_K(P2, 0.05, 0.05) == 0.0
    # J at coincident arguments is R1^2's quadratic form.
    assert kernel_J(P2, 0.02, 0.02) == pytest.approx(
        first_asymptotic_R1(P2, 0.02) ** 2, rel=1e-12)


def test_kernel_K_from_fundamental_pair():
    # K(tau, sigma) = z1(sigma) z2(tau) - z1(tau) z2(sigma) up to sign
    # conventions; verify the variation-of-constants identity.
    for tau, sigma in ((0.03, 0.01), (0.08, 0.02), (0.05, 0.049)):
        z1t, z2t = kernel_solutions_z(P2, tau)
        z1s, z2s = kernel_solutions_z(P2, sigma)
        built = z2t * z1s - z1t * z2s
        assert kernel_K(P2, tau, sigma) == pytest.approx(built, rel=1e-9)


def closed_form_I(params, tau):
    a = -params.tau0 / params.kappa
    y = (tau - params.tau0) / params.kappa

    def F(x):
        return y * x / (1 + x * x) - (y * y - 1) / (2 * (1 + x * x))

    return (F(y) - F(a)) / (params.E * (1 + y * y))


def test_delta_bound_against_closed_form():
    num, analytic = delta_bound(P2, n_grid=101, tau_max=1.0)
    grid = np.linspace(0.0, 1.0, 101)
    ref = max(closed_form_I(P2, t) for t in grid if t > 0.0)
    assert num == pytest.approx(ref, rel=1e-8)
    assert analytic == pytest.approx(4.0 / P2.E, rel=1e-15)
    assert num <= analytic
    # The numeric maximum sits near 1/(2E), half-way to the ceiling is
    # never approached.
    assert num == pytest.approx(1.0 / (2.0 * P2.E), rel=1e-6)


def test_delta_bound_stability_in_eta():
    n2, _ = delta_bound(P2, n_grid=101)
    n3, _ = delta_bound(scaled_params_direct(1e-3, "derive", UNIT, DAMP2),
                        n_grid=101)
    assert abs(n2 - n3) / n3 < 1e-6


def test_delta_bound_validation():
    with pytest.raises(InvalidInput):
        delta_bound(P2, n_grid=1)


def test_second_asymptotic_matching():
    match = (0.7, -0.3)
    R2, dR2 = second_asymptotic_R2(match, DAMP2, 1.5, 1.5)
    assert R2 == pytest.approx(0.7, rel=1e-15)
    assert dR2 == pytest.approx(-0.3, rel=1e-15)
    # Built from the fundamental kernels.
    tau = 2.4
    K2, H2 = kernels_K2_H2(DAMP2, tau - 1.5)
    R2b, _ = second_asymptotic_R2(match, DAMP2, 1.5, tau)
    assert R2b == pytest.approx(-0.3 * K2 + 0.7 * H2, rel=1e-14)


def test_second_asymptotic_starts_at_tau1():
    # The continuation is defined from the matching time on; earlier times
    # are outside its phase.
    with pytest.raises(OutOfPhase):
        second_asymptotic_R2((0.7, -0.3), DAMP2, 1.5, 1.4)
    with pytest.raises(OutOfPhase):
        second_asymptotic_R2((0.7, -0.3), DAMP2, 1.5, np.array([1.5, 1.0]))


def test_second_asymptotic_ode():
    # R2'' + 2 alpha R2' + R2 = 0 beyond the matching time.
    h = 1e-3
    match = (0.9, -0.1)
    for tau in np.linspace(1.6, 4.0, 9):
        stencil = tau + h * np.arange(-2.0, 3.0)
        R2, _ = second_asymptotic_R2(match, DAMP2, 1.5, stencil)
        res = dd5(R2, h) + 2.0 * 2.0 * d5(R2, h) + R2[2]
        scale = abs(dd5(R2, h)) + 4.0 * abs(d5(R2, h)) + abs(R2[2])
        assert abs(res) / scale < 1e-8


def test_asymptotic_times():
    t = asymptotic_times(1e-2, DAMP2, gamma1=1.2)
    assert t.tau1 == pytest.approx(1e-2 ** 1.2, rel=1e-15)
    assert t.zeta == pytest.approx(0.5 / abs(DAMP2.xi1), rel=1e-15)
    assert t.tau3 == pytest.approx(t.zeta * math.log(100.0), rel=1e-15)
    # tau2 oracle at alpha = 1.25: 2 ln(xi2/xi1)/(xi1 - xi2).
    t125 = asymptotic_times(0.5, characteristic_roots(1.25))
    assert t125.tau2 == pytest.approx(1.8483924814931874, rel=1e-13)
    with pytest.raises(InvalidInput):
        asymptotic_times(1e-2, DAMP2, gamma1=1.5)
    with pytest.raises(InvalidInput):
        asymptotic_times(1e-2, DAMP2, gamma1=1.0)
    with pytest.raises(InvalidInput):
        asymptotic_times(1e-2, DAMP2, zeta=4.0)
    with pytest.raises(InvalidInput):
        asymptotic_times(0.0, DAMP2)


def test_critical_point_values():
    # E = dr0^2 ds0^2 / (4 D) = 1/12 for unit data at alpha = 2.
    assert critical_point(P_ZERO) == pytest.approx(
        0.537284965911771, rel=1e-14)
    assert critical_point(scaled_params_direct(1e-2, 0.5, UNIT, DAMP2)) \
        == pytest.approx(0.37991784282579627, rel=1e-14)


def test_critical_point_is_equilibrium():
    from cornerimpact import ScaledState, radial_rhs

    Rc = critical_point(P2)
    _, ddR, _ = radial_rhs(ScaledState(0.0, Rc, 0.0, 0.0), P2)
    assert abs(ddR) < 1e-14


def test_lyapunov_F_values_and_monotonicity():
    # c3 = 1/12 here, so F(1, 0) = 1 + 1/12.
    assert lyapunov_F(P_ZERO, 1.0, 0.0) == pytest.approx(13.0 / 12.0,
                                                         rel=1e-15)
    # F is minimal (over R at fixed dR) exactly at the critical radius.
    Rc = critical_point(P2)
    R = np.linspace(0.2, 2.0, 500)
    F = lyapunov_F(P2, R, 0.0)
    assert abs(R[np.argmin(F)] - Rc) < 5e-3


def test_lyapunov_Q_solves_its_equation():
    for alpha in (1.1, 2.0, 4.0):
        damping = characteristic_roots(alpha)
        lyap = lyapunov_Q(damping)
        M = np.array([[0.0, 1.0], [-1.0, -2.0 * alpha]])
        residual = M.T @ lyap.Q + lyap.Q @ M + np.eye(2)
        assert np.max(np.abs(residual)) < 1e-14
        assert 0.0 < lyap.lambda1 < lyap.lambda2
        evals = np.linalg.eigvalsh(lyap.Q)
        assert lyap.lambda1 == pytest.approx(evals[0], rel=1e-12)


def test_lyapunov_Q_frozen_alpha2():
    lyap = lyapunov_Q(DAMP2)
    np.testing.assert_allclose(lyap.Q, [[2.25, 0.5], [0.5, 0.25]],
                               rtol=1e-15)
    assert lyap.lambda1 == pytest.approx(0.1319660112501051, rel=1e-13)
    assert lyap.lambda2 == pytest.approx(2.3680339887498949, rel=1e-13)


def test_trapping_threshold_frozen():
    # (4 lambda2^{3/2} E (1-eps)^2 / sqrt(lambda1))^{1/4}, margin 1.01.
    val = trapping_threshold(P_ZERO, margin=1.01)
    assert val == pytest.approx(1.3657737871418527, rel=1e-13)
    assert trapping_threshold(P_ZERO, margin=1.0) == \
        pytest.approx(1.3522512743978741, rel=1e-13)
    with pytest.raises(InvalidInput):
        trapping_threshold(P_ZERO, margin=0.5)
    with pytest.raises(InvalidInput, match="margin"):
        trapping_threshold(P_ZERO, margin=math.nan)


def test_obtuse_exponents():
    # 4 sqrt(D)/|xi1| = 25.86 at alpha = 2, so r = gamma1 there.
    r, right = obtuse_exponents(1.2, DAMP2)
    assert r == 1.2 and right == pytest.approx(1.2)
    # At alpha = 1.1 the root gap shrinks: 4 sqrt(D)/|xi1| ~ 2.856.
    damping = characteristic_roots(1.1)
    r, right = obtuse_exponents(1.2, damping)
    assert 4.0 * damping.sqrt_delta / abs(damping.xi1) == pytest.approx(
        2.8563333057805713, rel=1e-13)
    assert r == 1.2 and right == pytest.approx(max(2.0 - 1.2, 1.2))
    with pytest.raises(InvalidInput):
        obtuse_exponents(0.9, DAMP2)


def test_exit_equivalents_acute():
    cone = ConeGeometry(math.pi / 3.0)
    tau_bar, R_est, dR_est, dTh_est = exit_equivalents(P2, cone, T2)
    assert tau_bar == pytest.approx(
        P2.tau0 + math.sqrt(P2.E) * math.tan(cone.theta_bar) / P2.W,
        rel=1e-15)
    # Unit data, theta = pi/3: tau_bar ~ tau0 + 0.5 eta^2.
    assert tau_bar == pytest.approx(5.0000223288002145e-05, rel=1e-12)
    assert R_est == pytest.approx(
        P2.eta / (2.0 * cone.cos_theta * DAMP2.sqrt_delta), rel=1e-15)
    assert dR_est == pytest.approx(
        cone.sin_theta / P2.eta, rel=1e-15)
    assert dTh_est > 0.0


def test_exit_equivalents_obtuse_reference():
    cone = ConeGeometry(2.0 * math.pi / 3.0)
    zeta = 0.5 / abs(DAMP2.xi1)
    tau_bar, R_est, dR_est, _ = exit_equivalents(P2, cone, T2)
    assert tau_bar == pytest.approx(zeta * math.log(1.0 / P2.eta),
                                    rel=1e-14)
    assert R_est == pytest.approx(
        P2.eta ** (-(1.0 + zeta * DAMP2.xi1)) / (2.0 * DAMP2.sqrt_delta),
        rel=1e-14)
    assert dR_est == pytest.approx(DAMP2.xi1 * R_est, rel=1e-15)
