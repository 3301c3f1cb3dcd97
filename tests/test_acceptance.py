"""Acceptance criteria for the penalty-impact laboratory.

Ten quantitative criteria, one test each; every test prints a single
PASS/FAIL line with its measured numbers (visible with ``pytest -s``).
Runtime budgets are asserted where a criterion states one.
"""
import math
import time

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    SimConfig,
    asymptotic_report,
    asymptotic_times,
    characteristic_roots,
    convergence_study,
    critical_point,
    delta_bound,
    first_asymptotic_R1,
    first_asymptotic_dR1,
    integrate_corner,
    kernel_K,
    kernel_solutions_z,
    kernels_K2_H2,
    limit_trajectory,
    lyapunov_Q,
    r1_phase_state,
    scaled_params_direct,
    simulate_full,
    trapping_threshold,
)
from cornerimpact.corner_phase import oracle_fast_time_integration

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def d5(vals, h):
    return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)


def dd5(vals, h):
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
            - vals[4]) / (12 * h * h)


def test_criterion_01_closed_form_residuals():
    start = time.perf_counter()
    worst = 0.0

    # R1-phase: r'' + 2 alpha sqrt(k) r' + k r = 0 in physical time.
    k = 100.0
    h = 2e-3 / math.sqrt(k)
    for t in np.linspace(0.1, 0.9, 9):
        stencil = t + h * np.arange(-2.0, 3.0)
        r, rdot, _, sdot = r1_phase_state(UNIT, DAMP2, k, stencil)
        res = dd5(r, h) + 2.0 * 2.0 * math.sqrt(k) * d5(r, h) + k * r[2]
        scale = abs(k * r[2]) + 2.0 * 2.0 * math.sqrt(k) * abs(d5(r, h))
        worst = max(worst, abs(res) / scale)
        assert d5(sdot, h) == pytest.approx(0.0, abs=1e-10)  # s'' = 0

    # Fundamental damped kernels: x'' + 2 alpha x' + x = 0.
    h = 1e-3
    for tau in np.linspace(0.1, 4.0, 9):
        stencil = tau + h * np.arange(-2.0, 3.0)
        K2, H2 = kernels_K2_H2(DAMP2, stencil)
        for x in (np.asarray(K2), np.asarray(H2)):
            res = dd5(x, h) + 4.0 * d5(x, h) + x[2]
            scale = abs(dd5(x, h)) + 4.0 * abs(d5(x, h)) + abs(x[2])
            worst = max(worst, abs(res) / scale)

    # Comparison orbit R1'' = E/R1^3 and its linearisation z'' = -3E z/R1^4,
    # finite differences in the turning-point coordinate u = (tau-tau0)/kappa.
    P = scaled_params_direct(1e-2, "derive", UNIT, DAMP2)
    for u in (-4.0, -1.0, 0.0, 1.0, 4.0):
        hu = 3e-3 * math.sqrt(1.0 + u * u)
        stencil = P.tau0 + P.kappa * (u + hu * np.arange(-2.0, 3.0))
        R = first_asymptotic_R1(P, stencil)
        worst = max(worst, abs(dd5(R, P.kappa * hu) - P.E / R[2] ** 3)
                    / (P.E / R[2] ** 3))
        z1s, z2s = kernel_solutions_z(P, stencil)
        for zs in (np.asarray(z1s), np.asarray(z2s)):
            term = 3.0 * P.E * zs / R ** 4
            worst = max(worst, abs(dd5(zs, P.kappa * hu) + term[2])
                        / np.max(np.abs(term)))

    # Wronskian of (z1, z2) on 100 sampled tau; derivatives from the
    # hand-derived closed forms, independent of the implementation.
    worst_w = 0.0
    for tau in np.linspace(0.0, 1.0, 100):
        R1 = first_asymptotic_R1(P, tau)
        dR1 = first_asymptotic_dR1(P, tau)
        z1, z2 = kernel_solutions_z(P, tau)
        dz1 = P.W / R1 - z1 * dR1 / R1
        dz2 = (2.0 * tau - P.tau0) / R1 - z2 * dR1 / R1
        worst_w = max(worst_w, abs(z1 * dz2 - z2 * dz1 - 1.0))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and worst_w < 1e-10 and elapsed < 1.0
    report(1, ok, f"max ODE residual {worst:.2e} (< 1e-8), "
                  f"Wronskian defect {worst_w:.2e} (< 1e-10), "
                  f"{elapsed:.2f} s (< 1 s)")


def test_criterion_02_conservation():
    start = time.perf_counter()
    worst_rise = -np.inf
    for eta in (1e-2, 1e-3):
        P = scaled_params_direct(eta, "derive", UNIT, DAMP2)
        c3 = P.E * (1.0 - P.eps) ** 2
        for cone in (ACUTE, OBTUSE):
            res = integrate_corner(P, cone, rtol=1e-10, atol=1e-12)
            F = res.R ** 2 + c3 / res.R ** 2 + res.dR ** 2
            rise = np.max(np.diff(F) / F[:-1])
            worst_rise = max(worst_rise, rise)
    elapsed = time.perf_counter() - start
    ok = worst_rise <= 1e-9 and elapsed < 10.0
    report(2, ok, f"max relative Lyapunov rise {worst_rise:.2e} (<= 1e-9), "
                  f"{elapsed:.2f} s (< 10 s)")


def test_criterion_03_first_asymptotic():
    start = time.perf_counter()
    table, fits = asymptotic_report(SimConfig(),
                                    eta_list=(1e-2, 1e-3, 1e-4))
    idx = int(np.nonzero(table["eta"] == 1e-3)[0][0])
    err = table["err_R1"][idx]
    order = fits["order_R1"]
    elapsed = time.perf_counter() - start
    ok = err <= 0.05 and order >= 0.7 and elapsed < 30.0
    report(3, ok, f"max |R-R1|/R1 on [0, eta^1.2] at eta=1e-3: {err:.2e} "
                  f"(<= 0.05), fitted eta-order {order:.3f} (>= 0.7), "
                  f"{elapsed:.1f} s (< 30 s)")


def test_criterion_04_exit_time_equivalent():
    start = time.perf_counter()
    ratios = {}
    for eta in (1e-3, 1e-4):
        P = scaled_params_direct(eta, "derive", UNIT, DAMP2)
        res = integrate_corner(P, ACUTE, rtol=1e-10, atol=1e-12)
        est = P.tau0 + 0.5 * eta * eta     # unit data, theta = pi/3
        ratios[eta] = res.exit_tau / est
    elapsed = time.perf_counter() - start
    ok = (0.95 <= ratios[1e-3] <= 1.05 and 0.99 <= ratios[1e-4] <= 1.01
          and elapsed < 10.0)
    report(4, ok, f"tau_bar/tau_est = {ratios[1e-3]:.6f} at eta=1e-3 "
                  f"(in [0.95, 1.05]), {ratios[1e-4]:.6f} at eta=1e-4 "
                  f"(in [0.99, 1.01]), {elapsed:.2f} s (< 10 s)")


def test_criterion_05_second_asymptotic():
    start = time.perf_counter()
    table, _ = asymptotic_report(SimConfig(), eta_list=(1e-3, 1e-4))
    e3 = table["err_R2"][int(np.nonzero(table["eta"] == 1e-3)[0][0])]
    e4 = table["err_R2"][int(np.nonzero(table["eta"] == 1e-4)[0][0])]
    elapsed = time.perf_counter() - start
    ok = e3 <= 0.1 and e4 < e3 and elapsed < 30.0
    report(5, ok, f"max |R-R2|/R2 on [tau1, tau3]: {e3:.2e} at eta=1e-3 "
                  f"(<= 0.1), {e4:.2e} at eta=1e-4 (decreasing), "
                  f"{elapsed:.1f} s (< 30 s)")


def test_criterion_06_attractor():
    eta = 1e-2
    P = scaled_params_direct(eta, "derive", UNIT, DAMP2)
    lyap = lyapunov_Q(DAMP2)
    Rc = critical_point(P)
    Rbar = trapping_threshold(P, margin=1.01)
    tau3 = asymptotic_times(eta, DAMP2).tau3
    deadline = tau3 + 20.0 * (2.0 * lyap.lambda2)

    res = integrate_corner(P, ACUTE, rtol=1e-10, atol=1e-12,
                           stop_at_event=False, horizon=deadline)
    dist = np.abs(res.R - Rc) + np.abs(res.dR)
    settled = np.nonzero(dist < 1e-6)[0]
    settle_tau = res.tau[settled[0]] if settled.size else math.inf

    # Q-form decay between the last trapping-radius crossing and settling.
    above = np.nonzero(res.R > Rbar)[0]
    i0 = above[-1] + 1 if settled.size and above.size else 0
    i1 = settled[0] if settled.size else res.tau.size - 1
    x1 = res.R[i0:i1 + 1] - Rc
    x2 = res.dR[i0:i1 + 1]
    V = (lyap.Q[0, 0] * x1 * x1 + 2.0 * lyap.Q[0, 1] * x1 * x2
         + lyap.Q[1, 1] * x2 * x2)
    rate = -float(np.polyfit(res.tau[i0:i1 + 1], np.log(V), 1)[0])
    bound = 1.0 / (2.0 * lyap.lambda2)

    ok = settle_tau <= deadline and rate >= 0.9 * bound
    report(6, ok, f"|R-Rc|+|R'| < 1e-6 at tau = {settle_tau:.2f} "
                  f"(deadline {deadline:.2f}), Q-form decay rate "
                  f"{rate:.3f} >= 0.9/(2 lambda2) = {0.9 * bound:.3f}")


def test_criterion_07_moreau_acute():
    table, _ = convergence_study(
        SimConfig().override(mode="physical", k=100.0, T=2.0),
        k_list=(1e2, 1e3, 1e4))
    errs = table["sup_error"]          # ascending k
    ratios = errs[:-1] / errs[1:]
    mono = bool(np.all(np.diff(errs) < 0.0))
    in_band = bool(np.all((ratios >= math.sqrt(10.0) / 2.0)
                          & (ratios <= 2.0 * math.sqrt(10.0))))

    # Limit slope after t0 by exact finite difference on the limit path,
    # against the analytic value ds0 cos(pi/3) (-sin(pi/3), cos(pi/3)).
    pts = limit_trajectory(UNIT, ACUTE, np.array([1.25, 1.75]))
    slope = (pts[1] - pts[0]) / 0.5
    target = np.array([-math.sqrt(3.0) / 4.0, 0.25])
    slope_err = float(np.max(np.abs(slope - target)))

    ok = mono and in_band and slope_err <= 1e-12
    report(7, ok, f"sup errors {errs[0]:.3e} / {errs[1]:.3e} / "
                  f"{errs[2]:.3e} (decreasing: {mono}), decade ratios "
                  f"{ratios[0]:.2f}, {ratios[1]:.2f} (in [1.58, 6.32]), "
                  f"limit slope defect {slope_err:.1e} (<= 1e-12)")


def test_criterion_08_moreau_obtuse():
    cfg = SimConfig().override(mode="physical", k=100.0,
                               theta_bar=2.0 * math.pi / 3.0)
    grid = np.linspace(1.1, 2.0, 400)
    sups = []
    min_y1 = math.inf
    for k in (1e2, 1e3, 1e4):
        traj = simulate_full(cfg.override(k=k, T=2.0), t_eval=grid)
        sups.append(float(np.max(np.linalg.norm(traj.positions_at(grid),
                                                axis=1))))
        mask = traj.phase == "R3-phase"
        if np.any(mask):
            y1 = traj.u[mask] @ OBTUSE.face2_normal
            min_y1 = min(min_y1, float(np.min(y1)))
    sups = np.asarray(sups)
    decreasing = bool(np.all(np.diff(sups) < 0.0))
    ok = decreasing and sups[-1] < sups[0] / 3.0 and min_y1 >= -1e-12
    report(8, ok, f"sup |u_k| on [1.1, 2] = {sups[0]:.3e} / {sups[1]:.3e} "
                  f"/ {sups[2]:.3e} (decreasing toward 0: {decreasing}), "
                  f"min face-2 overshoot y1 = {min_y1:.2e} (>= -1e-12)")


def test_criterion_09_kernel_positivity_and_delta():
    min_K = math.inf
    deltas = {}
    for eta in (1e-2, 1e-3):
        P = scaled_params_direct(eta, "derive", UNIT, DAMP2)
        taus = np.linspace(0.0, 0.1, 60)
        for tau in taus:
            for sigma in taus[taus <= tau]:
                min_K = min(min_K, kernel_K(P, tau, sigma))
        num, analytic = delta_bound(P)
        deltas[eta] = num
        assert num <= analytic
    variation = abs(deltas[1e-2] - deltas[1e-3]) / deltas[1e-3]
    ok = min_K >= 0.0 and variation < 0.05
    report(9, ok, f"min K on tau <= 0.1 grids: {min_K:.2e} (>= 0), "
                  f"delta_numeric = {deltas[1e-3]:.6f} <= 4/E = 48, "
                  f"eta-variation {variation:.2e} (< 5%)")


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    grid = np.linspace(0.0, 2.0, 400)
    worst = 0.0
    for k in (100.0, 400.0):
        for cone in (ACUTE, OBTUSE):
            config = SimConfig().override(mode="physical", k=k, T=2.0,
                                          theta_bar=cone.theta_bar)
            traj = simulate_full(config, t_eval=grid)
            u_pipe = traj.positions_at(grid)
            oracle = oracle_fast_time_integration(
                UNIT, DAMP2, cone, k, 2.0, rtol=1e-11, atol=1e-13)
            u_orac = oracle.sample(grid)
            rel = (np.max(np.linalg.norm(u_pipe - u_orac, axis=1))
                   / np.max(np.linalg.norm(u_orac, axis=1)))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    report(10, ok, f"pipeline vs fast-time oracle, worst relative "
                   f"sup-norm over k in {{100, 400}} x both angles: "
                   f"{worst:.2e} (<= 1e-4), {elapsed:.1f} s (< 60 s)")
