"""Adaptive Dormand-Prince 5(4) cores for the scaled corner flow.

Integrates the reduced radial system

    R'     = V
    V'     = c3 / R^3 - 2 alpha V - R        c3  = E (1-eps)^2
    Theta' = cth / R^2                       cth = sqrt(E) (1-eps)

The angle rides along as a quadrature, so the conserved momentum
R^2 Theta' = cth holds by construction and the drift diagnostic downstream
measures pure round-off.

Everything is scalar arithmetic on purpose: the identical source compiles
under numba (CORNERIMPACT_BACKEND=numba/auto) and runs unmodified as plain
Python.  No allocation happens inside the step loop except for array growth.

Storage: each accepted step appends its end time and its state, one row of
an (n, 3) array with columns R, V, Theta.  Dense output: every accepted
step also stores its length and its stage slopes k1, k3 ... k7 (k2 has
zero weight), so the caller can evaluate the free DOPRI5 continuous
extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6) anywhere in the
step,

    y(tau_n + x h) = y_n + h K^T DENSE_P [x, x^2, x^3, x^4],

without a further right-hand-side call.  It is fourth-order accurate and
exact at both step ends.

Event handling: Theta' > 0, so a step contains at most one crossing of
theta_target.  The exit is the root of Theta = theta_target on the exact
single-step map from the start of the accepted step that crosses it.
Newton iterations with the slope Theta' = cth / R^2 start from the secant
guess between the step's end points and stay inside a bracket (lo, hi)
with Theta(lo) < theta_target <= Theta(hi); an iterate outside the
bracket, or one whose step fails, is replaced by the bracket midpoint.
The search stops when Theta equals theta_target, when Newton stops
moving, or when the bracket reaches floating-point resolution, so the
exit angle misses theta_target by round-off only, even at acute exits
where Theta' ~ W is huge.  It takes about three single-step re-runs.

Status codes returned by ``integrate_radial``:
    0  horizon reached
    1  stopped at the theta event
    2  step-size underflow (failure)
    3  step budget of MAX_STEPS attempts exhausted (failure)
    4  step-size underflow driven by a singular radius (failure)
"""
from __future__ import annotations

import numpy as np

from ._backend import jit

# Dormand-Prince 5(4) tableau.
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                      64448.0 / 6561.0, -212.0 / 729.0)
A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                           46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0)
B1, B3, B4, B5, B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                      -2187.0 / 6784.0, 11.0 / 84.0)
# b(5th) - b(4th), for the embedded error estimate.
E1, E3, E4, E5, E6, E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

# Dense-output coefficients: row s weights the stage slope k1, k3, ..., k7
# in the coefficients of x, x^2, x^3, x^4 (the row of k2 is zero).
DENSE_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0],
])

# Attempted steps (accepted + rejected) before a run gives up.
MAX_STEPS = 4_000_000


@jit
def _rhs(R, V, c3, alpha, cth):
    return V, c3 / (R * R * R) - 2.0 * alpha * V - R, cth / (R * R)


@jit
def _attempt(R, V, T, f1R, f1V, f1T, h, c3, alpha, cth, k):
    """One trial step of size h from (R, V, T) with cached first stage.

    Returns (ok, R5, V5, T5, f7R, f7V, f7T, eR, eV, eT): ok is False when a
    stage radius left (0, inf); e* are the raw embedded error components.
    The stage slopes k1, k3 ... k7 go to the rows of ``k`` (shape (6, 3)).
    """
    bad = (False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    R2 = R + h * (A21 * f1R)
    if not (R2 > 0.0 and np.isfinite(R2)):
        return bad
    V2 = V + h * (A21 * f1V)
    f2R, f2V, f2T = _rhs(R2, V2, c3, alpha, cth)

    R3 = R + h * (A31 * f1R + A32 * f2R)
    if not (R3 > 0.0 and np.isfinite(R3)):
        return bad
    V3 = V + h * (A31 * f1V + A32 * f2V)
    f3R, f3V, f3T = _rhs(R3, V3, c3, alpha, cth)

    R4 = R + h * (A41 * f1R + A42 * f2R + A43 * f3R)
    if not (R4 > 0.0 and np.isfinite(R4)):
        return bad
    V4 = V + h * (A41 * f1V + A42 * f2V + A43 * f3V)
    f4R, f4V, f4T = _rhs(R4, V4, c3, alpha, cth)

    R5s = R + h * (A51 * f1R + A52 * f2R + A53 * f3R + A54 * f4R)
    if not (R5s > 0.0 and np.isfinite(R5s)):
        return bad
    V5s = V + h * (A51 * f1V + A52 * f2V + A53 * f3V + A54 * f4V)
    f5R, f5V, f5T = _rhs(R5s, V5s, c3, alpha, cth)

    R6 = R + h * (A61 * f1R + A62 * f2R + A63 * f3R + A64 * f4R + A65 * f5R)
    if not (R6 > 0.0 and np.isfinite(R6)):
        return bad
    V6 = V + h * (A61 * f1V + A62 * f2V + A63 * f3V + A64 * f4V + A65 * f5V)
    f6R, f6V, f6T = _rhs(R6, V6, c3, alpha, cth)

    # 5th-order solution (b row equals the 7th stage row: FSAL).
    R5 = R + h * (B1 * f1R + B3 * f3R + B4 * f4R + B5 * f5R + B6 * f6R)
    if not (R5 > 0.0 and np.isfinite(R5)):
        return bad
    V5 = V + h * (B1 * f1V + B3 * f3V + B4 * f4V + B5 * f5V + B6 * f6V)
    T5 = T + h * (B1 * f1T + B3 * f3T + B4 * f4T + B5 * f5T + B6 * f6T)
    f7R, f7V, f7T = _rhs(R5, V5, c3, alpha, cth)

    k[0, 0], k[0, 1], k[0, 2] = f1R, f1V, f1T
    k[1, 0], k[1, 1], k[1, 2] = f3R, f3V, f3T
    k[2, 0], k[2, 1], k[2, 2] = f4R, f4V, f4T
    k[3, 0], k[3, 1], k[3, 2] = f5R, f5V, f5T
    k[4, 0], k[4, 1], k[4, 2] = f6R, f6V, f6T
    k[5, 0], k[5, 1], k[5, 2] = f7R, f7V, f7T

    eR = h * (E1 * f1R + E3 * f3R + E4 * f4R + E5 * f5R + E6 * f6R + E7 * f7R)
    eV = h * (E1 * f1V + E3 * f3V + E4 * f4V + E5 * f5V + E6 * f6V + E7 * f7V)
    eT = h * (E1 * f1T + E3 * f3T + E4 * f4T + E5 * f5T + E6 * f6T + E7 * f7T)
    return True, R5, V5, T5, f7R, f7V, f7T, eR, eV, eT


@jit
def _substep(R, V, T, f1R, f1V, f1T, h, c3, alpha, cth):
    """5th-order state at offset h from a step start (no error control)."""
    ok, R5, V5, T5, _, _, _, _, _, _ = _attempt(
        R, V, T, f1R, f1V, f1T, h, c3, alpha, cth, np.empty((6, 3)))
    return ok, R5, V5, T5


@jit
def _err_norm(eR, eV, eT, R, V, T, Rn, Vn, Tn, atol, rtol):
    sR = atol + rtol * max(abs(R), abs(Rn))
    sV = atol + rtol * max(abs(V), abs(Vn))
    sT = atol + rtol * max(abs(T), abs(Tn))
    a = eR / sR
    b = eV / sV
    c = eT / sT
    return np.sqrt((a * a + b * b + c * c) / 3.0)


@jit
def _locate_exit(R, V, T, f1R, f1V, f1T, h, Rn, Vn, Tn, theta_target,
                 c3, alpha, cth):
    """Crossing of theta_target inside an accepted step of length h from
    (R, V, T) to (Rn, Vn, Tn), by the search under "Event handling".

    Returns (s, Re, Ve, Te): the last offset whose single-step state could
    be evaluated, and that state; (h, Rn, Vn, Tn) when none could.
    """
    lo = 0.0
    hi = h
    se, Re, Ve, Te = h, Rn, Vn, Tn
    s = (theta_target - T) / (Tn - T) * h
    for _ in range(200):
        if not (lo < s < hi):
            s = 0.5 * (lo + hi)
            if not (lo < s < hi):
                break  # bracket at floating-point resolution
        ok, Rs, Vs, Ts = _substep(R, V, T, f1R, f1V, f1T, s, c3, alpha, cth)
        if not ok:
            hi = s  # the next iterate is the midpoint
            continue
        se, Re, Ve, Te = s, Rs, Vs, Ts
        if Ts == theta_target:
            break
        if Ts > theta_target:
            hi = s
        else:
            lo = s
        s_next = s - (Ts - theta_target) * (Rs * Rs) / cth
        if s_next == s:
            break  # Newton stopped moving
        s = s_next
    return se, Re, Ve, Te


@jit
def integrate_radial(R0, V0, c3, cth, alpha, theta_target, tau_end,
                     rtol, atol, h0, stop_at_event):
    """Adaptive DP45 integration of the scaled corner flow from tau = 0.

    Returns (status, n, ts, ys, hs, ks, exit_found, exit_tau, exR, exV,
    exT, nacc, nrej): the n samples (times ts, states ys with columns R,
    R', Theta), the dense-output data of the n - 1 steps between them
    (their lengths hs and stage slopes ks, shape (n - 1, 6, 3)), the exit,
    and the step counts.  Step i starts at sample i; when the run stops at
    the event, the last step is the full accepted step that holds the
    crossing.  The arrays are growth buffers: only their first n (or
    n - 1) rows are filled.
    """
    cap = 4096
    ts = np.empty(cap)
    ys = np.empty((cap, 3))
    hs = np.empty(cap)
    ks = np.empty((cap, 6, 3))
    ts[0] = 0.0
    ys[0, 0] = R0
    ys[0, 1] = V0
    ys[0, 2] = 0.0
    n = 1

    exit_found = False
    exit_tau = np.nan
    exR = np.nan
    exV = np.nan
    exT = np.nan

    status = 0
    nacc = 0
    nrej = 0
    last_reject_bad = False

    tau = 0.0
    R = R0
    V = V0
    Th = 0.0

    if tau_end <= 0.0:
        return (status, n, ts, ys, hs, ks, exit_found, exit_tau,
                exR, exV, exT, nacc, nrej)

    f1R, f1V, f1T = _rhs(R, V, c3, alpha, cth)
    h = h0
    if h > tau_end:
        h = tau_end

    while tau < tau_end:
        if nacc + nrej >= MAX_STEPS:
            status = 3
            break
        if tau + h > tau_end:
            h = tau_end - tau
        if tau + h == tau:
            status = 2
            break

        # Step n - 1 fills row n - 1 of ks; n < cap holds after growth.
        k = ks[n - 1]
        ok, Rn, Vn, Tn, f7R, f7V, f7T, eR, eV, eT = _attempt(
            R, V, Th, f1R, f1V, f1T, h, c3, alpha, cth, k)
        if not ok:
            h *= 0.25
            nrej += 1
            last_reject_bad = True
            continue
        err = _err_norm(eR, eV, eT, R, V, Th, Rn, Vn, Tn, atol, rtol)
        if not np.isfinite(err):
            h *= 0.25
            nrej += 1
            last_reject_bad = True
            continue
        if err > 1.0:
            fac = 0.9 * err ** -0.2
            if fac < 0.1:
                fac = 0.1
            h *= fac
            nrej += 1
            last_reject_bad = False
            continue

        # Step accepted.
        nacc += 1
        last_reject_bad = False
        hs[n - 1] = h

        if (not exit_found) and Tn >= theta_target:
            s, exR, exV, exT = _locate_exit(
                R, V, Th, f1R, f1V, f1T, h, Rn, Vn, Tn, theta_target,
                c3, alpha, cth)
            exit_found = True
            exit_tau = tau + s
            if stop_at_event:
                ts[n] = exit_tau
                ys[n, 0] = exR
                ys[n, 1] = exV
                ys[n, 2] = exT
                n += 1
                status = 1
                break

        tau += h
        R = Rn
        V = Vn
        Th = Tn
        f1R, f1V, f1T = f7R, f7V, f7T  # FSAL

        ts[n] = tau
        ys[n, 0] = R
        ys[n, 1] = V
        ys[n, 2] = Th
        n += 1
        if n == cap:
            cap *= 2
            ts2 = np.empty(cap)
            ys2 = np.empty((cap, 3))
            hs2 = np.empty(cap)
            ks2 = np.empty((cap, 6, 3))
            ts2[:n] = ts[:n]
            ys2[:n] = ys[:n]
            hs2[:n] = hs[:n]
            ks2[:n] = ks[:n]
            ts, ys, hs, ks = ts2, ys2, hs2, ks2

        if err < 1e-30:
            fac = 5.0
        else:
            fac = 0.9 * err ** -0.2
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
        h *= fac

    if status == 2 and last_reject_bad:
        status = 4  # underflow driven by a singular radius

    return (status, n, ts, ys, hs, ks, exit_found, exit_tau,
            exR, exV, exT, nacc, nrej)
