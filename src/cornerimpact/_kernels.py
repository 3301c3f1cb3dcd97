"""Adaptive Lawson Dormand-Prince 5(4) cores for the scaled corner flow.

Integrates the reduced radial system

    R'     = V
    V'     = c3 / R^3 - 2 alpha V - R        c3  = E (1-eps)^2
    Theta' = cth / R^2                       cth = sqrt(E) (1-eps)

The angle rides along as a quadrature, so the conserved momentum
R^2 Theta' = cth holds by construction.

Lawson stepping (Lawson 1967; Hochbruck & Ostermann, Acta Numerica 2010):
write y = (R, V) and y' = A y + N(y), with the damped-linear part
A y = (V, -2 alpha V - R) and the penalty perturbation N = (0, c3 / R^3).
The linear part is propagated exactly by

    Phi(s) = exp(A s) = [[H2(s), K2(s)], [-K2(s), K2'(s)]],

the fundamental solutions of ``linear_phase``, in the cancellation-free
form e = e^{xi1 s}, q = -expm1(-2 sqrt(D) s) / (2 sqrt(D)), K2 = e q,
H2 = e (1 - xi1 q), K2' = e (1 + xi2 q).  The roots xi1, xi2 and
2 sqrt(D) come in as arguments from ``linear_phase.characteristic_roots``,
the same values the face phases use.  Each step is taken about the
rest point w of the frozen first-stage force n1 = c3 / R_n^3 (A (w, 0) +
(0, n1) = 0 gives w = n1), capped at R_n: in u = y - (w, 0) the flow reads
u' = A u + M(y) with M = N - (0, w), and the Dormand-Prince tableau
(a, b, c) acts on M alone:

    U_i     = Phi(c_i h) u_n + h sum_{l<i} a_il Phi((c_i - c_l) h) M_l
    u_{n+1} = Phi(h) u_n     + h sum_l    b_l  Phi((1 - c_l) h)   M_l

and the embedded error weighs the same terms with b - b^.  The shift makes
a step exact while N stays constant; without it, a step near the rest
point Rc = c3^(1/4), where c3 / R^3 balances R, would be limited by the
quadrature of Phi against a constant force (about 30 times shorter than a
DP45 step at alpha = 8).  The cap keeps w + H2 (R - w) from rounding on the
scale of n1 >> R in the early window.  The nodes increase, so every
argument of Phi is >= 0: Phi only decays, and no step length overflows it.
The last stage is the step end, so its N is the next step's first stage
(FSAL).  N depends on R alone, so stage velocities are never formed.
Theta is a plain DP quadrature of cth / R^2 over the stage radii.  While
R >> 1 (the paper's second asymptotic R2 = K2 R' + H2 R), N is negligible
and y follows the exact linear flow; the step is then limited by the Theta
quadrature only, and the cost hardly grows as eta shrinks.

The step loop is scalar arithmetic on purpose (``math.exp``/
``math.expm1``, not their numpy twins, which are slow on Python floats).

Storage: each accepted step appends its end time to one Python list and
its state R, V, Theta to another, flat, so that the lists hold floats
only and no object the garbage collector tracks.  They become numpy
arrays when the run ends.
Sampling: the state at an offset s into an accepted step is the
single-step map ``_substep`` of length s from that step's start, the
same map the exit search solves on.
``substep_many`` evaluates it at many (start, offset) pairs at once in
numpy; it is exact at both step ends and as accurate as the step itself
in between.

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

Failures: ``integrate_radial`` raises ``SingularRadius`` when the step
size falls below float resolution and the last rejected step had a stage
radius outside (0, inf), and ``IntegrationFailure`` when it falls there
after an error-test rejection or when MAX_STEPS attempts are spent.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationFailure, SingularRadius

# Dormand-Prince 5(4) tableau.
C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
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
# Node differences c_i - c_l that are not nodes themselves.
D32 = 1.0 / 10.0
D42, D43 = 3.0 / 5.0, 1.0 / 2.0
D52, D53, D54 = 31.0 / 45.0, 53.0 / 90.0, 4.0 / 45.0
D63, D65 = 7.0 / 10.0, 1.0 / 9.0

# Attempted steps (accepted + rejected) before a run gives up.
MAX_STEPS = 4_000_000

# Nodes and rows of the tableau for the vectorised map; the last row
# (node 1, weights b) is the step end.
_NODES = np.array([0.0, C2, C3, C4, C5, 1.0, 1.0])
_ROWS = tuple(np.array(row) for row in (
    (A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
    (A61, A62, A63, A64, A65), (B1, 0.0, B3, B4, B5, B6)))


def _rhs(R, c3, cth):
    """Perturbation c3 / R^3 of R'' and the angle slope cth / R^2."""
    R2 = R * R
    return c3 / (R2 * R), cth / R2


def _prop(s, xi1, xi2, sd2):
    """(H2, K2, K2') of the linear propagator Phi(s), s >= 0."""
    e = math.exp(xi1 * s)
    q = -math.expm1(-sd2 * s) / sd2
    return e * (1.0 - xi1 * q), e * q, e * (1.0 + xi2 * q)


def _attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):
    """One trial Lawson step of size h from (R, V, T).

    (n1, g1) = _rhs(R) is the cached first stage.  Returns (ok, Rn, Vn,
    Tn, n7, g7, eR, eV, eT): ok is False when a stage radius left
    (0, inf); (n7, g7) = _rhs(Rn) is the next step's first stage; e* are
    the raw embedded error components.
    """
    bad = (False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    INF = math.inf
    # Lawson in u = R - w about the rest point w of the frozen force n1,
    # capped at R so that w + H2 (R - w) rounds like R; m = n - w.
    w = n1 if n1 < R else R
    u = R - w
    m1 = n1 - w

    H, K, dK2 = _prop(C2 * h, xi1, xi2, sd2)
    K64 = K  # c6 - c4 = c2
    R2 = w + H * u + K * (V + h * A21 * m1)
    if not (0.0 < R2 < INF):
        return bad
    n2, g2 = _rhs(R2, c3, cth)
    m2 = n2 - w

    H, K, _ = _prop(C3 * h, xi1, xi2, sd2)
    _, K32, _ = _prop(D32 * h, xi1, xi2, sd2)
    R3 = w + H * u + K * (V + h * A31 * m1) + h * (A32 * K32 * m2)
    if not (0.0 < R3 < INF):
        return bad
    n3, g3 = _rhs(R3, c3, cth)
    m3 = n3 - w

    H, K, _ = _prop(C4 * h, xi1, xi2, sd2)
    K62 = K  # c6 - c2 = c4
    _, K42, _ = _prop(D42 * h, xi1, xi2, sd2)
    _, K43, _ = _prop(D43 * h, xi1, xi2, sd2)
    R4 = (w + H * u + K * (V + h * A41 * m1)
          + h * (A42 * K42 * m2 + A43 * K43 * m3))
    if not (0.0 < R4 < INF):
        return bad
    n4, g4 = _rhs(R4, c3, cth)
    m4 = n4 - w

    H, K, _ = _prop(C5 * h, xi1, xi2, sd2)
    _, K52, _ = _prop(D52 * h, xi1, xi2, sd2)
    _, K53, _ = _prop(D53 * h, xi1, xi2, sd2)
    _, K54, _ = _prop(D54 * h, xi1, xi2, sd2)
    R5 = (w + H * u + K * (V + h * A51 * m1)
          + h * (A52 * K52 * m2 + A53 * K53 * m3 + A54 * K54 * m4))
    if not (0.0 < R5 < INF):
        return bad
    n5, g5 = _rhs(R5, c3, cth)
    m5 = n5 - w

    # Offsets 1 - c_l of the last stage and of the step end.
    H1, K1, dK1 = _prop(h, xi1, xi2, sd2)
    _, K63, dK63 = _prop(D63 * h, xi1, xi2, sd2)
    _, K65, dK65 = _prop(D65 * h, xi1, xi2, sd2)
    R6 = (w + H1 * u + K1 * (V + h * A61 * m1)
          + h * (A62 * K62 * m2 + A63 * K63 * m3 + A64 * K64 * m4
                 + A65 * K65 * m5))
    if not (0.0 < R6 < INF):
        return bad
    n6, g6 = _rhs(R6, c3, cth)
    m6 = n6 - w

    # 5th-order solution (b row equals the 7th stage row: FSAL); the R
    # component of Phi(0) N6 is zero.
    Vb = V + h * B1 * m1
    Rn = w + H1 * u + K1 * Vb + h * (B3 * K63 * m3 + B4 * K64 * m4
                                     + B5 * K65 * m5)
    if not (0.0 < Rn < INF):
        return bad
    Vn = -K1 * u + dK1 * Vb + h * (B3 * dK63 * m3 + B4 * dK2 * m4
                                   + B5 * dK65 * m5 + B6 * m6)
    Tn = T + h * (B1 * g1 + B3 * g3 + B4 * g4 + B5 * g5 + B6 * g6)
    n7, g7 = _rhs(Rn, c3, cth)

    eR = h * (E1 * K1 * m1 + E3 * K63 * m3 + E4 * K64 * m4 + E5 * K65 * m5)
    eV = h * (E1 * dK1 * m1 + E3 * dK63 * m3 + E4 * dK2 * m4
              + E5 * dK65 * m5 + E6 * m6 + E7 * (n7 - w))
    eT = h * (E1 * g1 + E3 * g3 + E4 * g4 + E5 * g5 + E6 * g6 + E7 * g7)
    return True, Rn, Vn, Tn, n7, g7, eR, eV, eT


def _substep(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):
    """5th-order state at offset h from a step start (no error control)."""
    ok, Rn, Vn, Tn, _, _, _, _, _ = _attempt(
        R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2)
    return ok, Rn, Vn, Tn


def substep_many(R, V, T, s, c3, cth, xi1, xi2, sd2):
    """``_substep`` at many starts (R, V, T) and offsets s >= 0 at once.

    Plain numpy over the sample axis, with the stage sums in tableau
    order; agrees with ``_substep`` to round-off.  Stage radii are not
    checked: the offsets lie inside accepted steps.  Returns the
    end states as an array with columns R, V, Theta.
    """
    n1 = c3 / (R * R * R)
    w = np.minimum(n1, R)
    u = R - w
    m = [n1 - w]
    g = [cth / (R * R)]
    for i, row in enumerate(_ROWS, start=1):
        x = s[:, None] * (_NODES[i] - _NODES[:i])
        e = np.exp(xi1 * x)
        q = -np.expm1(-sd2 * x) / sd2
        K = e * q
        M = np.column_stack(m)
        Ri = (w + e[:, 0] * (1.0 - xi1 * q[:, 0]) * u + K[:, 0] * V
              + s * ((K * M) @ row))
        if i < len(_ROWS):
            m.append(c3 / (Ri * Ri * Ri) - w)
            g.append(cth / (Ri * Ri))
    D = e * (1.0 + xi2 * q)
    Vi = -K[:, 0] * u + D[:, 0] * V + s * ((D * M) @ row)
    Ti = T + s * (np.column_stack(g) @ row)
    return np.column_stack([Ri, Vi, Ti])


def _err_norm(eR, eV, eT, R, V, T, Rn, Vn, Tn, atol, rtol):
    sR = atol + rtol * max(abs(R), abs(Rn))
    sV = atol + rtol * max(abs(V), abs(Vn))
    sT = atol + rtol * max(abs(T), abs(Tn))
    a = eR / sR
    b = eV / sV
    c = eT / sT
    return math.sqrt((a * a + b * b + c * c) / 3.0)


def _locate_exit(R, V, T, n1, g1, h, Rn, Vn, Tn, theta_target,
                 c3, cth, xi1, xi2, sd2):
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
        ok, Rs, Vs, Ts = _substep(R, V, T, n1, g1, s, c3, cth,
                                  xi1, xi2, sd2)
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


def integrate_radial(R0, V0, c3, cth, xi1, xi2, sd2, theta_target, tau_end,
                     rtol, atol, h0, stop_at_event):
    """Adaptive Lawson DP45 integration of the scaled corner flow from
    tau = 0, with the roots (xi1, xi2) and sd2 = 2 sqrt(D) of
    ``linear_phase.characteristic_roots``.

    Returns (ts, ys, exit, nacc, nrej): the sample times and states (an
    (n, 3) array with columns R, R', Theta), the exit (tau, R, R', Theta)
    or None when the run did not cross theta_target, and the step counts.
    Step i starts at sample i; when the run stops at the event, the last
    step is the full accepted step that holds the crossing.  Raises
    ``SingularRadius`` or ``IntegrationFailure`` as under "Failures".
    """
    tau, R, V, Th = 0.0, R0, V0, 0.0
    ts = [tau]
    ys = [R, V, Th]
    exit = None
    nacc = 0
    nrej = 0
    if tau_end <= 0.0:
        return np.array(ts), np.array(ys).reshape(-1, 3), exit, nacc, nrej

    last_reject_bad = False
    n1, g1 = _rhs(R, c3, cth)
    h = min(h0, tau_end)

    while tau < tau_end:
        if nacc + nrej >= MAX_STEPS:
            raise IntegrationFailure(f"step budget {MAX_STEPS} exhausted")
        if tau + h > tau_end:
            h = tau_end - tau
        if tau + h == tau:
            if last_reject_bad:
                raise SingularRadius(
                    f"radius collapsed toward zero near tau ~ {tau:.6g}")
            raise IntegrationFailure(
                f"step size underflow at tau ~ {tau:.6g}")

        ok, Rn, Vn, Tn, n7, g7, eR, eV, eT = _attempt(
            R, V, Th, n1, g1, h, c3, cth, xi1, xi2, sd2)
        if not ok:
            h *= 0.25
            nrej += 1
            last_reject_bad = True
            continue
        err = _err_norm(eR, eV, eT, R, V, Th, Rn, Vn, Tn, atol, rtol)
        if not math.isfinite(err):
            h *= 0.25
            nrej += 1
            last_reject_bad = True
            continue
        if err > 1.0:
            h *= max(0.9 * err ** -0.2, 0.1)
            nrej += 1
            last_reject_bad = False
            continue

        # Step accepted.
        nacc += 1
        last_reject_bad = False

        if exit is None and Tn >= theta_target:
            s, Re, Ve, Te = _locate_exit(
                R, V, Th, n1, g1, h, Rn, Vn, Tn, theta_target,
                c3, cth, xi1, xi2, sd2)
            exit = (tau + s, Re, Ve, Te)
            if stop_at_event:
                ts.append(exit[0])
                ys += exit[1:]
                break

        tau += h
        R, V, Th = Rn, Vn, Tn
        n1, g1 = n7, g7  # FSAL
        ts.append(tau)
        ys += (R, V, Th)

        # Plain comparisons: builtin min/max calls cost more per step.
        if err < 1e-30:
            fac = 5.0
        else:
            fac = 0.9 * err ** -0.2
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
        h *= fac

    return np.array(ts), np.array(ys).reshape(-1, 3), exit, nacc, nrej
