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
``math.expm1``, not their numpy twins, which are slow on Python floats),
and a trial step ``_attempt`` is one flat body: it evaluates Phi inline at
its 13 offsets (only K2 where a stage needs no more) and the perturbation
inline at its stages, and the error norm sits in the step loop.  A Python
call costs about as much as a stage's arithmetic: on the runs of 64 seeded
corner_long and corner_dense benchmark ops, this body takes 0.65 of the
time of one that calls a helper per Phi offset (13), per perturbation (6)
and for the norm (1), with the same floating-point operations in the same
order and bit-identical results.

Storage: each accepted step appends its end time to one Python list and
its state R, V, Theta to another, flat, so that the lists hold floats
only and no object the garbage collector tracks.  They become numpy
arrays when the run ends.
Sampling: the state at an offset s into an accepted step is the
single-step map ``_substep`` of length s from that step's start, the
same map the exit search solves on.  ``substep_many`` evaluates it at
many (start, offset) pairs at once in numpy, for ``CornerResult.sample``
after a run; it is exact at both step ends and as accurate as the step
itself in between.

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
from math import exp, expm1

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
    """Perturbation c3 / R^3 of R'' and the angle slope cth / R^2 at R.

    The step evaluates both inline; this serves the run start and the
    tests.
    """
    R2 = R * R
    return c3 / (R2 * R), cth / R2


def _attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):
    """One trial Lawson step of size h from (R, V, T).

    (n1, g1) = _rhs(R) is the cached first stage.  Returns (ok, Rn, Vn,
    Tn, n7, g7, eR, eV, eT): ok is False when a stage radius left
    (0, inf); (n7, g7) = _rhs(Rn) is the next step's first stage; e* are
    the raw embedded error components.

    Phi(s) is evaluated inline at the 13 offsets s = c h: e = e^{xi1 s},
    q = -expm1(-sd2 s) / sd2, then H2 = e (1 - xi1 q), K2 = e q and
    K2' = e (1 + xi2 q), each only where a stage reads it.
    """
    bad = (False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    INF = math.inf
    # Lawson in u = R - w about the rest point w of the frozen force n1,
    # capped at R so that w + H2 (R - w) rounds like R; m = n - w.
    w = n1 if n1 < R else R
    u = R - w
    m1 = n1 - w

    s = C2 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    K64 = e * q  # c6 - c4 = c2
    dK2 = e * (1.0 + xi2 * q)
    R2 = w + e * (1.0 - xi1 * q) * u + K64 * (V + h * A21 * m1)
    if not (0.0 < R2 < INF):
        return bad
    Q = R2 * R2
    n2 = c3 / (Q * R2)
    g2 = cth / Q
    m2 = n2 - w

    s = C3 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    s = D32 * h
    K32 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    R3 = (w + e * (1.0 - xi1 * q) * u + e * q * (V + h * A31 * m1)
          + h * (A32 * K32 * m2))
    if not (0.0 < R3 < INF):
        return bad
    Q = R3 * R3
    n3 = c3 / (Q * R3)
    g3 = cth / Q
    m3 = n3 - w

    s = C4 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    K62 = e * q  # c6 - c2 = c4
    s = D42 * h
    K42 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    s = D43 * h
    K43 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    R4 = (w + e * (1.0 - xi1 * q) * u + K62 * (V + h * A41 * m1)
          + h * (A42 * K42 * m2 + A43 * K43 * m3))
    if not (0.0 < R4 < INF):
        return bad
    Q = R4 * R4
    n4 = c3 / (Q * R4)
    g4 = cth / Q
    m4 = n4 - w

    s = C5 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    s = D52 * h
    K52 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    s = D53 * h
    K53 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    s = D54 * h
    K54 = exp(xi1 * s) * (-expm1(-sd2 * s) / sd2)
    R5 = (w + e * (1.0 - xi1 * q) * u + e * q * (V + h * A51 * m1)
          + h * (A52 * K52 * m2 + A53 * K53 * m3 + A54 * K54 * m4))
    if not (0.0 < R5 < INF):
        return bad
    Q = R5 * R5
    n5 = c3 / (Q * R5)
    g5 = cth / Q
    m5 = n5 - w

    # Offsets 1 - c_l of the last stage and of the step end.
    e = exp(xi1 * h)
    q = -expm1(-sd2 * h) / sd2
    H1 = e * (1.0 - xi1 * q)
    K1 = e * q
    dK1 = e * (1.0 + xi2 * q)
    s = D63 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    K63 = e * q
    dK63 = e * (1.0 + xi2 * q)
    s = D65 * h
    e = exp(xi1 * s)
    q = -expm1(-sd2 * s) / sd2
    K65 = e * q
    dK65 = e * (1.0 + xi2 * q)
    R6 = (w + H1 * u + K1 * (V + h * A61 * m1)
          + h * (A62 * K62 * m2 + A63 * K63 * m3 + A64 * K64 * m4
                 + A65 * K65 * m5))
    if not (0.0 < R6 < INF):
        return bad
    Q = R6 * R6
    n6 = c3 / (Q * R6)
    g6 = cth / Q
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
    Q = Rn * Rn
    n7 = c3 / (Q * Rn)
    g7 = cth / Q

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
        # Error norm; each scale takes the larger of |start| and |end| as
        # max() does (b if b > a else a), without the call.
        a = abs(R)
        b = abs(Rn)
        eR /= atol + rtol * (b if b > a else a)
        a = abs(V)
        b = abs(Vn)
        eV /= atol + rtol * (b if b > a else a)
        a = abs(Th)
        b = abs(Tn)
        eT /= atol + rtol * (b if b > a else a)
        err = math.sqrt((eR * eR + eV * eV + eT * eT) / 3.0)
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
