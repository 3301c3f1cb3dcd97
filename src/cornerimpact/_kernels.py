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
and a trial step ``_attempt`` is one flat body, generated from the one
statement of the tableau (``C``, ``A``, ``E``, exact integer ratios) when
the module loads (``_step_source``): it evaluates Phi inline at its 13
distinct offsets (only the forms a stage sum reads) and the perturbation
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
after a run; it is as accurate as the step itself.  At offset 0 it
returns R' and Theta exactly and R as w + (R - w), within an ulp of R;
at the step end it agrees with the accepted state to round-off.

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
radius outside (0, inf) or a non-finite error, and ``IntegrationFailure``
when it falls there after an error-test rejection or when MAX_STEPS
attempts are spent.
"""
from __future__ import annotations

import math
from math import exp, expm1  # read by the generated _attempt

import numpy as np

from .errors import IntegrationFailure, SingularRadius

# Dormand-Prince 5(4) tableau, exact, as (numerator, denominator) pairs:
# the nodes C, the rows A of a_il for l < i, whose last row is b (so the
# step end is the last stage: FSAL), and the error weights E = b - b^.
C = ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))
A = (
    (),
    ((1, 5),),
    ((3, 40), (9, 40)),
    ((44, 45), (-56, 15), (32, 9)),
    ((19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)),
    ((9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)),
    ((35, 384), (0, 1), (500, 1113), (125, 192), (-2187, 6784), (11, 84)),
)
E = ((71, 57600), (0, 1), (-71, 16695), (71, 1920), (-17253, 339200),
     (22, 525), (-1, 40))

# Attempted steps (accepted + rejected) before a run gives up.
MAX_STEPS = 4_000_000

# Nodes and rows of the tableau for the vectorised map; the last row
# (node 1, weights b) is the step end.
_NODES = np.array([n / d for n, d in C])
_ROWS = tuple(np.array([n / d for n, d in row]) for row in A[1:])

# The forms of Phi(s) = [[H, K], [-K, K']] from e = e^{xi1 s} and
# q = -expm1(-sd2 s) / sd2.
_PHI = {"H": "e * (1.0 - xi1 * q)", "K": "e * q", "dK": "e * (1.0 + xi2 * q)"}


def _rhs(R, c3, cth):
    """Perturbation c3 / R^3 of R'' and the angle slope cth / R^2 at R.

    The step evaluates both inline; this serves the run start and the
    tests.
    """
    R2 = R * R
    return c3 / (R2 * R), cth / R2


def _minus(x, y):
    """x - y of two (numerator, denominator) pairs, in lowest terms."""
    n = x[0] * y[1] - y[0] * x[1]
    d = x[1] * y[1]
    g = math.gcd(n, d)
    return n // g, d // g


def _step_source() -> str:
    """Source of ``_attempt``, expanded from C, A and E.

    ``_attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2)`` is one trial
    Lawson step of size h from (R, V, T), where (n1, g1) = _rhs(R) is the
    cached first stage.  It returns (ok, Rn, Vn, Tn, n7, g7, eR, eV, eT):
    ok is False when a stage radius left (0, inf), and its error
    components are then infinite, so the step loop rejects it as it
    rejects any non-finite error; (n7, g7) = _rhs(Rn) is the next step's
    first stage; e* are the raw embedded error components.

    Stage i (radius R{i}, force n{i}, angle slope g{i}, m{i} = n{i} - w)
    is w + H u + K v + h (sum over l >= 2 of a_il K m_l), with H and K at
    c_i h, the K at (c_i - c_l) h and v = V + h a_i1 m1.  The step end
    is the last stage, its V the same sum with -K u and K'; the error
    components weigh every m_l (g_l for Theta) with E.  Phi is evaluated
    once per distinct exact offset, where a sum first reads it: s = c h,
    e and q, then only the forms that some sum reads.  Each sum is a
    ``+`` chain from its first term over the nonzero coefficients, in
    tableau order; at offset 0, K = 0 drops a term and K' = 1 a factor.
    """
    index = {}  # exact offset -> number of its Phi
    forms = []  # per number, the forms of Phi that a sum reads
    lines = ["def _attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):",
             "    INF = math.inf",
             "    bad = (False, 0.0, 0.0, 0.0, 0.0, 0.0, INF, INF, INF)",
             "    w = n1 if n1 < R else R",
             "    u = R - w",
             "    m1 = n1 - w"]

    def phi(form, i, l):
        """Name of a form of Phi((c_i - c_l) h); a new offset leaves a
        placeholder for its evaluation in ``lines``."""
        x = _minus(C[i], C[l])
        if x not in index:
            index[x] = len(forms)
            forms.append(set())
            lines.append(x)
        forms[index[x]].add(form)
        return f"{form}{index[x]}"

    def chain(i, coefs, first, form):
        """Sum over l >= first of coefs[l] form((c_i - c_l) h) m_l, or of
        coefs[l] g_l when form is None."""
        terms = []
        for l in range(first, len(coefs)):
            n, d = coefs[l]
            if not n:
                continue
            if form is None:
                terms.append(f"{n / d!r} * g{l + 1}")
            elif _minus(C[i], C[l])[0]:
                terms.append(f"{n / d!r} * {phi(form, i, l)} * m{l + 1}")
            elif form == "dK":
                terms.append(f"{n / d!r} * m{l + 1}")
        return " + ".join(terms)

    for i in range(1, len(A)):
        H, K = phi("H", i, 0), phi("K", i, 0)
        n, d = A[i][0]
        rest = chain(i, A[i], 1, "K")
        k = i + 1
        lines += [f"    v = V + h * {n / d!r} * m1",
                  f"    R{k} = w + {H} * u + {K} * v"
                  + (f" + h * ({rest})" if rest else ""),
                  f"    if not (0.0 < R{k} < INF):",
                  "        return bad",
                  f"    Q = R{k} * R{k}",
                  f"    n{k} = c3 / (Q * R{k})",
                  f"    g{k} = cth / Q",
                  f"    m{k} = n{k} - w"]
    i = len(A) - 1
    lines += [f"    V{k} = -{K} * u + {phi('dK', i, 0)} * v"
              f" + h * ({chain(i, A[i], 1, 'dK')})",
              f"    T{k} = T + h * ({chain(i, A[i], 0, None)})",
              f"    eR = h * ({chain(i, E, 0, 'K')})",
              f"    eV = h * ({chain(i, E, 0, 'dK')})",
              f"    eT = h * ({chain(i, E, 0, None)})",
              f"    return True, R{k}, V{k}, T{k}, n{k}, g{k}, eR, eV, eT"]
    out = []
    for line in lines:
        if isinstance(line, str):
            out.append(line)
            continue
        j = index[line]
        out += [f"    s = {line[0] / line[1]!r} * h",
                "    e = exp(xi1 * s)",
                "    q = -expm1(-sd2 * s) / sd2"]
        out += [f"    {form}{j} = {expr}" for form, expr in _PHI.items()
                if form in forms[j]]
    return "\n".join(out) + "\n"


# Defines ``_attempt`` in this module, so that callers look it up here.
exec(compile(_step_source(), "<_kernels._attempt>", "exec"), globals())


def _substep(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):
    """5th-order state at offset h from a step start (no error control)."""
    ok, Rn, Vn, Tn, _, _, _, _, _ = _attempt(
        R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2)
    return ok, Rn, Vn, Tn


def substep_many(R, V, T, s, c3, cth, xi1, xi2, sd2):
    """``_substep`` at many starts (R, V, T) and offsets s >= 0 at once.

    Plain numpy over the sample axis, with the stage sums in tableau
    order.  It steps on the float differences of ``_NODES``, not on the
    exact offsets of ``_attempt``, so it agrees with ``_substep`` to
    round-off and not bit for bit; it must stay so, as the samples of
    ``test_bitwise_pin`` depend on those bits.  Stage radii are not
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

        _, Rn, Vn, Tn, n7, g7, eR, eV, eT = _attempt(
            R, V, Th, n1, g1, h, c3, cth, xi1, xi2, sd2)
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
