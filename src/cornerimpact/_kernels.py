"""Adaptive Lawson Dormand-Prince 5(4) cores for the scaled corner flow.

The scaled corner flow is the reduced radial system

    R'     = V
    V'     = c3 / R^3 - 2 alpha V - R        c3  = E (1-eps)^2
    Theta' = cth / R^2                       cth = sqrt(E) (1-eps)

and a run steps it in two charts, one after the other: a Cartesian chart
for the free flight past the vertex, then the polar chart above.

Lawson stepping (Lawson 1967; Hochbruck & Ostermann, Acta Numerica 2010):
write a chart's state y as y' = A y + N(y), with the damped-linear part
A (r, v) = (v, -2 alpha v - r) acting on each position-velocity pair.
The linear part is propagated exactly by

    Phi(s) = exp(A s) = [[H2(s), K2(s)], [-K2(s), K2'(s)]],

the fundamental solutions of ``linear_phase``, in the cancellation-free
form e = e^{xi1 s}, q = -expm1(-2 sqrt(D) s) / (2 sqrt(D)), K2 = e q,
H2 = e (1 - xi1 q), K2' = e (1 + xi2 q).  The roots xi1, xi2 and
2 sqrt(D) come in as arguments from ``linear_phase.characteristic_roots``,
the same values the face phases use, and 2 alpha = -(xi1 + xi2).  The
Dormand-Prince tableau (a, b, c) acts on the perturbation M alone:

    U_i     = Phi(c_i h) u_n + h sum_{l<i} a_il Phi((c_i - c_l) h) M_l
    u_{n+1} = Phi(h) u_n     + h sum_l    b_l  Phi((1 - c_l) h)   M_l

and the embedded error weighs the same terms with b - b^.  The nodes
increase, so every argument of Phi is >= 0: Phi only decays, and no step
length overflows it.  The last stage is the step end, so its M is the
next step's first stage (FSAL).

Cartesian chart, from tau = 0: X = (x, y) = R (cos Theta, sin Theta) and
P = (px, py) = X'.  There the flow is exactly

    X'' + 2 alpha X' + X = 2 alpha P_perp,

with P_perp = (L / r^2) (-y, x) the component of P normal to X, where
L = x py - y px and r^2 = x^2 + y^2.  L is the conserved momentum cth
(R^2 Theta' in the polar chart), so the perturbation is
2 alpha cth (-y, x) / r^2 = f (-y, x), with f = 2 alpha Theta': the
first stage at tau = 0 is 2 alpha times the angle slope of ``_rhs``.
The isotropic damped spring is Phi on each component, and the
perturbation, the tangential term alone, depends on X alone, so stage
velocities are never formed (a step that formed them to evaluate L took
the same steps at 1.3 times the cost), and the angle needs no
quadrature.  Near the vertex R grows linearly in tau, and
Theta' = cth / R^2 peaks on the scale kappa there: the polar chart's
step can only grow by a small fixed ratio across that peak, while this
chart sees a nearly straight line.  The error norm is the RMS over x, y,
px, py, each on the scale of its own size, as in the polar chart.  Near
Theta = pi/2 the scale of x is small, so this chart holds the angle far
tighter than the polar scale rtol |Theta| does.

Polar chart, after the switch: y = (R, V) with N = (0, c3 / R^3), and the
angle rides along as a quadrature, so the conserved momentum
R^2 Theta' = cth holds by construction.  Each step is taken about the
rest point w of the frozen first-stage force n1 = c3 / R_n^3 (A (w, 0) +
(0, n1) = 0 gives w = n1), capped at R_n: in u = y - (w, 0) the flow reads
u' = A u + M(y) with M = N - (0, w).  The shift makes a step exact while
N stays constant; without it, a step near the rest point Rc = c3^(1/4),
where c3 / R^3 balances R, would be limited by the quadrature of Phi
against a constant force (about 30 times shorter than a DP45 step at
alpha = 8).  The cap keeps w + H2 (R - w) from rounding on the scale of
n1 >> R in the early window.  N depends on R alone, so stage velocities
are never formed.  While R >> 1 (the paper's second asymptotic
R2 = K2 R' + H2 R), N is negligible and y follows the exact linear flow;
the step is then limited by the Theta quadrature only, and the cost
hardly grows as eta shrinks.

Step control, in both charts: the error norm err is the RMS above, and
each attempt scales h by the factor 0.9 err^(-1/5).  An attempt with
err > 1 is rejected and retried with h shrunk by that factor, at most
10 times (4 times when err is not finite).  After an accepted step
(err <= 1, so the factor is at least 0.9) three rules set the next h:

- Growth bound.  The factor is at most MAX_GROWTH = 30.  A bound above 5
  acts only when err < (0.9 / 5)^5 ~ 2e-4, far inside the tolerance.
  Between the vertex time kappa ~ eta^2 and tau ~ 1 the flow is
  scale-free (the free flight is a straight line to round-off, and the
  Lawson step propagates the damped-linear part exactly), so the step
  climbs those decades at up to 1.5 decades per step instead of 0.7
  with a bound of 5: on the benchmark's corner_long ops about a fifth
  fewer trial steps.  From a bound of 50 on, a run that starts at the
  rest point Rc takes steps so long that its R' drifts above 1e-14 Rc
  (8.3e-15 at Rc = 0.74, alpha = 8).
- No growth after a rejection: the accepted step that follows a
  rejected attempt does not grow (factor <= 1), as in Hairer, Norsett &
  Wanner, Solving ODEs I, II.4, and in ``_dop853``.
- The switch, below.

The switch: a run leaves the Cartesian chart once, at the end of the
first accepted step that reaches tau1 = eta^1.2 (where the paper's first
asymptotic, the free flight, gives way to the damped-linear second).
When kappa > rtol it leaves earlier, at the first accepted step past
10 kappa whose error limited its growth (factor below 5): the passage
past the vertex then limits the Cartesian step at the run's tolerance,
and the polar chart steps the rest of the window more cheaply.  When
kappa <= rtol the free flight is a straight line to the tolerance, and
the Cartesian step grows freely up to tau1.  The map is exact:
R = sqrt(x^2 + y^2), R' = X.P / R, Theta = atan2(y, x), which holds
because Theta < pi in this window.  Theta and the step size carry over,
so the polar error scale of Theta starts near pi/2, not at 0.

The step loop is scalar arithmetic on purpose (``math.exp``/
``math.expm1``, not their numpy twins, which are slow on Python floats),
and a trial step, ``_attempt`` in the polar chart and
``_attempt_cartesian`` in the Cartesian one, is one flat body, generated
from the one statement of the tableau (``C``, ``A``, ``E``, exact integer
ratios) when the module loads (``_step_source``): it evaluates Phi inline
at its 13 distinct offsets (only the forms a stage sum reads) and the
perturbation inline at its stages, and the error norm sits in the step
loop.  A Python call costs about as much as a stage's arithmetic: on the
runs of 64 seeded corner_long and corner_dense benchmark ops, the polar
body takes 0.65 of the time of one that calls a helper per Phi offset
(13), per perturbation (6) and for the norm (1), with the same
floating-point operations in the same order and bit-identical results.

Storage: each accepted step appends its end time to one Python list and
its state R, V, Theta to another, flat, so that the lists hold floats
only and no object the garbage collector tracks; the steps taken in the
Cartesian chart also keep their start state x, y, px, py in a third.  They
become numpy arrays when the run ends, the third one with columns x, y,
px, py.
Sampling: the state at an offset s into an accepted step is the
single-step map ``_substep`` of that step's chart, of length s from the
step's start, the same map the exit search solves on.  ``substep_many``
evaluates it at many (start, offset) pairs of either chart at once in
numpy, for ``CornerResult.sample`` after a run; it is as accurate as the
step itself.  Its maps, ``_polar_many`` and ``_cartesian_many``, are
generated from the same source as the trial steps, with numpy arrays for
the numbers.  In the Cartesian chart it maps X, P to R and R' as above
and adds the angle between X and the start's X to the start's Theta.  At
offset 0 it returns R' and Theta exactly, and R exactly (Cartesian) or
as w + (R - w), within an ulp (polar); at the step end it agrees with the
accepted state to round-off.

Event handling: Theta' > 0, so a step contains at most one crossing of
theta_target.  The exit is the root of a chart's value on the exact
single-step map from the start of the accepted step that crosses it:
Theta - theta_target with slope Theta' = cth / R^2 in the polar chart,
and the linear form y cos(theta_target) - x sin(theta_target) =
R sin(Theta - theta_target) with slope py cos(theta_target) -
px sin(theta_target) in the Cartesian one (an acute exit in the free
flight).  ``_locate_exit`` is the one search: Newton iterations start
from the secant guess between the step's end points and stay inside a
bracket (lo, hi) with value(lo) < 0 <= value(hi); an iterate outside the
bracket, or one whose step fails, is replaced by the bracket midpoint.
The search stops when the value is 0, when Newton stops moving, or when
the bracket reaches floating-point resolution, so the exit angle misses
theta_target by round-off only, even at acute exits where Theta' ~ W is
huge.  It takes about three single-step re-runs.

Failures: ``integrate_radial`` raises ``SingularRadius`` when the step
size falls below float resolution and the last rejected step had a stage
radius (r^2 in the Cartesian chart) outside (0, inf) or a non-finite
error, and ``IntegrationFailure`` when it falls there after an error-test
rejection or when MAX_STEPS attempts are spent.
"""
from __future__ import annotations

import math
from math import exp, expm1  # read by the generated trial steps

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

# Largest factor by which an accepted step grows the next one.
MAX_GROWTH = 30.0

# The forms of Phi(s) = [[H, K], [-K, K']] from e = e^{xi1 s} and
# q = -expm1(-sd2 s) / sd2.
_PHI = {"H": "e * (1.0 - xi1 * q)", "K": "e * q", "dK": "e * (1.0 + xi2 * q)"}

# Per chart: the names of the trial step and of the array map, their
# parameters, the trial step's early return, the statements before the
# first stage, per position component the names of the stage position, its
# start, the velocity, its start, the perturbation and the folded
# first-stage velocity v = V + h a_i1 m1, and the statements that check
# stage k and evaluate its perturbation.  A pair among the statements
# holds the trial step's form and the array map's (None: left out).
_CHARTS = {
    "polar": (
        "_attempt", "_polar_many",
        "R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2",
        "(False, 0.0, 0.0, 0.0, 0.0, 0.0, INF, INF, INF)",
        (("w = n1 if n1 < R else R", "w = minimum(n1, R)"), "u = R - w",
         "m1 = n1 - w"),
        (("R", "u", "V", "V", "m", "v"),),
        (("if not (0.0 < R{k} < INF):", None), ("    return bad", None),
         "Q = R{k} * R{k}", "n{k} = c3 / (Q * R{k})", "g{k} = cth / Q",
         "m{k} = n{k} - w")),
    "cartesian": (
        "_attempt_cartesian", "_cartesian_many",
        "x, y, px, py, f1, h, tc, xi1, xi2, sd2",
        "(False, 0.0, 0.0, 0.0, 0.0, 0.0, INF, INF, INF, INF)",
        ("mx1 = -f1 * y", "my1 = f1 * x"),
        (("x", "x", "px", "px", "mx", "vx"),
         ("y", "y", "py", "py", "my", "vy")),
        ("Q = x{k} * x{k} + y{k} * y{k}", ("if not (0.0 < Q < INF):", None),
         ("    return bad", None), "f{k} = tc / Q", "mx{k} = -f{k} * y{k}",
         "my{k} = f{k} * x{k}")),
}


def _rhs(R, c3, cth):
    """Perturbation c3 / R^3 of R'' and the angle slope cth / R^2 at R.

    The steps evaluate both inline; this serves a run's first step in
    either chart (the Cartesian first stage is 2 alpha times the angle
    slope), the first polar step after the switch, and the tests.
    """
    R2 = R * R
    return c3 / (R2 * R), cth / R2


def _polar(x, y, px, py):
    """(R, R', Theta) of the Cartesian state X = (x, y), P = (px, py): R'
    is X.P / R, formed as (x / R) px + (y / R) py so that it is px exactly
    on the x axis, as at tau = 0."""
    R = math.sqrt(x * x + y * y)
    return R, x / R * px + y / R * py, math.atan2(y, x)


def _minus(x, y):
    """x - y of two (numerator, denominator) pairs, in lowest terms."""
    n = x[0] * y[1] - y[0] * x[1]
    d = x[1] * y[1]
    g = math.gcd(n, d)
    return n // g, d // g


def _step_source(chart: str, many: bool = False) -> str:
    """Source of the trial step of ``chart`` ("polar" or "cartesian"), or
    with ``many`` of its array map, expanded from C, A and E.

    ``_attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2)`` is one polar
    trial step of size h from (R, V, T), where (n1, g1) = _rhs(R) is the
    cached first stage.  It returns (ok, Rn, Vn, Tn, n7, g7, eR, eV, eT):
    (n7, g7) = _rhs(Rn) is the next step's first stage; e* are the raw
    embedded error components.
    ``_attempt_cartesian(x, y, px, py, f1, h, tc, xi1, xi2, sd2)`` is one
    Cartesian trial step of size h from X = (x, y), P = (px, py), with
    tc = 2 alpha cth and the cached first stage f1 = tc / r^2, so that the
    perturbation is (-f1 y, f1 x).  It returns (ok, xn, yn, pxn, pyn, f7,
    ex, ey, epx, epy) in the same way.
    In both, ok is False when a stage radius (r^2 in the Cartesian chart)
    left (0, inf), and the error components are then infinite, so the
    step loop rejects it as it rejects any non-finite error.

    Stage i of a position component (polar: radius R{i}, start u, force
    m{i} = n{i} - w, angle slope g{i}; Cartesian: x{i} and y{i}, starts
    x and y, forces mx{i} and my{i}) is (w +) H u + K v + h (sum over
    l >= 2 of a_il K m_l), with H and K at c_i h, the K at (c_i - c_l) h
    and v = V + h a_i1 m1.  Its velocity, formed at the step end only, is
    the same sum with -K u and K'.  The error components weigh every m_l
    (g_l for Theta) with E.  Phi is evaluated once per distinct exact offset,
    where a sum first reads it: s = c h, e and q, then only the forms
    that some sum reads.  Each sum is a ``+`` chain from its first term
    over the nonzero coefficients, in tableau order; at offset 0, K = 0
    drops a term and K' = 1 a factor.

    The array map ``_polar_many`` or ``_cartesian_many`` takes the same
    parameters, each an array over samples or a number, and returns the
    step-end state alone ((Rn, Vn, Tn) or (xn, yn, pxn, pyn)).  Its body is
    the trial step's with the same stage sums, less the stage checks, the
    last stage's perturbation and the error sums, and with
    ``minimum(n1, R)`` for the conditional.
    """
    name, many_name, params, bad, prelude, comps, check = _CHARTS[chart]
    polar = chart == "polar"
    index = {}  # exact offset -> number of its Phi
    forms = []  # per number, the forms of Phi that a sum reads

    def side(statements):
        """This body's statements: its side of each pair."""
        picked = (x[many] if isinstance(x, tuple) else x for x in statements)
        return [x for x in picked if x is not None]

    lines = [f"def {many_name}({params}):"] if many else [
        f"def {name}({params}):", "    INF = math.inf", f"    bad = {bad}"]
    lines += [f"    {line}" for line in side(prelude)]

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

    def chain(i, coefs, first, form, m):
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
                terms.append(f"{n / d!r} * {phi(form, i, l)} * {m}{l + 1}")
            elif form == "dK":
                terms.append(f"{n / d!r} * {m}{l + 1}")
        return " + ".join(terms)

    for i in range(1, len(A)):
        k = i + 1
        n, d = A[i][0]
        for X, u, _, V, m, v in comps:
            H, K = phi("H", i, 0), phi("K", i, 0)
            rest = chain(i, A[i], 1, "K", m)
            lines += [f"    {v} = {V} + h * {n / d!r} * {m}1",
                      f"    {X}{k} = {'w + ' if polar else ''}{H} * {u} + "
                      f"{K} * {v}" + (f" + h * ({rest})" if rest else "")]
        if not many or i < len(A) - 1:
            lines += [f"    {line}".format(k=k) for line in side(check)]
    # The last stage is the step end: its velocity, then the error sums.
    for _, u, P, _, m, v in comps:
        lines.append(f"    {P}{k} = -{K} * {u} + {phi('dK', i, 0)} * {v}"
                     f" + h * ({chain(i, A[i], 1, 'dK', m)})")
    if polar:
        lines.append(f"    T{k} = T + h * ({chain(i, A[i], 0, None, 'm')})")
    state = [f"{X}{k}" for X, *_ in comps]
    state += [f"{P}{k}" for _, _, P, *_ in comps]
    state += [f"T{k}"] if polar else []
    if many:
        lines.append("    return " + ", ".join(state))
    else:
        errors = [(f"e{X}", "K", m) for X, _, _, _, m, _ in comps]
        errors += [(f"e{P}", "dK", m) for _, _, P, _, m, _ in comps]
        if polar:
            errors.append(("eT", None, "m"))
        lines += [f"    {e} = h * ({chain(i, E, 0, form, m)})"
                  for e, form, m in errors]
        state += [f"n{k}", f"g{k}"] if polar else [f"f{k}"]
        lines.append("    return True, "
                     + ", ".join(state + [e for e, *_ in errors]))
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


# Defines ``_attempt`` and ``_attempt_cartesian`` in this module, so that
# callers look them up here, and the array maps in a namespace where exp,
# expm1 and minimum are numpy's.
_numpy = {"exp": np.exp, "expm1": np.expm1, "minimum": np.minimum}
for _chart in _CHARTS:
    for _many, _namespace in ((False, globals()), (True, _numpy)):
        exec(compile(_step_source(_chart, _many),
                     f"<_kernels.{_CHARTS[_chart][_many]}>", "exec"),
             _namespace)
_polar_many = _numpy["_polar_many"]
_cartesian_many = _numpy["_cartesian_many"]
del _chart, _many, _namespace, _numpy


def _substep(cartesian, *args):
    """5th-order state at an offset from a step start (no error control):
    (ok, R, V, T) from the arguments of ``_attempt``, or, in the Cartesian
    chart, (ok, x, y, px, py) from those of ``_attempt_cartesian``."""
    if cartesian:
        return _attempt_cartesian(*args)[:5]
    return _attempt(*args)[:4]


def substep_many(R, V, T, s, c3, cth, xi1, xi2, sd2, cart, XP):
    """The single-step map at many starts (R, V, T) and offsets s >= 0 at
    once, in the chart of each step.

    ``cart`` marks the samples whose step was taken in the Cartesian
    chart, and ``XP`` holds those steps' start states (x, y, x', y'), one
    row per marked sample.  The maps are ``_polar_many`` and
    ``_cartesian_many``, generated from the source of the trial steps: the
    same floating-point operations as ``_substep`` but numpy's exp and
    expm1, which differ from libm's in the last bit on some arguments, so
    the samples agree with ``_substep`` to round-off and not always bit
    for bit.  Stage radii are not checked: the offsets lie inside accepted
    steps.  Returns the end states as an array with columns R, V, Theta.
    """
    out = np.empty((s.size, 3))
    polar = ~cart
    if polar.any():
        R0 = R[polar]
        Q = R0 * R0
        out[polar] = np.column_stack(_polar_many(
            R0, V[polar], T[polar], c3 / (Q * R0), cth / Q, s[polar], c3,
            cth, xi1, xi2, sd2))
    if cart.any():
        x0, y0, px0, py0 = XP.T
        tc = -(xi1 + xi2) * cth
        x, y, px, py = _cartesian_many(x0, y0, px0, py0,
                                       tc / (x0 * x0 + y0 * y0), s[cart],
                                       tc, xi1, xi2, sd2)
        r = np.sqrt(x * x + y * y)
        out[cart, 0] = r
        out[cart, 1] = x / r * px + y / r * py
        # The angle turned since the step start, from real products:
        # exactly 0 at offset 0.
        out[cart, 2] = T[cart] + np.arctan2(x0 * y - y0 * x, x0 * x + y0 * y)
    return out


def _locate_exit(at, h, f0, f1, end):
    """Crossing of theta_target inside an accepted step of length h, by
    the search under "Event handling".

    ``at(s)`` is the chart's single-step map at offset s: None when its
    step fails, else (value, slope, state).  f0 < 0 <= f1 are the values
    at the step's ends, and ``end`` the state at its end.  Returns
    (s, state): the last offset whose single-step state could be
    evaluated, and that state; (h, end) when none could.
    """
    lo = 0.0
    hi = h
    found = (h, end)
    s = f0 / (f0 - f1) * h
    for _ in range(200):
        if not (lo < s < hi):
            s = 0.5 * (lo + hi)
            if not (lo < s < hi):
                break  # bracket at floating-point resolution
        step = at(s)
        if step is None:
            hi = s  # the next iterate is the midpoint
            continue
        f, slope, state = step
        found = (s, state)
        if f == 0.0:
            break
        if f > 0.0:
            hi = s
        else:
            lo = s
        if slope == 0.0:
            s = lo  # outside the bracket: the next iterate is its midpoint
            continue
        s_next = s - f / slope
        if s_next == s:
            break  # Newton stopped moving
        s = s_next
    return found


def integrate_radial(R0, V0, c3, cth, xi1, xi2, sd2, theta_target, tau_end,
                     rtol, atol, h0, stop_at_event, tau1, kappa):
    """Adaptive Lawson DP45 integration of the scaled corner flow from
    tau = 0, with the roots (xi1, xi2) and sd2 = 2 sqrt(D) of
    ``linear_phase.characteristic_roots``.

    The run steps in the Cartesian chart until the switch under "The
    switch" (tau1 and the corner timescale kappa set it; with tau1 <= 0
    it starts in the polar chart), then in the polar chart.
    Returns (ts, ys, xs, exit, nacc, nrej): the sample times and states
    (an (n, 3) array with columns R, R', Theta), the start states of the
    steps taken in the Cartesian chart (an (m, 4) array with columns x, y,
    px, py: steps 0 to m - 1), the exit (tau, R, R', Theta) or None when
    the run did not cross theta_target, and the step counts.
    Step i starts at sample i; when the run stops at the event, the last
    step is the full accepted step that holds the crossing.  Raises
    ``SingularRadius`` or ``IntegrationFailure`` as under "Failures".
    """
    tau, R, V, Th = 0.0, R0, V0, 0.0
    ts = [tau]
    ys = [R, V, Th]
    xs = []
    exit = None
    nacc = 0
    nrej = 0
    if tau_end <= 0.0:
        return (np.array(ts), np.array(ys).reshape(-1, 3),
                np.array(xs).reshape(-1, 4), exit, nacc, nrej)

    n1, g1 = _rhs(R, c3, cth)
    cart = tau1 > 0.0
    if cart:
        # 2 alpha P_perp = f (-y, x) with f = 2 alpha cth / r^2, which is
        # 2 alpha Theta': f1 = ta g1.
        ta = -(xi1 + xi2)  # 2 alpha
        tc = ta * cth
        x, y, px, py, f1 = R0, 0.0, V0, cth / R0, ta * g1
        ct, st = math.cos(theta_target), math.sin(theta_target)
        xs += (x, y, px, py)
        early = kappa > rtol
    last_reject_bad = False
    rejected = False
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

        # Error norm; each scale takes the larger of |start| and |end| as
        # max() does (b if b > a else a), without the call.
        if cart:
            _, xn, yn, pxn, pyn, f7, ex, ey, epx, epy = _attempt_cartesian(
                x, y, px, py, f1, h, tc, xi1, xi2, sd2)
            a = abs(x)
            b = abs(xn)
            ex /= atol + rtol * (b if b > a else a)
            a = abs(y)
            b = abs(yn)
            ey /= atol + rtol * (b if b > a else a)
            a = abs(px)
            b = abs(pxn)
            epx /= atol + rtol * (b if b > a else a)
            a = abs(py)
            b = abs(pyn)
            epy /= atol + rtol * (b if b > a else a)
            err = math.sqrt((ex * ex + ey * ey + epx * epx + epy * epy) / 4.0)
        else:
            _, Rn, Vn, Tn, n7, g7, eR, eV, eT = _attempt(
                R, V, Th, n1, g1, h, c3, cth, xi1, xi2, sd2)
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
            last_reject_bad = rejected = True
            continue
        if err > 1.0:
            h *= max(0.9 * err ** -0.2, 0.1)
            nrej += 1
            last_reject_bad = False
            rejected = True
            continue

        # Step accepted.
        nacc += 1
        last_reject_bad = False
        if cart:
            Rn, Vn, Tn = _polar(xn, yn, pxn, pyn)

        if exit is None and (yn * ct - xn * st >= 0.0 if cart
                             else Tn >= theta_target):
            # Each chart's value and slope for the one search.
            if cart:
                def at(s):
                    ok, xe, ye, pxe, pye = _substep(
                        True, x, y, px, py, f1, s, tc, xi1, xi2, sd2)
                    if not ok:
                        return None
                    return (ye * ct - xe * st, pye * ct - pxe * st,
                            _polar(xe, ye, pxe, pye))
                f0, fn = y * ct - x * st, yn * ct - xn * st
            else:
                def at(s):
                    ok, Re, Ve, Te = _substep(
                        False, R, V, Th, n1, g1, s, c3, cth, xi1, xi2, sd2)
                    if not ok:
                        return None
                    return Te - theta_target, cth / (Re * Re), (Re, Ve, Te)
                f0, fn = Th - theta_target, Tn - theta_target
            s, state = _locate_exit(at, h, f0, fn, (Rn, Vn, Tn))
            exit = (tau + s, *state)
            if stop_at_event:
                ts.append(exit[0])
                ys += exit[1:]
                break

        tau += h
        R, V, Th = Rn, Vn, Tn
        ts.append(tau)
        ys += (R, V, Th)

        # Plain comparisons: builtin min/max calls cost more per step.
        # err <= 1 here, so the factor is at least 0.9.
        if err < 1e-30:
            fac = MAX_GROWTH
        else:
            fac = 0.9 * err ** -0.2
            if fac > MAX_GROWTH:
                fac = MAX_GROWTH
        if rejected:
            rejected = False
            if fac > 1.0:
                fac = 1.0
        if not cart:
            n1, g1 = n7, g7  # FSAL
        elif tau >= tau1 or (early and tau >= 10.0 * kappa and fac < 5.0):
            cart = False
            n1, g1 = _rhs(R, c3, cth)
        else:
            x, y, px, py, f1 = xn, yn, pxn, pyn, f7  # FSAL
            if tau < tau_end:
                xs += (x, y, px, py)
        h *= fac

    return (np.array(ts), np.array(ys).reshape(-1, 3),
            np.array(xs).reshape(-1, 4), exit, nacc, nrej)
