"""Adaptive Lawson Dormand-Prince 5(4) cores for the scaled corner flow.

The scaled corner flow is the reduced radial system

    R'     = V
    V'     = c3 / R^3 - 2 alpha V - R        c3  = E (1-eps)^2
    Theta' = cth / R^2                       cth = sqrt(E) (1-eps)

and a run steps it in two charts, one after the other: a Cartesian chart
for the free flight past the vertex, then the polar chart above.

Lawson stepping (Lawson 1967; Hochbruck & Ostermann, Acta Numerica 2010):
write a chart's state y as y' = A y + N(y), with the damped-linear part
A (r, v) = (v, -2 alpha v - omega^2 r) acting on each position-velocity
pair.  The spring omega^2 is 1 in the Cartesian chart and set per step in
the polar chart (below).  The linear part is propagated exactly by

    Phi(s) = exp(A s) = [[H(s), K(s)], [-omega^2 K(s), K'(s)]],

at omega^2 = 1 the fundamental solutions H2, K2 of ``linear_phase``, in
the cancellation-free form e = e^{xi1 s}, m = expm1(-sd2 s),
K = e (m nu) with nu = -1 / sd2, H = e - xi1 K and K' = e + xi2 K, where
xi1, xi2 are the roots of x^2 + 2 alpha x + omega^2 and
sd2 = xi1 - xi2 = 2 sqrt(alpha^2 - omega^2).  At omega^2 = 1 they come in
as arguments from ``linear_phase.characteristic_roots``, the same values
the face phases use, and 2 alpha = -(xi1 + xi2).  The Dormand-Prince
tableau (a, b, c) acts on the perturbation M alone:

    U_i     = Phi(c_i h) u_n + h sum_{l<i} a_il Phi((c_i - c_l) h) M_l
    u_{n+1} = Phi(h) u_n     + h sum_l    b_l  Phi((1 - c_l) h)   M_l

and the embedded error weighs the same terms with b - b^.  The nodes
increase, so every argument of Phi is >= 0: Phi only decays, and no step
length overflows it.  The last stage is the step end, so its M is the
next step's first stage (FSAL).

Phi evaluation: the 13 distinct offsets c_i - c_l are multiples n of
h / 90 (8, 9, 10, 18, 27, 45, 53, 54, 62, 63, 72, 80 and 90).  A step
evaluates e and m by ``exp`` and ``expm1`` at the three that are no sum of
two others (8, 9 and 10), and builds every other one along an addition
chain (``_phi_chain``, derived from C when the module loads):
e_{p+q} = e_p e_q and m_{p+q} = m_p + m_q + m_p m_q, which is exact algebra
for expm1 and does not cancel, as every m lies in (-1, 0].  So a trial step
makes 3 exp and 3 expm1 calls instead of 13 of each.  Against 40-digit
values, on three seeded sets of 3,000 draws of alpha in [1 + 1e-8, 1e4]
and h in [1e-12, 1e3], the chained e were within 4.2 (1 + |xi1 s|) eps
relative and the chained m within 2.6 eps, where libm's own exp and expm1
were within 1.1 and 1.5; where e is subnormal the chain loses relative
precision, at absolute errors below 1e-321.

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
px, py, each on the scale of its own size (see "Step control").  Near
Theta = pi/2 the scale of x is small, so this chart holds the angle far
tighter than the polar scale rtol |Theta| does.

Polar chart, after the switch: y = (R, V) with N = (0, c3 / R^3), and the
angle rides along as a quadrature, so the conserved momentum
R^2 Theta' = cth holds by construction.  Each step linearises the penalty
about its start R_n: its spring is omega^2 = 1 + 3 n1 / R_n, with
n1 = c3 / R_n^3 the cached first stage, so that A holds the Jacobian
-(1 + 3 c3 / R^4) of spring and penalty there and N becomes
(0, c3 / R^3 + (omega^2 - 1) R).  omega^2 is capped at SPRING_CAP alpha^2,
so that the roots stay real and apart; while SPRING_CAP alpha^2 <= 1
(alpha below about 1.005) omega^2 = 1 and the roots are the flow's own.
The roots xi2 = -alpha - sqrt(alpha^2 - omega^2), xi1 = omega^2 / xi2 and
sd2 are formed by the statements of ``_SPRING``: at the polar loop's
entry, at the run start or the switch, then once per accepted step, and
at the start of the polar sample map.
Without the linearisation the explicit stages carry the stiffness
3 c3 / R^4 (3 at the rest point) against the fast mode -2 alpha, and past
the exit a run creeps toward the rest point in steps of 2 alpha h ~ 1: at
eta = 1e-2 the asym-report run to tau3 took 129,506 accepted steps at
alpha = 300 and 450,657 at alpha = 1000, against 6,182 and 7,451 with
it, and corner_long trial steps per op fell from 221.5 to 196.5 (first
64 ops of seed 7).

Each step is taken about the rest point
w = (n1 + (omega^2 - 1) R_n) / omega^2 of its frozen first-stage force,
capped at R_n: in u = y - (w, 0) the flow reads u' = A u + M(y) with
M = N - (0, omega^2 w).  The shift makes a step exact while N stays
constant; without it, a step near the rest point Rc = c3^(1/4), where
c3 / R^3 balances R, would be limited by the quadrature of Phi against a
constant force (about 30 times shorter than a DP45 step at alpha = 8).
The cap keeps w + H (R - w) from rounding on the scale of n1 >> R in the
early window.  With omega^2 = 1 the step does the float operations of the
step without the spring, bit for bit.  N depends on R alone, so stage
velocities are never formed.  While R >> 1 (the paper's second asymptotic
R2 = K2 R' + H2 R), omega^2 is 1 to round-off, N is negligible and y
follows the exact linear flow; the step is then limited by the Theta
quadrature only, and the cost hardly grows as eta shrinks.

Step control, the same in both charts and stated once, in the template
of their step loops.  The error norm err is the RMS of the embedded
error's components, each divided by atol + rtol s.  The size s of a
component is the larger of its absolute values at the step's start and
end, but R' in the polar chart takes the state's size in the phase
plane, the largest of |R'| and |R| at both ends (Hairer, Norsett &
Wanner, Solving ODEs I, II.4, on the choice of the scales); which sizes
join a component's own is data, in the chart's ``_LOOPS`` entry.  An
obtuse run leaves the corner on the slow mode of the damped-linear flow,
R' ~ xi1 R with |xi1| = alpha - sqrt(alpha^2 - 1) (0.17 to 0.38 for
alpha in [1.5, 3]), where |R'| alone would hold R' 3 to 6 times tighter
than R.  On the first 64 corner_long ops of seed 7, R' has the largest
scaled error in 71 % of the accepted polar steps with |R'| alone and in
62 % with the phase-plane size, which takes 196.5 trial steps per op
instead of 227.3.  Each attempt scales h by the factor 0.9 err^(-1/5).
An attempt with err > 1 is rejected and retried with h shrunk by that
factor, at most 10 times (4 times when err is not finite).  After an
accepted step (err <= 1, so the factor is at least 0.9) three rules set
the next h:

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

A run gives up after MAX_STEPS = 250,000 attempts, over 20 times the
12,125 of the largest run measured: the asym-report run to tau3 at
alpha = 300, eta = 1e-2 and the smallest rtol, 100 eps
(``corner_phase.MIN_RTOL``), the largest over alpha in {1.0001, 1.5, 3,
30, 300, 1000, 3000, 5000}, eta in {1e-2, 1e-6, 1e-20, 1e-70} and rtol
in {1e-10, 100 eps} (7,454 at rtol = 1e-10, alpha = 1000).  From
alpha ~ 5100 up, at eta = 1e-2, the run settles just below Rc, where the
shift w is capped at R, and the step is held near 2 alpha h ~ 1 (with
the cap at 2 R instead, the alpha = 5100 run reached tau = 5 in 132
attempts instead of 33,162): it does not finish within 4,000,000
attempts, nor did it without the linearisation (measured from 5100 to
7000 and at 1e4), and at alpha = 1e4 it spends MAX_STEPS by tau ~ 9 of
46,052, in about 2 s.

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
at its 13 distinct offsets (only the forms a stage sum reads, each offset
where a sum first reads it, after the chain values it is built from) and
the perturbation inline at its stages.  A Python call costs about as
much as a stage's arithmetic: on the runs of 64 seeded corner_long and
corner_dense benchmark ops, the polar body takes 0.65 of the time of one
that calls a helper per Phi offset (13), per perturbation (6) and for the
norm (1), with the same floating-point operations in the same order and
bit-identical results.

Each chart's step loop, ``_run_cartesian`` and ``_run_polar``, is
generated as well, from one template (``_LOOP``, by ``_loop_source``):
its trial-step call, its error norm (one scale per state component) and
its FSAL assignment come from the names in ``_CHARTS``, and what else
differs (the exit value and slope, the stored row, the statements at the
loop's entry and after each accepted step) from ``_LOOPS``.
``integrate_radial`` runs the Cartesian loop and then, from the switch,
the polar one, so no attempt tests which chart it is in.

Storage: each chart's loop appends the end time of each accepted step
to one Python list and its row R, V, Theta (the polar state itself, or
the map of the Cartesian one) to another, flat, so that the lists hold
floats only and no object the garbage collector tracks; the Cartesian
loop also keeps the start state x, y, px, py of each step it takes in a
third, after the run start's, which ``integrate_radial`` stores.  They
become numpy arrays when the run ends, the third one with columns x, y,
px, py.
Sampling: the state at an offset s into an accepted step is the
single-step map of that step's chart, of length s from the step's start.
It is one map: ``substep_many`` evaluates it at many (start, offset)
pairs of either chart, for ``CornerResult.sample`` after a run, and
``_substep`` at one, for the exit search.  It is as accurate as the step
itself.  Its bodies, ``_polar_many`` and ``_cartesian_many``, are
generated from the same source as the trial steps, compiled once, and
run in two namespaces: on numpy arrays, all of a chart's samples at
once, or on floats one by one (``_polar_one``, ``_cartesian_one``: fewer
than FEW_SAMPLES samples, and ``_substep``), where exp and expm1 give
numpy's values as floats.  The map on arrays makes about 300 numpy calls
whatever its size, so a single sample costs about a ninth as much on
floats.  Both routes do the same float operations on the same exp and
expm1 bits, so a sample's bits do not depend on the samples taken with
it, nor on whether the exit search or ``CornerResult.sample`` takes it.
The map takes a step's start, the offset and the run's constants, and
forms at the start what the step loop formed there, with the same
operations: the first stage (polar n1 = c3 / R^3 and g1 = cth / R^2 as
``_rhs`` forms them, Cartesian f1 = tc / r^2 as a trial step forms it at
its end; the run's first step takes 2 alpha times the angle slope of
``_rhs``, which can differ in the last bit) and, in the polar chart, the
spring and roots of ``_SPRING``.  In the Cartesian chart it maps X, P to
R and R' as above, with numpy's arctan2 on both routes, and adds the
angle between X and the start's X to the start's Theta.  At offset 0 it
returns R' and Theta exactly, and R exactly (Cartesian) or as
w + (R - w), within an ulp (polar).  At the step end it agrees with the
accepted state to round-off, not always bit for bit: the trial steps use
libm's exp and expm1, which round differently from numpy's in the last
bit on some arguments.

Event handling: Theta' > 0, so a step contains at most one crossing of
theta_target.  The exit is the root of a chart's value on the sampling
map (``_substep``) from the start of the accepted step that crosses it:
Theta - theta_target with slope Theta' = cth / R^2 in the polar chart,
and the linear form y cos(theta_target) - x sin(theta_target) =
R sin(Theta - theta_target) with slope py cos(theta_target) -
px sin(theta_target) in the Cartesian one (an acute exit in the free
flight).  ``_locate_exit`` is the one search: Newton iterations start
from the secant guess between the step's end points and stay inside a
bracket (lo, hi) with value(lo) < 0 <= value(hi); an iterate outside the
bracket is replaced by the bracket midpoint.  The map checks no stage
radius: its offsets lie inside an accepted step, whose stages passed.
The search stops when the value is 0, when Newton stops moving, or when
the bracket reaches floating-point resolution, so the exit angle misses
theta_target by round-off only, even at acute exits where Theta' ~ W is
huge.  It takes about three single-step re-runs.

Failures: ``integrate_radial`` raises ``SingularRadius`` when the step
size falls below float resolution and the last rejected step had a stage
radius (r^2 in the Cartesian chart) outside (0, inf), a polar stage
radius whose cube underflows to 0 (below R ~ 1e-108), or a non-finite
error, and ``IntegrationFailure`` when it falls there after an error-test
rejection or when MAX_STEPS attempts are spent; the budget message names
the tau reached and the horizon.
"""
from __future__ import annotations

import math
from math import exp, expm1, sqrt  # read by the generated code

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

# Attempted steps (accepted + rejected) before a run gives up: over 20
# times the 12,125 of the largest run measured (alpha = 300, eta = 1e-2,
# rtol = 100 eps, to tau3; see "Step control").
MAX_STEPS = 250_000

# Largest factor by which an accepted step grows the next one.
MAX_GROWTH = 30.0

# Largest share of alpha^2 that the polar chart's linearised spring takes.
SPRING_CAP = 0.99

# Samples of one chart from which ``substep_many`` evaluates them at once
# on arrays; fewer go through the same map on floats, one by one.  Timed on
# seeded steps of three runs (2 vCPUs, numpy 2.4.6), the array map costs
# about 130 us (polar) and 165 us (Cartesian) whatever its size, and the
# float route about 5 and 7 us a sample (14 and 16 us for one): they
# break even at about 25 polar and 23 Cartesian samples.
FEW_SAMPLES = 20

# The forms of Phi(s) = [[H, K], [-omega^2 K, K']] at offset n (in units
# of h / 90, the lcm of the nodes' denominators) from e = e^{xi1 s},
# m = expm1(-sd2 s) and nu = -1 / sd2: K first, as the other two read it.
_PHI = {"K": "e{n} * (m{n} * nu)", "H": "e{n} - xi1 * K{n}",
        "dK": "e{n} + xi2 * K{n}"}

# The polar chart's spring at a step start R with first stage n1 (see
# "Polar chart"), stated once and emitted at the polar loop's entry, after
# each of its accepted steps and at the start of the polar map: omega^2 =
# om2 = 1 + d with d = 3 n1 / R up to dmax, and its roots, from the
# constants (alpha, D, dmax) of ``_spring_constants``.  The pair holds the
# loop's form of the cap and the map's.
_SPRING = ("if dmax > 0.0:", "    d = 3.0 * n1 / R",
           ("    if not d < dmax: d = dmax", "    d = minimum(d, dmax)"),
           "    om2 = 1.0 + d", "    r = sqrt(D - d)", "    xi2 = -alpha - r",
           "    xi1 = om2 / xi2", "    sd2 = r + r")

# Per chart: the names of the trial step and of the array map, their
# parameters, the trial step's early return, the array map's statements
# that form at the step start what the step loop formed there (the first
# stage and, polar, the spring), the statements before the first stage,
# per position component the names of the stage position, its start, the
# velocity, its start, the perturbation and the folded first-stage
# velocity v = V + h a_i1 m1, the statements that check stage k and
# evaluate its perturbation, and the factor of K in the velocity row
# (-omega^2 K with the polar chart's spring om2 = omega^2, -K in the
# Cartesian chart).  A pair among the statements holds the trial step's
# form and the array map's (None: left out).
_CHARTS = {
    "polar": (
        "_attempt", "_polar_many",
        "R, V, T, n1, g1, h, c3, cth, om2, xi1, xi2, sd2",
        "R, V, T, h, c3, cth, xi1, xi2, sd2, alpha, D, dmax",
        "(0.0, 0.0, 0.0, 0.0, 0.0, INF, INF, INF)",
        ("Q = R * R", "n1 = c3 / (Q * R)", "g1 = cth / Q", "om2 = 1.0",
         *_SPRING),
        ("d = om2 - 1.0", "N1 = n1 + d * R", "w = N1 / om2",
         ("w = w if w < R else R", "w = minimum(w, R)"), "u = R - w",
         "om2w = om2 * w", "m1 = N1 - om2w"),
        (("R", "u", "V", "V", "m", "v"),),
        ("Q = R{k} * R{k}", "P = Q * R{k}",
         ("if not (0.0 < P and R{k} < INF):", None), ("    return bad", None),
         "n{k} = c3 / P", "g{k} = cth / Q", "m{k} = n{k} + d * R{k} - om2w"),
        "-om2 * "),
    "cartesian": (
        "_attempt_cartesian", "_cartesian_many",
        "x, y, px, py, f1, h, tc, xi1, xi2, sd2",
        "x, y, px, py, h, tc, xi1, xi2, sd2",
        "(0.0, 0.0, 0.0, 0.0, 0.0, INF, INF, INF, INF)",
        ("f1 = tc / (x * x + y * y)",),
        ("mx1 = -f1 * y", "my1 = f1 * x"),
        (("x", "x", "px", "px", "mx", "vx"),
         ("y", "y", "py", "py", "my", "vy")),
        ("Q = x{k} * x{k} + y{k} * y{k}", ("if not (0.0 < Q < INF):", None),
         ("    return bad", None), "f{k} = tc / Q", "mx{k} = -f{k} * y{k}",
         "my{k} = f{k} * x{k}"),
        "-"),
}

# Per chart, what its step loop states beyond the names in ``_CHARTS``:
# the exit value and its slope, as templates over the state names, the
# stored (R, R', Theta) row of a state (None: the state itself), the state
# components whose sizes join a component's own in its error scale (see
# "Step control"), the loop's parameters after the shared ones, the
# statements at its entry and those after each accepted step.
_LOOPS = {
    "polar": (
        "{T} - theta_target", "cth / ({R} * {R})", None, {"V": ("R",)}, "",
        ("alpha, D, dmax = _spring_constants(xi1, xi2, sd2)", *_SPRING),
        # The next step's spring and roots, inline: a call read 7 % slower
        # on four corner_long pairs (ROADMAP "Dead ends").
        _SPRING),
    "cartesian": (
        "{y} * ct - {x} * st", "{py} * ct - {px} * st",
        "_polar({x}, {y}, {px}, {py})", {}, ", xs, tau1, kappa",
        ("ct, st = math.cos(theta_target), math.sin(theta_target)",
         "early = kappa > rtol"),
        # The switch; else the next step's start state is stored.
        ("if tau >= tau1 or (early and tau >= 10.0 * kappa and fac < 5.0):",
         "    break", "if tau < tau_end:", "    xs += (x, y, px, py)")),
}

# The step loop of a chart (``_loop_source``), with the rules under "Step
# control" stated once.  Each error scale takes the largest of the sizes it
# reads as max() does (b if b > a else a), without the call: builtin
# min/max calls cost more per step than plain comparisons.
_LOOP = """\
def _run_{chart}({params}, tau, nacc, nrej, exit, tau_end, theta_target,
                 rtol, atol, stop_at_event, ts, ys{extra}):
{entry}
    rejected = last_reject_bad = False
    while tau < tau_end:
        if nacc + nrej >= MAX_STEPS:
            raise IntegrationFailure(
                f"step budget {{MAX_STEPS}} exhausted at tau ~ {{tau:.6g}} "
                f"of {{tau_end:.6g}}")
        if tau + h > tau_end:
            h = tau_end - tau
        if tau + h == tau:
            if last_reject_bad:
                raise SingularRadius(
                    f"radius collapsed toward zero near tau ~ {{tau:.6g}}")
            raise IntegrationFailure(
                f"step size underflow at tau ~ {{tau:.6g}}")
        {state_n}, {fsal}, {errors} = {step}({params})
{norm}
        err = math.sqrt(({squares}) / {size}.0)
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
        nacc += 1
        last_reject_bad = False
{row}
        if exit is None and {value_n} >= 0.0:
            def at(s):
                {state_e} = _substep({cartesian}, {probe})
                return {value_e}, {slope_e}, {row_e}
            s, state = _locate_exit(at, h, {value}, {value_n}, (Rn, Vn, Tn))
            exit = (tau + s, *state)
            if stop_at_event:
                ts.append(exit[0])
                ys += exit[1:]
                break
        tau += h
        {state} = {state_n}
        {cached} = {fsal}
        ts.append(tau)
        ys += (Rn, Vn, Tn)
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
        h *= fac
{after}
    return tau, h, nacc, nrej, exit
"""


def _phi_chain(offsets):
    """The addition chain that builds Phi at the positive integer
    ``offsets``: {n: (p, q)} with p >= q earlier in it and p + q = n, or
    {n: None} for a base, which the step evaluates by exp and expm1.  Each
    n takes the pair whose expansion into bases has the fewest factors (on
    a tie the most even one); an n that is no sum of two earlier ones is a
    base."""
    chain, leaves = {}, {}
    for n in sorted(offsets):
        pairs = [(leaves[p] + leaves[n - p], p, n - p) for p in chain
                 if p >= n - p and n - p in chain]
        if pairs:
            leaves[n], p, q = min(pairs)
            chain[n] = (p, q)
        else:
            leaves[n] = 1
            chain[n] = None
    return chain


def _rhs(R, c3, cth):
    """Perturbation c3 / R^3 of R'' and the angle slope cth / R^2 at R.

    The steps evaluate both inline; this serves a run's first step in
    either chart (the Cartesian first stage is 2 alpha times the angle
    slope), the first polar step after the switch, and the tests.
    """
    R2 = R * R
    return c3 / (R2 * R), cth / R2


def _spring_constants(xi1, xi2, sd2):
    """(alpha, D, dmax) of the roots (xi1, xi2) and sd2 = 2 sqrt(D): the
    damping alpha = -(xi1 + xi2) / 2, D = (sd2 / 2)^2 = alpha^2 - 1, and
    the cap SPRING_CAP alpha^2 - 1 on the polar chart's added spring
    omega^2 - 1, which is <= 0 when that chart keeps omega^2 = 1."""
    alpha = -0.5 * (xi1 + xi2)
    r = 0.5 * sd2
    return alpha, r * r, SPRING_CAP * alpha * alpha - 1.0


def _polar(x, y, px, py):
    """(R, R', Theta) of the Cartesian state X = (x, y), P = (px, py): R'
    is X.P / R, formed as (x / R) px + (y / R) py so that it is px exactly
    on the x axis, as at tau = 0."""
    R = math.sqrt(x * x + y * y)
    return R, x / R * px + y / R * py, math.atan2(y, x)


def _side(statements, many):
    """The statements of one body: the trial step's or step loop's side of
    each pair, or with ``many`` the array map's, less those left out."""
    picked = (x[many] if isinstance(x, tuple) else x for x in statements)
    return [x for x in picked if x is not None]


def _names(chart):
    """(state, cached, fsal): the names of the state components of
    ``chart`` (positions, velocities, then the polar chart's angle), of the
    cached first stage that follows them among its trial step's
    parameters, and of that stage at the step end, which the trial step
    returns after the state (FSAL)."""
    params, comps = _CHARTS[chart][2].split(", "), _CHARTS[chart][7]
    state = [c[0] for c in comps] + [c[2] for c in comps]
    state += ["T"] if chart == "polar" else []
    cached = params[len(state):params.index("h")]
    return state, cached, [f"{c[:-1]}{len(A)}" for c in cached]


def _step_source(chart: str, many: bool = False) -> str:
    """Source of the trial step of ``chart`` ("polar" or "cartesian"), or
    with ``many`` of its array map, expanded from C, A and E.

    ``_attempt(R, V, T, n1, g1, h, c3, cth, om2, xi1, xi2, sd2)`` is one
    polar trial step of size h from (R, V, T), where (n1, g1) = _rhs(R) is
    the cached first stage and om2 = omega^2 the step's spring, with xi1,
    xi2 and sd2 its roots (``_SPRING``).  It returns (Rn, Vn, Tn, n7, g7,
    eR, eV, eT): (n7, g7) = _rhs(Rn) is the next step's first stage; e*
    are the raw embedded error components.
    ``_attempt_cartesian(x, y, px, py, f1, h, tc, xi1, xi2, sd2)`` is one
    Cartesian trial step of size h from X = (x, y), P = (px, py), with
    tc = 2 alpha cth and the cached first stage f1 = tc / r^2, so that the
    perturbation is (-f1 y, f1 x).  It returns (xn, yn, pxn, pyn, f7, ex,
    ey, epx, epy) in the same way.
    In both, a stage radius (r^2 in the Cartesian chart) that left
    (0, inf), or in the polar chart a cube of it, the divisor of c3, that
    underflowed to 0, ends the step with infinite error components
    (``bad``), so the step loop rejects it as it rejects any non-finite
    error.

    Stage i of a position component (polar: radius R{i}, start u, force
    m{i} = n{i} + (omega^2 - 1) R{i} - omega^2 w, angle slope g{i};
    Cartesian: x{i} and y{i}, starts x and y, forces mx{i} and my{i}) is
    (w +) H u + K v + h (sum over l >= 2 of a_il K m_l), with H and K at
    c_i h, the K at (c_i - c_l) h and v = V + h a_i1 m1.  Its velocity,
    formed at the step end only, is the same sum with -omega^2 K u and K'.
    The error components weigh every m_l (g_l for Theta) with E.  Phi is
    evaluated once per distinct exact offset n (in units of h / 90), where
    a sum first reads it: first e{n} and m{n} with those of the chain that
    it is built from and that are not yet there (s = c h, then ``exp`` and
    ``expm1`` at a base), then K{n} and the other forms that some sum
    reads.  Each sum is a ``+`` chain from its first term over the nonzero
    coefficients, in tableau order; at offset 0, K = 0 drops a term and
    K' = 1 a factor.

    The array map ``_polar_many(R, V, T, h, c3, cth, xi1, xi2, sd2,
    alpha, D, dmax)`` or ``_cartesian_many(x, y, px, py, h, tc, xi1, xi2,
    sd2)`` takes the step start, the step length and the run's constants,
    each an array over samples or a number (alpha, D and dmax, from
    ``_spring_constants`` of the run's roots, numbers), and returns the
    step-end state alone ((Rn, Vn, Tn) or (xn, yn, pxn, pyn)).  It first
    forms the cached first stage and, polar, the spring om2 and its roots
    (``_SPRING``, or om2 = 1 and the run's roots when dmax <= 0); the rest
    of its body is the trial step's with the same stage sums, less the
    stage checks, the last stage's perturbation and the error sums, and
    with ``minimum`` for the conditionals.
    """
    (name, many_name, params, many_params, bad, head, prelude, comps, check,
     dH) = _CHARTS[chart]
    polar = chart == "polar"
    # Nodes and their offsets c_i - c_l are integers in units of h / unit
    # (90); index maps each offset that a sum reads to the forms of Phi it
    # reads there.
    unit = math.lcm(*(d for _, d in C))
    nodes = [n * unit // d for n, d in C]
    index = {}

    lines = [f"def {many_name}({many_params}):", *(
        f"    {line}" for line in _side(head, True))] if many else [
        f"def {name}({params}):", "    INF = math.inf", f"    bad = {bad}"]
    lines += [f"    {line}" for line in _side(prelude, many)]
    lines.append("    nu = -1.0 / sd2")

    def phi(form, i, l):
        """Name of a form of Phi((c_i - c_l) h); a new offset leaves a
        placeholder for its evaluation in ``lines``."""
        x = nodes[i] - nodes[l]
        if x not in index:
            index[x] = set()
            lines.append(x)
        index[x].add(form)
        return f"{form}{x}"

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
            elif nodes[i] != nodes[l]:
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
            lines += [f"    {line}".format(k=k) for line in _side(check, many)]
    # The last stage is the step end: its velocity, then the error sums.
    for _, u, P, _, m, v in comps:
        lines.append(f"    {P}{k} = {dH}{K} * {u} + {phi('dK', i, 0)} * {v}"
                     f" + h * ({chain(i, A[i], 1, 'dK', m)})")
    if polar:
        lines.append(f"    T{k} = T + h * ({chain(i, A[i], 0, None, 'm')})")
    names, _, fsal = _names(chart)
    state = [f"{x}{k}" for x in names]
    if not many:
        errors = [(f"e{X}", "K", m) for X, _, _, _, m, _ in comps]
        errors += [(f"e{P}", "dK", m) for _, _, P, _, m, _ in comps]
        if polar:
            errors.append(("eT", None, "m"))
        lines += [f"    {e} = h * ({chain(i, E, 0, form, m)})"
                  for e, form, m in errors]
        state += fsal + [e for e, *_ in errors]
    lines.append("    return " + ", ".join(state))
    # Phi at each offset, built by the chain from its bases where a sum
    # first reads it.
    plan = _phi_chain(index)
    built = set()

    def build(n):
        """Statements that evaluate e{n} and m{n} and those they read."""
        if n in built:
            return []
        built.add(n)
        if plan[n] is None:
            return [f"s = {n / unit!r} * h", f"e{n} = exp(xi1 * s)",
                    f"m{n} = expm1(-sd2 * s)"]
        p, q = plan[n]
        return build(p) + build(q) + [f"e{n} = e{p} * e{q}",
                                      f"m{n} = m{p} + m{q} + m{p} * m{q}"]

    out = []
    for line in lines:
        if isinstance(line, str):
            out.append(line)
            continue
        out += [f"    {x}" for x in build(line)]
        out += [f"    {form}{line} = {expr.format(n=line)}"
                for form, expr in _PHI.items()
                if form == "K" or form in index[line]]
    return "\n".join(out) + "\n"


def _loop_source(chart: str) -> str:
    """Source of the step loop ``_run_polar`` or ``_run_cartesian``:
    ``_LOOP`` filled in with the trial step of ``chart`` and the names of
    its parameters, state components (an error scale and a FSAL assignment
    each, in ``_CHARTS`` order) and cached first stage, the exit search's
    call of the sample map on the map's parameters, and its ``_LOOPS``
    entry.  The loop takes the trial step's parameters, then (tau, nacc,
    nrej, exit) where the run stands, then the run's constants and the
    lists of times and (R, R', Theta) rows it appends to; it steps until
    the horizon, the event when the run stops there, or (Cartesian) the
    switch, and returns (tau, h, nacc, nrej, exit)."""
    step, _, params, many_params, *_ = _CHARTS[chart]
    value, slope, row, joins, extra, entry, after = _LOOPS[chart]
    state, cached, fsal = _names(chart)

    def at(template, suffix):
        """``template`` at the state names with ``suffix``."""
        return template.format(**{x: x + suffix for x in state})

    def block(statements, indent):
        return "\n".join(" " * indent + x for x in statements)

    names = {suffix: ", ".join(x + suffix for x in state)
             for suffix in ("", "n", "e")}
    norm = []
    for x in state:
        # |start| and |end| of x, then of each component joined to it.
        sizes = [f"abs({y}{end})" for y in (x, *joins.get(x, ()))
                 for end in ("", "n")]
        norm.append(f"a = {sizes[0]}")
        for size in sizes[1:-1]:
            norm += [f"b = {size}", "a = b if b > a else a"]
        norm += [f"b = {sizes[-1]}",
                 f"e{x} /= atol + rtol * (b if b > a else a)"]
    return _LOOP.format(
        chart=chart, step=step, params=params, extra=extra,
        entry=block(_side(entry, False), 4),
        after=block(_side(after, False), 8), norm=block(norm, 8),
        state=names[""], state_n=names["n"], state_e=names["e"],
        cached=", ".join(cached), fsal=", ".join(fsal),
        errors=", ".join("e" + x for x in state),
        squares=" + ".join(f"e{x} * e{x}" for x in state), size=len(state),
        row=f"        Rn, Vn, Tn = {at(row, 'n')}" if row else "",
        row_e=at(row, "e") if row else f"({names['e']})",
        value=at(value, ""), value_n=at(value, "n"), value_e=at(value, "e"),
        slope_e=at(slope, "e"), cartesian=chart == "cartesian",
        probe=", ".join("s" if x == "h" else x
                        for x in many_params.split(", ")))


def _exp(x):
    """numpy's exp as a float: its bits, which are libm's only mostly."""
    return float(np.exp(x))


def _expm1(x):
    """numpy's expm1 as a float."""
    return float(np.expm1(x))


def _minimum(a, b):
    """np.minimum of two floats that are not NaN."""
    return a if a < b else b


# Defines ``_attempt``, ``_attempt_cartesian`` and the step loops in this
# module, so that callers look them up here.  Each array map is compiled
# once and its code run in two namespaces: one where exp, expm1, minimum
# and sqrt are numpy's, for arrays of samples, and one where they give
# numpy's values as floats, for one sample or one point of the exit search
# (``_polar_one``, ``_cartesian_one``).
_numpy = {"exp": np.exp, "expm1": np.expm1, "minimum": np.minimum,
          "sqrt": np.sqrt}
_floats = {"exp": _exp, "expm1": _expm1, "minimum": _minimum, "sqrt": sqrt}
for _chart in _CHARTS:
    _step, _many = _CHARTS[_chart][:2]
    exec(compile(_step_source(_chart), f"<_kernels.{_step}>", "exec"),
         globals())
    _code = compile(_step_source(_chart, True), f"<_kernels.{_many}>",
                    "exec")
    exec(_code, _numpy)
    exec(_code, _floats)
    exec(compile(_loop_source(_chart), f"<_kernels._run_{_chart}>", "exec"),
         globals())
_polar_many, _cartesian_many = _numpy["_polar_many"], _numpy["_cartesian_many"]
_polar_one, _cartesian_one = _floats["_polar_many"], _floats["_cartesian_many"]
del _chart, _step, _many, _code, _numpy, _floats


def _substep(cartesian, *args):
    """The single-step map on floats at an offset from a step start, the
    one ``substep_many`` samples with: (R, V, T) from the arguments of
    ``_polar_many``, or, in the Cartesian chart, (x, y, px, py) from those
    of ``_cartesian_many``, with the offset in place of h."""
    return (_cartesian_one if cartesian else _polar_one)(*args)


def _polar_samples(R, V, T, s, c3, cth, xi1, xi2, sd2):
    """(R, R', Theta) at offsets s into polar steps from (R, V, T), by the
    map on the run's constants: rows of an array, or with fewer than
    FEW_SAMPLES samples a list of rows."""
    run = (c3, cth, xi1, xi2, sd2, *_spring_constants(xi1, xi2, sd2))
    if s.size < FEW_SAMPLES:
        return [_polar_one(*y, *run) for y in zip(
            R.tolist(), V.tolist(), T.tolist(), s.tolist())]
    return np.column_stack(_polar_many(R, V, T, s, *run))


def _cartesian_polar(x0, y0, T, x, y, px, py):
    """(R, R', Theta) of Cartesian states (x, y, px, py) reached from a
    step start (x0, y0) at angle T, on floats or arrays alike."""
    r = np.sqrt(x * x + y * y)
    # The angle turned since the step start, from real products: exactly 0
    # at offset 0.
    return (r, x / r * px + y / r * py,
            T + np.arctan2(x0 * y - y0 * x, x0 * x + y0 * y))


def _cartesian_samples(XP, T, s, cth, xi1, xi2, sd2):
    """(R, R', Theta) at offsets s into Cartesian steps from the starts XP
    (rows x, y, x', y') at angles T, as ``_polar_samples`` gives them."""
    run = (-(xi1 + xi2) * cth, xi1, xi2, sd2)
    if s.size < FEW_SAMPLES:
        return [_cartesian_polar(x, y, T0, *_cartesian_one(
            x, y, px, py, s0, *run)) for (x, y, px, py), T0, s0 in zip(
                XP.tolist(), T.tolist(), s.tolist())]
    x0, y0, px, py = XP.T
    return np.column_stack(_cartesian_polar(
        x0, y0, T, *_cartesian_many(x0, y0, px, py, s, *run)))


def substep_many(R, V, T, s, c3, cth, xi1, xi2, sd2, cart, XP):
    """The single-step map at many starts (R, V, T) and offsets s >= 0 at
    once, in the chart of each step.

    ``cart`` marks the samples whose step was taken in the Cartesian
    chart, and ``XP`` holds those steps' start states (x, y, x', y'), one
    row per marked sample.  The maps are generated from the source of the
    trial steps, with their floating-point operations but numpy's exp and
    expm1, which differ from libm's in the last bit on some arguments, so
    a sample at a step's full length agrees with the accepted state to
    round-off and not always bit for bit.  A chart's samples go through
    its array map, ``_polar_many`` or ``_cartesian_many``, all at once,
    or, when there are fewer than FEW_SAMPLES of them, through the same
    map on floats (``_polar_one``, ``_cartesian_one``, which ``_substep``
    calls) one by one.  Both routes do the same operations on the same exp
    and expm1 bits, so a sample's bits do not depend on the samples it is
    taken with.  The map forms each step's first stage and, polar, its
    spring and roots at the step's start, with the operations of the step
    loop.  Stage radii are not checked: the offsets lie inside accepted
    steps.  Returns the end states as an array with columns R, V, Theta.
    """
    out = np.empty((s.size, 3))
    polar = ~cart
    if polar.any():
        out[polar] = _polar_samples(R[polar], V[polar], T[polar], s[polar],
                                    c3, cth, xi1, xi2, sd2)
    if cart.any():
        out[cart] = _cartesian_samples(XP, T[cart], s[cart], cth, xi1, xi2,
                                       sd2)
    return out


def _locate_exit(at, h, f0, f1, end):
    """Crossing of theta_target inside an accepted step of length h, by
    the search under "Event handling".

    ``at(s)`` is (value, slope, state) of the chart's single-step map at
    offset s.  f0 < 0 <= f1 are the values at the step's ends, and ``end``
    the state at its end.  Returns (s, state): the last offset evaluated,
    and its state; (h, end) when the bracket is at floating-point
    resolution from the start.
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
        f, slope, state = at(s)
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
                     rtol, atol, stop_at_event, tau1, kappa):
    """Adaptive Lawson DP45 integration of the scaled corner flow from
    tau = 0, with the roots (xi1, xi2) and sd2 = 2 sqrt(D) of
    ``linear_phase.characteristic_roots``.

    The run steps in the Cartesian chart until the switch under "The
    switch" (tau1 and the corner timescale kappa set it; with tau1 <= 0
    it starts in the polar chart), then in the polar chart.  The first
    trial step is 1e-3 kappa, or tau_end if that is shorter.
    Returns (ts, ys, xs, exit, nacc, nrej): the sample times and states
    (an (n, 3) array with columns R, R', Theta), the start states of the
    steps taken in the Cartesian chart (an (m, 4) array with columns x, y,
    px, py: steps 0 to m - 1), the exit (tau, R, R', Theta) or None when
    the run did not cross theta_target, and the step counts.
    Step i starts at sample i; when the run stops at the event, the last
    step is the full accepted step that holds the crossing.  Raises
    ``SingularRadius`` or ``IntegrationFailure`` as under "Failures".
    """
    tau, h, nacc, nrej, exit = 0.0, min(1e-3 * kappa, tau_end), 0, 0, None
    ts, ys, xs = [tau], [R0, V0, 0.0], []
    run = (tau_end, theta_target, rtol, atol, stop_at_event, ts, ys)
    if tau_end > 0.0 and tau1 > 0.0:
        # 2 alpha P_perp = f (-y, x) with f = 2 alpha cth / r^2, which is
        # 2 alpha Theta': f1 is ta times the angle slope of _rhs.
        ta = -(xi1 + xi2)  # 2 alpha
        xs += (R0, 0.0, V0, cth / R0)
        tau, h, nacc, nrej, exit = _run_cartesian(
            *xs, ta * _rhs(R0, c3, cth)[1], h, ta * cth, xi1, xi2, sd2, tau,
            nacc, nrej, exit, *run, xs, tau1, kappa)
    # The polar chart, from the run start or the switch, unless the run
    # ended in the Cartesian one; its spring is set at the loop's entry.
    if tau < tau_end and (exit is None or not stop_at_event):
        R, V, T = ys[-3:]
        tau, h, nacc, nrej, exit = _run_polar(
            R, V, T, *_rhs(R, c3, cth), h, c3, cth, 1.0, xi1, xi2, sd2, tau,
            nacc, nrej, exit, *run)
    return (np.array(ts), np.array(ys).reshape(-1, 3),
            np.array(xs).reshape(-1, 4), exit, nacc, nrej)
