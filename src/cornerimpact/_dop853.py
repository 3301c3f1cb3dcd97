"""Hairer's DOP853 on plain Python floats: the oracle's integrator.

The explicit Runge-Kutta pair of order 8(5, 3) of Dormand and Prince with
its 7th-order dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Sec. II.5, and Hairer's ``dop853.f``).
The step controller is the one of scipy's ``solve_ivp(method="DOP853")``:
its initial-step rule, the E5/E3 error norm, safety factor 0.9 and step
factors clamped to [0.2, 10].

The right-hand side is autonomous and has four components, each a Python
float; numpy enters only when a finished run is sampled.  It may be
piecewise smooth: ``solve`` takes one smooth field per region of the
plane of the first two components (a position, whose velocity is the
last two), with the linear forms that leave each region.  A run starts in
the region its initial velocity enters and steps with that region's
field, which extends smoothly past the region's lines, so the E5/E3
estimate sees no switch inside a step.  After each accepted step it tests
the region's forms at the step's end; where one has turned positive it
ends the step on that line instead, as a trial of the length that puts it
there (``_cut``: a Hermite guess, then Newton re-trials; Hairer, Norsett &
Wanner, Sec. II.6), and goes on with the field of the region beyond.  The
step controller does not change.  A run that cannot go on stops one
way: the loop raises ``_Stop`` with the reason, ``solve`` records it, and
``_spend`` is the one check of the right-hand-side budget.

A trial step is one flat body, ``_trial``: its 12 stages, the new state
and the E5/E3 error norm, each stage sum a ``+`` chain of literal
products over the nonzero coefficients only.  ``_extra_many`` is the
array form of the same chains for the three stages the interpolant adds.
Both bodies are expanded from ``A``, ``E5`` and ``E3`` when the module
loads (``_flat_source``), so the tuples stay the one copy of the
coefficients.
The interpreter, not the arithmetic, sets the cost of a step: the chains
call no ``sum`` or ``map`` and leave out the 30 zeros among the 104
coefficients of rows 1-12, E5 and E3, and they take about half the time
of a loop of ``sum(map(mul, row, K))`` over full rows.

Each chain starts from 0.0 and adds the products in tableau order.  That
is what CPython 3.11's ``sum`` computes for such a row: it starts from
int 0 (0 + x is 0.0 + x) and adds floats left to right, and a term 0.0 * k
left out changes no bit of a running sum that starts from 0.0, provided k
is finite.  So the steps are bit-identical to that loop; unlike it, they
do not depend on the interpreter (CPython 3.12 compensates float sums).

Each accepted step keeps its stages, and ``Solution.dense`` builds the
interpolant for the steps that hold sample points only, all of them at
once: ``_extra_many`` reads their stages as (m, 4) arrays from a
zero-copy ``np.frombuffer`` view of ``Solution.stages``, so each stage sum
is one chain of numpy operations over all m steps and four components.
Elementwise float64 ``*`` and ``+`` round as the scalar operations do, so
a row holds the bits a scalar chain would give.  Only the field stays
scalar: each row of z goes to its step's own region's field
(``Solution.region``), three calls per step.

The coefficients are copied from ``scipy/integrate/_ivp/
dop853_coefficients.py`` (scipy; Copyright (c) 2001-2002 Enthought,
Inc. 2003, SciPy Developers; BSD 3-Clause licence), which takes them from
Hairer's Fortran code.  Row s of ``A`` holds a_sj for j < s;
rows 13-15 are the extra stages of the interpolant.  The nodes c_s are
not needed by an autonomous field and are left out.
"""
from __future__ import annotations

import math
import sys
from array import array

import numpy as np

A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
     0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)

E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
)

D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)

N_STAGES = 12
B = A[N_STAGES]
# The 3rd-order error weights b - bhh, with Hairer's bhh1..3 on stages 0, 8
# and 11.
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
E3 = tuple(b - _BHH.get(s, 0.0) for s, b in enumerate(B + (0.0,)))

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0     # -1 / (error estimator order + 1)
# Locating a switch: iterations of each root search, and how close to its
# line (in float spacings of the position) a step that ends there lies.
LOCATE_TRIALS = 8
SWITCH_TOL = 4.0 * sys.float_info.epsilon


def _chain(coefs, names) -> str:
    """Source of the sum of c * x over ``coefs`` and ``names``: a ``+``
    chain from 0.0 over the nonzero c, in order."""
    return "0.0" + "".join(f" + {c!r} * {x}"
                           for c, x in zip(coefs, names) if c)


def _flat_source() -> str:
    """Source of ``_trial`` and ``_extra_many``, expanded from the tableau.

    k{c}_{s} is stage s of component c and z{c} the state a stage is
    evaluated at.  ``_trial(fun, y1..y4, h, k1_0..k4_0, rtol, atol)``
    returns the new state, the E5/E3 error norm of the step and the 52
    stages, component by component (stage 12 is f at the new state).  The
    norm scales each component by atol + max(|y|, |new|) rtol and is 0
    where both sums vanish.

    ``_extra_many(funs, y, h, K)`` is the array form for the interpolant's
    three stages of m steps at once: y holds the steps' start states,
    shape (m, 4), h their sizes, shape (m, 1), and K their 13 stages,
    shape (13, m, 4).  Each stage sum is the same ``+`` chain as in
    ``_trial``, over (m, 4) arrays, and row i of z is passed to its step's
    field ``funs[i]``; it returns stages 13-15, each of shape (m, 4).
    """
    comps = (1, 2, 3, 4)

    def stages(first, last):
        lines = []
        for s in range(first, last + 1):
            for c in comps:
                chain = _chain(A[s], [f"k{c}_{j}" for j in range(s)])
                lines.append(f"    z{c} = y{c} + ({chain}) * h")
            lines.append(f"    {', '.join(f'k{c}_{s}' for c in comps)}"
                         f" = fun(z1, z2, z3, z4)")
        return lines

    def ks(c, n):
        return ", ".join(f"k{c}_{j}" for j in range(n))

    n = N_STAGES + 1
    trial = ["def _trial(fun, y1, y2, y3, y4, h, k1_0, k2_0, k3_0, k4_0,"
             " rtol, atol):",
             *stages(1, N_STAGES)]
    # The E5/E3 error norm of DOP853: each component's sums divided by its
    # scale s, from the larger of |y| and |z| (b if b > a else a is what
    # max(a, b) returns, without the call).
    for c in comps:
        trial += [f"    a = abs(y{c})", f"    b = abs(z{c})",
                  f"    s{c} = atol + (b if b > a else a) * rtol"]
    for name, E in (("err5", E5), ("err3", E3)):
        trial += [f"    e{c} = ({_chain(E, [f'k{c}_{j}' for j in range(n)])})"
                  f" / s{c}" for c in comps]
        trial.append(f"    {name} = "
                     + " + ".join(f"e{c} * e{c}" for c in comps))
    trial += ["    if err5 == 0.0 and err3 == 0.0:",
              "        err = 0.0",
              "    else:",
              "        err = h * err5 / math.sqrt((err5 + 0.01 * err3) * 4.0)",
              "    return (z1, z2, z3, z4, err,",
              f"            ({', '.join(ks(c, n) for c in comps)},))"]
    extra = ["def _extra_many(funs, y, h, K):",
             f"    {', '.join(f'k_{j}' for j in range(n))} = K"]
    for s in range(n, len(A)):
        chain = _chain(A[s], [f"k_{j}" for j in range(s)])
        extra += [f"    z = y + ({chain}) * h",
                  f"    k_{s} = np.array([f(z1, z2, z3, z4) for f, z1, z2, z3,"
                  f" z4 in zip(funs, *z.T.tolist())])"]
    extra.append("    return " + ", ".join(f"k_{s}" for s in range(n, len(A))))
    return "\n".join(trial + extra) + "\n"


_bodies: dict = {"np": np, "math": math}
exec(compile(_flat_source(), "<_dop853 flat bodies>", "exec"), _bodies)
_trial, _extra_many = _bodies["_trial"], _bodies["_extra_many"]


class Solution:
    """Accepted steps of one run, packed in flat float arrays.

    ``t`` holds the accepted times and ``y`` the states there, four floats
    per time.  ``stages`` holds, per step from ``t[i]`` to ``t[i + 1]``,
    the 13 stage derivatives of each component in turn (the last one is f
    at the new state).  ``failure`` is None when the run reached its end
    time, else the reason it stopped; ``nfev`` counts the right-hand-side
    calls of the stepping loop, each trial step's and region switch's
    before they are made, so a trial that float arithmetic interrupts
    counts in full.  ``regions`` is the run's field, as
    ``solve`` takes it, and ``region`` holds the region each step took.
    """

    def __init__(self, regions, y0):
        self.regions = regions
        self.t = array("d", [0.0])
        self.y = array("d", y0)
        self.stages = array("d")
        self.region = array("b")
        self.nfev = 0
        self.failure: str | None = None

    def dense(self, tau) -> np.ndarray:
        """States at the times ``tau`` (1-D, within the run), shape (n, 4).

        A time on a step boundary is taken from the earlier step, as in
        scipy's ``OdeSolution``.
        """
        tau = np.asarray(tau, dtype=float)
        if tau.size == 0:
            return np.empty((0, 4))
        ts = np.array(self.t)
        ys = np.array(self.y).reshape(-1, 4)
        seg = np.clip(np.searchsorted(ts, tau, side="left") - 1,
                      0, len(ts) - 2)
        used, where = np.unique(seg, return_inverse=True)
        t_old = ts[used]
        h = ts[used + 1] - t_old
        y_old = ys[used]
        dy = ys[used + 1] - y_old
        hc = h[:, None]
        stages = np.frombuffer(self.stages).reshape(-1, 4, N_STAGES + 1)
        stages = stages[used]
        funs = [self.regions[r][0]
                for r in np.frombuffer(self.region, np.int8)[used].tolist()]
        K = np.concatenate(
            (stages, np.dstack(_extra_many(funs, y_old, hc,
                                           stages.transpose(2, 0, 1)))),
            axis=2)                                     # (m, 4, 16)
        f_old = K[:, :, 0]
        f_new = K[:, :, N_STAGES]
        F = np.empty((len(used), 7, 4))
        F[:, 0] = dy
        F[:, 1] = hc * f_old - dy
        F[:, 2] = 2.0 * dy - hc * (f_new + f_old)
        F[:, 3:] = hc[:, :, None] * (K @ np.array(D).T).transpose(0, 2, 1)
        # Horner-like evaluation in x and 1 - x (Hairer's CONTD8).
        x = ((tau - t_old[where]) / h[where])[:, None]
        F = F[where]
        y = np.zeros((len(tau), 4))
        for i in range(7):
            y += F[:, 6 - i]
            y *= x if i % 2 == 0 else 1.0 - x
        return y + y_old[where]


def _rms(a, b, c, d):
    return math.hypot(a, b, c, d) * 0.5


def _initial_step(fun, y, f, t_end, rtol, atol):
    """Hairer's starting-step rule (scipy's ``select_initial_step``)."""
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = _rms(*(yi / si for yi, si in zip(y, scale)))
    d1 = _rms(*(fi / si for fi, si in zip(f, scale)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(*(yi + h0 * fi for yi, fi in zip(y, f)))
    d2 = _rms(*((gi - fi) / si for gi, fi, si in zip(f1, f, scale))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_end)


def solve(regions, y0, t_end: float, rtol: float, atol: float,
          max_rhs: int) -> Solution:
    """Integrate y' = f(*y) from time 0 to ``t_end`` > 0, f by region.

    The state is a position (y1, y2) and its velocity (y3, y4).
    ``regions`` lists, per region, (fun, exits): ``fun`` maps four floats
    to four floats, the first two of them y3 and y4, and is smooth across
    the region's lines; each exit (p, q, j) says that the state leaves the
    region where p y1 + q y2 > 0, into region j.  One region with no exits
    is a smooth field.  The run starts in the first region that y0 lies in
    or, on a line, moves into (``_start``), and ends each step that leaves
    its region on the line it crossed (``_cut``).

    The run stops early, with ``Solution.failure`` set to the reason, when
    the next trial step or region switch would take ``nfev`` past
    ``max_rhs``, when the step falls below ten float spacings of t, when
    an accepted state is not finite, or when float arithmetic raises
    (``ZeroDivisionError``/``OverflowError``).  The stepping loop raises
    ``_Stop`` for the first three; this is the one place that sets
    ``failure``.
    """
    sol = Solution(regions, y0)
    try:
        _run(sol, t_end, rtol, atol, max_rhs)
    except _Stop as exc:
        sol.failure = str(exc)
    except ArithmeticError as exc:
        sol.failure = f"float arithmetic failed ({exc})"
    return sol


class _Stop(Exception):
    """Ends a run early; its text is the run's ``Solution.failure``."""


def _spend(sol, calls, max_rhs):
    """Count ``calls`` right-hand-side evaluations about to be made, or
    stop the run if they would take ``nfev`` past ``max_rhs``."""
    nfev = sol.nfev + calls
    if nfev > max_rhs:
        raise _Stop(f"budget of {max_rhs} right-hand-side evaluations "
                    "exhausted")
    sol.nfev = nfev


def _start(regions, y1, y2, v1, v2) -> int:
    """The first region that the state lies in, or on a line of it, moves
    into: each exit form is negative, or zero with a slope that is not
    positive.  The last region if no region is found (round-off)."""
    for j, (_, exits) in enumerate(regions):
        for p, q, _ in exits:
            g = p * y1 + q * y2
            if g > 0.0 or (g == 0.0 and p * v1 + q * v2 > 0.0):
                break
        else:
            return j
    return len(regions) - 1


def _hermite_root(g0, d0, g1, d1):
    """The root in (0, 1) of the cubic with values g0 <= 0 < g1 and slopes
    d0, d1 at 0 and 1: Newton's method kept inside the bracket."""
    c2 = 3.0 * (g1 - g0) - 2.0 * d0 - d1
    c3 = 2.0 * (g0 - g1) + d0 + d1
    lo, hi = 0.0, 1.0
    x = g0 / (g0 - g1)
    for _ in range(LOCATE_TRIALS):
        v = g0 + x * (d0 + x * (c2 + x * c3))
        if v > 0.0:
            hi = x
        else:
            lo = x
        dv = d0 + x * (2.0 * c2 + 3.0 * x * c3)
        x = x - v / dv if dv else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def _cut(sol, fun, exits, t, y, f, h, n, K, rtol, atol, max_rhs):
    """End a step that left its region on the exit line it crossed first.

    The step of size h from the state y at time t (f = fun(*y)) ended at n
    with stages K, past at least one exit line.  The line crossed first is
    the one whose form g has the earliest root of the cubic Hermite fit to
    g and its slopes (the velocity's component) at both ends of the step.
    From that guess, trials of size x from y move x by Newton's rule, with
    the slope of g at the trial's end, or by regula falsi where that would
    leave the bracket, until g at the trial's end is within ``SWITCH_TOL``
    of the end's position or the bracket closes (Hairer, Norsett & Wanner,
    Sec. II.6).  The last trial ends the step, on whichever side of the
    line it lies.

    Returns (x, n, K, j) with j the region beyond the line: x = 0 (and n =
    y) where y already lies on or past it, and x = h where the root is
    within float spacing of the step's end.
    """
    y1, y2, y3, y4 = y
    n1, n2, n3, n4 = n
    first = math.inf
    for p, q, j in exits:
        g_hi = p * n1 + q * n2
        if g_hi > 0.0:
            g_lo = p * y1 + q * y2
            if g_lo >= 0.0:
                return 0.0, y, K, j
            x = _hermite_root(g_lo, h * (p * y3 + q * y4),
                              g_hi, h * (p * n3 + q * n4))
            if x < first:
                first, line = x, (p, q, j, g_lo, g_hi)
    p, q, j, g_lo, g_hi = line
    lo, hi = 0.0, h
    x = h * first
    # Without a trial the guess rounded onto an end of the step.
    cut = (h, n, K, j) if x >= hi else (0.0, y, K, j)
    for _ in range(LOCATE_TRIALS):
        x = (t + x) - t
        if not lo < x < hi:
            break
        _spend(sol, N_STAGES, max_rhs)
        n1, n2, n3, n4, _, K = _trial(fun, y1, y2, y3, y4, x, *f, rtol, atol)
        cut = (x, (n1, n2, n3, n4), K, j)
        g = p * n1 + q * n2
        if abs(g) <= SWITCH_TOL * (abs(n1) + abs(n2)):
            break
        if g > 0.0:
            hi, g_hi = x, g
        else:
            lo, g_lo = x, g
        dg = p * n3 + q * n4
        x = x - g / dg if dg else lo
        if not lo < x < hi:
            x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    return cut


def _run(sol, t_end, rtol, atol, max_rhs):
    regions = sol.regions
    y1, y2, y3, y4 = sol.y
    region = _start(regions, y1, y2, y3, y4)
    fun, exits = regions[region]
    f1, f2, f3, f4 = fun(y1, y2, y3, y4)
    h_abs = _initial_step(fun, (y1, y2, y3, y4), (f1, f2, f3, f4), t_end,
                          rtol, atol)
    sol.nfev = 2
    t = 0.0
    INF = math.inf
    # Plain comparisons instead of the builtins, which cost a call per
    # attempt: b if b > a else a is what max(a, b) returns and b if b < a
    # else a what min(a, b) returns, ties and NaN included.
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, INF) - t)
        if min_step > h_abs:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise _Stop("step size fell below ten float spacings")
            _spend(sol, N_STAGES, max_rhs)
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            # Stages 1-11, then f at the new state n as stage 12 (B = A[12]).
            n1, n2, n3, n4, err, K = _trial(fun, y1, y2, y3, y4, h,
                                            f1, f2, f3, f4, rtol, atol)
            if err < 1.0:
                if err == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = SAFETY * err ** ERROR_EXPONENT
                    if not factor < MAX_FACTOR:
                        factor = MAX_FACTOR
                if rejected and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = SAFETY * err ** ERROR_EXPONENT
            h_abs = h * (factor if factor > MIN_FACTOR else MIN_FACTOR)
            rejected = True
        # abs(x) < INF is False for an infinite x and for NaN.
        if not (abs(n1) < INF and abs(n2) < INF and abs(n3) < INF
                and abs(n4) < INF):
            raise _Stop("state is not finite")
        # A step that leaves its region ends on the line it crosses, and
        # the run goes on with the field of the region beyond.
        beyond = region
        for p, q, _ in exits:
            if p * n1 + q * n2 > 0.0:
                h, (n1, n2, n3, n4), K, beyond = _cut(
                    sol, fun, exits, t, (y1, y2, y3, y4), (f1, f2, f3, f4),
                    h, (n1, n2, n3, n4), K, rtol, atol, max_rhs)
                t_new = t + h
                break
        if h > 0.0:
            t = t_new
            y1, y2, y3, y4 = n1, n2, n3, n4
            sol.t.append(t)
            sol.y.extend((y1, y2, y3, y4))
            sol.stages.extend(K)
            sol.region.append(region)
        if beyond == region:
            f1, f2, f3, f4 = K[N_STAGES::N_STAGES + 1]
            continue
        _spend(sol, 1, max_rhs)
        region = beyond
        fun, exits = regions[region]
        f1, f2, f3, f4 = fun(y1, y2, y3, y4)
