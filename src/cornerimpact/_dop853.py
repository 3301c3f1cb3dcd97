"""Hairer's DOP853 on plain Python floats: the oracle's integrator.

The explicit Runge-Kutta pair of order 8(5, 3) of Dormand and Prince with
its 7th-order dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Sec. II.5, and Hairer's ``dop853.f``).
The step controller is the one of scipy's ``solve_ivp(method="DOP853")``:
its initial-step rule, the E5/E3 error norm, safety factor 0.9 and step
factors clamped to [0.2, 10].

The right-hand side is autonomous and has four components, each a Python
float, so a stage costs one call and four ``sum(map(mul, ...))``; numpy
enters only when a finished run is sampled.  Each accepted step keeps its
stages, and ``Solution.dense`` builds the interpolant (three more stages)
for the steps that hold sample points only.

The coefficients are copied from ``scipy/integrate/_ivp/
dop853_coefficients.py`` (scipy; Copyright (c) 2001-2002 Enthought,
Inc. 2003, SciPy Developers; BSD 3-Clause licence), which takes them from
Hairer's Fortran code.  Row s of ``A`` holds a_sj for j < s;
rows 13-15 are the extra stages of the interpolant.  The nodes c_s are
not needed by an autonomous field and are left out.
"""
from __future__ import annotations

import math
from array import array
from operator import mul

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


class Solution:
    """Accepted steps of one run, packed in flat float arrays.

    ``t`` holds the accepted times and ``y`` the states there, four floats
    per time.  ``stages`` holds, per step from ``t[i]`` to ``t[i + 1]``,
    the 13 stage derivatives of each component in turn (the last one is f
    at the new state).  ``failure`` is None when the run reached its end
    time, else the reason it stopped; ``nfev`` counts the right-hand-side
    calls of the stepping loop.
    """

    def __init__(self, fun, y0):
        self.fun = fun
        self.t = array("d", [0.0])
        self.y = array("d", y0)
        self.stages = array("d")
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
        K = np.array([self._extended_stages(i) for i in used])  # (m, 4, 16)
        f_old = K[:, :, 0]
        f_new = K[:, :, N_STAGES]
        hc = h[:, None]
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

    def _extended_stages(self, i):
        """The 16 stage derivatives of step i, per component."""
        n = N_STAGES + 1
        K1, K2, K3, K4 = (self.stages[j:j + n].tolist()
                          for j in range(4 * n * i, 4 * n * (i + 1), n))
        _add_stages(self.fun, *self.y[4 * i:4 * i + 4],
                    self.t[i + 1] - self.t[i], A[n:], K1, K2, K3, K4)
        return K1, K2, K3, K4


def _add_stages(fun, y1, y2, y3, y4, h, rows, K1, K2, K3, K4):
    """Append to K1..K4 the stage derivatives for ``rows`` of A.

    Returns the state the last stage was evaluated at: for the rows up to
    B = A[12], the new state y + h sum(b_j K_j).
    """
    for a in rows:
        z1 = y1 + sum(map(mul, a, K1)) * h
        z2 = y2 + sum(map(mul, a, K2)) * h
        z3 = y3 + sum(map(mul, a, K3)) * h
        z4 = y4 + sum(map(mul, a, K4)) * h
        k1, k2, k3, k4 = fun(z1, z2, z3, z4)
        K1.append(k1)
        K2.append(k2)
        K3.append(k3)
        K4.append(k4)
    return z1, z2, z3, z4


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


def solve(fun, y0, t_end: float, rtol: float, atol: float,
          max_rhs: int) -> Solution:
    """Integrate y' = fun(*y) from time 0 to ``t_end`` > 0.

    ``fun`` maps four floats to four floats.  The run stops early, with
    ``Solution.failure`` set, when the next step attempt would take
    ``nfev`` past ``max_rhs``, when the step falls below ten float spacings
    of t, when an accepted state is not finite, or when float arithmetic
    raises (``ZeroDivisionError``/``OverflowError``).
    """
    sol = Solution(fun, y0)
    try:
        _run(sol, t_end, rtol, atol, max_rhs)
    except ArithmeticError as exc:
        sol.failure = f"float arithmetic failed ({exc})"
    return sol


def _run(sol, t_end, rtol, atol, max_rhs):
    fun = sol.fun
    y1, y2, y3, y4 = sol.y
    f1, f2, f3, f4 = fun(y1, y2, y3, y4)
    h_abs = _initial_step(fun, (y1, y2, y3, y4), (f1, f2, f3, f4), t_end,
                          rtol, atol)
    sol.nfev = 2
    stage_rows = A[1:N_STAGES + 1]
    t = 0.0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                sol.failure = "step size fell below ten float spacings"
                return
            if sol.nfev + N_STAGES > max_rhs:
                sol.failure = (f"budget of {max_rhs} right-hand-side "
                               f"evaluations exhausted")
                return
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K1, K2, K3, K4 = [f1], [f2], [f3], [f4]
            # Stages 1-11, then f at the new state as stage 12 (B = A[12]).
            n1, n2, n3, n4 = _add_stages(fun, y1, y2, y3, y4, h, stage_rows,
                                         K1, K2, K3, K4)
            sol.nfev += N_STAGES
            # The E5/E3 error norm of DOP853, weighted per component.
            s1 = atol + max(abs(y1), abs(n1)) * rtol
            s2 = atol + max(abs(y2), abs(n2)) * rtol
            s3 = atol + max(abs(y3), abs(n3)) * rtol
            s4 = atol + max(abs(y4), abs(n4)) * rtol
            e1 = sum(map(mul, E5, K1)) / s1
            e2 = sum(map(mul, E5, K2)) / s2
            e3 = sum(map(mul, E5, K3)) / s3
            e4 = sum(map(mul, E5, K4)) / s4
            err5 = e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4
            e1 = sum(map(mul, E3, K1)) / s1
            e2 = sum(map(mul, E3, K2)) / s2
            e3 = sum(map(mul, E3, K3)) / s3
            e4 = sum(map(mul, E3, K4)) / s4
            err3 = e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 4.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if not all(map(math.isfinite, (n1, n2, n3, n4))):
            sol.failure = "state is not finite"
            return
        t = t_new
        y1, y2, y3, y4 = n1, n2, n3, n4
        f1, f2, f3, f4 = K1[N_STAGES], K2[N_STAGES], K3[N_STAGES], K4[N_STAGES]
        sol.t.append(t)
        sol.y.extend((y1, y2, y3, y4))
        sol.stages.extend(K1 + K2 + K3 + K4)
