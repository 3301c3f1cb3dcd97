"""Adaptive corner integration: events, sampling, conservation, oracle."""
import math
import random
import time
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    IntegrationFailure,
    InvalidInput,
    ScaleFreeRun,
    ScaledState,
    SingularRadius,
    asymptotic_times,
    characteristic_roots,
    integrate_corner,
    kernel_K2_dot,
    kernels_K2_H2,
    oracle_fast_time_integration,
    radial_rhs,
    scaled_params_direct,
    scaled_params_from_physical,
    scaled_to_cartesian,
)
from cornerimpact import _kernels
from cornerimpact._kernels import _polar, _rhs, _substep, integrate_radial
from cornerimpact.corner_phase import (
    ORACLE_MAX_RHS,
    _flow_constants,
    default_horizon,
    substep_many,
)

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def params_at(eta):
    return scaled_params_direct(eta, "derive", UNIT, DAMP2)


def lin_roots(damping):
    """(xi1, xi2, 2 sqrt(D)), the kernel's view of the linear part."""
    return damping.xi1, damping.xi2, 2.0 * damping.sqrt_delta


def test_radial_rhs_values():
    p = params_at(1e-2)
    dR, ddR, dTh = radial_rhs(ScaledState(0.0, 1.0, 0.5, 0.0), p)
    c3 = p.E * (1.0 - p.eps) ** 2
    assert dR == 0.5
    assert ddR == pytest.approx(c3 - 2.0 * 2.0 * 0.5 - 1.0, rel=1e-15)
    assert dTh == pytest.approx(math.sqrt(p.E) * (1.0 - p.eps), rel=1e-15)
    with pytest.raises(SingularRadius):
        radial_rhs(ScaledState(0.0, 0.0, 0.5, 0.0), p)
    with pytest.raises(SingularRadius):
        radial_rhs(ScaledState(0.0, -1.0, 0.5, 0.0), p)


def test_acute_exit_regression():
    # Deterministic pin.
    res = integrate_corner(params_at(1e-2), ACUTE)
    assert res.exit_tau == pytest.approx(4.9997617400403035e-05, rel=1e-12,
                                         abs=0.0)
    st = res.exit_state
    assert st.R == pytest.approx(0.0057730815895653265, rel=1e-12, abs=0.0)
    assert st.dR == pytest.approx(86.59130465820813, rel=1e-12)
    assert abs(st.Theta - ACUTE.theta_bar) <= 1e-14
    assert res.tau[-1] == res.exit_tau


def test_obtuse_exit_regression():
    res = integrate_corner(params_at(1e-2), OBTUSE)
    assert res.exit_tau == pytest.approx(12.516784287077181, rel=1e-12)
    assert res.exit_state.R == pytest.approx(1.025434826809858, rel=1e-12)
    assert abs(res.exit_state.Theta - OBTUSE.theta_bar) <= 1e-14
    # The obtuse passage exits well before the default settle horizon.
    assert res.exit_tau < res.horizon


def test_angle_event_tolerance():
    for eta in (1e-2, 1e-3):
        res = integrate_corner(params_at(eta), ACUTE)
        assert abs(res.exit_state.Theta - ACUTE.theta_bar) <= 1e-14


# (alpha, theta_bar, eta): two acute exits and two obtuse.  At
# theta_bar = 1.7 the exit time is 1.7175490521903976, which an interval
# enclosure of the same flow confirms; there the exit lies far past the
# free-flight window, Theta' is small, and the polar chart's angle error
# (about 3 rtol) puts the exit 25 rtol off at rtol 1e-10 and 27 rtol off
# at 1e-13.
REFERENCE_CASES = [
    (2.0, math.pi / 3.0, 0.1), (1.5, 1.2, 0.1),
    (1.5, 2.0 * math.pi / 3.0, 0.1),
    pytest.param(2.0, 1.7, 0.1, marks=pytest.mark.xfail(
        strict=True, reason="polar-chart angle error near theta_bar = 1.7")),
]


@pytest.mark.parametrize("alpha, theta_bar, eta", REFERENCE_CASES)
def test_exit_time_matches_high_precision_reference(alpha, theta_bar, eta):
    # The same scaled flow solved by a 25-digit Taylor series and rooted
    # at Theta = theta_bar: the exit time is off by the integration error
    # alone, at rtol 1e-10 and at rtol 1e-13.
    mp = pytest.importorskip("mpmath")
    p = scaled_params_direct(eta, "derive", UNIT, characteristic_roots(alpha))
    cone = ConeGeometry(theta_bar)
    runs = {rtol: integrate_corner(p, cone, rtol=rtol, atol=1e-2 * rtol)
            for rtol in (1e-10, 1e-13)}
    with mp.workdps(25):
        one = 1 - mp.mpf(p.eps)
        c3 = mp.mpf(p.E) * one * one
        cth = mp.sqrt(mp.mpf(p.E)) * one
        a = mp.mpf(p.damping.alpha)
        sol = mp.odefun(
            lambda t, y: [y[1], c3 / y[0] ** 3 - 2 * a * y[1] - y[0],
                          cth / y[0] ** 2],
            0, [mp.mpf(p.R0), mp.mpf(p.dR0), mp.mpf(0)])
        ref = float(mp.findroot(lambda t: sol(t)[2] - theta_bar,
                                mp.mpf(runs[1e-13].exit_tau)))
    for rtol, res in runs.items():
        assert abs(res.exit_tau - ref) <= 10.0 * rtol * ref, rtol


def test_acute_exit_time_scale():
    # tau_bar ~ tau0 + 0.5 eta^2 for unit data at theta_bar = pi/3.
    for eta in (1e-2, 1e-3):
        p = params_at(eta)
        res = integrate_corner(p, ACUTE)
        est = p.tau0 + 0.5 * eta * eta
        assert res.exit_tau / est == pytest.approx(1.0, abs=5e-3)


def test_samples_start_at_zero_and_increase():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE)
    assert res.tau[0] == 0.0
    assert res.R[0] == p.R0 and res.dR[0] == p.dR0 and res.Theta[0] == 0.0
    assert np.all(np.diff(res.tau) > 0.0)
    assert res.n_accepted + 1 >= res.tau.size - 1


def test_eval_grid_states():
    p = params_at(1e-2)
    ev = np.array([1e-4, 1e-2, 1.0, 5.0])
    res = integrate_corner(p, OBTUSE, stop_at_event=False, horizon=6.0)
    st = res.sample(ev)
    np.testing.assert_array_equal(st.tau, ev)
    # Sampled states interleave consistently with the accepted samples.
    interp_R = np.interp(ev, res.tau, res.R)
    np.testing.assert_allclose(st.R, interp_R, rtol=5e-3)
    # Momentum holds at the samples too.
    mom = st.R ** 2 * (math.sqrt(p.E) * (1 - p.eps) / st.R ** 2)
    np.testing.assert_allclose(mom, p.momentum, rtol=1e-15)


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_dense_output_matches_single_step(cone):
    # Samples come from the single-step map from the covering step's
    # start, evaluated for all of them at once; the scalar map is the
    # reference.
    p = params_at(1e-3)
    res = integrate_corner(p, cone)
    rng = np.random.default_rng(20)
    step = rng.integers(0, res.tau.size - 1, 50)
    x = rng.uniform(0.0, 1.0, 50)
    ev = np.unique(res.tau[step] + x * (res.tau[step + 1] - res.tau[step]))
    st = res.sample(ev)
    np.testing.assert_array_equal(st.tau, ev)

    one = 1.0 - p.eps
    c3, cth = p.E * one * one, math.sqrt(p.E) * one
    lin = lin_roots(p.damping)
    ref = np.empty((ev.size, 3))
    ta = -(lin[0] + lin[1])
    for j, tau in enumerate(ev):
        i = np.searchsorted(res.tau, tau, side="right") - 1
        if i < len(res.cartesian):
            x, y, px, py = map(float, res.cartesian[i])
            f1 = ta * cth / (x * x + y * y)
            ok, *X = _substep(True, x, y, px, py, f1, tau - res.tau[i],
                              ta * cth, *lin)
            ref[j] = _polar(*X)
        else:
            R, V, T = res.R[i], res.dR[i], res.Theta[i]
            ok, *ref[j] = _substep(False, R, V, T, *_rhs(R, c3, cth),
                                   tau - res.tau[i], c3, cth, *lin)
        assert ok
    np.testing.assert_allclose(st.R, ref[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(st.Theta, ref[:, 2], rtol=1e-13, atol=0.0)
    # dR changes sign at the turning point: relative to its scale.
    dR_scale = np.max(np.abs(res.dR))
    assert np.max(np.abs(st.dR - ref[:, 1])) <= 1e-13 * dR_scale


def test_linear_part_is_exact():
    # Without the penalty term the flow is the damped-linear propagator
    # itself; Lawson steps carry it exactly, so the step size is free to
    # grow to the horizon.
    # Both charts: with tau1 = 0 the run starts in the polar chart, and
    # with tau1 = 50 it stays in the Cartesian one.
    R0, V0 = 1.0, -0.3
    for tau1 in (0.0, 50.0):
        ts, ys, xs, exit, nacc, _ = integrate_radial(
            R0, V0, 0.0, 0.0, *lin_roots(DAMP2), 1.0, 50.0, 1e-10, 1e-12,
            1e-3, True, tau1, 1.0)
        assert exit is None and nacc <= 10
        assert xs.shape == ((nacc if tau1 else 0), 4)
        assert ts[-1] == 50.0
        K2, H2 = kernels_K2_H2(DAMP2, ts)
        dK2 = kernel_K2_dot(DAMP2, ts)
        np.testing.assert_allclose(ys[:, 0], H2 * R0 + K2 * V0, rtol=1e-13,
                                   atol=0.0)
        np.testing.assert_allclose(ys[:, 1], -K2 * R0 + dK2 * V0,
                                   rtol=1e-13, atol=0.0)


def test_rest_point_is_exact():
    # At the rest point Rc = c3^(1/4) the penalty force balances the
    # spring.  Each step is taken about the rest point of the frozen
    # force, so it is exact there: the run stays put and its step grows to
    # the horizon, as in the settle phase of a run past the exit.  The run
    # starts in the polar chart (tau1 = 0).
    c3, cth = 0.3, 0.5
    Rc = c3 ** 0.25
    ts, ys, _, exit, nacc, _ = integrate_radial(
        Rc, 0.0, c3, cth, *lin_roots(characteristic_roots(8.0)), math.inf,
        50.0, 1e-10, 1e-12, 1e-3, True, 0.0, 1.0)
    assert exit is None and nacc <= 10 and ts[-1] == 50.0
    np.testing.assert_allclose(ys[:, 0], Rc, rtol=1e-14, atol=0.0)
    assert np.max(np.abs(ys[:, 1])) <= 1e-14 * Rc
    np.testing.assert_allclose(ys[:, 2], cth / Rc ** 2 * ts, rtol=1e-13,
                               atol=0.0)


@pytest.mark.parametrize("cth,error,message", [
    (0.0, SingularRadius, "radius collapsed"),
    (0.5, IntegrationFailure, "step size underflow"),
])
def test_kernel_step_underflow(cth, error, message):
    # With c3 = 0 nothing stops the radius, which reaches zero near
    # tau = 0.127.  Without an angle the last rejected steps have stage
    # radii outside (0, inf); with cth = 0.5 the error test of the angle
    # quadrature rejects them first.  Both runs are in the polar chart
    # (tau1 = 0): the Cartesian chart passes straight through the origin.
    with pytest.raises(error, match=message):
        integrate_radial(1.0, -10.0, 0.0, cth, *lin_roots(DAMP2), math.inf,
                         50.0, 1e-10, 1e-12, 1e-3, True, 0.0, 1.0)


def test_step_budget_names_the_kernel_budget(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPS", 10)
    with pytest.raises(IntegrationFailure, match="step budget 10 exhausted"):
        integrate_corner(params_at(1e-2), OBTUSE)


# Exit (tau, R, R', Theta), the last sample, the states ``sample`` gives
# at the times in ``samples`` that the run covered, and the step counts of
# four runs, pinned bit for bit (rtol 1e-10, atol 1e-12).  The acute run
# stops at its exit near 5e-5, before every sample time.
# At eta = 1e-20 the obtuse run takes Lawson steps tens of tau long and
# the samples fall inside them.  "past_exit" is the asym-report run: it
# continues past the exit to tau3 = zeta ln(1/eta) at alpha = 8 and
# settles toward the rest point Rc, where the step is taken about w = n1.
BITWISE_PINS = {
    "acute": dict(
        eta=1e-2, cone=ACUTE, samples=[1e-4, 1e-2, 0.5],
        exit=(4.9997617400403076e-05, 0.005773081589565329,
              86.59130465820805, 1.0471975511965976),
        R=[], dR=[], Theta=[], steps=(24, 2)),
    "obtuse": dict(
        eta=1e-2, cone=OBTUSE, samples=[1e-4, 1e-2, 0.5],
        exit=(12.516784287077707, 1.025434826809619, -0.2575705735650876,
              2.0943951023931953),
        R=[0.01040719755970993, 0.9804259662669891, 20.78476654232424],
        dR=[96.0498928419006, 96.09103743032469, 9.9072976427429],
        Theta=[1.2898133595604748, 1.56842223009345, 1.571828767578945],
        steps=(215, 3)),
    "obtuse_far": dict(
        eta=1e-20, cone=OBTUSE, samples=[1.0, 20.0, 60.0, 120.0, 160.0],
        exit=(167.1975805844548, 1.0252000991116448, -0.2574957195985625,
              2.0943951023931953),
        R=[2.1390913026027938e+19, 1.3584143568570456e+17,
           3008001405047.3877, 313434.4239751375, 6.94057853197359],
        dR=[-3.337309713930791e+18, -3.639860299066884e+16,
            -805991547314.1299, -83984.50078425223, -1.8596674623416156],
        Theta=[1.5707963267948966, 1.5707963267948966, 1.5707963267948966,
               1.570796326801123, 1.581978851363339],
        steps=(150, 25)),
    "past_exit": dict(
        eta=1e-2, alpha=8.0, cone=ACUTE, horizon=36.69688332983271,
        samples=[1e-4, 1e-2, 0.5, 5.0, 30.0],
        exit=(1.0910560790685655e-05, 0.0012598152342055743,
              86.59305062139177, 1.0471975511965976),
        last=(36.69688332983271, 0.6339250781333546, -0.03881004528447773,
              2.818272770378141),
        R=[0.010013064117017237, 0.9242316605402395, 6.103630774689426,
           4.603814640456553, 0.9602011417654026],
        dR=[99.65692801309541, 85.2233569149919, -0.3483568528624032,
            -0.28886873906036176, -0.05997085902932685],
        Theta=[1.5080309297438146, 1.570765276303476, 1.572344556171144,
               1.5825635891802283, 2.104170583439005],
        steps=(776, 3)),
}


@pytest.mark.parametrize("case", BITWISE_PINS)
def test_bitwise_pin(case):
    pin = BITWISE_PINS[case]
    params = scaled_params_direct(pin["eta"], "derive", UNIT,
                                  characteristic_roots(pin.get("alpha", 2.0)))
    res = integrate_corner(params, pin["cone"], rtol=1e-10, atol=1e-12,
                           horizon=pin.get("horizon"),
                           stop_at_event="horizon" not in pin)
    st = res.exit_state
    assert (res.exit_tau, st.R, st.dR, st.Theta) == pin["exit"]
    last = (res.tau[-1], res.R[-1], res.dR[-1], res.Theta[-1])
    assert tuple(map(float, last)) == pin.get("last", pin["exit"])
    sampled = res.sample([t for t in pin["samples"] if t <= res.tau[-1]])
    for name in ("R", "dR", "Theta"):
        assert list(map(float, getattr(sampled, name))) == pin[name], name
    assert (res.n_accepted, res.n_rejected) == pin["steps"]


def reference_attempt(R, V, T, n1, g1, h, c3, cth, xi1, xi2, sd2):
    """The trial step as a plain loop over C, A and E, with the operations
    of the generated ``_attempt`` in its order: each sum a ``+`` chain from
    its first term over the nonzero coefficients, with the R terms at
    offset 0 (K = 0) left out."""
    c = [Fraction(*x) for x in _kernels.C]
    A = [[Fraction(*x) for x in row] for row in _kernels.A]
    E = [Fraction(*x) for x in _kernels.E]

    def phi(i, l):  # (H, K, K') at (c_i - c_l) h
        s = float(c[i] - c[l]) * h
        e = math.exp(xi1 * s)
        q = -math.expm1(-sd2 * s) / sd2
        return e * (1.0 - xi1 * q), e * q, e * (1.0 + xi2 * q)

    def chain(i, a, first, form, y):  # form: 1 K, 2 K', None 1
        return [float(a[l]) * (1.0 if form is None else phi(i, l)[form])
                * y[l] for l in range(first, len(a))
                if a[l] and not (form == 1 and c[i] == c[l])]

    w = n1 if n1 < R else R
    u, m, g = R - w, [n1 - w], [g1]
    for i in range(1, len(A)):
        H, K, dK = phi(i, 0)
        v = V + h * float(A[i][0]) * m[0]
        Ri = w + H * u + K * v
        rest = chain(i, A[i], 1, 1, m)
        if rest:
            Ri = Ri + h * reduce(add, rest)
        if not 0.0 < Ri < math.inf:
            return (False, 0.0, 0.0, 0.0, 0.0, 0.0) + (math.inf,) * 3
        Q = Ri * Ri
        n, gi = c3 / (Q * Ri), cth / Q
        m.append(n - w)
        g.append(gi)
    b = A[-1]
    Vn = -K * u + dK * v + h * reduce(add, chain(i, b, 1, 2, m))
    Tn = T + h * reduce(add, chain(i, b, 0, None, g))
    return (True, Ri, Vn, Tn, n, gi,
            *(h * reduce(add, chain(i, E, 0, form, y))
              for form, y in ((1, m), (2, m), (None, g))))


def check_array_map(chart, ok, groups):
    """The array map of ``chart``, in one call on the arguments of the
    accepted trial steps in ``ok`` (pairs of arguments and step-end
    state), against their step ends: bit for bit with libm's exp and expm1
    in place of numpy's, and as it is within 32 eps of the scale of each
    group of state columns (the largest start or end value in it).  numpy's
    exp differs from libm's in the last bit on some arguments, and the
    stage sums amplify that by up to the size of the tableau's weights."""
    name = f"_{chart}_many"
    args, ends = zip(*ok)
    cols = np.array(args).T
    ends = np.array(ends)
    libm = {"exp": np.vectorize(math.exp), "expm1": np.vectorize(math.expm1),
            "minimum": np.minimum}
    exec(_kernels._step_source(chart, many=True), libm)
    np.testing.assert_array_equal(np.column_stack(libm[name](*cols)), ends)
    got = np.column_stack(getattr(_kernels, name)(*cols))
    size = np.abs(np.stack([cols[:ends.shape[1]].T, ends]))
    for g in groups:
        scale = size[:, :, g].max(axis=(0, 2))[:, None]
        assert np.all(np.abs(got[:, g] - ends[:, g])
                      <= 32.0 * np.finfo(float).eps * scale), (chart, g)


def test_generated_step_matches_the_reference_loop():
    # Seeded states: h from 1e-14 to 1e3, so that many trial steps have a
    # stage radius outside (0, inf), and V = +-0.0 now and then.
    rng = random.Random(19)
    rejected = 0
    ok = []
    for _ in range(3000):
        xi1, xi2, sd2 = lin_roots(
            characteristic_roots(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)))
        c3 = 10.0 ** rng.uniform(-6.0, 2.0)
        cth = math.sqrt(c3) * rng.uniform(0.1, 1.0)
        R = 10.0 ** rng.uniform(-3.0, 2.5)
        V = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        if rng.random() < 0.05:
            V = rng.choice((0.0, -0.0))
        args = (R, V, rng.uniform(0.0, 3.0), *_rhs(R, c3, cth),
                10.0 ** rng.uniform(-14.0, 3.0), c3, cth, xi1, xi2, sd2)
        out = _kernels._attempt(*args)
        ref = reference_attempt(*args)
        assert out[0] is ref[0]
        assert [x.hex() for x in out[1:]] == [x.hex() for x in ref[1:]], args
        rejected += not out[0]
        if out[0]:
            ok.append((args, out[1:4]))
    assert 100 < rejected < 2900
    check_array_map("polar", ok, ([0, 1], [2]))


def test_tableau_is_consistent():
    # Exact: the rows sum to the nodes, b = A[-1] has order 5 and
    # b^ = b - E order 4.
    c = [Fraction(*x) for x in _kernels.C]
    A = [[Fraction(*x) for x in row] for row in _kernels.A]
    E = [Fraction(*x) for x in _kernels.E]
    assert [sum(row) for row in A] == c
    b = A[-1] + [Fraction(0)]
    bhat = [bl - el for bl, el in zip(b, E)]
    for q in range(1, 6):
        assert sum(bl * cl ** (q - 1) for bl, cl in zip(b, c)) == \
            Fraction(1, q)
    for q in range(1, 5):
        assert sum(bl * cl ** (q - 1) for bl, cl in zip(bhat, c)) == \
            Fraction(1, q)
    assert sum(E) == 0


def reference_attempt_cartesian(x, y, px, py, f1, h, tc, xi1, xi2, sd2):
    """The Cartesian trial step as a plain loop over C, A and E, with the
    operations of the generated ``_attempt_cartesian`` in its order: per
    stage the x and y positions, each sum a ``+`` chain from its first term
    over the nonzero coefficients, with the terms at offset 0 (K = 0) left
    out, and the velocities at the step end."""
    c = [Fraction(*x) for x in _kernels.C]
    A = [[Fraction(*x) for x in row] for row in _kernels.A]
    E = [Fraction(*x) for x in _kernels.E]

    def phi(i, l):  # (H, K, K') at (c_i - c_l) h
        s = float(c[i] - c[l]) * h
        e = math.exp(xi1 * s)
        q = -math.expm1(-sd2 * s) / sd2
        return e * (1.0 - xi1 * q), e * q, e * (1.0 + xi2 * q)

    def chain(i, a, first, form, m):  # form: 1 K, 2 K'
        return h * reduce(add, [
            float(a[l]) * phi(i, l)[form] * m[l] for l in range(first, len(a))
            if a[l] and not (form == 1 and c[i] == c[l])])

    X, P = (x, y), (px, py)
    m = ([-f1 * y], [f1 * x])
    for i in range(1, len(A)):
        H, K, dK = phi(i, 0)
        v = [P[j] + h * float(A[i][0]) * m[j][0] for j in (0, 1)]
        Xi = [H * X[j] + K * v[j] for j in (0, 1)]
        if i > 1:
            Xi = [Xi[j] + chain(i, A[i], 1, 1, m[j]) for j in (0, 1)]
        Q = Xi[0] * Xi[0] + Xi[1] * Xi[1]
        if not 0.0 < Q < math.inf:
            return (False, 0.0, 0.0, 0.0, 0.0, 0.0) + (math.inf,) * 4
        f = tc / Q
        m[0].append(-f * Xi[1])
        m[1].append(f * Xi[0])
    Pn = [-K * X[j] + dK * v[j] + chain(i, A[i], 1, 2, m[j]) for j in (0, 1)]
    return (True, *Xi, *Pn, f,
            *(chain(i, E, 0, form, m[j]) for form in (1, 2) for j in (0, 1)))


def test_generated_cartesian_step_matches_the_reference_loop():
    # Seeded states over many scales: some scaled by 1e-170, whose r^2
    # underflows to 0, some by 1e160, whose r^2 overflows, and one at the
    # origin; h from 1e-14 to 1e3.
    rng = random.Random(29)
    rejected = 0
    ok = []
    for n in range(3000):
        xi1, xi2, sd2 = lin_roots(
            characteristic_roots(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)))
        scale = rng.choice((1e-170, 1e160) + (1.0,) * 8)
        state = [scale * rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
                 for lo, hi in ((-3.0, 2.5), (-3.0, 2.5), (-6.0, 3.0),
                                (-6.0, 3.0))]
        if n == 0:
            state = [0.0, 0.0, 0.0, 0.0]
        args = (*state, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6),
                10.0 ** rng.uniform(-14.0, 3.0),
                -(xi1 + xi2) * 10.0 ** rng.uniform(-3.0, 1.0), xi1, xi2, sd2)
        out = _kernels._attempt_cartesian(*args)
        ref = reference_attempt_cartesian(*args)
        assert out[0] is ref[0]
        assert [x.hex() for x in out[1:]] == [x.hex() for x in ref[1:]], args
        rejected += not out[0]
        if n == 0:
            assert not out[0]
        if out[0]:
            ok.append((args, out[1:5]))
    assert 300 < rejected < 2700
    check_array_map("cartesian", ok, ([0, 1, 2, 3],))


def test_generated_step_evaluates_phi_once_per_offset():
    # 13 distinct offsets c_i - c_l among the stages of either chart, in
    # the trial step and in the array map; profiles and tracebacks name the
    # generated bodies.  The array map has no stage checks, and its
    # statements, but for the first stage's rest point and the return, are
    # the trial step's, in the same order.
    for chart, names in (("polar", ("_attempt", "_polar_many")),
                         ("cartesian", ("_attempt_cartesian",
                                        "_cartesian_many"))):
        for many, name in enumerate(names):
            src = _kernels._step_source(chart, many)
            assert src.count("exp(") == src.count("expm1(") == 13
            assert src.startswith(f"def {name}(")
            assert getattr(_kernels, name).__code__.co_filename == \
                f"<_kernels.{name}>"
        step, array = (_kernels._step_source(chart, many)
                       for many in (False, True))
        assert "bad" not in array and "INF" not in array
        step = iter(step.splitlines())
        assert all(line in step for line in array.splitlines()[1:-1]
                   if "minimum(" not in line)


def test_obtuse_cost_is_flat_in_k():
    # Along the second asymptotic R decays from ~1/eta at the exact linear
    # rate, so shrinking eta by two orders of magnitude adds only the
    # steps of the longer approach, not thousands.
    cone = ConeGeometry(2.0)
    steps = [integrate_corner(scaled_params_from_physical(UNIT, DAMP2, k),
                              cone).n_accepted for k in (1e4, 1.2e6)]
    assert max(steps) < 2 * min(steps), steps


def test_step_grows_freely_between_the_vertex_and_tau_one():
    # Between the vertex time kappa ~ eta^2 and tau = 1 the flow has no
    # scale of its own: the free flight is a straight line and then the
    # damped-linear part is propagated exactly, so the error estimates lie
    # far inside the tolerance.  At eta = 1e-70 the run climbs the 141
    # decades from kappa to tau = 1 in 99 steps, where a growth bound of 5
    # per step took 207.
    res = integrate_corner(params_at(1e-70), ConeGeometry(2.0))
    assert res.exit_tau > 1.0
    assert np.searchsorted(res.tau, 1.0) <= 120


@pytest.mark.parametrize("eta, early", [(1e-6, False), (1e-4, True)])
def test_early_switch_only_when_kappa_exceeds_rtol(eta, early):
    # Past 10 kappa the run leaves the Cartesian chart early only when
    # kappa > rtol, where the vertex passage can limit a step at the run's
    # tolerance: at eta = 1e-4 (kappa = 2.9e-9) it leaves at about
    # 10 kappa, at eta = 1e-6 (kappa = 2.9e-13) not before tau1.
    p = params_at(eta)
    res = integrate_corner(p, ConeGeometry(2.0), rtol=1e-10)
    switch = res.tau[len(res.cartesian)]
    tau1 = asymptotic_times(p.eta, p.damping).tau1
    assert (p.kappa > 1e-10) == early
    if early:
        assert 10.0 * p.kappa <= switch < 12.0 * p.kappa < tau1
    else:
        assert switch >= tau1


def test_samples_across_long_steps():
    # At eta = 1e-20 the obtuse passage takes steps of tens of tau units
    # while R >> 1; samples inside them stay finite and accurate.
    p = params_at(1e-20)
    run = integrate_corner(p, OBTUSE)
    assert np.max(np.diff(run.tau)) > 10.0
    ev = np.linspace(0.1, 0.99, 300) * run.exit_tau
    res = run.sample(ev)
    ref = integrate_corner(p, OBTUSE, rtol=1e-13, atol=1e-15).sample(ev)
    for name in ("R", "dR", "Theta"):
        got, want = getattr(res, name), getattr(ref, name)
        assert got.size == 300 and np.all(np.isfinite(got)), name
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0,
                                   err_msg=name)


def test_sample_outside_the_run_is_invalid():
    # The run stops at its exit near 5e-5: its window is [0, exit], in
    # any order, and every time outside it, or not finite, or not in a
    # 1-D array, is refused.
    p = params_at(1e-2)
    res = integrate_corner(p, ACUTE)
    st = res.sample([res.exit_tau, 0.0])
    assert st.R[1] == p.R0 and st.dR[1] == p.dR0 and st.Theta[1] == 0.0
    assert st.Theta[0] == pytest.approx(ACUTE.theta_bar, rel=1e-14)
    assert res.sample([]).R.size == 0
    for bad in ([1e-2], [-1e-9], [math.nan], [math.inf], [[1e-5]], 1e-5):
        with pytest.raises(InvalidInput, match="corner sample times"):
            res.sample(bad)
    # A run to its horizon covers it, past the exit.
    run = integrate_corner(p, OBTUSE, horizon=20.0, stop_at_event=False)
    assert run.tau[-1] >= 20.0 > run.exit_tau
    assert np.all(np.isfinite(run.sample([run.exit_tau, 20.0]).R))


def test_eval_point_at_accepted_time_matches_state():
    # Sampling at an accepted time reproduces the stored state up to one
    # rounding of the step-offset subtraction.
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, horizon=2.0)
    st = res.sample([res.tau[5]])
    assert st.R[0] == pytest.approx(res.R[5], rel=1e-14)
    assert st.dR[0] == pytest.approx(res.dR[5], rel=1e-13, abs=1e-14)


def test_sample_at_step_starts():
    # At offset 0 the single-step map gives R' and Theta exactly; R is
    # exact in the Cartesian chart and w + (R - w), within an ulp, in the
    # polar chart.
    res = integrate_corner(params_at(1e-2), ConeGeometry(2.0), horizon=20.0,
                           stop_at_event=False)
    starts = res.tau[:-1]
    st = res.sample(starts)
    assert starts.size > 300 and len(res.cartesian) > 20
    assert np.all(np.abs(st.R - res.R[:-1]) <= np.spacing(res.R[:-1]))
    np.testing.assert_array_equal(st.dR, res.dR[:-1])
    np.testing.assert_array_equal(st.Theta, res.Theta[:-1])


def test_sample_is_continuous_across_the_chart_switch():
    # The run leaves the Cartesian chart at the start of step m: just
    # before it the last Cartesian step's map, at it the first polar
    # step's, and both give the stored switch state.
    res = integrate_corner(params_at(1e-2), OBTUSE)
    m = len(res.cartesian)
    assert 0 < m < res.n_accepted
    t = res.tau[m]
    st = res.sample([np.nextafter(t, 0.0), t])
    assert st.dR[1] == res.dR[m] and st.Theta[1] == res.Theta[m]
    for name in ("R", "dR", "Theta"):
        np.testing.assert_allclose(getattr(st, name), getattr(res, name)[m],
                                   rtol=1e-13, atol=0.0, err_msg=name)


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE])
def test_cartesian_step_ends_match_the_stored_states(cone):
    # ``sample`` reads a step end as the next step's start, so the map of
    # the Cartesian steps is evaluated at their full length directly: it
    # reproduces the stored (R, R', Theta) to round-off.
    res = integrate_corner(params_at(1e-3), cone)
    m = len(res.cartesian)
    assert m > 10
    i = np.arange(m)
    y = substep_many(res.R[i], res.dR[i], res.Theta[i],
                     res.tau[i + 1] - res.tau[i],
                     *_flow_constants(res.params), np.ones(m, bool),
                     res.cartesian)
    np.testing.assert_allclose(y[:, 0], res.R[1:m + 1], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(y[:, 2], res.Theta[1:m + 1], rtol=1e-14,
                               atol=0.0)
    assert np.max(np.abs(y[:, 1] - res.dR[1:m + 1])) <= \
        1e-13 * np.max(np.abs(res.dR))


def test_continue_after_event():
    p = params_at(1e-2)
    res = integrate_corner(p, OBTUSE, stop_at_event=False)
    assert res.exit_tau is not None
    assert res.tau[-1] >= res.horizon
    assert res.tau[-1] == pytest.approx(res.horizon, rel=1e-12)
    assert res.tau[-1] > res.exit_tau


def test_zero_horizon():
    p = params_at(1e-2)
    res = integrate_corner(p, ACUTE, horizon=0.0)
    assert res.tau.size == 1 and res.tau[0] == 0.0
    assert res.n_accepted == 0
    st = res.sample([0.0])
    assert (st.R[0], st.dR[0], st.Theta[0]) == (p.R0, p.dR0, 0.0)


def test_default_horizon_budget():
    p = params_at(1e-2)
    expected = (0.5 / abs(DAMP2.xi1)) * math.log(1.0 / p.eta) \
        * (1.0 + 2.0 * 2.3680339887498949)
    assert default_horizon(p) == pytest.approx(expected, rel=1e-12)


def test_input_validation():
    p = params_at(1e-2)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, rtol=0.0)
    with pytest.raises(InvalidInput, match="rtol must be at least"):
        integrate_corner(p, ACUTE, rtol=1e-24, atol=1e-26)
    with pytest.raises(InvalidInput):
        integrate_corner(p, ACUTE, horizon=-1.0)


def test_tolerance_consistency():
    # Tighter tolerances change the exit time only within the looser one.
    p = params_at(1e-2)
    loose = integrate_corner(p, OBTUSE, rtol=1e-6, atol=1e-9)
    tight = integrate_corner(p, OBTUSE, rtol=1e-12, atol=1e-13)
    assert loose.exit_tau == pytest.approx(tight.exit_tau, rel=1e-5)
    assert loose.n_accepted < tight.n_accepted


def test_reconstruct_cartesian():
    phys = scaled_params_from_physical(UNIT, DAMP2, 100.0)
    res = integrate_corner(phys, ACUTE)
    t, u, v = scaled_to_cartesian(phys, res.tau, res.R, res.dR, res.Theta)
    assert t.shape == (res.tau.size,)
    assert u.shape == v.shape == (res.tau.size, 2)
    np.testing.assert_allclose(t, 1.0 + res.tau / 10.0, rtol=1e-15)
    r = phys.eta * res.R / 10.0
    np.testing.assert_allclose(u[:, 0], r * np.cos(res.Theta), rtol=1e-14)
    np.testing.assert_allclose(u[:, 1], r * np.sin(res.Theta), rtol=1e-14)
    # Radial velocity eta R' and transverse velocity r Theta' in physical
    # time, where Theta' = sqrt(E)(1-eps)/R^2 in scaled time.
    e_r = np.column_stack([np.cos(res.Theta), np.sin(res.Theta)])
    e_th = np.column_stack([-np.sin(res.Theta), np.cos(res.Theta)])
    np.testing.assert_allclose(np.sum(v * e_r, axis=1), phys.eta * res.dR,
                               rtol=1e-12)
    np.testing.assert_allclose(np.sum(v * e_th, axis=1),
                               r * phys.momentum / res.R ** 2 * 10.0,
                               rtol=1e-12)
    # A scalar state gives a scalar time and Cartesian pairs.
    st = res.exit_state
    t1, u1, v1 = scaled_to_cartesian(phys, st.tau, st.R, st.dR, st.Theta)
    assert np.ndim(t1) == 0 and u1.shape == v1.shape == (2,)
    assert t1 == t[-1]
    np.testing.assert_array_equal(u1, u[-1])
    np.testing.assert_array_equal(v1, v[-1])
    with pytest.raises(ScaleFreeRun):
        scaled_to_cartesian(params_at(1e-2), res.tau, res.R, res.dR,
                            res.Theta)


def test_oracle_agrees_near_first_crossing():
    # Independent Cartesian fast-time route vs the closed-form face phase.
    from cornerimpact import r1_phase_state

    k = 100.0
    run = oracle_fast_time_integration(UNIT, DAMP2, ACUTE, k, horizon=0.9)
    t = np.linspace(0.0, 0.9, 7)
    u = run.sample(t)
    r_ref, _, s_ref, _ = r1_phase_state(UNIT, DAMP2, k, t)
    np.testing.assert_allclose(u[:, 0], r_ref, atol=1e-8)
    np.testing.assert_allclose(u[:, 1], s_ref, atol=1e-8)


def test_oracle_validation():
    with pytest.raises(InvalidInput):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, -1.0, horizon=1.0)
    with pytest.raises(InvalidInput):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=0.0)


@pytest.mark.parametrize("tol", [dict(atol=-1.0), dict(rtol=0.0),
                                 dict(rtol=math.nan), dict(atol=math.inf)],
                         ids=["atol<0", "rtol=0", "rtol=nan", "atol=inf"])
def test_oracle_rejects_bad_tolerances(tol):
    # Each used to be a bare ValueError, a warning with a silent clamp, a
    # run through the whole budget, or a 9-step "success".
    start = time.perf_counter()
    (name,) = tol
    with pytest.raises(InvalidInput, match=f"{name} must be"):
        oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=1.0,
                                     **tol)
    assert time.perf_counter() - start < 1.0


def test_oracle_sample_stays_inside_the_run():
    run = oracle_fast_time_integration(UNIT, DAMP2, ACUTE, 100.0, horizon=0.5)
    for bad in ([-0.5], [3.0], [0.0, 0.5 + 1e-9], [math.nan], [math.inf]):
        with pytest.raises(InvalidInput, match="oracle sample times"):
            run.sample(bad)
    u = run.sample([0.0, 0.25, 0.5])
    assert u.shape == (3, 2)
    np.testing.assert_array_equal(u[0], [0.0, UNIT.s0])
    np.testing.assert_allclose(u[2], run.u[-1], rtol=0.0, atol=1e-15)
    assert run.sample(0.25).shape == (2,)
    np.testing.assert_array_equal(run.sample(0.25), u[1])
    assert run.sample([]).shape == (0, 2)


# The documented step collapse: alpha = 2, theta_bar = 1, k = 1e4.
COLLAPSE = dict(damping=DAMP2, cone=ConeGeometry(1.0), k=1e4, rtol=1e-11,
                atol=1e-13)


def test_oracle_fails_fast_past_its_budget():
    # Horizon 2.0 needs ~8M right-hand-side calls (over a minute).
    start = time.perf_counter()
    with pytest.raises(IntegrationFailure,
                       match=rf"budget of {ORACLE_MAX_RHS} .* fast time"):
        oracle_fast_time_integration(UNIT, horizon=2.0, **COLLAPSE)
    assert time.perf_counter() - start < 10.0


def test_oracle_runs_into_the_collapse_within_budget():
    run = oracle_fast_time_integration(UNIT, horizon=1.5, **COLLAPSE)
    assert run.t[-1] == pytest.approx(1.5, rel=1e-12)
    assert np.all(np.isfinite(run.u)) and np.all(np.isfinite(run.v))


def test_oracle_overflow_is_integration_failure():
    # A state that overflows used to escape as InvalidInput from the
    # per-call point validation.
    with pytest.raises(IntegrationFailure):
        oracle_fast_time_integration(InitialData(-1.0, 1e300, 1e300),
                                     horizon=1.0, **COLLAPSE)
