"""The oracle's scalar DOP853: tableau, accuracy, switches, failures, scipy
parity."""
import math
import random
from operator import mul

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    SimConfig,
    characteristic_roots,
    oracle_fast_time_integration,
    penalty_field,
    simulate_full,
)
from cornerimpact import _dop853

UNIT = InitialData(-1.0, 1.0, 1.0)


def oscillator(x1, x2, v1, v2):
    """Two uncoupled unit springs: x_i'' = -x_i."""
    return v1, v2, -x1, -x2


def smooth(fun):
    """``fun`` as a field of one region with no exits."""
    return ((fun, ()),)


def stiffer(x1, x2, v1, v2):
    """The first spring four times as stiff: x1'' = -4 x1."""
    return v1, v2, -4.0 * x1, -x2


# The unit springs where x1 <= 0 and the stiffer first spring where x1 >= 0.
SWITCHED = ((oscillator, ((1.0, 0.0, 1),)), (stiffer, ((-1.0, -0.0, 0),)))


def switched_exact(tau):
    """SWITCHED from (-1, 0, 0, 1): x1 swings a quarter period of the unit
    spring to 0, then half periods of the stiff (length pi/2) and the unit
    spring (length pi) in turn; x2 is sin."""
    phase = np.mod(tau - 0.5 * np.pi, 1.5 * np.pi)
    stiff = phase < 0.5 * np.pi
    soft = phase - 0.5 * np.pi
    x1 = np.where(stiff, 0.5 * np.sin(2.0 * phase), -np.sin(soft))
    v1 = np.where(stiff, np.cos(2.0 * phase), -np.cos(soft))
    return np.column_stack([x1, np.sin(tau), v1, np.cos(tau)])


def test_tableau_is_consistent():
    assert [len(row) for row in _dop853.A] == list(range(16))
    assert len(_dop853.E3) == len(_dop853.E5) == 13
    assert all(len(row) == 16 for row in _dop853.D)
    # The weights of the 8th-order solution sum to one, the error weights
    # to zero (E3 = b - bhh, both consistent).
    assert math.fsum(_dop853.B) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(_dop853.E3) == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(_dop853.E5) == pytest.approx(0.0, abs=1e-15)


def test_tableau_matches_scipy_bit_for_bit():
    pytest.importorskip("scipy")
    from scipy.integrate._ivp import dop853_coefficients as ref

    n = ref.N_STAGES
    assert _dop853.N_STAGES == n
    for s, row in enumerate(_dop853.A):
        assert row == tuple(ref.A[s, :s].tolist()), s
        assert not ref.A[s, s:].any()
    assert _dop853.B == tuple(ref.A[n, :n].tolist())
    assert _dop853.E3 == tuple(ref.E3.tolist())
    assert _dop853.E5 == tuple(ref.E5.tolist())
    assert _dop853.D == tuple(map(tuple, ref.D.tolist()))
    # The nodes are left out; the rows of A reproduce them.
    for s, row in enumerate(_dop853.A):
        assert math.fsum(row) == pytest.approx(ref.C[s], abs=1e-14), s


def test_dense_output_is_accurate_between_steps():
    t_end = 10.0
    sol = _dop853.solve(smooth(oscillator), (1.0, 0.0, 0.0, 1.0), t_end,
                        1e-12, 1e-14, 100_000)
    assert sol.failure is None
    assert sol.t[-1] == t_end
    assert 0 < len(sol.t) - 1 < 200
    tau = np.linspace(0.0, t_end, 1001)
    y = sol.dense(tau)
    exact = np.column_stack([np.cos(tau), np.sin(tau), -np.sin(tau),
                             np.cos(tau)])
    np.testing.assert_allclose(y, exact, rtol=0.0, atol=1e-10)
    # At the accepted times the interpolant returns the step's states.
    ts = np.array(sol.t)
    np.testing.assert_allclose(sol.dense(ts),
                               np.array(sol.y).reshape(-1, 4),
                               rtol=0.0, atol=1e-15)
    # A switched field: steps end on x1 = 0, where the stiffness changes,
    # and the samples inside those steps, built with their own region's
    # field, hold the exact solution too.
    sol = _dop853.solve(SWITCHED, (-1.0, 0.0, 0.0, 1.0), t_end, 1e-12,
                        1e-14, 100_000)
    assert sol.failure is None and sol.t[-1] == t_end
    ts = np.array(sol.t)
    ys = np.array(sol.y).reshape(-1, 4)
    ends = np.flatnonzero(np.diff(np.array(sol.region)))
    np.testing.assert_allclose(ts[ends + 1],
                               np.array([0.5, 1.0, 2.0, 2.5]) * np.pi,
                               rtol=0.0, atol=1e-12)
    assert np.all(np.abs(ys[ends + 1, 0]) <= 1e-15)
    inside = np.concatenate([tau, 0.5 * (ts[ends] + ts[ends + 1]),
                             0.1 * ts[ends] + 0.9 * ts[ends + 1]])
    np.testing.assert_allclose(sol.dense(inside), switched_exact(inside),
                               rtol=0.0, atol=1e-10)


def test_dense_extends_only_the_sampled_steps():
    # Sampling builds the interpolant's three extra stages for the steps
    # that hold a sample time and for no other, and counts no field call
    # of its own in nfev.
    calls = []

    def counted(*y):
        calls.append(y)
        return oscillator(*y)

    sol = _dop853.solve(smooth(counted), (1.0, 0.0, 0.0, 1.0), 10.0, 1e-10,
                        1e-12, 100_000)
    assert sol.failure is None and len(calls) == sol.nfev
    nfev = sol.nfev
    t = sol.t
    assert len(t) - 1 > 8
    # Two times inside step 5, one inside step 2, the start (step 0) and
    # the boundary t[8], which belongs to the earlier step 7.
    tau = [0.5 * (t[5] + t[6]), 0.25 * (3.0 * t[5] + t[6]),
           0.5 * (t[2] + t[3]), 0.0, t[8]]
    del calls[:]
    sol.dense(tau)
    assert len(calls) == 3 * len({5, 2, 0, 7})
    assert sol.nfev == nfev


def test_budget_stops_before_it_is_exceeded():
    sol = _dop853.solve(smooth(oscillator), (1.0, 0.0, 0.0, 1.0), 1e3,
                        1e-12, 1e-14, 500)
    assert sol.failure.startswith("budget of 500 ")
    assert sol.nfev <= 500 < sol.nfev + _dop853.N_STAGES
    assert 0.0 < sol.t[-1] < 1e3


@pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError])
def test_float_arithmetic_errors_end_the_run(exc):
    def fun(x1, x2, v1, v2):
        if x1 > 0.5:
            raise exc("boom")
        return oscillator(x1, x2, v1, v2)

    sol = _dop853.solve(smooth(fun), (0.0, 0.0, 1.0, 0.0), 2.0, 1e-10,
                        1e-12, 100_000)
    assert sol.failure == "float arithmetic failed (boom)"
    assert 0.0 < sol.t[-1] < 0.6


def test_non_finite_state_ends_the_run():
    # y' = y^2 from 1 blows up at t = 1; the run must stop, not return inf.
    # The steps shrink towards the pole until they fall below resolution.
    def fun(x1, x2, v1, v2):
        return x1 * x1, 0.0, 0.0, 0.0

    sol = _dop853.solve(smooth(fun), (1.0, 0.0, 0.0, 0.0), 2.0, 1e-8,
                        1e-10, 300_000)
    assert sol.failure == "step size fell below ten float spacings"
    assert all(map(math.isfinite, sol.y))
    assert sol.t[-1] == pytest.approx(1.0000000026, abs=1e-10)


def test_overflowing_state_ends_the_run():
    # A slope of 1e300 from 1.7e308 passes the largest float at t ~ 9.7e6;
    # the step that crosses it is accepted (its error is zero) and its
    # infinite state must end the run without being stored.
    def fun(x1, x2, v1, v2):
        return 1e300, 0.0, 0.0, 0.0

    sol = _dop853.solve(smooth(fun), (1.7e308, 0.0, 0.0, 0.0), 1e8, 1e-8,
                        1e-10, 300_000)
    assert sol.failure == "state is not finite"
    assert all(map(math.isfinite, sol.y))
    assert sol.t[-1] == pytest.approx(7.28e6, rel=1e-3)


def test_zero_error_grows_the_step_tenfold():
    # In the zero field every error norm is 0: each step is the largest
    # growth, MAX_FACTOR, times the last, from the initial 1e-6.
    def fun(x1, x2, v1, v2):
        return 0.0, 0.0, 0.0, 0.0

    sol = _dop853.solve(smooth(fun), (1.0, 0.0, 0.0, 0.0), 1e3, 1e-8,
                        1e-10, 300_000)
    assert sol.failure is None and sol.t[-1] == 1e3
    steps = np.diff(sol.t)
    assert len(steps) == 10
    np.testing.assert_allclose(steps[:-1], 1e-6 * 10.0 ** np.arange(9),
                               rtol=1e-9)
    assert sol.nfev == 2 + 10 * _dop853.N_STAGES == 122


SCIPY_CASES = [(2.0, k, th) for k in (100.0, 400.0)
               for th in (math.pi / 3.0, 2.0 * math.pi / 3.0)] + [
    (1.6, 900.0, 0.7), (2.8, 300.0, 2.5)]


@pytest.mark.parametrize("alpha, k, theta_bar", SCIPY_CASES)
def test_oracle_matches_scipy_dop853(alpha, k, theta_bar):
    # Same method, same controller, independent code.  Step counts are not
    # compared: the oracle ends its steps on the field's region switches,
    # and solve_ivp steps across them.
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    cone = ConeGeometry(theta_bar)
    two_alpha = 2.0 * alpha
    sk = math.sqrt(k)

    def rhs(tau, y):
        x1, x2, v1, v2 = y.tolist()
        w1, w2, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
        return v1, v2, -two_alpha * g1 - w1, -two_alpha * g2 - w2

    y0 = [0.0, UNIT.s0, UNIT.dr0 / sk, UNIT.ds0 / sk]
    ref = solve_ivp(rhs, (0.0, 2.0 * sk), y0, method="DOP853", rtol=1e-11,
                    atol=1e-13, dense_output=True)
    assert ref.success
    grid = np.linspace(0.0, 2.0, 400)
    u_ref = ref.sol(grid * sk)[:2].T
    run = oracle_fast_time_integration(UNIT, characteristic_roots(alpha),
                                       cone, k, 2.0, rtol=1e-11, atol=1e-13)
    u = run.sample(grid)
    rel = (np.max(np.linalg.norm(u - u_ref, axis=1))
           / np.max(np.linalg.norm(u_ref, axis=1)))
    assert rel <= 1e-9


# Recorded when steps began to end on the field's switches (criterion-10
# data, alpha = 2, rtol 1e-11): nfev, accepted steps and OracleRun.sample
# at t = 0.5, 1, 1.25, 2, flattened.
PINS = {
    ("acute", 100.0): ("1276", "95", [
        "0.007560753608526042", "-0.49999999999999956",
        "0.0019802536385631563", "7.539108226595205e-16",
        "-0.10497050012040642", "0.07671560971928851",
        "-0.45137875695632507", "0.2627635041361742"]),
    ("acute", 1e3): ("1900", "130", [
        "0.0001319642255662259", "-0.4999999999999996",
        "1.907669123273451e-06", "4.28570002266096e-16",
        "-0.10779285078319623", "0.06333210663083949",
        "-0.4330764449935124", "0.2500387102933135"]),
    ("obtuse", 100.0): ("1468", "112", [
        "0.007560753608526042", "-0.49999999999999956",
        "0.0019802536385631563", "7.539108226595205e-16",
        "-0.016047808453134294", "0.0107097773686376",
        "-0.06712491064168162", "-0.0360755666796964"]),
    ("obtuse", 1e3): ("2200", "167", [
        "0.0001319642255662259", "-0.4999999999999996",
        "1.907669123273451e-06", "4.28570002266096e-16",
        "-0.00010276964128207164", "0.001093735320795319",
        "-0.002283370287230482", "-0.0013160542833120078"]),
}


@pytest.mark.parametrize("corner, k", list(PINS))
def test_oracle_bitwise_pin(corner, k):
    theta_bar = math.pi / 3.0 if corner == "acute" else 2.0 * math.pi / 3.0
    run = oracle_fast_time_integration(
        UNIT, characteristic_roots(2.0), ConeGeometry(theta_bar), k, 2.0,
        rtol=1e-11, atol=1e-13)
    u = run.sample(np.array([0.5, 1.0, 1.25, 2.0]))
    assert (repr(run.solution.nfev), repr(len(run.solution.t) - 1),
            [repr(x) for x in u.ravel().tolist()]) == PINS[corner, k]


def reference_stages(fun, y, h, K, rows):
    """The loop the flat bodies replace: append the stages of ``rows`` of A
    to the per-component lists K, each stage sum a ``sum(map(mul, ...))``
    over the full row; returns the state of the last stage."""
    for a in rows:
        z = [yc + sum(map(mul, a, Kc)) * h for yc, Kc in zip(y, K)]
        for Kc, kc in zip(K, fun(*z)):
            Kc.append(kc)
    return z


def bits(xs):
    return [float.hex(x) for x in xs]


def step_cases():
    """(fun, y, h): seeded penalty-field states, and free flight from
    signed zeros, where every force stage is -0.0."""
    rng = random.Random(2023)
    cases = []
    for _ in range(24):
        cone = ConeGeometry(rng.uniform(0.3, 2.9))
        two_alpha = rng.uniform(2.2, 6.0)

        def fun(x1, x2, v1, v2, cone=cone, two_alpha=two_alpha):
            w1, w2, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
            return v1, v2, -two_alpha * g1 - w1, -two_alpha * g2 - w2

        y = [rng.uniform(-1.0, 1.0) for _ in range(2)] + \
            [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 1)
             for _ in range(2)]
        cases.append(pytest.param(fun, y, 10.0 ** rng.uniform(-4.0, 0.0),
                                  id=f"seeded-{len(cases)}"))
    free = cases[0].values[0]
    cases.append(pytest.param(free, [-0.0, -0.5, -0.0, -0.0], 0.25,
                              id="free-flight-negative-zeros"))
    cases.append(pytest.param(free, [-0.0, -0.5, 0.0, -0.0], 0.25,
                              id="free-flight-mixed-zeros"))
    return cases


def reference_norm(y, new, h, ref, rtol, atol):
    """The E5/E3 error norm of a step from y to ``new``, from the E5 and E3
    sums of its stages ``ref``, with the float operations of the stepping
    loop's former hand-written form."""
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, new)]
    sums = []
    for E in (_dop853.E5, _dop853.E3):
        e = [sum(map(mul, E, Kc)) / s for Kc, s in zip(ref, scale)]
        sums.append(e[0] * e[0] + e[1] * e[1] + e[2] * e[2] + e[3] * e[3])
    err5, err3 = sums
    if err5 == 0.0 and err3 == 0.0:
        return 0.0
    return h * err5 / math.sqrt((err5 + 0.01 * err3) * 4.0)


@pytest.mark.parametrize("fun, y, h", step_cases())
def test_flat_step_matches_the_reference_loop(fun, y, h):
    # Three steps of the case, each checked alone, then stacked as the rows
    # of one call of the interpolant's array body.  The free-flight cases
    # have zero E5 and E3 sums, so a zero norm.
    n = _dop853.N_STAGES + 1
    rtol, atol = 1e-10, 1e-12
    starts, sizes, stages, refs = [], [], [], []
    y_row = y
    for h_row in (h, 0.5 * h, 2.0 * h):
        f = fun(*y_row)
        n1, n2, n3, n4, err, K = _dop853._trial(fun, *y_row, h_row, *f,
                                                rtol, atol)
        ref = [[fc] for fc in f]
        new = reference_stages(fun, y_row, h_row, ref, _dop853.A[1:n])
        assert bits((n1, n2, n3, n4)) == bits(new)
        assert float.hex(err) == float.hex(
            reference_norm(y_row, new, h_row, ref, rtol, atol))
        assert bits(K) == bits(sum(ref, []))
        reference_stages(fun, y_row, h_row, ref, _dop853.A[n:])
        starts.append(y_row)
        sizes.append(h_row)
        stages.append(K)
        refs.append(ref)
        y_row = [n1, n2, n3, n4]
    # The interpolant's three stages of all rows at once, from the stages
    # laid out as Solution.dense reads them: (stage, row, component).
    K = np.array(stages).reshape(-1, 4, n).transpose(2, 0, 1)
    extra = _dop853._extra_many([fun] * len(starts), np.array(starts),
                                np.array(sizes)[:, None], K)
    assert [k.shape for k in extra] == [(len(refs), 4)] * 3
    for s, k in enumerate(extra, n):
        for row, ref in zip(k.tolist(), refs):
            assert bits(row) == bits([Kc[s] for Kc in ref])


# An oracle_check draw (seed 509) where a step across the switch
# at tau ~ 12 put the oracle 6e-8 off, with its E5/E3 estimate blind to it.
# (alpha, k, theta_bar)
STRADDLED = (2.203125, 143.30125702369637, 0.584375)
SWITCH_CASES = [(2.0, k, th) for k in (100.0, 400.0)
                for th in (math.pi / 3.0, 2.0 * math.pi / 3.0)] + [STRADDLED]


@pytest.mark.parametrize("alpha, k, theta_bar", SWITCH_CASES)
def test_each_step_ends_inside_its_region_or_on_its_switch(alpha, k,
                                                           theta_bar):
    # Where the next step takes another region, the step ends on the line
    # between them: its form is within four spacings of the position, or
    # within the change of the form over one spacing of t.  Elsewhere the
    # step ends inside its region, and a run crosses at least R1 -> R2 ->
    # R3.
    run = oracle_fast_time_integration(UNIT, characteristic_roots(alpha),
                                       ConeGeometry(theta_bar), k, 2.0,
                                       rtol=1e-11, atol=1e-13)
    sol = run.solution
    eps = np.finfo(float).eps
    regions = list(sol.region)
    assert regions[0] == 1 and {1, 2, 3} <= set(regions)
    for i, region in enumerate(regions):
        x1, x2, v1, v2 = sol.y[4 * i + 4:4 * i + 8]
        beyond = regions[i + 1] if i + 1 < len(regions) else region
        for p, q, j in sol.regions[region][1]:
            g = p * x1 + q * x2
            if j != beyond:
                assert g <= 0.0, (i, region, j)
                continue
            t = sol.t[i + 1]
            tol = (4.0 * eps * (abs(x1) + abs(x2))
                   + abs(p * v1 + q * v2) * (math.nextafter(t, 4.0 * t) - t))
            assert abs(g) <= tol, (i, region, j, g / tol)


def test_oracle_step_across_a_switch_is_not_missed():
    # Stepping straight across the switch, the oracle at rtol
    # 1e-11 ended 6.1e-8 off the rtol-1e-13 pipeline (7.3e-8 in norm);
    # ending its steps on the switches brings it to 1.9e-10.
    alpha, k, theta_bar = STRADDLED
    grid = np.linspace(0.0, 2.0, 400)
    config = SimConfig().override(mode="physical", alpha=alpha, k=k, T=2.0,
                                  theta_bar=theta_bar, rtol=1e-13)
    u_pipe = simulate_full(config, t_eval=grid).positions_at(grid)
    run = oracle_fast_time_integration(UNIT, characteristic_roots(alpha),
                                       ConeGeometry(theta_bar), k, 2.0,
                                       rtol=1e-11, atol=1e-13)
    assert np.max(np.linalg.norm(run.sample(grid) - u_pipe, axis=1)) <= 1e-9
