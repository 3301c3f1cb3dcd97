"""The oracle's scalar DOP853: tableau, accuracy, failures, scipy parity."""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    characteristic_roots,
    oracle_fast_time_integration,
    penalty_field,
)
from cornerimpact import _dop853

UNIT = InitialData(-1.0, 1.0, 1.0)


def oscillator(x1, x2, v1, v2):
    """Two uncoupled unit springs: x_i'' = -x_i."""
    return v1, v2, -x1, -x2


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
    sol = _dop853.solve(oscillator, (1.0, 0.0, 0.0, 1.0), t_end, 1e-12,
                        1e-14, 100_000)
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


def test_budget_stops_before_it_is_exceeded():
    sol = _dop853.solve(oscillator, (1.0, 0.0, 0.0, 1.0), 1e3, 1e-12,
                        1e-14, 500)
    assert sol.failure.startswith("budget of 500 ")
    assert sol.nfev <= 500 < sol.nfev + _dop853.N_STAGES
    assert 0.0 < sol.t[-1] < 1e3


@pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError])
def test_float_arithmetic_errors_end_the_run(exc):
    def fun(x1, x2, v1, v2):
        if x1 > 0.5:
            raise exc("boom")
        return oscillator(x1, x2, v1, v2)

    sol = _dop853.solve(fun, (0.0, 0.0, 1.0, 0.0), 2.0, 1e-10, 1e-12,
                        100_000)
    assert sol.failure == "float arithmetic failed (boom)"
    assert 0.0 < sol.t[-1] < 0.6


def test_non_finite_state_ends_the_run():
    # y' = y^2 from 1 blows up at t = 1; the run must stop, not return inf.
    def fun(x1, x2, v1, v2):
        return x1 * x1, 0.0, 0.0, 0.0

    sol = _dop853.solve(fun, (1.0, 0.0, 0.0, 0.0), 2.0, 1e-8, 1e-10,
                        300_000)
    assert sol.failure is not None
    assert all(map(math.isfinite, sol.y))
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-6)


SCIPY_CASES = [(2.0, k, th) for k in (100.0, 400.0)
               for th in (math.pi / 3.0, 2.0 * math.pi / 3.0)] + [
    (1.6, 900.0, 0.7), (2.8, 300.0, 2.5)]


@pytest.mark.parametrize("alpha, k, theta_bar", SCIPY_CASES)
def test_oracle_matches_scipy_dop853(alpha, k, theta_bar):
    # Same method, same controller, independent code.  Step counts are not
    # compared: the field's C0 region switches make them vary by round-off.
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
