"""Characteristic roots, fundamental kernels and linear-phase closed forms.

The kernel implementation uses an expm1 rearrangement; the reference route
here evaluates the textbook two-exponential formulas directly, so the two
must agree wherever the naive forms do not cancel.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cornerimpact import (
    InitialData,
    InvalidInput,
    NoCrossing,
    NotOverDamped,
    OutOfPhase,
    characteristic_roots,
    face_phase_state,
    first_crossing_time,
    kernel_K2_dot,
    kernels_K2_H2,
    r1_phase_state,
)

ALPHAS = [1.05, 1.25, 2.0, 5.0]


def naive_kernels(damping, tau):
    sd = damping.sqrt_delta
    e1 = math.exp(damping.xi1 * tau)
    e2 = math.exp(damping.xi2 * tau)
    K2 = (e1 - e2) / (2.0 * sd)
    H2 = (-damping.xi2 * e1 + damping.xi1 * e2) / (2.0 * sd)
    K2d = (damping.xi1 * e1 - damping.xi2 * e2) / (2.0 * sd)
    return K2, H2, K2d


@pytest.mark.parametrize("alpha", ALPHAS)
def test_root_identities(alpha):
    d = characteristic_roots(alpha)
    assert d.xi1 * d.xi2 == pytest.approx(1.0, rel=1e-14)
    assert d.xi1 + d.xi2 == pytest.approx(-2.0 * alpha, rel=1e-15)
    assert d.delta == pytest.approx(alpha * alpha - 1.0, rel=1e-15)
    assert -1.0 < d.xi1 < 0.0 and d.xi2 < -1.0


@pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1.0 + 1e-8, 1.0001, 1.05,
                                   2.0, 30.0, 1e4, 1e8])
def test_roots_match_high_precision(alpha):
    # D = (alpha - 1)(alpha + 1) and xi1 = 1 / xi2 keep every quantity at
    # round-off, both near critical damping and at large alpha, against
    # 40-digit roots of the same double alpha.
    mp = pytest.importorskip("mpmath")
    d = characteristic_roots(alpha)
    with mp.workdps(40):
        a = mp.mpf(alpha)
        delta = (a - 1) * (a + 1)
        sd = mp.sqrt(delta)
        ref = {"delta": delta, "sqrt_delta": sd, "xi1": -a + sd,
               "xi2": -a - sd}
        err = {name: float(abs(mp.mpf(getattr(d, name)) / val - 1))
               for name, val in ref.items()}
    assert max(err.values()) <= 1e-15, err


@pytest.mark.parametrize("alpha", [1.0, 0.5, -3.0, math.nan])
def test_subcritical_damping_rejected(alpha):
    with pytest.raises(NotOverDamped):
        characteristic_roots(alpha)


def test_kernel_frozen_values():
    # Oracle: naive formulas at alpha = 1.25, tau = 1.
    d = characteristic_roots(1.25)
    K2, H2 = kernels_K2_H2(d, 1.0)
    assert K2 == pytest.approx(0.31413025098401381, rel=1e-14)
    assert H2 == pytest.approx(0.76359578520464033, rel=1e-14)
    assert kernel_K2_dot(d, 1.0) == pytest.approx(-0.021729842255394205,
                                                  rel=1e-11)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("tau", [0.05, 0.5, 1.0, 3.0, 10.0])
def test_kernels_match_naive_route(alpha, tau):
    d = characteristic_roots(alpha)
    K2, H2 = kernels_K2_H2(d, tau)
    K2n, H2n, K2dn = naive_kernels(d, tau)
    assert K2 == pytest.approx(K2n, rel=1e-13, abs=1e-300)
    assert H2 == pytest.approx(H2n, rel=1e-13, abs=1e-300)
    assert kernel_K2_dot(d, tau) == pytest.approx(K2dn, rel=1e-10,
                                                  abs=1e-16)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_initial_conditions(alpha):
    d = characteristic_roots(alpha)
    K2, H2 = kernels_K2_H2(d, 0.0)
    assert K2 == 0.0
    assert H2 == pytest.approx(1.0, rel=1e-15)
    assert kernel_K2_dot(d, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_kernels_small_tau_no_cancellation():
    d = characteristic_roots(2.0)
    tau = 1e-12
    K2, _ = kernels_K2_H2(d, tau)
    # K2 ~ tau to first order; the naive difference would lose digits.
    assert K2 == pytest.approx(tau, rel=1e-10)


def test_kernels_large_tau_no_overflow():
    d = characteristic_roots(5.0)
    with np.errstate(over="raise"):
        K2, H2 = kernels_K2_H2(d, 1e4)
    assert 0.0 <= K2 < 1e-300 and 0.0 <= H2 < 1e-300


def test_kernels_near_critical_damping_match_high_precision():
    # At alpha = 1 + 1e-8 the textbook forms cancel to ~1e-13; the
    # propagator forms stay at a few ulps against 40-digit exponentials
    # with the exact roots of the same alpha.
    mp = pytest.importorskip("mpmath")
    alpha = 1.0 + 1e-8
    d = characteristic_roots(alpha)
    tau = np.geomspace(1e-6, 50.0, 200)
    K2, H2 = kernels_K2_H2(d, tau)
    K2d = kernel_K2_dot(d, tau)
    err = np.empty((tau.size, 3))
    with mp.workdps(40):
        a = mp.mpf(alpha)
        sd = mp.sqrt(a * a - 1)
        x1, x2 = -a + sd, -a - sd
        for j, t in enumerate(tau):
            e1, e2 = mp.exp(x1 * mp.mpf(t)), mp.exp(x2 * mp.mpf(t))
            ref_K2d = (x1 * e1 - x2 * e2) / (2 * sd)
            err[j] = (abs(H2[j] / ((-x2 * e1 + x1 * e2) / (2 * sd)) - 1),
                      abs(K2[j] / ((e1 - e2) / (2 * sd)) - 1),
                      # K2' changes sign near tau = 1: relative to its
                      # envelope.
                      abs(K2d[j] - ref_K2d) / max(abs(ref_K2d), e1))
    worst = np.max(err, axis=0)     # H2, K2, K2'
    assert np.all(worst <= 1e-13), worst


def test_kernels_zero_extension():
    d = characteristic_roots(2.0)
    tau = np.array([-2.0, -1e-9, 0.0, 0.5])
    K2, H2 = kernels_K2_H2(d, tau)
    np.testing.assert_array_equal(K2[:2], 0.0)
    np.testing.assert_array_equal(H2[:2], 0.0)
    assert K2[3] > 0.0 and H2[3] > 0.0
    np.testing.assert_array_equal(np.asarray(kernel_K2_dot(d, tau))[:2], 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_ode_residual(alpha):
    # x'' + 2 alpha x' + x = 0 via 5-point finite differences.
    d = characteristic_roots(alpha)
    h = 1e-3
    for tau in np.linspace(0.1, 4.0, 25):
        stencil = tau + h * np.arange(-2.0, 3.0)
        for x in kernels_K2_H2(d, stencil):
            x1 = (x[0] - 8 * x[1] + 8 * x[3] - x[4]) / (12 * h)
            x2 = (-x[0] + 16 * x[1] - 30 * x[2] + 16 * x[3] - x[4]) \
                / (12 * h * h)
            res = x2 + 2.0 * alpha * x1 + x[2]
            scale = abs(x2) + 2.0 * alpha * abs(x1) + abs(x[2]) + 1e-30
            assert abs(res) / scale < 1e-8


def test_H2_derivative_is_minus_K2():
    d = characteristic_roots(2.0)
    h = 1e-4
    for tau in np.linspace(0.1, 2.0, 9):
        stencil = tau + h * np.arange(-2.0, 3.0)
        _, H2 = kernels_K2_H2(d, stencil)
        dH2 = (H2[0] - 8 * H2[1] + 8 * H2[3] - H2[4]) / (12 * h)
        K2_mid, _ = kernels_K2_H2(d, tau)
        assert dH2 == pytest.approx(-K2_mid, rel=1e-9, abs=1e-12)


def test_initial_data_validation():
    InitialData(-1.0, 1.0, 1.0)
    with pytest.raises(InvalidInput):
        InitialData(s0=0.0)
    with pytest.raises(InvalidInput):
        InitialData(s0=1.0)
    with pytest.raises(InvalidInput):
        InitialData(dr0=0.0)
    with pytest.raises(InvalidInput):
        InitialData(ds0=-1.0)
    with pytest.raises(InvalidInput):
        InitialData(s0=-math.inf)


def test_first_crossing_time():
    assert first_crossing_time(InitialData(-1.0, 1.0, 1.0)) == 1.0
    assert first_crossing_time(InitialData(-3.0, 2.0, 0.5)) == 6.0
    with pytest.raises(NoCrossing):
        first_crossing_time(SimpleNamespace(s0=-1.0, ds0=-2.0))
    with pytest.raises(NoCrossing):
        first_crossing_time(SimpleNamespace(s0=-1.0, ds0=0.0))


def test_r1_phase_frozen_value():
    # Oracle: r(t0) = dr0 K2(t0 sqrt k)/sqrt k from the naive formulas,
    # k = 100, alpha = 2, unit data.
    init = InitialData(-1.0, 1.0, 1.0)
    d = characteristic_roots(2.0)
    r, rdot, s, sdot = r1_phase_state(init, d, 100.0, 1.0)
    assert r == pytest.approx(0.0019802536385555066, rel=1e-14)
    assert rdot == pytest.approx(-0.0053060736325973423, rel=1e-12)
    assert s == pytest.approx(0.0, abs=1e-15)
    assert sdot == 1.0


def test_r1_phase_start_and_slide():
    init = InitialData(-2.0, 0.7, 0.5)
    d = characteristic_roots(1.5)
    t = np.linspace(0.0, 4.0, 9)
    r, rdot, s, sdot = r1_phase_state(init, d, 50.0, t)
    assert r[0] == 0.0
    assert rdot[0] == pytest.approx(0.7, rel=1e-15)
    np.testing.assert_allclose(s, -2.0 + 0.5 * t, rtol=1e-15)
    np.testing.assert_array_equal(sdot, 0.5)
    assert np.all(r >= 0.0)        # over-damped: no oscillation through 0


def test_r1_phase_domain_checks():
    init = InitialData(-1.0, 1.0, 1.0)
    d = characteristic_roots(2.0)
    with pytest.raises(OutOfPhase):
        r1_phase_state(init, d, 100.0, 1.5)
    with pytest.raises(OutOfPhase):
        r1_phase_state(init, d, 100.0, -0.1)
    with pytest.raises(InvalidInput):
        r1_phase_state(init, d, -100.0, 0.5)


def test_face_phase_initial_state():
    d = characteristic_roots(2.0)
    y1, y1d, y2, y2d = face_phase_state(0.3, -0.2, 0.5, d, 400.0, 0.0)
    assert y1 == pytest.approx(0.3, rel=1e-15)
    assert y1d == pytest.approx(-0.2, rel=1e-15)
    assert y2 == 0.0
    assert y2d == 0.5


def test_face_phase_matches_r1_form():
    # With y1_0 = 0 the normal coordinate is the same kernel solution as
    # the face-1 rebound.
    init = InitialData(-1.0, 0.9, 1.0)
    d = characteristic_roots(1.7)
    t = np.linspace(0.0, 0.8, 7)
    r, rdot, _, _ = r1_phase_state(init, d, 64.0, t)
    y1, y1d, _, _ = face_phase_state(0.0, 0.9, 0.1, d, 64.0, t)
    np.testing.assert_allclose(y1, r, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(y1d, rdot, rtol=1e-15, atol=0.0)


def test_face_phase_ode_residual():
    # y1'' + 2 alpha sqrt(k) y1' + k y1 = 0 in physical time.
    d = characteristic_roots(2.0)
    k = 100.0
    sk = math.sqrt(k)
    h = 2e-3 / sk
    for tp in np.linspace(0.05, 0.5, 8):
        stencil = tp + h * np.arange(-2.0, 3.0)
        y1, _, _, _ = face_phase_state(0.2, -0.1, 0.3, d, k, stencil)
        d1 = (y1[0] - 8 * y1[1] + 8 * y1[3] - y1[4]) / (12 * h)
        d2 = (-y1[0] + 16 * y1[1] - 30 * y1[2] + 16 * y1[3] - y1[4]) \
            / (12 * h * h)
        res = d2 + 2.0 * d.alpha * sk * d1 + k * y1[2]
        scale = abs(d2) + 2.0 * d.alpha * sk * abs(d1) + k * abs(y1[2])
        assert abs(res) / (scale + 1e-30) < 1e-8


def test_face_phase_validation():
    d = characteristic_roots(2.0)
    with pytest.raises(InvalidInput):
        face_phase_state(-0.1, 0.0, 0.5, d, 100.0, 0.1)
    with pytest.raises(InvalidInput, match="y1_0"):
        face_phase_state(math.nan, 0.0, 0.5, d, 100.0, 0.1)
    with pytest.raises(OutOfPhase):
        face_phase_state(0.1, 0.0, 0.5, d, 100.0, -0.1)
    with pytest.raises(InvalidInput):
        face_phase_state(0.1, 0.0, 0.5, d, 0.0, 0.1)
