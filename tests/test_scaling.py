"""Corner-layer scaling: derived quantities and the two construction routes."""
import math
import re

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    InvalidInput,
    ScaleUnderflow,
    characteristic_roots,
    integrate_corner,
    scaled_params_direct,
    scaled_params_from_physical,
)

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)


def test_physical_frozen_values():
    # Oracle: direct evaluation of the defining formulas at k = 100,
    # alpha = 2, unit data (eta = exp(xi1 * 10 / 2) etc.).
    p = scaled_params_from_physical(UNIT, DAMP2, 100.0)
    assert p.eta == pytest.approx(0.26191219573938418, rel=1e-14)
    assert p.eps == pytest.approx(9.0281307044652487e-16, rel=1e-12)
    assert p.E == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert p.R0 == pytest.approx(0.075607538357089651, rel=1e-13)
    assert p.dR0 == pytest.approx(-0.020258978844487074, rel=1e-13)
    assert p.W == pytest.approx(14.578095272968342, rel=1e-13)
    assert p.tau0 == pytest.approx(0.00010507075796796726, rel=1e-12)
    assert p.kappa == pytest.approx(0.019801978872376638, rel=1e-13)
    assert p.k == 100.0
    assert p.Gamma == pytest.approx(0.0019802536385555057, rel=1e-13)


@pytest.mark.parametrize("alpha,k", [(1.2, 50.0), (2.0, 100.0), (3.0, 1e4)])
def test_derived_identities(alpha, k):
    damping = characteristic_roots(alpha)
    init = InitialData(-0.8, 1.3, 0.6)
    p = scaled_params_from_physical(init, damping, k)
    assert p.W == pytest.approx(p.dR0 ** 2 + p.E / p.R0 ** 2, rel=1e-15)
    assert p.tau0 == pytest.approx(-p.dR0 * p.R0 / p.W, rel=1e-15)
    assert p.kappa == pytest.approx(math.sqrt(p.E) / p.W, rel=1e-15)
    assert p.momentum == pytest.approx(math.sqrt(p.E) * (1.0 - p.eps),
                                       rel=1e-15)
    assert p.E == pytest.approx(
        (init.dr0 * init.ds0) ** 2 / (4.0 * damping.delta), rel=1e-15)
    # Gamma sqrt(k) = eta^2 (1 - eps) sqrt(E)
    assert p.Gamma * math.sqrt(k) == pytest.approx(
        p.eta ** 2 * (1.0 - p.eps) * math.sqrt(p.E), rel=1e-14)


def test_gamma_matches_linear_phase_exit():
    # Gamma equals r(t0) * ds0: the slide speed times the penetration depth
    # at the crossing, i.e. the conserved angular momentum seed.
    from cornerimpact import r1_phase_state

    p = scaled_params_from_physical(UNIT, DAMP2, 100.0)
    r_t0 = r1_phase_state(UNIT, DAMP2, 100.0, 1.0)[0]
    assert p.Gamma == pytest.approx(r_t0 * UNIT.ds0, rel=1e-13)


def test_direct_matches_physical():
    phys = scaled_params_from_physical(UNIT, DAMP2, 100.0)
    direct = scaled_params_direct(phys.eta, phys.eps, UNIT, DAMP2)
    for name in ("eta", "eps", "E", "R0", "dR0", "W", "tau0", "kappa"):
        assert getattr(direct, name) == getattr(phys, name), name
    assert direct.k is None and direct.Gamma is None


def test_eps_policies():
    # "derive" uses eps = eta^{2(xi2-xi1)/xi1} = eta^{4 sqrt(D)/|xi1|}.
    exponent = 4.0 * DAMP2.sqrt_delta / abs(DAMP2.xi1)
    assert exponent == pytest.approx(25.856406460551007, rel=1e-13)
    eta = 0.3
    p = scaled_params_direct(eta, "derive", UNIT, DAMP2)
    assert p.eps == pytest.approx(eta ** exponent, rel=1e-12)
    assert scaled_params_direct(eta, "zero", UNIT, DAMP2).eps == 0.0
    assert scaled_params_direct(eta, 0.25, UNIT, DAMP2).eps == 0.25
    with pytest.raises(InvalidInput):
        scaled_params_direct(eta, "smallest", UNIT, DAMP2)
    with pytest.raises(InvalidInput):
        scaled_params_direct(eta, 1.0, UNIT, DAMP2)
    # The words are exact, as in a config file: " Zero " is not 'zero'.
    with pytest.raises(InvalidInput, match="eps must be 'derive', 'zero'"):
        scaled_params_direct(eta, " Zero ", UNIT, DAMP2)


@pytest.mark.parametrize("alpha,k,name", [
    (2.0, 1e-40, "R0"),         # 1 - eps rounds to 0
    (2.0, 5e-324, "R0"),
    (1e140, 100.0, "R0^3"),     # R0 ~ 1/alpha, R0^3 underflows
])
def test_unrepresentable_corner_constant_is_named(alpha, k, name):
    # Each used to be a bare ZeroDivisionError.
    damping = characteristic_roots(alpha)
    with pytest.raises(ScaleUnderflow,
                       match=re.escape(f"constant {name} = 0.0 is zero")):
        scaled_params_from_physical(UNIT, damping, k)


def test_direct_kappa_underflow_is_named():
    # E = dr0^2 ds0^2 / (4 D) underflows to 0 once 4 D overflows.
    damping = characteristic_roots(1e154)
    with pytest.raises(ScaleUnderflow, match="constant"):
        scaled_params_direct(0.01, "derive", UNIT, damping)


def test_numpy_scalar_eta_is_stored_as_float():
    # The corner kernel runs about twice as slow on numpy scalars.
    p = scaled_params_direct(np.float64(1e-3), "derive", UNIT, DAMP2)
    assert type(p.eta) is float and type(p.eps) is float
    res = integrate_corner(p, ConeGeometry(math.pi / 3.0))
    assert type(res.exit_tau) is float


def test_derive_policy_consistency_with_physical():
    # For data with a physical origin, the derive policy reproduces the
    # physical eps from eta alone.
    phys = scaled_params_from_physical(UNIT, DAMP2, 400.0)
    direct = scaled_params_direct(phys.eta, "derive", UNIT, DAMP2)
    assert direct.eps == pytest.approx(phys.eps, rel=1e-10)


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_direct_eta_bounds(eta):
    with pytest.raises(InvalidInput):
        scaled_params_direct(eta, "zero", UNIT, DAMP2)


def test_scale_underflow_guard():
    # k = 4e6 pushes xi1 t0 sqrt(k) ~ -536 past the representable range.
    with pytest.raises(ScaleUnderflow, match="scale-free"):
        scaled_params_from_physical(UNIT, DAMP2, 4e6)
    # k = 1e6 (exponent ~ -268) still works.
    p = scaled_params_from_physical(UNIT, DAMP2, 1e6)
    assert 0.0 < p.eta < 1e-50
    assert np.isfinite(p.W) and np.isfinite(p.tau0)


def test_invalid_stiffness():
    with pytest.raises(InvalidInput):
        scaled_params_from_physical(UNIT, DAMP2, 0.0)
    with pytest.raises(InvalidInput):
        scaled_params_from_physical(UNIT, DAMP2, math.inf)


def test_small_eta_asymptotics():
    # W eta^2 -> 1/(1-eps)^2 ~ 1 and tau0/eta^4 stays bounded for unit
    # data: the corner quantities live on known eta powers.
    for eta in (1e-2, 1e-3, 1e-4):
        p = scaled_params_direct(eta, "derive", UNIT, DAMP2)
        assert p.W * eta * eta == pytest.approx(1.0, rel=1e-3)
        assert p.tau0 == pytest.approx(
            abs(DAMP2.xi1) * eta ** 4 / (4.0 * DAMP2.delta), rel=1e-2)
        assert p.kappa == pytest.approx(math.sqrt(p.E) * eta * eta,
                                        rel=1e-3)
