"""Seeded property tests: inputs across the domain fail only with named errors."""
import math

import numpy as np
import pytest

from cornerimpact import (
    CornerImpactError,
    InitialData,
    ScaleUnderflow,
    characteristic_roots,
    scaled_params_direct,
)
from cornerimpact.cli import main

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
# Scale factor floor shared by both parameter constructors: eta >= e^-175.
LOG_ETA_MIN = -175.0
# Physical stiffness at which eta = exp(xi1 t0 sqrt(k) / 2) reaches the
# floor, for the default data (t0 = 1, alpha = 2).
K_EDGE = (2.0 * LOG_ETA_MIN / DAMP2.xi1) ** 2


def _run(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    return code


def test_eta_draws_fail_only_with_named_errors(capsys):
    rng = np.random.default_rng(2024)
    for eta in 10.0 ** rng.uniform(-300.0, 0.0, 10):
        eta = float(eta)
        try:
            p = scaled_params_direct(eta, "derive", UNIT, DAMP2)
        except ScaleUnderflow:
            assert math.log(eta) < LOG_ETA_MIN
        except CornerImpactError:
            pass
        else:
            assert math.log(eta) >= LOG_ETA_MIN
            for value in (p.R0, p.dR0, p.W, p.tau0, p.kappa):
                assert math.isfinite(value)
        for cmd in ("asym-report", "phase-portrait"):
            assert _run([cmd, "--eta", repr(eta)], capsys) in {0, 2, 3}


def test_k_draws_fail_only_with_named_errors(capsys):
    rng = np.random.default_rng(2025)
    for k in np.exp(rng.uniform(0.0, math.log(1.5 * K_EDGE), 8)):
        assert _run(["simulate", "--k", repr(float(k))], capsys) in {0, 2, 3}


@pytest.mark.parametrize("cmd", ["asym-report", "phase-portrait"])
@pytest.mark.parametrize("eta", ["1e-150", "1e-300"])
def test_tiny_eta_reports_scale_underflow(cmd, eta, capsys):
    assert main([cmd, "--eta", eta]) == 2
    assert "leaves double range" in capsys.readouterr().err


def test_eta_near_one_is_invalid_for_the_report(capsys):
    # tau1 = eta^gamma1 would not precede tau3 = zeta ln(1/eta).
    assert main(["asym-report", "--eta", "0.9"]) == 2
    assert "tau1" in capsys.readouterr().err
