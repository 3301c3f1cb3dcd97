"""Seeded property tests: inputs across the domain fail only with named errors."""
import math
import time

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    CornerImpactError,
    InitialData,
    InvalidInput,
    ScaleUnderflow,
    characteristic_roots,
    integrate_corner,
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


def _fails_fast(call):
    start = time.perf_counter()
    result = call()
    assert time.perf_counter() - start < 1.0
    return result


@pytest.mark.parametrize("T", ["inf", "nan"])
def test_non_finite_horizon_is_invalid(T, capsys):
    # T = inf used to run and print inf/NaN times and positions.
    assert _fails_fast(lambda: main(["simulate", "--k", "100", "--T", T])) == 2
    assert "T must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rtol", "atol"])
def test_non_finite_tolerance_in_config_is_invalid(key, tmp_path, capsys):
    # rtol = inf used to run silently with a wrong exit time.
    path = tmp_path / "run.cfg"
    path.write_text(f"k = 100\n{key} = inf\n", encoding="utf-8")
    assert _fails_fast(lambda: main(["simulate", "--config", str(path)])) == 2
    assert f"line 2: {key} must be positive and finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_corner_horizon_is_invalid(horizon):
    # inf spun until the step budget ran out; NaN returned an empty run.
    p = scaled_params_direct(1e-2, "derive", UNIT, DAMP2)

    def run():
        with pytest.raises(InvalidInput, match="horizon"):
            integrate_corner(p, ConeGeometry(2.0), horizon=horizon,
                             stop_at_event=False)
    _fails_fast(run)


@pytest.mark.parametrize("tol", [{"rtol": math.inf}, {"atol": math.nan}])
def test_non_finite_corner_tolerance_is_invalid(tol):
    p = scaled_params_direct(1e-2, "derive", UNIT, DAMP2)
    with pytest.raises(InvalidInput, match="rtol and atol"):
        integrate_corner(p, ConeGeometry(2.0), **tol)


def test_infinite_stiffness_is_invalid(capsys):
    # k = inf used to pass the config check and fail later with
    # "stiffness k must be positive, got inf".
    assert _fails_fast(lambda: main(["simulate", "--k", "inf"])) == 2
    assert "k must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag,values", [
    ("asym-report", "--eta-list", "1e-2,nan"),
    ("converge", "--k-list", "1e2,nan"),
    ("converge", "--k-list", "1e2,inf"),
])
def test_non_finite_study_list_entry_is_invalid(cmd, flag, values, capsys):
    # NaN passed the comparison-only list checks and failed later with a
    # message that named a single value, not the list.
    assert _fails_fast(lambda: main([cmd, flag, values])) == 2
    name = flag[2:].replace("-", "_")
    assert f"{name} values must" in capsys.readouterr().err
