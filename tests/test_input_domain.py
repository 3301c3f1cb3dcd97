"""Seeded property tests: inputs across the domain fail only with named errors."""
import math
import re
import sys
import time

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    CornerImpactError,
    InitialData,
    InvalidInput,
    OutOfPhase,
    ScaleUnderflow,
    SimConfig,
    characteristic_roots,
    face_phase_state,
    integrate_corner,
    limit_trajectory,
    oracle_fast_time_integration,
    r1_phase_state,
    scaled_params_direct,
    second_asymptotic_R2,
    simulate_full,
)
from cornerimpact import linear_phase
from cornerimpact.cli import main

UNIT = InitialData(-1.0, 1.0, 1.0)
DAMP2 = characteristic_roots(2.0)
# Scale factor floor shared by both parameter constructors: eta >= e^-175.
LOG_ETA_MIN = -175.0
# Physical stiffness at which eta = exp(xi1 t0 sqrt(k) / 2) reaches the
# floor, for the default data (t0 = 1, alpha = 2).
K_EDGE = (2.0 * LOG_ETA_MIN / DAMP2.xi1) ** 2

# Each input's rule, as its one owner states it.
RULE = {
    "rtol": "rtol must be at least 2.22e-14 (100 eps) and finite",
    "atol": "atol must be positive and finite",
    "k_list": "k must be positive and finite",
    "eta_list": "eta must lie in (0, 1)",
}


def _run(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    return code


def _fails_fast(call):
    start = time.perf_counter()
    result = call()
    assert time.perf_counter() - start < 1.0
    return result


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
    # Down to the smallest double: 1 - eps rounds to 0 below k ~ 1e-33.
    rng = np.random.default_rng(2025)
    draws = np.exp(rng.uniform(math.log(5e-324), math.log(1.5 * K_EDGE), 8))
    for k in [5e-324, *draws.tolist()]:
        argv = ["simulate", "--k", repr(k)]
        assert _fails_fast(lambda: _run(argv, capsys)) in {0, 2, 3}


def test_alpha_draws_fail_only_with_named_errors(capsys):
    # Above ~1e105, R0^3 or tau0 underflows; above 1.34e154, alpha^2 - 1
    # overflows.
    rng = np.random.default_rng(2026)
    draws = 10.0 ** rng.uniform(0.0, 308.0, 8)
    for alpha in [1e140, 1e154, 1e308, *draws.tolist()]:
        for cmd in (["simulate", "--k", "100"],
                    ["phase-portrait", "--eta", "0.01"]):
            argv = cmd + ["--alpha", repr(alpha)]
            assert _fails_fast(lambda: _run(argv, capsys)) in {0, 2, 3}


@pytest.mark.parametrize("cmd", ["asym-report", "phase-portrait"])
@pytest.mark.parametrize("eta", ["1e-150", "1e-300"])
def test_tiny_eta_reports_scale_underflow(cmd, eta, capsys):
    assert main([cmd, "--eta", eta]) == 2
    assert "leaves double range" in capsys.readouterr().err


def test_eta_near_one_is_invalid_for_the_report(capsys):
    # tau1 = eta^gamma1 would not precede tau3 = zeta ln(1/eta).
    assert main(["asym-report", "--eta", "0.9"]) == 2
    assert "tau1" in capsys.readouterr().err
    # Here zeta, not eta, is the cause, and the message says so.
    assert main(["asym-report", "--eta", "0.5", "--zeta", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert "tau1" in err and "zeta = 1e-300" in err


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
    assert f"line 2: {RULE[key]}" in capsys.readouterr().err


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
    (name,) = tol
    with pytest.raises(InvalidInput, match=f"{name} must be"):
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
    assert f"{name}: {RULE[name]}" in capsys.readouterr().err


# Each function that takes times, with its window [lo, hi] (hi = inf for an
# open window).  Face 1 ends at t0 = 0.7/0.3; the continuation starts at
# tau1 = 1.5.
SLOW = InitialData(-0.7, 1.0, 0.3)
OPEN_WINDOWS = ("limit_trajectory", "face_phase_state", "second_asymptotic_R2")
TIME_TAKERS = ("positions_at", "simulate_full", "CornerResult.sample",
               "OracleRun.sample", "r1_phase_state") + OPEN_WINDOWS


@pytest.fixture(scope="module")
def windows():
    """name -> (call at a 1-D array of times, lo, hi)."""
    cfg = SimConfig(k=100.0, T=2.0)
    traj = simulate_full(cfg)
    corner = integrate_corner(scaled_params_direct(1e-2, "derive", UNIT,
                                                   DAMP2), cfg.cone)
    oracle = oracle_fast_time_integration(UNIT, DAMP2, cfg.cone, 100.0,
                                          horizon=0.5)
    return {
        "positions_at": (traj.positions_at, 0.0, 2.0),
        "simulate_full": (lambda t: simulate_full(cfg, t_eval=t), 0.0, 2.0),
        "CornerResult.sample": (corner.sample, 0.0, corner.tau[-1]),
        "OracleRun.sample": (oracle.sample, 0.0, 0.5),
        "r1_phase_state": (lambda t: r1_phase_state(SLOW, DAMP2, 100.0, t),
                           0.0, 0.7 / 0.3),
        "limit_trajectory": (lambda t: limit_trajectory(UNIT, cfg.cone, t),
                             0.0, math.inf),
        "face_phase_state": (
            lambda t: face_phase_state(0.1, -0.2, 0.5, DAMP2, 100.0, t),
            0.0, math.inf),
        "second_asymptotic_R2": (
            lambda t: second_asymptotic_R2((0.7, -0.3), DAMP2, 1.5, t),
            1.5, math.inf),
    }


@pytest.mark.parametrize("name,case", [
    (name, case) for name in TIME_TAKERS
    for case in ("nan", "inf", "below lo")
    + (() if name in OPEN_WINDOWS else ("above hi",))])
def test_times_outside_the_window_are_out_of_phase(windows, name, case):
    # A bad time anywhere in the array is refused, also where a formula
    # would return a NaN or inf state or a run would drop the time.
    call, lo, hi = windows[name]
    t = {"nan": math.nan, "inf": math.inf,
         "below lo": np.nextafter(lo, -math.inf),
         "above hi": np.nextafter(hi, math.inf)}[case]
    window = (f"t >= {lo:g}" if hi == math.inf
              else f"lie in [{lo:g}, {hi:g}]")
    with pytest.raises(OutOfPhase, match=re.escape(window)):
        call(np.array([0.5 * (lo + min(hi, lo + 1.0)), t]))


@pytest.mark.parametrize("name", TIME_TAKERS)
def test_time_windows_hold_their_ends(windows, name):
    call, lo, hi = windows[name]
    call(np.array([lo] if hi == math.inf else [lo, hi]))
    if name == "r1_phase_state":
        # No slack past t0: the phase map splits at t <= t0 exactly.
        with pytest.raises(OutOfPhase):
            call(np.array([hi * (1.0 + 1e-13)]))


@pytest.mark.parametrize("name,t,checks", [
    ("r1_phase_state", [0.5], ["face-1 times"]),
    ("face_phase_state", [0.5], ["face times"]),
    ("second_asymptotic_R2", [2.0], ["second asymptotic times"]),
    # Face 1 and face 2: the phase map checks none of its times again.
    ("positions_at", [0.5, 1.9], ["trajectory times"]),
    # A corner time (the exit is at t = 1.0033) adds the corner run's own
    # check.
    ("positions_at", [0.5, 1.002, 1.9],
     ["trajectory times", "corner sample times"]),
], ids=["r1", "face", "second", "positions-faces", "positions-corner"])
def test_each_public_call_checks_its_times_once(windows, monkeypatch, name,
                                                t, checks):
    real = linear_phase.check_times
    seen = []

    def spy(times, lo, hi, what):
        seen.append(what)
        return real(times, lo, hi, what)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cornerimpact") and \
                vars(module).get("check_times") is real:
            monkeypatch.setattr(module, "check_times", spy)
    windows[name][0](np.asarray(t))
    assert seen == checks
