"""Numba and pure-Python stepping kernels must agree bit for bit.

The kernels avoid fastmath, so compiled and interpreted IEEE semantics
coincide; the comparisons below are exact, not approximate.
"""
import json
import os
import subprocess
import sys

import pytest

PROBE = r"""
import json, math, sys
from cornerimpact import (ConeGeometry, InitialData, characteristic_roots,
                          integrate_corner, scaled_params_direct)
from cornerimpact._backend import BACKEND

damping = characteristic_roots(2.0)
unit = InitialData(-1.0, 1.0, 1.0)
out = {"backend": BACKEND}
# (name, eta, theta_bar, tau_eval); at eta = 1e-20 the obtuse run takes
# Lawson steps of tens of tau units, and the samples fall inside them.
for name, eta, theta, ev in (
        ("acute", 1e-2, math.pi/3, [1e-4, 1e-2, 0.5]),
        ("obtuse", 1e-2, 2*math.pi/3, [1e-4, 1e-2, 0.5]),
        ("obtuse_far", 1e-20, 2*math.pi/3, [1.0, 20.0, 60.0, 120.0, 160.0])):
    params = scaled_params_direct(eta, "derive", unit, damping)
    res = integrate_corner(params, ConeGeometry(theta),
                           rtol=1e-10, atol=1e-12, tau_eval=ev)
    out[name] = {
        "exit_tau": repr(res.exit_tau),
        "exit_R": repr(float(res.exit_state.R)),
        "exit_dR": repr(float(res.exit_state.dR)),
        "exit_Theta": repr(float(res.exit_state.Theta)),
        "R_last": repr(float(res.R[-1])),
        "dR_last": repr(float(res.dR[-1])),
        "Theta_last": repr(float(res.Theta[-1])),
        "eval_R": [repr(float(x)) for x in res.eval_R],
        "eval_dR": [repr(float(x)) for x in res.eval_dR],
        "eval_Theta": [repr(float(x)) for x in res.eval_Theta],
        "n_accepted": res.n_accepted,
        "n_rejected": res.n_rejected,
    }
json.dump(out, sys.stdout)
"""


def run_probe(backend: str) -> dict:
    env = dict(os.environ, CORNERIMPACT_BACKEND=backend)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def numba_available() -> bool:
    try:
        import numba  # noqa: F401
        return True
    except ImportError:
        return False


def test_backend_env_selection():
    assert run_probe("numpy")["backend"] == "numpy"
    if numba_available():
        assert run_probe("numba")["backend"] == "numba"


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
def test_backends_bitwise_identical():
    a = run_probe("numpy")
    b = run_probe("numba")
    for case in ("acute", "obtuse", "obtuse_far"):
        assert a[case] == b[case], f"backend mismatch in {case} case"


def test_unknown_backend_warns():
    env = dict(os.environ, CORNERIMPACT_BACKEND="cuda")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         "import cornerimpact"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "not recognised" in proc.stderr


def test_current_backend_exported():
    from cornerimpact import BACKEND

    assert BACKEND in ("numba", "numpy")
