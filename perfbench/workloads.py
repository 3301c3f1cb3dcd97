"""Seeded workload generators and the op executors that drive the lab.

An op is one subcommand-sized study, described by a JSON-serialisable dict.
``generate`` turns (workload, seed) into the same op list every time;
``execute`` runs one op and returns its output for the checks in
``checks.py``.  Executors look every library name up through the
``cornerimpact`` package (or ``cornerimpact.cli``) at call time, so the
tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random

import numpy as np

import cornerimpact as ci
import cornerimpact.cli  # noqa: F401  (ci.cli.main)

ALPHA_RANGE = (1.5, 3.0)
ACUTE_RANGE = (0.5, 1.4)
OBTUSE_RANGE = (1.7, 2.8)
# Physical stiffness must stay below the ScaleUnderflow edge
# (350 / (|xi1| t0))^2; the margin keeps round-off away from the guard.
EDGE_SHARE = 0.9
T0 = 1.0                    # first crossing time of the default face-1 data
ORACLE_GRID_N = 400
ORACLE_HORIZON = 2.0
ORACLE_RTOL, ORACLE_ATOL = 1e-11, 1e-13     # acceptance criterion 10
LHS_BLOCK = 16              # ops of one kind in one stratified block
DIMS = 5                    # stratified uniforms per op
N_OPS = 4096                # generated ops; the timed phase cycles beyond

# Op pattern of one cycle.  The shares of the kinds put the latency median
# inside the bulk of one kind's costs, not in the gap between a cheap and
# a costly kind, where it would jump with the seed.
PATTERNS = {
    "corner_dense": ["simulate", "converge", "asym-report", "converge",
                     "asym-report"],
    "corner_long": ["simulate", "simulate", "converge", "simulate"],
    "tables_io": ["phase-portrait", "phase-portrait", "phase-portrait",
                  "cli-simulate"],
    "oracle_check": ["oracle-acute", "oracle-obtuse"],
}
WORKLOADS = tuple(PATTERNS)


def underflow_edge(alpha: float) -> float:
    """Largest k before scaled_params_from_physical raises ScaleUnderflow."""
    xi1 = -alpha + math.sqrt(alpha * alpha - 1.0)
    return (350.0 / (abs(xi1) * T0)) ** 2


def _lhs(rng: random.Random, n: int) -> list[float]:
    """The midpoints of n equal strata of [0, 1), shuffled.

    Midpoints, not random points in each stratum: op cost grows steeply
    with some parameters (a portrait with grid_n²), so a random jitter
    near p90 would move p90 by up to a stratum's cost from seed to seed.
    The seed still chooses how the parameters pair up within a block."""
    return [(s + 0.5) / n for s in rng.sample(range(n), n)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return math.exp(_lerp(math.log(lo), math.log(hi), u))


def _draw(workload: str, kind: str, u: list[float]) -> dict:
    """Map stratified uniforms u (length DIMS) to the parameters of one op."""
    alpha = _lerp(*ALPHA_RANGE, u[0])
    op = {"kind": kind, "alpha": alpha}
    if workload == "corner_dense":
        op["theta_bar"] = _lerp(*ACUTE_RANGE, u[1])
        if kind == "simulate":
            op["k"] = _log_lerp(1e2, 1e4, u[2])
        elif kind == "converge":
            # One stiffness from each third of the log range: a real sweep.
            op["k_list"] = [_log_lerp(1e2, 1e4, (j + u[2 + j]) / 3.0)
                            for j in range(3)]
        else:
            op["eta"] = _log_lerp(1e-4, 1e-2, u[2])
    elif workload == "corner_long":
        op["theta_bar"] = _lerp(*OBTUSE_RANGE, u[1])
        hi = EDGE_SHARE * underflow_edge(alpha)
        if kind == "simulate":
            op["k"] = _log_lerp(1e4, hi, u[2])
        else:
            op["k_list"] = [_log_lerp(1e4, hi, (j + u[2 + j]) / 2.0)
                            for j in range(2)]
    elif workload == "tables_io":
        op["theta_bar"] = _lerp(*ACUTE_RANGE, u[1])
        if kind == "phase-portrait":
            op["k"] = _log_lerp(1e2, 1e4, u[2])
            op["grid_n"] = round(_log_lerp(40, 160, u[3]))
        else:
            op["k"] = _log_lerp(1e4, EDGE_SHARE * underflow_edge(alpha),
                                u[2])
    else:
        span = ACUTE_RANGE if kind == "oracle-acute" else OBTUSE_RANGE
        op["theta_bar"] = _lerp(*span, u[1])
        op["k"] = _log_lerp(1e2, 1e3, u[2])
    return op


def cycle_size(workload: str) -> int:
    """Ops in one cycle: the fewest pattern repeats that hold a whole
    stratified block of the rarest kind (and whole blocks of the others).
    A timed run is whole cycles, so every seed measures the same design."""
    pattern = PATTERNS[workload]
    return len(pattern) * LHS_BLOCK // min(map(pattern.count, pattern))


def generate(workload: str, seed: int, n_ops: int = N_OPS) -> list[dict]:
    """The op list for (workload, seed); identical on every call."""
    if workload not in PATTERNS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    pattern = PATTERNS[workload]
    pending: dict[str, list[dict]] = {}
    ops = []
    while len(ops) < n_ops:
        for kind in pattern:
            if not pending.get(kind):
                cols = [_lhs(rng, LHS_BLOCK) for _ in range(DIMS)]
                pending[kind] = [_draw(workload, kind, list(u))
                                 for u in zip(*cols)]
            op = pending[kind].pop()
            op["id"] = len(ops)
            ops.append(op)
    return ops[:n_ops]


def _config(op: dict, **extra):
    return ci.SimConfig().override(mode="physical", alpha=op["alpha"],
                                   theta_bar=op["theta_bar"], **extra)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return ci.cli.main(argv)


def _num(x: float) -> str:
    return repr(float(x))


def execute(op: dict, tmpdir: str):
    """Run one op; returns what its check needs (see checks.check)."""
    kind = op["kind"]
    if kind == "simulate":
        return ci.simulate_full(_config(op, k=op["k"]))
    if kind == "converge":
        return ci.convergence_study(_config(op), k_list=op["k_list"])
    if kind == "asym-report":
        return ci.asymptotic_report(_config(op), eta_list=(op["eta"],))
    if kind in ("phase-portrait", "cli-simulate"):
        path = os.path.join(tmpdir, f"op{op['id']}.csv")
        argv = [kind.replace("cli-", ""), "--k", _num(op["k"]),
                "--alpha", _num(op["alpha"]),
                "--theta-bar", _num(op["theta_bar"]), "--out", path]
        if kind == "phase-portrait":
            argv += ["--grid-n", str(op["grid_n"])]
        return _cli(argv), path
    # oracle-acute / oracle-obtuse: the criterion-10 comparison.
    grid = np.linspace(0.0, ORACLE_HORIZON, ORACLE_GRID_N)
    traj = ci.simulate_full(_config(op, k=op["k"], T=ORACLE_HORIZON),
                            t_eval=grid)
    u_pipe = traj.positions_at(grid)
    oracle = ci.oracle_fast_time_integration(
        ci.InitialData(), ci.characteristic_roots(op["alpha"]),
        ci.ConeGeometry(op["theta_bar"]), op["k"], ORACLE_HORIZON,
        rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    return traj, u_pipe, oracle.sample(grid)
