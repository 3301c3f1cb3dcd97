"""Output checks, run on each op's result outside the timed region.

``check`` returns None when the op's output is right and a one-line reason
otherwise; a failed check counts the op as failed.  The tolerances are
fixed here rather than read from the program, so a change to the program
cannot loosen its own check.
"""
from __future__ import annotations

import math

import numpy as np

EXIT_THETA_TOL = 1e-10      # the kernel's documented EVENT_THETA_TOL
ORACLE_REL_TOL = 1e-4       # acceptance criterion 10
PHASES = {"R1-phase", "corner", "R3-phase"}


def oracle_rel_err(u_pipe, u_orac) -> float:
    """Relative sup-norm distance of the pipeline from the DOP853 oracle."""
    u_pipe = np.asarray(u_pipe, dtype=float)
    u_orac = np.asarray(u_orac, dtype=float)
    return float(np.max(np.linalg.norm(u_pipe - u_orac, axis=1))
                 / np.max(np.linalg.norm(u_orac, axis=1)))


def _times(t) -> str | None:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        return "non-finite trajectory time"
    if t.size and not np.all(np.diff(t) > 0.0):
        return "trajectory times not strictly increasing"
    return None


def _exit(meta: dict, theta_bar: float) -> str | None:
    if "exit_Theta" not in meta:
        return "acute run found no exit" if theta_bar < math.pi / 2.0 \
            else None
    miss = abs(meta["exit_Theta"] - theta_bar)
    if not miss <= EXIT_THETA_TOL:
        return f"exit Theta misses theta_bar by {miss:.3g}"
    return None


def check_trajectory(traj, theta_bar: float) -> str | None:
    """Times increase, values are finite, the exit angle is on target."""
    for name in ("u", "v"):
        if not np.all(np.isfinite(getattr(traj, name))):
            return f"non-finite {name}"
    return _times(traj.t) or _exit(traj.metadata, theta_bar)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file as written by ``write_csv``."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise ValueError("CSV file does not end in a newline")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:-1]]


def check_csv(path) -> tuple[str | None, dict]:
    """Every numeric cell re-formats to its own %.17g text.

    Returns (reason, columns) with the numeric columns as float lists.
    """
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return f"unreadable CSV: {exc}", {}
    numeric = [i for i, name in enumerate(header) if name != "phase"]
    phase = header.index("phase") if "phase" in header else None
    cols = {header[i]: [] for i in numeric}
    for n, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return f"CSV line {n} has {len(row)} cells", {}
        for i in numeric:
            cell = row[i]
            try:
                val = float(cell)
            except ValueError:
                return f"CSV line {n}: {cell!r} is not a number", {}
            if format(val, ".17g") != cell or not math.isfinite(val):
                return f"CSV line {n}: {cell!r} does not round-trip", {}
            cols[header[i]].append(val)
        if phase is not None and row[phase] not in PHASES:
            return f"CSV line {n}: unknown phase label", {}
    return None, cols


def check_portrait_csv(path, grid_n: int) -> str | None:
    reason, cols = check_csv(path)
    if reason:
        return reason
    if len(cols.get("R", ())) != grid_n * grid_n + 1:
        return f"portrait has {len(cols.get('R', ()))} rows"
    if cols["at_critical"][-1] != 1.0 or cols["dR_dtau"][-1] != 0.0:
        return "portrait rest-point row has dR_dtau != 0"
    return None


def check(op: dict, out) -> str | None:
    """Check one op's output; None when it is right."""
    kind = op["kind"]
    if kind == "simulate":
        return check_trajectory(out, op["theta_bar"])
    if kind == "converge":
        table, order = out
        if list(table["k"]) != sorted(op["k_list"]):
            return "convergence table lists other stiffnesses"
        err = np.asarray(table["sup_error"])
        if not (np.all(np.isfinite(err)) and np.all(err > 0.0)):
            return "non-finite or zero sup_error"
        if not math.isfinite(order):
            return "non-finite fitted order"
        return None
    if kind == "asym-report":
        table, _ = out
        for name, col in table.items():
            if not np.all(np.isfinite(col)):
                return f"non-finite {name}"
        return None
    if kind in ("phase-portrait", "cli-simulate"):
        code, path = out
        if code != 0:
            return f"CLI exit code {code}"
        if kind == "phase-portrait":
            return check_portrait_csv(path, op["grid_n"])
        reason, cols = check_csv(path)
        return reason or _times(cols.get("t", ()))
    traj, u_pipe, u_orac = out
    reason = check_trajectory(traj, op["theta_bar"])
    if reason:
        return reason
    rel = oracle_rel_err(u_pipe, u_orac)
    if not rel <= ORACLE_REL_TOL:
        return f"oracle relative error {rel:.3g} above {ORACLE_REL_TOL:g}"
    return None
