"""Trajectory assembly, validation studies and CSV output.

``simulate_full`` chains the three phases of a physical run: the face-1
closed form up to the crossing time t0, the adaptive corner passage in
scaled variables, and (once the exit angle is reached) the face-2 closed
form.  Handoffs use the exact matching formulas.  At t0 position and
velocity are continuous to round-off.  At the exit the corner state lies
within the event tolerance ``EVENT_THETA_TOL`` (1e-10 rad) of face 2, so the
mismatch there is of order that angle times the radius or speed.  Both
residuals are recorded in the metadata.

``convergence_study`` measures the sup distance to the anelastic limit
trajectory over a uniform grid, ``asymptotic_report`` measures the corner
flow against its matched asymptotics, and ``phase_portrait`` tabulates the
radial vector field.  All tables go through ``write_csv`` which prints
floats with 17 significant digits so values round-trip bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import BACKEND
from .asymptotics import (
    asymptotic_times,
    critical_point,
    exit_equivalents,
    first_asymptotic_R1,
    first_asymptotic_dR1,
    second_asymptotic_R2,
)
from .config import SimConfig
from .corner_phase import integrate_corner, radial_rhs
from .errors import InvalidInput
from .geometry import ConeGeometry
from .linear_phase import (
    InitialData,
    characteristic_roots,
    face_phase_state,
    first_crossing_time,
    r1_phase_state,
)
from .moreau import limit_trajectory
from .scaling import (
    ScaledParams,
    ScaledState,
    scaled_params_direct,
    scaled_params_from_physical,
    scaled_to_cartesian,
)

__all__ = [
    "Trajectory",
    "simulate_full",
    "convergence_study",
    "asymptotic_report",
    "phase_portrait",
    "write_csv",
]

PHASE_FACE1 = "R1-phase"
PHASE_CORNER = "corner"
PHASE_FACE2 = "R3-phase"

N_PHASE_SAMPLES = 601       # target per closed-form phase
N_CORNER_EVAL = 1200        # geometric refinement across the corner scales


@dataclass
class Trajectory:
    """Sampled physical trajectory with per-sample phase labels."""

    t: np.ndarray               # strictly increasing times
    u: np.ndarray               # (n, 2) positions
    v: np.ndarray               # (n, 2) velocities
    phase: np.ndarray           # labels from {R1-phase, corner, R3-phase}
    metadata: dict = field(default_factory=dict)

    def positions_at(self, t_grid) -> np.ndarray:
        """Linear interpolation of positions; the sample set contains any
        grid the caller passed as ``t_eval``, so this is exact there."""
        t_grid = np.asarray(t_grid, dtype=float)
        out = np.column_stack([
            np.interp(t_grid, self.t, self.u[:, 0]),
            np.interp(t_grid, self.t, self.u[:, 1]),
        ])
        if t_grid.ndim == 0:
            return out[0]
        return out


def _context(config: SimConfig):
    damping = characteristic_roots(config.alpha)
    init = InitialData(s0=config.s0, dr0=config.dr0, ds0=config.ds0)
    cone = ConeGeometry(config.theta_bar)
    return damping, init, cone


def _merged_grid(lo: float, hi: float, extra, n: int) -> np.ndarray:
    base = np.linspace(lo, hi, n)
    if extra is not None and len(extra):
        extra = np.asarray(extra, dtype=float)
        extra = extra[(extra >= lo) & (extra <= hi)]
        base = np.unique(np.concatenate([base, extra]))
    return base


def simulate_full(config: SimConfig, t_eval=None) -> Trajectory:
    """Full three-phase trajectory for a physical run on [0, T].

    ``t_eval`` times are folded into the sample set exactly.  The corner
    window is sampled only from the dense output of the corner
    integration, on a geometric grid of scaled offsets (so every
    timescale between the layer width and the horizon is resolved) plus
    the mapped ``t_eval`` points, and ``scaled_to_cartesian`` maps the
    samples to physical time.  Samples that do not advance in physical
    time are dropped, and the corner rows stop before the exit time,
    where the face-2 rows start.
    """
    config = config.validated()
    if config.mode != "physical":
        raise InvalidInput(
            "simulate_full requires mode 'physical' (a stiffness k); "
            "scaled runs drive the corner flow through integrate_corner")
    if config.k is None:
        raise InvalidInput("physical mode requires a stiffness k")
    damping, init, cone = _context(config)
    k = float(config.k)
    sk = math.sqrt(k)
    t0 = first_crossing_time(init)
    T = config.T if config.T is not None else 2.0 * t0
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)

    parts_t, parts_u, parts_v, parts_phase = [], [], [], []
    meta: dict = {"k": k, "t0": t0, "T": T, "backend": BACKEND}

    # Phase 1: face-1 approach on [0, min(t0, T)].
    end1 = min(t0, T)
    g1 = _merged_grid(0.0, end1, t_eval, N_PHASE_SAMPLES)
    r, rdot, s, sdot = r1_phase_state(init, damping, k, g1)
    parts_t.append(g1)
    parts_u.append(np.column_stack([r, s]))
    parts_v.append(np.column_stack([rdot, sdot]))
    parts_phase.append(np.full(g1.size, PHASE_FACE1, dtype="<U8"))

    if T > t0:
        params = scaled_params_from_physical(init, damping, k)
        meta.update(eta=params.eta, eps=params.eps, E=params.E)
        tau_end = (T - t0) * sk

        lo = max(params.kappa * 1e-3, tau_end * 1e-18)
        ev = np.geomspace(lo, tau_end, N_CORNER_EVAL)
        if t_eval is not None:
            mapped = (t_eval[(t_eval > t0) & (t_eval <= T)] - t0) * sk
            mapped = mapped[(mapped > 0.0) & (mapped <= tau_end)]
            ev = np.concatenate([ev, mapped])
        ev = np.unique(ev)

        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=tau_end,
                               tau_eval=ev, stop_at_event=True)
        st = res.exit_state
        t_bar = math.inf
        if st is not None:
            t_bar, u_cbar, v_cbar = scaled_to_cartesian(
                params, st.tau, st.R, st.dR, st.Theta)
        t2, u2, v2 = scaled_to_cartesian(params, res.eval_tau, res.eval_R,
                                         res.eval_dR, res.eval_Theta)
        # Corner rows are the distinct sample times in (t0, t_bar): at
        # large k sub-ulp samples collapse onto t0 or onto each other, and
        # the exit row at t_bar opens face 2.
        keep = (np.diff(t2, prepend=t0) > 0.0) & (t2 < t_bar)
        t2, u2, v2 = t2[keep], u2[keep], v2[keep]
        parts_t.append(t2)
        parts_u.append(u2)
        parts_v.append(v2)
        parts_phase.append(np.full(t2.size, PHASE_CORNER, dtype="<U8"))

        meta.update(momentum_drift=res.momentum_drift,
                    corner_steps=res.n_accepted)
        # Handoff residuals at t0 (both are exact formulas; record the
        # floating-point mismatch).
        _, u_c0, v_c0 = scaled_to_cartesian(params, 0.0, params.R0,
                                            params.dR0, 0.0)
        r_l, rdot_l, s_l, sdot_l = r1_phase_state(init, damping, k, t0)
        u_l = np.array([r_l, s_l])
        v_l = np.array([rdot_l, sdot_l])
        meta["handoff_pos_t0"] = float(np.linalg.norm(u_c0 - u_l))
        meta["handoff_vel_t0"] = float(np.linalg.norm(v_c0 - v_l))

        if st is not None:
            y1_0 = params.eta * st.R / sk
            dy1_0 = params.eta * st.dR
            dy2_0 = params.eta * params.momentum / st.R
            meta.update(tau_exit=st.tau, t_exit=t_bar,
                        exit_R=st.R, exit_dR=st.dR, exit_Theta=st.Theta,
                        y1_0=y1_0, dy1_0=dy1_0, dy2_0=dy2_0)

            n2 = cone.face2_normal
            d2 = cone.face2_direction
            meta["handoff_pos_exit"] = float(
                np.linalg.norm(u_cbar - y1_0 * n2))
            meta["handoff_vel_exit"] = float(
                np.linalg.norm(v_cbar - (dy1_0 * n2 + dy2_0 * d2)))

            if t_bar < T:
                g3 = _merged_grid(t_bar, T, t_eval, N_PHASE_SAMPLES)
                g3 = g3[g3 > t0]        # t_bar rounds onto t0 at large k
                y1, y1d, y2, y2d = face_phase_state(
                    y1_0, dy1_0, dy2_0, damping, k, g3 - t_bar)
                u3 = np.outer(y1, n2) + np.outer(y2, d2)
                v3 = np.outer(y1d, n2) + np.outer(y2d, d2)
                parts_t.append(g3)
                parts_u.append(u3)
                parts_v.append(v3)
                parts_phase.append(np.full(g3.size, PHASE_FACE2, dtype="<U8"))

    t_all = np.concatenate(parts_t)
    traj = Trajectory(
        t=t_all,
        u=np.concatenate(parts_u, axis=0),
        v=np.concatenate(parts_v, axis=0),
        phase=np.concatenate(parts_phase),
        metadata=meta,
    )
    if not np.all(np.diff(traj.t) > 0.0):
        raise InvalidInput("internal error: trajectory times not increasing")
    counts = {}
    for label in (PHASE_FACE1, PHASE_CORNER, PHASE_FACE2):
        counts[label] = int(np.sum(traj.phase == label))
    meta["phase_counts"] = counts
    return traj


def convergence_study(config: SimConfig, k_list=None, T: float | None = None):
    """Sup distance to the limit trajectory per stiffness.

    Returns (table, fitted_order): table has columns k / sup_error, and the
    order is the log-log slope of sup_error against 1/sqrt(k) (None for a
    single k).
    """
    if k_list is None:
        k_list = config.k_list
    k_arr = np.asarray(sorted(float(k) for k in k_list))
    if k_arr.size == 0 or not np.all((k_arr > 0.0) & (k_arr < np.inf)):
        raise InvalidInput("k_list values must be positive and finite")
    # Mode/k completeness is supplied per run below; validate the rest now.
    config = config.override(mode="physical", k=float(k_arr[0]))
    damping, init, cone = _context(config)
    t0 = first_crossing_time(init)
    if T is None:
        T = config.T if config.T is not None else 2.0 * t0
    grid = np.linspace(0.0, T, config.n_grid)
    u_inf = limit_trajectory(init, cone, grid)

    errors = np.empty(k_arr.size)
    for i, k in enumerate(k_arr):
        traj = simulate_full(config.override(mode="physical", k=float(k),
                                             T=float(T)), t_eval=grid)
        uk = traj.positions_at(grid)
        errors[i] = float(np.max(np.linalg.norm(uk - u_inf, axis=1)))
    table = {"k": k_arr, "sup_error": errors}
    fitted_order = None
    if k_arr.size >= 2:
        fitted_order = float(np.polyfit(
            np.log(1.0 / np.sqrt(k_arr)), np.log(errors), 1)[0])
    return table, fitted_order


def asymptotic_report(config: SimConfig, eta_list=None):
    """Corner-flow defect against its matched asymptotics, per eta.

    Columns per row: eta; max relative radius defect against the undamped
    comparison orbit on [0, tau1]; the same for the radial velocity on
    [eta^3, tau1]; max relative defect against the damped-linear
    continuation on [tau1, tau3]; and the exit ratio (measured/estimated
    exit time for an acute wedge, measured/estimated radius at tau3
    otherwise).  Second return value: log-log fitted orders in eta of the
    two defect columns (NaN with fewer than two etas).
    """
    if eta_list is None:
        eta_list = config.eta_list
    etas = np.asarray(sorted((float(e) for e in eta_list), reverse=True))
    if etas.size == 0 or not np.all((etas > 0.0) & (etas < 1.0)):
        raise InvalidInput("eta_list values must lie in (0, 1)")
    # The report is scale-free; validate with the mode completed.
    config = config.override(mode="scaled", eta=float(etas[0]))
    damping, init, cone = _context(config)

    err_R1 = np.empty(etas.size)
    err_dR1 = np.empty(etas.size)
    err_R2 = np.empty(etas.size)
    exit_ratio = np.empty(etas.size)

    for i, eta in enumerate(etas):
        params = scaled_params_direct(eta, config.eps_spec, init, damping)
        times = asymptotic_times(eta, damping, gamma1=config.gamma1,
                                 zeta=config.zeta)
        tau1, tau3 = times.tau1, times.tau3
        if not tau1 < tau3:
            raise InvalidInput(
                f"eta = {eta!r} is too close to 1: the matching time "
                f"tau1 = {tau1:.3g} does not precede tau3 = {tau3:.3g}")
        lo = max(params.kappa * 1e-3, tau1 * 1e-15)
        ev = np.unique(np.concatenate([
            np.geomspace(lo, tau1, 700),
            np.geomspace(tau1, tau3, 700),
            [eta ** 3],
        ]))
        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=tau3, tau_eval=ev,
                               stop_at_event=False)
        ev = res.eval_tau
        R_num = res.eval_R
        dR_num = res.eval_dR

        m1 = ev <= tau1
        R1_ref = first_asymptotic_R1(params, ev[m1])
        err_R1[i] = float(np.max(np.abs(R_num[m1] - R1_ref) / R1_ref))

        md = (ev >= eta ** 3) & (ev <= tau1)
        dR1_ref = first_asymptotic_dR1(params, ev[md])
        err_dR1[i] = float(np.max(
            np.abs(dR_num[md] - dR1_ref) / np.abs(dR1_ref)))

        i1 = int(np.searchsorted(ev, tau1))
        match = (float(R_num[i1]), float(dR_num[i1]))
        m2 = ev >= tau1
        R2_ref, _ = second_asymptotic_R2(match, damping, tau1, ev[m2])
        err_R2[i] = float(np.max(np.abs(R_num[m2] - R2_ref) / R2_ref))

        est_tau, est_R, _, _ = exit_equivalents(params, cone,
                                                zeta=times.zeta)
        if cone.is_acute:
            if res.exit_tau is None:
                exit_ratio[i] = math.nan
            else:
                exit_ratio[i] = res.exit_tau / est_tau
        else:
            exit_ratio[i] = float(R_num[-1]) / est_R

    table = {"eta": etas, "err_R1": err_R1, "err_dR1": err_dR1,
             "err_R2": err_R2, "exit_ratio": exit_ratio}
    fits = {"order_R1": math.nan, "order_R2": math.nan}
    if etas.size >= 2:
        fits["order_R1"] = float(np.polyfit(
            np.log(etas), np.log(err_R1), 1)[0])
        fits["order_R2"] = float(np.polyfit(
            np.log(etas), np.log(err_R2), 1)[0])
    return table, fits


def phase_portrait(params: ScaledParams, R_range=(0.1, 2.0),
                   dR_range=(-1.0, 1.0), grid_n: int = 21):
    """Tabulated radial vector field on a grid, critical point marked.

    Returns columns R / dR / dR_dtau / ddR_dtau / at_critical; the last
    row (flag 1) is the rest point (Rc, 0).  grid_n = 0 gives an empty
    table.
    """
    if grid_n < 0:
        raise InvalidInput(f"grid_n must be non-negative, got {grid_n!r}")
    if not (0.0 < R_range[0] < R_range[1]):
        raise InvalidInput(f"R_range must be positive increasing, got {R_range!r}")
    if not dR_range[0] < dR_range[1]:
        raise InvalidInput(f"dR_range must be increasing, got {dR_range!r}")
    names = ("R", "dR", "dR_dtau", "ddR_dtau", "at_critical")
    if grid_n == 0:
        return {name: np.empty(0) for name in names}
    Rs = np.linspace(R_range[0], R_range[1], grid_n)
    dRs = np.linspace(dR_range[0], dR_range[1], grid_n)
    Rc = critical_point(params.E, params.eps)
    # One call per radius, vectorised over dR (rows R-major).  R stays a
    # scalar, so R**3 rounds as in a per-point evaluation.
    rhs = [radial_rhs(ScaledState(0.0, R, dRs, 0.0), params) for R in Rs]
    rhs.append(radial_rhs(ScaledState(0.0, Rc, np.zeros(1), 0.0), params))
    return dict(zip(names, (
        np.append(np.repeat(Rs, grid_n), Rc),
        np.append(np.tile(dRs, grid_n), 0.0),
        np.concatenate([f[0] for f in rhs]),
        np.concatenate([f[1] for f in rhs]),
        np.append(np.zeros(grid_n * grid_n), 1.0),
    )))


def write_csv(data, path) -> None:
    """Write a Trajectory or a column mapping as CSV.

    Float columns are printed with 17 significant digits so reading them
    back reproduces the exact double; other columns print as ``str``.
    """
    if isinstance(data, Trajectory):
        columns = {
            "t": data.t,
            "u1": data.u[:, 0], "u2": data.u[:, 1],
            "v1": data.v[:, 0], "v2": data.v[:, 1],
            "phase": data.phase,
        }
    else:
        columns = {name: np.asarray(col) for name, col in data.items()}
    if not columns:
        raise InvalidInput("no columns to write")
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise InvalidInput(f"column lengths differ: {lengths}")

    names = list(columns)
    row_format = ",".join(
        "%.17g" if columns[name].dtype.kind == "f" else "%s"
        for name in names) + "\n"
    rows = zip(*(columns[name].tolist() for name in names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row_format % row for row in rows)
