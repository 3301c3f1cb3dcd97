"""Trajectory assembly, validation studies and CSV output.

``simulate_full`` chains the three phases of a physical run: the face-1
closed form up to the crossing time t0, the adaptive corner passage in
scaled variables, and (once the exit angle is reached) the face-2 closed
form.  Both handoffs are continuous to round-off, and their residuals
are recorded in the metadata.

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
from .errors import InvalidInput, NumericFailure
from .linear_phase import face_phase_state, first_crossing_time, r1_phase_state
from .moreau import limit_trajectory
from .scaling import (
    ScaledParams,
    ScaledState,
    scaled_params_direct,
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


def _merged_grid(lo: float, hi: float, extra, n: int) -> np.ndarray:
    base = np.linspace(lo, hi, n)
    if extra is not None and len(extra):
        extra = np.asarray(extra, dtype=float)
        extra = extra[(extra >= lo) & (extra <= hi)]
        base = np.unique(np.concatenate([base, extra]))
    return base


def simulate_full(config: SimConfig, t_eval=None) -> Trajectory:
    """Full three-phase trajectory for a physical run on [0, T].

    ``t_eval`` times are folded into the sample set exactly.  The finished
    corner run is sampled on a geometric grid of scaled offsets up to the
    horizon, from 1e-18 of the window the run covered (the exit, else the
    horizon) but no lower than 1e-3 kappa, so every timescale between the
    layer width and the exit is resolved; the mapped ``t_eval`` points
    join it.  Only samples whose time t0 + tau / sqrt(k) advances and
    precedes the exit, where the face-2 rows start, are evaluated and
    mapped by ``scaled_to_cartesian``.  Face 2 starts from the (n2, d2)
    components of the exit state, ``scaled_to_cartesian`` at the angle
    Theta - theta_bar; the exit residual is |u . d2|, ``handoff_pos_exit``.
    """
    if config.mode != "physical" or config.k is None:
        raise InvalidInput(
            "simulate_full requires mode 'physical' and a stiffness k; "
            "scaled runs drive the corner flow through integrate_corner")
    damping, init, cone, params = (config.damping, config.init, config.cone,
                                   config.params)
    k = float(config.k)
    sk = math.sqrt(k)
    t0 = first_crossing_time(init)
    T = config.T if config.T is not None else 2.0 * t0
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)

    parts_t, parts_u, parts_v, parts_phase = [], [], [], []
    meta: dict = {"k": k, "eta": params.eta, "eps": params.eps,
                  "E": params.E, "t0": t0, "T": T}

    # Phase 1: face-1 approach on [0, min(t0, T)].
    end1 = min(t0, T)
    g1 = _merged_grid(0.0, end1, t_eval, N_PHASE_SAMPLES)
    r, rdot, s, sdot = r1_phase_state(init, damping, k, g1)
    parts_t.append(g1)
    parts_u.append(np.column_stack([r, s]))
    parts_v.append(np.column_stack([rdot, sdot]))
    parts_phase.append(np.full(g1.size, PHASE_FACE1, dtype="<U8"))

    if T > t0:
        tau_end = (T - t0) * sk
        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=tau_end,
                               stop_at_event=True)
        st = res.exit_state
        t_bar = math.inf
        if st is not None:
            # The map at the angle Theta - theta_bar gives the exit state's
            # components along (n2, d2); u . d2 is the exit residual.
            t_bar, u_bar, v_bar = scaled_to_cartesian(
                params, st.tau, st.R, st.dR, st.Theta - cone.theta_bar)
            y1_0, slide = u_bar.tolist()
            dy1_0, dy2_0 = v_bar.tolist()

        end = tau_end if st is None else st.tau
        lo = max(params.kappa * 1e-3, end * 1e-18)
        ev = np.geomspace(lo, tau_end, N_CORNER_EVAL)
        if t_eval is not None:
            mapped = (t_eval[(t_eval > t0) & (t_eval <= T)] - t0) * sk
            mapped = mapped[(mapped > 0.0) & (mapped <= tau_end)]
            ev = np.concatenate([ev, mapped])
        ev = np.unique(ev)
        # Corner rows are the distinct sample times in (t0, t_bar): at
        # large k sub-ulp samples collapse onto t0 or onto each other, and
        # the exit row at t_bar opens face 2.  Only those are evaluated.
        t2 = t0 + ev / sk
        keep = (np.diff(t2, prepend=t0) > 0.0) & (t2 < t_bar)
        corner = res.sample(ev[keep])
        t2, u2, v2 = scaled_to_cartesian(params, corner.tau, corner.R,
                                         corner.dR, corner.Theta)
        parts_t.append(t2)
        parts_u.append(u2)
        parts_v.append(v2)
        parts_phase.append(np.full(t2.size, PHASE_CORNER, dtype="<U8"))

        meta["corner_steps"] = res.n_accepted
        # Handoff residuals at t0 (both are exact formulas; record the
        # floating-point mismatch).
        _, u_c0, v_c0 = scaled_to_cartesian(params, 0.0, params.R0,
                                            params.dR0, 0.0)
        r_l, rdot_l, s_l, sdot_l = r1_phase_state(init, damping, k, t0)
        meta["handoff_pos_t0"] = float(np.linalg.norm(u_c0 - (r_l, s_l)))
        meta["handoff_vel_t0"] = float(np.linalg.norm(v_c0 - (rdot_l, sdot_l)))

        if st is not None:
            meta.update(tau_exit=st.tau, t_exit=t_bar,
                        exit_R=st.R, exit_dR=st.dR, exit_Theta=st.Theta,
                        y1_0=y1_0, dy1_0=dy1_0, dy2_0=dy2_0,
                        handoff_pos_exit=abs(slide))

            if t_bar < T:
                n2 = cone.face2_normal
                d2 = cone.face2_direction
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
        raise NumericFailure("internal error: trajectory times not increasing")
    meta["phase_counts"] = {label: int(np.sum(traj.phase == label))
                            for label in (PHASE_FACE1, PHASE_CORNER,
                                          PHASE_FACE2)}
    return traj


def _loglog_order(x, y) -> float | None:
    """Slope of log y against log x; None with fewer than two points or a
    y that is not positive, where the slope does not exist."""
    if len(x) < 2 or not np.all(y > 0.0):
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def convergence_study(config: SimConfig, k_list=None):
    """Sup distance to the limit trajectory per stiffness.

    The stiffnesses are ``config.sweep("k", k_list)``; the horizon
    is ``config.T``.  Returns (table, fitted_order): table has columns k /
    sup_error, and the order is the log-log slope of sup_error against
    1/sqrt(k) (None for a single k or a zero error).
    """
    k_arr = np.asarray(sorted(config.sweep("k", k_list)))
    t0 = first_crossing_time(config.init)
    T = config.T if config.T is not None else 2.0 * t0
    grid = np.linspace(0.0, T, config.n_grid)
    u_inf = limit_trajectory(config.init, config.cone, grid)

    errors = np.empty(k_arr.size)
    for i, k in enumerate(k_arr):
        traj = simulate_full(config.override(mode="physical", k=float(k)),
                             t_eval=grid)
        uk = traj.positions_at(grid)
        errors[i] = float(np.max(np.linalg.norm(uk - u_inf, axis=1)))
    table = {"k": k_arr, "sup_error": errors}
    return table, _loglog_order(1.0 / np.sqrt(k_arr), errors)


def asymptotic_report(config: SimConfig, eta_list=None):
    """Corner-flow defect against its matched asymptotics, per eta.

    Columns per row: eta; max relative radius defect against the undamped
    comparison orbit on [0, tau1]; the same for the radial velocity on
    [eta^3, tau1]; max relative defect against the damped-linear
    continuation on [tau1, tau3]; and the exit ratio (measured/estimated
    exit time for an acute wedge, measured/estimated radius at tau3
    otherwise).  The etas are ``config.sweep("eta", eta_list)``.
    Second return value: log-log fitted orders in eta of the two defect
    columns (None with fewer than two etas or a zero defect).
    """
    etas = np.asarray(sorted(config.sweep("eta", eta_list), reverse=True))
    damping, init, cone = config.damping, config.init, config.cone

    err_R1, err_dR1, err_R2, exit_ratio = np.empty((4, etas.size))

    for i, eta in enumerate(etas):
        params = scaled_params_direct(eta, config.eps, init, damping)
        times = asymptotic_times(eta, damping, gamma1=config.gamma1,
                                 zeta=config.zeta)
        tau1, tau3 = times.tau1, times.tau3
        if not tau1 < tau3:
            raise InvalidInput(
                f"the matching time tau1 = eta^gamma1 = {tau1:.3g} does not "
                f"precede tau3 = zeta ln(1/eta) = {tau3:.3g} (eta = "
                f"{times.eta!r}, gamma1 = {times.gamma1!r}, zeta = "
                f"{times.zeta!r})")
        lo = max(params.kappa * 1e-3, tau1 * 1e-15)
        ev = np.unique(np.concatenate([
            np.geomspace(lo, tau1, 700),
            np.geomspace(tau1, tau3, 700),
            [eta ** 3],
        ]))
        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=tau3,
                               stop_at_event=False)
        num = res.sample(ev)
        R_num, dR_num = num.R, num.dR

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

        est_tau, est_R, _, _ = exit_equivalents(params, cone, times)
        if cone.is_acute:
            if res.exit_tau is None:
                exit_ratio[i] = math.nan
            else:
                exit_ratio[i] = res.exit_tau / est_tau
        else:
            exit_ratio[i] = float(R_num[-1]) / est_R

    table = {"eta": etas, "err_R1": err_R1, "err_dR1": err_dR1,
             "err_R2": err_R2, "exit_ratio": exit_ratio}
    fits = {"order_R1": _loglog_order(etas, err_R1),
            "order_R2": _loglog_order(etas, err_R2)}
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
    if not 0.0 < R_range[0] < R_range[1] < math.inf:
        raise InvalidInput("R_range must be positive, increasing and "
                           f"finite, got {R_range!r}")
    if not -math.inf < dR_range[0] < dR_range[1] < math.inf:
        raise InvalidInput(
            f"dR_range must be increasing and finite, got {dR_range!r}")
    names = ("R", "dR", "dR_dtau", "ddR_dtau", "at_critical")
    if grid_n == 0:
        return {name: np.empty(0) for name in names}
    Rc = critical_point(params)
    # Overflow is caught on the finished table, not warned about per op.
    with np.errstate(all="ignore"):
        Rs = np.linspace(R_range[0], R_range[1], grid_n)
        dRs = np.linspace(dR_range[0], dR_range[1], grid_n)
        # One call per radius, vectorised over dR (rows R-major).  R stays
        # a scalar, so R**3 rounds as in a per-point evaluation.
        rhs = [radial_rhs(ScaledState(0.0, R, dRs, 0.0), params)
               for R in Rs]
    rhs.append(radial_rhs(ScaledState(0.0, Rc, np.zeros(1), 0.0), params))
    table = dict(zip(names, (
        np.append(np.repeat(Rs, grid_n), Rc),
        np.append(np.tile(dRs, grid_n), 0.0),
        np.concatenate([f[0] for f in rhs]),
        np.concatenate([f[1] for f in rhs]),
        np.append(np.zeros(grid_n * grid_n), 1.0),
    )))
    if not all(np.isfinite(col).all() for col in table.values()):
        raise InvalidInput(
            f"the field is not finite on R_range {R_range!r} x dR_range "
            f"{dR_range!r}; choose ranges nearer the unit scale")
    return table


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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(row_format % row for row in rows)
    except OSError as exc:
        raise InvalidInput(
            f"cannot write {path}: {exc.strerror or exc}") from None
