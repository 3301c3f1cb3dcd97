"""Trajectory assembly, validation studies and CSV output.

A physical run chains three phases: the face-1 closed form up to the
crossing time t0, the adaptive corner passage in scaled variables, and
(once the exit angle is reached) the face-2 closed form.  Both handoffs
are continuous to round-off, and their residuals are recorded in the
metadata.  ``simulate_full`` is the run plus its rows; the corner rows
follow the run's accepted steps, which the step control has already
placed on the passage's scales.  The ``Trajectory`` keeps the run's
phase map, so ``positions_at`` gives the exact state at any time, as the
rows do.

``convergence_study`` measures the sup distance to the anelastic limit
trajectory over a uniform grid, on the phase map of each run without
building its rows; ``asymptotic_report`` measures the corner flow
against its matched asymptotics on the run's accepted steps, and
``phase_portrait`` tabulates the radial vector field.  All tables go
through ``write_csv`` which prints floats with 17 significant digits so
values round-trip bit for bit; it formats each distinct bit pattern of a
column once, which gives the bytes of formatting every cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
from .errors import InvalidInput
from .linear_phase import (_check_face_start, _face_state, check_times,
                           first_crossing_time, r1_phase_state)
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

# Row times per phase: uniform on each face, and spread evenly over the
# accepted steps on the corner.
N_PHASE_SAMPLES = 601


@dataclass
class Trajectory:
    """Rows of a physical run with per-row phase labels, and its phase map.

    The rows are the run's phase map evaluated at the row times;
    ``positions_at`` evaluates the same map at any other times, so it is
    exact everywhere in [0, T], not only at rows.
    """

    t: np.ndarray               # strictly increasing times
    u: np.ndarray               # (n, 2) positions
    v: np.ndarray               # (n, 2) velocities
    phase: np.ndarray           # labels from {R1-phase, corner, R3-phase}
    metadata: dict
    # states(t) -> (u, v, phase) at sorted times t in [0, T].
    _states: Callable = field(repr=False, compare=False)

    def positions_at(self, t_grid) -> np.ndarray:
        """Positions at times in [0, T] (any shape and order); the result
        has the shape of ``t_grid`` plus a last axis of 2.  Times that are
        not finite or lie outside [0, T] raise OutOfPhase."""
        t = check_times(t_grid, 0.0, self.metadata["T"], "trajectory times")
        flat = t.ravel()
        order = np.argsort(flat, kind="stable")
        u = np.empty((flat.size, 2))
        u[order] = self._states(flat[order])[0]
        return u.reshape(t.shape + (2,))


def _horizon(config: SimConfig):
    """(t0, T): the crossing time and the run's horizon, 2 t0 by default."""
    t0 = first_crossing_time(config.init)
    return t0, (config.T if config.T is not None else 2.0 * t0)


def _run(config: SimConfig, params: ScaledParams):
    """One physical run on [0, T] at the stiffness of ``params``, the
    scaled parameters of that stiffness; the damping, initial data, wedge,
    tolerances and horizon are the config's.  Returns the run's metadata,
    its phase map and its ``CornerResult`` (None when T <= t0, where the
    run has no corner).

    The map ``states(t)`` takes sorted times t in [0, T] to (u, v, phase):
    times up to t0 go to the face-1 closed form, times in (t0, t_bar) to
    the corner run, sampled at tau = (t - t0) sqrt(k) and mapped by
    ``scaled_to_cartesian``, and times from the exit t_bar on to the
    face-2 closed form.  Face 2 starts from the (n2, d2) components of the
    exit state, ``scaled_to_cartesian`` at the angle Theta - theta_bar;
    the exit residual is |u . d2|, ``handoff_pos_exit``.  The map checks
    no times: its callers pass times they have checked or built in
    [0, T].
    """
    damping, init, cone = config.damping, config.init, config.cone
    k = params.k
    sk = math.sqrt(k)
    t0, T = _horizon(config)
    meta: dict = {"k": k, "eta": params.eta, "eps": params.eps,
                  "E": params.E, "t0": t0, "T": T}
    t_bar = math.inf
    res = None

    if T > t0:
        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=(T - t0) * sk,
                               stop_at_event=True)
        st = res.exit_state
        meta["corner_steps"] = res.n_accepted
        # Handoff residuals at t0 (both are exact formulas; record the
        # floating-point mismatch).
        _, u_c0, v_c0 = scaled_to_cartesian(params, 0.0, params.R0,
                                            params.dR0, 0.0)
        r_l, rdot_l, s_l, sdot_l = r1_phase_state(init, damping, k, t0)
        meta["handoff_pos_t0"] = float(np.linalg.norm(u_c0 - (r_l, s_l)))
        meta["handoff_vel_t0"] = float(np.linalg.norm(v_c0 - (rdot_l, sdot_l)))

        if st is not None:
            # The map at the angle Theta - theta_bar gives the exit state's
            # components along (n2, d2); u . d2 is the exit residual.
            t_bar, u_bar, v_bar = scaled_to_cartesian(
                params, st.tau, st.R, st.dR, st.Theta - cone.theta_bar)
            (y1_0, slide), (dy1_0, dy2_0) = u_bar.tolist(), v_bar.tolist()
            _check_face_start(y1_0)
            meta.update(tau_exit=st.tau, t_exit=t_bar,
                        exit_R=st.R, exit_dR=st.dR, exit_Theta=st.Theta,
                        y1_0=y1_0, dy1_0=dy1_0, dy2_0=dy2_0,
                        handoff_pos_exit=abs(slide))

    def states(t):
        # Face 1 holds t <= t0.  At large k, t_bar rounds onto t0, so face 2
        # starts no earlier than face 1 ends.
        i1 = int(np.searchsorted(t, t0, side="right"))
        i2 = max(i1, int(np.searchsorted(t, t_bar)))
        r, rdot, s, sdot = _face_state(0.0, init.dr0, init.s0, init.ds0,
                                       damping, k, t[:i1])
        u, v = [np.column_stack([r, s])], [np.column_stack([rdot, sdot])]
        if i2 > i1:
            c = res.sample((t[i1:i2] - t0) * sk)
            _, uc, vc = scaled_to_cartesian(params, c.tau, c.R, c.dR,
                                            c.Theta)
            u.append(uc)
            v.append(vc)
        if t.size > i2:
            y1, y1d, y2, y2d = _face_state(y1_0, dy1_0, 0.0, dy2_0, damping,
                                           k, t[i2:] - t_bar)
            n2, d2 = cone.face2_normal, cone.face2_direction
            u.append(np.outer(y1, n2) + np.outer(y2, d2))
            v.append(np.outer(y1d, n2) + np.outer(y2d, d2))
        phase = np.repeat([PHASE_FACE1, PHASE_CORNER, PHASE_FACE2],
                          [i1, i2 - i1, t.size - i2])
        return np.concatenate(u), np.concatenate(v), phase

    return meta, states, res


def simulate_full(config: SimConfig, t_eval=None) -> Trajectory:
    """Full three-phase trajectory for a physical run on [0, T]: the
    config must be in physical mode with a stiffness k, whose scaled
    parameters ``config.params`` drive the run.

    The rows are the run's phase map (see ``_run``) at ``N_PHASE_SAMPLES``
    uniform times on each face phase, at the ``t_eval`` times, which must
    be finite and lie in [0, T], and at the corner times t0 + tau / sqrt(k)
    for ``N_PHASE_SAMPLES`` values of tau spread evenly over the accepted
    steps of the corner run, about as many between any two adjacent
    steps, so the rows follow the scales the step control resolved, from
    the layer width to the exit.  Only steps whose times differ from t0
    count; at large k an acute passage may have none, and the corner then
    has no rows.  A corner run that ends without an exit has T as its
    last row.  ``Trajectory.positions_at`` evaluates the same map at any
    time.
    """
    if config.mode != "physical" or config.k is None:
        raise InvalidInput(
            "simulate_full requires mode 'physical' and a stiffness k; "
            "scaled runs drive the corner flow through integrate_corner")
    t0, T = _horizon(config)
    grids = [np.linspace(0.0, min(t0, T), N_PHASE_SAMPLES)]
    if t_eval is not None:
        grids.append(check_times(t_eval, 0.0, T, "t_eval times").ravel())
    meta, states, res = _run(config, config.params)
    if res is not None:
        sk = math.sqrt(meta["k"])
        # Steps that t cannot tell from t0 would only give rows at t0.
        tau = res.tau[t0 + res.tau / sk > t0]
        if tau.size:
            n = tau.size - 1
            t_corner = t0 + np.interp(np.linspace(0, n, N_PHASE_SAMPLES),
                                      np.arange(n + 1), tau) / sk
            grids.append(t_corner[t_corner <= T])
        t_bar = meta.get("t_exit", math.inf)
        if t_bar < T:
            grids.append(np.linspace(t_bar, T, N_PHASE_SAMPLES))
        elif res.exit_state is None:
            # The run ends at tau = (T - t0) sqrt(k), its horizon, but its
            # last step time may round past T: T is the last row.
            grids.append([T])

    t = np.unique(np.concatenate(grids))
    u, v, phase = states(t)
    meta["phase_counts"] = {label: int(np.sum(phase == label))
                            for label in (PHASE_FACE1, PHASE_CORNER,
                                          PHASE_FACE2)}
    return Trajectory(t=t, u=u, v=v, phase=phase, metadata=meta,
                      _states=states)


def _loglog_order(x, y) -> float | None:
    """Slope of log y against log x; None with fewer than two points or a
    y that is not positive, where the slope does not exist."""
    if len(x) < 2 or not np.all(y > 0.0):
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def convergence_study(config: SimConfig, k_list=None):
    """Sup distance to the limit trajectory per stiffness.

    The stiffnesses are ``config.sweep("k", k_list)``, each run from its
    own scaled parameters; the horizon is ``config.T``.  Each run's phase
    map is sampled after the run ends, on a uniform grid of
    ``config.n_grid`` times in [0, T]; the run builds no rows.  Returns
    (table, fitted_order): table has columns k / sup_error, and the order
    is the log-log slope of sup_error against 1/sqrt(k) (None for a single
    k or a zero error).
    """
    k_arr = np.asarray(sorted(config.sweep("k", k_list)))
    grid = np.linspace(0.0, _horizon(config)[1], config.n_grid)
    u_inf = limit_trajectory(config.init, config.cone, grid)

    errors = np.empty(k_arr.size)
    for i, k in enumerate(k_arr):
        params = scaled_params_from_physical(config.init, config.damping, k)
        states = _run(config, params)[1]
        uk = states(grid)[0]
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
    otherwise).  The etas are ``config.sweep("eta", eta_list)``.  The
    defects are maxima over the accepted steps of the corner run to tau3
    and its one sample at tau1, which gives the matching state.
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
        res = integrate_corner(params, cone, rtol=config.rtol,
                               atol=config.atol, horizon=tau3,
                               stop_at_event=False)
        # The accepted steps, with the state at tau1 inserted in order.
        at_tau1 = res.sample([tau1])
        i1 = int(np.searchsorted(res.tau, tau1))
        ev = np.insert(res.tau, i1, tau1)
        R_num = np.insert(res.R, i1, at_tau1.R)
        dR_num = np.insert(res.dR, i1, at_tau1.dR)

        m1 = ev <= tau1
        R1_ref = first_asymptotic_R1(params, ev[m1])
        err_R1[i] = float(np.max(np.abs(R_num[m1] - R1_ref) / R1_ref))

        md = (ev >= eta ** 3) & (ev <= tau1)
        dR1_ref = first_asymptotic_dR1(params, ev[md])
        err_dR1[i] = float(np.max(
            np.abs(dR_num[md] - dR1_ref) / np.abs(dR1_ref)))

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


def _column_text(col: np.ndarray) -> list[str]:
    """A column's cells as text: a float column's as ``%.17g``, each
    distinct bit pattern formatted once; any other column's as ``str``.

    Bits, not float equality, pick the distinct values, so ``-0.0`` keeps
    its sign.  The text is that of formatting every cell.
    """
    if col.dtype.kind != "f":
        return list(map(str, col.tolist()))
    bits, inverse = np.unique(col.astype(np.float64, copy=False)
                              .view(np.int64), return_inverse=True)
    text = ["%.17g" % x for x in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(data, path) -> None:
    """Write a Trajectory or a column mapping as CSV.

    Every column must be 1-D.  Float columns are printed with 17
    significant digits so reading them back reproduces the exact double;
    other columns print as ``str``.
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
    for name, col in columns.items():
        if col.ndim != 1:
            raise InvalidInput(
                f"column {name!r} must be 1-D, got shape {col.shape}")
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise InvalidInput(f"column lengths differ: {lengths}")

    names = list(columns)
    cells = [_column_text(columns[name]) for name in names]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    except OSError as exc:
        raise InvalidInput(
            f"cannot write {path}: {exc.strerror or exc}") from None
