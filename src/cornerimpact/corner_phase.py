"""Scaled corner passage: adaptive integration, reconstruction, oracle.

``integrate_corner`` drives the Dormand-Prince cores in ``_kernels`` on the
reduced radial system and optionally stops at the first crossing of the
target angle theta_bar (the exit onto face 2).  ``reconstruct_cartesian``
maps scaled samples back to physical coordinates, which needs the physical
stiffness.  ``oracle_fast_time_integration`` is a deliberately independent
route: it integrates the full penalty vector field in Cartesian fast time
with scipy's DOP853 and shares no stepping code with the pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import asymptotics
from ._backend import BACKEND
from ._kernels import DENSE_P, integrate_radial
from .errors import (
    IntegrationFailure,
    InvalidInput,
    ScaleFreeRun,
    SingularRadius,
)
from .geometry import ConeGeometry, damping_force_G, project_onto_cone
from .linear_phase import DampingParams, InitialData
from .scaling import (          # noqa: F401  (re-exported API surface)
    ScaledParams,
    ScaledState,
    scaled_params_direct,
    scaled_params_from_physical,
)

__all__ = [
    "ScaledParams",
    "ScaledState",
    "CornerResult",
    "scaled_params_from_physical",
    "scaled_params_direct",
    "radial_rhs",
    "integrate_corner",
    "reconstruct_cartesian",
    "oracle_fast_time_integration",
    "OracleRun",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def radial_rhs(state: ScaledState, params: ScaledParams):
    """Right-hand side (R', R'', Theta') of the reduced corner system."""
    if not (state.R > 0.0 and math.isfinite(state.R)):
        raise SingularRadius(f"radius must be positive, got {state.R!r}")
    one = 1.0 - params.eps
    c3 = params.E * one * one
    dR = state.dR
    ddR = c3 / state.R ** 3 - 2.0 * params.damping.alpha * dR - state.R
    dTheta = math.sqrt(params.E) * one / state.R ** 2
    return dR, ddR, dTheta


@dataclass
class CornerResult:
    """Outcome of a corner integration.

    ``tau``/``R``/``dR``/``Theta`` are the accepted-step samples (always
    starting at tau = 0).  When a ``tau_eval`` grid was supplied, the
    states there are in ``eval_*`` (clipped to the part of the grid the
    run actually covered), taken from the DOPRI5 continuous extension of
    the covering step.  ``exit_state`` is set when the angle event
    fired, whether or not the run stopped there.
    """

    tau: np.ndarray
    R: np.ndarray
    dR: np.ndarray
    Theta: np.ndarray
    exit_tau: float | None
    exit_state: ScaledState | None
    reached_horizon: bool
    momentum_drift: float
    n_accepted: int
    n_rejected: int
    backend: str = BACKEND
    eval_tau: np.ndarray | None = None
    eval_R: np.ndarray | None = None
    eval_dR: np.ndarray | None = None
    eval_Theta: np.ndarray | None = None
    horizon: float = 0.0
    params: ScaledParams | None = field(default=None, repr=False)

    def states(self):
        """Iterate accepted samples as ScaledState records."""
        for i in range(len(self.tau)):
            yield ScaledState(self.tau[i], self.R[i], self.dR[i],
                              self.Theta[i])


def default_horizon(params: ScaledParams, zeta: float | None = None,
                    safety: float = 1.0) -> float:
    """Budget zeta ln(1/eta) (1 + 2 lambda2 safety) covering exit + settle."""
    damping = params.damping
    if zeta is None:
        zeta = 0.5 / abs(damping.xi1)
    elif not 0.0 < zeta < 1.0 / abs(damping.xi1):
        raise InvalidInput(
            f"zeta must lie in (0, 1/|xi1|={1.0 / abs(damping.xi1):g}), "
            f"got {zeta!r}"
        )
    lam2 = asymptotics.lyapunov_Q(damping).lambda2
    return zeta * math.log(1.0 / params.eta) * (1.0 + 2.0 * lam2 * safety)


def _dense_eval(t, y, h, k, tau):
    """DOPRI5 continuous extension at sorted offsets ``tau`` > 0.

    Step i starts at t[i] (t[0] = 0) in state y[i] (columns R, dR, Theta),
    has length h[i] and stage slopes k[i] (k1, k3 ... k7 by row).  An
    offset at the fraction x of the last step starting before it gets
    y[i] + h[i] K^T P [x, x^2, x^3, x^4].
    """
    i = np.searchsorted(t, tau, side="right") - 1
    x = (tau - t[i]) / h[i]
    weights = (x[:, None] ** np.arange(1, 5)) @ DENSE_P.T
    return y[i] + h[i, None] * np.einsum("ns,nsc->nc", weights, k[i])


def integrate_corner(params: ScaledParams, cone: ConeGeometry, *,
                     rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                     horizon: float | None = None, zeta: float | None = None,
                     horizon_safety: float = 1.0, theta_event: bool = True,
                     stop_at_event: bool = True, tau_eval=None,
                     initial_step: float | None = None,
                     max_step: float = math.inf,
                     max_steps: int = 4_000_000) -> CornerResult:
    """Integrate the scaled corner flow from tau = 0.

    The run ends at the first crossing of Theta = theta_bar (when
    ``theta_event`` and ``stop_at_event``) or at the horizon, whichever
    comes first.  With ``stop_at_event=False`` the crossing is still
    located and reported, but integration continues to the horizon.
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise InvalidInput("rtol and atol must be positive")
    if horizon is None:
        horizon = default_horizon(params, zeta=zeta, safety=horizon_safety)
    if horizon < 0.0:
        raise InvalidInput(f"horizon must be non-negative, got {horizon!r}")
    if initial_step is None:
        initial_step = 1e-3 * params.kappa
    if not (initial_step > 0.0):
        raise InvalidInput("initial step must be positive")

    if tau_eval is None:
        ev = np.empty(0)
    else:
        ev = np.asarray(tau_eval, dtype=float)
        if ev.ndim != 1 or (ev.size and (np.any(np.diff(ev) <= 0.0)
                                         or ev[0] <= 0.0)):
            raise InvalidInput(
                "tau_eval must be strictly increasing and positive")

    one = 1.0 - params.eps
    c3 = params.E * one * one
    cth = math.sqrt(params.E) * one
    theta_target = cone.theta_bar if theta_event else math.nan

    (status, n, ts, Rs, Vs, Ths, hs, ks, exit_found, exit_tau,
     exR, exV, exT, nacc, nrej) = integrate_radial(
        params.R0, params.dR0, c3, cth, params.damping.alpha, theta_target,
        float(horizon), float(rtol), float(atol), float(initial_step),
        float(max_step), max_steps, bool(stop_at_event))

    if status == 2:
        raise IntegrationFailure(
            f"step size underflow at tau ~ {ts[n - 1]:.6g}")
    if status == 3:
        raise IntegrationFailure(f"step budget {max_steps} exhausted")
    if status == 4:
        raise SingularRadius(
            f"radius collapsed toward zero near tau ~ {ts[n - 1]:.6g}")

    tau_s = ts[:n].copy()
    R_s = Rs[:n].copy()
    dR_s = Vs[:n].copy()
    Th_s = Ths[:n].copy()

    # Conserved-momentum diagnostic over the samples (round-off only for
    # the reduced system, by construction).
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (R_s ** 2) * (cth / R_s ** 2) / cth
    drift = float(np.max(np.abs(ratio - 1.0))) if n else 0.0

    exit_state = None
    et = None
    if exit_found:
        et = float(exit_tau)
        exit_state = ScaledState(et, float(exR), float(exV), float(exT))

    result = CornerResult(
        tau=tau_s, R=R_s, dR=dR_s, Theta=Th_s,
        exit_tau=et, exit_state=exit_state,
        reached_horizon=not (exit_found and stop_at_event),
        momentum_drift=drift, n_accepted=int(nacc), n_rejected=int(nrej),
        horizon=float(horizon), params=params,
    )
    if ev.size:
        # The run covers the grid up to the exit, or up to the horizon
        # within a final-step rounding.
        if exit_found and stop_at_event:
            end = exit_tau
        else:
            end = horizon * (1.0 + 1e-12)
        ev = ev[:np.searchsorted(ev, end, side="right")]
        m = n - 1
        y = np.column_stack([Rs[:m], Vs[:m], Ths[:m]])
        eval_y = _dense_eval(ts[:m], y, hs[:m], ks[:m], ev)
        result.eval_tau = ev.copy()
        result.eval_R = eval_y[:, 0]
        result.eval_dR = eval_y[:, 1]
        result.eval_Theta = eval_y[:, 2]
    return result


def reconstruct_cartesian(result: CornerResult, params: ScaledParams,
                          k: float | None = None,
                          t0: float | None = None) -> np.ndarray:
    """Physical-time positions (t, u1, u2) for the accepted corner samples.

    Needs the stiffness (taken from ``params.k`` unless given) and the
    crossing time t0; u = (eta R / sqrt k)(cos Theta, sin Theta) at
    t = t0 + tau / sqrt k.
    """
    if k is None:
        k = params.k
    if k is None:
        raise ScaleFreeRun(
            "scale-free run: physical reconstruction needs a stiffness k")
    if t0 is None:
        t0 = -params.init.s0 / params.init.ds0
    sk = math.sqrt(k)
    r = params.eta * result.R / sk
    out = np.empty((len(result.tau), 3))
    out[:, 0] = t0 + result.tau / sk
    out[:, 1] = r * np.cos(result.Theta)
    out[:, 2] = r * np.sin(result.Theta)
    return out


@dataclass
class OracleRun:
    """Direct fast-time integration of the penalty field (oracle route)."""

    t: np.ndarray
    u: np.ndarray          # (n, 2) positions
    v: np.ndarray          # (n, 2) physical-time velocities
    dense: object = field(repr=False, default=None)
    k: float = 0.0

    def sample(self, t_grid) -> np.ndarray:
        """Positions at arbitrary physical times via the dense output."""
        t_grid = np.asarray(t_grid, dtype=float)
        Y = self.dense(t_grid * math.sqrt(self.k))
        return Y[:2].T


def oracle_fast_time_integration(init: InitialData, damping: DampingParams,
                                 cone: ConeGeometry, k: float,
                                 horizon: float, *,
                                 rtol: float = DEFAULT_RTOL,
                                 atol: float = DEFAULT_ATOL) -> OracleRun:
    """Integrate u'' + 2 alpha sqrt(k) G(u, u') + k(u - P_K u) = 0 directly.

    Works in fast time tau = t sqrt(k), where the field has O(1)
    coefficients:  U'' + 2 alpha G(U, U') + (U - P_K U) = 0 (G is
    homogeneous of degree one in the velocity, so the damping term keeps
    its form).  No phase decomposition, no polar variables: this is the
    independent check for the pipeline.

    Intended for validation windows around the impact (a few crossing
    times).  On much longer horizons at large k the overshoot distance to
    the active face decays below the round-off of the O(1) Cartesian
    state, the penalty force becomes cancellation noise, and the adaptive
    steps collapse; the piecewise pipeline does not suffer from this
    because each phase is integrated in its own well-scaled variables.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidInput(f"stiffness k must be positive, got {k!r}")
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidInput(f"horizon must be positive, got {horizon!r}")
    sk = math.sqrt(k)
    alpha = damping.alpha

    def rhs(_tau, y):
        u = y[:2]
        w = y[2:]
        pu = project_onto_cone(u, cone)
        g = damping_force_G(u, w, cone)
        return np.array([w[0], w[1],
                         -2.0 * alpha * g[0] - (u[0] - pu[0]),
                         -2.0 * alpha * g[1] - (u[1] - pu[1])])

    y0 = np.array([0.0, init.s0, init.dr0 / sk, init.ds0 / sk])
    sol = solve_ivp(rhs, (0.0, horizon * sk), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise IntegrationFailure(f"oracle integration failed: {sol.message}")
    t = sol.t / sk
    u = sol.y[:2].T.copy()
    v = (sol.y[2:] * sk).T.copy()
    return OracleRun(t=t, u=u, v=v, dense=sol.sol, k=k)
