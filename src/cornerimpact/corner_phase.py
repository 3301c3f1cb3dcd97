"""Scaled corner passage: adaptive integration and oracle.

``integrate_corner`` drives the Dormand-Prince cores in ``_kernels`` on the
reduced radial system and locates the first crossing of the target angle
theta_bar (the exit onto face 2), stopping there unless the run continues
to its horizon.  Its states map back to physical coordinates through
``scaling.scaled_to_cartesian``, which needs the physical stiffness.
``oracle_fast_time_integration`` is a deliberately independent route: it
integrates the full penalty vector field in Cartesian fast time with
scipy's DOP853 and shares no stepping code with the pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import asymptotics
from ._backend import BACKEND
from ._kernels import DENSE_P, MAX_STEPS, integrate_radial
from .errors import (
    IntegrationFailure,
    InvalidInput,
    SingularRadius,
)
from .geometry import ConeGeometry, penalty_field
from .linear_phase import DampingParams, InitialData
from .scaling import ScaledParams, ScaledState

__all__ = [
    "CornerResult",
    "radial_rhs",
    "integrate_corner",
    "oracle_fast_time_integration",
    "OracleRun",
    "ORACLE_MAX_RHS",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Right-hand-side evaluations the oracle may spend (DOP853 nfev).  Validation
# windows need a few thousand; the documented step collapse (alpha = 2,
# theta_bar = 1, k = 1e4) needs 72k to fast time 150 and 8M to 200.
ORACLE_MAX_RHS = 300_000


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
    starting at tau = 0; the columns of the kernel's state array).  When a
    ``tau_eval`` grid was supplied, the states there are in ``eval_*``
    (clipped to the part of the grid the run actually covered), taken from
    the DOPRI5 continuous extension of the covering step.  ``exit_state``
    is set when the run crossed theta_bar, whether it stopped there or
    continued past the exit (``stop_at_event=False``).  ``horizon`` is the
    scaled end time the run was given.
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


def default_horizon(params: ScaledParams) -> float:
    """Budget tau3 (1 + 2 lambda2) covering exit + settle, where tau3 =
    zeta ln(1/eta) at the default zeta of ``asymptotic_times``."""
    damping = params.damping
    tau3 = asymptotics.asymptotic_times(params.eta, damping).tau3
    return tau3 * (1.0 + 2.0 * asymptotics.lyapunov_Q(damping).lambda2)


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
                     horizon: float | None = None,
                     stop_at_event: bool = True,
                     tau_eval=None) -> CornerResult:
    """Integrate the scaled corner flow from tau = 0.

    The run ends at the first crossing of Theta = theta_bar or at the
    horizon (``default_horizon`` when None), whichever comes first.  With
    ``stop_at_event=False`` the crossing is still located and reported,
    but integration continues to the horizon.  The first trial step is
    1e-3 kappa.
    """
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise InvalidInput(
            f"rtol and atol must be positive and finite, got {rtol!r}, "
            f"{atol!r}")
    if horizon is None:
        horizon = default_horizon(params)
    if not 0.0 <= horizon < math.inf:
        raise InvalidInput(
            f"horizon must be non-negative and finite, got {horizon!r}")

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

    (status, n, ts, ys, hs, ks, exit_found, exit_tau,
     exR, exV, exT, nacc, nrej) = integrate_radial(
        params.R0, params.dR0, c3, cth, params.damping.alpha,
        cone.theta_bar, float(horizon), float(rtol), float(atol),
        1e-3 * params.kappa, bool(stop_at_event))

    if status == 2:
        raise IntegrationFailure(
            f"step size underflow at tau ~ {ts[n - 1]:.6g}")
    if status == 3:
        raise IntegrationFailure(f"step budget {MAX_STEPS} exhausted")
    if status == 4:
        raise SingularRadius(
            f"radius collapsed toward zero near tau ~ {ts[n - 1]:.6g}")

    tau_s = ts[:n].copy()
    R_s, dR_s, Th_s = ys[:n].T.copy()

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
        horizon=float(horizon),
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
        eval_y = _dense_eval(ts[:m], ys[:m], hs[:m], ks[:m], ev)
        result.eval_tau = ev.copy()
        result.eval_R = eval_y[:, 0]
        result.eval_dR = eval_y[:, 1]
        result.eval_Theta = eval_y[:, 2]
    return result


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

    The field is evaluated on Python floats by ``geometry.penalty_field``.

    Intended for validation windows around the impact (a few crossing
    times).  On much longer horizons at large k the overshoot distance to
    the active face decays below the round-off of the O(1) Cartesian
    state, the penalty force becomes cancellation noise, and the adaptive
    steps collapse; the piecewise pipeline does not suffer from this
    because each phase is integrated in its own well-scaled variables.
    The run raises ``IntegrationFailure`` once it has spent
    ``ORACLE_MAX_RHS`` right-hand-side evaluations, or when DOP853 fails
    or its states are not finite.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidInput(f"stiffness k must be positive, got {k!r}")
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidInput(f"horizon must be positive, got {horizon!r}")
    sk = math.sqrt(k)
    two_alpha = 2.0 * damping.alpha
    calls = 0

    def rhs(tau, y):
        nonlocal calls
        calls += 1
        if calls > ORACLE_MAX_RHS:
            raise IntegrationFailure(
                f"oracle budget of {ORACLE_MAX_RHS} right-hand-side "
                f"evaluations exhausted at fast time tau ~ {tau:.6g} "
                f"(t ~ {tau / sk:.6g} of {horizon:g})")
        x1, x2, v1, v2 = y.tolist()
        w1, w2, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
        return v1, v2, -two_alpha * g1 - w1, -two_alpha * g2 - w2

    y0 = np.array([0.0, init.s0, init.dr0 / sk, init.ds0 / sk])
    # An overflowing state ends below as a failed or non-finite run.
    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (0.0, horizon * sk), y0, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise IntegrationFailure(f"oracle integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise IntegrationFailure("oracle states are not finite")
    t = sol.t / sk
    u = sol.y[:2].T.copy()
    v = (sol.y[2:] * sk).T.copy()
    return OracleRun(t=t, u=u, v=v, dense=sol.sol, k=k)
