"""Scaled corner passage: adaptive integration and oracle.

``integrate_corner`` drives the Lawson Dormand-Prince cores in ``_kernels``
on the reduced radial system and locates the first crossing of the target
angle theta_bar (the exit onto face 2), stopping there unless the run
continues to its horizon; ``CornerResult.sample`` then gives its state at any
tau it covered.  Its states map back to physical coordinates through
``scaling.scaled_to_cartesian``, which needs the physical stiffness.
``oracle_fast_time_integration`` is a deliberately independent route: it
integrates the full penalty vector field in Cartesian fast time with the
scalar DOP853 of ``_dop853`` and shares no stepping code with the pipeline.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import asymptotics
from ._kernels import integrate_radial, substep_many
from .errors import IntegrationFailure, InvalidInput, SingularRadius
from .geometry import ConeGeometry, penalty_field
from .linear_phase import DampingParams, InitialData, check_times
from .scaling import ScaledParams, ScaledState, check_k

if TYPE_CHECKING:
    from ._dop853 import Solution

__all__ = [
    "CornerResult",
    "radial_rhs",
    "integrate_corner",
    "oracle_fast_time_integration",
    "OracleRun",
    "ORACLE_MAX_RHS",
    "MIN_RTOL",
    "check_rtol",
    "check_atol",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Tightest rtol the corner integrator accepts.  Below float resolution the
# error test cannot pass and a run spends millions of steps before it gives
# up; at 100 eps every tested run took at most ~5k steps.
MIN_RTOL = 100.0 * sys.float_info.epsilon
# Right-hand-side evaluations the oracle's stepping loop may spend (12 per
# DOP853 step attempt).  Validation windows need a few thousand; the
# documented step collapse (alpha = 2, theta_bar = 1, k = 1e4, rtol 1e-11)
# needs 59k to fast time 150 and 6.7M to 200.
ORACLE_MAX_RHS = 300_000


def check_rtol(rtol: float) -> float:
    """The relative-tolerance rule: MIN_RTOL <= rtol < inf."""
    if not MIN_RTOL <= rtol < math.inf:
        raise InvalidInput(f"rtol must be at least {MIN_RTOL:.3g} (100 eps) "
                           f"and finite, got {rtol!r}")
    return float(rtol)


def check_atol(atol: float) -> float:
    """The absolute-tolerance rule: 0 < atol < inf."""
    if not 0.0 < atol < math.inf:
        raise InvalidInput(f"atol must be positive and finite, got {atol!r}")
    return float(atol)


def radial_rhs(state: ScaledState, params: ScaledParams):
    """Right-hand side (R', R'', Theta') of the reduced corner system."""
    if not (state.R > 0.0 and math.isfinite(state.R)):
        raise SingularRadius(f"radius must be positive, got {state.R!r}")
    dR = state.dR
    ddR = (params.c3 / state.R ** 3 - 2.0 * params.damping.alpha * dR
           - state.R)
    dTheta = params.momentum / state.R ** 2
    return dR, ddR, dTheta


def _flow_constants(params: ScaledParams):
    """(c3, cth, xi1, xi2, 2 sqrt(D)): the kernel's view of the flow."""
    d = params.damping
    return params.c3, params.momentum, d.xi1, d.xi2, 2.0 * d.sqrt_delta


@dataclass
class CornerResult:
    """Outcome of a corner integration.

    ``tau``/``R``/``dR``/``Theta`` are the accepted-step samples (always
    starting at tau = 0; the columns of the kernel's state array), and
    ``sample`` gives the state at any tau the run covered.  ``exit_state``
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
    n_accepted: int
    n_rejected: int
    horizon: float
    params: ScaledParams = field(repr=False)
    # Read only by the benchmark's tracer; no run keeps a sample grid.
    eval_tau = None

    def sample(self, tau) -> ScaledState:
        """States at scaled times in [0, tau[-1]] (the exit, or at least
        the horizon): the single-step map ``substep_many`` from the start
        of the accepted step that holds each time, one array per field.
        Other times raise OutOfPhase; times not in a 1-D array raise
        InvalidInput."""
        tau = check_times(tau, 0.0, self.tau[-1], "corner sample times")
        if tau.ndim != 1:
            raise InvalidInput("corner sample times must be a 1-D array")
        # Sample j lies in the step that starts at sample i[j].
        i = np.searchsorted(self.tau[:-1], tau, side="right") - 1
        y = substep_many(self.R[i], self.dR[i], self.Theta[i],
                         tau - self.tau[i], *_flow_constants(self.params))
        return ScaledState(tau, y[:, 0], y[:, 1], y[:, 2])


def default_horizon(params: ScaledParams) -> float:
    """Budget tau3 (1 + 2 lambda2) covering exit + settle, where tau3 =
    zeta ln(1/eta) at the default zeta of ``asymptotic_times``."""
    damping = params.damping
    tau3 = asymptotics.asymptotic_times(params.eta, damping).tau3
    return tau3 * (1.0 + 2.0 * asymptotics.lyapunov_Q(damping).lambda2)


def integrate_corner(params: ScaledParams, cone: ConeGeometry, *,
                     rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                     horizon: float | None = None,
                     stop_at_event: bool = True) -> CornerResult:
    """Integrate the scaled corner flow from tau = 0.

    The run ends at the first crossing of Theta = theta_bar or at the
    horizon (``default_horizon`` when None), whichever comes first.  With
    ``stop_at_event=False`` the crossing is still located and reported,
    but integration continues to the horizon.  The first trial step is
    1e-3 kappa.  rtol must be at least ``MIN_RTOL``.
    """
    rtol = check_rtol(rtol)
    atol = check_atol(atol)
    if horizon is None:
        horizon = default_horizon(params)
    if not 0.0 <= horizon < math.inf:
        raise InvalidInput(
            f"horizon must be non-negative and finite, got {horizon!r}")

    ts, ys, exit, nacc, nrej = integrate_radial(
        params.R0, params.dR0, *_flow_constants(params), cone.theta_bar,
        horizon, rtol, atol, 1e-3 * params.kappa, stop_at_event)

    R, dR, Theta = ys.T.copy()
    return CornerResult(
        tau=ts, R=R, dR=dR, Theta=Theta,
        exit_tau=None if exit is None else exit[0],
        exit_state=None if exit is None else ScaledState(*exit),
        n_accepted=nacc, n_rejected=nrej, horizon=horizon, params=params)


@dataclass
class OracleRun:
    """Direct fast-time integration of the penalty field (oracle route).

    ``t`` holds the physical times of the accepted DOP853 steps, ``u`` and
    ``v`` the positions and physical-time velocities there.
    """

    t: np.ndarray
    u: np.ndarray          # (n, 2) positions
    v: np.ndarray          # (n, 2) physical-time velocities
    k: float
    horizon: float
    solution: Solution = field(repr=False)

    def sample(self, t_grid) -> np.ndarray:
        """Positions at physical times in [0, horizon] via the dense output;
        other times raise OutOfPhase."""
        t_grid = check_times(t_grid, 0.0, self.horizon, "oracle sample times")
        Y = self.solution.dense(t_grid.ravel() * math.sqrt(self.k))
        return Y[:, :2].reshape(t_grid.shape + (2,))


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

    The field is evaluated on Python floats by ``geometry.penalty_field``
    and stepped by the scalar DOP853 of ``_dop853``.

    Intended for validation windows around the impact (a few crossing
    times).  On much longer horizons at large k the overshoot distance to
    the active face decays below the round-off of the O(1) Cartesian
    state, the penalty force becomes cancellation noise, and the adaptive
    steps collapse; the piecewise pipeline does not suffer from this
    because each phase is integrated in its own well-scaled variables.
    The run raises ``IntegrationFailure`` once the next step would take it
    past ``ORACLE_MAX_RHS`` right-hand-side evaluations, or when DOP853
    fails: its step falls below float resolution, a state is not finite,
    or float arithmetic overflows.
    """
    # Only the oracle steps with DOP853, so ``import cornerimpact`` (and every
    # CLI cold start) does not load its tableau.
    from . import _dop853

    k = check_k(k)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidInput(f"horizon must be positive, got {horizon!r}")
    rtol = check_rtol(rtol)
    atol = check_atol(atol)
    sk = math.sqrt(k)
    two_alpha = 2.0 * damping.alpha

    def rhs(x1, x2, v1, v2):
        w1, w2, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
        return v1, v2, -two_alpha * g1 - w1, -two_alpha * g2 - w2

    y0 = (0.0, float(init.s0), init.dr0 / sk, init.ds0 / sk)
    sol = _dop853.solve(rhs, y0, horizon * sk, rtol, atol, ORACLE_MAX_RHS)
    if sol.failure is not None:
        tau = sol.t[-1]
        raise IntegrationFailure(
            f"oracle {sol.failure} at fast time tau ~ {tau:.6g} "
            f"(t ~ {tau / sk:.6g} of {horizon:g})")
    t = np.array(sol.t) / sk
    y = np.array(sol.y).reshape(-1, 4)
    return OracleRun(t=t, u=y[:, :2], v=y[:, 2:] * sk, k=k,
                     horizon=horizon, solution=sol)
