r"""Matched asymptotics, kernel bounds and the Lyapunov attractor data.

First (corner) asymptotic: the undamped central-force comparison orbit

    R1(tau)  = sqrt(E/W + W (tau - tau0)^2),       R1'' = E / R1^3,
    Theta1   = arctan(W (tau - tau0)/sqrt E) + arctan(W tau0 / sqrt E),

whose first integral R1'^2 + E/R1^2 = W holds exactly.  The linearisation
of the central force around R1 has the fundamental pair

    z1 = R1',        z2 = (-E/W^2 + tau (tau - tau0)) / R1,

with Wronskian z1 z2' - z2 z1' = 1, giving the variation-of-constants
kernel K(tau, sigma) = (tau - sigma) J(tau, sigma) / (R1(tau) R1(sigma)),
J = E/W + W (sigma - tau0)(tau - tau0).  The contraction constant

    I(tau) = (1/R1) \int_0^tau K / R1^3 dsigma  <=  delta = 4 / E

is evaluated here in closed form in the substituted angle
x = (sigma - tau0)/kappa = tan(phi) and compared with its analytic
ceiling.

Second (exit) asymptotic: past tau1 = eta^gamma1 the spring dominates and
R follows the damped-linear propagation of its matched state,

    R2(tau) = K2(tau - tau1) R'(tau1) + H2(tau - tau1) R(tau1),

the face closed form of ``linear_phase`` with the roots of
``characteristic_roots`` that the face phases and the corner kernel share.

Attractor data: with x = (R, R') and M = [[0, 1], [-1, -2 alpha]], the
quadratic form Q solving M^T Q + Q M = -I is

    q11 = alpha + 1/(2 alpha),  q12 = 1/2,  q22 = 1/(2 alpha),

and the centered form decays at rate at least 1/(2 lambda2) once the
radius has fallen below the trapping threshold
R_bar = margin (4 lambda2^{3/2} c3 / lambda1^{1/2})^{1/4}, and the no-event
flow settles at Rc = c3^{1/4}, with c3 = E (1-eps)^2 = ``ScaledParams.c3``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linear_phase import DampingParams, _face_state, check_times
from .scaling import check_eta

__all__ = [
    "AsymptoticTimes",
    "LyapunovData",
    "first_asymptotic_R1",
    "first_asymptotic_dR1",
    "first_asymptotic_Theta1",
    "kernel_J",
    "kernel_K",
    "kernel_solutions_z",
    "delta_bound",
    "second_asymptotic_R2",
    "asymptotic_times",
    "check_gamma1",
    "check_zeta",
    "critical_point",
    "lyapunov_F",
    "lyapunov_Q",
    "trapping_threshold",
    "obtuse_exponents",
    "exit_equivalents",
]


def first_asymptotic_R1(params, tau):
    """Undamped comparison radius R1(tau) (scalar or array)."""
    tau = np.asarray(tau, dtype=float)
    out = np.sqrt(params.E / params.W + params.W * (tau - params.tau0) ** 2)
    return float(out) if out.ndim == 0 else out


def first_asymptotic_dR1(params, tau):
    """d R1 / d tau = W (tau - tau0) / R1."""
    tau = np.asarray(tau, dtype=float)
    out = params.W * (tau - params.tau0) / first_asymptotic_R1(params, tau)
    return float(out) if out.ndim == 0 else out


def first_asymptotic_Theta1(params, tau):
    """Swept angle of the comparison orbit; Theta1(0) = 0 exactly."""
    tau = np.asarray(tau, dtype=float)
    sE = math.sqrt(params.E)
    out = (np.arctan(params.W * (tau - params.tau0) / sE)
           + math.atan(params.W * params.tau0 / sE))
    return float(out) if out.ndim == 0 else out


def kernel_J(params, tau, sigma):
    """Bilinear kernel J = E/W + W (sigma - tau0)(tau - tau0)."""
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = (params.E / params.W
           + params.W * (sigma - params.tau0) * (tau - params.tau0))
    return float(out) if out.ndim == 0 else out


def kernel_K(params, tau, sigma):
    """Variation-of-constants kernel; extended by zero for sigma > tau."""
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    J = kernel_J(params, tau, sigma)
    out = ((tau - sigma) * J
           / (first_asymptotic_R1(params, tau)
              * first_asymptotic_R1(params, sigma)))
    out = np.where(sigma > tau, 0.0, out)
    return float(out) if out.ndim == 0 else out


def kernel_solutions_z(params, tau):
    """Fundamental pair (z1, z2) of z'' + 3E z / R1^4 = 0, Wronskian 1.

    Both closed forms are regular at the turning time tau0 (the apparent
    singularity cancels against R1').
    """
    tau = np.asarray(tau, dtype=float)
    R1 = first_asymptotic_R1(params, tau)
    z1 = params.W * (tau - params.tau0) / R1
    z2 = (-params.E / params.W ** 2 + tau * (tau - params.tau0)) / R1
    if np.ndim(tau) == 0:
        return float(z1), float(z2)
    return z1, z2


def delta_bound(params, *, n_grid: int = 401, tau_max: float = 1.0):
    r"""Grid maximum of the contraction integral I(tau) vs its ceiling 4/E.

    In the substituted variable x = (sigma - tau0)/kappa the integrand is
    rational,

        I = (1 / (E (1 + y^2))) * \int_a^y (y-x)(1+xy)/(1+x^2)^2 dx,

    a = -tau0/kappa, y = (tau - tau0)/kappa.  Since y grows like 1/kappa,
    I is evaluated by closed form in the angle x = tan(phi), where the
    integrand is the bounded form (y cos(phi) - sin(phi)) (cos(phi) +
    y sin(phi)) with antiderivative

        G(phi) = (y/2) sin(2 phi) - ((y^2 - 1)/4) cos(2 phi),

    taken between atan(a) and atan(y) on the whole tau grid at once.
    Returns (delta_numeric, delta_analytic).
    """
    if n_grid < 2:
        raise InvalidInput(f"n_grid must be at least 2, got {n_grid!r}")
    a = -params.tau0 / params.kappa
    y = (np.linspace(0.0, tau_max, n_grid) - params.tau0) / params.kappa
    y = y[y > a]

    def G(phi):
        return (0.5 * y * np.sin(2.0 * phi)
                - 0.25 * (y * y - 1.0) * np.cos(2.0 * phi))

    I = (G(np.arctan(y)) - G(math.atan(a))) / (params.E * (1.0 + y * y))
    return float(I.max(initial=0.0)), 4.0 / params.E


def second_asymptotic_R2(match_state, damping: DampingParams,
                         tau1: float, tau):
    """Damped-linear continuation matched to (R, R') at tau1.

    The face closed form of ``linear_phase`` in the scaled time (k = 1)
    started from (R, R') at tau1.  Returns (R2, R2') at ``tau``; times
    that are not finite or lie before tau1 raise ``OutOfPhase``.
    """
    R_m, dR_m = match_state
    tau = check_times(tau, tau1, math.inf, "second asymptotic times")
    return _face_state(R_m, dR_m, 0.0, 0.0, damping, 1.0, tau - tau1)[:2]


@dataclass(frozen=True)
class AsymptoticTimes:
    """Reference times of the corner passage at scale eta."""

    eta: float
    gamma1: float
    zeta: float
    tau1: float
    tau2: float
    tau3: float


def check_gamma1(gamma1: float) -> float:
    """The matching-exponent rule: gamma1 lies in (1, 4/3)."""
    if not 1.0 < gamma1 < 4.0 / 3.0:
        raise InvalidInput(f"gamma1 must lie in (1, 4/3), got {gamma1!r}")
    return gamma1


def check_zeta(zeta: float, damping: DampingParams) -> float:
    """The reference-time rule: zeta lies in (0, 1/|xi1|)."""
    if not 0.0 < zeta < 1.0 / abs(damping.xi1):
        raise InvalidInput(f"zeta must lie in (0, 1/|xi1|="
                           f"{1.0 / abs(damping.xi1):g}), got {zeta!r}")
    return zeta


def asymptotic_times(eta: float, damping: DampingParams,
                     gamma1: float = 1.2,
                     zeta: float | None = None) -> AsymptoticTimes:
    """tau1 = eta^gamma1, tau2 and tau3 = zeta ln(1/eta); zeta defaults to
    1/(2 |xi1|)."""
    eta = check_eta(eta)
    gamma1 = check_gamma1(gamma1)
    zeta = (0.5 / abs(damping.xi1) if zeta is None
            else check_zeta(zeta, damping))
    tau1 = eta ** gamma1
    tau2 = (2.0 * math.log(damping.xi2 / damping.xi1)
            / (damping.xi1 - damping.xi2))
    tau3 = zeta * math.log(1.0 / eta)
    return AsymptoticTimes(eta=eta, gamma1=gamma1, zeta=zeta,
                           tau1=tau1, tau2=tau2, tau3=tau3)


def critical_point(params) -> float:
    """Rest radius of the damped radial flow, Rc = c3^{1/4}."""
    return params.c3 ** 0.25


def lyapunov_F(params, R, dR):
    """Monotone energy F = R^2 + c3/R^2 + R'^2 (F' = -4 alpha R'^2)."""
    R = np.asarray(R, dtype=float)
    dR = np.asarray(dR, dtype=float)
    out = R ** 2 + params.c3 / R ** 2 + dR ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LyapunovData:
    """Quadratic form data for the linear part x' = M x, M=[[0,1],[-1,-2a]]."""

    Q: np.ndarray
    lambda1: float
    lambda2: float


def lyapunov_Q(damping: DampingParams) -> LyapunovData:
    """Closed-form solution of M^T Q + Q M = -I with its eigenvalues."""
    a = damping.alpha
    Q = np.array([[a + 0.5 / a, 0.5], [0.5, 0.5 / a]])
    lam = np.linalg.eigvalsh(Q)
    return LyapunovData(Q=Q, lambda1=float(lam[0]), lambda2=float(lam[1]))


def trapping_threshold(params, margin: float = 1.01) -> float:
    """Radius below which the Q-form decays at rate >= 1/(2 lambda2).

    R_bar = margin (4 lambda2^{3/2} c3 / lambda1^{1/2})^{1/4}.
    """
    if not 1.0 <= margin < math.inf:
        raise InvalidInput(
            f"margin must be at least 1 and finite, got {margin!r}")
    lyap = lyapunov_Q(params.damping)
    val = 4.0 * lyap.lambda2 ** 1.5 * params.c3 / math.sqrt(lyap.lambda1)
    return margin * val ** 0.25


def obtuse_exponents(gamma1: float, damping: DampingParams):
    """Exponents governing the obtuse exit-time lower bounds.

    Returns (r, right_angle_exponent): r = min(gamma1, 4 sqrt(D)/|xi1|),
    and for the right-angle wedge the exit time is bounded below by a
    constant times eta^{max(2 - r, gamma1)}.
    """
    gamma1 = check_gamma1(gamma1)
    r = min(gamma1, 4.0 * damping.sqrt_delta / abs(damping.xi1))
    return r, max(2.0 - r, gamma1)


def exit_equivalents(params, cone, times: AsymptoticTimes):
    """Leading-order exit data (tau_bar, R, R', Theta') estimates.

    Acute wedge: the comparison orbit crosses theta_bar at

        tau_bar ~ tau0 + sqrt(E) tan(theta_bar) / W,
        R(tau_bar)  ~ dr0 eta / (2 cos(theta_bar) sqrt D),
        R'(tau_bar) ~ ds0 sin(theta_bar) / eta.

    At or beyond a right angle no sharp exit equivalent exists (only lower
    bounds); the returned tuple then carries tau3 and zeta of ``times``
    (``asymptotic_times`` at the same eta) with the late-time scalings
    R(tau3) ~ ds0 eta^{-(1+zeta xi1)}/(2 sqrt D), R'(tau3) ~ xi1 R(tau3).
    """
    damping = params.damping
    init = params.init
    sd = damping.sqrt_delta
    if cone.is_acute:
        tau_bar = (params.tau0
                   + math.sqrt(params.E) * math.tan(cone.theta_bar)
                   / params.W)
        R_est = init.dr0 * params.eta / (2.0 * cone.cos_theta * sd)
        dR_est = init.ds0 * cone.sin_theta / params.eta
    else:
        tau_bar = times.tau3
        R_est = (init.ds0 / (2.0 * sd)
                 * params.eta ** (-(1.0 + times.zeta * damping.xi1)))
        dR_est = damping.xi1 * R_est
    dTheta_est = params.momentum / R_est ** 2
    return tau_bar, R_est, dR_est, dTheta_est
