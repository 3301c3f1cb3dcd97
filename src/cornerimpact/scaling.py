"""Corner-layer scaling: from physical data to the O(1) radial system.

At the first crossing time t0 the face-1 rebound has shrunk the normal
coordinate to the scale eta/sqrt(k) with

    eta = exp(xi1 t0 sqrt(k) / 2),    eps = exp((xi2 - xi1) t0 sqrt(k)),

eps being the (tiny) relative weight of the fast root.  Zooming in by

    tau = (t - t0) sqrt(k),    r = eta R / sqrt(k)

turns the vertex passage into the scaled central-force problem

    R'' - E (1-eps)^2 / R^3 + 2 alpha R' + R = 0,
    Theta' = sqrt(E) (1-eps) / R^2,

with energy-like constant E = dr0^2 ds0^2 / (4 D) and angular momentum
sqrt(E)(1-eps) conserved exactly.  Initial values at tau = 0:

    R(0)  = eta dr0 (1-eps) / (2 sqrt D),
    R'(0) = eta dr0 xi1 (1 - eps xi2/xi1) / (2 sqrt D),
    Theta(0) = 0.

Derived reference quantities: W = R'(0)^2 + E/R(0)^2 (first integral of the
undamped comparison flow), the turning time tau0 = -R'(0) R(0) / W and the
corner timescale kappa = sqrt(E)/W.  Both constructors refuse eta below
exp(-175), where these quantities leave double range, and raise
``ScaleUnderflow`` naming R0, R0^3, W, tau0 or kappa when it is zero or not
finite (1 - eps rounds to 0 at tiny k; R0^3 underflows at alpha above
~1e105).  ``check_k``, ``check_eta`` and ``check_eps`` state the rules of
the three inputs this module takes; every other consumer calls them.

The same system can be posed scale-free by prescribing eta (and an eps
policy) directly; then no physical stiffness exists and Gamma/k-dependent
reconstruction is unavailable.  ``scaled_to_cartesian`` inverts the zoom
for runs that have a stiffness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ScaleFreeRun, ScaleUnderflow
from .linear_phase import DampingParams, InitialData, first_crossing_time

__all__ = [
    "ScaledParams",
    "ScaledState",
    "check_k",
    "check_eta",
    "check_eps",
    "scaled_params_from_physical",
    "scaled_params_direct",
    "scaled_to_cartesian",
]

# Beyond this exponent, tau0 ~ eta^4 goes subnormal and W^2 ~ eta^-4
# overflows, so derived quantities stop being representable.
_UNDERFLOW_EXPONENT = -350.0


@dataclass(frozen=True)
class ScaledState:
    """Instantaneous scaled corner state."""

    tau: float
    R: float
    dR: float
    Theta: float


@dataclass(frozen=True)
class ScaledParams:
    """Parameters of the scaled corner flow.

    ``k`` and ``Gamma`` are ``None`` for scale-free runs; when derived from
    a physical stiffness, Gamma * sqrt(k) = eta^2 (1-eps) sqrt(E).
    """

    eta: float
    eps: float
    E: float
    R0: float
    dR0: float
    W: float
    tau0: float
    kappa: float
    damping: DampingParams
    init: InitialData
    k: float | None = None
    Gamma: float | None = None

    @property
    def momentum(self) -> float:
        """Conserved scaled angular momentum R^2 Theta' = sqrt(E)(1-eps)."""
        return math.sqrt(self.E) * (1.0 - self.eps)

    @property
    def c3(self) -> float:
        """Penalty coefficient E (1-eps)^2 of R'' = c3 / R^3 - ..."""
        one = 1.0 - self.eps
        return self.E * one * one


def check_k(k) -> float:
    """The stiffness rule: k is positive and finite; returns float(k)."""
    if not 0.0 < k < math.inf:
        raise InvalidInput(f"k must be positive and finite, got {k!r}")
    return float(k)


def check_eta(eta) -> float:
    """The corner-scale rule: eta lies in (0, 1); returns float(eta)."""
    if not 0.0 < eta < 1.0:
        raise InvalidInput(f"eta must lie in (0, 1), got {eta!r}")
    return float(eta)


def check_eps(eps):
    """The fast-root weight rule: 'derive' or a number in [0, 1)."""
    if not (eps == "derive" if isinstance(eps, str) else 0.0 <= eps < 1.0):
        raise InvalidInput(
            f"eps must be 'derive' or a number in [0, 1), got {eps!r}")
    return eps


def _check_scale(log_eta: float, hint: str) -> None:
    if 2.0 * log_eta < _UNDERFLOW_EXPONENT:
        raise ScaleUnderflow(
            f"eta = exp({log_eta:.5g}) leaves double range "
            f"(eta must be >= exp({_UNDERFLOW_EXPONENT / 2.0:.3g})); {hint}")


def _finish(eta: float, eps: float, damping: DampingParams, init: InitialData,
            k: float | None) -> ScaledParams:
    def representable(name: str, value: float) -> float:
        if not (value != 0.0 and math.isfinite(value)):
            raise ScaleUnderflow(
                f"the corner constant {name} = {value!r} is zero or not "
                f"finite at eta = {eta!r}, eps = {eps!r}, alpha = "
                f"{damping.alpha!r}: it leaves double range")
        return value

    sd = damping.sqrt_delta
    E = (init.dr0 * init.ds0) ** 2 / (4.0 * damping.delta)
    R0 = representable("R0", eta * init.dr0 * (1.0 - eps) / (2.0 * sd))
    representable("R0^3", R0 * R0 * R0)
    dR0 = eta * init.dr0 * (damping.xi1 - eps * damping.xi2) / (2.0 * sd)
    W = representable("W", dR0 * dR0 + E / (R0 * R0))
    tau0 = representable("tau0", -dR0 * R0 / W)
    kappa = representable("kappa", math.sqrt(E) / W)
    Gamma = None
    if k is not None:
        Gamma = eta * eta * (1.0 - eps) * math.sqrt(E) / math.sqrt(k)
    return ScaledParams(eta=eta, eps=eps, E=E, R0=R0, dR0=dR0, W=W,
                        tau0=tau0, kappa=kappa, damping=damping, init=init,
                        k=k, Gamma=Gamma)


def scaled_params_from_physical(init: InitialData, damping: DampingParams,
                                k: float) -> ScaledParams:
    """Derive the corner-layer parameters from a physical stiffness."""
    k = check_k(k)
    t0 = first_crossing_time(init)
    sk = math.sqrt(k)
    exponent = damping.xi1 * t0 * sk
    _check_scale(exponent / 2.0,
                 "use the scale-free parameterisation (eta given directly)")
    eta = math.exp(exponent / 2.0)
    eps = math.exp((damping.xi2 - damping.xi1) * t0 * sk)
    return _finish(eta, eps, damping, init, k)


def scaled_params_direct(eta: float, eps: float | str, init: InitialData,
                         damping: DampingParams) -> ScaledParams:
    """Build scaled parameters from eta directly (scale-free run).

    ``eps`` may be a number in [0, 1) (0 for the idealised limit), or
    ``"derive"`` to use the consistency relation
    eps = eta^{2 (xi2 - xi1)/xi1} implied by a shared physical origin.
    """
    eta = check_eta(eta)
    _check_scale(math.log(eta), "choose a larger eta")
    eps = check_eps(eps)
    if eps == "derive":
        eps = eta ** (2.0 * (damping.xi2 - damping.xi1) / damping.xi1)
    return _finish(eta, float(eps), damping, init, None)


def scaled_to_cartesian(params: ScaledParams, tau, R, dR, Theta):
    """Physical (t, u, v) of scaled corner states (scalars or arrays).

    t = t0 + tau / sqrt(k), u = (eta R / sqrt(k)) e_r and
    v = eta R' e_r + (eta sqrt(E)(1-eps) / R) e_Theta, with
    e_r = (cos Theta, sin Theta) and e_Theta = (-sin Theta, cos Theta).
    u and v hold the Cartesian pair on their last axis.  Passing
    Theta - phi gives the components in the frame turned by phi, e.g. the
    face-2 frame (n2, d2) at phi = theta_bar.
    """
    if params.k is None:
        raise ScaleFreeRun(
            "scale-free run: physical reconstruction needs a stiffness k")
    sk = math.sqrt(params.k)
    t = first_crossing_time(params.init) + tau / sk
    radial = params.eta * R / sk
    cross = params.eta * params.momentum / R
    cos_t, sin_t = np.cos(Theta), np.sin(Theta)
    u = _pair(radial * cos_t, radial * sin_t)
    v = _pair(params.eta * dR * cos_t - cross * sin_t,
              params.eta * dR * sin_t + cross * cos_t)
    return t, u, v


def _pair(a, b):
    """a and b on a last axis of length 2, as np.stack(axis=-1) gives them,
    without its overhead on one state."""
    out = np.empty(np.shape(a) + (2,))
    out[..., 0] = a
    out[..., 1] = b
    return out
