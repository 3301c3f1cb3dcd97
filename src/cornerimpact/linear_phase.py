"""Closed forms for the linear phases (face 1 approach, face 2 exit).

While the particle penetrates a single face, the penalty system decouples
into a scalar over-damped oscillator normal to the face and free motion
along it.  With stiffness k and damping ratio alpha > 1 the normal equation

    q'' + 2 alpha sqrt(k) q' + k q = 0

has characteristic roots sqrt(k) xi_{1,2}, xi_{1,2} = -alpha +- sqrt(D),
D = alpha^2 - 1, with xi1 xi2 = 1 and xi1 + xi2 = -2 alpha.  This module
is the one place where the damped-linear flow is defined:
``characteristic_roots`` computes the roots in cancellation-free form for
the face phases, the second asymptotic of ``asymptotics`` and the corner
kernel in ``_kernels`` alike.  Its fundamental solutions in the fast time
tau = t sqrt(k) are

    K2(tau) = (e^{xi1 tau} - e^{xi2 tau}) / (2 sqrt(D))      K2(0)=0, K2'(0)=1
    H2(tau) = (-xi2 e^{xi1 tau} + xi1 e^{xi2 tau}) / (2 sqrt(D))   H2(0)=1

with H2' = -K2 (because xi1 xi2 = 1).  With q = -expm1(-2 sqrt(D) tau) /
(2 sqrt(D)) they read K2 = e^{xi1 tau} q, H2 = e^{xi1 tau} (1 - xi1 q) and
K2' = e^{xi1 tau} (1 + xi2 q): cancellation-free for small tau, and
overflow-free for large tau.  ``face_phase_state`` applies them to a
state (q, q'); the face-1 approach and the second asymptotic are that
closed form with their own initial data.

``check_times`` is the one rule for time arguments (finite, in a window
[lo, hi]); every phase formula and sampler of the package checks its
times through it, once per public call.  The formulas share one
unchecked body, which the trajectory's phase map also calls on the
times it has already checked.

Initial data: the particle starts on face 1 at (0, s0), s0 < 0, with
velocity (dr0, ds0), dr0 > 0 (into the wall), ds0 > 0 (sliding toward the
vertex), so the normal coordinate is r = x1 and the slide s = x2 reaches
the vertex at t0 = -s0/ds0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoCrossing, NotOverDamped, OutOfPhase

__all__ = [
    "DampingParams",
    "InitialData",
    "characteristic_roots",
    "first_crossing_time",
    "check_times",
    "kernels_K2_H2",
    "kernel_K2_dot",
    "r1_phase_state",
    "face_phase_state",
]


@dataclass(frozen=True)
class DampingParams:
    """Damping ratio with its derived characteristic quantities."""

    alpha: float
    delta: float        # alpha^2 - 1 > 0
    sqrt_delta: float
    xi1: float          # slow root, in (-1, 0)
    xi2: float          # fast root, xi1 * xi2 = 1


def characteristic_roots(alpha: float) -> DampingParams:
    """Roots of the damped-linear flow, shared by the face phases and the
    corner kernel.

    D as (alpha - 1)(alpha + 1) and xi1 = 1 / xi2 avoid the cancellations
    of alpha^2 - 1 near alpha = 1 and of -alpha + sqrt(D) at large alpha.
    """
    a = float(alpha)
    delta = (a - 1.0) * (a + 1.0)
    if not (a > 1.0 and delta < math.inf):
        raise NotOverDamped(
            f"alpha must exceed 1, with alpha^2 - 1 finite, got {alpha!r}")
    sd = math.sqrt(delta)
    xi2 = -a - sd
    return DampingParams(alpha=a, delta=delta, sqrt_delta=sd,
                         xi1=1.0 / xi2, xi2=xi2)


@dataclass(frozen=True)
class InitialData:
    """Face-1 start state: position (0, s0), velocity (dr0, ds0)."""

    s0: float = -1.0
    dr0: float = 1.0
    ds0: float = 1.0

    def __post_init__(self) -> None:
        if not -math.inf < self.s0 < 0.0:
            raise InvalidInput(
                f"s0 must be negative and finite, got {self.s0!r}")
        if not 0.0 < self.dr0 < math.inf:
            raise InvalidInput(
                f"dr0 must be positive and finite, got {self.dr0!r}")
        first_crossing_time(self)       # the ds0 rule


def first_crossing_time(init) -> float:
    """Time t0 = -s0/ds0 at which the slide coordinate reaches the vertex."""
    if not 0.0 < init.ds0 < math.inf:
        raise NoCrossing(f"ds0 must be positive and finite to reach the "
                         f"vertex, got {init.ds0!r}")
    return -init.s0 / init.ds0


def check_times(t, lo: float, hi: float, what: str) -> np.ndarray:
    """The time rule: every time in ``t`` is finite and lies in [lo, hi]
    (hi = inf leaves it open).  Returns ``t`` as a float array of its own
    shape; other times raise OutOfPhase, naming ``what`` and the window."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t) & (t >= lo) & (t <= hi)
    if not ok.all():
        window = (f"satisfy t >= {lo:g}" if hi == math.inf
                  else f"lie in [{lo:g}, {hi:g}]")
        raise OutOfPhase(f"{what} must be finite and {window}, got "
                         f"{float(t[~ok].flat[0])!r}")
    return t


def _envelope(damping: DampingParams, tau):
    """(K2, H2, K2') in the cancellation-free form above, which the corner
    kernel propagates with, from one e^{xi1 tau} and q; zero for tau < 0."""
    tau = np.asarray(tau, dtype=float)
    sd2 = 2.0 * damping.sqrt_delta
    grow = np.exp(damping.xi1 * tau)
    q = -np.expm1(-sd2 * tau) / sd2
    out = (grow * q, grow * (1.0 - damping.xi1 * q),
           grow * (1.0 + damping.xi2 * q))
    neg = tau < 0.0
    if np.any(neg):
        out = tuple(np.where(neg, 0.0, x) for x in out)
    return tuple(map(float, out)) if tau.ndim == 0 else out


def kernels_K2_H2(damping: DampingParams, tau):
    """Fundamental solutions (K2, H2) at fast time tau (scalar or array);
    zero for tau < 0."""
    return _envelope(damping, tau)[:2]


def kernel_K2_dot(damping: DampingParams, tau):
    """d K2 / d tau, used for velocity reconstruction; K2'(0) = 1."""
    return _envelope(damping, tau)[2]


def _check_face_start(y1_0: float) -> None:
    """The face-2 start rule: a finite y1_0 >= 0 (the particle exits the
    corner outside K)."""
    if not 0.0 <= y1_0 < math.inf:
        raise InvalidInput(
            f"y1_0 must be non-negative and finite, got {y1_0!r}")


def _face_state(y1_0: float, dy1_0: float, y2_0: float, dy2_0: float,
                damping: DampingParams, k: float, tp: np.ndarray):
    """The face closed form from (y1_0, y2_0) with velocity (dy1_0, dy2_0),
    on a float array of elapsed times, with no checks: callers have
    checked k, y1_0 and the times."""
    sk = math.sqrt(k)
    K2, H2, dK2 = _envelope(damping, tp * sk)
    y1 = dy1_0 * K2 / sk + y1_0 * H2
    # H2' = -K2, so y1dot = dy1_0 K2' + y1_0 sqrt(k) H2'
    y1dot = dy1_0 * dK2 - y1_0 * sk * K2
    y2 = y2_0 + tp * dy2_0
    y2dot = np.full_like(tp, dy2_0)
    if tp.ndim == 0:
        return float(y1), float(y1dot), float(y2), float(y2dot)
    return y1, y1dot, y2, y2dot


def r1_phase_state(init: InitialData, damping: DampingParams, k: float, t):
    """State (r, rdot, s, sdot) during the face-1 phase, 0 <= t <= t0.

    The face-2 closed form started at the origin with velocity (dr0, ds0)
    and shifted by s0: r(t) = dr0 K2(t sqrt k)/sqrt k decays after one
    fast oscillation-free rebound; the slide is free: s(t) = s0 + t ds0.
    """
    from .scaling import check_k    # scaling imports this module

    t = check_times(t, 0.0, first_crossing_time(init), "face-1 times")
    return _face_state(0.0, init.dr0, init.s0, init.ds0, damping,
                       check_k(k), t)


def face_phase_state(y1_0: float, dy1_0: float, dy2_0: float,
                     damping: DampingParams, k: float, tp):
    """State (y1, y1dot, y2, y2dot) on face 2, elapsed time tp >= 0.

    y1 is the normal penetration (over-damped spring), y2 the free slide
    away from the vertex starting at the vertex:

        y1(tp) = dy1_0 K2(tau)/sqrt k + y1_0 H2(tau),  tau = tp sqrt k,
        y2(tp) = tp dy2_0.

    Requires a finite y1_0 >= 0 (the particle exits the corner outside K).
    The face-1 approach (``r1_phase_state``) and the second asymptotic
    (k = 1) are this closed form too.
    """
    from .scaling import check_k    # scaling imports this module

    _check_face_start(y1_0)
    tp = check_times(tp, 0.0, math.inf, "face times")
    return _face_state(y1_0, dy1_0, 0.0, dy2_0, damping, check_k(k), tp)
