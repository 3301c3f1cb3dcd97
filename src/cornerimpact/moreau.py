"""The stiff limit: anelastic impact trajectory at the wedge corner.

As k -> infinity the penalty trajectories converge to the motion that
slides along face 1, reaches the vertex at t0 = -s0/ds0, and loses exactly
the velocity component outside the tangent cone there:

* acute wedge (theta_bar < pi/2): the incoming slide velocity (0, ds0)
  projects onto face 2, so the particle continues along d with speed
  ds0 cos(theta_bar);
* right or obtuse wedge: the projection is zero and the particle stops
  dead at the vertex.

This is the impact law the simulations are validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConeGeometry, pi1, tangent_cone_project
from .linear_phase import InitialData, check_times, first_crossing_time

__all__ = ["LimitTrajectory", "build_limit", "limit_trajectory"]


@dataclass(frozen=True)
class LimitTrajectory:
    """Piecewise-linear limit path with its velocity jump at the vertex."""

    t0: float
    branch: str                 # "acute" | "obtuse"
    v_pre: np.ndarray           # slide velocity before the vertex, (0, ds0)
    v_post: np.ndarray          # velocity after the vertex


def build_limit(init: InitialData, cone: ConeGeometry) -> LimitTrajectory:
    t0 = first_crossing_time(init)
    v_pre = pi1(np.array([init.dr0, init.ds0]))
    v_post = tangent_cone_project(np.zeros(2), v_pre, cone)
    branch = "acute" if cone.is_acute else "obtuse"
    return LimitTrajectory(t0=t0, branch=branch, v_pre=v_pre, v_post=v_post)


def limit_trajectory(init: InitialData, cone: ConeGeometry, t):
    """Limit position(s) at finite time(s) t >= 0; the result has the shape
    of ``t`` plus a last axis of 2.

    Before t0 the path is (0, s0 + t ds0); afterwards it leaves the vertex
    with the projected velocity (acute) or stays put (obtuse).
    """
    lim = build_limit(init, cone)
    t_arr = check_times(t, 0.0, np.inf, "limit trajectory times")
    flat = t_arr.ravel()
    out = np.zeros((flat.size, 2))
    before = flat <= lim.t0
    out[before, 1] = init.s0 + flat[before] * init.ds0
    after = ~before
    out[after] = (flat[after] - lim.t0)[:, None] * lim.v_post[None, :]
    return out.reshape(t_arr.shape + (2,))
