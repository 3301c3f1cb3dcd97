"""Planar wedge geometry: the penalty field, projections and the damping force.

The admissible set K is the closed convex wedge with vertex at the origin,
opening angle ``pi - theta_bar``, bounded by

* face 1: the ray {(0, x2) : x2 <= 0} with inward normal (-1, 0), and
* face 2: the ray spanned by d = (-sin theta_bar, cos theta_bar), with
  outward unit normal n2 = (cos theta_bar, sin theta_bar).

A point is in K iff  x1 <= 0  and  x . n2 <= 0.  The complement splits into
three regions according to which part of K is closest:

* R1 = {x1 >= 0, x2 <= 0}           -> nearest point (0, x2) on face 1,
* R2 = polar wedge {x2 >= 0, x.d <= 0} -> nearest point is the vertex,
* R3 = {x.n2 >= 0, x.d >= 0}        -> nearest point (x.d) d on face 2.

These regions are the branches of ``penalty_field``, the one place that
decides which region a point is in; on overlaps (boundaries) it takes the
first of K > R1 > R2 > R3.  The spring force of the penalty model is
k(x - P_K x) and the damping force acts along the same direction:

    G(x, v) = (v . w) w / |w|^2,   w = x - P_K x,   zero inside K.

``project_onto_cone`` and ``damping_force_G`` are that field's w and G on
validated numpy 2-vectors.

All functions are pure; ConeGeometry is immutable and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

__all__ = [
    "ConeGeometry",
    "project_onto_cone",
    "damping_force_G",
    "penalty_field",
    "pi1",
    "pi2",
    "tangent_cone_project",
]

# Boundary membership uses |test| <= BOUNDARY_RTOL * (1 + |x|): tight enough
# that distinct regions never blur, loose enough to absorb round-off from
# rotations.
BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class ConeGeometry:
    """Immutable wedge description for a corner half-angle in (0, pi)."""

    theta_bar: float
    cos_theta: float = field(init=False)
    sin_theta: float = field(init=False)

    def __post_init__(self) -> None:
        th = float(self.theta_bar)
        if not math.isfinite(th) or not 0.0 < th < math.pi:
            raise InvalidInput(
                f"theta_bar must lie in (0, pi), got {self.theta_bar!r}"
            )
        object.__setattr__(self, "theta_bar", th)
        object.__setattr__(self, "cos_theta", math.cos(th))
        object.__setattr__(self, "sin_theta", math.sin(th))

    @property
    def face2_normal(self) -> np.ndarray:
        """Outward unit normal of face 2."""
        return np.array([self.cos_theta, self.sin_theta])

    @property
    def face2_direction(self) -> np.ndarray:
        """Unit vector along face 2, pointing away from the vertex."""
        return np.array([-self.sin_theta, self.cos_theta])

    @property
    def is_acute(self) -> bool:
        return self.theta_bar < math.pi / 2.0


def _as_point(p, name: str = "point") -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.shape != (2,):
        raise InvalidInput(f"{name} must be a 2-vector, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise InvalidInput(f"{name} must be finite, got {q}")
    return q


def penalty_field(x1: float, x2: float, v1: float, v2: float,
                  cone: ConeGeometry) -> tuple[float, float, float, float]:
    """Spring displacement w and damping direction G at a state, as floats.

    Returns (w1, w2, G1, G2) with w = x - P_K x and G = (v . w / |w|^2) w,
    in scalar arithmetic and without validation: the inner loop of the
    oracle.  Its branches are the regions K, R1, R2, R3, tested in that
    order.  Non-finite input propagates as NaN or inf.
    """
    c = cone.cos_theta
    s = cone.sin_theta
    if x1 <= 0.0 and x1 * c + x2 * s <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    d_dot = -x1 * s + x2 * c
    if x1 >= 0.0 and x2 <= 0.0:
        w1, w2 = x1, 0.0
    elif x2 >= 0.0 and d_dot <= 0.0:
        w1, w2 = x1, x2
    else:
        w1, w2 = x1 + d_dot * s, x2 - d_dot * c
    ww = w1 * w1 + w2 * w2
    if ww == 0.0:
        return w1, w2, 0.0, 0.0
    f = (v1 * w1 + v2 * w2) / ww
    return w1, w2, f * w1, f * w2


def project_onto_cone(point, cone: ConeGeometry) -> np.ndarray:
    """Euclidean projection P_K x = x - w, w from ``penalty_field``."""
    x1, x2 = _as_point(point).tolist()
    w1, w2, _, _ = penalty_field(x1, x2, 0.0, 0.0, cone)
    return np.array([x1 - w1, x2 - w2])


def damping_force_G(point, velocity, cone: ConeGeometry) -> np.ndarray:
    """Normal damping direction G(x, v) of ``penalty_field``; zero inside K.

    Outside K this is the component of v along the unit penalty direction,
    times that direction.  It is discontinuous across the boundary of K:
    the damping switches on only once the constraint is violated.
    """
    v1, v2 = _as_point(velocity, "velocity").tolist()
    x1, x2 = _as_point(point).tolist()
    _, _, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
    return np.array([g1, g2])


def pi1(velocity) -> np.ndarray:
    """Tangential projection onto face 1: kill the x1 component."""
    v = _as_point(velocity, "velocity")
    return np.array([0.0, v[1]])


def pi2(velocity, cone: ConeGeometry) -> np.ndarray:
    """Tangential projection onto face 2: keep the component along d."""
    v = _as_point(velocity, "velocity")
    d = cone.face2_direction
    return float(v @ d) * d


def tangent_cone_project(point, velocity, cone: ConeGeometry) -> np.ndarray:
    """Project ``velocity`` onto the tangent cone of K at a boundary point.

    At a face interior this is the tangential projection onto that face; at
    the vertex the tangent cone is K itself, so the projection coincides
    with P_K applied to the velocity (anelastic impact law).
    """
    x = _as_point(point)
    v = _as_point(velocity, "velocity")
    scale = float(np.hypot(x[0], x[1]))
    tol = BOUNDARY_RTOL * (1.0 + scale)
    if scale <= tol:
        return project_onto_cone(v, cone)
    n_dot = x[0] * cone.cos_theta + x[1] * cone.sin_theta
    if abs(x[0]) <= tol and x[1] < 0.0:
        return pi1(v)
    d_dot = -x[0] * cone.sin_theta + x[1] * cone.cos_theta
    if abs(n_dot) <= tol and d_dot > 0.0:
        return pi2(v, cone)
    raise InvalidInput(
        f"point {x} is not on the wedge boundary (within {tol:g})"
    )
