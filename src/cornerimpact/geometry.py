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

On overlaps (boundaries) the first of K > R1 > R2 > R3 wins.  The spring
force of the penalty model is k(x - P_K x) and the damping force acts
along the same direction:

    G(x, v) = (v . w) w / |w|^2,   w = x - P_K x,   zero inside K.

Outside K, where |w|^2 is 0, G is the region's limit from inside it.  The
field is written twice, as plain functions: ``penalty_field`` tests the
regions in priority order and returns w and G; ``penalty_rhs`` is the
oracle's fast-time field, one closure per region with -2 alpha G - w
folded in and no test of the region, and the lines that leave it.  The
two do the same float operations on each branch, and
``tests/test_geometry.py::test_penalty_rhs_matches_the_penalty_field_route``
holds them bit-equal.

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
    "penalty_rhs",
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
    in scalar arithmetic and without validation.  Its branches are the
    regions K, R1, R2, R3, tested in that order.  Outside K, where |w|^2
    is 0 (on the region's line with K, or where the square underflows), G
    is the region's limit from inside it: v's component along the unit
    normal (1, 0) in R1 and n2 in R3, and v itself at the vertex in R2, the
    limit along the path x ~ v tau that reaches it.  Non-finite input
    propagates as NaN or inf.
    """
    c = cone.cos_theta
    s = cone.sin_theta
    n_dot = x1 * c + x2 * s
    d_dot = -x1 * s + x2 * c
    if x1 <= 0.0 and n_dot <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    if x1 >= 0.0 and x2 <= 0.0:
        w1, w2, g1, g2 = x1, 0.0, v1, 0.0
    elif x2 >= 0.0 and d_dot <= 0.0:
        w1, w2, g1, g2 = x1, x2, v1, v2
    else:
        w1, w2 = x1 + d_dot * s, x2 - d_dot * c
        g1, g2 = (v1 * c + v2 * s) * c, (v1 * c + v2 * s) * s
    ww = w1 * w1 + w2 * w2
    if ww == 0.0:
        return w1, w2, g1, g2
    f = (v1 * w1 + v2 * w2) / ww
    return w1, w2, f * w1, f * w2


def penalty_rhs(cone: ConeGeometry, alpha: float):
    """The first-order penalty field in fast time, one field per region.

    Returns, for K, R1, R2 and R3 in turn, (rhs, exits).  ``rhs(x1, x2,
    v1, v2)`` is the region's smooth field (v1, v2, -2 alpha G1 - w1,
    -2 alpha G2 - w2), one call with no test of the region: inside the
    region, off its own line, (w1, w2, G1, G2) are those of
    ``penalty_field(x1, x2, v1, v2, cone)``, bit for bit, and past the
    region's lines it extends that branch.  Each exit (p, q, j) says that
    the state leaves the region where p x1 + q x2 > 0, into region j.
    These are the fields the oracle steps, one region at a time.
    """
    c = cone.cos_theta
    s = cone.sin_theta
    a = -(2.0 * alpha)
    free = a * 0.0 - 0.0  # K's acceleration, which reads no state

    def K(x1, x2, v1, v2):
        return v1, v2, free, free

    def R1(x1, x2, v1, v2):
        w1, w2 = x1, 0.0
        ww = w1 * w1 + w2 * w2
        if ww == 0.0:
            return v1, v2, a * v1 - w1, a * 0.0 - w2
        f = (v1 * w1 + v2 * w2) / ww
        return v1, v2, a * (f * w1) - w1, a * (f * w2) - w2

    def R2(x1, x2, v1, v2):
        w1, w2 = x1, x2
        ww = w1 * w1 + w2 * w2
        if ww == 0.0:
            return v1, v2, a * v1 - w1, a * v2 - w2
        f = (v1 * w1 + v2 * w2) / ww
        return v1, v2, a * (f * w1) - w1, a * (f * w2) - w2

    def R3(x1, x2, v1, v2):
        d_dot = -x1 * s + x2 * c
        w1, w2 = x1 + d_dot * s, x2 - d_dot * c
        ww = w1 * w1 + w2 * w2
        if ww == 0.0:
            vn = v1 * c + v2 * s
            return v1, v2, a * (vn * c) - w1, a * (vn * s) - w2
        f = (v1 * w1 + v2 * w2) / ww
        return v1, v2, a * (f * w1) - w1, a * (f * w2) - w2

    # The exits, per region: K leaves across x1 = 0 into R1 and x.n2 = 0
    # into R3; R1 across x1 = 0 into K and x2 = 0 into R2; R2 across
    # x2 = 0 into R1 and x.d = 0 into R3; R3 across x.n2 = 0 into K and
    # x.d = 0 into R2.
    return ((K, ((1.0, 0.0, 1), (c, s, 3))),
            (R1, ((-1.0, -0.0, 0), (0.0, 1.0, 2))),
            (R2, ((-0.0, -1.0, 1), (-s, c, 3))),
            (R3, ((-c, -s, 0), (s, -c, 2))))


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

    At a face interior the tangent cone is the half-plane v . n <= 0 of
    the face's outward normal n ((1, 0) on face 1, n2 on face 2), so only
    an outward normal component is removed: v - max(v . n, 0) n.  At the
    vertex the tangent cone is K itself, so the projection coincides with
    P_K applied to the velocity (anelastic impact law).
    """
    x = _as_point(point)
    v = _as_point(velocity, "velocity")
    scale = float(np.hypot(x[0], x[1]))
    tol = BOUNDARY_RTOL * (1.0 + scale)
    if scale <= tol:
        return project_onto_cone(v, cone)
    n_dot = x[0] * cone.cos_theta + x[1] * cone.sin_theta
    d_dot = -x[0] * cone.sin_theta + x[1] * cone.cos_theta
    if abs(x[0]) <= tol and x[1] < 0.0:
        n = np.array([1.0, 0.0])
    elif abs(n_dot) <= tol and d_dot > 0.0:
        n = cone.face2_normal
    else:
        raise InvalidInput(
            f"point {x} is not on the wedge boundary (within {tol:g})")
    return v - max(float(v @ n), 0.0) * n
