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

These regions are stated once, in ``_REGIONS``, by the signs of the linear
forms x1, x2, x.n2 and x.d (``_FORMS``); on overlaps (boundaries)
``penalty_field`` takes the first of K > R1 > R2 > R3.  Both forms of the
field are compiled from them when the module loads: ``penalty_field``,
which returns w and G, and ``penalty_rhs``, the oracle's fast-time field:
per region, that region's branch with -2 alpha G - w folded in, one
Python call per evaluation and no test of the region, and the forms
that leave it.  The spring force of the penalty model is k(x - P_K x) and
the damping force acts along the same direction:

    G(x, v) = (v . w) w / |w|^2,   w = x - P_K x,   zero inside K.

Outside K, where |w|^2 underflows to 0, both forms take G from the
region's limit in ``_REGIONS``, by the one statement of a branch
(``_branch``).

``project_onto_cone`` and ``damping_force_G`` are that field's w and G on
validated numpy 2-vectors.

All functions are pure; ConeGeometry is immutable and safe to share.
"""
from __future__ import annotations

import math
import textwrap
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


# The region split, stated once.  Each region is where two of the linear
# forms of x in ``_FORMS`` have the stated signs.  ``penalty_field`` tests
# K, R1 and R2 in that order and takes R3 otherwise, so a point on a shared
# line belongs to the earlier region.  Each form bounds two regions, with
# opposite signs, and crossing it leads from one into the other.  Outside
# K, ``w`` is x - P_K x and ``limit`` the damping G where |w|^2 is 0 (on
# the region's line with K, or where the square underflows): the limit of
# G from inside the region, v's component along the region's unit normal
# (1, 0) or n2, and v itself at the vertex in R2, the limit along the path
# x ~ v tau that reaches it.
_FORMS = {                      # name: (source, p, q) of the form p x1 + q x2
    "x1": ("x1", "1.0", "0.0"),
    "x2": ("x2", "0.0", "1.0"),
    "n_dot": ("x1 * c + x2 * s", "c", "s"),
    "d_dot": ("-x1 * s + x2 * c", "-s", "c"),
}
_REGIONS = (                    # name, sides, w, limit
    ("K", (("x1", "<="), ("n_dot", "<=")), None, None),
    ("R1", (("x1", ">="), ("x2", "<=")), "x1, 0.0", "v1, 0.0"),
    ("R2", (("x2", ">="), ("d_dot", "<=")), "x1, x2", "v1, v2"),
    ("R3", (("n_dot", ">="), ("d_dot", ">=")),
     "x1 + d_dot * s, x2 - d_dot * c",
     "(v1 * c + v2 * s) * c, (v1 * c + v2 * s) * s"),
)


def _forms(text: str) -> list[str]:
    """Assignments of the named forms that ``text`` reads."""
    return [f"{name} = {src}" for name, (src, _, _) in _FORMS.items()
            if src != name and name in text]


def _exits(sides) -> str:
    """Source of a region's exits: per side (p, q, j), the form signed to
    be positive outside the region and the region beyond that line."""
    exits = []
    for form, op in sides:
        _, p, q = _FORMS[form]
        if op == ">=":
            p, q = f"-({p})", f"-({q})"
        (j,) = [j for j, (_, other, _, _) in enumerate(_REGIONS)
                if (form, "<=" if op == ">=" else ">=") in other]
        exits.append(f"({p}, {q}, {j})")
    return f"({', '.join(exits)},)"


def _branch(w: str, limit: str, out: str) -> list[str]:
    """Statements of a region's branch outside K: its w, then G = f w with
    f = (v . w) / |w|^2, or the region's ``limit`` for G where |w|^2 is 0.
    ``out`` is the returned tuple, a template over the source of G's
    components {g1} and {g2}."""
    return [f"w1, w2 = {w}",
            "ww = w1 * w1 + w2 * w2",
            "if ww == 0.0:",
            f"    g1, g2 = {limit}",
            "    return " + out.format(g1="g1", g2="g2"),
            "f = (v1 * w1 + v2 * w2) / ww",
            "return " + out.format(g1="(f * w1)", g2="(f * w2)")]


def _field_source() -> str:
    """Source of ``penalty_field`` and ``penalty_rhs``, from ``_REGIONS``.

    Both state each region's branch with ``_branch``.  ``penalty_field``
    returns (w1, w2, G1, G2).  Each field that ``penalty_rhs`` makes is
    one region's branch, with no test of the region: it does the float
    operations of -2 alpha G - w on that branch's values, in the same
    order.  The operations that read no state (-2 alpha * 0.0 and that
    minus 0.0) are done once, when the closure is made.
    """
    tests = [" and ".join(f"{form} {op} 0.0" for form, op in sides)
             for _, sides, _, _ in _REGIONS]
    split = _forms(" ".join(tests + [w for _, _, w, _ in _REGIONS[1:]]))
    split += [f"if {tests[0]}:", "    return 0.0, 0.0, 0.0, 0.0"]
    for i, (_, _, w, limit) in enumerate(_REGIONS[1:], 1):
        head = ("else" if i == len(_REGIONS) - 1
                else f"{'if' if i == 1 else 'elif'} {tests[i]}")
        split += [f"{head}:"] + [f"    {line}" for line in _branch(
            w, limit, "w1, w2, {g1}, {g2}")]

    fields = []
    for name, _, w, limit in _REGIONS:
        fields += ["", f"def {name}(x1, x2, v1, v2):"]
        if w is None:
            fields.append("    return v1, v2, free, free")
            continue
        fields += [f"    {line}" for line in _forms(w) + _branch(
            w, limit, "v1, v2, a * {g1} - w1, a * {g2} - w2")]
    regions = ",\n            ".join(
        f"({name}, {_exits(sides)})" for name, sides, _, _ in _REGIONS)

    return f'''\
def penalty_field(x1: float, x2: float, v1: float, v2: float,
                  cone: ConeGeometry) -> tuple[float, float, float, float]:
    """Spring displacement w and damping direction G at a state, as floats.

    Returns (w1, w2, G1, G2) with w = x - P_K x and G = (v . w / |w|^2) w,
    in scalar arithmetic and without validation.  Its branches are the
    regions K, R1, R2, R3, tested in that order.  Outside K, where |w|^2
    underflows to 0, G is the region's limit from inside it.  Non-finite input
    propagates as NaN or inf.
    """
    c = cone.cos_theta
    s = cone.sin_theta
{textwrap.indent(chr(10).join(split), "    ")}


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
    free = a * 0.0 - 0.0
{textwrap.indent(chr(10).join(fields), "    ")}

    return ({regions})
'''


exec(compile(_field_source(), "<geometry.penalty_field>", "exec"), globals())


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
