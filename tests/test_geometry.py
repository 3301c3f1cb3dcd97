"""The penalty field's region split, cone projection and damping direction.

Membership of each region and the expected w = x - P_K x, G and tangent-cone
projections are computed here from cos/sin of the wedge angle, not taken
from the implementation.
"""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InvalidInput,
    damping_force_G,
    penalty_field,
    pi1,
    pi2,
    project_onto_cone,
    tangent_cone_project,
)
from cornerimpact.geometry import penalty_rhs

ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)
RIGHT = ConeGeometry(math.pi / 2.0)
CONES = [ACUTE, RIGHT, OBTUSE]
# The field's cones: CONES, where cos theta_bar is 6.1e-17 at the right
# angle, and two near the ends of (0, pi).
FIELD_CONES = {"acute": ACUTE, "right": RIGHT, "obtuse": OBTUSE,
               "0.05": ConeGeometry(0.05), "3.1": ConeGeometry(3.1)}


def random_points(n, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 2))


@pytest.mark.parametrize("theta", [-0.1, 0.0, math.pi, 4.0, math.nan])
def test_cone_rejects_bad_angle(theta):
    with pytest.raises(InvalidInput):
        ConeGeometry(theta)


def test_cone_frames():
    n2 = ACUTE.face2_normal
    d = ACUTE.face2_direction
    assert n2 @ d == pytest.approx(0.0, abs=1e-16)
    assert np.hypot(*n2) == pytest.approx(1.0, rel=1e-15)
    assert np.hypot(*d) == pytest.approx(1.0, rel=1e-15)
    assert ACUTE.is_acute and not OBTUSE.is_acute and not RIGHT.is_acute


def _cos_sin(cone):
    return math.cos(cone.theta_bar), math.sin(cone.theta_bar)


def _in_K(x, cone):
    c, s = _cos_sin(cone)
    return x[0] <= 0.0 and x[0] * c + x[1] * s <= 0.0


def _region(x, cone):
    """The region of x by the wedge's lines, first of K > R1 > R2 > R3."""
    c, s = _cos_sin(cone)
    if _in_K(x, cone):
        return "K"
    if x[0] >= 0.0 and x[1] <= 0.0:
        return "R1"
    if x[1] >= 0.0 and -x[0] * s + x[1] * c <= 0.0:
        return "R2"
    return "R3"


def _expected_w(x, cone, region):
    """w = x - P_K x in closed form: 0, (x1, 0), x, or x's n2-component."""
    if region == "K":
        return np.zeros(2)
    if region == "R1":
        return np.array([x[0], 0.0])
    if region == "R2":
        return np.array(x, dtype=float)
    c, s = _cos_sin(cone)
    n_dot = x[0] * c + x[1] * s
    return np.array([n_dot * c, n_dot * s])


@pytest.mark.parametrize("point,region", [
    ((-1.0, -1.0), "K"),
    ((-1e-3, -5.0), "K"),
    ((1.0, -1.0), "R1"),
    ((2.0, -1e-9), "R1"),
    ((1.0, 0.2), "R2"),
    ((0.9, 0.9), "R2"),
    ((-0.366, 1.366), "R3"),      # n2 + d, clearly past face 2
])
def test_classify_acute_examples(point, region):
    w = penalty_field(*point, 0.0, 0.0, ACUTE)[:2]
    np.testing.assert_allclose(w, _expected_w(point, ACUTE, region),
                               rtol=0.0, atol=1e-15)


def test_classify_priority_on_boundaries():
    # Overlap points take the first branch's exact values: K's zeros on
    # both faces and at the vertex, then R1's (x1, 0) on the R1/R2 edge and
    # where face 2 continues past the vertex.
    v = (1.0, -2.0)
    d = ACUTE.face2_direction
    for x in ((0.0, -1.0), (0.0, 0.0), tuple(2.0 * d)):
        assert penalty_field(*x, *v, ACUTE) == (0.0, 0.0, 0.0, 0.0)
    for x in ((1.0, 0.0), tuple(-2.0 * d)):
        assert penalty_field(*x, *v, ACUTE) == (x[0], 0.0, v[0], 0.0)


@pytest.mark.parametrize("point,expected", [
    ((1.0, -1.0), (0.0, -1.0)),
    ((1.0, 0.2), (0.0, 0.0)),
    ((-1.0, -1.0), (-1.0, -1.0)),
])
def test_projection_examples(point, expected):
    np.testing.assert_allclose(project_onto_cone(point, ACUTE), expected,
                               atol=1e-15)


def test_projection_onto_face2():
    # n2 + d projects onto the face-2 ray at parameter 1.
    x = ACUTE.face2_normal + ACUTE.face2_direction
    np.testing.assert_allclose(project_onto_cone(x, ACUTE),
                               ACUTE.face2_direction, atol=1e-15)


@pytest.mark.parametrize("cone", CONES)
def test_projection_is_idempotent(cone):
    for x in random_points(300, seed=12):
        p = project_onto_cone(x, cone)
        q = project_onto_cone(p, cone)
        assert np.hypot(*(q - p)) <= 1e-12 * (1.0 + np.hypot(*p))


@pytest.mark.parametrize("cone", CONES)
def test_projection_lands_in_cone(cone):
    for x in random_points(300, seed=13):
        p = project_onto_cone(x, cone)
        n_dot = p @ cone.face2_normal
        slack = 1e-9 * (1.0 + np.hypot(*p))
        assert p[0] <= slack and n_dot <= slack


@pytest.mark.parametrize("cone", CONES)
def test_projection_is_nonexpansive(cone):
    pts = random_points(200, seed=14)
    for x, y in zip(pts[::2], pts[1::2]):
        px = project_onto_cone(x, cone)
        py = project_onto_cone(y, cone)
        assert np.hypot(*(px - py)) <= np.hypot(*(x - y)) * (1.0 + 1e-12)


@pytest.mark.parametrize("cone", CONES)
def test_projection_variational_inequality(cone):
    # (x - Px) . (z - Px) <= 0 for every z in K characterises P.
    rng = np.random.default_rng(15)
    zs = []
    while len(zs) < 40:
        z = rng.uniform(-3.0, 3.0, size=2)
        if _in_K(z, cone):
            zs.append(z)
    for x in random_points(100, seed=16):
        px = project_onto_cone(x, cone)
        w = x - px
        for z in zs:
            assert w @ (z - px) <= 1e-12 * (1.0 + np.hypot(*x))


@pytest.mark.parametrize("cone", CONES)
def test_projection_is_nearest_point(cone):
    rng = np.random.default_rng(17)
    for x in random_points(100, seed=18):
        px = project_onto_cone(x, cone)
        dx = np.hypot(*(x - px))
        for _ in range(20):
            z = rng.uniform(-3.0, 3.0, size=2)
            if _in_K(z, cone):
                assert dx <= np.hypot(*(x - z)) + 1e-12


@pytest.mark.parametrize("cone", CONES)
def test_moreau_decomposition_at_vertex(cone):
    # v = P_K v + (v - P_K v) with the two parts orthogonal.
    for v in random_points(300, seed=19):
        pv = project_onto_cone(v, cone)
        assert abs((v - pv) @ pv) <= 1e-12 * (1.0 + v @ v)


@pytest.mark.parametrize("cone", CONES)
def test_damping_zero_inside_cone(cone):
    count = 0
    for x in random_points(400, seed=21):
        if _in_K(x, cone):
            count += 1
            np.testing.assert_array_equal(
                damping_force_G(x, np.array([1.0, -2.0]), cone), 0.0)
    assert count > 10


def test_damping_is_normal_component():
    # Outside K, G is the component of v along the unit penalty direction.
    for i, x in enumerate(random_points(200, seed=22)):
        region = _region(x, ACUTE)
        if region == "K":
            continue
        v = random_points(1, seed=100 + i)[0]
        w = _expected_w(x, ACUTE, region)
        g = damping_force_G(x, v, ACUTE)
        expected = (v @ w) / (w @ w) * w
        np.testing.assert_allclose(g, expected, atol=1e-14)
        # Tangential velocities produce (numerically) no damping.
        t = np.array([-w[1], w[0]])
        np.testing.assert_allclose(damping_force_G(x, t, ACUTE), 0.0,
                                   atol=1e-14)


def test_damping_discontinuous_across_face():
    # Just outside face 1 the damping sees the full normal velocity; just
    # inside it vanishes.
    v = np.array([1.0, 0.5])
    outside = damping_force_G((1e-8, -1.0), v, ACUTE)
    inside = damping_force_G((-1e-8, -1.0), v, ACUTE)
    np.testing.assert_allclose(outside, [1.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(inside, [0.0, 0.0])


def _boundary_points(cone):
    """Face 1, face 2, the vertex, and both R2 edges (x2 = 0, d.x = 0)."""
    return np.array([(0.0, -2.0), tuple(1.5 * cone.face2_direction),
                     (0.0, 0.0), (2.0, 0.0), tuple(1.5 * cone.face2_normal)])


def _seeded_states(cone):
    """400 seeded points and the boundary points, with seeded velocities,
    every seventh of them zero, and fixed ones on the boundary points."""
    rng = np.random.default_rng(31)
    points = np.vstack([rng.uniform(-3.0, 3.0, (400, 2)),
                        _boundary_points(cone)])
    velocities = rng.uniform(-3.0, 3.0, points.shape)
    velocities[::7] = 0.0
    velocities[-5:] = [(1.0, -0.5), (0.0, 0.0), (-0.7, 1.2), (0.3, 0.3),
                       (2.0, 1.0)]
    return points, velocities


@pytest.mark.parametrize("cone", CONES)
def test_every_point_is_classified(cone):
    # Every point, random or on a region line, takes the closed-form w of
    # its region, and G is v's component along w; all four branches occur.
    points, velocities = _seeded_states(cone)
    c, s = _cos_sin(cone)
    regions = set()
    for x, v in zip(points, velocities):
        region = _region(x, cone)
        regions.add(region)
        out = penalty_field(*x.tolist(), *v.tolist(), cone)
        assert all(type(q) is float for q in out)
        w, g = np.array(out[:2]), np.array(out[2:])
        expected = _expected_w(x, cone, region)
        scale = np.hypot(*x) + np.hypot(*v)
        if region == "R3":
            assert abs(w @ (-s, c)) <= 1e-15 * scale
            np.testing.assert_allclose(w, expected, rtol=0.0,
                                       atol=1e-15 * scale)
        else:
            np.testing.assert_array_equal(w, expected)
        ww = expected @ expected
        g_expected = (v @ expected) / ww * expected if ww else np.zeros(2)
        np.testing.assert_allclose(g, g_expected, rtol=0.0,
                                   atol=1e-12 * scale)
        if not v.any():
            assert out[2:] == (0.0, 0.0)
    assert regions == {"K", "R1", "R2", "R3"}


def _nearest_point_in_K(x, cone):
    """P_K x as the nearest point of K: x itself, or the nearer boundary
    ray."""
    if _in_K(x, cone):
        return np.array(x, dtype=float)
    c, s = _cos_sin(cone)
    d = np.array([-s, c])
    on_face1 = np.array([0.0, min(x[1], 0.0)])
    on_face2 = max(x @ d, 0.0) * d
    return min((on_face1, on_face2), key=lambda p: np.hypot(*(x - p)))


@pytest.mark.parametrize("cone", FIELD_CONES.values(), ids=FIELD_CONES)
def test_penalty_field_matches_vector_route(cone):
    # The scalar field and its vector wrappers against P_K found as the
    # nearest point of the two boundary rays, with no region split, and G
    # as v's component along w, in every region and on the boundaries.
    points, velocities = _seeded_states(cone)
    regions = set()
    for x, v in zip(points, velocities):
        regions.add(_region(x, cone))
        out = penalty_field(*x.tolist(), *v.tolist(), cone)
        assert all(type(q) is float for q in out)
        p = _nearest_point_in_K(x, cone)
        w = x - p
        ww = w @ w
        g = (v @ w) / ww * w if ww else np.zeros(2)
        scale = np.hypot(*x) + np.hypot(*v)
        np.testing.assert_allclose(out[:2], w, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(out[2:], g, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(project_onto_cone(x, cone), p, rtol=0.0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(damping_force_G(x, v, cone), g, rtol=0.0,
                                   atol=1e-12 * scale)
        if not v.any():
            assert out[2:] == (0.0, 0.0)
    assert regions == {"K", "R1", "R2", "R3"}


def test_penalty_field_at_boundary_points():
    # Exact boundary states: no spring on the faces and the vertex, the
    # full displacement on both R2 edges.
    v = (0.4, -1.3)
    for cone in (ACUTE, OBTUSE):
        face1, face2, vertex, edge_x2, edge_d = _boundary_points(cone)
        for x in (face1, vertex):
            assert penalty_field(*x, *v, cone) == (0.0, 0.0, 0.0, 0.0)
        w1, w2, _, _ = penalty_field(*face2, *v, cone)
        assert math.hypot(w1, w2) <= 1e-15
        for x in (edge_x2, edge_d):
            w1, w2, g1, g2 = penalty_field(*x, *v, cone)
            np.testing.assert_allclose((w1, w2), x, rtol=1e-15)
            unit = x / np.hypot(*x)
            np.testing.assert_allclose((g1, g2), (unit @ v) * unit,
                                       atol=1e-15)


def test_penalty_field_propagates_non_finite_state():
    out = penalty_field(math.nan, -1.0, 0.0, 1.0, ACUTE)
    assert all(math.isnan(c) for c in out)


def _rhs_route(x1, x2, v1, v2, cone, alpha):
    """The first-order fast-time field through ``penalty_field``."""
    two_alpha = 2.0 * alpha
    w1, w2, g1, g2 = penalty_field(x1, x2, v1, v2, cone)
    return v1, v2, -two_alpha * g1 - w1, -two_alpha * g2 - w2


def _hex(values):
    return [float.hex(q) for q in values]


REGIONS = ("K", "R1", "R2", "R3")


@pytest.mark.parametrize("alpha", [1.1, 2.0, 2.9])
@pytest.mark.parametrize("cone", FIELD_CONES.values(), ids=FIELD_CONES)
def test_penalty_rhs_matches_the_penalty_field_route(cone, alpha):
    # Each region's field against the route through penalty_field, bit for
    # bit, at the states whose priority region it is: seeded points in
    # every region, the boundary points, zero velocities, signed zeros and
    # points where |w|^2 underflows, which both take the region's limit.
    points, velocities = _seeded_states(cone)
    states = [(*x, *v) for x, v in zip(points.tolist(), velocities.tolist())]
    zeros = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    c, s = _cos_sin(cone)
    tiny = [(1e-170, -1.0), (1e-170, 1e-170), (1e-170 * c, 1e-170 * s),
            (1e-170 * (c - s), 1e-170 * (s + c))]
    states += [(*x, *v) for x in zeros + [(-0.0, -2.0)] + tiny
               for v in zeros + [(0.4, -1.3)]]
    fields = dict(zip(REGIONS, (rhs for rhs, _ in penalty_rhs(cone, alpha))))
    regions = set()
    for state in states:
        region = _region(np.array(state[:2]), cone)
        regions.add(region)
        out = fields[region](*state)
        assert all(type(q) is float for q in out)
        assert _hex(out) == _hex(_rhs_route(*state, cone, alpha)), state
    assert regions == set(REGIONS)
    # Where |w|^2 underflows, the route's damping is the region's limit
    # from inside: v's component along the unit normal (1, 0) in R1 and n2
    # in R3, and v at the vertex in R2.  On a region's own line the route
    # is K's, and the field keeps that limit.  w itself is 0 there, or far
    # below the spacing of the acceleration.
    v = (0.4, -1.3)
    assert damping_force_G((1e-170, -1.0), v, cone).tolist() == [0.4, 0.0]
    v_n1 = (v[0], 0.0)
    v_n2 = ((v[0] * c + v[1] * s) * c, (v[0] * c + v[1] * s) * s)
    for region, x, g in [("R1", (0.0, -2.0), v_n1),
                         ("R1", (-0.0, -2.0), v_n1),
                         ("R1", (1e-170, -1.0), v_n1),
                         ("R2", (0.0, 0.0), v), ("R2", (1e-170, 1e-170), v),
                         ("R3", (0.0, 0.0), v_n2),
                         ("R3", (1e-170 * c, 1e-170 * s), v_n2)]:
        limit = (*v, -2.0 * alpha * g[0], -2.0 * alpha * g[1])
        np.testing.assert_allclose(fields[region](*x, *v), limit,
                                   rtol=1e-15, atol=0.0, err_msg=region)
    # 1e-8 past face 1 and past face 2, the field is within about that
    # (and R3's cancellation) of its limit on the line.
    for region, x, normal, g in [("R1", (0.0, -2.0), (1.0, 0.0), v_n1),
                                 ("R3", 1.5 * cone.face2_direction, (c, s),
                                  v_n2)]:
        limit = (*v, -2.0 * alpha * g[0], -2.0 * alpha * g[1])
        past = np.add(x, 1e-8 * np.array(normal))
        np.testing.assert_allclose(fields[region](*past, *v), limit,
                                   rtol=0.0, atol=1e-6, err_msg=region)


@pytest.mark.parametrize("cone", CONES)
def test_penalty_rhs_exits_bound_each_region(cone):
    # Each exit (p, q, j) of a region is the form positive outside it, so it
    # is not positive at the seeded points whose priority region that is,
    # and region j leaves through the same line into this region.
    regions = penalty_rhs(cone, 2.0)
    points, _ = _seeded_states(cone)
    for x in points:
        i = REGIONS.index(_region(x, cone))
        for p, q, _ in regions[i][1]:
            assert p * x[0] + q * x[1] <= 0.0, (REGIONS[i], x)
    for i, (_, exits) in enumerate(regions):
        assert len(exits) == 2
        for p, q, j in exits:
            assert (-p, -q, i) in regions[j][1]


def test_penalty_rhs_propagates_non_finite_state():
    # A non-finite component that a field reads makes its acceleration
    # non-finite: R1's w reads x1 alone, R2 and R3 read both positions, and
    # K, free flight, reads no position at all.
    reads = {"R1": (0, 2, 3), "R2": (0, 1, 2, 3), "R3": (0, 1, 2, 3)}
    fields = dict(zip(REGIONS, (rhs for rhs, _ in penalty_rhs(ACUTE, 2.0))))
    for state in [(math.nan, -1.0, 0.0, 1.0), (-1.0, math.nan, 0.5, 0.0),
                  (math.inf, -1.0, 0.0, 1.0), (1.0, 1.0, math.inf, 0.0)]:
        for region, rhs in fields.items():
            out = rhs(*state)
            assert _hex(out[:2]) == _hex(state[2:])
            if region == "K":
                assert out[2:] == (0.0, 0.0)
            elif not all(math.isfinite(state[i]) for i in reads[region]):
                assert not any(map(math.isfinite, out[2:])), (region, state)
    assert all(map(math.isnan, fields["R3"](math.nan, -1.0, 0.0, 1.0)[2:]))


def test_tangential_projections():
    v = np.array([0.3, -1.7])
    np.testing.assert_array_equal(pi1(v), [0.0, -1.7])
    d = ACUTE.face2_direction
    np.testing.assert_allclose(pi2(v, ACUTE), (v @ d) * d, atol=0.0)


def test_tangent_cone_projection_cases():
    v = np.array([2.0, 1.0])
    np.testing.assert_array_equal(
        tangent_cone_project((0.0, -1.0), v, ACUTE), pi1(v))
    x2 = 1.5 * ACUTE.face2_direction
    np.testing.assert_allclose(
        tangent_cone_project(x2, v, ACUTE), pi2(v, ACUTE), atol=1e-15)
    with pytest.raises(InvalidInput):
        tangent_cone_project((1.0, 1.0), v, ACUTE)
    # At the vertex the tangent cone is K itself.  Each u below has u2 > 0
    # and lies outside K: past face 2 it keeps (u . d) d, in the polar wedge
    # of K it stops.
    for cone in CONES:
        c, s = _cos_sin(cone)
        d = np.array([-s, c])
        for u in [(0.0, 1.0), (0.0, 2.5), (2.0, 1.0),
                  (c - 0.5 * s, s + 0.5 * c)]:
            u = np.array(u)
            assert not _in_K(u, cone)
            expected = (u @ d) * d if u @ d > 0.0 else np.zeros(2)
            np.testing.assert_allclose(
                tangent_cone_project((0.0, 0.0), u, cone), expected,
                rtol=0.0, atol=1e-15)


def test_tangent_cone_keeps_inward_velocities_at_faces():
    # At a face interior the tangent cone is the half-plane v . n <= 0:
    # a velocity into K, or along the face, is its own projection, and an
    # outward one loses only its normal component.
    np.testing.assert_array_equal(
        tangent_cone_project((0.0, -1.0), (-1.0, 0.5), ACUTE), [-1.0, 0.5])
    for cone in CONES:
        n2 = cone.face2_normal
        x2 = 1.5 * cone.face2_direction
        for x, n in (((0.0, -1.0), np.array([1.0, 0.0])), (x2, n2)):
            t = np.array([-n[1], n[0]])
            for v in (-n, -2.0 * n + 0.3 * t, 0.7 * t, -0.7 * t):
                np.testing.assert_allclose(
                    tangent_cone_project(x, v, cone), v, rtol=0.0,
                    atol=1e-15)
            np.testing.assert_allclose(
                tangent_cone_project(x, 2.0 * n - 0.3 * t, cone), -0.3 * t,
                rtol=0.0, atol=1e-15)


def test_shape_validation():
    with pytest.raises(InvalidInput):
        project_onto_cone((1.0, 2.0, 3.0), ACUTE)
    with pytest.raises(InvalidInput):
        project_onto_cone((math.inf, 0.0), ACUTE)
    with pytest.raises(InvalidInput):
        damping_force_G((1.0, 0.0), (0.0, math.nan), ACUTE)
