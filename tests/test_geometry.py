"""Region decomposition, cone projection and damping-direction tests."""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InvalidInput,
    Region,
    classify_region,
    damping_force_G,
    penalty_direction,
    penalty_field,
    pi1,
    pi2,
    project_onto_cone,
    tangent_cone_project,
)

ACUTE = ConeGeometry(math.pi / 3.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)
RIGHT = ConeGeometry(math.pi / 2.0)
CONES = [ACUTE, RIGHT, OBTUSE]


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


@pytest.mark.parametrize("point,region", [
    ((-1.0, -1.0), Region.K),
    ((-1e-3, -5.0), Region.K),
    ((1.0, -1.0), Region.R1),
    ((2.0, -1e-9), Region.R1),
    ((1.0, 0.2), Region.R2),
    ((0.9, 0.9), Region.R2),
    ((-0.366, 1.366), Region.R3),      # n2 + d, clearly past face 2
])
def test_classify_acute_examples(point, region):
    assert classify_region(point, ACUTE) is region


def test_classify_priority_on_boundaries():
    # Overlap points resolve toward K first, then R1, R2, R3.
    assert classify_region((0.0, -1.0), ACUTE) is Region.K
    assert classify_region((0.0, 0.0), ACUTE) is Region.K
    assert classify_region((1.0, 0.0), ACUTE) is Region.R1
    d = ACUTE.face2_direction
    assert classify_region(2.0 * d, ACUTE) is Region.K
    assert classify_region(-2.0 * d, ACUTE) is Region.R1


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
def test_every_point_is_classified(cone):
    for x in random_points(400, seed=11):
        assert classify_region(x, cone) in Region


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
        if classify_region(z, cone) is Region.K:
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
            if classify_region(z, cone) is Region.K:
                assert dx <= np.hypot(*(x - z)) + 1e-12


@pytest.mark.parametrize("cone", CONES)
def test_moreau_decomposition_at_vertex(cone):
    # v = P_K v + (v - P_K v) with the two parts orthogonal.
    for v in random_points(300, seed=19):
        pv = project_onto_cone(v, cone)
        assert abs((v - pv) @ pv) <= 1e-12 * (1.0 + v @ v)


def test_penalty_direction_matches_projection():
    for x in random_points(100, seed=20):
        w = penalty_direction(x, ACUTE)
        np.testing.assert_allclose(w, x - project_onto_cone(x, ACUTE),
                                   atol=0.0)


@pytest.mark.parametrize("cone", CONES)
def test_damping_zero_inside_cone(cone):
    count = 0
    for x in random_points(400, seed=21):
        if classify_region(x, cone) is Region.K:
            count += 1
            np.testing.assert_array_equal(
                damping_force_G(x, np.array([1.0, -2.0]), cone), 0.0)
    assert count > 10


def test_damping_is_normal_component():
    # Outside K, G is the component of v along the unit penalty direction.
    for i, x in enumerate(random_points(200, seed=22)):
        if classify_region(x, ACUTE) is Region.K:
            continue
        v = random_points(1, seed=100 + i)[0]
        w = penalty_direction(x, ACUTE)
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


@pytest.mark.parametrize("cone", [ACUTE, OBTUSE], ids=["acute", "obtuse"])
def test_penalty_field_matches_vector_route(cone):
    # The oracle's scalar field against P_K and G composed from the
    # validated vector functions, in every region and on the boundaries.
    rng = np.random.default_rng(31)
    points = np.vstack([rng.uniform(-3.0, 3.0, (400, 2)),
                        _boundary_points(cone)])
    velocities = rng.uniform(-3.0, 3.0, points.shape)
    velocities[::7] = 0.0
    velocities[-5:] = [(1.0, -0.5), (0.0, 0.0), (-0.7, 1.2), (0.3, 0.3),
                       (2.0, 1.0)]
    regions = set()
    for x, v in zip(points, velocities):
        regions.add(classify_region(x, cone))
        out = penalty_field(*x.tolist(), *v.tolist(), cone)
        assert all(type(c) is float for c in out)
        w = x - project_onto_cone(x, cone)
        g = damping_force_G(x, v, cone)
        scale = np.hypot(*x) + np.hypot(*v)
        np.testing.assert_allclose(out[:2], w, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(out[2:], g, rtol=0.0, atol=1e-12 * scale)
        if not v.any():
            assert out[2:] == (0.0, 0.0)
    assert regions == set(Region)


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
    np.testing.assert_allclose(
        tangent_cone_project((0.0, 0.0), v, ACUTE),
        project_onto_cone(v, ACUTE), atol=0.0)
    with pytest.raises(InvalidInput):
        tangent_cone_project((1.0, 1.0), v, ACUTE)


def test_shape_validation():
    with pytest.raises(InvalidInput):
        classify_region((1.0, 2.0, 3.0), ACUTE)
    with pytest.raises(InvalidInput):
        project_onto_cone((math.inf, 0.0), ACUTE)
