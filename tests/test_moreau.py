"""Anelastic impact law in the stiff limit.

The post-impact velocities have closed forms that are computed here from
scratch (cos/sin of the wedge angle), not taken from the implementation's
projection.
"""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    InvalidInput,
    build_limit,
    limit_trajectory,
    tangent_cone_project,
)

UNIT = InitialData(-1.0, 1.0, 1.0)
ACUTE = ConeGeometry(math.pi / 3.0)
RIGHT = ConeGeometry(math.pi / 2.0)
OBTUSE = ConeGeometry(2.0 * math.pi / 3.0)


def test_acute_post_velocity_closed_form():
    lim = build_limit(UNIT, ACUTE)
    # Incoming slide (0, ds0); face 2 direction d = (-sin, cos); the
    # projection keeps ds0 cos(theta_bar) of it:
    #   v_post = ds0 cos(theta_bar) (-sin(theta_bar), cos(theta_bar)).
    expected = np.array([-1.0 * math.cos(math.pi / 3) * math.sin(math.pi / 3),
                         1.0 * math.cos(math.pi / 3) ** 2])
    np.testing.assert_allclose(lim.v_post, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lim.v_post,
                               [-math.sqrt(3.0) / 4.0, 0.25],
                               rtol=0, atol=1e-12)
    assert lim.branch == "acute"
    assert lim.t0 == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(lim.v_pre, [0.0, 1.0], atol=0)


def test_post_speed_is_cosine_law():
    for theta in (0.2, 0.7, math.pi / 3, 1.4):
        cone = ConeGeometry(theta)
        lim = build_limit(InitialData(-2.0, 0.3, 2.5), cone)
        speed = float(np.linalg.norm(lim.v_post))
        assert speed == pytest.approx(2.5 * math.cos(theta), rel=1e-12)
        # Post velocity is parallel to face 2.
        d = np.array([-math.sin(theta), math.cos(theta)])
        det = lim.v_post[0] * d[1] - lim.v_post[1] * d[0]
        assert det == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("cone", [RIGHT, OBTUSE])
def test_right_and_obtuse_stop_dead(cone):
    lim = build_limit(UNIT, cone)
    np.testing.assert_allclose(lim.v_post, [0.0, 0.0], atol=1e-15)
    assert lim.branch == "obtuse"


def test_jump_dissipates_energy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = rng.uniform(0.05, math.pi - 0.05)
        v = rng.normal(size=2)
        v_post = tangent_cone_project(np.zeros(2), v, ConeGeometry(theta))
        assert np.dot(v_post, v_post) <= np.dot(v, v) * (1.0 + 1e-12)
        # The lost component is orthogonal to the kept one.
        assert abs(np.dot(v - v_post, v_post)) <= 1e-12 * (
            1.0 + np.dot(v, v))


def test_limit_trajectory_before_vertex():
    t = np.array([0.0, 0.25, 0.5, 1.0])
    pos = limit_trajectory(UNIT, ACUTE, t)
    np.testing.assert_allclose(pos[:, 0], 0.0, atol=0)
    np.testing.assert_allclose(pos[:, 1], -1.0 + t, rtol=0, atol=1e-15)
    # t0 itself belongs to the slide segment and sits at the vertex.
    np.testing.assert_allclose(pos[-1], [0.0, 0.0], atol=1e-15)


def test_limit_trajectory_after_vertex_acute():
    pos = limit_trajectory(UNIT, ACUTE, 1.8)
    expected = 0.8 * np.array([-math.sqrt(3.0) / 4.0, 0.25])
    np.testing.assert_allclose(pos, expected, rtol=0, atol=1e-12)
    assert pos.shape == (2,)


def test_limit_trajectory_after_vertex_obtuse():
    pos = limit_trajectory(UNIT, OBTUSE, np.array([1.2, 5.0, 100.0]))
    np.testing.assert_allclose(pos, 0.0, atol=0)


def test_limit_trajectory_is_continuous():
    for cone in (ACUTE, OBTUSE):
        left = limit_trajectory(UNIT, cone, 1.0 - 1e-9)
        right = limit_trajectory(UNIT, cone, 1.0 + 1e-9)
        np.testing.assert_allclose(left, right, atol=5e-9)


def test_limit_trajectory_scalar_vs_array():
    arr = limit_trajectory(UNIT, ACUTE, np.array([0.3, 1.7]))
    np.testing.assert_allclose(limit_trajectory(UNIT, ACUTE, 0.3), arr[0],
                               atol=0)
    np.testing.assert_allclose(limit_trajectory(UNIT, ACUTE, 1.7), arr[1],
                               atol=0)
    assert arr.shape == (2, 2)


def test_limit_trajectory_keeps_the_shape_of_t():
    # A scalar gives (2,) and an (m, n) array (m, n, 2), as positions_at
    # does.
    t = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 7.0]])
    for cone in (ACUTE, OBTUSE):
        grid = limit_trajectory(UNIT, cone, t)
        assert grid.shape == (2, 3, 2)
        np.testing.assert_array_equal(
            grid.reshape(6, 2), limit_trajectory(UNIT, cone, t.ravel()))
        assert limit_trajectory(UNIT, cone, 0.5).shape == (2,)


def test_limit_trajectory_rejects_negative_time():
    with pytest.raises(InvalidInput, match="t >= 0"):
        limit_trajectory(UNIT, ACUTE, -0.1)
    with pytest.raises(InvalidInput):
        limit_trajectory(UNIT, ACUTE, np.array([0.5, -1e-9]))


def test_limit_stays_in_wedge():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = rng.uniform(0.1, math.pi - 0.1)
        cone = ConeGeometry(theta)
        init = InitialData(-rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0),
                           rng.uniform(0.1, 3.0))
        ts = rng.uniform(0.0, 4.0 * build_limit(init, cone).t0, size=20)
        pos = limit_trajectory(init, cone, ts)
        assert np.all(pos[:, 0] <= 1e-12)
        assert np.all(pos @ np.array([cone.cos_theta, cone.sin_theta])
                      <= 1e-12)


def test_vertex_start_is_rejected():
    # The slide phase needs a strictly interior start on face 1.
    with pytest.raises(InvalidInput):
        InitialData(0.0, 1.0, 1.0)
