"""Three-phase trajectory assembly, study tables and CSV round-trips."""
import math

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    InvalidInput,
    ScaledState,
    SimConfig,
    Trajectory,
    characteristic_roots,
    convergence_study,
    critical_point,
    limit_trajectory,
    phase_portrait,
    r1_phase_state,
    radial_rhs,
    scaled_params_direct,
    simulate_full,
    write_csv,
)
from cornerimpact.harness import (
    PHASE_CORNER,
    PHASE_FACE1,
    PHASE_FACE2,
)
from cornerimpact import BACKEND, asymptotic_report

ACUTE_CFG = SimConfig().override(mode="physical", k=100.0, T=2.0)
OBTUSE_CFG = SimConfig().override(mode="physical", k=400.0, T=2.0,
                                  theta_bar=2.0 * math.pi / 3.0)


@pytest.fixture(scope="module")
def acute_traj():
    return simulate_full(ACUTE_CFG)


@pytest.fixture(scope="module")
def obtuse_traj():
    return simulate_full(OBTUSE_CFG)


def test_three_phases_in_order(acute_traj):
    labels = acute_traj.phase
    assert set(labels) == {PHASE_FACE1, PHASE_CORNER, PHASE_FACE2}
    changes = np.nonzero(labels[1:] != labels[:-1])[0]
    assert changes.size == 2
    assert labels[0] == PHASE_FACE1
    assert labels[-1] == PHASE_FACE2
    assert np.all(np.diff(acute_traj.t) > 0.0)
    counts = acute_traj.metadata["phase_counts"]
    for label in (PHASE_FACE1, PHASE_CORNER, PHASE_FACE2):
        assert counts[label] >= 500


def test_phase1_matches_closed_form(acute_traj):
    damping = characteristic_roots(ACUTE_CFG.alpha)
    init = InitialData(ACUTE_CFG.s0, ACUTE_CFG.dr0, ACUTE_CFG.ds0)
    mask = acute_traj.phase == PHASE_FACE1
    t1 = acute_traj.t[mask]
    r, rdot, s, sdot = r1_phase_state(init, damping, 100.0, t1)
    np.testing.assert_array_equal(acute_traj.u[mask, 0], r)
    np.testing.assert_array_equal(acute_traj.u[mask, 1], s)
    np.testing.assert_array_equal(acute_traj.v[mask, 0], rdot)
    np.testing.assert_array_equal(acute_traj.v[mask, 1], sdot)


def test_handoff_residuals(acute_traj):
    meta = acute_traj.metadata
    assert meta["handoff_pos_t0"] < 1e-12
    assert meta["handoff_vel_t0"] < 1e-12
    assert meta["handoff_pos_exit"] < 1e-12
    assert meta["handoff_vel_exit"] < 1e-10
    assert meta["momentum_drift"] <= 1e-14


def test_metadata_contents(acute_traj):
    meta = acute_traj.metadata
    assert meta["k"] == 100.0
    assert meta["t0"] == pytest.approx(1.0, rel=1e-15)
    assert meta["T"] == 2.0
    assert 0.0 < meta["eta"] < 1.0
    assert meta["t0"] < meta["t_exit"] < meta["T"]
    assert meta["tau_exit"] == pytest.approx(
        (meta["t_exit"] - meta["t0"]) * 10.0, rel=1e-9)
    assert abs(meta["exit_Theta"] - math.pi / 3.0) <= 1e-10
    assert meta["y1_0"] > 0.0 and meta["dy1_0"] > 0.0


def test_sample_continuity(acute_traj):
    # No phase stitching glitch: consecutive positions move by at most
    # (local speed) * dt plus a small slack.
    dt = np.diff(acute_traj.t)
    du = np.linalg.norm(np.diff(acute_traj.u, axis=0), axis=1)
    speed = np.linalg.norm(acute_traj.v, axis=1)
    vmax = np.maximum(speed[1:], speed[:-1])
    assert np.all(du <= vmax * dt * 1.2 + 1e-9)


def test_t_eval_exact_inclusion():
    pts = np.array([0.1234567, 0.75, 1.5, 1.9876])
    traj = simulate_full(ACUTE_CFG, t_eval=pts)
    for p in pts:
        assert np.any(traj.t == p)
    # positions_at is exact at sample times.
    np.testing.assert_array_equal(traj.positions_at(pts),
                                  traj.u[np.searchsorted(traj.t, pts)])


def test_t_eval_in_corner_window(acute_traj):
    t_exit = acute_traj.metadata["t_exit"]
    mid = 0.5 * (1.0 + t_exit)
    traj = simulate_full(ACUTE_CFG, t_eval=[mid])
    j = np.argmin(np.abs(traj.t - mid))
    # The mapped corner sample lands within one round-off of the request.
    assert abs(traj.t[j] - mid) <= 4.0 * np.spacing(mid)


@pytest.mark.skipif(BACKEND == "numba",
                    reason="compiled kernels do not call a patched _rhs")
def test_corner_rhs_calls_are_stepping_only(monkeypatch):
    # The ~1200 corner samples come from the dense output: right-hand-side
    # calls are the steps' stages plus a few for the exit polish.
    from cornerimpact import _kernels, harness

    calls = []
    rhs = _kernels._rhs
    monkeypatch.setattr(_kernels, "_rhs",
                        lambda *a: calls.append(1) or rhs(*a))
    runs = []
    corner = harness.integrate_corner
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: runs.append(corner(*a, **kw))
                        or runs[-1])
    traj = simulate_full(ACUTE_CFG.override(k=1e4))
    (res,) = runs
    assert res.exit_tau is not None
    assert traj.metadata["phase_counts"][PHASE_CORNER] > 0
    assert len(calls) <= 7 * (res.n_accepted + res.n_rejected) + 64


@pytest.mark.parametrize("cfg", [ACUTE_CFG, ACUTE_CFG.override(k=1e4),
                                 OBTUSE_CFG])
def test_corner_rows_are_mapped_dense_samples(monkeypatch, cfg):
    from cornerimpact import harness, scaled_to_cartesian

    runs = []
    corner = harness.integrate_corner
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: runs.append((a, corner(*a, **kw)))
                        or runs[-1][1])
    grid = np.linspace(0.0, 2.0, 400)
    traj = simulate_full(cfg, t_eval=grid)
    ((params, _), res), = runs
    t, u, v = scaled_to_cartesian(params, res.eval_tau, res.eval_R,
                                  res.eval_dR, res.eval_Theta)
    # One corner row per distinct sample time between t0 = 1 and the
    # exit, holding the first dense sample mapped to that time; the exit
    # itself is the first face-2 row.
    t_exit = traj.metadata["t_exit"]
    corner = traj.phase == PHASE_CORNER
    np.testing.assert_array_equal(traj.t[corner],
                                  np.unique(t[(t > 1.0) & (t < t_exit)]))
    first = np.searchsorted(t, traj.t[corner])
    np.testing.assert_array_equal(traj.u[corner], u[first])
    np.testing.assert_array_equal(traj.v[corner], v[first])
    assert traj.t[traj.phase == PHASE_FACE2][0] == t_exit


def test_horizon_before_crossing():
    traj = simulate_full(ACUTE_CFG.override(T=0.5))
    assert set(traj.phase) == {PHASE_FACE1}
    assert traj.t[0] == 0.0 and traj.t[-1] == 0.5
    assert "eta" not in traj.metadata


def test_default_horizon_is_twice_t0():
    traj = simulate_full(ACUTE_CFG.override(T=None))
    assert traj.metadata["T"] == pytest.approx(2.0, rel=1e-15)


def test_simulate_full_mode_validation():
    with pytest.raises(InvalidInput, match="mode 'physical'"):
        simulate_full(SimConfig().override(mode="scaled", eta=1e-2))
    with pytest.raises(InvalidInput, match="stiffness k"):
        simulate_full(SimConfig().override(mode="physical"))


def test_obtuse_lands_on_face2(obtuse_traj):
    cone = ConeGeometry(2.0 * math.pi / 3.0)
    mask = obtuse_traj.phase == PHASE_FACE2
    assert np.any(mask)
    y1 = obtuse_traj.u[mask] @ cone.face2_normal
    # Face-2 contact never releases: the overshoot stays non-negative.
    assert np.all(y1 >= -1e-12)
    # The limit stops at the vertex; the stiff run ends near it, slowly.
    assert np.linalg.norm(obtuse_traj.u[-1]) < 0.05
    assert np.linalg.norm(obtuse_traj.v[-1]) < 0.05


def test_convergence_study_single_k():
    table, order = convergence_study(ACUTE_CFG.override(n_grid=200),
                                     k_list=[100.0])
    assert order is None
    assert table["k"].shape == (1,)
    assert 0.0 < table["sup_error"][0] < 0.1


def test_convergence_study_pair():
    table, order = convergence_study(ACUTE_CFG.override(n_grid=400),
                                     k_list=[400.0, 100.0])
    assert np.all(np.diff(table["k"]) > 0.0)          # sorted ascending
    assert table["sup_error"][1] < table["sup_error"][0]
    assert 0.7 <= order <= 1.3


def test_convergence_study_rejects_bad_k():
    with pytest.raises(InvalidInput):
        convergence_study(ACUTE_CFG, k_list=[])
    with pytest.raises(InvalidInput):
        convergence_study(ACUTE_CFG, k_list=[100.0, -4.0])


def test_asymptotic_report_single_eta():
    table, fits = asymptotic_report(SimConfig(), eta_list=[1e-2])
    assert table["eta"].shape == (1,)
    assert table["err_R1"][0] < 0.05
    assert table["err_R2"][0] < 0.05
    assert table["exit_ratio"][0] == pytest.approx(1.0, abs=5e-3)
    assert math.isnan(fits["order_R1"]) and math.isnan(fits["order_R2"])


def test_asymptotic_report_rejects_bad_eta():
    with pytest.raises(InvalidInput):
        asymptotic_report(SimConfig(), eta_list=[2.0])
    with pytest.raises(InvalidInput):
        asymptotic_report(SimConfig(), eta_list=[])


def test_phase_portrait_table():
    params = scaled_params_direct(1e-2, "derive", InitialData(-1.0, 1.0, 1.0),
                                  characteristic_roots(2.0))
    table = phase_portrait(params, grid_n=5)
    assert all(table[name].shape == (26,) for name in table)
    flags = table["at_critical"]
    assert flags[-1] == 1.0 and np.all(flags[:-1] == 0.0)
    # At the rest point both components of the field vanish.
    assert table["dR_dtau"][-1] == 0.0
    assert abs(table["ddR_dtau"][-1]) < 1e-13
    # Interior rows carry dR through as the radius derivative.
    np.testing.assert_array_equal(table["dR_dtau"], table["dR"])


def test_phase_portrait_matches_pointwise_rhs():
    # The table is vectorised over dR; it must equal scalar evaluations at
    # every grid point, in R-major row order, bit for bit.  On this grid
    # both an array R**3 and R*R*R move ddR_dtau in the last bit.
    params = scaled_params_direct(1e-2, "derive", InitialData(-1.0, 2.0, 2.0),
                                  characteristic_roots(2.0))
    table = phase_portrait(params, R_range=(0.25, 2.0), grid_n=7)
    points = [(R, dR) for R in np.linspace(0.25, 2.0, 7)
              for dR in np.linspace(-1.0, 1.0, 7)]
    points.append((critical_point(params.E, params.eps), 0.0))
    ref = np.array([(R, dR) + radial_rhs(ScaledState(0.0, R, dR, 0.0),
                                         params)[:2] for R, dR in points])
    for j, name in enumerate(("R", "dR", "dR_dtau", "ddR_dtau")):
        np.testing.assert_array_equal(table[name], ref[:, j])


def test_phase_portrait_empty_and_validation():
    params = scaled_params_direct(1e-2, "derive", InitialData(-1.0, 1.0, 1.0),
                                  characteristic_roots(2.0))
    table = phase_portrait(params, grid_n=0)
    assert all(table[name].size == 0 for name in table)
    with pytest.raises(InvalidInput):
        phase_portrait(params, grid_n=-1)
    with pytest.raises(InvalidInput):
        phase_portrait(params, R_range=(0.0, 1.0))
    with pytest.raises(InvalidInput):
        phase_portrait(params, dR_range=(1.0, -1.0))


def test_write_csv_roundtrip_exact(tmp_path):
    cols = {
        "a": np.array([1.0 / 3.0, 1e-300, 0.1, -0.0, 123456789.123456789]),
        "b": np.array([math.pi, 2.0 ** -1074, 1e308, -1.5, 0.0]),
        "n": np.array([0, -7, 2 ** 53 + 1, 42, 1]),
        "s": np.array(["R1-phase", "corner", "R3-phase", "x", ""]),
    }
    path = tmp_path / "table.csv"
    write_csv(cols, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,n,s"
    for i, line in enumerate(lines[1:]):
        a, b, n, s = line.split(",")
        for name, cell in (("a", a), ("b", b)):
            parsed = np.float64(cell)
            assert parsed.tobytes() == cols[name][i].tobytes()
        assert int(n) == cols["n"][i]
        assert s == cols["s"][i]


def test_write_csv_trajectory_roundtrip(acute_traj, tmp_path):
    path = tmp_path / "traj.csv"
    write_csv(acute_traj, path)
    raw = np.genfromtxt(path, delimiter=",", names=True,
                        dtype=None, encoding="utf-8")
    assert list(raw.dtype.names) == ["t", "u1", "u2", "v1", "v2", "phase"]
    np.testing.assert_array_equal(raw["t"], acute_traj.t)
    np.testing.assert_array_equal(raw["u1"], acute_traj.u[:, 0])
    np.testing.assert_array_equal(raw["v2"], acute_traj.v[:, 1])
    assert list(raw["phase"]) == list(acute_traj.phase)


def test_write_csv_deterministic(tmp_path):
    cols = {"x": np.linspace(0.0, 1.0, 50), "y": np.sin(np.linspace(0, 1, 50))}
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(cols, p1)
    write_csv(cols, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_errors(tmp_path):
    with pytest.raises(InvalidInput, match="no columns"):
        write_csv({}, tmp_path / "empty.csv")
    with pytest.raises(InvalidInput, match="lengths differ"):
        write_csv({"a": [1.0], "b": [1.0, 2.0]}, tmp_path / "ragged.csv")


def test_trajectory_container_roundtrip():
    traj = Trajectory(t=np.array([0.0, 1.0]),
                      u=np.zeros((2, 2)), v=np.ones((2, 2)),
                      phase=np.array([PHASE_FACE1, PHASE_FACE1]))
    np.testing.assert_allclose(traj.positions_at(0.5), [0.0, 0.0], atol=0)
    assert traj.metadata == {}


def test_converges_toward_limit(acute_traj):
    # Coarse sanity that the k = 100 run already tracks the limit path.
    init = InitialData(-1.0, 1.0, 1.0)
    cone = ConeGeometry(math.pi / 3.0)
    grid = np.linspace(0.0, 2.0, 64)
    u_inf = limit_trajectory(init, cone, grid)
    err = np.max(np.linalg.norm(acute_traj.positions_at(grid) - u_inf,
                                axis=1))
    assert err < 0.05
