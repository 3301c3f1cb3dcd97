"""Three-phase trajectory assembly, study tables and CSV round-trips."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from cornerimpact import (
    ConeGeometry,
    InitialData,
    InvalidInput,
    NumericFailure,
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
    scaled_params_from_physical,
    scaled_to_cartesian,
    simulate_full,
    write_csv,
)
from cornerimpact import harness, scaling
from cornerimpact.harness import (
    PHASE_CORNER,
    PHASE_FACE1,
    PHASE_FACE2,
)
from cornerimpact import asymptotic_report

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


@pytest.mark.parametrize("cfg", [ACUTE_CFG, OBTUSE_CFG],
                         ids=["acute", "obtuse"])
def test_face2_starts_from_the_mapped_exit_state(cfg):
    meta = simulate_full(cfg).metadata
    cone = ConeGeometry(cfg.theta_bar)
    params = scaled_params_from_physical(
        InitialData(cfg.s0, cfg.dr0, cfg.ds0),
        characteristic_roots(cfg.alpha), cfg.k)
    exit_state = (meta["tau_exit"], meta["exit_R"], meta["exit_dR"])
    # The start state is the map in the face-2 frame, bit for bit ...
    t_bar, u, v = scaled_to_cartesian(params, *exit_state,
                                      meta["exit_Theta"] - cone.theta_bar)
    assert t_bar == meta["t_exit"]
    assert [meta["y1_0"], meta["dy1_0"], meta["dy2_0"]] == [u[0], v[0], v[1]]
    assert meta["handoff_pos_exit"] == abs(u[1])
    # ... and the (n2, d2) projections of the Cartesian exit state up to
    # the rounding of the projection.
    _, uc, vc = scaled_to_cartesian(params, *exit_state, meta["exit_Theta"])
    n2, d2 = cone.face2_normal, cone.face2_direction
    ulp = np.finfo(float).eps
    assert abs(uc @ n2 - meta["y1_0"]) <= 4 * ulp * np.linalg.norm(uc)
    assert abs(uc @ d2) <= 4 * ulp * np.linalg.norm(uc)
    for got, want in ((vc @ n2, meta["dy1_0"]), (vc @ d2, meta["dy2_0"])):
        assert abs(got - want) <= 4 * ulp * np.linalg.norm(vc)


def test_exit_handoff_residual_sees_an_exit_off_face2(monkeypatch):
    # Shift the located exit angle; the residual must report the distance
    # R sin(shift) of the exit from face 2's starting line.
    radius = simulate_full(ACUTE_CFG).metadata["y1_0"]
    real = harness.integrate_corner

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.exit_state = dataclasses.replace(
            res.exit_state, Theta=res.exit_state.Theta + shift)
        return res

    monkeypatch.setattr(harness, "integrate_corner", shifted)
    for shift in (1e-8, 1e-6, 1e-4):
        residual = simulate_full(ACUTE_CFG).metadata["handoff_pos_exit"]
        assert residual == pytest.approx(radius * math.sin(shift), rel=1e-6)


def test_metadata_contents(acute_traj):
    meta = acute_traj.metadata
    assert meta["k"] == 100.0
    assert meta["t0"] == pytest.approx(1.0, rel=1e-15)
    assert meta["T"] == 2.0
    assert 0.0 < meta["eta"] < 1.0
    assert meta["t0"] < meta["t_exit"] < meta["T"]
    assert meta["tau_exit"] == pytest.approx(
        (meta["t_exit"] - meta["t0"]) * 10.0, rel=1e-9)
    assert abs(meta["exit_Theta"] - math.pi / 3.0) <= 1e-14
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


def test_unordered_trajectory_is_numeric_failure(monkeypatch, capsys):
    # Trajectory assembly that breaks the time order is an internal
    # breakdown, not bad input: NumericFailure, and the CLI exits 3.
    from cornerimpact import harness
    from cornerimpact.cli import main

    grid = harness._merged_grid
    monkeypatch.setattr(harness, "_merged_grid", lambda *a: grid(*a)[::-1])
    with pytest.raises(NumericFailure, match="not increasing") as info:
        simulate_full(ACUTE_CFG)
    assert not isinstance(info.value, InvalidInput)
    assert main(["simulate", "--k", "100", "--T", "2.0"]) == 3
    assert "not increasing" in capsys.readouterr().err


def test_corner_attempts_are_stepping_only(monkeypatch):
    # The ~1200 corner samples come from the vectorised single-step map,
    # which takes no trial step: the trial steps are the run's accepted and
    # rejected steps plus a few single-step re-runs of the exit search.
    from cornerimpact import _kernels, harness

    calls = []
    attempt = _kernels._attempt
    monkeypatch.setattr(_kernels, "_attempt",
                        lambda *a: calls.append(1) or attempt(*a))
    runs = []
    corner = harness.integrate_corner
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: runs.append(corner(*a, **kw))
                        or runs[-1])
    traj = simulate_full(ACUTE_CFG.override(k=1e4))
    (res,) = runs
    assert res.exit_tau is not None
    assert traj.metadata["phase_counts"][PHASE_CORNER] > 0
    assert len(calls) <= res.n_accepted + res.n_rejected + 16


@pytest.mark.parametrize("cfg", [ACUTE_CFG, ACUTE_CFG.override(k=1e4),
                                 OBTUSE_CFG])
def test_corner_rows_are_mapped_dense_samples(monkeypatch, cfg):
    from cornerimpact.corner_phase import CornerResult

    samples = []
    sample = CornerResult.sample
    monkeypatch.setattr(CornerResult, "sample",
                        lambda self, tau: samples.append(
                            (self, sample(self, tau))) or samples[-1][1])
    grid = np.linspace(0.0, 2.0, 400)
    traj = simulate_full(cfg, t_eval=grid)
    ((res, st),) = samples
    t, u, v = scaled_to_cartesian(res.params, st.tau, st.R, st.dR, st.Theta)
    # One corner row per sample, at distinct times between t0 = 1 and the
    # exit, holding the sample mapped to that time; the exit itself is the
    # first face-2 row.
    t_exit = traj.metadata["t_exit"]
    corner = traj.phase == PHASE_CORNER
    np.testing.assert_array_equal(traj.t[corner], t)
    assert np.all(np.diff(t, prepend=1.0) > 0.0) and t[-1] < t_exit
    np.testing.assert_array_equal(traj.u[corner], u)
    np.testing.assert_array_equal(traj.v[corner], v)
    assert traj.t[traj.phase == PHASE_FACE2][0] == t_exit


@pytest.mark.parametrize("cfg", [ACUTE_CFG, ACUTE_CFG.override(k=1e4),
                                 OBTUSE_CFG])
def test_every_evaluated_corner_sample_is_a_row(monkeypatch, cfg):
    # The corner grid is sampled once the run has ended, and only at the
    # times that become rows: none is evaluated and then dropped.
    from cornerimpact import corner_phase

    evaluated = []
    many = corner_phase.substep_many
    monkeypatch.setattr(corner_phase, "substep_many",
                        lambda *a: evaluated.append(a[3].size) or many(*a))
    traj = simulate_full(cfg)
    rows = traj.metadata["phase_counts"][PHASE_CORNER]
    assert rows > 0 and sum(evaluated) == rows


def test_long_horizon_keeps_corner_rows():
    # At k = 1e4 the acute exit comes at tau ~ 1.2e-12.  A horizon of
    # T = 1e6 (tau_end = 1e8) must not lift the corner grid's floor past
    # the exit, which would leave the corner with no rows.
    short = simulate_full(ACUTE_CFG.override(k=1e4))
    far = simulate_full(ACUTE_CFG.override(k=1e4, T=1e6))
    assert far.metadata["tau_exit"] == short.metadata["tau_exit"] < 2e-12
    assert far.metadata["phase_counts"][PHASE_CORNER] >= 30


def test_horizon_before_crossing():
    traj = simulate_full(ACUTE_CFG.override(T=0.5))
    assert set(traj.phase) == {PHASE_FACE1}
    assert traj.t[0] == 0.0 and traj.t[-1] == 0.5
    # The run has a k, so its scales are known before the corner.
    params = ACUTE_CFG.params
    assert (traj.metadata["eta"], traj.metadata["eps"], traj.metadata["E"]) \
        == (params.eta, params.eps, params.E)


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


def test_three_stiffness_sweep_builds_each_run_once(monkeypatch):
    # Each stiffness's scaled parameters are built once, when its config
    # is checked, and the run reads them from there.  The sweep does not
    # rebuild those of the config's own k, which it never runs.
    cfg = SimConfig(T=2.0, n_grid=50, k=100.0)
    real = scaling.scaled_params_from_physical
    calls = []

    def spy(init, damping, k):
        calls.append(k)
        return real(init, damping, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("cornerimpact") and \
                vars(module).get("scaled_params_from_physical") is real:
            monkeypatch.setattr(module, "scaled_params_from_physical", spy)
    convergence_study(cfg, k_list=(100.0, 1000.0, 10000.0))
    assert calls == [100.0, 1000.0, 10000.0]


def test_asymptotic_report_single_eta():
    table, fits = asymptotic_report(SimConfig(), eta_list=[1e-2])
    assert table["eta"].shape == (1,)
    assert table["err_R1"][0] < 0.05
    assert table["err_R2"][0] < 0.05
    assert table["exit_ratio"][0] == pytest.approx(1.0, abs=5e-3)
    assert fits == {"order_R1": None, "order_R2": None}


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
    points.append((critical_point(params), 0.0))
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
