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
    ScaleUnderflow,
    ScaledState,
    SimConfig,
    asymptotic_times,
    characteristic_roots,
    convergence_study,
    critical_point,
    face_phase_state,
    first_asymptotic_dR1,
    first_asymptotic_R1,
    limit_trajectory,
    phase_portrait,
    r1_phase_state,
    radial_rhs,
    scaled_params_direct,
    scaled_params_from_physical,
    scaled_to_cartesian,
    second_asymptotic_R2,
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


def test_exit_inside_the_cone_is_refused(monkeypatch):
    # Turn the located exit angle by 2 rad: the exit state's y1_0 < 0 breaks
    # face 2's start rule, for the rows and for the study alike.
    real = harness.integrate_corner

    def turned(*args, **kwargs):
        res = real(*args, **kwargs)
        res.exit_state = dataclasses.replace(
            res.exit_state, Theta=res.exit_state.Theta + 2.0)
        return res

    monkeypatch.setattr(harness, "integrate_corner", turned)
    for run in (simulate_full,
                lambda cfg: convergence_study(cfg, k_list=[100.0])):
        with pytest.raises(InvalidInput, match="y1_0 must be non-negative"):
            run(ACUTE_CFG)


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


def test_bad_t_eval_is_refused_before_the_run(monkeypatch):
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: pytest.fail("the corner ran"))
    with pytest.raises(InvalidInput, match="t_eval times"):
        simulate_full(ACUTE_CFG, t_eval=[0.5, math.nan])


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
    # The requested time is a corner row, at exactly that time.
    (j,) = np.nonzero(traj.t == mid)[0]
    assert traj.phase[j] == PHASE_CORNER


def test_positions_at_rejects_times_outside_the_run(acute_traj):
    # T = 2: neither a clamp to the ends nor a NaN comes back.
    for t in (5.0, -1.0, math.nan, [0.5, math.inf]):
        with pytest.raises(InvalidInput, match=r"in \[0, 2\]"):
            acute_traj.positions_at(t)


def _record_corner_runs(monkeypatch):
    """The list that collects each corner run the harness makes."""
    runs = []
    corner = harness.integrate_corner
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: runs.append(corner(*a, **kw))
                        or runs[-1])
    return runs


def _run_and_corner(monkeypatch, cfg):
    """simulate_full(cfg) and the corner run it made."""
    runs = _record_corner_runs(monkeypatch)
    traj = simulate_full(cfg)
    (res,) = runs
    return traj, res


def _midpoints(traj, label):
    t = traj.t[traj.phase == label]
    return 0.5 * (t[1:] + t[:-1])


@pytest.mark.parametrize("cfg", [ACUTE_CFG, OBTUSE_CFG],
                         ids=["acute", "obtuse"])
def test_positions_at_is_the_phase_map_between_rows(monkeypatch, cfg):
    # Between rows, positions_at is the formula of the phase that holds t,
    # for the same run, bit for bit: no interpolation.
    traj, res = _run_and_corner(monkeypatch, cfg)
    meta = traj.metadata
    t1 = _midpoints(traj, PHASE_FACE1)
    r, _, s, _ = r1_phase_state(cfg.init, cfg.damping, cfg.k, t1)
    np.testing.assert_array_equal(traj.positions_at(t1),
                                  np.column_stack([r, s]))
    tc = _midpoints(traj, PHASE_CORNER)
    st = res.sample((tc - meta["t0"]) * math.sqrt(cfg.k))
    _, u, _ = scaled_to_cartesian(res.params, st.tau, st.R, st.dR, st.Theta)
    np.testing.assert_array_equal(traj.positions_at(tc), u)
    t2 = _midpoints(traj, PHASE_FACE2)
    y1, _, y2, _ = face_phase_state(meta["y1_0"], meta["dy1_0"],
                                    meta["dy2_0"], cfg.damping, cfg.k,
                                    t2 - meta["t_exit"])
    np.testing.assert_array_equal(
        traj.positions_at(t2),
        np.outer(y1, cfg.cone.face2_normal)
        + np.outer(y2, cfg.cone.face2_direction))
    assert min(t1.size, tc.size, t2.size) > 100


@pytest.mark.parametrize("cfg", [
    ACUTE_CFG, OBTUSE_CFG, ACUTE_CFG.override(k=1e5, theta_bar=2.2)],
    ids=["acute", "obtuse", "rebound"])
def test_positions_between_corner_rows_match_a_tight_run(cfg):
    traj = simulate_full(cfg)
    ref = simulate_full(cfg.override(rtol=1e-13, atol=1e-15))
    tc = _midpoints(traj, PHASE_CORNER)
    got, want = traj.positions_at(tc), ref.positions_at(tc)
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.max(rel) <= 1e-8


def test_positions_at_keeps_shape_and_order(acute_traj):
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2.0, 60)
    t[:3] = (1.0, 0.5 * (1.0 + acute_traj.metadata["t_exit"]), 2.0)
    flat = acute_traj.positions_at(t)
    order = np.argsort(t)
    assert flat.shape == (60, 2)
    np.testing.assert_array_equal(acute_traj.positions_at(t[order]),
                                  flat[order])
    np.testing.assert_array_equal(acute_traj.positions_at(t.reshape(6, 10)),
                                  flat.reshape(6, 10, 2))
    assert acute_traj.positions_at(t[1]).shape == (2,)
    np.testing.assert_array_equal(acute_traj.positions_at(t[1]), flat[1])
    assert acute_traj.positions_at([]).shape == (0, 2)


def test_corner_attempts_are_stepping_only(monkeypatch):
    # The corner samples come from the vectorised single-step map,
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


def test_corner_rows_follow_the_steps():
    # The corner rows are spread over the run's accepted steps, so a
    # horizon far past the exit leaves every one of them as it was.
    short = simulate_full(ACUTE_CFG.override(k=1e4))
    far = simulate_full(ACUTE_CFG.override(k=1e4, T=1e6))
    a, b = short.phase == PHASE_CORNER, far.phase == PHASE_CORNER
    assert a.sum() > 30
    np.testing.assert_array_equal(short.t[a], far.t[b])
    np.testing.assert_array_equal(short.u[a], far.u[b])
    np.testing.assert_array_equal(short.v[a], far.v[b])


def test_corner_rows_stop_at_the_horizon():
    # The run ends before its exit, and its last step time,
    # t0 + ((T - t0) sqrt(k)) / sqrt(k), rounds past T: that time is no
    # row, and T itself is the last one.
    T = 0.18175
    traj = simulate_full(SimConfig().override(
        mode="physical", theta_bar=2.9, s0=-0.1, k=150.0, T=T))
    assert "t_exit" not in traj.metadata
    assert traj.phase[-1] == PHASE_CORNER and traj.t[-1] == T
    assert traj.metadata["phase_counts"][PHASE_CORNER] == \
        harness.N_PHASE_SAMPLES
    np.testing.assert_array_equal(traj.positions_at(traj.t[-1:]),
                                  traj.u[-1:])


@pytest.mark.parametrize("k", [100.0, 400.0])
@pytest.mark.parametrize("theta_bar", [ACUTE_CFG.theta_bar, 2.0 * math.pi / 3],
                         ids=["acute", "obtuse"])
def test_each_phase_has_its_samples(k, theta_bar):
    # N_PHASE_SAMPLES times per phase; the corner loses only the time it
    # shares with face 2, the exit.
    traj = simulate_full(ACUTE_CFG.override(k=k, theta_bar=theta_bar))
    counts = traj.metadata["phase_counts"]
    assert min(counts.values()) >= harness.N_PHASE_SAMPLES - 2


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


# Refactor guard: repr of the sup errors for k = 100, 1e3, 1e4.  A change
# that moves them on purpose re-records them and lists old and new values.
CONVERGENCE_PINS = {
    "acute": (math.pi / 3.0, ["0.02236557659066846", "0.0069114891860723735",
                              "0.0021839429150603074"]),
    "obtuse": (2.0 * math.pi / 3.0, ["0.07620498762407196",
                                     "0.00691337300208606",
                                     "0.0021854958220332244"]),
}


@pytest.mark.parametrize("case", sorted(CONVERGENCE_PINS))
def test_convergence_study_pin(case):
    theta_bar, pin = CONVERGENCE_PINS[case]
    table, _ = convergence_study(SimConfig().override(theta_bar=theta_bar),
                                 k_list=(100.0, 1e3, 1e4))
    assert [repr(float(e)) for e in table["sup_error"]] == pin


def test_convergence_study_rejects_bad_k():
    with pytest.raises(InvalidInput):
        convergence_study(ACUTE_CFG, k_list=[])
    with pytest.raises(InvalidInput):
        convergence_study(ACUTE_CFG, k_list=[100.0, -4.0])


def test_convergence_study_refuses_k_beyond_the_floor():
    # The scaled parameters of each stiffness state the e^-175 floor.
    with pytest.raises(ScaleUnderflow, match="leaves double range"):
        convergence_study(ACUTE_CFG, k_list=[1e9])


def test_three_stiffness_sweep_builds_each_run_once(monkeypatch):
    # Each stiffness's scaled parameters are built once and handed to its
    # run; no config is rebuilt or checked per stiffness.  The sweep does
    # not rebuild those of the config's own k, which it never runs.
    cfg = SimConfig(T=2.0, n_grid=50, k=100.0)
    real = scaling.scaled_params_from_physical
    calls = []
    checks = []
    validated = SimConfig.validated
    monkeypatch.setattr(SimConfig, "validated",
                        lambda self: checks.append(self) or validated(self))

    def spy(init, damping, k):
        calls.append(k)
        return real(init, damping, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("cornerimpact") and \
                vars(module).get("scaled_params_from_physical") is real:
            monkeypatch.setattr(module, "scaled_params_from_physical", spy)
    convergence_study(cfg, k_list=(100.0, 1000.0, 10000.0))
    assert calls == [100.0, 1000.0, 10000.0]
    assert checks == []


def test_convergence_study_samples_only_its_grid(monkeypatch):
    # One corner run per stiffness, sampled at no more than the study's
    # own grid times: the study builds no rows it would not read.
    from cornerimpact.corner_phase import CornerResult

    runs, samples = [], []
    corner, sample = harness.integrate_corner, CornerResult.sample
    monkeypatch.setattr(harness, "integrate_corner",
                        lambda *a, **kw: runs.append(corner(*a, **kw))
                        or runs[-1])
    monkeypatch.setattr(CornerResult, "sample",
                        lambda self, tau: samples.append((self, np.size(tau)))
                        or sample(self, tau))
    convergence_study(OBTUSE_CFG.override(n_grid=50),
                      k_list=(100.0, 1e3, 1e4))
    assert len(runs) == 3
    per_run = [sum(n for res, n in samples if res is run) for run in runs]
    assert sum(per_run) == sum(n for _, n in samples)
    assert 0 < max(per_run) <= 50


def _study_cases():
    """Seeded acute and obtuse studies, and one at 0.9 of the ScaleUnderflow
    edge k = (350 / |xi1|)^2 (t0 = 1) with alpha = 1.5."""
    rng = np.random.default_rng(21)
    cases = []
    for lo, hi in ((0.3, 1.4), (1.7, 2.8)):
        for _ in range(3):
            cfg = SimConfig(theta_bar=float(rng.uniform(lo, hi)),
                            alpha=float(rng.uniform(1.2, 4.0)),
                            T=float(rng.uniform(1.1, 3.0)),
                            n_grid=int(rng.integers(50, 600)))
            cases.append((cfg, sorted(10.0 ** rng.uniform(2.0, 5.0, 2))))
    edge = (350.0 / characteristic_roots(1.5).xi1) ** 2
    cases.append((SimConfig(theta_bar=2.2, alpha=1.5, T=2.0, n_grid=300),
                   [100.0, 0.9 * edge]))
    return cases


@pytest.mark.parametrize("cfg,k_list", _study_cases())
def test_convergence_study_is_the_trajectory_map(cfg, k_list):
    # The study reads the same phase map as simulate_full's positions_at,
    # bit for bit: one map, no second path.
    table, _ = convergence_study(cfg, k_list=k_list)
    grid = np.linspace(0.0, cfg.T, cfg.n_grid)
    u_inf = limit_trajectory(cfg.init, cfg.cone, grid)
    for k, err in zip(k_list, table["sup_error"]):
        traj = simulate_full(cfg.override(mode="physical", k=k))
        want = np.max(np.linalg.norm(traj.positions_at(grid) - u_inf, axis=1))
        assert err == want


def test_asymptotic_report_single_eta():
    table, fits = asymptotic_report(SimConfig(), eta_list=[1e-2])
    assert table["eta"].shape == (1,)
    assert table["err_R1"][0] < 0.05
    assert table["err_R2"][0] < 0.05
    assert table["exit_ratio"][0] == pytest.approx(1.0, abs=5e-3)
    assert fits == {"order_R1": None, "order_R2": None}


def test_asymptotic_report_samples_each_run_once(monkeypatch):
    # The defects are read off the accepted steps: each eta's run is
    # sampled once, at the matching time tau1.
    from cornerimpact import corner_phase

    sizes = []
    many = corner_phase.substep_many
    monkeypatch.setattr(corner_phase, "substep_many",
                        lambda *a: sizes.append(a[3].size) or many(*a))
    asymptotic_report(SimConfig(), eta_list=[1e-2, 1e-3])
    assert sizes == [1, 1]


def _report_cases():
    rng = np.random.default_rng(2207)
    cases = []
    for lo, hi in [(0.3, 1.5)] * 3 + [(1.7, 2.9)] * 3:
        cfg = SimConfig().override(alpha=float(rng.uniform(1.2, 4.0)),
                                   theta_bar=float(rng.uniform(lo, hi)))
        cases.append((cfg, float(10.0 ** rng.uniform(-6.0, -2.0))))
    return cases


@pytest.mark.parametrize("cfg,eta", _report_cases())
def test_asymptotic_report_agrees_with_a_fine_grid(monkeypatch, cfg, eta):
    # The maxima over the accepted steps match those over a 20,001-point
    # geometric grid in each window, sampled from the same run.
    runs = _record_corner_runs(monkeypatch)
    table, _ = asymptotic_report(cfg, eta_list=[eta])
    (res,) = runs
    params = res.params
    times = asymptotic_times(eta, cfg.damping, gamma1=cfg.gamma1,
                             zeta=cfg.zeta)
    tau1, tau3 = times.tau1, times.tau3

    def worst(got, ref):
        return np.max(np.abs(got - ref) / np.abs(ref))

    n = 20_001
    early = res.sample(np.geomspace(1e-3 * params.kappa, tau1, n))
    assert table["err_R1"][0] == worst(
        early.R, first_asymptotic_R1(params, early.tau))
    middle = res.sample(np.geomspace(eta ** 3, tau1, n))
    assert table["err_dR1"][0] == worst(
        middle.dR, first_asymptotic_dR1(params, middle.tau))
    late = res.sample(np.geomspace(tau1, tau3, n))
    R2, _ = second_asymptotic_R2((late.R[0], late.dR[0]), cfg.damping,
                                 tau1, late.tau)
    assert table["err_R2"][0] == pytest.approx(worst(late.R, R2), rel=1e-8)


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


@pytest.mark.parametrize("column", [np.zeros((3, 2)), np.float64(1.0)],
                         ids=["2-d", "0-d"])
def test_write_csv_refuses_columns_that_are_not_1d(tmp_path, column):
    path = tmp_path / "table.csv"
    with pytest.raises(InvalidInput, match="column 'a' must be 1-D"):
        write_csv({"a": column}, path)
    assert not path.exists()


def _write_csv_per_cell(columns, path):
    """The reference writer: every cell formatted on its own."""
    names = list(columns)
    row_format = ",".join(
        "%.17g" if columns[name].dtype.kind == "f" else "%s"
        for name in names) + "\n"
    rows = zip(*(columns[name].tolist() for name in names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row_format % row for row in rows)


def _csv_tables(traj):
    params = scaled_params_direct(1e-2, "derive", InitialData(-1.0, 1.0, 1.0),
                                  characteristic_roots(2.0))
    edge = np.array([0.0, -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                     2.0 ** -1074, -2.0 ** -1074, 1.0 / 3.0, 1.0 / 3.0, -0.0])
    n = edge.size
    return {
        "portrait": phase_portrait(params, grid_n=40),
        "trajectory": {"t": traj.t, "u1": traj.u[:, 0], "u2": traj.u[:, 1],
                       "v1": traj.v[:, 0], "v2": traj.v[:, 1],
                       "phase": traj.phase},
        "edge-floats": {"x": edge, "y": edge[::-1]},
        "int-bool-str": {"n": np.arange(n) - 3,
                         "b": np.arange(n) % 3 == 0,
                         "s": np.array(["corner", "", "R1-phase"] * (n // 3)),
                         "f": edge},
        "empty": phase_portrait(params, grid_n=0),
    }


def test_write_csv_matches_per_cell_formatting(acute_traj, tmp_path):
    # Formatting each distinct bit pattern once gives the bytes of
    # formatting every cell; -0.0 keeps its sign.
    for name, table in _csv_tables(acute_traj).items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        write_csv(table, got)
        _write_csv_per_cell(table, want)
        assert got.read_bytes() == want.read_bytes(), name
    empty = (tmp_path / "empty.csv").read_text()
    assert empty == "R,dR,dR_dtau,ddR_dtau,at_critical\n"
    assert "-0," in (tmp_path / "edge-floats.csv").read_text()


def test_trajectory_container_roundtrip(acute_traj):
    # The rows are the phase map at the row times, and a copy keeps the map.
    np.testing.assert_array_equal(acute_traj.positions_at(acute_traj.t),
                                  acute_traj.u)
    copy = dataclasses.replace(acute_traj)
    np.testing.assert_array_equal(copy.positions_at(acute_traj.t),
                                  acute_traj.u)


def test_converges_toward_limit(acute_traj):
    # Coarse sanity that the k = 100 run already tracks the limit path.
    init = InitialData(-1.0, 1.0, 1.0)
    cone = ConeGeometry(math.pi / 3.0)
    grid = np.linspace(0.0, 2.0, 64)
    u_inf = limit_trajectory(init, cone, grid)
    err = np.max(np.linalg.norm(acute_traj.positions_at(grid) - u_inf,
                                axis=1))
    assert err < 0.05
