"""Tests of the benchmark itself: generator, checks, tracer, entry point.

Run with:  python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import cornerimpact as ci
import run
import tracer as tracer_mod
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7, 300) == \
        workloads.generate(workload, 7, 300)
    assert workloads.generate(workload, 7, 300) != \
        workloads.generate(workload, 8, 300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_stays_in_the_validated_domain(workload):
    for seed in range(5):
        for op in workloads.generate(workload, seed, 200):
            alpha = op["alpha"]
            assert 1.5 <= alpha <= 3.0
            damping = ci.characteristic_roots(alpha)
            for k in op.get("k_list", [op.get("k")]):
                if k is None:
                    continue
                assert k < workloads.underflow_edge(alpha)
                ci.scaled_params_from_physical(ci.InitialData(), damping, k)
            if workload == "oracle_check":
                assert 1e2 <= op["k"] <= 1e3
            if workload == "corner_long":
                assert 1.7 <= op["theta_bar"] <= 2.8
            if workload == "corner_dense":
                assert 0.5 <= op["theta_bar"] <= 1.4
            if op["kind"] == "phase-portrait":
                assert 40 <= op["grid_n"] <= 160


def test_cycle_holds_whole_stratified_blocks_of_each_kind():
    for workload in workloads.WORKLOADS:
        block = workloads.generate(workload, 3)[
            :workloads.cycle_size(workload)]
        for kind in set(workloads.PATTERNS[workload]):
            count = sum(op["kind"] == kind for op in block)
            assert count and count % workloads.LHS_BLOCK == 0


def test_underflow_edge_matches_the_program():
    damping = ci.characteristic_roots(2.0)
    edge = workloads.underflow_edge(2.0)
    ci.scaled_params_from_physical(ci.InitialData(), damping, 0.999 * edge)
    with pytest.raises(ci.ScaleUnderflow):
        ci.scaled_params_from_physical(ci.InitialData(), damping,
                                       1.001 * edge)


def _table_csv(tmp_path):
    path = tmp_path / "table.csv"
    ci.write_csv({"R": np.array([0.1, 1.0 / 3.0]),
                  "dR_dtau": np.array([2.0 / 3.0, 0.0]),
                  "at_critical": np.array([0.0, 1.0])}, path)
    return path


def test_csv_check_accepts_written_table(tmp_path):
    path = _table_csv(tmp_path)
    assert checks.check_csv(path)[0] is None
    assert checks.check_portrait_csv(path, 1) is None


def test_csv_check_rejects_a_corrupted_cell(tmp_path):
    path = _table_csv(tmp_path)
    text = path.read_text()
    path.write_text(text.replace("0.33333333333333331", "0.3333333333333333"))
    assert "round-trip" in checks.check_csv(path)[0]


def test_portrait_check_rejects_moving_rest_point(tmp_path):
    path = tmp_path / "table.csv"
    ci.write_csv({"R": np.array([0.5, 1.0]), "dR_dtau": np.array([0.0, 1e-9]),
                  "at_critical": np.array([0.0, 1.0])}, path)
    assert "rest-point" in checks.check_portrait_csv(path, 1)


def _oracle_out(scale):
    op = {"kind": "oracle-acute", "alpha": 2.0, "theta_bar": 1.0, "k": 100.0}
    traj = ci.simulate_full(ci.SimConfig().override(
        mode="physical", k=100.0, theta_bar=1.0, T=2.0))
    u_orac = np.column_stack([np.linspace(0.0, 1.0, 50),
                              np.linspace(-1.0, 0.0, 50)])
    return op, (traj, u_orac * scale, u_orac)


def test_oracle_check_enforces_criterion_10():
    op, out = _oracle_out(1.0 + 5e-5)
    assert checks.check(op, out) is None
    op, out = _oracle_out(1.0 + 2e-4)
    assert "oracle relative error" in checks.check(op, out)


def test_trajectory_check_rejects_decreasing_times():
    traj = ci.simulate_full(ci.SimConfig().override(mode="physical", k=1e3))
    assert checks.check_trajectory(traj, traj.metadata["exit_Theta"]) is None
    traj.t[5] = traj.t[4]
    assert "increasing" in checks.check_trajectory(traj, math.pi / 3.0)


def _package_attrs():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "cornerimpact" or name.startswith("cornerimpact.")
            for attr, value in vars(mod).items()} | {
        ("SimConfig", attr): value
        for attr, value in vars(ci.SimConfig).items()}


def test_tracer_leaves_no_wrapper_behind(tmp_path):
    before = _package_attrs()
    op = {"id": 0, "kind": "simulate", "alpha": 2.0,
          "theta_bar": math.pi / 3.0, "k": 1e4}
    with Tracer() as tracer:
        assert ci.simulate_full is not before[("cornerimpact",
                                               "simulate_full")]
        tracer.begin_op(0)
        workloads.execute(op, str(tmp_path))
        tracer.end_op()
    after = _package_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.layer_metrics()
    assert metrics["kernels.rhs_evals"] > 0
    assert metrics["corner_phase.steps_accepted"] > 0
    assert not tracer.missing


def _traced_counts(tmp_path):
    ops = [op for op in workloads.generate("tables_io", 5, 8)
           if op["kind"] == "cli-simulate"][:1]
    ops += workloads.generate("corner_dense", 5, 3)
    with Tracer() as tracer:
        for op in ops:
            tracer.begin_op(op["id"])
            out = workloads.execute(op, str(tmp_path))
            tracer.end_op()
            assert checks.check(op, out) is None
    return dict(tracer.counts)


def test_traced_counters_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path)
    assert first == _traced_counts(tmp_path)
    for name in ("corner_phase.steps_accepted", "kernels._rhs",
                 "kernels._substep", "harness.write_csv.rows"):
        assert first[name] > 0


def test_tracer_reports_a_vanished_name_as_null(monkeypatch):
    import cornerimpact._kernels as kernels
    monkeypatch.delattr(kernels, "_substep")
    without_cli = [t for t in tracer_mod.TARGETS if t[0] != "cli"]
    with Tracer(without_cli) as tracer:
        pass
    metrics = tracer.layer_metrics()
    assert "kernels._substep" in tracer.missing
    assert metrics["kernels.substep_calls"] is None
    assert metrics["cli.self_ms"] is None
    assert metrics["kernels.rhs_evals"] == 0.0


def test_benchmark_json_names_the_reported_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.UNITS)
    assert all(run.UNITS[m["name"]] == m["unit"] for m in SPEC["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracer_mod.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scale_uses_the_reference_passes_around_each_op():
    import calibrate
    latencies = [0.010] * 30
    refs = [0.001] * 10 + [0.002] * 21      # the host halves speed at op 10
    scaled = calibrate.scale(latencies, refs)
    assert scaled[0] == pytest.approx(0.010)
    assert scaled[-1] == pytest.approx(0.005)
    with pytest.raises(ValueError):
        calibrate.scale(latencies, refs[:-1])


def test_reference_kernel_is_deterministic():
    import calibrate
    assert calibrate.reference() == calibrate.reference()
    assert calibrate.time_reference() > 0.0
