"""Command-line interface: exit codes, overrides and CSV output."""
import argparse
import dataclasses
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cornerimpact import IntegrationFailure, SimConfig
from cornerimpact.cli import build_parser, main


def test_simulate_exit_zero(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--k", "100", "--T", "2.0",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "exit at t = " in text
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u1,u2,v1,v2,phase"
    assert len(lines) > 1000


def test_simulate_missing_k_exits_two(capsys):
    code = main(["simulate"])
    assert code == 2
    assert "stiffness k" in capsys.readouterr().err


def test_mutually_exclusive_k_eta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phase-portrait", "--k", "100", "--eta", "0.01"])
    assert exc.value.code == 2
    assert "not allowed with argument --k" in capsys.readouterr().err


# The flags each subcommand takes: --k where a stiffness is read, --eta
# where a corner scale is.
FLAGS = {
    "simulate": {"--config", "--k", "--theta-bar", "--alpha", "--out",
                 "--T"},
    "converge": {"--config", "--k", "--k-list", "--theta-bar", "--alpha",
                 "--out", "--T", "--n-grid"},
    "asym-report": {"--config", "--eta", "--eta-list", "--theta-bar",
                    "--alpha", "--out", "--gamma1", "--zeta"},
    "phase-portrait": {"--config", "--k", "--eta", "--theta-bar", "--alpha",
                       "--out", "--r-range", "--dr-range", "--grid-n"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(FLAGS)
    for name, sub in subs.choices.items():
        flags = {flag for action in sub._actions
                 if not isinstance(action, argparse._HelpAction)
                 for flag in action.option_strings}
        assert flags == FLAGS[name], name


@pytest.mark.parametrize("argv,flag", [
    (["asym-report", "--k", "1e4"], "--k"),
    (["converge", "--eta", "1e-3"], "--eta"),
    (["simulate", "--eta", "0.01"], "--eta"),
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(argv, flag):
    proc = subprocess.run([sys.executable, "-m", "cornerimpact", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unrecognized arguments: " + flag in proc.stderr


def test_bad_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 0.5\n")
    code = main(["simulate", "--config", str(cfg), "--k", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "alpha" in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "missing" / "run.cfg"
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2
    assert f"cannot read config {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_unwritable_out_exits_two(target, tmp_path, capsys):
    # A parent directory that does not exist, and a directory itself.
    out = tmp_path / target
    code = main(["phase-portrait", "--eta", "0.01", "--grid-n", "2",
                 "--out", str(out)])
    assert code == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 100\nwavelength = 3\n")
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_rtol_below_float_resolution_exits_two_at_once(tmp_path, capsys):
    # Such a run used to spend its whole step budget (about a minute)
    # before it exited 3.
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("k = 1e4\nrtol = 1e-24\natol = 1e-26\n")
    start = time.perf_counter()
    code = main(["simulate", "--config", str(cfg)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "rtol must be at least" in err


def test_config_file_plus_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\nk = 100\nT = 1.5\n")
    code = main(["simulate", "--config", str(cfg), "--k", "400"])
    assert code == 0
    assert "k = 400" in capsys.readouterr().out


def test_numeric_failure_exits_three(monkeypatch, capsys):
    def boom(config):
        raise IntegrationFailure("step size underflow at tau = 1")

    monkeypatch.setattr("cornerimpact.cli.simulate_full", boom)
    code = main(["simulate", "--k", "100"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_converge_single_k(capsys):
    code = main(["converge", "--k", "100", "--n-grid", "100", "--T", "2.0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "sup_error" in text
    assert "fitted order" not in text      # single k: no fit


def test_converge_zero_errors_print_no_fit(capsys):
    # At T = 1e-300 every position is still the initial one, so both errors
    # are 0; log(0) used to warn and the fit line read "nan".
    code = main(["converge", "--k-list", "100,1000", "--T", "1e-300"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("sup_error = 0.00000000e+00") == 2
    assert "fitted order" not in text


def test_simulate_before_crossing_prints_eta(capsys):
    assert main(["simulate", "--k", "100", "--T", "0.5"]) == 0
    assert "eta = 0.261912" in capsys.readouterr().out


# (config file text, command line, values swept).  A flag wins over the
# file, and a list wins over the single value it sits beside.
SWEEPS = [
    ("k = 5000\n", ["converge"], [5000.0]),
    ("eta = 0.05\nmode = scaled\n", ["asym-report"], [0.05]),
    ("k = 5000\nk_list = 100, 1000\n", ["converge"], [100.0, 1000.0]),
    ("k = 5000\nk_list = 100, 1000\n", ["converge", "--k", "7000"],
     [7000.0]),
    (None, ["converge", "--k", "7000", "--k-list", "100"], [100.0]),
    ("eta = 0.05\neta_list = 0.02\n", ["asym-report"], [0.02]),
]


@pytest.mark.parametrize("text,argv,expected", SWEEPS)
def test_sweep_rule(text, argv, expected, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = argv + ["--out", str(out)]
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert sorted(float(row.split(",")[0]) for row in rows) == expected


def test_converge_bad_k_list(capsys):
    code = main(["converge", "--k-list", "100,abc"])
    assert code == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_asym_report_single_eta(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["asym-report", "--eta", "0.01", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "exit_ratio" in text
    assert "fitted order" not in text      # single eta: no fit
    header = out.read_text().splitlines()[0]
    assert header == "eta,err_R1,err_dR1,err_R2,exit_ratio"


def test_phase_portrait_table(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = main(["phase-portrait", "--eta", "0.01", "--grid-n", "3",
                 "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert rows.shape == (10,)             # 3 x 3 grid plus rest point
    assert rows["at_critical"][-1] == 1.0


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    # main keeps one parser for the process: a flag given in one call must
    # not become the default of the next.
    five, default = tmp_path / "five.csv", tmp_path / "default.csv"
    assert main(["phase-portrait", "--eta", "0.01", "--grid-n", "5",
                 "--out", str(five)]) == 0
    assert main(["phase-portrait", "--eta", "0.01",
                 "--out", str(default)]) == 0
    assert len(five.read_text().splitlines()) == 1 + 5 * 5 + 1
    assert len(default.read_text().splitlines()) == 1 + 21 * 21 + 1


def test_phase_portrait_empty_grid(capsys):
    code = main(["phase-portrait", "--eta", "0.01", "--grid-n", "0"])
    assert code == 0
    assert "0 rows" in capsys.readouterr().out


def test_phase_portrait_needs_a_mode(capsys):
    code = main(["phase-portrait"])
    assert code == 2
    assert "either --k" in capsys.readouterr().err


def test_phase_portrait_reads_k_of_a_scaled_config(tmp_path, capsys):
    # The mode picks between k and eta only when both are set: a scaled
    # config with k alone names the run of that k.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = scaled\nk = 100\n", encoding="utf-8")
    from_cfg, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
    assert main(["phase-portrait", "--config", str(cfg), "--grid-n", "2",
                 "--out", str(from_cfg)]) == 0
    assert main(["phase-portrait", "--k", "100", "--grid-n", "2",
                 "--out", str(from_flag)]) == 0
    assert from_cfg.read_bytes() == from_flag.read_bytes()


def test_phase_portrait_bad_range(capsys):
    code = main(["phase-portrait", "--eta", "0.01", "--r-range", "1.0"])
    assert code == 2
    assert "exactly two" in capsys.readouterr().err

    code = main(["phase-portrait", "--eta", "0.01", "--r-range", "1.0,0.5"])
    assert code == 2


@pytest.mark.parametrize("flag", ["--r-range=0.1,inf", "--dr-range=-inf,1",
                                  "--r-range=1e-300,1"])
def test_phase_portrait_non_finite_exits_two(flag, capsys):
    # A range end at infinity, or a field that overflows on the grid.
    code = main(["phase-portrait", "--eta", "0.01", flag])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_config_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s0 = -inf\n")
    code = main(["simulate", "--config", str(cfg), "--k", "100"])
    assert code == 2
    assert "line 1: s0 must be negative and finite" in capsys.readouterr().err


def test_bad_override_does_not_blame_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 100\n")
    code = main(["simulate", "--config", str(cfg), "--k", "-5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "k must be positive" in err and "line 1" not in err


def test_every_flag_is_mapped():
    # Flags reach the run through SimConfig fields of the same name; the
    # rest are read by the subcommands themselves.
    own = {"command", "config", "r_range", "dr_range", "grid_n"}
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.dest in fields | own, (name, action.dest)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cornerimpact", "simulate", "--k", "100",
         "--T", "2.0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "exit at t" in proc.stdout
    assert out.exists()


IMPORT_PATH_SCRIPT = """
import contextlib, io, math, sys
import cornerimpact, cornerimpact.cli
from cornerimpact import (ConeGeometry, InitialData, characteristic_roots,
                          oracle_fast_time_integration)

runs = (["simulate", "--k", "100", "--T", "2.0"],
        ["converge", "--k", "100", "--n-grid", "100", "--T", "2.0"],
        ["asym-report", "--eta", "0.01"],
        ["phase-portrait", "--eta", "0.01", "--grid-n", "3"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cornerimpact.cli.main(argv) for argv in runs]
assert codes == [0, 0, 0, 0], codes
oracle_fast_time_integration(InitialData(-1.0, 1.0, 1.0),
                             characteristic_roots(2.0),
                             ConeGeometry(math.pi / 3.0), 100.0,
                             0.5).sample([0.0, 0.25, 0.5])
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded[:5]
"""


def test_cli_runs_without_importing_scipy_integrate():
    # scipy is a test-only dependency: neither the CLI nor the oracle may
    # load any of it.
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> dict:
    """Command line -> printed lines of each ``$ cornerimpact`` example."""
    examples: dict = {}
    command = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ cornerimpact "):
            command = line.removeprefix("$ cornerimpact ")
            examples[command] = []
        elif command is not None and line and not line.startswith("```"):
            examples[command].append(line)
        else:
            command = None
    return examples


@pytest.mark.parametrize("command", ["simulate --k 400 --T 2.0",
                                     "converge --k-list 100,1000,10000",
                                     "asym-report --eta-list 1e-2,1e-3,1e-4"])
def test_readme_examples_print_what_readme_shows(command, capsys):
    expected = readme_examples()[command]
    assert expected
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == expected
