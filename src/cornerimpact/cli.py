"""Command-line harness around the simulation and validation studies.

Subcommands::

    cornerimpact simulate        full three-phase trajectory, CSV output
    cornerimpact converge        sup-error against the limit motion per k
    cornerimpact asym-report     corner-flow defects against asymptotics
    cornerimpact phase-portrait  radial vector field table

Every subcommand reads an optional ``--config`` key = value file and takes
the common overrides ``--theta-bar``, ``--alpha`` and ``--out``.  The scale
flags go only where they are read: ``--k`` (physical mode) to ``simulate``,
``converge`` and ``phase-portrait``, ``--eta`` (scaled mode) to
``asym-report`` and ``phase-portrait``, which takes one of the two.  A flag
that a subcommand does not take is a usage error.

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for a
numeric failure (integration breakdown).
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .config import SimConfig, load_config, parse_floats
from .errors import InvalidInput, NumericFailure
from .harness import (
    asymptotic_report,
    convergence_study,
    phase_portrait,
    simulate_full,
    write_csv,
)

__all__ = ["main", "build_parser"]


# Flags whose dest is one of these override the config field of that name.
_CONFIG_FIELDS = {f.name for f in fields(SimConfig) if f.init}


def _add_common(sub: argparse.ArgumentParser, k=False, eta=False) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="key = value configuration file")
    # One scale per run: phase-portrait takes --k or --eta, not both.
    scales = sub.add_mutually_exclusive_group()
    if k:
        scales.add_argument(
            "--k", type=float, metavar="K",
            help="stiffness override (switches to physical mode)")
    if eta:
        scales.add_argument(
            "--eta", type=float, metavar="ETA",
            help="corner-scale override (switches to scaled mode)")
    sub.add_argument("--theta-bar", type=float, metavar="RAD",
                     help="wedge opening angle in radians")
    sub.add_argument("--alpha", type=float, metavar="A",
                     help="damping ratio (> 1)")
    sub.add_argument("--out", metavar="PATH", help="write results as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerimpact",
        description="Over-damped penalty impacts at a wedge corner: "
                    "simulation and validation studies.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "simulate", help="full three-phase trajectory",
        description="Integrate approach, corner passage and (acute case) "
                    "the outgoing face phase over [0, T].")
    _add_common(p, k=True)
    p.add_argument("--T", type=float, metavar="T",
                   help="physical horizon (default twice the impact time)")

    p = subs.add_parser(
        "converge", help="stiffness sweep against the limit motion",
        description="Measure sup |u_k - u_limit| on a uniform grid for "
                    "each stiffness and fit the convergence order.")
    _add_common(p, k=True)
    p.add_argument("--k-list", metavar="K1,K2,...",
                   help="stiffnesses to sweep (overrides config k_list)")
    p.add_argument("--T", type=float, metavar="T", help="physical horizon")
    p.add_argument("--n-grid", type=int, metavar="N",
                   help="uniform comparison grid size")

    p = subs.add_parser(
        "asym-report", help="corner-flow defects against asymptotics",
        description="Per eta: relative defects against the undamped "
                    "comparison orbit and the damped-linear continuation, "
                    "plus the exit-equivalent ratio and fitted orders.")
    _add_common(p, eta=True)
    p.add_argument("--eta-list", metavar="E1,E2,...",
                   help="corner scales to sweep (overrides config eta_list)")
    p.add_argument("--gamma1", type=float, metavar="G",
                   help="matching-time exponent in (1, 4/3)")
    p.add_argument("--zeta", type=float, metavar="Z",
                   help="reference-time factor in (0, 1/|xi1|)")

    p = subs.add_parser(
        "phase-portrait", help="radial vector field table",
        description="Tabulate (R', R'') on a grid with the rest point "
                    "marked in the at_critical column.")
    _add_common(p, k=True, eta=True)
    p.add_argument("--r-range", metavar="LO,HI", default="0.1,2.0",
                   help="radius window (default 0.1,2.0)")
    p.add_argument("--dr-range", metavar="LO,HI", default="-1.0,1.0",
                   help="radial velocity window (default -1.0,1.0); a "
                   "negative LO needs the = form, --dr-range=-1.0,1.0")
    p.add_argument("--grid-n", type=int, default=21, metavar="N",
                   help="grid points per axis (0 gives an empty table)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to ``main``, not at import, and kept: parsing
    # leaves no state on the parser, and building it costs about a
    # millisecond per call.
    return build_parser()


def _config_from(args: argparse.Namespace) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    over = {name: value for name, value in vars(args).items()
            if name in _CONFIG_FIELDS and value is not None}
    for name in ("k_list", "eta_list"):
        if name in over:
            over[name] = parse_floats(over[name],
                                      "--" + name.replace("_", "-"))
    # Flags win over the file: --k (--eta) also replaces its k_list
    # (eta_list), unless --k-list (--eta-list) is given.
    if "k" in over:
        over = {"mode": "physical", "k_list": None, **over}
    if "eta" in over:
        over = {"mode": "scaled", "eta_list": None, **over}
    return config.override(**over) if over else config


def _write_table(table: dict, out: str | None) -> int:
    if out:
        write_csv(table, out)
        print(f"wrote table to {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    traj = simulate_full(config)
    meta = traj.metadata
    counts = meta.get("phase_counts", {})
    print(f"k = {meta['k']:g}  eta = {config.params.eta:.6g}  "
          f"t0 = {meta['t0']:.6g}  T = {meta['T']:.6g}")
    print("samples per phase: " + ", ".join(
        f"{label}: {counts.get(label, 0)}" for label in counts))
    if "t_exit" in meta:
        print(f"exit at t = {meta['t_exit']:.12g} "
              f"(tau = {meta['tau_exit']:.12g}, "
              f"Theta = {meta['exit_Theta']:.12g})")
    else:
        print("no angle exit inside the horizon")
    if config.out:
        write_csv(traj, config.out)
        print(f"wrote {traj.t.size} samples to {config.out}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    config = _config_from(args)
    table, order = convergence_study(config)
    for k, err in zip(table["k"], table["sup_error"]):
        print(f"k = {k:>12g}   sup_error = {err:.8e}")
    if order is not None:
        print(f"fitted order in 1/sqrt(k): {order:.4f}")
    return _write_table(table, config.out)


def _cmd_asym_report(args: argparse.Namespace) -> int:
    config = _config_from(args)
    table, fits = asymptotic_report(config)
    header = ("eta", "err_R1", "err_dR1", "err_R2", "exit_ratio")
    print(("{:>12} " * len(header)).format(*header).rstrip())
    for i in range(len(table["eta"])):
        print(("{:>12.4e} " * len(header)).format(
            *(table[name][i] for name in header)).rstrip())
    orders = [f"err_{col} ~ eta^{fits['order_' + col]:.3f}"
              for col in ("R1", "R2") if fits["order_" + col] is not None]
    if orders:
        print("fitted order " + ",  ".join(orders))
    return _write_table(table, config.out)


def _cmd_phase_portrait(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if config.params is None:
        raise InvalidInput(
            "phase-portrait needs either --k (physical) or --eta (scaled)")
    r_range = parse_floats(args.r_range, "--r-range")
    dr_range = parse_floats(args.dr_range, "--dr-range")
    if len(r_range) != 2 or len(dr_range) != 2:
        raise InvalidInput("--r-range and --dr-range expect exactly two "
                           "comma-separated numbers")
    table = phase_portrait(config.params, r_range, dr_range, args.grid_n)
    n_rows = len(table["R"])
    print(f"{n_rows} rows (grid {args.grid_n} x {args.grid_n} plus rest "
          f"point)" if args.grid_n else "0 rows (empty grid)")
    return _write_table(table, config.out)


_DISPATCH = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "asym-report": _cmd_asym_report,
    "phase-portrait": _cmd_phase_portrait,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
