"""Command-line harness around the simulation and validation studies.

Subcommands::

    cornerimpact simulate        full three-phase trajectory, CSV output
    cornerimpact converge        sup-error against the limit motion per k
    cornerimpact asym-report     corner-flow defects against asymptotics
    cornerimpact phase-portrait  radial vector field table

Every subcommand reads an optional ``--config`` key = value file and takes
the common overrides ``--k`` (physical mode), ``--eta`` (scaled mode),
``--theta-bar``, ``--alpha`` and ``--out``.

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for a
numeric failure (integration breakdown).
"""
from __future__ import annotations

import argparse
import sys

from .config import SimConfig, load_config
from .errors import InvalidInput, NumericFailure
from .harness import (
    asymptotic_report,
    convergence_study,
    phase_portrait,
    simulate_full,
    write_csv,
)
from .linear_phase import InitialData, characteristic_roots
from .scaling import scaled_params_direct, scaled_params_from_physical

__all__ = ["main", "build_parser"]


def _parse_list(raw: str, what: str):
    try:
        vals = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise InvalidInput(f"{what} expects comma-separated numbers, "
                           f"got {raw!r}") from None
    if not vals:
        raise InvalidInput(f"{what} must not be empty, got {raw!r}")
    return vals


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="key = value configuration file")
    sub.add_argument("--k", type=float, metavar="K",
                     help="stiffness override (switches to physical mode)")
    sub.add_argument("--eta", type=float, metavar="ETA",
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
    _add_common(p)
    p.add_argument("--T", type=float, metavar="T",
                   help="physical horizon (default twice the impact time)")

    p = subs.add_parser(
        "converge", help="stiffness sweep against the limit motion",
        description="Measure sup |u_k - u_limit| on a uniform grid for "
                    "each stiffness and fit the convergence order.")
    _add_common(p)
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
    _add_common(p)
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
    _add_common(p)
    p.add_argument("--r-range", metavar="LO,HI", default="0.1,2.0",
                   help="radius window (default 0.1,2.0)")
    p.add_argument("--dr-range", metavar="LO,HI", default="-1.0,1.0",
                   help="radial velocity window (default -1.0,1.0)")
    p.add_argument("--grid-n", type=int, default=21, metavar="N",
                   help="grid points per axis (0 gives an empty table)")
    return parser


def _config_from(args: argparse.Namespace) -> SimConfig:
    config = load_config(args.config) if args.config else SimConfig()
    if args.k is not None and args.eta is not None:
        raise InvalidInput("--k and --eta are mutually exclusive")
    over: dict = {}
    if args.k is not None:
        over.update(mode="physical", k=args.k)
    if args.eta is not None:
        over.update(mode="scaled", eta=args.eta)
    if args.theta_bar is not None:
        over["theta_bar"] = args.theta_bar
    if args.alpha is not None:
        over["alpha"] = args.alpha
    if args.out is not None:
        over["out"] = args.out
    if getattr(args, "T", None) is not None:
        over["T"] = args.T
    if getattr(args, "n_grid", None) is not None:
        over["n_grid"] = args.n_grid
    if getattr(args, "gamma1", None) is not None:
        over["gamma1"] = args.gamma1
    if getattr(args, "zeta", None) is not None:
        over["zeta"] = args.zeta
    if getattr(args, "k_list", None) is not None:
        over["k_list"] = _parse_list(args.k_list, "--k-list")
    if getattr(args, "eta_list", None) is not None:
        over["eta_list"] = _parse_list(args.eta_list, "--eta-list")
    return config.override(**over) if over else config.validated()


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    traj = simulate_full(config)
    meta = traj.metadata
    counts = meta.get("phase_counts", {})
    print(f"k = {meta['k']:g}  eta = {meta.get('eta', float('nan')):.6g}  "
          f"t0 = {meta['t0']:.6g}  T = {meta['T']:.6g}")
    print("samples per phase: " + ", ".join(
        f"{label}: {counts.get(label, 0)}" for label in counts))
    if "t_exit" in meta:
        print(f"exit at t = {meta['t_exit']:.12g} "
              f"(tau = {meta['tau_exit']:.12g}, "
              f"Theta = {meta['exit_Theta']:.12g})")
    else:
        print("no angle exit inside the horizon")
    print(f"momentum drift = {meta.get('momentum_drift', 0.0):.3e}")
    if config.out:
        write_csv(traj, config.out)
        print(f"wrote {traj.t.size} samples to {config.out}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    config = _config_from(args)
    k_list = None
    if args.k is not None and args.k_list is None:
        k_list = (args.k,)          # single-stiffness sweep
    table, order = convergence_study(config, k_list=k_list)
    for k, err in zip(table["k"], table["sup_error"]):
        print(f"k = {k:>12g}   sup_error = {err:.8e}")
    if order is not None:
        print(f"fitted order in 1/sqrt(k): {order:.4f}")
    if config.out:
        write_csv(table, config.out)
        print(f"wrote table to {config.out}")
    return 0


def _cmd_asym_report(args: argparse.Namespace) -> int:
    config = _config_from(args)
    eta_list = None
    if args.eta is not None and args.eta_list is None:
        eta_list = (args.eta,)      # single-scale report
    table, fits = asymptotic_report(config, eta_list=eta_list)
    header = ("eta", "err_R1", "err_dR1", "err_R2", "exit_ratio")
    print(("{:>12} " * len(header)).format(*header).rstrip())
    for i in range(len(table["eta"])):
        print(("{:>12.4e} " * len(header)).format(
            *(table[name][i] for name in header)).rstrip())
    print(f"fitted order err_R1 ~ eta^{fits['order_R1']:.3f},  "
          f"err_R2 ~ eta^{fits['order_R2']:.3f}")
    if config.out:
        write_csv(table, config.out)
        print(f"wrote table to {config.out}")
    return 0


def _cmd_phase_portrait(args: argparse.Namespace) -> int:
    config = _config_from(args)
    damping = characteristic_roots(config.alpha)
    init = InitialData(s0=config.s0, dr0=config.dr0, ds0=config.ds0)
    if config.mode == "physical" and config.k is not None:
        params = scaled_params_from_physical(init, damping, config.k)
    elif config.eta is not None:
        params = scaled_params_direct(config.eta, config.eps_spec, init,
                                      damping)
    else:
        raise InvalidInput(
            "phase-portrait needs either --k (physical) or --eta (scaled)")
    r_range = _parse_list(args.r_range, "--r-range")
    dr_range = _parse_list(args.dr_range, "--dr-range")
    if len(r_range) != 2 or len(dr_range) != 2:
        raise InvalidInput("--r-range and --dr-range expect exactly two "
                           "comma-separated numbers")
    table = phase_portrait(params, r_range, dr_range, args.grid_n)
    n_rows = len(table["R"])
    print(f"{n_rows} rows (grid {args.grid_n} x {args.grid_n} plus rest "
          f"point)" if args.grid_n else "0 rows (empty grid)")
    if config.out:
        write_csv(table, config.out)
        print(f"wrote table to {config.out}")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "asym-report": _cmd_asym_report,
    "phase-portrait": _cmd_phase_portrait,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
