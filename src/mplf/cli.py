"""Command-line front end.

Subcommands mirror the library surface: ``solve``, ``certify``,
``linearize``, and ``sweep``.  Outputs are deterministic (no randomness, no
timestamps): identical inputs produce byte-identical artifacts.  Verbosity
is controlled by the ``MPLF_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import analysis, certify, linearize
from .errors import MplfError
from .netmodel import network_from_file, write_json, zero_load_voltage
from .powerflow import (
    BASE_RESIDUAL_TOL,
    MAX_ITER,
    TOL_STEP,
    InjectionSet,
    check_tolerance,
    injections_from_file,
    solve_fixed_point,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _validate(args):
    """Check the options this subcommand has, before any file is read."""
    opts = vars(args)
    for key in ("tol_step", "tol_residual", "kappa_min", "kappa_max", "base_kappa"):
        if key in opts and not math.isfinite(opts[key]):
            raise ValueError(f"{key} must be finite, got {opts[key]}")
    check_tolerance("tol_step", args.tol_step)
    check_tolerance("tol_residual", args.tol_residual)
    counts = [key for key in ("max_iter", "points") if key in opts]
    if any(opts[key] < 1 for key in counts):
        raise ValueError(f"{' and '.join(counts)} must be >= 1")
    if "kappa_min" in opts:
        if args.kappa_min > args.kappa_max:
            raise ValueError("kappa range must be well ordered (min <= max)")
        analysis._require_center("base_kappa", args.base_kappa, (args.kappa_min, args.kappa_max))


def _solver_options(args) -> dict:
    """Keyword arguments of the load-flow solves."""
    return dict(tol_step=args.tol_step, tol_residual=args.tol_residual, max_iter=args.max_iter)


def _dest(path):
    """An output path, or standard output for no path or ``-``."""
    return sys.stdout if path is None or path == "-" else path


def _load(args):
    model = network_from_file(args.network)
    w_profile = zero_load_voltage(model)
    inj = injections_from_file(args.injections, model)
    return model, w_profile, inj


def _solve_base(args, model):
    """Base pair for certificates: (w, 0) unless base injections are given."""
    if args.base_injections_path is None:
        return model.zero_load.w, InjectionSet.zeros(model)
    base_inj = injections_from_file(args.base_injections_path, model)
    sol = solve_fixed_point(model, model.zero_load, base_inj, **_solver_options(args))
    return sol.v, base_inj


def solve_document(model, sol) -> dict:
    """The ``solve`` artifact: solver status, labels and the solution vectors."""
    return {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_inf": sol.residual_inf,
        "contraction_estimate": sol.contraction_estimate,
        "phases": ["{}::{}".format(*key) for key in model.index.phase_labels()],
        "v": sol.v,
        "v_abs": np.abs(sol.v),
        "i": sol.i,
        "delta_connections": ["{}::{}".format(*key) for key in model.index.delta_labels()],
        "i_delta": sol.i_delta,
    }


def cmd_solve(args) -> int:
    model, w_profile, inj = _load(args)
    sol = solve_fixed_point(model, w_profile, inj, **_solver_options(args))
    write_json(solve_document(model, sol), _dest(args.output_path))
    if sol.converged:
        return EXIT_OK
    print(
        f"mplf: warning: step converged but residual {sol.residual_inf:.3e} "
        f"exceeds {args.tol_residual:.1e}",
        file=sys.stderr,
    )
    return EXIT_ERROR


def cmd_certify(args) -> int:
    model, w_profile, inj = _load(args)
    base = _solve_base(args, model)
    check = certify.check_theorem1 if args.theorem == 1 else certify.check_theorem2
    cert = check(model, w_profile, base, inj, tol_residual=args.tol_residual)
    write_json(cert.to_dict(), _dest(args.output_path))
    return EXIT_OK if cert.satisfied else EXIT_NOT_CERTIFIED


def cmd_linearize(args) -> int:
    model, w_profile, inj = _load(args)
    sol = solve_fixed_point(model, w_profile, inj, **_solver_options(args))
    if args.kind == "fot":
        lin = linearize.fot_linearize(model, sol, inj, tol_residual=args.tol_residual)
    else:
        lin = linearize.fpl_linearize(model, w_profile, sol, inj, tol_residual=args.tol_residual)
    write_json(lin.to_dict(), _dest(args.output_path))
    return EXIT_OK


def cmd_sweep(args) -> int:
    model, w_profile, s_ref = _load(args)
    base_inj = s_ref.scaled(args.base_kappa)
    base_sol = solve_fixed_point(model, w_profile, base_inj, **_solver_options(args))
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.points)
    result = analysis.linear_error_sweep(
        model,
        w_profile,
        base_sol,
        base_inj,
        s_ref,
        kappas,
        base_kappa=args.base_kappa,
        kappa_bounds=(args.kappa_min, args.kappa_max),
        **_solver_options(args),
    )
    analysis.write_continuation_csv(_dest(args.output_path), result)
    if args.interval_output_path is not None:
        summary = analysis.interval_summary(result)
        write_json(summary, _dest(args.interval_output_path))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplf",
        description="Multiphase distribution load flow: solve, certify, linearize, sweep.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("network", help="network JSON document")
        p.add_argument("injections", help="injection JSON document")
        p.add_argument("--tol-step", type=float, default=TOL_STEP)
        p.add_argument("--tol-residual", type=float, default=BASE_RESIDUAL_TOL)
        p.add_argument("--max-iter", type=int, default=MAX_ITER)
        p.add_argument("--output", dest="output_path", help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="run the fixed-point load-flow solver")
    common(p_solve, cmd_solve)

    p_cert = sub.add_parser("certify", help="evaluate a solvability certificate")
    common(p_cert, cmd_certify)
    p_cert.add_argument("--theorem", type=int, choices=(1, 2), default=2)
    p_cert.add_argument(
        "--base-injections",
        dest="base_injections_path",
        help="recenter the certificate at the solution for these injections",
    )

    p_lin = sub.add_parser("linearize", help="build a linear surrogate model")
    common(p_lin, cmd_linearize)
    p_lin.add_argument("--kind", choices=("fot", "fpl"), required=True)

    p_sweep = sub.add_parser("sweep", help="continuation sweep along kappa * injections")
    common(p_sweep, cmd_sweep)
    p_sweep.add_argument("--kappa-min", type=float, default=-1.5)
    p_sweep.add_argument("--kappa-max", type=float, default=1.5)
    p_sweep.add_argument("--points", type=int, default=61)
    p_sweep.add_argument("--base-kappa", type=float, default=1.0)
    p_sweep.add_argument(
        "--interval-output",
        dest="interval_output_path",
        help="write the interval summary JSON here",
    )
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MPLF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.run(args)
    except (MplfError, ValueError, OSError, MemoryError) as exc:
        print(f"mplf: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
