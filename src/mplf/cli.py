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
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, certify, linearize
from .errors import MplfError
from .netmodel import network_from_file, write_json, zero_load_voltage
from .powerflow import BASE_RESIDUAL_TOL, InjectionSet, injections_from_file, solve_fixed_point

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands.

    The field defaults are the command-line defaults as well.
    """

    subcommand: str
    network_path: str
    injections_path: str
    base_injections_path: str | None = None
    tol_step: float = 1e-10
    tol_residual: float = BASE_RESIDUAL_TOL
    max_iter: int = 1000
    theorem: int = 2
    kappa_range: tuple = (-1.5, 1.5)
    points: int = 61
    base_kappa: float = 1.0
    scan_points: int = 10000
    kind: str = "fot"
    output_path: str | None = None
    interval_output_path: str | None = None

    @property
    def solver_options(self) -> dict:
        """Keyword arguments of the load-flow solves."""
        return dict(tol_step=self.tol_step, tol_residual=self.tol_residual, max_iter=self.max_iter)

    def validate(self):
        for name, value in (
            ("tol_step", self.tol_step),
            ("tol_residual", self.tol_residual),
            ("kappa_range[0]", self.kappa_range[0]),
            ("kappa_range[1]", self.kappa_range[1]),
            ("base_kappa", self.base_kappa),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tol_step", "tol_residual"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_iter < 1 or self.points < 1 or self.scan_points < 1:
            raise ValueError("max_iter, points and scan_points must be >= 1")
        if self.kappa_range[0] > self.kappa_range[1]:
            raise ValueError("kappa range must be well ordered (min <= max)")
        analysis._require_center("base_kappa", self.base_kappa, self.kappa_range)
        if self.theorem not in (1, 2):
            raise ValueError("theorem must be 1 or 2")
        return self


def _dest(path):
    """An output path, or standard output for no path or ``-``."""
    return sys.stdout if path is None or path == "-" else path


def _load(cfg: RunConfig):
    model = network_from_file(cfg.network_path)
    w_profile = zero_load_voltage(model)
    inj = injections_from_file(cfg.injections_path, model)
    return model, w_profile, inj


def _solve_base(cfg, model, w_profile):
    """Base pair for certificates: (w, 0) unless base injections are given."""
    if cfg.base_injections_path is None:
        return w_profile.w, InjectionSet.zeros(model)
    base_inj = injections_from_file(cfg.base_injections_path, model)
    sol = solve_fixed_point(model, w_profile, base_inj, **cfg.solver_options)
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


def cmd_solve(cfg: RunConfig) -> int:
    model, w_profile, inj = _load(cfg)
    sol = solve_fixed_point(model, w_profile, inj, **cfg.solver_options)
    write_json(solve_document(model, sol), _dest(cfg.output_path))
    if sol.converged:
        return EXIT_OK
    print(
        f"mplf: warning: step converged but residual {sol.residual_inf:.3e} "
        f"exceeds {cfg.tol_residual:.1e}",
        file=sys.stderr,
    )
    return EXIT_ERROR


def cmd_certify(cfg: RunConfig) -> int:
    model, w_profile, inj = _load(cfg)
    base = _solve_base(cfg, model, w_profile)
    if cfg.theorem == 1:
        cert = certify.check_theorem1(
            model, w_profile, base, inj, scan_points=cfg.scan_points, tol_residual=cfg.tol_residual
        )
    else:
        cert = certify.check_theorem2(model, w_profile, base, inj, tol_residual=cfg.tol_residual)
    write_json(cert.to_dict(), _dest(cfg.output_path))
    return EXIT_OK if cert.satisfied else EXIT_NOT_CERTIFIED


def cmd_linearize(cfg: RunConfig) -> int:
    model, w_profile, inj = _load(cfg)
    sol = solve_fixed_point(model, w_profile, inj, **cfg.solver_options)
    if cfg.kind == "fot":
        lin = linearize.fot_linearize(model, sol, inj, tol_residual=cfg.tol_residual)
    else:
        lin = linearize.fpl_linearize(model, w_profile, sol, inj, tol_residual=cfg.tol_residual)
    write_json(lin.to_dict(), _dest(cfg.output_path))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    model, w_profile, s_ref = _load(cfg)
    base_inj = s_ref.scaled(cfg.base_kappa)
    base_sol = solve_fixed_point(model, w_profile, base_inj, **cfg.solver_options)
    kappas = np.linspace(cfg.kappa_range[0], cfg.kappa_range[1], cfg.points)
    result = analysis.linear_error_sweep(
        model,
        w_profile,
        base_sol,
        base_inj,
        s_ref,
        kappas,
        base_kappa=cfg.base_kappa,
        kappa_bounds=cfg.kappa_range,
        scan_points=cfg.scan_points,
        **cfg.solver_options,
    )
    analysis.write_continuation_csv(_dest(cfg.output_path), result)
    if cfg.interval_output_path is not None:
        summary = analysis.interval_summary(result, cfg.kappa_range)
        write_json(summary, _dest(cfg.interval_output_path))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplf",
        description="Multiphase distribution load flow: solve, certify, linearize, sweep.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Options are stored under RunConfig's field names and take its defaults.

    def common(p, kappa=False):
        p.add_argument("network", help="network JSON document")
        p.add_argument("injections", help="injection JSON document")
        p.add_argument("--tol-step", type=float, default=RunConfig.tol_step)
        p.add_argument("--tol-residual", type=float, default=RunConfig.tol_residual)
        p.add_argument("--max-iter", type=int, default=RunConfig.max_iter)
        p.add_argument("--output", dest="output_path", help="output path (default: stdout)")
        if kappa:
            p.add_argument("--kappa-min", type=float, default=RunConfig.kappa_range[0])
            p.add_argument("--kappa-max", type=float, default=RunConfig.kappa_range[1])

    p_solve = sub.add_parser("solve", help="run the fixed-point load-flow solver")
    common(p_solve)

    p_cert = sub.add_parser("certify", help="evaluate a solvability certificate")
    common(p_cert)
    p_cert.add_argument("--theorem", type=int, choices=(1, 2), default=RunConfig.theorem)
    p_cert.add_argument("--scan-points", type=int, default=RunConfig.scan_points)
    p_cert.add_argument(
        "--base-injections",
        dest="base_injections_path",
        help="recenter the certificate at the solution for these injections",
    )

    p_lin = sub.add_parser("linearize", help="build a linear surrogate model")
    common(p_lin)
    p_lin.add_argument("--kind", choices=("fot", "fpl"), required=True)

    p_sweep = sub.add_parser("sweep", help="continuation sweep along kappa * injections")
    common(p_sweep, kappa=True)
    p_sweep.add_argument("--points", type=int, default=RunConfig.points)
    p_sweep.add_argument("--base-kappa", type=float, default=RunConfig.base_kappa)
    p_sweep.add_argument("--scan-points", type=int, default=RunConfig.scan_points)
    p_sweep.add_argument(
        "--interval-output",
        dest="interval_output_path",
        help="write the interval summary JSON here",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = vars(args)
    cfg = RunConfig(
        network_path=args.network,
        injections_path=args.injections,
        **{f.name: opts[f.name] for f in fields(RunConfig) if f.name in opts},
    )
    if "kappa_min" in opts:
        cfg.kappa_range = (args.kappa_min, args.kappa_max)
    return cfg.validate()


COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "linearize": cmd_linearize,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    level = os.environ.get("MPLF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return COMMANDS[cfg.subcommand](cfg)
    except (MplfError, ValueError, OSError, MemoryError) as exc:
        print(f"mplf: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
