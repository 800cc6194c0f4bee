"""Continuation studies along an injection ray ``s = kappa * s_ref``:
certificate intervals by outward bisection, recentered intervals, and
error sweeps for the two linear models.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .certify import check_theorem1, check_theorem2
from .errors import DegenerateVoltageError, MplfError, NonConvergenceError
from .linearize import evaluate_linear, fot_linearize, fpl_linearize, stack_injections
from .netmodel import NetworkModel, ZeroLoadProfile
from .powerflow import (
    BASE_RESIDUAL_TOL,
    InjectionSet,
    SolveResult,
    newton_oracle,
    solve_fixed_point,
)

log = logging.getLogger(__name__)


@dataclass
class ContinuationResult:
    """Per-kappa record of a sweep: certificates, exact solutions where a
    solver converged, and relative prediction errors of both linear models
    (``None`` where no exact solution is available)."""

    kappas: np.ndarray
    certificates: list = field(repr=False)
    solutions: list = field(repr=False)
    fot_errors: list = field(repr=False)
    fpl_errors: list = field(repr=False)
    interval_endpoints: dict = field(default_factory=dict)

    def rows(self):
        """Rows of the continuation table, in kappa order."""
        out = []
        for k, cert, sol, fe, pe in zip(
            self.kappas, self.certificates, self.solutions, self.fot_errors, self.fpl_errors
        ):
            out.append(
                {
                    "kappa": float(k),
                    "cert_pass": bool(cert.satisfied),
                    "rho_ddagger": cert.rho_used if cert.satisfied else None,
                    "rho_dagger": cert.rho_dagger if cert.satisfied else None,
                    "solver_iters": None if sol is None else sol.iterations,
                    "fot_err": fe,
                    "fpl_err": pe,
                }
            )
        return out


def _certificate(model, w_profile, base, target, theorem, scan_points, tol_residual):
    if theorem == 1:
        return check_theorem1(
            model, w_profile, base, target, scan_points=scan_points, tol_residual=tol_residual
        )
    if theorem == 2:
        return check_theorem2(model, w_profile, base, target, tol_residual=tol_residual)
    raise ValueError(f"theorem must be 1 or 2, got {theorem!r}")


def feasible_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=(-10.0, 10.0),
    tol_kappa: float = 1e-3,
    scan_points: int = 10000,
    center_kappa: float = 0.0,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> tuple[float, float]:
    """Largest certified interval of ``kappa`` around a passing center.

    Bisects outward from ``center_kappa`` in both directions; an endpoint
    equal to a bound means the certificate still passed there (the interval
    is reported as the scan bound).  Negative ``kappa`` is allowed: the
    certificates use magnitudes only, so reverse flows are handled the same
    way.

    For the explicit certificate around a zero base loading, feasibility is
    monotone in ``|kappa|`` and the bisection is exact to ``tol_kappa``; for
    the scanned certificate or a nonzero base loading, the returned endpoint
    is only the first sign-change bracket.  ``tol_residual`` is the tolerance
    of every certificate's base-pair check.
    """
    lo_bound, hi_bound = kappa_bounds
    if not lo_bound <= center_kappa <= hi_bound:
        raise ValueError("center_kappa must lie within kappa_bounds")

    def passes(kappa: float) -> bool:
        cert = _certificate(
            model, w_profile, base, s_ref.scaled(kappa), theorem, scan_points, tol_residual
        )
        return cert.satisfied

    if not passes(center_kappa):
        raise ValueError("certificate does not pass at the interval center")

    def outward(bound: float) -> float:
        if bound == center_kappa:
            return center_kappa
        if passes(bound):
            return bound
        good, bad = center_kappa, bound
        while abs(bad - good) > tol_kappa:
            mid = 0.5 * (good + bad)
            if passes(mid):
                good = mid
            else:
                bad = mid
        return good

    return outward(lo_bound), outward(hi_bound)


def recentered_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_kappa: float,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=(-10.0, 10.0),
    tol_kappa: float = 1e-3,
    scan_points: int = 10000,
    tol_step: float = 1e-10,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = 1000,
) -> tuple[float, float]:
    """Certified interval after re-basing at the solution for ``base_kappa``.

    Solves at ``base_kappa * s_ref`` (solver failures propagate), then runs
    :func:`feasible_interval` around the new base.
    """
    s_base = s_ref.scaled(base_kappa)
    sol = solve_fixed_point(
        model, w_profile, s_base, tol_step=tol_step, tol_residual=tol_residual, max_iter=max_iter
    )
    return feasible_interval(
        model,
        w_profile,
        (sol.v, s_base),
        s_ref,
        theorem=theorem,
        kappa_bounds=kappa_bounds,
        tol_kappa=tol_kappa,
        scan_points=scan_points,
        center_kappa=base_kappa,
        tol_residual=tol_residual,
    )


def _solve_exact(model, w_profile, target, v_start, tol_step, tol_residual, max_iter):
    """Fixed point first, Newton fallback, both warm-started."""
    try:
        return solve_fixed_point(
            model,
            w_profile,
            target,
            v_init=v_start,
            tol_step=tol_step,
            tol_residual=tol_residual,
            max_iter=max_iter,
        )
    except (NonConvergenceError, DegenerateVoltageError) as exc:
        log.debug("fixed point failed (%s); trying Newton", exc)
    try:
        return newton_oracle(model, target, v_init=v_start, tol_residual=tol_residual)
    except MplfError as exc:
        log.debug("Newton fallback failed: %s", exc)
        return None


def linear_error_sweep(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_solution: SolveResult,
    base_inj: InjectionSet,
    s_ref: InjectionSet,
    kappa_grid,
    base_kappa: float = 0.0,
    theorem_endpoints=(1, 2),
    kappa_bounds=None,
    tol_kappa: float = 1e-3,
    scan_points: int = 10000,
    tol_step: float = 1e-10,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = 1000,
) -> ContinuationResult:
    """Solve along the ray and record relative errors of both linear models.

    Models are built once at the supplied base.  Exact solutions prefer the
    fixed-point solver and fall back to Newton, warm-started from the
    neighboring kappa (two chains walking outward from ``base_kappa``).
    Certificates on each row are the explicit (closed-form) kind around the
    same base.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    fot = fot_linearize(model, base_solution, base_inj, tol_residual=tol_residual)
    fpl = fpl_linearize(model, w_profile, base_solution, base_inj, tol_residual=tol_residual)
    base = (base_solution.v, base_inj)

    def run_chain(indices):
        rows = {}
        v_start = base_solution.v
        for idx in indices:
            target = s_ref.scaled(kappas[idx])
            cert = check_theorem2(model, w_profile, base, target, tol_residual=tol_residual)
            sol = _solve_exact(
                model, w_profile, target, v_start, tol_step, tol_residual, max_iter
            )
            fot_err = fpl_err = None
            if sol is not None and sol.converged:
                v_start = sol.v
                x = stack_injections(target)
                scale = float(np.abs(sol.v).max())
                fot_err = float(np.abs(evaluate_linear(fot, x)[0] - sol.v).max()) / scale
                fpl_err = float(np.abs(evaluate_linear(fpl, x)[0] - sol.v).max()) / scale
            else:
                sol = None
            rows[idx] = (cert, sol, fot_err, fpl_err)
        return rows

    upper = [i for i, k in enumerate(kappas) if k >= base_kappa]
    lower = [i for i, k in enumerate(kappas) if k < base_kappa][::-1]
    results = run_chain(upper)
    results.update(run_chain(lower))

    certificates, solutions, fot_errors, fpl_errors = [], [], [], []
    for idx in range(len(kappas)):
        cert, sol, fe, pe = results[idx]
        certificates.append(cert)
        solutions.append(sol)
        fot_errors.append(fe)
        fpl_errors.append(pe)

    if kappa_bounds is None:
        kappa_bounds = (float(kappas.min()), float(kappas.max()))
    endpoints = {}
    for theorem in theorem_endpoints:
        endpoints[theorem] = feasible_interval(
            model,
            w_profile,
            base,
            s_ref,
            theorem=theorem,
            kappa_bounds=kappa_bounds,
            tol_kappa=tol_kappa,
            scan_points=scan_points,
            center_kappa=base_kappa,
            tol_residual=tol_residual,
        )

    return ContinuationResult(
        kappas=kappas,
        certificates=certificates,
        solutions=solutions,
        fot_errors=fot_errors,
        fpl_errors=fpl_errors,
        interval_endpoints=endpoints,
    )


CSV_COLUMNS = ("kappa", "cert_pass", "rho_ddagger", "rho_dagger", "solver_iters", "fot_err", "fpl_err")


def write_continuation_csv(dest, result: ContinuationResult):
    """Write the continuation table to a path or an open text stream;
    absent values become empty cells."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="") as fh:
            return write_continuation_csv(fh, result)
    writer = csv.writer(dest)
    writer.writerow(CSV_COLUMNS)
    for row in result.rows():
        writer.writerow(["" if row[col] is None else row[col] for col in CSV_COLUMNS])


def interval_summary(result: ContinuationResult, kappa_bounds, zero_base: bool = True) -> dict:
    """JSON-ready summary of the certified interval endpoints.

    Endpoints hitting a scan bound are labeled; bisection is exact only for
    the explicit certificate around a zero base loading (feasibility is then
    monotone in ``|kappa|``), otherwise endpoints are sign-change brackets.
    """
    out = {}
    for theorem, (lo, hi) in sorted(result.interval_endpoints.items()):
        def kind(value, bound):
            if value == bound:
                return "scan_bound"
            return "exact" if theorem == 2 and zero_base else "bracketed"

        out[f"theorem{theorem}"] = {
            "kappa_min": lo,
            "kappa_max": hi,
            "kappa_min_kind": kind(lo, kappa_bounds[0]),
            "kappa_max_kind": kind(hi, kappa_bounds[1]),
        }
    return out
