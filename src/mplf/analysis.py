"""Continuation studies along an injection ray ``s = kappa * s_ref``:
certified intervals in closed form from one certificate call, recentered
intervals, and error sweeps for the two linear models.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .certify import (
    XiQuantities,
    check_theorem1,
    check_theorem2,
    theorem1_scan,
    theorem2_closed_form,
)
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

# Relative step that moves a computed interval edge inside the certified set.
ENDPOINT_MARGIN = 1e-10


@dataclass
class ContinuationResult:
    """Per-kappa record of a sweep: Theorem-2 certificates, exact solutions
    where a solver converged, relative errors of both linear models (``None``
    without an exact solution), and both theorems' intervals by theorem."""

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


def _require_finite(name, values):
    values = np.asarray(values, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def _require_center(name, center, kappa_bounds):
    _require_finite("kappa_bounds", kappa_bounds)
    _require_finite(name, center)
    lo, hi = kappa_bounds
    if not lo <= center <= hi:
        raise ValueError(f"{name} = {center} lies outside the kappa bounds [{lo}, {hi}]")


def _theorem1_ray(gam, xi_hat, xi_ref, points: int, center_kappa: float):
    """Theorem 1's certified ``kappa`` set along the ray, from the margins of
    the base voltage, ``xi(s_hat)``, ``xi(s_ref)`` and the scan grid size.

    On each grid radius, condition 1 reads ``|kappa - center| A + C <= rho``
    and condition 2 ``|kappa| B < 1``: one interval of ``kappa``.  Returns
    the connected component of their union that holds the center, or ``None``.
    """
    zero = XiQuantities(0.0, 0.0)
    rho, per_change, per_target = theorem1_scan(gam, points, xi_ref, zero, xi_ref)
    base_term = theorem1_scan(gam, points, zero, xi_hat, zero)[1]
    reach = np.full_like(rho, np.inf)
    np.divide(rho - base_term, per_change, out=reach, where=per_change > 0)
    cap = np.full_like(rho, np.inf)
    np.divide(1.0, per_target, out=cap, where=per_target > 0)
    lo = np.maximum(center_kappa - reach, -cap)
    hi = np.minimum(center_kappa + reach, cap)
    keep = (base_term <= rho) & (lo <= hi)
    order = np.argsort(lo[keep], kind="stable")
    lo, hi = lo[keep][order], np.maximum.accumulate(hi[keep][order])
    holds = (lo <= center_kappa) & (center_kappa <= hi)
    if not holds.any():
        return None
    # A component starts wherever an interval begins past all before it.
    component = np.cumsum(np.r_[True, lo[1:] > hi[:-1]])
    members = np.flatnonzero(component == component[np.argmax(holds)])
    return float(lo[members[0]]), float(hi[members[-1]])


def _inward(edge: float, bound: float, center: float) -> float:
    """An interval edge moved toward ``center`` by ``ENDPOINT_MARGIN``
    relative and clipped between ``center`` and ``bound``; an infinite edge
    gives ``bound``."""
    if math.isinf(edge):
        return float(bound)
    edge += math.copysign(ENDPOINT_MARGIN * max(1.0, abs(edge)), center - edge)
    return float(min(max(edge, min(bound, center)), max(bound, center)))


def feasible_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=(-10.0, 10.0),
    scan_points: int = 10000,
    center_kappa: float = 0.0,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> tuple[float, float]:
    """Certified interval of ``kappa`` on the ray ``kappa * s_ref`` around
    the base pair at ``center_kappa``, whose injections must equal
    ``s_ref.scaled(center_kappa)``.

    Every xi norm is absolutely homogeneous, so along the ray
    ``xi(s - s_hat) = |kappa - center_kappa| xi(s_ref)`` and
    ``xi(s) = |kappa| xi(s_ref)``: one certificate call, a unit step along
    the ray (its injection change has the norms ``xi(s_ref)``), decides
    every ``kappa``, and the center must pass.  Theorem 2 reads
    ``|kappa - center_kappa| xi(s_ref) < rhs`` of its condition 2.  For
    Theorem 1, each radius of the scan grid certifies one interval of
    ``kappa``; the result is the connected component of their union that
    holds the center, so it agrees with the certificate at every ``kappa``.
    Edges move inward by ``ENDPOINT_MARGIN * max(1, |edge|)`` so that the
    certificate passes there; an edge at or past a bound is the bound.
    Negative ``kappa`` (reverse flow) is allowed.  ``tol_residual`` is the
    tolerance of the base-pair check.
    """
    _require_center("center_kappa", center_kappa, kappa_bounds)
    s_hat = base[1]
    on_ray = s_ref.scaled(center_kappa)
    if not (
        np.array_equal(s_hat.s_wye, on_ray.s_wye) and np.array_equal(s_hat.s_delta, on_ray.s_delta)
    ):
        raise ValueError("base injections must equal s_ref scaled by center_kappa")
    target = s_hat + s_ref  # a unit step along the ray: xi(target - s_hat) = xi(s_ref)
    if theorem == 1:
        ray = check_theorem1(
            model, w_profile, base, target, scan_points=scan_points, tol_residual=tol_residual
        )
        edges = _theorem1_ray(ray.margins, ray.xi_base, ray.xi_change, scan_points, center_kappa)
    elif theorem == 2:
        ray = check_theorem2(model, w_profile, base, target, tol_residual=tol_residual)
        rhs = ray.diagnostics["condition2"]["rhs"]
        half = rhs / ray.xi_change.xi_total if ray.xi_change.xi_total else math.inf
        passes = ray.diagnostics["condition1"]["satisfied"] and rhs > 0
        edges = (center_kappa - half, center_kappa + half) if passes else None
    else:
        raise ValueError(f"theorem must be 1 or 2, got {theorem!r}")
    if edges is None:
        raise ValueError("certificate does not pass at the interval center")
    return tuple(_inward(edge, bound, center_kappa) for edge, bound in zip(edges, kappa_bounds))


def recentered_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_kappa: float,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=(-10.0, 10.0),
    scan_points: int = 10000,
    tol_step: float = 1e-10,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = 1000,
) -> tuple[float, float]:
    """Certified interval after re-basing at the solution for ``base_kappa``.

    Solves at ``base_kappa * s_ref`` (solver failures propagate), then runs
    :func:`feasible_interval` around the new base.
    """
    _require_center("base_kappa", base_kappa, kappa_bounds)
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
        scan_points=scan_points,
        center_kappa=base_kappa,
        tol_residual=tol_residual,
    )


def _solve_exact(model, w_profile, target, v_start, tol_step, tol_residual, max_iter):
    """Fixed point first, Newton fallback, both warm-started.

    Newton also takes over, from the fixed point's last iterate, when the
    step tolerance was met but ``tol_residual`` was not.
    """
    try:
        sol = solve_fixed_point(
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
    else:
        if sol.converged:
            return sol
        log.debug("fixed point missed the residual tolerance; Newton continues from it")
        v_start = sol.v
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
    kappa_bounds=None,
    scan_points: int = 10000,
    tol_step: float = 1e-10,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = 1000,
) -> ContinuationResult:
    """Solve along the ray and record relative errors of both linear models.

    Models are built once at the supplied base.  Exact solutions prefer the
    fixed-point solver and fall back to Newton, warm-started from the
    neighboring kappa (two chains walking outward from ``base_kappa``).
    Both theorems' intervals are recorded.  Each row's Theorem 2 around the
    base is the closed form at ``xi(s - s_hat) = |kappa - base_kappa| xi(s_ref)``.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    if not kappas.size:
        raise ValueError("kappa_grid must not be empty")
    _require_finite("kappa_grid", kappas)
    if kappa_bounds is None:
        kappa_bounds = (float(kappas.min()), float(kappas.max()))
    _require_center("base_kappa", base_kappa, kappa_bounds)
    base = (base_solution.v, base_inj)
    # First, so that an off-ray base or a failing center stops the sweep early.
    endpoints = {}
    for theorem in (1, 2):
        endpoints[theorem] = feasible_interval(
            model,
            w_profile,
            base,
            s_ref,
            theorem=theorem,
            kappa_bounds=kappa_bounds,
            scan_points=scan_points,
            center_kappa=base_kappa,
            tol_residual=tol_residual,
        )
    ray = check_theorem2(model, w_profile, base, base_inj + s_ref, tol_residual=tol_residual)
    ref = ray.xi_change  # xi(s_ref): the norms of a unit step along the ray
    certificates = [
        theorem2_closed_form(ray.base_v, ray.base_s, ray.margins, ray.xi_base, ref.scaled(span))
        for span in np.abs(kappas - base_kappa).tolist()
    ]

    fot = fot_linearize(model, base_solution, base_inj, tol_residual=tol_residual)
    fpl = fpl_linearize(model, w_profile, base_solution, base_inj, tol_residual=tol_residual)
    solutions, fot_errors, fpl_errors = ([None] * len(kappas) for _ in range(3))

    def run_chain(indices):
        v_start = base_solution.v
        for idx in indices:
            target = s_ref.scaled(kappas[idx])
            sol = _solve_exact(
                model, w_profile, target, v_start, tol_step, tol_residual, max_iter
            )
            if sol is not None and sol.converged:
                v_start, solutions[idx] = sol.v, sol
                x = stack_injections(target)
                scale = float(np.abs(sol.v).max())
                fot_errors[idx] = float(np.abs(evaluate_linear(fot, x)[0] - sol.v).max()) / scale
                fpl_errors[idx] = float(np.abs(evaluate_linear(fpl, x)[0] - sol.v).max()) / scale

    run_chain([i for i, k in enumerate(kappas) if k >= base_kappa])
    run_chain([i for i, k in enumerate(kappas) if k < base_kappa][::-1])

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


def interval_summary(result: ContinuationResult, kappa_bounds) -> dict:
    """JSON-ready summary of the certified interval endpoints.

    An endpoint equal to its scan bound is labeled ``scan_bound`` (the
    certified set may reach past it); any other is ``exact``: the edge of
    the certified set, moved inward by ``ENDPOINT_MARGIN`` relative.
    """
    out = {}
    for theorem, (lo, hi) in sorted(result.interval_endpoints.items()):
        out[f"theorem{theorem}"] = {
            "kappa_min": lo,
            "kappa_max": hi,
            "kappa_min_kind": "scan_bound" if lo == kappa_bounds[0] else "exact",
            "kappa_max_kind": "scan_bound" if hi == kappa_bounds[1] else "exact",
        }
    return out
