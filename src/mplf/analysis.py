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
    check_theorem2,
    radius_samples,
    theorem1_polynomials,
    theorem1_sides,
    theorem2_closed_form,
)
from .errors import MplfError
from .linearize import fot_linearize, fpl_linearize
from .netmodel import NetworkModel, ZeroLoadProfile
from .powerflow import (
    BASE_RESIDUAL_TOL,
    MAX_ITER,
    TOL_STEP,
    InjectionSet,
    SolveResult,
    _check_injections,
    _solve_rows,
    newton_oracle,
    solve_fixed_point,
)

log = logging.getLogger(__name__)

# Relative step that moves a computed interval edge inside the certified set.
ENDPOINT_MARGIN = 1e-10
# Default scan bounds of a certified interval.
KAPPA_BOUNDS = (-10.0, 10.0)
# Sweep rows solved together.  Each step of a block is one SuperLU solve
# with a right-hand side per row of the block, until its last row stops, so
# wider blocks take fewer, wider solves, but their temporaries raise the
# peak resident set.  Sweeps of 61 rows on ieee37 and ieee123 (one BLAS
# thread, 2-vCPU host) took 11.5 and 18.4 ms with 4-row blocks, 8.5 and
# 15.1 ms with 8, 7.0 and 12.9 ms with 16 and 5.5 and 11.9 ms with all 61;
# the ieee123 sweep's traced peak was 0.86, 0.92, 1.20 and 2.35 MB, and
# 0.86 MB solving the rows one at a time.
_ROW_BLOCK = 8


@dataclass
class ContinuationResult:
    """Per-kappa record of a sweep: Theorem-2 certificates, exact solutions
    where a solver converged (each started from the row's FPL prediction,
    so ``iterations`` counts the steps from there), relative errors of both
    linear models (``None`` without an exact solution), and both theorems'
    intervals by theorem."""

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


def _theorem1_ray(gam, xi_hat, xi_ref, center_kappa: float):
    """Theorem 1's certified ``kappa`` interval along the ray, from the
    margins of the base voltage, ``xi(s_hat) = |center| xi(s_ref)`` and a
    nonzero ``xi(s_ref)`` (a zero one leaves Theorem 2 the whole line; see
    ``_ray_interval``).

    At a radius, condition 1 reads ``|kappa - center| A + C <= rho`` and
    condition 2 ``|kappa| B < 1``: the interval from
    ``max(center - reach, -cap)`` to ``min(center + reach, cap)``, with
    ``reach = (rho - C) / A`` and ``cap = 1 / B``, empty where ``C > rho``.
    On the ray ``A' = B`` and ``C' = |center| B``, so
    ``reach' = (1 - (|center| + reach) B) / A``.  Where ``reach`` peaks,
    condition 2 therefore holds on all of ``[center - reach, center + reach]``
    (``|kappa| B <= (|center| + reach) B = 1``), and the interval of every
    other radius lies inside that one.  The peak is at a root of
    ``nr' na - nr na'``, with ``reach = nr / na`` (see
    ``certify.theorem1_polynomials``), or next to ``gamma`` where ``reach``
    grows up to it.  ``nr`` takes the denominator ``d`` of ``xi(s_ref)``'s
    polynomials, which is also that of ``xi(s_hat)``'s: ``s_hat`` is
    ``center s_ref``, so ``xi(s_hat)`` loads the kinds that ``xi(s_ref)``
    loads, or none at ``center = 0``, where its ``n1`` is zero.  Only the
    loaded kinds enter ``d``, so under a loading of one kind ``nr`` and
    ``na`` share no factor of the other kind's margin, whose double root
    would perturb the peak.  The roots, the gaps between them and the last
    radius below ``gamma`` are checked with ``theorem1_sides``; the result
    is the hull of the intervals that hold the center, or ``None``.
    """
    if not (gam.gamma and xi_ref.xi_total):
        return None
    zero = XiQuantities(0.0, 0.0)
    na, d = theorem1_polynomials(gam, xi_ref, zero)
    nr = np.polysub(np.r_[d, 0.0], theorem1_polynomials(gam, zero, xi_hat)[0])
    peaks = np.polysub(np.convolve(np.polyder(nr), na), np.convolve(nr, np.polyder(na)))
    rho = radius_samples(gam.gamma, peaks)
    per_change, per_target = theorem1_sides(gam, rho, xi_ref, zero, xi_ref)
    # A negative reach, where the base loading leaves no room, holds no kappa.
    reach = (rho - theorem1_sides(gam, rho, zero, xi_hat, zero)[0]) / per_change
    cap = 1.0 / per_target
    lo, hi = np.maximum(center_kappa - reach, -cap), np.minimum(center_kappa + reach, cap)
    holds = (lo <= center_kappa) & (center_kappa <= hi)
    if not holds.any():
        return None
    return float(lo[holds].min()), float(hi[holds].max())


def _inward(edge: float, bound: float, center: float) -> float:
    """An interval edge moved toward ``center`` by ``ENDPOINT_MARGIN``
    relative and clipped between ``center`` and ``bound``; an infinite edge
    gives ``bound``."""
    if math.isinf(edge):
        return float(bound)
    edge += math.copysign(ENDPOINT_MARGIN * max(1.0, abs(edge)), center - edge)
    return float(min(max(edge, min(bound, center)), max(bound, center)))


def _require_on_ray(model, s_hat: InjectionSet, s_ref: InjectionSet, center_kappa: float):
    """Raise ``ValueError`` unless ``s_ref`` and the base injections
    ``s_hat`` fit ``model`` and ``s_hat`` is ``s_ref`` scaled by
    ``center_kappa``."""
    _check_injections(model, s_ref, "s_ref")
    _check_injections(model, s_hat, "base_inj")
    on_ray = s_ref.scaled(center_kappa)
    if not (
        np.array_equal(s_hat.s_wye, on_ray.s_wye) and np.array_equal(s_hat.s_delta, on_ray.s_delta)
    ):
        raise ValueError("base injections must equal s_ref scaled by center_kappa")


def _ray_interval(ray, theorem: int, kappa_bounds, center_kappa: float):
    """A theorem's interval around ``center_kappa`` from the unit-step ``ray``.

    Theorem 2 implies Theorem 1, so Theorem 1's interval spans Theorem 2's
    too.  Where the two sets are equal, as under a loading of one kind
    (wye or delta) behind the smaller margin, their computed edges would
    otherwise differ in the last bits, either way.
    """
    rhs = ray.diagnostics["condition2"]["rhs"]
    half = rhs / ray.xi_change.xi_total if ray.xi_change.xi_total else math.inf
    passes = ray.diagnostics["condition1"]["satisfied"] and rhs > 0
    edges = (center_kappa - half, center_kappa + half) if passes else None
    if theorem == 1:
        general = _theorem1_ray(ray.margins, ray.xi_base, ray.xi_change, center_kappa) or edges
        edges = general if edges is None else (min(edges[0], general[0]), max(edges[1], general[1]))
    if edges is None:
        raise ValueError("certificate does not pass at the interval center")
    return tuple(_inward(edge, bound, center_kappa) for edge, bound in zip(edges, kappa_bounds))


def feasible_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=KAPPA_BOUNDS,
    center_kappa: float = 0.0,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> tuple[float, float]:
    """Certified interval of ``kappa`` on the ray ``kappa * s_ref`` around
    the base pair at ``center_kappa``, whose injections must equal
    ``s_ref.scaled(center_kappa)``.

    Every xi norm is absolutely homogeneous, so along the ray
    ``xi(s - s_hat) = |kappa - center_kappa| xi(s_ref)`` and
    ``xi(s) = |kappa| xi(s_ref)``: one Theorem-2 call for a unit step along
    the ray, the target ``s_hat + s_ref``, decides either theorem at every
    ``kappa``, and the center must pass.  Theorem 2 reads
    ``|kappa - center_kappa| xi(s_ref) < rhs`` of its condition 2.  For
    Theorem 1, each radius in ``[0, gamma)`` certifies one interval of
    ``kappa``, and the interval of the radius where the reach peaks, found
    from polynomial roots, holds all the others (see ``_theorem1_ray``), so
    the result agrees with the certificate at every ``kappa``; it holds
    Theorem 2's interval too.
    Edges move inward by ``ENDPOINT_MARGIN * max(1, |edge|)`` so that the
    certificate passes there; an edge at or past a bound is the bound.
    Negative ``kappa`` (reverse flow) is allowed.  ``tol_residual`` is the
    tolerance of the base-pair check.
    """
    _require_center("center_kappa", center_kappa, kappa_bounds)
    _require_on_ray(model, base[1], s_ref, center_kappa)
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem!r}")
    ray = check_theorem2(model, w_profile, base, base[1] + s_ref, tol_residual=tol_residual)
    return _ray_interval(ray, theorem, kappa_bounds, center_kappa)


def recentered_interval(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_kappa: float,
    s_ref: InjectionSet,
    theorem: int = 2,
    kappa_bounds=KAPPA_BOUNDS,
    tol_step: float = TOL_STEP,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> tuple[float, float]:
    """Certified interval after re-basing at the solution for ``base_kappa``.

    Solves at ``base_kappa * s_ref`` (solver failures propagate), then runs
    :func:`feasible_interval` around the new base.
    """
    _require_center("base_kappa", base_kappa, kappa_bounds)
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem!r}")
    _check_injections(model, s_ref, "s_ref")
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
        center_kappa=base_kappa,
        tol_residual=tol_residual,
    )


def _solve_exact(model, targets, j, fixed_point, v_start, tol_residual):
    """The exact solution of row ``j`` of a sweep block's injections
    ``targets`` from its fixed-point outcome, with the Newton fallback, or
    ``None``.

    ``fixed_point`` is the row's ``SolveResult`` from ``v_start`` (its FPL
    prediction) or the error its solve raised.  A converged result is the
    answer.  Newton takes over, on the row's own ``InjectionSet``, from
    ``v_start`` when the fixed point degenerated or ran out of iterations,
    and from the fixed point's last iterate when the step tolerance was met
    but ``tol_residual`` was not.
    """
    if isinstance(fixed_point, SolveResult):
        if fixed_point.converged:
            return fixed_point
        log.debug("fixed point missed the residual tolerance; Newton continues from it")
        v_start = fixed_point.v
    else:
        log.debug("fixed point failed (%s); trying Newton", fixed_point)
    target = InjectionSet(targets.s_wye[j], targets.s_delta[j])
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
    tol_step: float = TOL_STEP,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> ContinuationResult:
    """Solve along the ray and record relative errors of both linear models.

    Models are built once at the supplied base.  The rows are solved in
    blocks of ``_ROW_BLOCK``, in kappa order.  Both models are evaluated on
    a block's stack of injections first, with no real injection vectors in
    between, and each row's FPL prediction is its start: the fixed point
    iterates the block's rows together with one update kernel until the
    last row stops (``powerflow._solve_rows``, the loop of
    ``solve_fixed_point``), each row as ``solve_fixed_point`` from that
    start would, and one stacked residual check covers every row of the
    block that met ``tol_step``.  A row that degenerates, does not converge
    or misses ``tol_residual`` falls back to Newton (see ``_solve_exact``),
    and only such a row gets an ``InjectionSet`` of its own.  A row's FPL
    error is its start's distance from its solution.  One Theorem-2 call at
    ``s_hat + s_ref`` gives both theorems' intervals and each row's
    Theorem 2, the closed form at ``|kappa - base_kappa| xi(s_ref)``.
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
    _require_on_ray(model, base_inj, s_ref, base_kappa)
    ray = check_theorem2(model, w_profile, base, base_inj + s_ref, tol_residual=tol_residual)
    endpoints = {t: _ray_interval(ray, t, kappa_bounds, base_kappa) for t in (1, 2)}
    ref = ray.xi_change  # xi(s_ref): the norms of a unit step along the ray
    certificates = [
        theorem2_closed_form(ray.base_v, ray.base_s, ray.margins, ray.xi_base, ref.scaled(span))
        for span in np.abs(kappas - base_kappa).tolist()
    ]

    fot = fot_linearize(model, base_solution, base_inj, tol_residual=tol_residual)
    fpl = fpl_linearize(model, w_profile, base_solution, base_inj, tol_residual=tol_residual)
    solutions, fot_errors, fpl_errors = ([None] * len(kappas) for _ in range(3))
    for start in range(0, len(kappas), _ROW_BLOCK):
        block = kappas[start : start + _ROW_BLOCK, None]
        targets = InjectionSet(block * s_ref.s_wye, block * s_ref.s_delta)
        v_fpl, v_fot = fpl._voltages(targets), fot._voltages(targets)
        outcomes = _solve_rows(model, targets, v_fpl, tol_step, tol_residual, max_iter)
        for j, outcome in enumerate(outcomes):
            solutions[start + j] = _solve_exact(model, targets, j, outcome, v_fpl[j], tol_residual)
        rows = [j for j in range(len(block)) if solutions[start + j] is not None]
        if not rows:
            continue
        v = np.stack([solutions[start + j].v for j in rows])
        scale = np.abs(v).max(axis=-1)
        for errors, v_lin in ((fot_errors, v_fot), (fpl_errors, v_fpl)):
            relative = np.abs(v_lin[rows] - v).max(axis=-1) / scale
            for j, err in zip(rows, relative.tolist()):
                errors[start + j] = err

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
