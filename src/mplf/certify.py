"""Injection-space norms, voltage-margin quantities, and the two
existence/uniqueness/convergence certificates.

Both certificates are computed around a base pair ``(v_hat, s_hat)`` that
must itself satisfy the power-flow equations; the canonical choice is the
zero-load pair ``(w, 0)``.  A passing certificate names a ball around the
base, scaled entrywise by ``|w|``, that contains exactly one solution for
the target injections and on which the fixed-point iteration converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProfileError
from .netmodel import NetworkModel, ZeroLoadProfile
from .powerflow import BASE_RESIDUAL_TOL, InjectionSet, checked_base


@dataclass(frozen=True)
class XiQuantities:
    """Weighted injection norms: wye part, delta part, and their sum.

    The total is a norm on stacked injections; homogeneity, the triangle
    inequality, and definiteness are exercised by the property tests.
    """

    xi_wye: float
    xi_delta: float

    @property
    def xi_total(self) -> float:
        return self.xi_wye + self.xi_delta

    def scaled(self, factor: float) -> XiQuantities:
        """The norms of the injections scaled by ``factor >= 0``."""
        return XiQuantities(factor * self.xi_wye, factor * self.xi_delta)


@dataclass(frozen=True)
class GammaQuantities:
    """Minimum voltage margins of a profile relative to the zero-load one.

    ``beta`` is ``inf`` when the model has no phase-pair connections, so the
    combined margin reduces to the wye-only form.  At ``v = w``, ``alpha`` is
    one but ``beta`` is at most one: a pair voltage ``|w_i - w_j|`` falls
    short of ``|w_i| + |w_j|``, to ``sqrt(3)/2`` of it on a balanced
    three-phase bus, so ``gamma(w)`` is below one on most feeders with
    delta connections.
    """

    alpha: float
    beta: float

    @property
    def gamma(self) -> float:
        return min(self.alpha, self.beta)


def xi_norms(model: NetworkModel, w_profile: ZeroLoadProfile, inj: InjectionSet) -> XiQuantities:
    """Evaluate the injection norms.

    The wye part is the max absolute row sum of
    ``diag(w)^-1 yll^-1 diag(w)^-1 diag(s_wye)`` and the delta part the same
    for ``diag(w)^-1 yll^-1 H^T diag(L|w|)^-1 diag(s_delta)``; column scaling
    by a diagonal reduces both to weighted absolute matrix-vector products
    with the profile's cached weights.
    """
    weights_w, weights_d = w_profile.xi_weights
    xi_wye = float((weights_w @ np.abs(inj.s_wye)).max()) if model.n_phases else 0.0
    xi_delta = float((weights_d @ np.abs(inj.s_delta)).max()) if model.n_delta else 0.0
    return XiQuantities(xi_wye=xi_wye, xi_delta=xi_delta)


def gamma_quantities(w_profile: ZeroLoadProfile, v) -> GammaQuantities:
    """Minimum phase and phase-pair voltage margins of ``v``."""
    v = np.asarray(v, dtype=complex)
    alpha = float((np.abs(v) / w_profile.w_abs).min())
    if w_profile.Lw.size:
        if w_profile.Lw.min() <= 0.0:
            raise DegenerateProfileError("zero phase-pair entry in the zero-load profile")
        beta = float((np.abs(w_profile.model.connection.gather(v)) / w_profile.Lw).min())
    else:
        beta = math.inf
    return GammaQuantities(alpha=alpha, beta=beta)


def theorem1_scan(
    gam: GammaQuantities,
    scan_points: int,
    xi_change: XiQuantities,
    xi_base: XiQuantities,
    xi_target: XiQuantities,
):
    """The radii Theorem 1 scans, a uniform grid over the open interval
    ``(0, gamma)``, and the left sides of its self-mapping and contraction
    conditions there, for the norms of the injection change, the base
    loading and the target loading.

    Both left sides are linear in the xi arguments, so along an injection
    ray they split into per-unit-``kappa`` terms (see
    ``analysis._theorem1_ray``).
    """
    if scan_points < 1:
        raise ValueError("scan_points must be positive")
    rho = gam.gamma * np.arange(1, scan_points + 1) / (scan_points + 1)
    lhs1 = (xi_change.xi_wye + xi_base.xi_wye * rho / gam.alpha) / (gam.alpha - rho)
    lhs2 = xi_target.xi_wye / (gam.alpha - rho) ** 2
    if gam.beta < math.inf:  # the model has phase-pair connections
        lhs1 = lhs1 + (xi_change.xi_delta + xi_base.xi_delta * rho / gam.beta) / (gam.beta - rho)
        lhs2 = lhs2 + xi_target.xi_delta / (gam.beta - rho) ** 2
    return rho, lhs1, lhs2


@dataclass
class Certificate:
    """Outcome of a solvability certificate around a base pair.

    ``rho_used`` is the self-mapping radius (for the explicit certificate,
    the larger root; for the scanned one, the smallest passing grid point)
    and ``rho_dagger`` the tight containment radius, populated only when the
    explicit certificate is satisfied.  ``margins`` and the ``xi_*`` norms
    are its inputs; ``diagnostics`` records both sides of every condition.
    """

    kind: str
    satisfied: bool
    rho_used: float | None
    rho_dagger: float | None
    base_v: np.ndarray = field(repr=False)
    base_s: InjectionSet = field(repr=False)
    margins: GammaQuantities = field(repr=False)
    xi_base: XiQuantities = field(repr=False)
    xi_change: XiQuantities = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    def ball_radii(self, w_profile: ZeroLoadProfile, rho: float | None = None) -> np.ndarray:
        """Entrywise radii of the uniqueness ball around ``base_v``."""
        if rho is None:
            rho = self.rho_used
        if rho is None:
            raise ValueError("certificate not satisfied; no ball radius available")
        return rho * w_profile.w_abs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "satisfied": bool(self.satisfied),
            "rho_used": self.rho_used,
            "rho_dagger": self.rho_dagger,
            "base": {
                "v": self.base_v,
                "s_wye": self.base_s.s_wye,
                "s_delta": self.base_s.s_delta,
            },
            "diagnostics": self.diagnostics,
        }


def check_theorem2(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    target: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> Certificate:
    """Evaluate the explicit certificate around a checked base pair."""
    s_hat = base[1]
    v_hat = checked_base(model, base[0], s_hat, tol_residual)[0]
    gam = gamma_quantities(w_profile, v_hat)
    xi_hat = xi_norms(model, w_profile, s_hat)
    xi_diff = xi_norms(model, w_profile, target - s_hat)
    return theorem2_closed_form(v_hat, s_hat, gam, xi_hat, xi_diff)


def theorem2_closed_form(v_hat, s_hat, gam, xi_hat, xi_diff) -> Certificate:
    """Theorem 2 around the base pair ``(v_hat, s_hat)`` from the margins
    ``gam`` of ``v_hat`` and the norms of ``s_hat`` and of the change.

    Conditions: the base loading must satisfy ``xi(s_hat) < gamma^2`` and the
    injection change ``xi(s - s_hat) < ((gamma^2 - xi(s_hat)) / (2 gamma))^2``
    (both strict).  On success the ball radii are::

        rho_used   = (gamma^2 - xi(s_hat)) / (2 gamma)
        rho_dagger = rho_used - sqrt(rho_used^2 - xi(s - s_hat))

    and the solution for the target is unique in the ``rho_used`` ball,
    reachable by the fixed-point iteration from anywhere in it, and contained
    in the tighter ``rho_dagger`` ball.  Only ``xi_diff`` depends on the
    target, so one base evaluation serves a whole injection ray.
    """
    cond1_rhs = gam.gamma**2
    cond1_ok = xi_hat.xi_total < cond1_rhs
    cond2_rhs = 0.25 * ((cond1_rhs - xi_hat.xi_total) / gam.gamma) ** 2
    cond2_ok = xi_diff.xi_total < cond2_rhs
    satisfied = cond1_ok and cond2_ok

    rho_used = rho_dagger = None
    if satisfied:
        rho_used = 0.5 * (cond1_rhs - xi_hat.xi_total) / gam.gamma
        rho_dagger = rho_used - math.sqrt(max(rho_used**2 - xi_diff.xi_total, 0.0))

    return Certificate(
        kind="theorem2",
        satisfied=satisfied,
        rho_used=rho_used,
        rho_dagger=rho_dagger,
        base_v=v_hat,
        base_s=s_hat,
        margins=gam,
        xi_base=xi_hat,
        xi_change=xi_diff,
        diagnostics={
            "condition1": {"lhs": xi_hat.xi_total, "rhs": cond1_rhs, "satisfied": cond1_ok},
            "condition2": {"lhs": xi_diff.xi_total, "rhs": cond2_rhs, "satisfied": cond2_ok},
            "alpha": gam.alpha,
            "beta": gam.beta,
            "gamma": gam.gamma,
            "xi_base": {"wye": xi_hat.xi_wye, "delta": xi_hat.xi_delta},
            "xi_change": {"wye": xi_diff.xi_wye, "delta": xi_diff.xi_delta},
        },
    )


def check_theorem1(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    target: InjectionSet,
    scan_points: int = 10000,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> Certificate:
    """Evaluate the general (scanned) certificate.

    A uniform grid over the open interval ``(0, gamma)`` is scanned for a
    radius satisfying both the self-mapping inequality and the strict
    contraction inequality; the left side of the first is not unimodal in
    general, so a grid is used instead of root finding.  The smallest
    passing radius is returned.
    """
    s_hat = base[1]
    v_hat = checked_base(model, base[0], s_hat, tol_residual)[0]
    gam = gamma_quantities(w_profile, v_hat)
    xi_hat = xi_norms(model, w_profile, s_hat)
    xi_diff = xi_norms(model, w_profile, target - s_hat)
    xi_target = xi_norms(model, w_profile, target)

    rho, lhs1, lhs2 = theorem1_scan(gam, scan_points, xi_diff, xi_hat, xi_target)
    ok = (lhs1 <= rho) & (lhs2 < 1.0)

    satisfied = bool(ok.any())
    if satisfied:
        at = int(np.argmax(ok))
        rho_used = float(rho[at])
    else:
        # Report the grid point closest to self-mapping feasibility.
        at = int(np.argmin(lhs1 - rho))
        rho_used = None

    return Certificate(
        kind="theorem1",
        satisfied=satisfied,
        rho_used=rho_used,
        rho_dagger=None,
        base_v=v_hat,
        base_s=s_hat,
        margins=gam,
        xi_base=xi_hat,
        xi_change=xi_diff,
        diagnostics={
            "condition1": {
                "lhs": float(lhs1[at]),
                "rhs": float(rho[at]),
                "satisfied": bool(lhs1[at] <= rho[at]),
            },
            "condition2": {
                "lhs": float(lhs2[at]),
                "rhs": 1.0,
                "satisfied": bool(lhs2[at] < 1.0),
            },
            "rho_at_diagnostics": float(rho[at]),
            "scan_points": int(scan_points),
            "alpha": gam.alpha,
            "beta": gam.beta,
            "gamma": gam.gamma,
            "xi_base": {"wye": xi_hat.xi_wye, "delta": xi_hat.xi_delta},
            "xi_change": {"wye": xi_diff.xi_wye, "delta": xi_diff.xi_delta},
            "xi_target": {"wye": xi_target.xi_wye, "delta": xi_target.xi_delta},
        },
    )
