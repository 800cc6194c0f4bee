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

from .netmodel import NetworkModel, ZeroLoadProfile, check_profile
from .powerflow import (
    BASE_RESIDUAL_TOL,
    InjectionSet,
    _check_injections,
    _checked_vector,
    checked_base,
)


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

    def to_dict(self) -> dict:
        return {"wye": self.xi_wye, "delta": self.xi_delta}


@dataclass(frozen=True)
class GammaQuantities:
    """Minimum voltage margins of a profile relative to the zero-load one.

    ``beta`` is the minimum over the model's phase pairs, so it is ``inf``,
    the minimum over no pairs, on a model without phase-pair connections,
    and ``gamma`` is then ``alpha``.  At ``v = w``, ``alpha`` is
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
    with the model's cached weights.  ``inj`` must fit ``model``.
    """
    check_profile(model, w_profile)
    _check_injections(model, inj, "inj")
    weights_w, weights_d = model.xi_weights
    xi_wye = float((weights_w @ np.abs(inj.s_wye)).max(initial=0.0))
    xi_delta = float((weights_d @ np.abs(inj.s_delta)).max(initial=0.0))
    return XiQuantities(xi_wye=xi_wye, xi_delta=xi_delta)


def gamma_quantities(w_profile: ZeroLoadProfile, v) -> GammaQuantities:
    """Minimum phase and phase-pair voltage margins of ``v``, which must
    be finite with one entry per phase of the profile."""
    v = _checked_vector("v", v, w_profile.w_abs.size)
    alpha = float((np.abs(v) / w_profile.w_abs).min())
    pair_margins = np.abs(w_profile.connection.gather(v)) / w_profile.Lw
    beta = float(pair_margins.min(initial=math.inf))
    return GammaQuantities(alpha=alpha, beta=beta)


def theorem1_sides(gam: GammaQuantities, rho, xi_change, xi_base, xi_target):
    """The left sides of Theorem 1's self-mapping and contraction
    conditions at the radii ``rho`` in ``[0, gamma)``, for the norms of the
    injection change, the base loading and the target loading.

    Each side is a wye term in ``alpha`` plus a delta term in ``beta``.
    Without phase pairs ``beta`` is ``inf`` and every delta norm is zero,
    so the delta terms are ``0 / inf = 0``.  Both left sides are linear in
    the xi arguments, so along an injection ray they split into
    per-unit-``kappa`` terms (see ``_theorem1_ray``).  A zero
    ``gamma`` leaves no radius, and both left sides are infinite.
    """
    if not gam.gamma:
        return np.full_like(rho, np.inf), np.full_like(rho, np.inf)
    lhs1 = (xi_change.xi_wye + xi_base.xi_wye * rho / gam.alpha) / (gam.alpha - rho)
    lhs2 = xi_target.xi_wye / (gam.alpha - rho) ** 2
    lhs1 = lhs1 + (xi_change.xi_delta + xi_base.xi_delta * rho / gam.beta) / (gam.beta - rho)
    lhs2 = lhs2 + xi_target.xi_delta / (gam.beta - rho) ** 2
    return lhs1, lhs2


def theorem1_polynomials(gam: GammaQuantities, xi_change, xi_base):
    """The self-mapping side of :func:`theorem1_sides` as a ratio of
    polynomials in the radius, ``lhs1 = n1 / d``, for a nonzero ``gamma``;
    returns the coefficients of ``(n1, d)``, highest power first.

    Only the loaded kinds enter: a kind (wye with ``alpha``, delta with
    ``beta``) that ``xi_change`` or ``xi_base`` loads multiplies ``d`` by
    ``margin - rho`` and adds its term to ``n1``, and an unloaded kind adds
    nothing, so ``d`` is ``(alpha - rho)(beta - rho)`` under both kinds, one
    factor under one kind and ``1`` under none.  ``d`` is positive on
    ``[0, gamma)``.
    """
    n1, d = np.zeros(1), np.ones(1)
    for margin, change, base in (
        (gam.alpha, xi_change.xi_wye, xi_base.xi_wye),
        (gam.beta, xi_change.xi_delta, xi_base.xi_delta),
    ):
        if change or base:
            factor = np.array([-1.0, margin])
            n1 = np.polyadd(np.convolve(n1, factor), np.convolve([base / margin, change], d))
            d = np.convolve(d, factor)
    return n1, d


def radius_samples(gamma: float, *polys) -> np.ndarray:
    """The radii where a condition built from ``polys`` can change, in
    increasing order: zero, the real part of every root of every polynomial
    that falls in ``(0, gamma)``, the last float below ``gamma``, and the
    midpoint of each gap between them.

    Between two consecutive roots no polynomial changes sign, so each gap's
    midpoint stands for the whole gap.  The real part of a complex root is
    kept too: a pair of roots near the real axis marks where a polynomial
    comes closest to zero.
    """
    roots = np.concatenate([np.roots(p).real for p in polys])
    inside = roots[(roots > 0.0) & (roots < gamma)]
    radii = np.unique(np.r_[0.0, inside, np.nextafter(gamma, 0.0)])
    return np.sort(np.r_[radii, 0.5 * (radii[1:] + radii[:-1])])


@dataclass
class Certificate:
    """Outcome of a solvability certificate around a base pair.

    ``rho_used`` is the self-mapping radius (for the explicit certificate,
    ``(gamma^2 - xi(s_hat)) / (2 gamma)``, the midpoint of the two roots of
    its self-mapping quadratic; for the general one, the smallest radius
    that passes both of its conditions) and ``rho_dagger`` the tight
    containment radius, the smaller root, populated only when the explicit
    certificate is satisfied.
    ``margins`` and the ``xi_*`` norms are its inputs; ``diagnostics``
    records both sides of every condition, and construction adds the
    margins and the norms to it.
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

    def __post_init__(self):
        gam = self.margins
        self.diagnostics.update(
            alpha=gam.alpha,
            beta=gam.beta,
            gamma=gam.gamma,
            xi_base=self.xi_base.to_dict(),
            xi_change=self.xi_change.to_dict(),
        )

    def ball_radii(self, w_profile: ZeroLoadProfile, rho: float | None = None) -> np.ndarray:
        """Entrywise radii of the uniqueness ball around ``base_v``; ``rho``
        (default ``rho_used``) must be finite and not negative."""
        if rho is None:
            rho = self.rho_used
        if rho is None:
            raise ValueError("certificate not satisfied; no ball radius available")
        if not (math.isfinite(rho) and rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {rho}")
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
    check_profile(model, w_profile)
    return theorem2_closed_form(*_base_evaluation(model, base, target, tol_residual))


def _base_evaluation(model: NetworkModel, base, target: InjectionSet, tol_residual: float):
    """What both certificates evaluate around a base pair: the checked
    ``(v_hat, s_hat)``, the margins of ``v_hat``, and the norms of
    ``s_hat`` and of the change ``target - s_hat``, once ``target`` fits
    ``model``."""
    s_hat, profile = base[1], model.zero_load
    v_hat = checked_base(model, base[0], s_hat, tol_residual)[0]
    _check_injections(model, target, "target")
    gam = gamma_quantities(profile, v_hat)
    return v_hat, s_hat, gam, xi_norms(model, profile, s_hat), xi_norms(model, profile, target - s_hat)


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
    # A zero margin leaves no ball: condition 1 fails, and so does 2.
    cond2_rhs = 0.25 * ((cond1_rhs - xi_hat.xi_total) / gam.gamma) ** 2 if gam.gamma else 0.0
    cond2_ok = xi_diff.xi_total < cond2_rhs
    satisfied = cond1_ok and cond2_ok

    rho_used = rho_dagger = None
    if satisfied:
        rho_used = 0.5 * (cond1_rhs - xi_hat.xi_total) / gam.gamma
        rho_dagger = rho_used - math.sqrt(max(rho_used**2 - xi_diff.xi_total, 0.0))

    return Certificate(
        "theorem2", satisfied, rho_used, rho_dagger, v_hat, s_hat, gam, xi_hat, xi_diff,
        diagnostics={
            "condition1": {"lhs": xi_hat.xi_total, "rhs": cond1_rhs, "satisfied": cond1_ok},
            "condition2": {"lhs": xi_diff.xi_total, "rhs": cond2_rhs, "satisfied": cond2_ok},
        },
    )


def theorem1_radius(gam: GammaQuantities, xi_change, xi_base, xi_target) -> tuple[bool, float]:
    """Decide Theorem 1 for the margins ``gam`` and the norms of the
    injection change, the base loading and the target loading: whether a
    radius in ``[0, gamma)`` satisfies both the self-mapping inequality and
    the strict contraction inequality, and the smallest such radius, or, on
    a fail, the sampled radius with the smallest ``lhs1 - rho``.

    On ``[0, gamma)`` the self-mapping inequality reads ``p1 >= 0`` for the
    cubic ``p1 = rho d - n1`` (a quadratic under one loaded kind; see
    :func:`theorem1_polynomials`), and the contraction's left side grows
    with the radius, so it holds below one crossing.  The smallest certified
    radius is thus zero or a root of ``p1``.  Each root and each gap between
    roots is checked with :func:`theorem1_sides`; the first that passes is
    moved down, by bisection against the sample below it, to the smallest
    radius that passes, so the result passes by construction.  A zero change
    passes at radius zero.
    """

    def passes(rho):
        lhs1, lhs2 = theorem1_sides(gam, rho, xi_change, xi_base, xi_target)
        return (lhs1 <= rho) & (lhs2 < 1.0), lhs1 - rho

    rho = np.zeros(1)
    if gam.gamma:
        n1, d = theorem1_polynomials(gam, xi_change, xi_base)
        rho = radius_samples(gam.gamma, np.polysub(np.r_[d, 0.0], n1))
    ok, slack = passes(rho)
    if not ok.any():
        return False, float(rho[np.argmin(slack)])
    at = int(np.argmax(ok))
    below, top = float(rho[max(at - 1, 0)]), float(rho[at])
    while below < (mid := 0.5 * (below + top)) < top:
        below, top = (below, mid) if passes(mid)[0] else (mid, top)
    return True, top


def _theorem1_ray(gam, xi_hat, xi_ref, center_kappa: float):
    """Theorem 1's certified ``kappa`` interval along the ray, from the
    margins of the base voltage, ``xi(s_hat) = |center| xi(s_ref)`` and a
    nonzero ``xi(s_ref)`` (a zero one leaves Theorem 2 the whole line; see
    ``analysis._ray_interval``).

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
    :func:`theorem1_polynomials`), or next to ``gamma`` where ``reach``
    grows up to it.  ``nr`` takes the denominator ``d`` of ``xi(s_ref)``'s
    polynomials, which is also that of ``xi(s_hat)``'s: ``s_hat`` is
    ``center s_ref``, so ``xi(s_hat)`` loads the kinds that ``xi(s_ref)``
    loads, or none at ``center = 0``, where its ``n1`` is zero.  Only the
    loaded kinds enter ``d``, so under a loading of one kind ``nr`` and
    ``na`` share no factor of the other kind's margin, whose double root
    would perturb the peak.  The roots, the gaps between them and the last
    radius below ``gamma`` are checked with :func:`theorem1_sides`; the
    result is the hull of the intervals that hold the center, or ``None``.
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


def check_theorem1(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    target: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> Certificate:
    """Evaluate the general certificate around a checked base pair.

    ``rho_used`` is the smallest radius that passes both conditions (see
    :func:`theorem1_radius`); the diagnostics are taken there, or, on a
    fail, at the radius that came closest to self-mapping.
    """
    check_profile(model, w_profile)
    terms = _base_evaluation(model, base, target, tol_residual)
    _, _, gam, xi_hat, xi_diff = terms
    xi_target = xi_norms(model, w_profile, target)
    satisfied, rho = theorem1_radius(gam, xi_diff, xi_hat, xi_target)
    lhs1, lhs2 = (float(side) for side in theorem1_sides(gam, rho, xi_diff, xi_hat, xi_target))
    return Certificate(
        "theorem1", satisfied, rho if satisfied else None, None, *terms,
        diagnostics={
            "condition1": {"lhs": lhs1, "rhs": rho, "satisfied": lhs1 <= rho},
            "condition2": {"lhs": lhs2, "rhs": 1.0, "satisfied": lhs2 < 1.0},
            "rho_at_diagnostics": rho,
            "xi_target": xi_target.to_dict(),
        },
    )
