import csv
import functools
import math

import numpy as np
import pytest

import mplf
from mplf import analysis, linearize
from mplf.analysis import interval_summary, write_continuation_csv
from mplf.certify import (
    GammaQuantities,
    XiQuantities,
    _theorem1_ray,
    theorem1_radius,
    theorem1_sides,
)
from mplf.datafiles import bundled_path
from mplf.linearize import stack_injections
from conftest import (
    assert_bitwise,
    assert_same_solve,
    certified_instance,
    single_phase_model,
    solve_outcome,
    wye_injection,
    zero_base,
)


@pytest.fixture
def single_phase_case():
    model, profile = single_phase_model()
    s_ref = wye_injection(model, "load", "a", -0.1)
    return model, profile, s_ref


class TestFeasibleInterval:
    def test_explicit_certificate_endpoint(self, single_phase_case):
        # xi scales as 0.1 |kappa|, certified strictly below 0.25.
        model, profile, s_ref = single_phase_case
        lo, hi = mplf.feasible_interval(
            model, profile, zero_base(model, profile), s_ref, theorem=2,
            kappa_bounds=(-10, 10),
        )
        assert hi == pytest.approx(2.5, rel=1e-9)
        assert lo == pytest.approx(-2.5, rel=1e-9)
        assert -2.5 < lo and hi < 2.5

    def test_scanned_certificate_endpoint(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        lo, hi = mplf.feasible_interval(
            model, profile, zero_base(model, profile), s_ref, theorem=1,
            kappa_bounds=(-10, 10),
        )
        # self-mapping needs 0.1 kappa <= rho (1 - rho) <= 1/4, reached at
        # rho = 1/2; the edges move inward by ENDPOINT_MARGIN
        assert hi == pytest.approx(2.5, rel=1e-9)
        assert lo == pytest.approx(-2.5, rel=1e-9)
        assert -2.5 < lo and hi < 2.5

    def test_zero_reference_reports_scan_bounds(self, single_phase_case):
        model, profile, _ = single_phase_case
        zero_ref = mplf.InjectionSet.zeros(model)
        for theorem in (1, 2):
            lo, hi = mplf.feasible_interval(
                model, profile, zero_base(model, profile), zero_ref, theorem=theorem,
                kappa_bounds=(-7, 7),
            )
            assert (lo, hi) == (-7, 7)

    def test_center_must_pass(self, single_phase_case):
        # The low-voltage solution at kappa = 2 lies on the ray, but its
        # margins are too small: Theorem 2's condition 1 reads 0.2 < 0.076.
        model, profile, s_ref = single_phase_case
        low = mplf.newton_oracle(model, s_ref.scaled(2.0), v_init=[0.3])
        assert abs(low.v[0]) < 0.3
        for theorem in (1, 2):
            with pytest.raises(ValueError, match="does not pass at the interval center"):
                mplf.feasible_interval(
                    model, profile, (low.v, s_ref.scaled(2.0)), s_ref, theorem=theorem,
                    kappa_bounds=(-5, 5), center_kappa=2.0,
                )

    def test_zero_voltage_base_does_not_pass(self, single_phase_case):
        # Used to escape as ZeroDivisionError from the certificate call.
        model, profile, s_ref = single_phase_case
        base = (np.zeros(model.n_phases, dtype=complex), mplf.InjectionSet.zeros(model))
        with pytest.raises(ValueError, match="does not pass at the interval center"):
            mplf.feasible_interval(model, profile, base, s_ref, theorem=2)

    def test_zero_voltage_base_does_not_pass_theorem1(self, single_phase_case):
        # gamma is 0 at a zero voltage; Theorem 1's scan used to divide 0 by 0.
        model, profile, s_ref = single_phase_case
        base = (np.zeros(model.n_phases, dtype=complex), mplf.InjectionSet.zeros(model))
        with pytest.raises(ValueError, match="does not pass at the interval center"):
            mplf.feasible_interval(model, profile, base, s_ref, theorem=1)

    def test_off_ray_base_rejected(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        base_inj = s_ref.scaled(1.0)
        sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        for base, center in (
            (zero_base(model, profile), 1.0),
            ((sol.v, base_inj), 0.0),
            ((sol.v, base_inj), 1.0 + 1e-12),
        ):
            with pytest.raises(ValueError, match="center_kappa"):
                mplf.feasible_interval(
                    model, profile, base, s_ref, kappa_bounds=(-2, 2), center_kappa=center
                )

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_one_certificate_call(self, single_phase_case, monkeypatch, theorem):
        # For either theorem, the only call is Theorem 2 for a unit step
        # along the ray from the base, s_hat + s_ref.
        model, profile, s_ref = single_phase_case
        calls = count_certificate_calls(monkeypatch)
        base_inj = s_ref.scaled(0.5)
        base = (mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12).v, base_inj)
        mplf.feasible_interval(model, profile, base, s_ref, theorem=theorem, center_kappa=0.5)
        assert [name for name, _ in calls] == ["check_theorem2"]
        target = calls[0][1]
        step = base_inj + s_ref
        assert np.array_equal(target.s_wye, step.s_wye)
        assert np.array_equal(target.s_delta, step.s_delta)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(kappa_bounds=(-np.inf, 1.0)), "kappa_bounds"),
            (dict(kappa_bounds=(-1.0, np.nan)), "kappa_bounds"),
            (dict(center_kappa=np.nan), "center_kappa"),
            (dict(center_kappa=np.inf), "center_kappa"),
        ],
    )
    def test_non_finite_kappa_rejected(self, single_phase_case, kwargs, name):
        # An infinite bound used to report "injections must be finite", a
        # nan bound or center "center_kappa must lie within kappa_bounds".
        model, profile, s_ref = single_phase_case
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            mplf.feasible_interval(model, profile, zero_base(model, profile), s_ref, **kwargs)


def count_certificate_calls(monkeypatch):
    """Record ``(name, target)`` of every certificate call ``analysis`` makes."""
    calls = []
    for name in ("check_theorem1", "check_theorem2"):

        def counted(*args, _name=name, **kwargs):
            calls.append((_name, args[3]))
            return getattr(mplf.certify, _name)(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted, raising=False)
    return calls


def mixed_case(case):
    """A bundled feeder with its mixed injections, or a seeded certified
    random instance."""
    if isinstance(case, str):
        model = mplf.network_from_file(bundled_path(f"{case}_network.json"))
        path = bundled_path(f"{case}_injections_mixed.json")
        return model, mplf.zero_load_voltage(model), mplf.injections_from_file(path, model)
    return certified_instance(np.random.default_rng(case))


def ray_case(rng, base_kappa):
    """A certified random instance and its solved base on the ray."""
    model, profile, s_ref = certified_instance(rng)
    base_inj = s_ref.scaled(base_kappa)
    if base_kappa == 0.0:
        return model, profile, s_ref, (profile.w, base_inj)
    sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-13)
    return model, profile, s_ref, (sol.v, base_inj)


class TestRayIntervalProperties:
    """The closed-form intervals against brute-force certificate calls."""

    BOUNDS = (-10.0, 10.0)
    GRID = np.linspace(-10.0, 10.0, 401)

    @staticmethod
    def passes(model, profile, base, s_ref, theorem, kappa):
        check = mplf.check_theorem1 if theorem == 1 else mplf.check_theorem2
        return check(model, profile, base, s_ref.scaled(kappa)).satisfied

    @pytest.mark.parametrize("theorem", [1, 2])
    @pytest.mark.parametrize("base_kappa", [0.0, 0.6, -1.3])
    @pytest.mark.parametrize("seed", [0, 4, 5, 11])  # with and without delta pairs
    def test_matches_brute_force(self, theorem, base_kappa, seed):
        rng = np.random.default_rng(seed)
        model, profile, s_ref, base = ray_case(rng, base_kappa)
        lo, hi = mplf.feasible_interval(
            model, profile, base, s_ref, theorem=theorem, kappa_bounds=self.BOUNDS,
            center_kappa=base_kappa,
        )
        assert self.BOUNDS[0] <= lo <= base_kappa <= hi <= self.BOUNDS[1]
        for edge in (lo, hi):
            assert self.passes(model, profile, base, s_ref, theorem, edge)
        # The passing run of grid points around the base ends between the
        # last grid point inside [lo, hi] and the first one outside it.
        ok = np.array(
            [self.passes(model, profile, base, s_ref, theorem, k) for k in self.GRID]
        )
        assert ok[(self.GRID >= lo) & (self.GRID <= hi)].all()
        below, above = ok[self.GRID < lo], ok[self.GRID > hi]
        assert not (below.size and below[-1]) and not (above.size and above[0])
        step = 1e-7 * max(1.0, abs(hi))
        if hi < self.BOUNDS[1]:
            assert not self.passes(model, profile, base, s_ref, theorem, hi + step)
        if lo > self.BOUNDS[0]:
            assert not self.passes(model, profile, base, s_ref, theorem, lo - step)

    @pytest.mark.parametrize("base_kappa", [0.0, 0.6, -1.3])
    def test_theorem2_closed_form(self, base_kappa):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model, profile, s_ref, base = ray_case(rng, base_kappa)
            rhs = mplf.check_theorem2(model, profile, base, base[1]).diagnostics[
                "condition2"
            ]["rhs"]
            half = rhs / mplf.xi_norms(model, profile, s_ref).xi_total
            lo, hi = mplf.feasible_interval(
                model, profile, base, s_ref, theorem=2, kappa_bounds=(-100.0, 100.0),
                center_kappa=base_kappa,
            )
            assert lo == pytest.approx(base_kappa - half, rel=1e-9, abs=1e-9)
            assert hi == pytest.approx(base_kappa + half, rel=1e-9, abs=1e-9)


def grid_theorem1_ray(gam, xi_hat, xi_ref, center, points):
    """Reference for ``certify._theorem1_ray`` on a nonzero ``xi_ref``:
    each of ``points`` radii spread evenly over ``(0, gamma)`` certifies one
    interval of kappa, and the result is the connected component of their
    union that holds ``center``."""
    zero = XiQuantities(0.0, 0.0)
    rho = gam.gamma * np.arange(1, points + 1) / (points + 1)
    per_change, per_target = theorem1_sides(gam, rho, xi_ref, zero, xi_ref)
    base_term = theorem1_sides(gam, rho, zero, xi_hat, zero)[0]
    reach = np.where(base_term <= rho, rho - base_term, -np.inf) / per_change
    lo = np.maximum(center - reach, -1.0 / per_target)
    hi = np.minimum(center + reach, 1.0 / per_target)
    keep = (base_term <= rho) & (lo <= hi)
    order = np.argsort(lo[keep], kind="stable")
    lo, hi = lo[keep][order], np.maximum.accumulate(hi[keep][order])
    holds = (lo <= center) & (center <= hi)
    component = np.cumsum(np.r_[True, lo[1:] > hi[:-1]])
    members = np.flatnonzero(component == component[np.argmax(holds)])
    return float(lo[members[0]]), float(hi[members[-1]])


def test_theorem1_union_reaches_past_intervals_holding_the_base():
    # Near the edge of feasibility, on a grid of 2000 radii, one radius
    # whose interval misses kappa_b extends the component that holds it by
    # about 2.6e-7.  The exact interval holds that whole component, and its
    # edges are where the pointwise decision changes.
    gam = GammaQuantities(0.6823482162879797, math.inf)
    ref = XiQuantities(0.17976654130160832, 0.0)
    kappa_b = -2.5157266417175954
    xi_base = XiQuantities(abs(kappa_b) * ref.xi_wye, 0.0)
    lo, hi = _theorem1_ray(gam, xi_base, ref, kappa_b)

    def certified(kappa):
        return theorem1_radius(
            gam, XiQuantities(abs(kappa - kappa_b) * ref.xi_wye, 0.0), xi_base,
            XiQuantities(abs(kappa) * ref.xi_wye, 0.0),
        )[0]

    assert lo < kappa_b < hi
    assert all(certified(k) for k in np.linspace(lo, hi, 201)[1:-1])
    assert not certified(lo - 1e-9) and not certified(hi + 1e-9)
    grid_lo, grid_hi = grid_theorem1_ray(gam, xi_base, ref, kappa_b, 2000)
    assert lo < grid_lo and grid_hi < hi


def test_theorem1_reach_growing_up_to_gamma():
    # With wye injections only, the pair margin beta = 0.4 sets gamma, but
    # no term of Theorem 1 divides by beta - rho: reach = 10 rho (1 - rho)
    # grows up to gamma, and the interval approaches +-2.4 there.
    gam, ref = GammaQuantities(1.0, 0.4), XiQuantities(0.1, 0.0)
    lo, hi = _theorem1_ray(gam, XiQuantities(0.0, 0.0), ref, 0.0)
    assert lo == -hi and hi == pytest.approx(2.4, rel=1e-14)
    assert grid_theorem1_ray(gam, XiQuantities(0.0, 0.0), ref, 0.0, 100000)[1] < hi


def scanned_theorem1_ray(gam, xi_hat, xi_ref, center, points=100000, rounds=4):
    """Reference for ``certify._theorem1_ray``: the hull of the intervals
    that hold ``center`` over ``points`` radii spread evenly over
    ``[0, gamma)`` and the last float below ``gamma``, each edge refined by
    ``rounds`` scans of 20001 radii between the neighbours of its best
    radius; ``None`` where no radius holds the center."""
    zero = XiQuantities(0.0, 0.0)

    def intervals(rho):
        per_change, per_target = theorem1_sides(gam, rho, xi_ref, zero, xi_ref)
        reach = (rho - theorem1_sides(gam, rho, zero, xi_hat, zero)[0]) / per_change
        lo = np.maximum(center - reach, -1.0 / per_target)
        hi = np.minimum(center + reach, 1.0 / per_target)
        holds = (lo <= center) & (center <= hi)
        return np.where(holds, lo, np.inf), np.where(holds, -hi, np.inf)

    rho = np.r_[np.linspace(0.0, gam.gamma, points, endpoint=False), np.nextafter(gam.gamma, 0.0)]
    edges = []
    for side in range(2):
        radii, best = rho, np.inf
        for _ in range(rounds + 1):
            values = intervals(radii)[side]
            at = int(np.argmin(values))
            best = min(best, float(values[at]))
            radii = np.linspace(radii[max(at - 1, 0)], radii[min(at + 1, len(radii) - 1)], 20001)
        edges.append(best)
    if math.isinf(edges[0]):
        return None
    return edges[0], -edges[1]


def assert_matches_scan(gam, xi_ref, center):
    xi_hat = xi_ref.scaled(abs(center))
    edges = _theorem1_ray(gam, xi_hat, xi_ref, center)
    scanned = scanned_theorem1_ray(gam, xi_hat, xi_ref, center)
    assert (edges is None) == (scanned is None)
    if edges is not None:
        np.testing.assert_allclose(edges, scanned, rtol=1e-12, atol=0.0)


# Each ray loads one kind.  The unloaded kind's margin must add no factor
# to the polynomials: with its (margin - rho) factor, the numerator of
# reach' has a double root next to the peak, and the edges here fall short
# by 1.1e-8 relative (delta-only kappa_max 38.376315954946776, exact
# 38.37631636662945), 6.4e-10 (wye-only kappa_min -13.583604812611306,
# exact -13.583604821304569) and 1.3e-5 (wye-only-wide kappa_min
# -32.52951621140939, exact -32.529951571080254).
ONE_KIND_RAYS = [
    pytest.param(
        GammaQuantities(0.33119680123721623, 0.6667966386048911),
        XiQuantities(0.0, 0.002936671063271655),
        1.0480250384209722,
        id="delta-only",
    ),
    pytest.param(
        GammaQuantities(0.8128660374491947, 0.4021825132937602),
        XiQuantities(0.012452399751794036, 0.0),
        -0.6323629140350242,
        id="wye-only",
    ),
    pytest.param(
        GammaQuantities(0.9361940219291132, 0.46779110668162904),
        XiQuantities(0.0067448683694609655, 0.0),
        -0.08757182728396984,
        id="wye-only-wide",
    ),
]


class TestOneKindRays:
    @pytest.mark.parametrize("gam, xi_ref, center", ONE_KIND_RAYS)
    def test_edges_match_a_refined_scan(self, gam, xi_ref, center):
        assert_matches_scan(gam, xi_ref, center)

    @pytest.mark.parametrize("gam, xi_ref, center", ONE_KIND_RAYS)
    def test_zero_center(self, gam, xi_ref, center):
        # xi_hat is zero: its polynomial has no kind loaded, and the ray's
        # polynomials keep the denominator of xi_ref's kind.
        assert_matches_scan(gam, xi_ref, 0.0)

    def test_random_one_kind_rays(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            gam = GammaQuantities(*rng.uniform(0.0, 1.0, 2))
            xi = rng.uniform(0.0, 0.02)
            xi_ref = XiQuantities(xi, 0.0) if rng.random() < 0.5 else XiQuantities(0.0, xi)
            assert_matches_scan(gam, xi_ref, rng.uniform(-5.0, 5.0))


@functools.lru_cache(maxsize=None)
def bundled_ray(feeder, injections, base_kappa):
    """A bundled feeder and injection file, the base pair at ``base_kappa``
    on their ray, and the unit-step Theorem-2 call that decides both
    intervals."""
    model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
    profile = mplf.zero_load_voltage(model)
    s_ref = mplf.injections_from_file(bundled_path(f"{feeder}_{injections}.json"), model)
    base_inj = s_ref.scaled(base_kappa)
    v = profile.w if base_kappa == 0.0 else mplf.solve_fixed_point(model, profile, base_inj).v
    ray = mplf.check_theorem2(model, profile, (v, base_inj), base_inj + s_ref)
    return model, profile, s_ref, (v, base_inj), ray


BUNDLED_INJECTIONS = [
    ("single_phase", "injections"),
    ("three_bus", "injections"),
    ("ieee37", "injections"),
    ("ieee37", "injections_mixed"),
    ("ieee123", "injections"),
    ("ieee123", "injections_mixed"),
]
BUNDLED_RAYS = [(*pair, base_kappa) for pair in BUNDLED_INJECTIONS for base_kappa in (0.0, 1.0)]


@pytest.mark.parametrize("feeder, injections, base_kappa", BUNDLED_RAYS)
class TestBundledTheorem1Intervals:
    def test_edges_match_a_fine_grid(self, feeder, injections, base_kappa):
        # Grid radii are a subset of [0, gamma), so the grid's interval lies
        # inside the exact one, and falls short of it by the grid's error.
        ray = bundled_ray(feeder, injections, base_kappa)[4]
        lo, hi = _theorem1_ray(ray.margins, ray.xi_base, ray.xi_change, base_kappa)
        grid_lo, grid_hi = grid_theorem1_ray(
            ray.margins, ray.xi_base, ray.xi_change, base_kappa, 100000
        )
        assert lo <= grid_lo <= grid_hi <= hi
        assert grid_lo - lo <= 1e-9 * abs(lo) and hi - grid_hi <= 1e-9 * abs(hi)

    def test_theorem2_interval_inside_theorem1(self, feeder, injections, base_kappa):
        model, profile, s_ref, base, _ = bundled_ray(feeder, injections, base_kappa)
        t1, t2 = (
            mplf.feasible_interval(
                model, profile, base, s_ref, theorem=theorem, kappa_bounds=(-10.0, 10.0),
                center_kappa=base_kappa,
            )
            for theorem in (1, 2)
        )
        assert t1[0] <= t2[0] <= t2[1] <= t1[1]

    def test_edges_pass_both_conditions(self, feeder, injections, base_kappa):
        model, profile, s_ref, base, _ = bundled_ray(feeder, injections, base_kappa)
        edges = mplf.feasible_interval(
            model, profile, base, s_ref, theorem=1, kappa_bounds=(-10.0, 10.0),
            center_kappa=base_kappa,
        )
        for kappa in edges:
            target = s_ref.scaled(kappa)
            cert = mplf.check_theorem1(model, profile, base, target)
            rho = cert.rho_used
            xi_target = mplf.xi_norms(model, profile, target)
            lhs1, lhs2 = theorem1_sides(cert.margins, rho, cert.xi_change, cert.xi_base, xi_target)
            assert cert.satisfied and lhs1 <= rho and lhs2 < 1.0


class TestRecenteredInterval:
    def test_recentering_at_zero_matches_plain_interval(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        plain = mplf.feasible_interval(
            model, profile, zero_base(model, profile), s_ref, theorem=2,
            kappa_bounds=(-5, 5),
        )
        recentered = mplf.recentered_interval(
            model, profile, 0.0, s_ref, theorem=2, kappa_bounds=(-5, 5)
        )
        assert recentered == pytest.approx(plain, abs=1e-9)

    def test_interval_extends_beyond_base(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        lo, hi = mplf.recentered_interval(
            model, profile, 1.5, s_ref, theorem=2, kappa_bounds=(-5, 5)
        )
        assert hi >= 1.5
        assert lo <= 1.5

    def test_bad_theorem_rejected_before_solving(self, single_phase_case, monkeypatch):
        # Used to run the fixed-point solve first.
        model, profile, s_ref = single_phase_case

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_fixed_point called")

        monkeypatch.setattr(analysis, "solve_fixed_point", no_solve)
        with pytest.raises(ValueError, match="theorem must be 1 or 2, got 3"):
            mplf.recentered_interval(model, profile, 0.5, s_ref, theorem=3)
        with pytest.raises(ValueError, match="theorem must be 1 or 2, got 3"):
            mplf.feasible_interval(model, profile, zero_base(model, profile), s_ref, theorem=3)

    def test_nonconvergence_propagates(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        with pytest.raises(mplf.NonConvergenceError):
            mplf.recentered_interval(model, profile, 3.0, s_ref)

    def test_base_outside_bounds_rejected_before_solving(self, single_phase_case):
        # Used to solve first: the solve at 3.0 fails to converge.
        model, profile, s_ref = single_phase_case
        with pytest.raises(ValueError, match=r"base_kappa = 3.0 lies outside .* \[-2, 2\]"):
            mplf.recentered_interval(model, profile, 3.0, s_ref, kappa_bounds=(-2, 2))

    @pytest.mark.parametrize("base_kappa", [np.nan, np.inf])
    def test_non_finite_base_kappa_rejected(self, single_phase_case, base_kappa):
        # Used to report "injections must be finite".
        model, profile, s_ref = single_phase_case
        with pytest.raises(ValueError, match="base_kappa must be finite"):
            mplf.recentered_interval(model, profile, base_kappa, s_ref)


class TestLinearErrorSweep:
    def run_sweep(self, model, profile, s_ref, base_kappa, kappas):
        base_inj = s_ref.scaled(base_kappa)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        return mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, kappas, base_kappa=base_kappa
        )

    def test_errors_vanish_at_base_and_fpl_at_zero(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        result = self.run_sweep(model, profile, s_ref, 1.0, np.linspace(-1.5, 1.5, 13))
        at = {k: i for i, k in enumerate(result.kappas)}
        i_base = at[1.0]
        assert result.fot_errors[i_base] == pytest.approx(0.0, abs=1e-9)
        assert result.fpl_errors[i_base] == pytest.approx(0.0, abs=1e-9)
        i_zero = at[0.0]
        # the explicit model interpolates the zero-load pair as well
        assert result.fpl_errors[i_zero] == pytest.approx(0.0, abs=1e-9)
        assert result.fot_errors[i_zero] > 1e-6

    def test_failed_solves_leave_gaps(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        result = self.run_sweep(model, profile, s_ref, 0.0, np.array([0.0, 1.0, 4.0]))
        assert result.fot_errors[-1] is None
        assert result.solutions[-1] is None
        assert result.fot_errors[0] == pytest.approx(0.0, abs=1e-9)

    def test_residual_miss_falls_back_to_newton(self, single_phase_case, monkeypatch):
        # A loose step tolerance stops the fixed point short of tol_residual
        # (converged=False); Newton takes over from its last iterate, and the
        # row reports Newton's step count instead of being left unsolved.
        model, profile, s_ref = single_phase_case
        newton_runs = []

        def newton(*args, **kwargs):
            newton_runs.append(mplf.newton_oracle(*args, **kwargs))
            return newton_runs[-1]

        monkeypatch.setattr(analysis, "newton_oracle", newton)
        kappas = np.linspace(-1.5, 1.5, 7)
        base_sol = mplf.solve_fixed_point(model, profile, s_ref, tol_step=1e-12)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, s_ref, s_ref, kappas, base_kappa=1.0, tol_step=1e-3
        )
        assert all(sol is not None and sol.converged for sol in result.solutions)
        assert all(err is not None for err in result.fot_errors + result.fpl_errors)
        from_newton = [
            (row, sol)
            for row, sol in zip(result.rows(), result.solutions)
            if any(sol is run for run in newton_runs)
        ]
        assert from_newton
        for row, sol in from_newton:
            assert row["solver_iters"] == sol.iterations
            assert sol.residual_inf <= 1e-8

    @pytest.mark.parametrize(
        "kappas, base_kappa, message",
        [
            ([], 0.0, "kappa_grid must not be empty"),
            ([0.0, np.nan], 0.0, "kappa_grid must be finite, got nan"),
            ([0.0, np.inf], 0.0, "kappa_grid must be finite, got inf"),
            ([0.0, 0.5], np.nan, "base_kappa must be finite"),
            ([0.0, 0.5], 1.0, r"base_kappa = 1.0 lies outside the kappa bounds \[0.0, 0.5\]"),
            ([[0.0, 0.5]], 0.0, r"kappa_grid must be one-dimensional, got shape \(1, 2\)"),
            (0.5, 0.5, r"kappa_grid must be one-dimensional, got shape \(\)"),
        ],
    )
    def test_bad_kappa_inputs_rejected(self, single_phase_case, kappas, base_kappa, message):
        # An empty grid used to escape as numpy's "zero-size array" error, a
        # nan entry as KeyError: 1, an inf entry as "injections must be
        # finite", a base outside the grid as "center_kappa must lie within
        # kappa_bounds", which names no argument of the sweep, a 2-D grid as
        # "can't multiply sequence by non-int of type 'float'" and a scalar
        # one as numpy's "axis -1 is out of bounds".
        model, profile, s_ref = single_phase_case
        base_sol = mplf.solve_fixed_point(model, profile, s_ref.scaled(0.0))
        with pytest.raises(ValueError, match=message):
            mplf.linear_error_sweep(
                model, profile, base_sol, s_ref.scaled(0.0), s_ref, kappas, base_kappa=base_kappa
            )

    @pytest.mark.parametrize("entry", ["feasible_interval", "recentered_interval", "linear_error_sweep"])
    @pytest.mark.parametrize("bounds", [(-5, 0, 5), (5, -5), (0.5,), 1.0])
    def test_kappa_bounds_must_be_an_ordered_pair(self, single_phase_case, entry, bounds):
        # Three bounds used to end in "too many values to unpack", reversed
        # ones in "center_kappa = 0.0 lies outside the kappa bounds [5, -5]".
        model, profile, s_ref = single_phase_case
        base_inj = mplf.InjectionSet.zeros(model)
        calls = {
            "feasible_interval": lambda: mplf.feasible_interval(
                model, profile, zero_base(model, profile), s_ref, kappa_bounds=bounds
            ),
            "recentered_interval": lambda: mplf.recentered_interval(
                model, profile, 0.0, s_ref, kappa_bounds=bounds
            ),
            "linear_error_sweep": lambda: mplf.linear_error_sweep(
                model, profile, mplf.solve_fixed_point(model, profile, base_inj), base_inj,
                s_ref, [0.0, 0.5], kappa_bounds=bounds,
            ),
        }
        with pytest.raises(ValueError, match=r"kappa_bounds must be an ordered pair \(lo <= hi\)"):
            calls[entry]()

    def test_interval_endpoints_recorded(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        result = self.run_sweep(model, profile, s_ref, 0.0, np.linspace(-1, 1, 5))
        assert result.kappa_bounds == (-1.0, 1.0)  # the grid's ends by default
        assert set(result.interval_endpoints) == {1, 2}
        lo2, hi2 = result.interval_endpoints[2]
        assert (lo2, hi2) == (-1.0, 1.0)  # whole grid certifies

    def test_one_certificate_call(self, single_phase_case, monkeypatch):
        # One Theorem-2 call for a unit step along the ray serves both
        # intervals and every row; a call per row made 65 on this grid, and
        # separate interval calls made 3.
        model, profile, s_ref = single_phase_case
        calls = count_certificate_calls(monkeypatch)
        result = self.run_sweep(model, profile, s_ref, 1.0, np.linspace(-1.5, 1.5, 61))
        assert len(result.certificates) == 61
        assert [name for name, _ in calls] == ["check_theorem2"]
        step = s_ref.scaled(1.0) + s_ref
        assert np.array_equal(calls[0][1].s_wye, step.s_wye)
        assert np.array_equal(calls[0][1].s_delta, step.s_delta)

    @pytest.mark.parametrize(
        "case, base_kappa",
        [("ieee37", 0.0), ("ieee37", 1.0), ("ieee123", 0.0), ("ieee123", 1.0), (5, 0.6)],
    )
    def test_intervals_match_feasible_interval(self, case, base_kappa):
        model, profile, s_ref = mixed_case(case)
        kappas = np.linspace(-1.5, 1.5, 61)
        base_inj = s_ref.scaled(base_kappa)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, kappas, base_kappa=base_kappa
        )
        for theorem in (1, 2):
            direct = mplf.feasible_interval(
                model, profile, (base_sol.v, base_inj), s_ref, theorem=theorem,
                kappa_bounds=(-1.5, 1.5), center_kappa=base_kappa,
            )
            assert result.interval_endpoints[theorem] == direct

    @pytest.mark.parametrize("base_kappa", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["ieee37", "ieee123", 0, 4, 5, 11])
    def test_rows_match_direct_certificates(self, case, base_kappa):
        model, profile, s_ref = mixed_case(case)
        kappas = np.linspace(-1.5, 1.5, 61)
        base_inj = s_ref.scaled(base_kappa)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, kappas, base_kappa=base_kappa
        )
        assert any(cert.satisfied for cert in result.certificates)
        base = (base_sol.v, base_inj)
        for kappa, row in zip(kappas, result.certificates):
            direct = mplf.check_theorem2(model, profile, base, s_ref.scaled(kappa))
            assert row.satisfied == direct.satisfied
            assert row.rho_used == direct.rho_used
            if direct.satisfied:
                assert row.rho_dagger == pytest.approx(direct.rho_dagger, rel=1e-13, abs=0)

    @pytest.mark.parametrize("case", ["ieee37", "ieee123"])
    def test_errors_equal_one_row_evaluations(self, case, monkeypatch):
        # Each error is the one a one-row evaluation gives.  Each model is
        # evaluated once per block of rows: FPL gives the starts, and its
        # error is measured from them.
        model, profile, s_ref = mixed_case(case)
        kappas = np.linspace(-1.5, 1.5, 61)
        base_sol = mplf.solve_fixed_point(model, profile, s_ref, tol_step=1e-12)
        calls = []
        for cls in (linearize._TangentModel, linearize._FixedPointModel):

            def voltages(lin, inj, _voltages=cls._voltages):
                calls.append((lin.kind, len(inj.s_wye)))
                return _voltages(lin, inj)

            monkeypatch.setattr(cls, "_voltages", voltages)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, s_ref, s_ref, kappas, base_kappa=1.0
        )
        monkeypatch.undo()
        block = analysis._ROW_BLOCK
        sizes = [min(block, 61 - start) for start in range(0, 61, block)]
        assert len(sizes) > 1
        assert sorted(calls) == sorted((kind, size) for size in sizes for kind in ("fot", "fpl"))
        models = {
            "fot": mplf.fot_linearize(model, base_sol, s_ref),
            "fpl": mplf.fpl_linearize(model, profile, base_sol, s_ref),
        }
        for kind, errors in (("fot", result.fot_errors), ("fpl", result.fpl_errors)):
            expected = []
            for kappa, sol in zip(kappas, result.solutions):
                v_lin = mplf.evaluate_linear(models[kind], stack_injections(s_ref.scaled(kappa)))[0]
                expected.append(float(np.abs(v_lin - sol.v).max()) / float(np.abs(sol.v).max()))
            assert_bitwise(np.array(errors), np.array(expected))


def fpl_start(fpl, s_ref, kappa):
    return mplf.evaluate_linear(fpl, stack_injections(s_ref.scaled(kappa)))[0]


def chained_solutions(model, profile, base_v, s_ref, kappas, base_kappa):
    """Solutions warm-started outward from the base, each from its neighbor."""
    out = [None] * len(kappas)
    up = [i for i, k in enumerate(kappas) if k >= base_kappa]
    down = [i for i, k in enumerate(kappas) if k < base_kappa][::-1]
    for chain in (up, down):
        v = base_v
        for i in chain:
            out[i] = mplf.solve_fixed_point(model, profile, s_ref.scaled(kappas[i]), v_init=v)
            v = out[i].v
    return out


class TestSweepRows:
    """Each row is solved in a block of rows, from its FPL prediction."""

    KAPPAS = np.linspace(-1.5, 1.5, 61)

    @staticmethod
    def sweep(case, base_kappa, kappas):
        model, profile, s_ref = mixed_case(case) if isinstance(case, str) else case
        base_inj = s_ref.scaled(base_kappa)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, kappas, base_kappa=base_kappa
        )
        fpl = mplf.fpl_linearize(model, profile, base_sol, base_inj)
        return model, profile, s_ref, base_sol, fpl, result

    @pytest.mark.parametrize("base_kappa", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["ieee37", "ieee123"])
    def test_rows_equal_solves_from_fpl_starts(self, case, base_kappa):
        model, profile, s_ref, _, fpl, result = self.sweep(case, base_kappa, self.KAPPAS)
        assert all(sol is not None for sol in result.solutions)
        for kappa, sol in zip(self.KAPPAS, result.solutions):
            start = fpl_start(fpl, s_ref, kappa)
            assert_same_solve(
                sol, mplf.solve_fixed_point(model, profile, s_ref.scaled(kappa), v_init=start)
            )

    @pytest.mark.parametrize("base_kappa", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["ieee37", "ieee123"])
    def test_rows_close_to_chained_solutions(self, case, base_kappa):
        model, profile, s_ref, base_sol, _, result = self.sweep(case, base_kappa, self.KAPPAS)
        chained = chained_solutions(model, profile, base_sol.v, s_ref, self.KAPPAS, base_kappa)
        for sol, ref in zip(result.solutions, chained):
            assert np.abs(sol.v - ref.v).max() <= 1e-9

    def test_failing_row_leaves_its_block_unchanged(self, single_phase_case):
        # kappa = 4 is past the nose of the single-phase curve (0.1 kappa
        # <= 1/4): the fixed point and Newton both fail there.  The rows
        # share one block, and the others are the solves from their starts.
        kappas = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0])
        assert len(kappas) <= analysis._ROW_BLOCK
        model, profile, s_ref, _, fpl, result = self.sweep(single_phase_case, 0.0, kappas)
        assert result.solutions[-1] is None
        assert result.fot_errors[-1] is None and result.fpl_errors[-1] is None
        start = fpl_start(fpl, s_ref, 4.0)
        failed = solve_outcome(mplf.solve_fixed_point, model, profile, s_ref.scaled(4.0), v_init=start)
        assert isinstance(failed, (mplf.NonConvergenceError, mplf.DegenerateVoltageError))
        for kappa, sol in zip(kappas[:-1], result.solutions):
            start = fpl_start(fpl, s_ref, kappa)
            assert_same_solve(
                sol, mplf.solve_fixed_point(model, profile, s_ref.scaled(kappa), v_init=start)
            )

    def test_newton_takes_rows_the_fixed_point_cannot(self, monkeypatch):
        # Rows whose fixed point degenerates go to Newton from their FPL
        # start; the other rows of the block are unchanged.
        model, profile = single_phase_model()
        s_ref = wye_injection(model, "load", "a", -0.1)
        kappas = np.array([0.0, 0.5, 1.0, 1.5])
        base_sol = mplf.solve_fixed_point(model, profile, s_ref.scaled(0.0))
        plain = mplf.linear_error_sweep(model, profile, base_sol, s_ref.scaled(0.0), s_ref, kappas)
        solve_rows = analysis._solve_rows

        def degenerate_at_half(model, inj, v_init, *args):
            outcomes = solve_rows(model, inj, v_init, *args)
            outcomes[1] = mplf.DegenerateVoltageError("near-zero phase voltage")
            return outcomes

        newton_starts = []

        def newton(model, inj, v_init, **kwargs):
            newton_starts.append(v_init)
            return mplf.newton_oracle(model, inj, v_init=v_init, **kwargs)

        monkeypatch.setattr(analysis, "_solve_rows", degenerate_at_half)
        monkeypatch.setattr(analysis, "newton_oracle", newton)
        result = mplf.linear_error_sweep(model, profile, base_sol, s_ref.scaled(0.0), s_ref, kappas)
        fpl = mplf.fpl_linearize(model, profile, base_sol, s_ref.scaled(0.0))
        assert len(newton_starts) == 1
        assert_bitwise(newton_starts[0], fpl_start(fpl, s_ref, 0.5))
        assert result.solutions[1].residual_inf <= 1e-8
        assert np.isnan(result.solutions[1].contraction_estimate)  # Newton's
        for j in (0, 2, 3):
            assert_same_solve(result.solutions[j], plain.solutions[j])


class TestOutputs:
    def test_csv_and_summary(self, tmp_path, single_phase_case):
        model, profile, s_ref = single_phase_case
        base_inj = s_ref.scaled(1.0)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        kappas = np.linspace(-1.5, 1.5, 7)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, kappas,
            base_kappa=1.0, kappa_bounds=(-1.5, 1.5),
        )
        out = tmp_path / "sweep.csv"
        write_continuation_csv(out, result)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert set(rows[0]) == {
            "kappa", "cert_pass", "rho_ddagger", "rho_dagger",
            "solver_iters", "fot_err", "fpl_err",
        }
        summary = interval_summary(result)
        # base 1, half-width 1.5: the interval runs from -0.5 past 1.5
        assert summary["theorem2"]["kappa_min"] == pytest.approx(-0.5, rel=1e-9)
        assert summary["theorem2"]["kappa_min_kind"] == "exact"
        assert summary["theorem2"]["kappa_max"] == 1.5
        assert summary["theorem2"]["kappa_max_kind"] == "scan_bound"

    @pytest.mark.parametrize("hi, kind", [(1.5, "scan_bound"), (3.0, "exact")])
    def test_summary_reads_the_sweep_bounds(self, single_phase_case, hi, kind):
        # The summary used to take the bounds as a second argument, which
        # could differ from the sweep's and mislabel an edge.
        model, profile, s_ref = single_phase_case
        base_inj = s_ref.scaled(1.0)
        base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
        result = mplf.linear_error_sweep(
            model, profile, base_sol, base_inj, s_ref, np.linspace(-1.5, 1.5, 7),
            base_kappa=1.0, kappa_bounds=(-1.5, hi),
        )
        assert result.kappa_bounds == (-1.5, hi)
        # base 1, half-width 1.5: the certified set ends at 2.5
        t2 = interval_summary(result)["theorem2"]
        assert t2["kappa_max"] == pytest.approx(min(hi, 2.5), rel=1e-9)
        assert t2["kappa_max_kind"] == kind
