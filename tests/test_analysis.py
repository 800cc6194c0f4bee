import csv
import math

import numpy as np
import pytest

import mplf
from mplf import analysis
from mplf.analysis import _theorem1_ray, interval_summary, write_continuation_csv
from mplf.certify import GammaQuantities, XiQuantities, theorem1_scan
from mplf.datafiles import bundled_path
from conftest import certified_instance, single_phase_model, wye_injection


@pytest.fixture
def single_phase_case():
    model, profile = single_phase_model()
    s_ref = wye_injection(model, "load", "a", -0.1)
    return model, profile, s_ref


def zero_base(model, profile):
    return (profile.w, mplf.InjectionSet.zeros(model))


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
        # self-mapping needs 0.1 kappa <= rho (1 - rho) <= 1/4, reached on
        # the grid radius nearest to 1/2
        assert hi == pytest.approx(2.5, abs=1e-6)
        assert lo == pytest.approx(-2.5, abs=1e-6)

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
        # The only call is a unit step along the ray from the base, s_hat + s_ref.
        model, profile, s_ref = single_phase_case
        calls = count_certificate_calls(monkeypatch)
        base_inj = s_ref.scaled(0.5)
        base = (mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12).v, base_inj)
        mplf.feasible_interval(model, profile, base, s_ref, theorem=theorem, center_kappa=0.5)
        assert [name for name, _ in calls] == [f"check_theorem{theorem}"]
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

        monkeypatch.setattr(analysis, name, counted)
    return calls


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


def test_theorem1_union_reaches_past_intervals_holding_the_base():
    # Near the edge of feasibility, a radius whose interval misses the base
    # can still extend the component that holds it: here the radii whose
    # interval holds kappa_b end about 2.6e-7 short of the returned edge.
    gam = GammaQuantities(0.6823482162879797, math.inf)
    ref = XiQuantities(0.17976654130160832, 0.0)
    kappa_b, points = -2.5157266417175954, 2000
    xi_base = XiQuantities(abs(kappa_b) * ref.xi_wye, 0.0)
    lo, hi = _theorem1_ray(gam, xi_base, ref, points, kappa_b)

    def certified(kappa):
        rho, lhs1, lhs2 = theorem1_scan(
            gam, points, XiQuantities(abs(kappa - kappa_b) * ref.xi_wye, 0.0),
            XiQuantities(abs(kappa_b) * ref.xi_wye, 0.0), XiQuantities(abs(kappa) * ref.xi_wye, 0.0),
        )
        return bool(((lhs1 <= rho) & (lhs2 < 1.0)).any())

    assert lo < kappa_b < hi
    assert all(certified(k) for k in np.linspace(lo, hi, 201)[1:-1])
    assert not certified(lo - 1e-9) and not certified(hi + 1e-9)


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
        ],
    )
    def test_bad_kappa_inputs_rejected(self, single_phase_case, kappas, base_kappa, message):
        # An empty grid used to escape as numpy's "zero-size array" error, a
        # nan entry as KeyError: 1, an inf entry as "injections must be
        # finite", a base outside the grid as "center_kappa must lie within
        # kappa_bounds", which names no argument of the sweep.
        model, profile, s_ref = single_phase_case
        base_sol = mplf.solve_fixed_point(model, profile, s_ref.scaled(0.0))
        with pytest.raises(ValueError, match=message):
            mplf.linear_error_sweep(
                model, profile, base_sol, s_ref.scaled(0.0), s_ref, kappas, base_kappa=base_kappa
            )

    def test_interval_endpoints_recorded(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        result = self.run_sweep(model, profile, s_ref, 0.0, np.linspace(-1, 1, 5))
        assert set(result.interval_endpoints) == {1, 2}
        lo2, hi2 = result.interval_endpoints[2]
        assert (lo2, hi2) == (-1.0, 1.0)  # whole grid certifies

    def test_three_certificate_calls(self, single_phase_case, monkeypatch):
        # Two interval calls and one Theorem-2 call for the rows; a call per
        # row made 65 on this grid.
        model, profile, s_ref = single_phase_case
        calls = count_certificate_calls(monkeypatch)
        result = self.run_sweep(model, profile, s_ref, 1.0, np.linspace(-1.5, 1.5, 61))
        assert len(result.certificates) == 61
        assert len(calls) <= 3

    @pytest.mark.parametrize("base_kappa", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["ieee37", "ieee123", 0, 4, 5, 11])
    def test_rows_match_direct_certificates(self, case, base_kappa):
        if isinstance(case, str):
            model = mplf.network_from_file(bundled_path(f"{case}_network.json"))
            profile = mplf.zero_load_voltage(model)
            path = bundled_path(f"{case}_injections_mixed.json")
            s_ref = mplf.injections_from_file(path, model)
        else:
            model, profile, s_ref = certified_instance(np.random.default_rng(case))
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
        summary = interval_summary(result, (-1.5, 1.5))
        # base 1, half-width 1.5: the interval runs from -0.5 past 1.5
        assert summary["theorem2"]["kappa_min"] == pytest.approx(-0.5, rel=1e-9)
        assert summary["theorem2"]["kappa_min_kind"] == "exact"
        assert summary["theorem2"]["kappa_max"] == 1.5
        assert summary["theorem2"]["kappa_max_kind"] == "scan_bound"
