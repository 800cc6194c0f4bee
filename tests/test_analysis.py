import csv

import numpy as np
import pytest

import mplf
from mplf.analysis import interval_summary, write_continuation_csv
from conftest import single_phase_model, wye_injection


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
            kappa_bounds=(-10, 10), tol_kappa=1e-4,
        )
        assert hi == pytest.approx(2.5, abs=1e-3)
        assert lo == pytest.approx(-2.5, abs=1e-3)

    def test_scanned_certificate_endpoint(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        lo, hi = mplf.feasible_interval(
            model, profile, zero_base(model, profile), s_ref, theorem=1,
            kappa_bounds=(-10, 10), tol_kappa=1e-3,
        )
        # self-mapping needs 0.1 kappa <= rho (1 - rho) <= 1/4
        assert hi == pytest.approx(2.5, abs=0.01)
        assert lo == pytest.approx(-2.5, abs=0.01)

    def test_zero_reference_reports_scan_bounds(self, single_phase_case):
        model, profile, _ = single_phase_case
        zero_ref = mplf.InjectionSet.zeros(model)
        lo, hi = mplf.feasible_interval(
            model, profile, zero_base(model, profile), zero_ref, kappa_bounds=(-7, 7)
        )
        assert (lo, hi) == (-7, 7)

    def test_center_must_pass(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        big = s_ref.scaled(10.0)
        with pytest.raises(ValueError, match="center"):
            mplf.feasible_interval(
                model, profile, zero_base(model, profile), big, theorem=2,
                kappa_bounds=(-2, 2), center_kappa=1.0,
            )


class TestRecenteredInterval:
    def test_recentering_at_zero_matches_plain_interval(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        plain = mplf.feasible_interval(
            model, profile, zero_base(model, profile), s_ref, theorem=2,
            kappa_bounds=(-5, 5), tol_kappa=1e-4,
        )
        recentered = mplf.recentered_interval(
            model, profile, 0.0, s_ref, theorem=2, kappa_bounds=(-5, 5), tol_kappa=1e-4
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

    def test_interval_endpoints_recorded(self, single_phase_case):
        model, profile, s_ref = single_phase_case
        result = self.run_sweep(model, profile, s_ref, 0.0, np.linspace(-1, 1, 5))
        assert set(result.interval_endpoints) == {1, 2}
        lo2, hi2 = result.interval_endpoints[2]
        assert (lo2, hi2) == (-1.0, 1.0)  # whole grid certifies


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
        summary = interval_summary(result, (-1.5, 1.5), zero_base=False)
        assert summary["theorem2"]["kappa_max_kind"] in {"scan_bound", "bracketed"}
