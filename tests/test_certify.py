import io
import json
import math

import numpy as np
import pytest

import mplf
from mplf.certify import (
    GammaQuantities,
    XiQuantities,
    check_theorem2,
    gamma_quantities,
    theorem1_polynomials,
    theorem1_sides,
    xi_norms,
)
from mplf.datafiles import bundled_path
from conftest import (
    assert_bitwise,
    certified_instance,
    dense_incidence,
    random_injections,
    random_network,
    random_network_specs,
    single_phase_model,
    wye_injection,
)

RHO_DAGGER_GOLDEN = 0.5 - math.sqrt(0.15)


class TestXiNorms:
    def test_zero_injections(self, rng):
        model, profile = random_network(rng)
        xi = xi_norms(model, profile, mplf.InjectionSet.zeros(model))
        assert xi.xi_wye == xi.xi_delta == xi.xi_total == 0.0

    def test_single_phase_value(self, golden):
        model, profile, inj = golden
        xi = xi_norms(model, profile, inj)
        assert xi.xi_wye == pytest.approx(0.1, abs=1e-15)
        assert xi.xi_delta == 0.0

    def test_absolute_homogeneity(self, rng):
        model, profile = random_network(rng)
        for _ in range(50):
            inj = random_injections(rng, model, profile)
            a = complex(rng.standard_normal(), rng.standard_normal())
            lhs = xi_norms(model, profile, inj.scaled(a)).xi_total
            rhs = abs(a) * xi_norms(model, profile, inj).xi_total
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_triangle_inequality(self, rng):
        model, profile = random_network(rng)
        for _ in range(50):
            s1 = random_injections(rng, model, profile)
            s2 = random_injections(rng, model, profile)
            lhs = xi_norms(model, profile, s1 + s2).xi_total
            rhs = (
                xi_norms(model, profile, s1).xi_total
                + xi_norms(model, profile, s2).xi_total
            )
            assert lhs <= rhs + 1e-12

    def test_definiteness(self, rng):
        model, profile = random_network(rng)
        for _ in range(20):
            inj = random_injections(rng, model, profile)
            xi = xi_norms(model, profile, inj).xi_total
            tiny = inj.scaled(1e-15 / xi)
            assert xi_norms(model, profile, tiny).xi_total < 1e-14
            stacked = np.concatenate([tiny.s_wye, tiny.s_delta])
            assert np.abs(stacked).max() < 1e-12


class TestXiWeights:
    def test_built_once_per_model(self, rng, monkeypatch):
        # Two models of one network: the first scales the injections, so
        # only the second builds its weights while yll_inverse is counted.
        specs = random_network_specs(rng)
        other, model = (mplf.assemble_network(*specs) for _ in range(2))
        inj = random_injections(rng, other, mplf.zero_load_voltage(other), target_xi=0.1)
        built = []
        inverse = type(model).yll_inverse.func
        monkeypatch.setattr(
            type(model), "yll_inverse", property(lambda m: built.append(m) or inverse(m))
        )
        profile = mplf.zero_load_voltage(model)
        assert built == []
        base = (profile.w, mplf.InjectionSet.zeros(model))
        first = xi_norms(model, profile, inj)
        weights = model.xi_weights
        for _ in range(3):
            assert xi_norms(model, profile, inj) == first
            assert check_theorem2(model, profile, base, inj).satisfied
        assert built == [model]
        assert all(a is b for a, b in zip(model.xi_weights, weights))
        # the profile is the model's own, so asking again builds nothing
        assert mplf.zero_load_voltage(model) is profile
        xi_norms(model, mplf.zero_load_voltage(model), inj)
        xi_norms(other, mplf.zero_load_voltage(other), inj)
        assert built == [model]

    def test_delta_weights_equal_matrix_product_bitwise(self, rng):
        # yll^-1 H^T is taken as column differences; each product entry has
        # two nonzero terms, so the two forms round alike.  The weights are
        # the magnitudes scaled by the real 1/|w| and 1/L|w|.
        models = [mplf.network_from_file(bundled_path(f"{name}_network.json"))
                  for name in ("ieee37", "ieee123")]
        models += [random_network(rng)[0] for _ in range(10)]
        for model in models:
            profile = mplf.zero_load_voltage(model)
            product = model.yll_inverse @ dense_incidence(model.connection, model.n_phases).T
            row_scale, col_scale = 1.0 / profile.w_abs, 1.0 / profile.Lw
            expected = np.abs(product) * row_scale[:, None] * col_scale[None, :]
            assert np.array_equal(model.xi_weights[1], expected)


class TestGammaQuantities:
    def test_at_zero_load_profile(self, rng):
        model, profile = random_network(rng)
        gam = gamma_quantities(profile, profile.w)
        assert gam.alpha == pytest.approx(1.0, abs=1e-12)
        # Pair voltages fall short of the pair sums L|w|: sqrt(3)/2 on the
        # balanced three-phase buses of ieee37.
        feeder = mplf.network_from_file(bundled_path("ieee37_network.json"))
        gam = gamma_quantities(mplf.zero_load_voltage(feeder), mplf.zero_load_voltage(feeder).w)
        assert gam.alpha == pytest.approx(1.0, abs=1e-12)
        assert gam.beta <= 1.0
        assert gam.beta == pytest.approx(math.sqrt(3) / 2, abs=1e-5)
        assert gam.gamma == gam.beta

    def test_uniform_scaling(self, rng):
        model, profile = random_network(rng)
        gam = gamma_quantities(profile, 0.9 * profile.w)
        assert gam.alpha == pytest.approx(0.9, abs=1e-12)

    def test_no_delta_gives_infinite_beta(self, golden):
        model, profile, _ = golden
        gam = gamma_quantities(profile, profile.w)
        assert math.isinf(gam.beta)
        assert gam.gamma == gam.alpha


class TestTheorem2:
    def base(self, model, profile):
        return (profile.w, mplf.InjectionSet.zeros(model))

    def test_golden_values(self, golden):
        model, profile, inj = golden
        cert = mplf.check_theorem2(model, profile, self.base(model, profile), inj)
        assert cert.satisfied
        assert cert.rho_used == pytest.approx(0.5, abs=1e-12)
        assert cert.rho_dagger == pytest.approx(RHO_DAGGER_GOLDEN, abs=1e-12)
        assert cert.diagnostics["condition1"]["lhs"] == 0.0
        assert cert.diagnostics["condition2"]["lhs"] == pytest.approx(0.1, abs=1e-15)
        assert cert.diagnostics["condition2"]["rhs"] == pytest.approx(0.25, abs=1e-15)

    def test_boundary_loading_fails_strict_inequality(self):
        model, profile = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.25)
        cert = mplf.check_theorem2(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        assert not cert.satisfied
        assert cert.rho_used is None
        with pytest.raises(ValueError, match="no ball radius available"):
            cert.ball_radii(profile)

    @pytest.mark.parametrize("rho", [-1.0, np.nan, np.inf])
    def test_ball_radii_reject_bad_rho(self, golden, rho):
        # Used to return negative or NaN radii.
        model, profile, inj = golden
        cert = mplf.check_theorem2(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        with pytest.raises(ValueError, match=f"rho must be finite and >= 0, got {rho}"):
            cert.ball_radii(profile, rho=rho)
        assert np.array_equal(cert.ball_radii(profile, rho=0.0), np.zeros(model.n_phases))

    def test_target_equal_base_gives_zero_radius(self, rng):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj)
        cert = mplf.check_theorem2(model, profile, (sol.v, inj), inj)
        assert cert.satisfied
        assert cert.rho_dagger == pytest.approx(0.0, abs=1e-15)

    def test_zero_voltage_base_certifies_nothing(self):
        # A zero voltage meets the zero-load power balance, so it passes the
        # base check; its margin gamma is 0, which used to escape as
        # ZeroDivisionError.
        model, profile = single_phase_model()
        base = (np.zeros(model.n_phases, dtype=complex), mplf.InjectionSet.zeros(model))
        cert = mplf.check_theorem2(model, profile, base, wye_injection(model, "load", "a", -0.1))
        assert cert.margins.gamma == 0.0
        assert not cert.satisfied and cert.rho_used is None
        assert cert.diagnostics["condition2"]["rhs"] == 0.0

    def test_invalid_base_rejected(self, golden):
        model, profile, inj = golden
        with pytest.raises(mplf.InvalidBaseError):
            mplf.check_theorem2(model, profile, (1.5 * profile.w, inj), inj)

    def test_solution_contained_in_tight_ball(self, rng):
        for _ in range(10):
            model, profile, inj = certified_instance(rng)
            cert = mplf.check_theorem2(
                model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj
            )
            sol = mplf.solve_fixed_point(model, profile, inj)
            radii = cert.ball_radii(profile, cert.rho_dagger)
            assert (np.abs(sol.v - profile.w) <= radii + 1e-9).all()

    def test_serialization_round_trip(self, golden):
        model, profile, inj = golden
        cert = mplf.check_theorem2(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        buf = io.StringIO()
        mplf.write_json(cert.to_dict(), buf)
        doc = json.loads(buf.getvalue())
        assert doc["satisfied"] is True
        assert doc["diagnostics"]["beta"] is None  # no pairs -> reported absent
        assert doc["rho_dagger"] == pytest.approx(RHO_DAGGER_GOLDEN, rel=1e-15)


class TestTheorem1:
    def test_zero_change_returns_radius_zero(self, rng):
        # The base solves the target, so the ball of radius zero holds it.
        model, profile = random_network(rng)
        zero = mplf.InjectionSet.zeros(model)
        cert = mplf.check_theorem1(model, profile, (profile.w, zero), zero)
        assert cert.satisfied
        assert cert.rho_used == 0.0

    def test_single_phase_feasible(self, golden):
        model, profile, inj = golden
        cert = mplf.check_theorem1(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        assert cert.satisfied
        # smallest rho with rho (1 - rho) >= 0.1
        assert cert.rho_used == pytest.approx(0.5 - math.sqrt(0.15), rel=1e-12)

    @staticmethod
    def assert_smallest_passing_radius(cert, xi_target, points=100000):
        # The radius passes both conditions, and no radius of a fine grid
        # below it does.
        rho = cert.rho_used
        lhs1, lhs2 = theorem1_sides(cert.margins, rho, cert.xi_change, cert.xi_base, xi_target)
        assert lhs1 <= rho and lhs2 < 1.0
        grid = cert.margins.gamma * np.arange(1, points + 1) / (points + 1)
        grid = grid[grid < rho]
        lhs1, lhs2 = theorem1_sides(cert.margins, grid, cert.xi_change, cert.xi_base, xi_target)
        assert not ((lhs1 <= grid) & (lhs2 < 1.0)).any()

    def test_radius_is_the_smallest_that_passes(self, rng):
        # At each instance's own loading and at the edge of its Theorem-1
        # interval, where few radii pass.
        for _ in range(10):
            model, profile, inj = certified_instance(rng)
            base = (profile.w, mplf.InjectionSet.zeros(model))
            edge = mplf.feasible_interval(model, profile, base, inj, theorem=1)[1]
            for kappa in (1.0, edge):
                target = inj.scaled(kappa)
                cert = mplf.check_theorem1(model, profile, base, target)
                assert cert.satisfied
                self.assert_smallest_passing_radius(cert, xi_norms(model, profile, target))

    @pytest.mark.parametrize("kappa", [3.39996616, 3.39996617, 3.39996618])
    def test_both_theorems_pass_below_the_ieee37_theorem2_edge(self, kappa):
        # Theorem 2 passes up to kappa = 3.3999661877 on ieee37's original
        # (all-delta) loading from (w, 0); there the two theorems certify the
        # same set, so Theorem 1 must pass as well.
        model = mplf.network_from_file(bundled_path("ieee37_network.json"))
        profile = mplf.zero_load_voltage(model)
        inj = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
        base = (profile.w, mplf.InjectionSet.zeros(model))
        target = inj.scaled(kappa)
        assert mplf.check_theorem2(model, profile, base, target).satisfied
        cert = mplf.check_theorem1(model, profile, base, target)
        assert cert.satisfied
        self.assert_smallest_passing_radius(cert, xi_norms(model, profile, target))

    def test_single_phase_infeasible_beyond_limit(self):
        model, profile = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.3)
        cert = mplf.check_theorem1(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        assert not cert.satisfied
        assert cert.rho_used is None
        # rho (1 - rho) - 0.3 has the complex roots 0.5 +- 0.22i; the
        # diagnostics are taken at their real part, where lhs1 = 0.6.
        diag = cert.diagnostics
        assert diag["rho_at_diagnostics"] == pytest.approx(0.5, rel=1e-12)
        assert diag["condition1"]["lhs"] == pytest.approx(0.6, rel=1e-12)

    def test_zero_voltage_base_certifies_nothing(self):
        # gamma is 0 at a zero voltage, so no radius is left; the grid scan
        # this replaced used to divide 0 by 0, which the warning filters
        # turn into an error.
        model, profile = single_phase_model()
        base = (np.zeros(model.n_phases, dtype=complex), mplf.InjectionSet.zeros(model))
        cert = mplf.check_theorem1(model, profile, base, wye_injection(model, "load", "a", -0.1))
        assert cert.margins.gamma == 0.0
        assert not cert.satisfied and cert.rho_used is None
        assert not cert.diagnostics["condition1"]["satisfied"]
        assert not cert.diagnostics["condition2"]["satisfied"]

    def test_theorem2_implies_theorem1(self, rng):
        for _ in range(20):
            model, profile, inj = certified_instance(rng)
            base = (profile.w, mplf.InjectionSet.zeros(model))
            c2 = mplf.check_theorem2(model, profile, base, inj)
            c1 = mplf.check_theorem1(model, profile, base, inj)
            assert c2.satisfied
            assert c1.satisfied
            # the smallest certified radius is no larger than the explicit one
            assert c1.rho_used <= c2.rho_used + 1e-12


class TestTheorem1Polynomials:
    def test_both_kinds_give_the_two_kind_expressions_bitwise(self, rng):
        for _ in range(50):
            alpha, beta = rng.uniform(0.05, 1.0, 2)
            change, base = (XiQuantities(*rng.uniform(0.0, 0.1, 2)) for _ in range(2))
            n1, d = theorem1_polynomials(GammaQuantities(alpha, beta), change, base)
            a, b = np.array([-1.0, alpha]), np.array([-1.0, beta])
            wye = np.convolve([base.xi_wye / alpha, change.xi_wye], b)
            delta = np.convolve([base.xi_delta / beta, change.xi_delta], a)
            assert_bitwise(n1, np.polyadd(wye, delta))
            assert_bitwise(d, np.convolve(a, b))

    @pytest.mark.parametrize(
        "gam, change, base",
        [
            (GammaQuantities(0.9, 0.6), XiQuantities(0.0, 0.01), XiQuantities(0.0, 0.02)),
            (GammaQuantities(0.9, 0.6), XiQuantities(0.01, 0.0), XiQuantities(0.0, 0.0)),
            (GammaQuantities(0.9, 0.6), XiQuantities(0.0, 0.0), XiQuantities(0.03, 0.0)),
            (GammaQuantities(0.9, math.inf), XiQuantities(0.01, 0.0), XiQuantities(0.02, 0.0)),
        ],
    )
    def test_an_unloaded_kind_adds_no_factor(self, gam, change, base):
        # The self-mapping polynomial p1 = rho d - n1 is a quadratic, with
        # no root at the unloaded kind's margin, and n1 / d is lhs1.
        n1, d = theorem1_polynomials(gam, change, base)
        assert len(np.polysub(np.r_[d, 0.0], n1)) == 3
        rho = np.linspace(0.0, gam.gamma, 7, endpoint=False)
        lhs1 = theorem1_sides(gam, rho, change, base, change)[0]
        np.testing.assert_allclose(np.polyval(n1, rho) / np.polyval(d, rho), lhs1, rtol=1e-14)

    def test_no_loading_gives_a_constant_ratio(self):
        zero = XiQuantities(0.0, 0.0)
        n1, d = theorem1_polynomials(GammaQuantities(0.9, 0.6), zero, zero)
        assert_bitwise(n1, [0.0])
        assert_bitwise(d, [1.0])

    @pytest.mark.parametrize(
        "feeder, rho_used", [("ieee37", 0.06920979464648916), ("single_phase", 0.11270166537925831)]
    )
    def test_bundled_radius_unchanged(self, feeder, rho_used):
        # The smallest certified radius of each bundled loading from (w, 0),
        # bit for bit: ieee37's original loading is all delta, and
        # single_phase has no pairs at all.
        model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
        profile = mplf.zero_load_voltage(model)
        inj = mplf.injections_from_file(bundled_path(f"{feeder}_injections.json"), model)
        cert = mplf.check_theorem1(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
        assert cert.satisfied and cert.rho_used == rho_used
