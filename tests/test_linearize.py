import dataclasses
import io
import json

import numpy as np
import numpy.testing as npt
import pytest

import mplf
from mplf import linearize
from mplf.linearize import stack_injections
from mplf.netmodel import LUFactor
from mplf.datafiles import bundled_path
from conftest import (
    BALANCED_V0,
    assert_bitwise,
    certified_instance,
    dense_incidence,
    injection_row,
    random_network,
    scaled_rows,
    single_phase_model,
    solve_stacked,
    wye_injection,
)

GOLDEN_V = (1 + np.sqrt(0.6)) / 2


def zero_base_solution(model, profile):
    return mplf.solve_fixed_point(model, profile, mplf.InjectionSet.zeros(model))


class TestFotAtZeroLoad:
    def test_single_phase_closed_form(self):
        model, profile = single_phase_model()
        base = zero_base_solution(model, profile)
        lin = mplf.fot_linearize(model, base, mplf.InjectionSet.zeros(model))
        npt.assert_allclose(lin.m_wye, [[1.0, -1.0j]], atol=1e-12)
        npt.assert_allclose(lin.a, [1.0], atol=1e-12)
        npt.assert_allclose(lin.k_wye, [[1.0, 0.0]], atol=1e-12)
        npt.assert_allclose(lin.b, [1.0], atol=1e-12)

    def test_matches_closed_form_blocks(self, rng):
        for _ in range(5):
            model, profile = random_network(rng)
            base = zero_base_solution(model, profile)
            lin = mplf.fot_linearize(model, base, mplf.InjectionSet.zeros(model))
            p = np.linalg.solve(model.yll.toarray(), np.diag(1.0 / np.conj(profile.w)))
            npt.assert_allclose(lin.m_wye, np.hstack([p, -1j * p]), atol=1e-9)
            if model.n_delta:
                H = dense_incidence(model.connection, model.n_phases)
                q = np.linalg.solve(model.yll.toarray(), H.T @ np.diag(1.0 / (H @ np.conj(profile.w))))
                npt.assert_allclose(lin.m_delta, np.hstack([q, -1j * q]), atol=1e-9)

    def test_coincides_with_fpl_at_zero_load(self, rng):
        for _ in range(5):
            model, profile = random_network(rng)
            base = zero_base_solution(model, profile)
            zero = mplf.InjectionSet.zeros(model)
            fot = mplf.fot_linearize(model, base, zero)
            fpl = mplf.fpl_linearize(model, profile, base, zero)
            npt.assert_allclose(fot.m_wye, fpl.m_wye, atol=1e-9)
            npt.assert_allclose(fot.m_delta, fpl.m_delta, atol=1e-9)
            npt.assert_allclose(fot.a, fpl.a, atol=1e-9)
            npt.assert_allclose(fot.k_wye, fpl.k_wye, atol=1e-9)
            npt.assert_allclose(fot.b, fpl.b, atol=1e-9)


class TestFotGeneral:
    def test_singular_base_rejected(self):
        # At the loadability limit the balance equations have a double root
        # and the sensitivity operator loses rank.
        model, profile = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.25)
        base = mplf.SolveResult(
            v=np.array([0.5 + 0j]),
            i_delta=np.zeros(0, complex),
            i=np.array([-0.5 + 0j]),
            iterations=0,
            residual_inf=0.0,
            converged=True,
            contraction_estimate=0.0,
        )
        with pytest.raises(
            mplf.SingularSensitivityError,
            match=r"^reduced sensitivity operator is singular or near-singular \(rcond=",
        ):
            mplf.fot_linearize(model, base, inj)

    def test_zero_base_voltage_rejected(self):
        # v = 0 with no load balances exactly, but the balance rows cannot
        # be divided by it (and |v| = 0 leaves the magnitude map undefined).
        model, profile = single_phase_model()
        base = mplf.SolveResult(
            v=np.zeros(1, complex),
            i_delta=np.zeros(0, complex),
            i=np.array([-1.0 + 0j]),
            iterations=0,
            residual_inf=0.0,
            converged=True,
            contraction_estimate=0.0,
        )
        zero = mplf.InjectionSet.zeros(model)
        message = "^degenerate phase voltage at the base point$"
        with pytest.raises(mplf.DegenerateVoltageError, match=message):
            mplf.fot_linearize(model, base, zero)
        with pytest.raises(mplf.DegenerateVoltageError, match=message):
            mplf.fpl_linearize(model, profile, base, zero)

    def test_invalid_base_rejected(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj)
        bad = mplf.SolveResult(
            v=1.2 * sol.v,
            i_delta=sol.i_delta,
            i=sol.i,
            iterations=0,
            residual_inf=0.0,
            converged=True,
            contraction_estimate=0.0,
        )
        with pytest.raises(mplf.InvalidBaseError):
            mplf.fot_linearize(model, bad, inj)

    def test_evaluate_at_base_reproduces_base(self, rng):
        for _ in range(5):
            model, profile, inj = certified_instance(rng)
            sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-12)
            lin = mplf.fot_linearize(model, sol, inj)
            v, vabs = mplf.evaluate_linear(lin, stack_injections(inj))
            npt.assert_allclose(v, sol.v, atol=1e-12)
            npt.assert_allclose(vabs, np.abs(sol.v), atol=1e-12)

    def test_deviation_is_affine(self, rng):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-12)
        lin = mplf.fot_linearize(model, sol, inj)
        x_hat = stack_injections(inj)
        d = rng.standard_normal(x_hat.size)
        v1, _ = mplf.evaluate_linear(lin, x_hat + d)
        v2, _ = mplf.evaluate_linear(lin, x_hat + 2 * d)
        npt.assert_allclose(v2 - sol.v, 2 * (v1 - sol.v), atol=1e-10)

    def test_sensitivities_match_finite_differences(self, rng):
        h = 1e-6
        for _ in range(3):
            model, profile, inj = certified_instance(rng, max_buses=3, xi_range=(0.03, 0.08))
            sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-13, max_iter=5000)
            lin = mplf.fot_linearize(model, sol, inj)
            x_hat = stack_injections(inj)
            m_full = np.hstack([lin.m_wye, lin.m_delta])
            cols = rng.choice(x_hat.size, size=min(4, x_hat.size), replace=False)
            for k in cols:
                shift = np.zeros_like(x_hat)
                shift[k] = h
                vp = solve_stacked(model, profile, x_hat + shift, sol.v)
                vm = solve_stacked(model, profile, x_hat - shift, sol.v)
                fd = (vp - vm) / (2 * h)
                scale = max(np.abs(m_full[:, k]).max(), 1e-9)
                assert np.abs(fd - m_full[:, k]).max() / scale <= 1e-4

    def test_local_error_is_superlinear(self, rng):
        model, profile, inj = certified_instance(rng, xi_range=(0.03, 0.08))
        sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-13, max_iter=5000)
        lin = mplf.fot_linearize(model, sol, inj)
        x_hat = stack_injections(inj)
        d = rng.standard_normal(x_hat.size)
        d /= np.abs(d).max() / max(np.abs(x_hat).max(), 0.05)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            x = x_hat + t * d
            v_exact = solve_stacked(model, profile, x, sol.v)
            v_lin, _ = mplf.evaluate_linear(lin, x)
            ratios.append(np.abs(v_lin - v_exact).max() / t)
        assert ratios[0] > ratios[1] > ratios[2]


def stacked_reference(model, sol, inj):
    """The tangent model from the unreduced operator on (Re dV, Im dV, Re dI, Im dI).

    The balance rows and the pair-definition rows are kept side by side in
    one dense real 2(n+d) system, solved against every injection column.
    """
    v_hat = sol.v
    H = dense_incidence(model.connection, model.n_phases)
    n, d = model.n_phases, model.n_delta
    hv = H @ v_hat
    ic_delta = inj.s_delta / hv
    i_hat = model.yl0 @ model.v0 + model.yll @ v_hat
    a1 = np.diag(H.T @ ic_delta) - np.diag(np.conj(i_hat))
    a2 = -v_hat[:, None] * np.conj(model.yll.toarray())
    a3 = v_hat[:, None] * H.T
    b1 = ic_delta[:, None] * H
    b2 = np.diag(hv)

    def real(lin, conj=None):
        # Real form of x -> lin x (+ conj conj(x)).
        c2 = np.zeros_like(lin) if conj is None else conj
        return np.block(
            [
                [lin.real + c2.real, -lin.imag + c2.imag],
                [lin.imag + c2.imag, lin.real - c2.real],
            ]
        )

    op = np.block([[real(a1, a2), real(a3)], [real(b1), real(b2)]])
    rhs = np.zeros((2 * (n + d), 2 * (n + d)))
    rhs[: 2 * n, : 2 * n] = -np.eye(2 * n)
    rhs[2 * n :, 2 * n :] = np.eye(2 * d)
    sol_cols = np.linalg.solve(op, rhs)
    dv = sol_cols[:n] + 1j * sol_cols[n : 2 * n]
    m_wye, m_delta = dv[:, : 2 * n], dv[:, 2 * n :]
    x_hat = stack_injections(inj)
    m_full = np.hstack([m_wye, m_delta])
    k_full = np.real(np.conj(v_hat)[:, None] * m_full) / np.abs(v_hat)[:, None]
    return {
        "m_wye": m_wye,
        "m_delta": m_delta,
        "a": v_hat - m_full @ x_hat,
        "k_wye": k_full[:, : 2 * n],
        "k_delta": k_full[:, 2 * n :],
        "b": np.abs(v_hat) - k_full @ x_hat,
    }


def bundled_case(name, injections="injections"):
    model = mplf.network_from_file(bundled_path(f"{name}_network.json"))
    inj = mplf.injections_from_file(bundled_path(f"{name}_{injections}.json"), model)
    return model, mplf.zero_load_voltage(model), inj


class TestReducedOperator:
    """The reduced 2n operator gives the tangent model of the stacked one."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: bundled_case("ieee37", "injections_mixed"),
            lambda: bundled_case("ieee123", "injections_mixed"),
            lambda: bundled_case("three_bus"),
            lambda: bundled_case("single_phase"),
            *[lambda k=k: certified_instance(np.random.default_rng(77 + k)) for k in range(5)],
        ],
        ids=["ieee37", "ieee123", "three_bus", "single_phase"]
        + [f"certified{k}" for k in range(5)],
    )
    def test_matches_stacked_operator(self, case):
        model, profile, inj = case()
        sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-12)
        lin = mplf.fot_linearize(model, sol, inj)
        ref = stacked_reference(model, sol, inj)
        for name, expected in ref.items():
            got = getattr(lin, name)
            assert got.shape == expected.shape, name
            if expected.size:
                scale = np.abs(expected).max()
                assert np.abs(got - expected).max() <= 1e-10 * scale, name
        assert lin.m_delta.shape == (model.n_phases, 2 * model.n_delta)

    def test_degenerate_pair_voltage_rejected(self):
        # A zero-injection ab pair whose phases carry the same voltage: the
        # pair rows no longer determine the pair current, and the stacked
        # operator has a zero row.
        buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab", ("ab",))]
        y = np.array([[3.0 - 9.0j, -0.5 + 1.0j], [-0.5 + 1.0j, 3.0 - 9.0j]])
        lines = [mplf.LineSpec("s", "b", "ab", y)]
        model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2]))
        v = np.array([0.9 - 0.2j, 0.9 - 0.2j])
        i = model.yl0 @ model.v0 + model.yll @ v
        inj = mplf.InjectionSet(v * np.conj(i), np.zeros(1, complex))
        base = mplf.SolveResult(
            v=v,
            i_delta=np.zeros(1, complex),
            i=i,
            iterations=0,
            residual_inf=0.0,
            converged=True,
            contraction_estimate=0.0,
        )
        with pytest.raises(
            mplf.SingularSensitivityError,
            match=r"^phase-pair voltage \|Hv\| = 0\.000e\+00 at the base is not above 1e-09; "
            "the pair currents have no unique sensitivity$",
        ):
            mplf.fot_linearize(model, base, inj)
        with pytest.raises(
            mplf.DegenerateVoltageError, match="^degenerate phase-pair voltage at the base point$"
        ):
            mplf.fpl_linearize(model, mplf.zero_load_voltage(model), base, inj)


class TestFpl:
    def test_offset_is_zero_load_voltage(self, rng):
        for _ in range(5):
            model, profile, inj = certified_instance(rng)
            sol = mplf.solve_fixed_point(model, profile, inj)
            lin = mplf.fpl_linearize(model, profile, sol, inj)
            npt.assert_allclose(lin.a, profile.w, atol=1e-15)

    def test_evaluate_at_base_returns_base(self, rng):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-12)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        v, vabs = mplf.evaluate_linear(lin, stack_injections(inj))
        npt.assert_allclose(v, sol.v, atol=1e-10)
        npt.assert_allclose(vabs, np.abs(sol.v), atol=1e-10)

    def test_matches_one_map_application(self, rng):
        # The model evaluated at arbitrary injections is one update step
        # frozen at the base voltages, bit for bit.
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        other = inj.scaled(0.4 + 0.2j)
        v_lin, _ = mplf.evaluate_linear(lin, stack_injections(other))
        assert_bitwise(v_lin, mplf.fixed_point_map(model, profile, other, lin.base_v))

    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    def test_stacked_rows_match_one_map_application(self, feeder):
        # Each row of a stack, a zero row and a half-zeroed row among them,
        # is the map applied to that row at the base voltages.
        model, profile, inj = bundled_case(feeder, "injections_mixed")
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        stack = scaled_rows(inj, [0.5, 0.0, 1.2, -0.7])
        stack.s_wye[3, ::2] = 0
        stack.s_delta[3, ::2] = 0
        v_lin, _ = mplf.evaluate_linear(lin, stack_injections(stack))
        for j in range(4):
            row = injection_row(stack, j)
            assert_bitwise(v_lin[j], mplf.fixed_point_map(model, profile, row, lin.base_v))

    def test_single_phase_prediction_and_error(self, golden):
        model, profile, inj = golden
        base = zero_base_solution(model, profile)
        lin = mplf.fpl_linearize(model, profile, base, mplf.InjectionSet.zeros(model))
        v_lin, _ = mplf.evaluate_linear(lin, stack_injections(inj))
        npt.assert_allclose(v_lin, [0.9], atol=1e-12)
        assert abs(v_lin[0] - GOLDEN_V) == pytest.approx(0.0127017, abs=1e-6)

    def test_evaluate_at_zero_returns_w(self, rng):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        v, vabs = mplf.evaluate_linear(lin, np.zeros_like(stack_injections(inj)))
        npt.assert_allclose(v, profile.w, atol=1e-15)
        npt.assert_allclose(vabs, lin.b, atol=1e-15)


def fpl_reference(model, v_hat):
    """The FPL coefficient blocks from dense solves with ``yll``."""
    p = np.linalg.solve(model.yll.toarray(), np.diag(1.0 / np.conj(v_hat)))
    H = dense_incidence(model.connection, model.n_phases)
    q = np.linalg.solve(model.yll.toarray(), H.T @ np.diag(1.0 / (H @ np.conj(v_hat))))
    return np.hstack([p, -1j * p]), np.hstack([q, -1j * q])


class TestFplCoefficients:
    """FPL's blocks are column scalings of the cached ``yll^-1``."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: bundled_case("ieee37"),
            lambda: bundled_case("ieee37", "injections_mixed"),
            lambda: bundled_case("ieee123"),
            lambda: bundled_case("ieee123", "injections_mixed"),
            *[lambda k=k: certified_instance(np.random.default_rng(91 + k)) for k in range(3)],
        ],
        ids=["ieee37", "ieee37-mixed", "ieee123", "ieee123-mixed"]
        + [f"certified{k}" for k in range(3)],
    )
    def test_matches_dense_solves(self, case):
        model, profile, inj = case()
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        for got, expected in zip((lin.m_wye, lin.m_delta), fpl_reference(model, sol.v)):
            assert got.shape == expected.shape
            if expected.size:
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_solves_nothing_once_inverse_is_cached(self, rng, monkeypatch):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj)
        model.yll_inverse

        def no_solve(rhs):
            raise AssertionError("fpl_linearize solved with yll")

        monkeypatch.setattr(model.factor, "solve", no_solve)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        assert lin.m_wye.shape == (model.n_phases, 2 * model.n_phases)


def dense_evaluate(lin, x):
    """Both predictors from the dense coefficient maps."""
    n2 = 2 * lin.n_phases
    v = lin.m_wye @ x[:n2] + lin.m_delta @ x[n2:] + lin.a
    vabs = lin.k_wye @ x[:n2] + lin.k_delta @ x[n2:] + lin.b
    return v, vabs


OPERATOR_CASES = [
    lambda: bundled_case("ieee37"),
    lambda: bundled_case("ieee37", "injections_mixed"),
    lambda: bundled_case("ieee123"),
    lambda: bundled_case("ieee123", "injections_mixed"),
    lambda: bundled_case("three_bus"),
    lambda: bundled_case("single_phase"),
    lambda: certified_instance(np.random.default_rng(5), max_buses=60),
    *[lambda k=k: certified_instance(np.random.default_rng(131 + k)) for k in range(4)],
]
OPERATOR_IDS = [
    "ieee37", "ieee37-mixed", "ieee123", "ieee123-mixed", "three_bus", "single_phase", "tree60",
] + [f"certified{k}" for k in range(4)]


class TestOperatorForm:
    """Evaluation solves with the model's factors; the dense maps are the artifact."""

    @pytest.mark.parametrize("case", OPERATOR_CASES, ids=OPERATOR_IDS)
    def test_matches_dense_maps(self, case):
        model, profile, inj = case()
        sol = mplf.solve_fixed_point(model, profile, inj, tol_step=1e-12)
        zero = mplf.InjectionSet.zeros(model)
        # One update step from w is off the solution, so the FPL prediction
        # at its base injections is not its base voltage.
        rough = dataclasses.replace(sol, v=mplf.fixed_point_map(model, profile, inj, profile.w))
        models = [
            mplf.fot_linearize(model, sol, inj),
            mplf.fpl_linearize(model, profile, sol, inj),
            mplf.fpl_linearize(model, profile, zero_base_solution(model, profile), zero),
            mplf.fpl_linearize(model, profile, rough, inj, tol_residual=np.inf),
        ]
        x_ref = stack_injections(inj)
        wobble = np.random.default_rng(3).standard_normal(x_ref.size) * np.abs(x_ref).max()
        points = [kappa * x_ref for kappa in (-1.5, 0.0, 0.5, 1.0, 1.3)] + [x_ref + 0.1 * wobble]
        for lin in models:
            for x in points:
                for got, expected in zip(mplf.evaluate_linear(lin, x), dense_evaluate(lin, x)):
                    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), lin.kind

    def test_evaluation_builds_no_dense_map(self, monkeypatch):
        model, profile, inj = bundled_case("ieee123", "injections_mixed")
        sol = mplf.solve_fixed_point(model, profile, inj)

        def no_inverse(self):
            raise AssertionError("a dense inverse was formed")

        monkeypatch.setattr(LUFactor, "inverse", no_inverse)
        fot = mplf.fot_linearize(model, sol, inj)
        fpl = mplf.fpl_linearize(model, profile, sol, inj)
        for lin in (fot, fpl):
            mplf.evaluate_linear(lin, 0.7 * stack_injections(inj))
            assert "_maps" not in vars(lin)
        assert "yll_inverse" not in vars(model)
        monkeypatch.undo()
        assert fot.m_wye.shape == (model.n_phases, 2 * model.n_phases)
        assert "_maps" in vars(fot)

    def test_wrong_length_rejected(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fot_linearize(model, sol, inj)
        for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((1, 1, 2)), np.float64(0.0)):
            with pytest.raises(ValueError, match="length 2"):
                mplf.evaluate_linear(lin, x)

    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    def test_base_injections_kept(self, kind):
        # Changing the caller's injection arrays afterwards moves no prediction.
        model, profile, inj = bundled_case("ieee37", "injections_mixed")
        sol = mplf.solve_fixed_point(model, profile, inj)
        build = {
            "fot": lambda: mplf.fot_linearize(model, sol, inj),
            "fpl": lambda: mplf.fpl_linearize(model, profile, sol, inj),
        }[kind]
        lin, x = build(), 0.7 * stack_injections(inj)
        before = mplf.evaluate_linear(build(), x)
        inj.s_wye[:] = 0
        inj.s_delta[:] = 0
        for got, want in zip(mplf.evaluate_linear(lin, x), before):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    def test_non_finite_rejected_before_any_solve(self, kind, monkeypatch):
        # A NaN entry used to come out as NaN predictions, with no error.
        _, inj, models = linear_models("ieee37")
        lin, factor = models[kind]
        mplf.evaluate_linear(lin, stack_injections(inj))  # FPL caches its base prediction

        def no_solve(rhs):
            raise AssertionError("solved with a non-finite x")

        monkeypatch.setattr(factor, "solve", no_solve)
        for bad in (np.nan, np.inf):
            x = stack_injections(inj)
            x[3] = bad
            with pytest.raises(ValueError, match="^x must be finite$"):
                mplf.evaluate_linear(lin, x)
            with pytest.raises(ValueError, match="^x must be finite$"):
                mplf.evaluate_linear(lin, np.array([stack_injections(inj), x]))
        # A complex x used to lose its imaginary part, with a ComplexWarning.
        x = stack_injections(inj) + 0j
        x[3] += 1j
        for arg in (x, np.array([stack_injections(inj), x])):
            with pytest.raises(ValueError, match="^x must be real$"):
                mplf.evaluate_linear(lin, arg)


def linear_models(feeder):
    model, profile, inj = bundled_case(feeder, "injections_mixed")
    sol = mplf.solve_fixed_point(model, profile, inj)
    fot = mplf.fot_linearize(model, sol, inj)
    fpl = mplf.fpl_linearize(model, profile, sol, inj)
    return model, inj, {"fot": (fot, fot._factor), "fpl": (fpl, model.factor)}


class TestStackedEvaluation:
    """A stack of injection rows is evaluated in one solve, each row bit for
    bit as alone."""

    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    def test_rows_equal_one_row_calls(self, feeder, kind):
        _, inj, models = linear_models(feeder)
        lin = models[kind][0]
        x_ref = stack_injections(inj)
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.5, 1.5, (17, 1)) * x_ref
        x[5] += 0.1 * rng.standard_normal(x_ref.size) * np.abs(x_ref).max()
        x[9] = 0.0
        v, vabs = mplf.evaluate_linear(lin, x)
        assert v.shape == vabs.shape == (17, lin.n_phases)
        for row, v_row, vabs_row in zip(x, v, vabs):
            v_one, vabs_one = mplf.evaluate_linear(lin, row)
            assert_bitwise(v_row, v_one)
            assert_bitwise(vabs_row, vabs_one)
        one = mplf.evaluate_linear(lin, x[:1])
        assert_bitwise(one[0], v[:1])
        assert_bitwise(one[1], vabs[:1])

    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    def test_empty_stack(self, kind):
        _, inj, models = linear_models("ieee37")
        lin = models[kind][0]
        v, vabs = mplf.evaluate_linear(lin, np.zeros((0, lin.base_x.size)))
        assert v.shape == vabs.shape == (0, lin.n_phases)

    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    def test_one_solve_per_stack(self, kind, monkeypatch):
        _, inj, models = linear_models("ieee37")
        lin, factor = models[kind]
        mplf.evaluate_linear(lin, stack_injections(inj))  # FPL caches its base prediction
        widths = []
        solve = factor.solve

        def counted(rhs):
            widths.append(rhs.shape)
            return solve(rhs)

        monkeypatch.setattr(factor, "solve", counted)
        mplf.evaluate_linear(lin, np.outer(np.linspace(0, 1, 16), stack_injections(inj)))
        assert widths == [(factor.shape[0], 16)]


class TestErrorBound:
    def test_golden_bound_dominates_observed_error(self, golden):
        model, profile, inj = golden
        base = (profile.w, mplf.InjectionSet.zeros(model))
        bound, q = mplf.fpl_error_bound(model, profile, base, inj)
        assert q == pytest.approx(0.1270167, abs=1e-7)
        assert bound == pytest.approx(0.0143151, abs=1e-6)
        assert bound >= 0.0127017 - 1e-9

    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    @pytest.mark.parametrize("injections", ["injections", "injections_mixed"])
    def test_q_is_theorem1_contraction_side(self, feeder, injections):
        # q is Theorem 1's contraction side at rho-dagger: the sum, in this
        # order, of the wye term and (with phase pairs) the delta term.
        model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
        inj = mplf.injections_from_file(bundled_path(f"{feeder}_{injections}.json"), model)
        profile = mplf.zero_load_voltage(model)
        base = (profile.w, mplf.InjectionSet.zeros(model))
        target = inj.scaled(0.5)
        cert = mplf.check_theorem2(model, profile, base, target)
        xi_t, gam, rho = mplf.xi_norms(model, profile, target), cert.margins, cert.rho_dagger
        q = xi_t.xi_wye / (gam.alpha - rho) ** 2
        if model.n_delta:
            q += xi_t.xi_delta / (gam.beta - rho) ** 2
        bound = q * rho * float(profile.w_abs.max())
        got = mplf.fpl_error_bound(model, profile, base, target)
        assert got == (bound, q)
        assert [type(x) for x in got] == [float, float]

    def test_zero_change_gives_zero_bound(self, rng):
        model, profile, inj = certified_instance(rng)
        sol = mplf.solve_fixed_point(model, profile, inj)
        bound, q = mplf.fpl_error_bound(model, profile, (sol.v, inj), inj)
        assert bound == pytest.approx(0.0, abs=1e-15)
        assert q < 1.0

    def test_uncertified_target_rejected(self):
        model, profile = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.3)
        base = (profile.w, mplf.InjectionSet.zeros(model))
        with pytest.raises(mplf.CertificateRequiredError):
            mplf.fpl_error_bound(model, profile, base, inj)

    def test_contraction_not_below_one_rejected(self, golden, monkeypatch):
        # A certificate whose rho-dagger is too large for q < 1: the check
        # must raise, also where assertions are compiled away.
        model, profile, inj = golden
        base = (profile.w, mplf.InjectionSet.zeros(model))
        cert = mplf.check_theorem2(model, profile, base, inj)
        cert.rho_dagger = 0.8  # q = 0.1 / (1 - 0.8)^2 = 2.5
        monkeypatch.setattr(linearize, "check_theorem2", lambda *args, **kwargs: cert)
        with pytest.raises(mplf.CertificateRequiredError, match=r"q = 2\.5 "):
            mplf.fpl_error_bound(model, profile, base, inj)

    def test_bound_sound_on_random_instances(self, rng):
        for _ in range(20):
            model, profile, inj = certified_instance(rng)
            base_sol = zero_base_solution(model, profile)
            zero = mplf.InjectionSet.zeros(model)
            lin = mplf.fpl_linearize(model, profile, base_sol, zero)
            bound, q = mplf.fpl_error_bound(model, profile, (profile.w, zero), inj)
            assert q < 1.0
            sol = mplf.solve_fixed_point(model, profile, inj)
            v_lin, _ = mplf.evaluate_linear(lin, stack_injections(inj))
            assert np.abs(v_lin - sol.v).max() <= bound + 1e-9


class TestSerialization:
    def test_round_trip_lossless(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj)
        lin = mplf.fpl_linearize(model, profile, sol, inj)
        buf = io.StringIO()
        mplf.write_json(lin.to_dict(), buf)
        doc = json.loads(buf.getvalue())
        assert doc["kind"] == "fpl"
        got = complex(doc["m_wye"][0][0]["re"], doc["m_wye"][0][0]["im"])
        assert got == lin.m_wye[0, 0]
