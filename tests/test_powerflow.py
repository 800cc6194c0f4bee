import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

import mplf
from mplf import powerflow
from mplf.certify import check_theorem2, gamma_quantities, xi_norms
from mplf.datafiles import bundled_path
from conftest import (
    BALANCED_V0,
    assert_bitwise,
    assert_same_solve,
    certified_instance,
    dense_incidence,
    injection_row,
    onenormest_rcond,
    random_network,
    scaled_rows,
    single_phase_model,
    solve_outcome,
    wye_injection,
)

GOLDEN_V = (1 + np.sqrt(0.6)) / 2  # root of v^2 - v + 0.1 = 0 nearest 1


def two_phase_delta_case():
    """One two-phase bus with a single ab delta injection."""
    buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab", ("ab",))]
    y = np.array([[3.0 - 9.0j, -0.5 + 1.0j], [-0.5 + 1.0j, 3.0 - 9.0j]])
    lines = [mplf.LineSpec("s", "b", "ab", y)]
    model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2]))
    profile = mplf.zero_load_voltage(model)
    inj = mplf.InjectionSet(np.zeros(2, complex), np.array([-0.06 - 0.02j]))
    return model, profile, inj


class TestResidual:
    def test_zero_at_zero_load(self, rng):
        model, profile = random_network(rng)
        inj = mplf.InjectionSet.zeros(model)
        res = mplf.power_flow_residual(model, profile.w, inj)
        assert res.max() <= 1e-12

    def test_solved_case_below_tolerance(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj)
        res = mplf.power_flow_residual(model, sol.v, inj)
        assert res.max() <= 1e-10

    def test_scaled_profile_not_a_solution(self, rng):
        model, profile = random_network(rng)
        inj = mplf.InjectionSet.zeros(model)
        res = mplf.power_flow_residual(model, 1.1 * profile.w, inj)
        assert res.max() > 1e-6

    def test_degenerate_pair_voltage_raises(self):
        model, profile, inj = two_phase_delta_case()
        v = np.array([1.0 + 0j, 1.0 + 0j])  # zero phase-to-phase voltage
        with pytest.raises(mplf.DegenerateVoltageError):
            mplf.power_flow_residual(model, v, inj)


class TestFixedPointMap:
    def test_zero_injections_map_to_w(self, rng):
        model, profile = random_network(rng)
        inj = mplf.InjectionSet.zeros(model)
        v = profile.w * (1 + 0.1 * rng.standard_normal(model.n_phases))
        npt.assert_allclose(
            mplf.fixed_point_map(model, profile, inj, v), profile.w, atol=1e-14
        )

    def test_single_phase_scalar_value(self, golden):
        model, profile, inj = golden
        g = mplf.fixed_point_map(model, profile, inj, np.array([1.0 + 0j]))
        npt.assert_allclose(g, [0.9], atol=1e-15)

    def test_two_phase_delta_direct_substitution(self):
        # Independent evaluation of the update formula with raw matrix algebra.
        model, profile, inj = two_phase_delta_case()
        v = 0.95 * profile.w + np.array([0.01 - 0.02j, -0.015 + 0.005j])

        yll_inv = np.linalg.inv(model.yll.toarray())
        H = np.array([[1.0, -1.0]])
        s_delta = inj.s_delta
        expected = profile.w + yll_inv @ (
            H.T @ (np.conj(s_delta) / (H @ np.conj(v)))
        )

        got = mplf.fixed_point_map(model, profile, inj, v)
        npt.assert_allclose(got, expected, atol=1e-14)

    def test_degenerate_phase_voltage_raises(self, golden):
        model, profile, inj = golden
        with pytest.raises(mplf.DegenerateVoltageError):
            mplf.fixed_point_map(model, profile, inj, np.array([0.0 + 0j]))


class TestSolveFixedPoint:
    def test_zero_injections_one_step(self, rng):
        model, profile = random_network(rng)
        sol = mplf.solve_fixed_point(model, profile, mplf.InjectionSet.zeros(model))
        assert sol.iterations == 1
        assert sol.converged
        npt.assert_allclose(sol.v, profile.w, atol=1e-14)

    def test_golden_single_phase(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj)
        assert sol.converged
        npt.assert_allclose(sol.v, [GOLDEN_V], atol=1e-10)
        assert sol.residual_inf <= 1e-8

    def test_beyond_loadability_raises(self):
        model, profile = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.3)
        with pytest.raises(mplf.NonConvergenceError) as exc_info:
            mplf.solve_fixed_point(model, profile, inj)
        err = exc_info.value
        assert err.last_v is not None
        assert len(err.step_norms) == 1000

    def test_currents_satisfy_definitions(self, rng):
        for _ in range(5):
            model, profile, inj = certified_instance(rng)
            sol = mplf.solve_fixed_point(model, profile, inj)
            npt.assert_allclose(
                sol.i, model.yl0 @ model.v0 + model.yll @ sol.v, atol=1e-12
            )
            if model.n_delta:
                hv = dense_incidence(model.connection, model.n_phases) @ sol.v
                live = inj.s_delta != 0
                npt.assert_allclose(
                    (hv * np.conj(sol.i_delta))[live], inj.s_delta[live], atol=1e-8
                )

    def test_fixed_point_consistency(self, rng):
        tol_step = 1e-10
        for _ in range(10):
            model, profile, inj = certified_instance(rng)
            sol = mplf.solve_fixed_point(model, profile, inj, tol_step=tol_step)
            g = mplf.fixed_point_map(model, profile, inj, sol.v)
            assert np.abs(g - sol.v).max() <= 10 * tol_step

    def test_power_conservation(self, rng):
        for _ in range(5):
            model, profile, inj = certified_instance(rng)
            sol = mplf.solve_fixed_point(model, profile, inj, tol_residual=1e-9)
            s_slack = model.v0 * np.conj(model.y00 @ model.v0 + model.y0l @ sol.v)
            v_full = np.concatenate([model.v0, sol.v])
            y_full = np.block([[model.y00, model.y0l], [model.yl0, model.yll.toarray()]])
            absorbed = v_full @ np.conj(y_full @ v_full)
            total_injected = inj.s_wye.sum() + inj.s_delta.sum() + s_slack.sum()
            assert abs(total_injected - absorbed) <= model.n_phases * 1e-8


class TestContractionRegion:
    def test_iterates_stay_in_ball_and_agree(self, rng):
        # Self-mapping of the certified ball plus limit uniqueness from
        # random initializations inside it.
        for _ in range(5):
            model, profile, inj = certified_instance(rng)
            base = (profile.w, mplf.InjectionSet.zeros(model))
            cert = check_theorem2(model, profile, base, inj)
            assert cert.satisfied
            rho = cert.rho_used
            sol_ref = mplf.solve_fixed_point(model, profile, inj)
            for _ in range(3):
                u = rng.uniform(-1, 1, model.n_phases) + 1j * rng.uniform(-1, 1, model.n_phases)
                u *= rho / np.abs(u).max()
                v0 = profile.w + u * profile.w_abs
                assert (np.abs(v0 - profile.w) <= rho * profile.w_abs + 1e-12).all()
                sol = mplf.solve_fixed_point(model, profile, inj, v_init=v0)
                npt.assert_allclose(sol.v, sol_ref.v, atol=1e-8)
                # every iterate of a fresh run stays inside the ball
                v = v0.copy()
                for _ in range(30):
                    v = mplf.fixed_point_map(model, profile, inj, v)
                    assert (np.abs(v - profile.w) <= rho * profile.w_abs + 1e-9).all()

    def test_step_ratios_below_q(self, rng):
        # Default initialization starts at the base, which the tight ball
        # contains; measured ratios (above the rounding floor) obey the
        # error-bound coefficient.
        for _ in range(10):
            model, profile, inj = certified_instance(rng)
            base = (profile.w, mplf.InjectionSet.zeros(model))
            cert = check_theorem2(model, profile, base, inj)
            gam = gamma_quantities(profile, profile.w)
            xi = xi_norms(model, profile, inj)
            q = xi.xi_wye / (gam.alpha - cert.rho_dagger) ** 2
            if model.n_delta:
                q += xi.xi_delta / (gam.beta - cert.rho_dagger) ** 2
            sol = mplf.solve_fixed_point(model, profile, inj)
            floor = 1e-6 * profile.w_abs.max()
            steps = [s for s in sol.step_norms if s >= floor]
            ratios = [b / a for a, b in zip(steps, steps[1:])]
            assert all(r <= q + 1e-9 for r in ratios)


class TestNewtonOracle:
    def test_golden_single_phase(self, golden):
        model, _, inj = golden
        sol = mplf.newton_oracle(model, inj)
        npt.assert_allclose(sol.v, [GOLDEN_V], atol=1e-10)

    def test_zero_injections_give_w(self, rng):
        model, profile = random_network(rng)
        sol = mplf.newton_oracle(model, mplf.InjectionSet.zeros(model))
        npt.assert_allclose(sol.v, profile.w, atol=1e-10)

    def test_agrees_with_fixed_point(self, rng):
        for _ in range(20):
            model, profile, inj = certified_instance(rng)
            fp = mplf.solve_fixed_point(model, profile, inj)
            nw = mplf.newton_oracle(model, inj)
            assert np.abs(fp.v - nw.v).max() <= 1e-8

    def test_singular_jacobian_rejected(self):
        # Past the nose at -0.25, and at v = 0.5 the stacked Jacobian is
        # exactly [[0, 0], [0, 1]].
        model, _ = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.3)
        with pytest.raises(mplf.SingularJacobianError, match="Newton Jacobian"):
            mplf.newton_oracle(model, inj, v_init=[0.5])

    def test_zero_phase_voltage_start_rejected(self):
        # The tangent operator divides by v, so no step is taken from a
        # start with a zero phase voltage.
        model, _ = single_phase_model()
        inj = wye_injection(model, "load", "a", -0.1)
        with pytest.raises(mplf.DegenerateVoltageError, match="Newton iterate"):
            mplf.newton_oracle(model, inj, v_init=[0.0])

    def test_dead_pair_at_zero_pair_voltage(self):
        # A pair without injection has no pair current, so the tangent
        # operator's pair term is zero there whatever its voltage: equal
        # phase voltages (Hv = 0) under a wye-only loading take steps.
        model, _, _ = two_phase_delta_case()
        inj = mplf.InjectionSet(np.array([-0.06 - 0.02j, -0.03 - 0.01j]), np.zeros(1))
        v_init = np.array([0.9 + 0j, 0.9 + 0j])
        assert model.connection.gather(v_init)[0] == 0
        sol = mplf.newton_oracle(model, inj, v_init=v_init)
        # From this start Newton reaches a low-voltage root on phase b.
        assert sol.iterations > 0
        assert mplf.power_flow_residual(model, sol.v, inj).max() <= 1e-10


def dense_jacobian(model, v, inj, ic_delta, i):
    """The real stacked Newton Jacobian from dense Wirtinger blocks."""
    H = dense_incidence(model.connection, model.n_phases)
    j_v = np.diag(H.T @ ic_delta) - np.diag(np.conj(i))
    if model.n_delta:
        hv = H @ v
        dc = np.zeros_like(hv)
        live = inj.s_delta != 0
        dc[live] = inj.s_delta[live] / hv[live] ** 2
        j_v -= (v[:, None] * H.T) @ (dc[:, None] * H)
    j_vbar = -v[:, None] * np.conj(model.yll.toarray())
    return np.block(
        [
            [j_v.real + j_vbar.real, -j_v.imag + j_vbar.imag],
            [j_v.imag + j_vbar.imag, j_v.real - j_vbar.real],
        ]
    )


class TestNewtonStep:
    """A Newton step is the tangent operator's response to the mismatch,
    and equals the step of the dense stacked Jacobian."""

    def cases(self, rng):
        for feeder in ("ieee37", "ieee123"):
            model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
            inj = mplf.injections_from_file(
                bundled_path(f"{feeder}_injections_mixed.json"), model
            )
            yield model, mplf.zero_load_voltage(model), inj
        for _ in range(10):
            yield certified_instance(rng)

    def test_matches_dense_jacobian_step(self, rng):
        for model, profile, inj in self.cases(rng):
            v = mplf.solve_fixed_point(model, profile, inj).v
            # Off the solution, so that every term of the Jacobian is live.
            v = v * (1.0 + 0.01 * rng.standard_normal(v.size))
            f, ic_delta, i = powerflow.power_flow_mismatch(model, v, inj)
            factor = powerflow._tangent_factor(
                model, v, ic_delta, i, mplf.SingularJacobianError, "Newton Jacobian"
            )
            step = powerflow._tangent_solve(factor, np.conj(f / v))
            dense = np.linalg.solve(
                dense_jacobian(model, v, inj, ic_delta, i), -np.concatenate([f.real, f.imag])
            )
            expected = dense[: v.size] + 1j * dense[v.size :]
            assert np.abs(step - expected).max() <= 1e-10 * np.abs(expected).max()


def bmat_real_form(a, b):
    """The real form of ``x -> a x + b conj(x)`` through ``scipy.sparse.bmat``
    of the sums of the parts: the reference of ``powerflow._real_form``."""
    return scipy.sparse.bmat(
        [[a.real + b.real, -a.imag + b.imag], [a.imag + b.imag, a.real - b.real]], format="csc"
    )


def assert_same_csc(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert_bitwise(got, want)


class TestRealForm:
    """The tangent operator's real form is assembled directly, with the
    arrays that ``bmat`` gives, bit for bit."""

    def test_tangent_operator_equals_bmat(self, rng, monkeypatch):
        real_form, parts = powerflow._real_form, []

        def recorded(a, b):
            parts.append((a, b, real_form(a, b)))
            return parts[-1][2]

        monkeypatch.setattr(powerflow, "_real_form", recorded)
        cases = list(TestNewtonStep().cases(rng))
        for model, profile, inj in cases:
            v = mplf.solve_fixed_point(model, profile, inj).v
            for point in (v, v * (1.0 + 0.01 * rng.standard_normal(v.size))):
                _, ic_delta, i = powerflow.power_flow_mismatch(model, point, inj)
                powerflow._tangent_factor(model, point, ic_delta, i, mplf.SingularJacobianError, "J")
        assert len(parts) == 2 * len(cases)
        for a, b, got in parts:
            assert_same_csc(got, bmat_real_form(a, b))

    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123", "three_bus", "single_phase"])
    def test_bundled_tangent_operator_equals_bmat(self, feeder, monkeypatch):
        # At each bundled feeder's solution: the operator is bmat's, and its
        # condition estimate is onenormest's, bit for bit.
        real_form, parts = powerflow._real_form, []

        def recorded(a, b):
            parts.append((a, b, real_form(a, b)))
            return parts[-1][2]

        monkeypatch.setattr(powerflow, "_real_form", recorded)
        model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
        inj = mplf.injections_from_file(bundled_path(f"{feeder}_injections.json"), model)
        sol = mplf.solve_fixed_point(model, mplf.zero_load_voltage(model), inj)
        fot = mplf.fot_linearize(model, sol, inj)
        ((a, b, got),) = parts
        assert_same_csc(got, bmat_real_form(a, b))
        assert fot._factor.rcond == onenormest_rcond(got)

    def test_patterns_that_differ_and_cancel(self, rng):
        # Entries of b outside a's pattern, entries with a zero real or
        # imaginary part, and sums that cancel to zero, which bmat's sums
        # leave out.
        n = 12

        def pattern(density):
            return rng.random((n, n)) < density

        def entries(density):
            return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * pattern(density)

        a, b = entries(0.3), entries(0.3)
        a.real[pattern(0.2)] = 0.0
        a.imag[pattern(0.2)] = 0.0
        for sign in (1.0, -1.0):
            same = pattern(0.3) & (a != 0)
            b[same] = sign * a[same]
        real = pattern(0.2) & (a.real != 0)
        b.real[real] = -a.real[real]
        a, b = scipy.sparse.csc_matrix(a), scipy.sparse.csc_matrix(b)
        assert_same_csc(powerflow._real_form(a, b), bmat_real_form(a, b))
        empty = scipy.sparse.csc_matrix((n, n), dtype=complex)
        assert_same_csc(powerflow._real_form(a, empty), bmat_real_form(a, empty))
        assert_same_csc(powerflow._real_form(empty, b), bmat_real_form(empty, b))


def ieee37_mixed(feeder="ieee37"):
    model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
    inj = mplf.injections_from_file(bundled_path(f"{feeder}_injections_mixed.json"), model)
    return model, mplf.zero_load_voltage(model), inj


def reference_map(model, profile, inj, v):
    """``G(v)`` as one expression over every phase and pair: the injections
    divided where nonzero, the pair currents scattered over all pairs."""
    conn = model.connection
    term = np.zeros_like(v)
    live = inj.s_wye != 0
    term[live] = np.conj(inj.s_wye[live] / v[live])
    if model.n_delta:
        hv = conn.gather(v)
        i_delta = np.zeros_like(hv)
        pairs = inj.s_delta != 0
        i_delta[pairs] = np.conj(inj.s_delta[pairs] / hv[pairs])
        term = term + conn.scatter(i_delta, model.n_phases)
    return profile.w + model.factor.solve(term)


class TestUpdateKernel:
    """A solve builds its update kernel once; its iterates are the public
    map's, and the map is the one-expression ``G``, bit for bit."""

    @pytest.mark.parametrize("padded", [False, True], ids=["mixed", "half-zero"])
    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    def test_solve_iterates_equal_map_loop(self, feeder, padded):
        model, profile, inj = ieee37_mixed(feeder)
        if padded:
            # Zero injections on some phases and pairs leave them out of the kernel.
            inj.s_wye[::2] = 0
            inj.s_delta[::2] = 0
        sol = mplf.solve_fixed_point(model, profile, inj)
        v, steps = profile.w.copy(), []
        for _ in range(sol.iterations):
            v_next = mplf.fixed_point_map(model, profile, inj, v)
            assert_bitwise(v_next, reference_map(model, profile, inj, v))
            steps.append(float(np.abs(v_next - v).max()))
            v = v_next
        assert_bitwise(sol.v, v)
        assert sol.step_norms == tuple(steps)


class TestSolveRows:
    """Rows iterated together come out as their own solves, bit for bit."""

    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    def test_rows_equal_one_row_solves(self, feeder):
        model, profile, inj = ieee37_mixed(feeder)
        stack = scaled_rows(inj, [0.4, 1.2, 0.0, -0.8, 1.0, 0.7])
        # Zeros where the other rows load leave those entries out of the row.
        stack.s_wye[5, ::2] = 0
        stack.s_delta[5, ::2] = 0
        rng = np.random.default_rng(3)
        starts = profile.w * (1 + 0.02 * rng.standard_normal((6, model.n_phases)))
        rows = powerflow._solve_rows(model, stack, starts)
        for j, got in enumerate(rows):
            one = mplf.solve_fixed_point(model, profile, injection_row(stack, j), v_init=starts[j])
            assert_same_solve(got, one)
        assert len({sol.iterations for sol in rows}) > 1  # the rows left at different steps

    def test_failing_rows_leave_the_others_unchanged(self):
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [1.0, 1.0, 1.0, 1.0, 0.0])
        solved = mplf.solve_fixed_point(model, profile, injection_row(stack, 0))
        starts = np.array([solved.v, profile.w, profile.w, profile.w, profile.w])
        starts[2, np.flatnonzero(inj.s_wye)[0]] = 0  # a loaded phase at zero
        pair = np.flatnonzero(inj.s_delta)[0]
        conn = model.connection
        starts[3, conn.second[pair]] = starts[3, conn.first[pair]]  # a loaded pair at zero
        rows = powerflow._solve_rows(model, stack, starts, max_iter=4)
        assert [type(r).__name__ for r in rows] == [
            "SolveResult", "NonConvergenceError", "DegenerateVoltageError",
            "DegenerateVoltageError", "SolveResult",
        ]
        for j, got in enumerate(rows):
            expected = solve_outcome(
                mplf.solve_fixed_point, model, profile, injection_row(stack, j),
                v_init=starts[j], max_iter=4,
            )
            assert_same_solve(got, expected)
        assert "wye" in str(rows[2]) and "phase-to-phase" in str(rows[3])

    def test_degenerate_solve_names_its_row_as_the_map_does(self):
        # A one-row solve raises the error of its row, which names that row
        # as the map's check on one vector does: a 0-d True.
        model, profile, inj = ieee37_mixed()
        v = profile.w.copy()
        v[np.flatnonzero(inj.s_wye)[0]] = 0
        with pytest.raises(mplf.DegenerateVoltageError) as from_map:
            mplf.fixed_point_map(model, profile, inj, v)
        with pytest.raises(mplf.DegenerateVoltageError) as from_solve:
            mplf.solve_fixed_point(model, profile, inj, v_init=v)
        assert_same_solve(from_solve.value, from_map.value)

    def test_row_degenerate_at_its_residual_check(self, monkeypatch):
        # The residual check of rows that stop together names the rows it
        # finds degenerate; those get its error, and the others their results.
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [0.5, 0.5, 1.0])
        starts = np.array([profile.w] * 3)
        plain = powerflow._solve_rows(model, stack, starts)
        mismatch, checked = powerflow.power_flow_mismatch, []

        def first_row_degenerate(model, v, inj):
            checked.append(len(v))
            if len(checked) == 1:
                rows = np.arange(len(v)) == 0
                raise mplf.DegenerateVoltageError(powerflow._DEGENERATE_PAIR, rows=rows)
            return mismatch(model, v, inj)

        monkeypatch.setattr(powerflow, "power_flow_mismatch", first_row_degenerate)
        rows = powerflow._solve_rows(model, stack, starts)
        assert checked[0] >= 2 and checked[1] == checked[0] - 1
        expected = mplf.DegenerateVoltageError(powerflow._DEGENERATE_PAIR, rows=np.bool_(True))
        assert_same_solve(rows[0], expected)
        for j in (1, 2):
            assert_same_solve(rows[j], plain[j])

    def test_one_residual_check_for_all_stop_steps(self, monkeypatch):
        # Rows that stop at different steps share one stacked residual check.
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [0.4, 1.2, 0.0, -0.8])
        starts = np.array([profile.w] * 4)
        mismatch, checked = powerflow.power_flow_mismatch, []

        def counted(model, v, inj):
            checked.append(len(v))
            return mismatch(model, v, inj)

        monkeypatch.setattr(powerflow, "power_flow_mismatch", counted)
        rows = powerflow._solve_rows(model, stack, starts)
        assert len({sol.iterations for sol in rows}) > 1
        assert checked == [4]

    def test_empty_stack(self):
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [])
        assert powerflow._solve_rows(model, stack, np.zeros((0, model.n_phases))) == []

    def test_arguments_checked_as_in_one_row_solves(self):
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [1.0, 0.5])
        starts = np.array([profile.w, profile.w])
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            powerflow._solve_rows(model, stack, starts, max_iter=0)
        with pytest.raises(ValueError, match="tol_step must be strictly positive"):
            powerflow._solve_rows(model, stack, starts, tol_step=np.nan)
        # The rows are the injections'; a start stack of another height is named.
        message = r"^v_init has shape \(1, 108\); the model needs shape \(2, 108\)$"
        with pytest.raises(ValueError, match=message):
            powerflow._solve_rows(model, stack, starts[:1])


class TestStackedMismatch:
    @pytest.mark.parametrize("feeder", ["ieee37", "ieee123"])
    def test_rows_equal_one_row_mismatches(self, feeder):
        model, profile, inj = ieee37_mixed(feeder)
        stack = scaled_rows(inj, [0.5, 0.0, -1.0, 1.3])
        v = profile.w * (1 + 0.01 * np.random.default_rng(4).standard_normal((4, model.n_phases)))
        terms = powerflow.power_flow_mismatch(model, v, stack)
        for j in range(4):
            one = powerflow.power_flow_mismatch(model, v[j], injection_row(stack, j))
            for got, want in zip(terms, one):
                assert_bitwise(got[j], want)

    def test_degenerate_rows_named(self):
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [1.0, 1.0, 0.0])
        v = np.array([profile.w] * 3)
        pair = np.flatnonzero(inj.s_delta)[0]
        conn = model.connection
        for j in (1, 2):
            v[j, conn.second[pair]] = v[j, conn.first[pair]]
        # Row 2 carries no injection, so its zero pair voltage is no fault.
        with pytest.raises(mplf.DegenerateVoltageError, match="phase-to-phase") as info:
            powerflow.power_flow_mismatch(model, v, stack)
        assert info.value.rows.tolist() == [False, True, False]


SOLVERS = {
    "solve_fixed_point": ("v_init", lambda m, p, inj, v: mplf.solve_fixed_point(m, p, inj, v_init=v)),
    "newton_oracle": ("v_init", lambda m, p, inj, v: mplf.newton_oracle(m, inj, v_init=v)),
    "fixed_point_map": ("v", lambda m, p, inj, v: mplf.fixed_point_map(m, p, inj, v)),
}


@pytest.mark.parametrize("solver", list(SOLVERS))
class TestSolverArguments:
    """One check of the start voltage and the injections against the model."""

    @pytest.mark.parametrize("size", [3, 109])
    def test_wrong_length_start_rejected(self, solver, size):
        # 3 entries used to escape as a numpy broadcast error or an
        # IndexError; 109 made Newton report a near-zero pair voltage.
        model, profile, inj = ieee37_mixed()
        name, call = SOLVERS[solver]
        with pytest.raises(ValueError, match=rf"^{name} has shape \({size},\); the model needs length 108$"):
            call(model, profile, inj, np.ones(size, dtype=complex))

    def test_non_finite_start_rejected(self, solver):
        # A NaN start used to iterate 1000 times under RuntimeWarnings.
        model, profile, inj = ieee37_mixed()
        name, call = SOLVERS[solver]
        v = profile.w.copy()
        v[5] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            call(model, profile, inj, v)

    def test_injections_of_another_model_rejected(self, solver):
        model, profile, _ = ieee37_mixed()
        other = ieee37_mixed("ieee123")[2]
        with pytest.raises(ValueError, match=r"^inj.s_wye has shape \(244,\); the model needs length 108$"):
            SOLVERS[solver][1](model, profile, other, profile.w)
        short = mplf.InjectionSet(np.zeros(108, dtype=complex), np.zeros(13, dtype=complex))
        with pytest.raises(ValueError, match=r"^inj.s_delta has shape \(13,\); the model needs length 32$"):
            SOLVERS[solver][1](model, profile, short, profile.w)

    def test_stack_of_injections_rejected(self, solver):
        # The solvers take one row; a stack is named as the injections.
        model, profile, inj = ieee37_mixed()
        stack = scaled_rows(inj, [1.0, 0.5])
        with pytest.raises(ValueError, match=r"^inj.s_wye has shape \(2, 108\); the model needs length 108$"):
            SOLVERS[solver][1](model, profile, stack, profile.w)


def _sweep_from_zero_load(model, profile, inj, max_iter):
    zero = mplf.InjectionSet.zeros(model)
    base = mplf.solve_fixed_point(model, profile, zero)
    return mplf.linear_error_sweep(model, profile, base, zero, inj, [0.0, 1.0], max_iter=max_iter)


# entry point -> a call with the given max_iter on a model, its profile and
# its injections
BUDGET_CALLS = {
    "solve_fixed_point": lambda m, p, inj, n: mplf.solve_fixed_point(m, p, inj, max_iter=n),
    "newton_oracle": lambda m, p, inj, n: mplf.newton_oracle(m, inj, max_iter=n),
    "_solve_rows": lambda m, p, inj, n: powerflow._solve_rows(
        m, scaled_rows(inj, [1.0]), p.w[None], max_iter=n
    ),
    "recentered_interval": lambda m, p, inj, n: mplf.recentered_interval(m, p, 0.5, inj, max_iter=n),
    "linear_error_sweep": _sweep_from_zero_load,
}


class TestIterationBudget:
    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_fixed_point_rejects_empty_budget(self, max_iter):
        # Used to escape as an IndexError from the empty step-norm list.
        model, profile, inj = ieee37_mixed()
        with pytest.raises(ValueError, match=f"max_iter must be an integer >= 1, got {max_iter}"):
            mplf.solve_fixed_point(model, profile, inj, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_newton_rejects_empty_budget(self, max_iter):
        # Used to report non-convergence from a start that already met the
        # tolerance.
        model, _, _ = ieee37_mixed()
        with pytest.raises(ValueError, match=f"max_iter must be an integer >= 1, got {max_iter}"):
            mplf.newton_oracle(model, mplf.InjectionSet.zeros(model), max_iter=max_iter)

    @pytest.mark.parametrize("entry", BUDGET_CALLS)
    @pytest.mark.parametrize("max_iter", [np.nan, np.inf, 3.0, 2.5])
    def test_budget_must_be_an_integer(self, entry, max_iter):
        # nan ended in numpy's IndexError, a float in newton_oracle's
        # range(), 2.5 was reported as "2.5 iterations", and inf set no
        # limit, so a solve that does not converge never returned.
        model, profile, inj = ieee37_mixed()
        with pytest.raises(ValueError, match=f"max_iter must be an integer >= 1, got {max_iter}"):
            BUDGET_CALLS[entry](model, profile, inj, max_iter)

    def test_numpy_integer_budget_accepted(self, golden):
        model, profile, inj = golden
        sol = mplf.solve_fixed_point(model, profile, inj, max_iter=np.int64(powerflow.MAX_ITER))
        assert_same_solve(sol, mplf.solve_fixed_point(model, profile, inj))
        assert mplf.newton_oracle(model, inj, max_iter=np.int32(4)).iterations == 4

    def test_newton_checks_the_last_step(self, golden):
        # The golden case needs four steps; a budget of four must accept
        # them, three must not.
        model, _, inj = golden
        full = mplf.newton_oracle(model, inj)
        sol = mplf.newton_oracle(model, inj, max_iter=4)
        assert sol.iterations == full.iterations
        npt.assert_allclose(sol.v, [GOLDEN_V], atol=1e-10)
        with pytest.raises(mplf.NonConvergenceError, match="in 3 iterations"):
            mplf.newton_oracle(model, inj, max_iter=3)

    def test_newton_counts_steps_taken(self, golden):
        # The residual check after the last step used to count as one more
        # iteration: 5 for the golden case, 1 from a converged start.
        model, _, inj = golden
        sol = mplf.newton_oracle(model, inj)
        assert sol.iterations == 4
        assert mplf.newton_oracle(model, inj, v_init=sol.v).iterations == 0


BAD_TOLERANCES = [float("nan"), 0.0, -1e-8]


class TestToleranceRule:
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["tol_step", "tol_residual"])
    def test_fixed_point_rejects_bad_tolerance(self, golden, name, tol):
        # A NaN or non-positive tol_step used to run all max_iter steps and
        # then report "did not converge (last step 0.000e+00)".
        model, profile, inj = golden
        with pytest.raises(ValueError, match=f"{name} must be strictly positive"):
            mplf.solve_fixed_point(model, profile, inj, **{name: tol})

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_newton_rejects_bad_tolerance(self, golden, tol):
        model, _, inj = golden
        with pytest.raises(ValueError, match="tol_residual must be strictly positive"):
            mplf.newton_oracle(model, inj, tol_residual=tol)

    def test_nan_tolerance_does_not_certify_a_non_solution(self):
        # (1.05 w, 0) misses the balance by 11.5.  A NaN tolerance used to
        # switch the base check off: Theorem 2 passed with rho 0.0348 and
        # the interval came out as (-3.398, 3.398).
        model, profile, inj = ieee37_mixed()
        base = (1.05 * profile.w, mplf.InjectionSet.zeros(model))
        nan = float("nan")
        calls = [
            lambda: check_theorem2(model, profile, base, inj.scaled(0.5), tol_residual=nan),
            lambda: mplf.feasible_interval(model, profile, base, inj, tol_residual=nan),
            lambda: mplf.fpl_error_bound(model, profile, base, inj.scaled(0.5), tol_residual=nan),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tol_residual must be strictly positive"):
                call()
        with pytest.raises(mplf.InvalidBaseError, match="residual 1.146e[+]01"):
            check_theorem2(model, profile, base, inj.scaled(0.5))


class TestInjectionJson:
    def test_parse_wye_and_delta(self):
        model = mplf.network_from_file(bundled_path("three_bus_network.json"))
        doc = {
            "wye": [
                {"bus": "end", "phase": "b", "re": -0.1, "im": -0.05},
                {"bus": "mid", "phase": "b", "re": 0.2, "im": 0.0},
            ],
            "delta": [{"bus": "mid", "pair": "ca", "re": -0.3, "im": 0.1}],
        }
        inj = mplf.injections_from_json(doc, model)
        expected = np.zeros(model.n_phases, complex)
        expected[model.index.phase_index[("end", "b")]] = -0.1 - 0.05j
        expected[model.index.phase_index[("mid", "b")]] = 0.2
        npt.assert_array_equal(inj.s_wye, expected)
        assert inj.s_delta[model.index.delta_index[("mid", "ca")]] == -0.3 + 0.1j
        assert np.count_nonzero(inj.s_delta) == 1

    def test_unknown_phase_rejected(self, golden):
        model, _, _ = golden
        doc = {"wye": [{"bus": "load", "phase": "b", "re": 1.0, "im": 0.0}]}
        with pytest.raises(mplf.InputFormatError, match="does not exist"):
            mplf.injections_from_json(doc, model)

    def test_undeclared_connection_rejected(self, golden):
        model, _, _ = golden
        doc = {"delta": [{"bus": "load", "pair": "ab", "re": 1.0, "im": 0.0}]}
        with pytest.raises(mplf.InputFormatError, match="not declared"):
            mplf.injections_from_json(doc, model)

    def test_nonfinite_rejected(self, golden):
        model, _, _ = golden
        with pytest.raises(mplf.InputFormatError, match="finite"):
            mplf.InjectionSet(np.array([np.inf + 0j]), np.zeros(0, complex))
