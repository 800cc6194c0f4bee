"""Shared fixtures and the random multiphase network generator.

Random instances are trees rooted at a three-phase slack; every child bus
carries a nonempty subset of its parent's phases so that all declared line
phases exist at both ends.  Injections drawn here can be rescaled to any
target loading norm, which is how the certified-instance suites are built.
"""

import dataclasses
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis.configuration import set_hypothesis_home_dir

import mplf
from mplf.certify import xi_norms
from mplf.netmodel import DELTA_PAIRS

# Hypothesis caches the constants it finds in local source under its home
# directory while pytest collects; keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mplf-hypothesis")


def single_phase_model(y=1.0, v0=1.0):
    """The closed-form golden case: slack -- one line -- one single-phase bus."""
    buses = [mplf.BusSpec("src", "a"), mplf.BusSpec("load", "a")]
    lines = [mplf.LineSpec("src", "load", "a", np.array([[y]], dtype=complex))]
    model = mplf.assemble_network(buses, lines, mplf.SlackSpec("src", np.array([v0], complex)))
    return model, mplf.zero_load_voltage(model)


def zero_base(model, profile):
    """The zero-load base pair ``(w, 0)``."""
    return (profile.w, mplf.InjectionSet.zeros(model))


def solve_stacked(model, profile, x, v_start):
    """The fixed-point voltages at the stacked real injection vector ``x``
    (wye real, wye imaginary, delta real, delta imaginary), solved tightly
    from ``v_start``."""
    n, d = model.n_phases, model.n_delta
    inj = mplf.InjectionSet(x[:n] + 1j * x[n : 2 * n], x[2 * n : 2 * n + d] + 1j * x[2 * n + d :])
    return mplf.solve_fixed_point(
        model, profile, inj, v_init=v_start, tol_step=1e-13, max_iter=5000
    ).v


def dense_incidence(conn, n):
    """The dense signed incidence ``H`` (pairs by ``n`` phases), built from the
    connection's pair index arrays as the reference for its methods."""
    H = np.zeros((conn.first.size, n), dtype=int)
    rows = np.arange(conn.first.size)
    H[rows, conn.first] = 1
    H[rows, conn.second] = -1
    return H


def assert_bitwise(actual, expected):
    """Equal shapes and values, and equal signs on every zero."""
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(actual, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


def assert_same_solve(actual, expected):
    """The same solver outcome: a ``SolveResult`` equal in every field, the
    arrays bit for bit, or an error of the same type and message whose
    ``last_v``, ``step_norms`` and ``rows`` are equal."""
    assert type(actual) is type(expected)
    if isinstance(expected, Exception):
        assert str(actual) == str(expected)
        names = ("last_v", "step_norms", "rows")
    else:
        names = [f.name for f in dataclasses.fields(expected)]
    for name in names:
        got, want = getattr(actual, name, None), getattr(expected, name, None)
        if isinstance(want, (np.ndarray, np.generic)):
            assert_bitwise(got, want)
        else:
            assert got == want, name


def solve_outcome(solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, or the solver error it raises."""
    try:
        return solve(*args, **kwargs)
    except (mplf.NonConvergenceError, mplf.DegenerateVoltageError) as exc:
        return exc


def scaled_rows(inj, kappas):
    """The injections scaled by each kappa, as a stack of rows."""
    kappas = np.asarray(kappas, dtype=float)[:, None]
    return mplf.InjectionSet(kappas * inj.s_wye, kappas * inj.s_delta)


def injection_row(stack, j):
    return mplf.InjectionSet(stack.s_wye[j], stack.s_delta[j])


def wye_injection(model, bus, phase, value):
    inj = mplf.InjectionSet.zeros(model)
    inj.s_wye[model.index.phase_index[(bus, phase)]] = value
    return inj


BALANCED_V0 = np.exp(-2j * np.pi / 3 * np.array([0.0, 1.0, 2.0]))


def onenormest_rcond(matrix):
    """``1 / (‖A‖₁ ‖A⁻¹‖₁)`` for a canonical CSC ``matrix``, with ``‖A⁻¹‖₁``
    from scipy's ``onenormest`` with one probe column on an operator over
    SuperLU's solves: the reference of ``LUFactor.rcond``."""
    lu = scipy.sparse.linalg.splu(matrix)
    adjoint = partial(lu.solve, trans="H")
    inverse = scipy.sparse.linalg.LinearOperator(
        matrix.shape, matvec=lu.solve, rmatvec=adjoint, matmat=lu.solve, rmatmat=adjoint,
        dtype=matrix.dtype,
    )
    anorm = float(abs(matrix).sum(axis=0).max())
    return float(1.0 / (anorm * scipy.sparse.linalg.onenormest(inverse, t=1)))


def _line_admittance(rng, k, size_scale=1.0):
    """Random symmetric admittance block from a mildly coupled impedance."""
    z_self = (0.01 + 0.04j) * (0.5 + rng.random(k)) * size_scale
    z = np.diag(z_self)
    for i in range(k):
        for j in range(i + 1, k):
            m = (0.003 + 0.012j) * (0.5 + rng.random()) * size_scale
            z[i, j] = z[j, i] = m
    return np.linalg.inv(z)


def random_network_specs(rng, max_buses=5, delta_prob=0.6, shunt_prob=0.3):
    """Specs for a random tree network with mixed one/two/three-phase buses."""
    n_buses = int(rng.integers(1, max_buses + 1))
    buses = [mplf.BusSpec("slack", "abc")]
    lines = []
    phase_sets = {"slack": "abc"}
    for b in range(n_buses):
        bus_id = f"bus{b}"
        parent = "slack" if b == 0 else f"bus{int(rng.integers(0, b))}"
        parent_phases = phase_sets[parent]
        size = int(rng.integers(1, len(parent_phases) + 1))
        phases = "".join(sorted(rng.choice(list(parent_phases), size=size, replace=False)))
        phase_sets[bus_id] = phases
        pairs = tuple(
            p for p in DELTA_PAIRS
            if p[0] in phases and p[1] in phases and rng.random() < delta_prob
        )
        buses.append(mplf.BusSpec(bus_id, phases, pairs))
        k = len(phases)
        shunt = None
        if rng.random() < shunt_prob:
            shunt = 1j * np.diag(0.001 * (1.0 + rng.random(k)))
        lines.append(
            mplf.LineSpec(parent, bus_id, phases, _line_admittance(rng, k),
                          y_shunt_from=shunt, y_shunt_to=shunt)
        )
    return buses, lines, mplf.SlackSpec("slack", BALANCED_V0)


def random_network(rng, max_buses=5, delta_prob=0.6, shunt_prob=0.3):
    """Random tree network with mixed one/two/three-phase buses."""
    buses, lines, slack = random_network_specs(rng, max_buses, delta_prob, shunt_prob)
    model = mplf.assemble_network(buses, lines, slack)
    return model, mplf.zero_load_voltage(model)


def random_injections(rng, model, w_profile, target_xi=None):
    """Random mixed injections, optionally rescaled to a given loading norm."""
    n, d = model.n_phases, model.n_delta
    s_wye = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s_delta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    inj = mplf.InjectionSet(s_wye, s_delta)
    if target_xi is not None:
        xi = xi_norms(model, w_profile, inj).xi_total
        inj = inj.scaled(target_xi / xi)
    return inj


def certified_instance(rng, max_buses=5, xi_range=(0.02, 0.18)):
    """Model + injections that pass the explicit certificate at (w, 0)."""
    model, w_profile = random_network(rng, max_buses=max_buses)
    target_xi = rng.uniform(*xi_range)
    inj = random_injections(rng, model, w_profile, target_xi=target_xi)
    return model, w_profile, inj


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def golden():
    """Single-phase golden model with its loading at -0.1."""
    model, w_profile = single_phase_model()
    inj = wye_injection(model, "load", "a", -0.1)
    return model, w_profile, inj


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
