"""Every certificate, linear model and interval refuses, before any
arithmetic, a base pair or an injection set that does not fit the model,
and a base voltage that is not finite, with a ``ValueError`` that names the
argument and both lengths."""

import numpy as np
import pytest

import mplf
from mplf.datafiles import bundled_path


@pytest.fixture(scope="module")
def ieee37():
    model = mplf.network_from_file(bundled_path("ieee37_network.json"))
    inj = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
    return model, model.zero_load, inj


# A one-entry set on a 108-phase, 32-pair model: it used to broadcast.
SHORT = mplf.InjectionSet([-0.01], [-0.01])
SHORT_WYE = r"s_wye has shape \(1,\); the model needs length 108$"

# entry point -> a call with a wrong-length injection set, and the name the
# error gives it
WRONG_LENGTH_INJECTIONS = {
    "check_theorem2": (lambda m, p, s: mplf.check_theorem2(m, p, (p.w, zeros(m)), s), "target"),
    "check_theorem1": (lambda m, p, s: mplf.check_theorem1(m, p, (p.w, zeros(m)), s), "target"),
    "fpl_error_bound": (lambda m, p, s: mplf.fpl_error_bound(m, p, (p.w, zeros(m)), s), "target"),
    "xi_norms": (lambda m, p, s: mplf.xi_norms(m, p, s), "inj"),
    "feasible_interval": (lambda m, p, s: mplf.feasible_interval(m, p, (p.w, zeros(m)), s), "s_ref"),
    "recentered_interval": (lambda m, p, s: mplf.recentered_interval(m, p, 0.5, s), "s_ref"),
    "linear_error_sweep": (
        lambda m, p, s: mplf.linear_error_sweep(m, p, solve_zero(m, p), zeros(m), s, [0.0, 1.0]),
        "s_ref",
    ),
}


def zeros(model):
    return mplf.InjectionSet.zeros(model)


def solve_zero(model, profile):
    return mplf.solve_fixed_point(model, profile, zeros(model))


@pytest.mark.parametrize("entry", WRONG_LENGTH_INJECTIONS)
def test_wrong_length_injections_rejected(ieee37, entry):
    # check_theorem2 used to pass with this target; the others failed in
    # numpy, or with a message about the ray or the base.
    model, profile, _ = ieee37
    call, name = WRONG_LENGTH_INJECTIONS[entry]
    with pytest.raises(ValueError, match=rf"^{name}\.{SHORT_WYE}"):
        call(model, profile, SHORT)
    short_delta = mplf.InjectionSet(np.zeros(model.n_phases), [-0.01])
    message = rf"^{name}\.s_delta has shape \(1,\); the model needs length 32$"
    with pytest.raises(ValueError, match=message):
        call(model, profile, short_delta)


def test_gamma_quantities_rejects_wrong_length_voltage(ieee37):
    # v[:1] used to end in an IndexError.
    _, profile, _ = ieee37
    with pytest.raises(ValueError, match=r"^v has shape \(1,\); the model needs length 108$"):
        mplf.gamma_quantities(profile, profile.w[:1])
    with pytest.raises(ValueError, match="^v must be finite$"):
        mplf.gamma_quantities(profile, np.r_[np.nan, profile.w[1:]])


# base-pair entry point -> a call with the base voltages and injections
BASE_CALLS = {
    "check_theorem2": lambda m, p, v, s, inj: mplf.check_theorem2(m, p, (v, s), inj),
    "check_theorem1": lambda m, p, v, s, inj: mplf.check_theorem1(m, p, (v, s), inj),
    "fot_linearize": lambda m, p, v, s, inj: mplf.fot_linearize(m, solved(v), s),
    "fpl_linearize": lambda m, p, v, s, inj: mplf.fpl_linearize(m, p, solved(v), s),
}


def solved(v):
    return mplf.SolveResult(v, np.zeros(0), np.zeros(0), 0, 0.0, True, 0.0)


@pytest.mark.parametrize("entry", BASE_CALLS)
def test_nan_base_rejected(ieee37, entry):
    # A NaN base voltage gives a NaN residual, which used to pass the base
    # check: Theorem 1 then failed in np.roots, FOT reported a singular
    # operator, and FPL and Theorem 2 returned NaN results.
    model, profile, inj = ieee37
    v = profile.w.copy()
    v[5] = np.nan
    with pytest.raises(ValueError, match="^base_v must be finite$"):
        BASE_CALLS[entry](model, profile, v, zeros(model), inj)


def test_infinite_tolerance_takes_finite_bases_only(ieee37):
    model, profile, _ = ieee37
    off = solved(1.01 * profile.w)
    with pytest.raises(mplf.InvalidBaseError):
        mplf.fpl_linearize(model, profile, off, zeros(model))
    mplf.fpl_linearize(model, profile, off, zeros(model), tol_residual=np.inf)
    off.v[5] = np.nan
    with pytest.raises(ValueError, match="^base_v must be finite$"):
        mplf.fpl_linearize(model, profile, off, zeros(model), tol_residual=np.inf)


@pytest.mark.parametrize("entry", BASE_CALLS)
def test_wrong_length_base_rejected(ieee37, entry):
    # A short base_v used to fail in numpy's matmul.
    model, profile, inj = ieee37
    call = BASE_CALLS[entry]
    with pytest.raises(ValueError, match=r"^base_v has shape \(107,\); the model needs length 108$"):
        call(model, profile, profile.w[:-1], zeros(model), inj)
    with pytest.raises(ValueError, match=rf"^base_inj\.{SHORT_WYE}"):
        call(model, profile, profile.w, SHORT, inj)
