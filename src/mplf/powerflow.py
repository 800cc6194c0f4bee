"""Power-flow evaluation, the fixed-point solver, and its Newton fallback.

Sign convention: injections are generation-positive, so loads carry negative
real parts.  All quantities are per unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    DegenerateVoltageError,
    InputFormatError,
    InvalidBaseError,
    NonConvergenceError,
    SingularJacobianError,
)
from .netmodel import (
    ConnectionMatrix,
    LUFactor,
    NetworkModel,
    ZeroLoadProfile,
    complex_from_doc,
    list_from_doc,
    zero_load_voltage,
)

# Guards for the diagonal inversions in the fixed-point map; voltages this
# small with a nonzero injection mean the map is no longer well defined.
EPS_V = 1e-9
EPS_DELTA = 1e-9

# Largest power-balance residual accepted for a solved point: a solver's
# answer, or the base pair of a certificate or a linear model.
BASE_RESIDUAL_TOL = 1e-8

# Default step tolerance and iteration cap of the fixed-point solve.
TOL_STEP = 1e-10
MAX_ITER = 1000


@dataclass
class InjectionSet:
    """Wye injections per existing phase and delta injections per existing
    phase-pair connection, stacked in index order."""

    s_wye: np.ndarray
    s_delta: np.ndarray

    def __post_init__(self):
        self.s_wye = np.asarray(self.s_wye, dtype=complex)
        self.s_delta = np.asarray(self.s_delta, dtype=complex)
        if not (np.all(np.isfinite(self.s_wye)) and np.all(np.isfinite(self.s_delta))):
            raise InputFormatError("injections must be finite")

    @classmethod
    def zeros(cls, model: NetworkModel) -> "InjectionSet":
        return cls(
            s_wye=np.zeros(model.n_phases, dtype=complex),
            s_delta=np.zeros(model.n_delta, dtype=complex),
        )

    def __add__(self, other: "InjectionSet") -> "InjectionSet":
        return InjectionSet(self.s_wye + other.s_wye, self.s_delta + other.s_delta)

    def __sub__(self, other: "InjectionSet") -> "InjectionSet":
        return InjectionSet(self.s_wye - other.s_wye, self.s_delta - other.s_delta)

    def scaled(self, factor) -> "InjectionSet":
        return InjectionSet(factor * self.s_wye, factor * self.s_delta)


@dataclass
class SolveResult:
    """A load-flow solution with its iteration diagnostics.

    ``i = yl0 @ v0 + yll @ v`` holds by construction; ``i_delta`` are the
    recovered phase-to-phase currents (zero where the injection is zero).
    ``contraction_estimate`` is the largest observed ratio of consecutive
    update norms, reported as a diagnostic whether or not a certificate
    exists.
    """

    v: np.ndarray
    i_delta: np.ndarray
    i: np.ndarray
    iterations: int
    residual_inf: float
    converged: bool
    contraction_estimate: float
    step_norms: tuple = ()


def _conj_delta_currents(model: NetworkModel, v, s_delta):
    """conj(i_delta) = s_delta / (H v), zero where the injection is zero."""
    if s_delta.size == 0:
        return np.zeros(0, dtype=complex)
    hv = model.connection.gather(v)
    live = s_delta != 0
    if np.any(live & (np.abs(hv) <= EPS_DELTA)):
        raise DegenerateVoltageError(
            "near-zero phase-to-phase voltage with nonzero delta injection"
        )
    out = np.zeros_like(hv)
    out[live] = s_delta[live] / hv[live]
    return out


def power_flow_mismatch(model: NetworkModel, v, inj: InjectionSet):
    """Complex power-balance mismatch at voltages ``v``.

    The phase-pair currents are substituted from their defining relation and
    the net currents from the admittance equation, so only the per-phase
    balance can be violated.  Returns the mismatch, ``conj(i_delta)`` and
    ``i = yl0 @ v0 + yll @ v``.
    """
    ic_delta = _conj_delta_currents(model, v, inj.s_delta)
    i = model.yl0 @ model.v0 + model.yll @ v
    pair_current = model.connection.scatter(ic_delta, model.n_phases)
    return pair_current * v + inj.s_wye - v * np.conj(i), ic_delta, i


def power_flow_residual(model: NetworkModel, v, inj: InjectionSet):
    """Entrywise magnitude of the power-balance mismatch at voltages ``v``;
    callers reduce with the infinity norm."""
    return np.abs(power_flow_mismatch(model, np.asarray(v, dtype=complex), inj)[0])


def _inf_norm(x) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def checked_base(model: NetworkModel, base_v, base_inj: InjectionSet, tol_residual: float):
    """Validate a base pair of a certificate or a linear model.

    Returns the mismatch terms at the base as ``(v, conj(i_delta), i)``.

    Raises
    ------
    InvalidBaseError
        The pair misses the power-flow equations by more than ``tol_residual``.
    ValueError
        If ``tol_residual`` is NaN or not positive.
    """
    check_tolerance("tol_residual", tol_residual)
    v = np.asarray(base_v, dtype=complex)
    mismatch, ic_delta, i = power_flow_mismatch(model, v, base_inj)
    res_inf = _inf_norm(mismatch)
    if res_inf > tol_residual:
        raise InvalidBaseError(
            f"base pair residual {res_inf:.3e} exceeds tolerance {tol_residual:.1e}"
        )
    return v, ic_delta, i


def check_tolerance(name, value):
    """Reject a tolerance that is NaN or not positive.  ``inf`` passes: as
    ``tol_residual`` it accepts any base pair, which builds a linear model
    away from a solution."""
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive")


def _check_max_iter(max_iter):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _checked_voltage(model: NetworkModel, inj: InjectionSet, name: str, v):
    """``v`` as a new complex array, once ``inj`` and ``v`` fit ``model``.

    Raises ``ValueError`` naming the argument and both lengths when the
    injections or ``v`` do not have one entry per phase (and per pair), or
    when ``v`` is not finite.
    """
    for what, values, size in (
        ("inj.s_wye", inj.s_wye, model.n_phases),
        ("inj.s_delta", inj.s_delta, model.n_delta),
    ):
        if values.shape != (size,):
            raise ValueError(f"{what} has shape {values.shape}; the model needs length {size}")
    v = np.array(v, dtype=complex)
    if v.shape != (model.n_phases,):
        raise ValueError(f"{name} has shape {v.shape}; the model needs length {model.n_phases}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


class _UpdateKernel:
    """The update map ``G`` for one ``(model, profile, injections)``.

    What does not change during a solve is taken once: the phases with a
    nonzero wye injection and their injections, the pairs with a nonzero
    delta injection (as a ``ConnectionMatrix`` of their phase columns),
    ``yll``'s solve and ``w``.  An application keeps both degeneracy checks
    and forms the right-hand side as the wye term plus the pair scatter,
    which ``scatter`` accumulates from a zero vector; scattering straight
    into the wye term reorders the sums and moves the iterates in their
    last bits.
    """

    def __init__(self, model: NetworkModel, w_profile: ZeroLoadProfile, inj: InjectionSet):
        self._n = model.n_phases
        self._wye = np.flatnonzero(inj.s_wye)
        self._s_wye = inj.s_wye[self._wye]
        self._has_pairs = model.n_delta > 0
        live = np.flatnonzero(inj.s_delta)
        conn = model.connection
        self._pairs = ConnectionMatrix(first=conn.first[live], second=conn.second[live])
        self._s_delta = inj.s_delta[live]
        self._solve = model.factor.solve
        self._w = w_profile.w

    def __call__(self, v):
        v_wye = v[self._wye]
        if (np.abs(v_wye) <= EPS_V).any():
            raise DegenerateVoltageError("near-zero phase voltage with nonzero wye injection")
        rhs = np.zeros(self._n, dtype=complex)
        rhs[self._wye] = np.conj(self._s_wye / v_wye)
        # A model with pairs adds the scatter even when no pair is live, as
        # the map always has: its zeros turn a -0.0 of the wye term to +0.0.
        if self._has_pairs:
            hv = self._pairs.gather(v)
            if (np.abs(hv) <= EPS_DELTA).any():
                raise DegenerateVoltageError(
                    "near-zero phase-to-phase voltage with nonzero delta injection"
                )
            rhs = rhs + self._pairs.scatter(np.conj(self._s_delta / hv), self._n)
        return self._w + self._solve(rhs)


def fixed_point_map(model: NetworkModel, w_profile: ZeroLoadProfile, inj: InjectionSet, v):
    """One application of the voltage-update operator G.

    Raises ``ValueError`` when ``v`` or ``inj`` does not fit ``model`` or
    ``v`` is not finite, and ``DegenerateVoltageError`` when a voltage
    under a nonzero injection is near zero.
    """
    v = _checked_voltage(model, inj, "v", v)
    return _UpdateKernel(model, w_profile, inj)(v)


def solve_fixed_point(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    inj: InjectionSet,
    v_init=None,
    tol_step: float = TOL_STEP,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> SolveResult:
    """Iterate ``v <- G(v)`` until the update norm drops below ``tol_step``.

    The stopping rule is the step norm (what the contraction theory bounds);
    the returned result is then validated against ``tol_residual`` and
    flagged in ``converged``.  A miss is not logged here: the caller knows
    whether this is its final answer (the sweep hands such a point to
    Newton).

    Raises
    ------
    ValueError
        If ``max_iter`` is below one, a tolerance is NaN or not positive,
        ``v_init`` or ``inj`` does not fit the model, or ``v_init`` is not
        finite.
    NonConvergenceError
        If ``max_iter`` updates do not bring the step below ``tol_step``.
        The exception carries the last iterate and all step norms.
    DegenerateVoltageError
        If an iterate degenerates under a nonzero injection.
    """
    _check_max_iter(max_iter)
    check_tolerance("tol_step", tol_step)
    check_tolerance("tol_residual", tol_residual)
    v = _checked_voltage(model, inj, "v_init", w_profile.w if v_init is None else v_init)
    update = _UpdateKernel(model, w_profile, inj)
    step_norms = []
    for iteration in range(1, max_iter + 1):
        v_next = update(v)
        step = float(np.abs(v_next - v).max()) if v.size else 0.0
        step_norms.append(step)
        v = v_next
        if step < tol_step:
            break
    else:
        raise NonConvergenceError(
            f"fixed-point iteration did not converge in {max_iter} iterations "
            f"(last step {step_norms[-1]:.3e})",
            last_v=v,
            step_norms=step_norms,
        )

    mismatch, ic_delta, i = power_flow_mismatch(model, v, inj)
    residual_inf = _inf_norm(mismatch)
    converged = residual_inf <= tol_residual

    # Ratios of steps at the rounding floor are measurement noise, not
    # contraction information; skip them.
    floor = 1e3 * np.finfo(float).eps * max(1.0, float(np.abs(v).max()))
    ratios = [b / a for a, b in zip(step_norms, step_norms[1:]) if a > floor]
    contraction = max(ratios) if ratios else 0.0

    return SolveResult(
        v=v,
        i_delta=np.conj(ic_delta),
        i=i,
        iterations=iteration,
        residual_inf=residual_inf,
        converged=converged,
        contraction_estimate=float(contraction),
        step_norms=tuple(step_norms),
    )


def _newton_jacobian(model: NetworkModel, v, inj: InjectionSet, ic_delta, i):
    """Real form, on ``(Re dv, Im dv)``, of the mismatch's derivative at ``v``.

    ``ic_delta`` and ``i`` are the mismatch terms at ``v``.  Of the
    Wirtinger blocks, d/dv is a diagonal plus the bus-local pair term and
    d/dconj(v) is ``-diag(v) conj(yll)``.
    """
    conn = model.connection
    hv = conn.gather(v)
    live = inj.s_delta != 0
    dc = np.zeros_like(hv)
    dc[live] = inj.s_delta[live] / hv[live] ** 2
    j_v = conn.bus_block(conn.scatter(ic_delta, model.n_phases) - np.conj(i), dc, scale=v)
    j_vbar = scipy.sparse.diags(-v, format="csc") @ model.yll.conj()
    return scipy.sparse.bmat(
        [
            [j_v.real + j_vbar.real, -j_v.imag + j_vbar.imag],
            [j_v.imag + j_vbar.imag, j_v.real - j_vbar.real],
        ],
        format="csc",
    )


def newton_oracle(
    model: NetworkModel,
    inj: InjectionSet,
    v_init=None,
    tol_residual: float = 1e-10,
    max_iter: int = 60,
) -> SolveResult:
    """Damped Newton on the real/imaginary stacked balance equations.

    The same equations as the fixed point, solved by an unrelated
    algorithm: the sweep's fallback where the fixed point fails or misses
    ``tol_residual``, and the tests' cross-check of the fixed point.  The
    Jacobian is sparse (the pattern of ``yll`` plus bus-local pair entries)
    and is factored through ``LUFactor``.  The step is damped by halving
    whenever the residual norm would increase.  ``iterations`` is the
    number of Newton steps taken (zero from a start that already meets
    ``tol_residual``).  A Jacobian with ``rcond < RCOND_FLOOR`` raises
    :class:`SingularJacobianError`; ``max_iter`` below one, a NaN or
    non-positive ``tol_residual``, a ``v_init`` or ``inj`` that does not fit
    the model, or a non-finite ``v_init`` raises ``ValueError``.
    """
    _check_max_iter(max_iter)
    check_tolerance("tol_residual", tol_residual)
    n = model.n_phases
    if v_init is None:
        v_init = zero_load_voltage(model).w
    v = _checked_voltage(model, inj, "v_init", v_init)

    f, ic_delta, i = power_flow_mismatch(model, v, inj)
    fnorm = _inf_norm(f)
    # The pass after the last step only checks the residual.
    for steps in range(max_iter + 1):
        if fnorm <= tol_residual:
            break
        if steps == max_iter:
            raise NonConvergenceError(
                f"Newton did not converge in {max_iter} iterations (residual {fnorm:.3e})",
                last_v=v,
            )
        A = _newton_jacobian(model, v, inj, ic_delta, i)
        rhs = -np.concatenate([f.real, f.imag])
        delta = LUFactor(A, SingularJacobianError, "Newton Jacobian").solve(rhs)
        dv = delta[:n] + 1j * delta[n:]

        lam = 1.0
        while True:
            v_try = v + lam * dv
            try:
                f_try, ic_try, i_try = power_flow_mismatch(model, v_try, inj)
            except DegenerateVoltageError:
                f_try = None
            if f_try is not None and np.abs(f_try).max() < fnorm:
                v, f, ic_delta, i = v_try, f_try, ic_try, i_try
                fnorm = np.abs(f).max()
                break
            lam *= 0.5
            if lam < 2.0**-30:
                raise NonConvergenceError(
                    "Newton damping exhausted without residual decrease",
                    last_v=v,
                )

    return SolveResult(
        v=v,
        i_delta=np.conj(ic_delta),
        i=i,
        iterations=steps,
        residual_inf=float(fnorm),
        converged=True,
        contraction_estimate=float("nan"),
    )


# ---------------------------------------------------------------------------
# JSON interface


def injections_from_json(doc: dict, model: NetworkModel) -> InjectionSet:
    """Parse an injection document against a model's index maps.

    Schema::

        {"wye":   [{"bus", "phase", "re", "im"}],
         "delta": [{"bus", "pair",  "re", "im"}]}

    Omitted entries are zero.  Entries referencing phases or connections the
    model does not declare, repeated entries and non-finite values are
    rejected.
    """
    if not isinstance(doc, dict):
        raise InputFormatError("injection document must be a JSON object")
    inj = InjectionSet.zeros(model)
    sections = (
        ("wye", "phase", model.index.phase_index, inj.s_wye, "phase {!r} does not exist"),
        ("delta", "pair", model.index.delta_index, inj.s_delta, "connection {!r} is not declared"),
    )
    for section, label, index, values, unknown in sections:
        seen = {}
        for i, entry in enumerate(list_from_doc(doc.get(section, ()), section)):
            where = f"{section}[{i}]"
            try:
                key = (str(entry["bus"]), str(entry[label]))
            except (TypeError, KeyError):
                raise InputFormatError(f"{where}: expected bus, {label}, re, im") from None
            if key not in index:
                raise InputFormatError(
                    f"{where}: {unknown.format(key[1])} at bus {key[0]!r}"
                )
            if key in seen:
                raise InputFormatError(
                    f"{where}: duplicate of {section}[{seen[key]}] "
                    f"({label} {key[1]!r} at bus {key[0]!r})"
                )
            seen[key] = i
            values[index[key]] += complex_from_doc(entry, where)
    return inj


def injections_from_file(path, model: NetworkModel) -> InjectionSet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON ({exc})") from None
    return injections_from_json(doc, model)
