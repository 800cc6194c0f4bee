"""Power-flow evaluation, the fixed-point solver, and its Newton fallback.

Sign convention: injections are generation-positive, so loads carry negative
real parts.  All quantities are per unit.
"""

from __future__ import annotations

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
    LUFactor,
    NetworkModel,
    ZeroLoadProfile,
    _read_json,
    check_profile,
    complex_entries,
    list_from_doc,
)

# Guard for the divisions by phase and phase-pair voltages; a voltage this
# small with a nonzero injection means the map is no longer well defined.
EPS_V = 1e-9

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
        if not (np.isfinite(self.s_wye).all() and np.isfinite(self.s_delta).all()):
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


def _check_degenerate(values, loads, message):
    """Raise ``DegenerateVoltageError`` when an entry of ``values`` under a
    nonzero entry of ``loads`` (the injections on them) is not above
    ``EPS_V``; ``loads=True`` checks every entry.  The check runs along the
    last axis, so its ``rows`` name the degenerate rows of a stack (a 0-d
    ``True`` for one vector).  Returns whether every entry, loaded or not,
    is finite and above ``EPS_V``."""
    magnitude = np.abs(values)
    # Two reductions settle the common case, every entry finite and clear
    # of zero; a NaN fails both.
    if magnitude.min(initial=np.inf) > EPS_V and magnitude.max(initial=0.0) < np.inf:
        return True
    rows = ((magnitude <= EPS_V) & (loads != 0)).any(axis=-1)
    if rows.any():
        raise DegenerateVoltageError(message, rows=rows)
    return False


_DEGENERATE_WYE = "near-zero phase voltage with nonzero wye injection"
_DEGENERATE_PAIR = "near-zero phase-to-phase voltage with nonzero delta injection"


def _quotients(s, values, message):
    """``s / values`` where ``s`` is nonzero, and ``+0`` elsewhere, once
    ``_check_degenerate`` has passed ``values`` under ``s``."""
    _check_degenerate(values, s, message)
    out = np.zeros(s.shape, dtype=complex)
    return np.divide(s, values, out=out, where=s != 0)


def _conj_quotients(s, values, message):
    """``conj(s / values)`` where ``s`` is nonzero, and a zero of either
    sign elsewhere, once ``_check_degenerate`` has passed ``values`` under
    ``s``: the update kernel's terms.

    Where every entry of ``values`` is finite and clear of zero, the common
    case, the quotient and its conjugate are taken on every entry, unmasked
    (a masked ufunc takes about twice as long, a masked conjugate about
    twenty times), and no mask is formed; ``0 / values`` is then a zero.
    Only the sign of a zero differs from ``_quotients``, and the kernel's
    sums turn every such zero to ``+0`` (see ``_UpdateKernel``).
    """
    if _check_degenerate(values, s, message):
        out = s / values
    else:
        out = np.divide(s, values, out=np.zeros(s.shape, dtype=complex), where=s != 0)
    return np.conjugate(out, out=out)


def power_flow_mismatch(model: NetworkModel, v, inj: InjectionSet):
    """Complex power-balance mismatch at voltages ``v``.

    The phase-pair currents are substituted from their defining relation and
    the net currents from the admittance equation, so only the per-phase
    balance can be violated.  Returns the mismatch, ``conj(i_delta)`` and
    ``i = yl0 @ v0 + yll @ v``.  A stack of voltage rows with a stack of
    injection rows gives each row's terms, bit for bit as that row alone:
    every product works along the last axis.  The load term is taken as
    ``np.multiply(v, conj(i))``: numpy's ``*`` would reuse a temporary
    ``conj(i)`` of 256 KiB or more, a wide stack's, as its output and swap
    the operands, and a complex product with FMA is not commutative in its
    last bit.
    """
    hv = model.connection.gather(v)
    ic_delta = _quotients(inj.s_delta, hv, _DEGENERATE_PAIR)
    i = model.yl0 @ model.v0 + (model.yll @ v.T).T
    pair_current = model.connection.scatter(ic_delta, model.n_phases)
    return pair_current * v + inj.s_wye - np.multiply(v, np.conj(i)), ic_delta, i


def power_flow_residual(model: NetworkModel, v, inj: InjectionSet):
    """Entrywise magnitude of the power-balance mismatch at voltages ``v``;
    callers reduce with the infinity norm.  A stack of injection rows takes
    a voltage row each.  Raises ``ValueError`` naming the argument when
    ``inj`` or ``v`` does not fit ``model``, or ``v`` is not finite."""
    v = _checked_voltage(model, inj, "v", v, rows=np.shape(inj.s_wye)[:-1])
    return np.abs(power_flow_mismatch(model, v, inj)[0])


def _inf_norm(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def checked_base(model: NetworkModel, base_v, base_inj: InjectionSet, tol_residual: float):
    """Validate a base pair of a certificate or a linear model.

    Returns the mismatch terms at the base as ``(v, conj(i_delta), i)``.

    Raises
    ------
    InvalidBaseError
        The pair misses the power-flow equations by more than ``tol_residual``,
        or its residual is not finite.
    ValueError
        If ``tol_residual`` is NaN or not positive, if ``base_v`` or
        ``base_inj`` does not fit ``model``, or if ``base_v`` is not finite.
    """
    check_tolerance("tol_residual", tol_residual)
    _check_injections(model, base_inj, "base_inj")
    v = _checked_vector("base_v", base_v, model.n_phases)
    mismatch, ic_delta, i = power_flow_mismatch(model, v, base_inj)
    res_inf = _inf_norm(mismatch)
    if not res_inf <= tol_residual:
        raise InvalidBaseError(
            f"base pair residual {res_inf:.3e} exceeds tolerance {tol_residual:.1e}"
        )
    return v, ic_delta, i


def check_tolerance(name, value):
    """Reject a tolerance that is NaN or not positive.  ``inf`` passes: as
    ``tol_residual`` it accepts any base pair with a finite residual, which
    builds a linear model away from a solution."""
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive")


def _check_max_iter(max_iter):
    """Reject a step cap that is not an integer of at least one: numpy
    integers pass, and any float (``3.0``, ``nan`` and ``inf`` too) fails."""
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter}")


def _check_solver_options(tol_step, tol_residual, max_iter):
    _check_max_iter(max_iter)
    check_tolerance("tol_step", tol_step)
    check_tolerance("tol_residual", tol_residual)


def _check_fit(what, values, size, rows=()):
    """Raise ``ValueError`` naming ``what`` and both lengths unless
    ``values`` has shape ``rows + (size,)``."""
    if values.shape != rows + (size,):
        need = f"shape {rows + (size,)}" if rows else f"length {size}"
        raise ValueError(f"{what} has shape {values.shape}; the model needs {need}")


def _check_injections(model: NetworkModel, inj: InjectionSet, name: str, rows=()):
    """Raise ``ValueError`` unless ``inj``, the argument ``name``, has one
    entry per phase and per pair of ``model`` (in each of its rows)."""
    _check_fit(f"{name}.s_wye", inj.s_wye, model.n_phases, rows)
    _check_fit(f"{name}.s_delta", inj.s_delta, model.n_delta, rows)


def _checked_vector(name: str, v, size: int, rows=()):
    """``v`` as a new complex array, once it has shape ``rows + (size,)``
    and is finite; ``ValueError`` naming ``name`` otherwise."""
    v = np.array(v, dtype=complex)
    _check_fit(name, v, size, rows)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _checked_voltage(model: NetworkModel, inj: InjectionSet, name: str, v, rows=()):
    """``v`` as a new complex array, once ``inj`` and ``v`` fit ``model``.

    Raises ``ValueError`` naming the argument and both lengths when the
    injections or ``v`` do not have one entry per phase (and per pair), or
    when ``v`` is not finite.  ``rows`` is the leading shape of a stack of
    rows, ``(k,)``; each array then holds ``k`` rows.
    """
    _check_injections(model, inj, "inj", rows)
    return _checked_vector(name, v, model.n_phases, rows)


class _UpdateKernel:
    """The update map ``G`` of one model for one row of injections, or a
    stack of ``k`` rows (``s_wye`` of shape ``(k, n)``).

    ``rhs(v)`` is ``r_v(s) = conj(s_Y / v) + Hᵀ conj(s_δ / Hv)``, and a
    call is ``G(v) = w + yll⁻¹ r_v(s)``, the solve of ``rhs(v)`` plus
    ``w = model.zero_load.w``, which only a call reads.  ``v`` has the
    injections' shape, or is one vector that every row is taken at: the FPL
    model is a call at the base voltages, and the FOT model solves its own
    operator on ``rhs`` at the base voltages of a kernel built on the change
    of the injections.

    The kernel keeps the injections as given and ``yll``'s solve.  An
    application works over every phase and pair along the last axis, so a
    vector is the one-row case, and every row of a stack comes out bit for
    bit as that row alone: its quotients are taken where its own injection
    is nonzero (a zero elsewhere, see ``_conj_quotients``), both degeneracy
    checks look at its own nonzero injections, and its right-hand side is
    one column of a single SuperLU solve.  ``keep(rows)`` keeps the rows of
    a boolean mask and lets the others go: from then on a call takes ``v``
    for the kept rows only, and solves a column for each.  The right-hand
    side is the wye term plus the pair scatter, which ``scatter``
    accumulates from a zero vector; scattering straight into the wye term
    reorders the sums and moves the iterates in their last bits.
    """

    def __init__(self, model: NetworkModel, inj: InjectionSet):
        self._s_wye, self._s_delta = inj.s_wye, inj.s_delta
        self._model, self._pairs = model, model.connection
        self._solve = model.factor.solve

    def rhs(self, v):
        rhs = _conj_quotients(self._s_wye, v, _DEGENERATE_WYE)
        pair = _conj_quotients(self._s_delta, self._pairs.gather(v), _DEGENERATE_PAIR)
        # The scatter is added on every model, with no pair or no live pair
        # too: its zeros, all +0.0, turn a -0.0 of the wye term to +0.0.
        rhs += self._pairs.scatter(pair, rhs.shape[-1])
        return rhs

    def __call__(self, v):
        v_next = self._solve(self.rhs(v).T).T
        v_next += self._model.zero_load.w
        return v_next

    def keep(self, rows):
        """Keep only the rows ``rows`` (a boolean mask) of the stack."""
        self._s_wye, self._s_delta = self._s_wye[rows], self._s_delta[rows]


def fixed_point_map(model: NetworkModel, w_profile: ZeroLoadProfile, inj: InjectionSet, v):
    """One application of the voltage-update operator G.

    Raises ``ValueError`` when ``v``, ``inj`` or ``w_profile`` does not fit
    ``model`` or ``v`` is not finite, and ``DegenerateVoltageError`` when a
    voltage under a nonzero injection is near zero.
    """
    check_profile(model, w_profile)
    v = _checked_voltage(model, inj, "v", v)
    return _UpdateKernel(model, inj)(v)


def _not_converged(v, step_norms, max_iter):
    return NonConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(last step {step_norms[-1]:.3e})",
        last_v=v,
        step_norms=step_norms,
    )


def _solve_results(v, norms, stopped_at, terms, tol_residual) -> list:
    """The results of the fixed-point solves of a stack of rows, row ``j``
    stopped at ``v[j]`` after the updates ``norms[j, :stopped_at[j]]``;
    ``terms`` are the stacked mismatch terms at ``v``.

    ``converged`` is the residual check against ``tol_residual``, and
    ``contraction_estimate`` the largest ratio of consecutive steps.  Every
    array operation takes the whole stack, along the last axis, and a
    row's arrays are views of the stacked ones.
    """
    mismatch, ic_delta, i = terms
    residual_inf = np.abs(mismatch).max(axis=-1, initial=0.0).tolist()
    # Ratios of steps at the rounding floor are measurement noise, not
    # contraction information; skip them.
    eps = 1e3 * np.finfo(float).eps
    floor = (eps * np.maximum(1.0, np.abs(v).max(axis=-1, initial=0.0))).tolist()
    i_delta, out = np.conj(ic_delta), []
    for j, row_norms in enumerate(norms.tolist()):
        step_norms = row_norms[: stopped_at[j]]
        ratios = [b / a for a, b in zip(step_norms, step_norms[1:]) if a > floor[j]]
        out.append(
            SolveResult(
                v=v[j],
                i_delta=i_delta[j],
                i=i[j],
                iterations=len(step_norms),
                residual_inf=residual_inf[j],
                converged=residual_inf[j] <= tol_residual,
                contraction_estimate=float(max(ratios)) if ratios else 0.0,
                step_norms=tuple(step_norms),
            )
        )
    return out


def _injection_rows(inj: InjectionSet, rows) -> InjectionSet:
    return InjectionSet(inj.s_wye[rows], inj.s_delta[rows])


def _solve_rows(
    model: NetworkModel,
    inj: InjectionSet,
    v_init,
    tol_step: float = TOL_STEP,
    tol_residual: float = BASE_RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> list:
    """The fixed-point solve of each row of a stack of injections, the
    rows iterated together with one update kernel, each step solving the
    rows still iterating only, and their residuals checked and their
    results built in one stacked pass at the end (see ``_iterate_rows``).

    ``inj`` holds ``k`` rows (``s_wye`` of shape ``(k, n)``, ``s_delta`` of
    shape ``(k, d)``) and ``v_init`` one start per row, shape ``(k, n)``.
    Bad options, or injections or starts that do not fit the model, raise
    ``ValueError``; the message of a shape names the shapes the injection
    rows call for.
    """
    _check_solver_options(tol_step, tol_residual, max_iter)
    v = _checked_voltage(model, inj, "v_init", v_init, rows=np.shape(inj.s_wye)[:1])
    return _iterate_rows(model, inj, v, tol_step, tol_residual, max_iter)


def _iterate_rows(model, inj, v, tol_step, tol_residual, max_iter) -> list:
    """The fixed-point loop on checked arguments: ``k`` rows of injections
    and a start per row, ``v`` of shape ``(k, n)``, an array of the loop's
    own that it overwrites.

    One update kernel is built for the call, and each step applies it to
    the rows still iterating only: one SuperLU solve with a right-hand side
    per such row, so the solves narrow as rows stop.  A row stops when its
    step drops below ``tol_step`` (the loop records that step and its
    iterate), when it degenerates (the step is redone without it), or after
    ``max_iter`` steps.  A row that stops leaves the kernel and the stack of
    iterates.  After the loop, one stacked ``power_flow_mismatch`` checks
    the residual of every row that met ``tol_step``, at its own iterate, and
    ``_solve_results`` builds their results; a row that degenerates in that
    check gets its error, and the check is redone without it.

    Returns a list with, per row, its ``SolveResult``, or the
    ``NonConvergenceError`` or ``DegenerateVoltageError`` its solve ends
    in; an empty stack gives an empty list.  No operation mixes rows, so a
    row comes out bit for bit as it would alone.
    """
    update, k = _UpdateKernel(model, inj), len(v)
    outcomes = [None] * k
    # live holds the stack indices of the rows still iterating, the rows of
    # v and of the kernel.  runs holds, per run of steps taken on one set of
    # live rows, that set and each step's norms; stopped_at is the step at
    # which a row met tol_step (zero for the others), v_stop its iterate.
    live, runs, taken = np.arange(k), [], 0
    stopped_at, v_stop = np.zeros(k, dtype=int), np.empty_like(v)
    while live.size and taken < max_iter:
        try:
            v_next = update(v)
        except DegenerateVoltageError as exc:
            stop = exc.rows
            for row in live[stop].tolist():
                outcomes[row] = DegenerateVoltageError(str(exc), rows=np.bool_(True))
        else:
            # Each row's update norm, zero on a model with no phases; the
            # difference overwrites the last iterate, which is not read again.
            step = np.abs(np.subtract(v_next, v, out=v)).max(axis=-1, initial=0.0)
            if not runs or runs[-1][0] is not live:
                runs.append((live, []))
            runs[-1][1].append(step)
            v, taken = v_next, taken + 1
            stop = step < tol_step
            if not stop.any():
                continue
            stopped = live[stop]
            stopped_at[stopped], v_stop[stopped] = taken, v[stop]
        keep = ~stop
        live, v = live[keep], v[keep]
        update.keep(keep)
    norms, first = np.zeros((k, taken)), 0
    for run_rows, steps in runs:
        norms[run_rows, first : first + len(steps)] = np.transpose(steps)
        first += len(steps)
    rows = np.flatnonzero(stopped_at)
    v_rows, inj_rows = v_stop, inj
    # Every row met tol_step, the common case: the stack itself, uncopied.
    if rows.size < k:
        v_rows, inj_rows = v_stop[rows], _injection_rows(inj, rows)
    if rows.size:
        try:
            terms = power_flow_mismatch(model, v_rows, inj_rows)
        except DegenerateVoltageError as exc:
            for row in rows[exc.rows].tolist():
                outcomes[row] = DegenerateVoltageError(str(exc), rows=np.bool_(True))
            kept = ~exc.rows
            rows, v_rows, inj_rows = rows[kept], v_rows[kept], _injection_rows(inj_rows, kept)
            terms = power_flow_mismatch(model, v_rows, inj_rows)
        results = _solve_results(v_rows, norms[rows], stopped_at[rows].tolist(), terms, tol_residual)
        for row, result in zip(rows.tolist(), results):
            outcomes[row] = result
    for row, v_row in zip(live.tolist(), v):
        outcomes[row] = _not_converged(v_row, norms[row].tolist(), max_iter)
    return outcomes


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
    Newton).  This is the one-row case of ``_iterate_rows``: one update
    kernel over every phase and pair, and one residual check at the
    iterate where the step met ``tol_step``.

    Raises
    ------
    ValueError
        If ``w_profile`` was built for another model, ``max_iter`` is not
        an integer of at least one, a tolerance is NaN or not positive,
        ``v_init`` or ``inj`` does not fit the model, or ``v_init`` is not
        finite.
    NonConvergenceError
        If ``max_iter`` updates do not bring the step below ``tol_step``.
        The exception carries the last iterate and all step norms.
    DegenerateVoltageError
        If an iterate degenerates under a nonzero injection.
    """
    check_profile(model, w_profile)
    # Checked here as one row, so that a stack of injections is refused.
    _check_solver_options(tol_step, tol_residual, max_iter)
    v = _checked_voltage(model, inj, "v_init", w_profile.w if v_init is None else v_init)
    rows = _injection_rows(inj, None)
    (outcome,) = _iterate_rows(model, rows, v[None], tol_step, tol_residual, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _real_form(a, b):
    """The real form, on ``(Re x, Im x)``, of the sparse map
    ``x -> a x + b conj(x)``, as one CSC matrix, for canonical CSC ``a``
    and ``b`` of one square shape.

    The blocks are ``[[ar + br, bi - ai], [ai + bi, ar - br]]``, each
    formed on the union of the two patterns (a missing entry reads as zero)
    and kept where it is nonzero, and every column holds its upper block's
    entries and then its lower block's, each in row order.  These are the
    arrays that ``scipy.sparse.bmat`` builds from the sums of the parts,
    bit for bit, assembled directly instead of through about twenty
    intermediate sparse matrices.
    """
    n = a.shape[0]
    # Column-major keys, sorted within each matrix; a stable sort merges
    # the two runs, and its repeats are the entries both patterns hold.
    keys = [np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices for m in (a, b)]
    union = np.sort(np.concatenate(keys), kind="stable")
    union = union[np.concatenate([[True], union[1:] != union[:-1]])]
    parts = np.zeros((4, union.size))
    for m, at, key in ((a, 0, keys[0]), (b, 2, keys[1])):
        where = np.searchsorted(union, key)
        parts[at, where], parts[at + 1, where] = m.data.real, m.data.imag
    ar, ai, br, bi = parts
    col, row = np.divmod(union, n)
    values = np.concatenate([ar + br, ai + bi, -ai + bi, ar - br])
    rows = np.concatenate([row, row + n, row, row + n])
    cols = np.concatenate([col, col, col + n, col + n])
    kept = values != 0
    # A stable sort by column keeps each block's row order, upper first.
    order = np.argsort(cols[kept], kind="stable")
    indptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[kept], minlength=2 * n), out=indptr[1:])
    return scipy.sparse.csc_matrix(
        (values[kept][order], rows[kept][order], indptr), shape=(2 * n, 2 * n)
    )


def _tangent_factor(model: NetworkModel, v, ic_delta, i, error, what) -> LUFactor:
    """The factored tangent operator of the balance equations at ``v``.

    ``ic_delta`` and ``i`` are the mismatch terms at ``v`` (see
    ``power_flow_mismatch``), and every phase voltage must be nonzero.
    Differentiating the balance rows and the pair rows ``ī∘(Hv) = s_δ``
    (``ī`` the conjugate pair currents) gives equations in ``(dV, dĪ)``.
    The pair rows are eliminated first, ``dĪ = (ds_δ − ī∘(H dV)) / Hv``;
    dividing the balance rows by ``v`` and conjugating them leaves

        yll·dV − F·conj(dV) = conj(ds_Y / v) + Hᵀ conj(ds_δ / Hv),
        F = conj(diag((Hᵀī − conj(i)) / v) − Hᵀ diag(ī / Hv) H),

    with ``F`` bus-local and its pair term ``ī / Hv`` from ``_quotients``,
    zero where ``ī`` is (a dead pair may have ``Hv = 0``; a live one passed
    the same check in ``power_flow_mismatch``).  The equations are
    real-linear but not complex-linear, so the operator is the real ``2n``
    form on ``(Re dV, Im dV)``, with the sparsity of ``yll``, factored
    through ``LUFactor``; ``error`` and ``what`` are its singularity error
    and the operator's name.  ``_tangent_solve`` solves with it.

    At a solved pair this is the FOT model.  At any other ``v`` with
    mismatch ``m``, ``v`` solves the injections ``(s_Y − m, s_δ)``
    exactly, so the response to ``ds_Y = m`` is the Newton step.
    """
    conn, n = model.connection, model.n_phases
    pair = _quotients(ic_delta, conn.gather(v), _DEGENERATE_PAIR)
    # F = conj(diag(f_diag) - H^T diag(pair) H), assembled bus-local.
    f_diag = (conn.scatter(ic_delta, n) - np.conj(i)) / v
    f = conn.bus_block(np.conj(f_diag), np.conj(pair))
    return LUFactor(_real_form(model.yll, -f), error, what)


def _tangent_solve(factor: LUFactor, rhs):
    """The ``dV`` of the tangent operator's right-hand side ``rhs``, along
    the last axis: one solve with a column per row of a stack."""
    n = rhs.shape[-1]
    z = factor.solve(np.concatenate([rhs.real, rhs.imag], axis=-1).T).T
    dv = 1j * z[..., n:]
    return np.add(z[..., :n], dv, out=dv)


def newton_oracle(
    model: NetworkModel,
    inj: InjectionSet,
    v_init=None,
    tol_residual: float = 1e-10,
    max_iter: int = 60,
) -> SolveResult:
    """Damped Newton on the balance equations, through FOT's tangent operator.

    The same equations as the fixed point, solved by an unrelated
    algorithm: the sweep's fallback where the fixed point fails or misses
    ``tol_residual``, and the tests' cross-check of the fixed point.  With
    mismatch ``m`` at the iterate ``v``, the pair ``(v, (s_Y − m, s_δ))``
    is exact, so each step is the tangent model's response to the wye
    change ``m``: ``_tangent_factor`` at ``v`` (the pattern of ``yll`` plus
    bus-local pair entries, factored through ``LUFactor``) solved on
    ``conj(m / v)``.  The step is damped by halving whenever the residual
    norm would increase.  ``iterations`` is the number of Newton steps
    taken (zero from a start that already meets ``tol_residual``).

    Raises
    ------
    DegenerateVoltageError
        A phase voltage of an iterate that takes a step, the start
        included, is not above ``EPS_V``: the operator divides by it.
    SingularJacobianError
        The operator's ``rcond`` is below ``RCOND_FLOOR``.
    NonConvergenceError
        ``max_iter`` steps do not meet ``tol_residual``, or the damping
        finds no decrease.
    ValueError
        ``max_iter`` is not an integer of at least one, ``tol_residual`` is
        NaN or not positive, ``v_init`` or ``inj`` does not fit the model,
        or ``v_init`` is not finite.
    """
    _check_max_iter(max_iter)
    check_tolerance("tol_residual", tol_residual)
    if v_init is None:
        v_init = model.zero_load.w
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
        _check_degenerate(v, True, "near-zero phase voltage at a Newton iterate")
        factor = _tangent_factor(model, v, ic_delta, i, SingularJacobianError, "Newton Jacobian")
        dv = _tangent_solve(factor, np.conj(f / v))

        lam = 1.0
        while True:
            v_try = v + lam * dv
            try:
                f_try, ic_try, i_try = power_flow_mismatch(model, v_try, inj)
            except DegenerateVoltageError:
                f_try = None
            if f_try is not None and (fnorm_try := _inf_norm(f_try)) < fnorm:
                v, f, ic_delta, i, fnorm = v_try, f_try, ic_try, i_try, fnorm_try
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
        residual_inf=fnorm,
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
    rejected.  Each section is read in one pass, and its values are added
    to the zero vector in one fancy-indexed ``+=``, so that a ``-0.0``
    entry is stored as ``0j + (-0.0)``, that is ``+0.0``.
    """
    if not isinstance(doc, dict):
        raise InputFormatError("injection document must be a JSON object")
    inj = InjectionSet.zeros(model)
    sections = (
        ("wye", "phase", model.index.phase_index, inj.s_wye, "phase {!r} does not exist"),
        ("delta", "pair", model.index.delta_index, inj.s_delta, "connection {!r} is not declared"),
    )
    for section, label, index, values, unknown in sections:
        seen, entries, where = {}, [], (section + "[{}]").format
        try:
            for i, entry in enumerate(list_from_doc(doc.get(section, ()), section)):
                try:
                    key = (str(entry["bus"]), str(entry[label]))
                except (TypeError, KeyError):
                    raise InputFormatError(f"{where(i)}: expected bus, {label}, re, im") from None
                if key not in index:
                    raise InputFormatError(
                        f"{where(i)}: {unknown.format(key[1])} at bus {key[0]!r}"
                    )
                if key in seen:
                    raise InputFormatError(
                        f"{where(i)}: duplicate of {section}[{seen[key]}] "
                        f"({label} {key[1]!r} at bus {key[0]!r})"
                    )
                seen[key] = i
                entries.append(entry)
        except InputFormatError:
            complex_entries(entries, where)  # an earlier bad value is reported first
            raise
        # Repeated entries were rejected, so each position is added to once.
        values[[index[key] for key in seen]] += complex_entries(entries, where)
    return inj


def injections_from_file(path, model: NetworkModel) -> InjectionSet:
    return injections_from_json(_read_json(path), model)
