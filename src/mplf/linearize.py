"""Linear surrogate models of the load-flow solution.

Two constructions share one model container: the tangent model obtained by
differentiating the balance equations at a solved base point (FOT), and the
explicit model given by a single voltage-update step frozen at the base
(FPL).  Both predict complex voltages and, through a separate affine map,
voltage magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .certify import check_theorem2, gamma_quantities, xi_norms
from .errors import (
    CertificateRequiredError,
    DegenerateVoltageError,
    SingularSensitivityError,
)
from .netmodel import LUFactor, NetworkModel, ZeroLoadProfile
from .powerflow import (
    BASE_RESIDUAL_TOL,
    EPS_DELTA,
    EPS_V,
    InjectionSet,
    SolveResult,
    checked_base,
)


def stack_injections(inj: InjectionSet) -> np.ndarray:
    """Stack an injection set as the real vector (Re wye, Im wye, Re delta, Im delta)."""
    return np.concatenate(
        [inj.s_wye.real, inj.s_wye.imag, inj.s_delta.real, inj.s_delta.imag]
    )


@dataclass
class LinearModel:
    """Affine voltage and magnitude predictors around a base operating point.

    ``m_wye``/``m_delta`` map stacked real injections to complex voltages
    with offset ``a``; ``k_wye``/``k_delta`` with offset ``b`` give the
    magnitude predictor (an affine map of its own, not the magnitude of the
    complex prediction).  Evaluating at the base injections reproduces the
    base voltages.
    """

    kind: str
    m_wye: np.ndarray = field(repr=False)
    m_delta: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    k_wye: np.ndarray = field(repr=False)
    k_delta: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    base_v: np.ndarray = field(repr=False)
    base_x: np.ndarray = field(repr=False)

    @property
    def n_phases(self) -> int:
        return self.a.size

    @property
    def n_delta(self) -> int:
        return self.m_delta.shape[1] // 2

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m_wye": self.m_wye,
            "m_delta": self.m_delta,
            "a": self.a,
            "k_wye": self.k_wye,
            "k_delta": self.k_delta,
            "b": self.b,
            "base_v": self.base_v,
            "base_x": self.base_x,
        }


def _magnitude_maps(v_hat, m_wye, m_delta, x_wye_hat, x_delta_hat):
    # d|v|/dx = Re(conj(v) dv/dx) / |v|, applied column-wise to both maps.
    scale = np.conj(v_hat)[:, None]
    vabs = np.abs(v_hat)
    k_wye = np.real(scale * m_wye) / vabs[:, None]
    k_delta = np.real(scale * m_delta) / vabs[:, None]
    b = vabs - k_wye @ x_wye_hat - k_delta @ x_delta_hat
    return k_wye, k_delta, b


def fot_linearize(
    model: NetworkModel,
    base_solution: SolveResult,
    base_inj: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> LinearModel:
    """Tangent (first-order) model at a solved base point.

    Differentiating the balance rows and the pair rows ``ī∘(Hv) = s_δ``
    (``ī`` the conjugate pair currents) at the base gives equations in
    ``(dV, dĪ)``.  The pair rows are eliminated first:
    ``dĪ = (ds_δ − ī∘(H dV)) / Hv̂``.  Dividing the balance rows by ``v̂``
    and conjugating them leaves

        yll·dV − F·conj(dV) = conj(ds_Y / v̂) + Hᵀ conj(ds_δ / Hv̂),
        F = conj(diag((Hᵀī − conj(î)) / v̂) − Hᵀ diag(ī / Hv̂) H),

    with ``F`` bus-local.  The equations are real-linear but not
    complex-linear, so they are solved as one real ``2n`` operator on
    ``(Re dV, Im dV)`` with the sparsity of ``yll``, factored once through
    the sparse path of ``LUFactor``.  Only the ``2n`` unit columns are
    solved for: the response to ``c·e_k`` is
    ``Re(c)·(response to e_k) + Im(c)·(response to i·e_k)``, and every
    injection coordinate enters the right-hand side as such a ``c`` on one
    phase (wye) or on the two phases of its pair (delta).

    Raises
    ------
    DegenerateVoltageError
        A base phase voltage is not above ``EPS_V``: the balance rows cannot
        be divided by it.
    SingularSensitivityError
        A base phase-pair voltage ``|Hv̂|`` is not above ``EPS_DELTA`` (the
        pair rows cannot determine ``dĪ``), or the reduced operator's
        condition estimate is below ``RCOND_FLOOR``: the tangent model is not
        uniquely defined at this base (neither hypothesis holds).
    """
    v_hat, ic_delta, i_hat = checked_base(model, base_solution.v, base_inj, tol_residual)
    H = model.connection.H
    n, d = model.n_phases, model.n_delta
    if np.abs(v_hat).min() <= EPS_V:
        raise DegenerateVoltageError("degenerate phase voltage at the base point")
    hv = H @ v_hat
    if d and np.abs(hv).min() <= EPS_DELTA:
        raise SingularSensitivityError(
            f"phase-pair voltage |Hv| = {np.abs(hv).min():.3e} at the base is not above "
            f"{EPS_DELTA:.0e}; the pair currents have no unique sensitivity"
        )
    p, q = model.connection.first, model.connection.second

    # F = conj(diag(f_diag) - H^T diag(f_pair) H), assembled bus-local in COO form.
    f_diag = (H.T @ ic_delta - np.conj(i_hat)) / v_hat
    f_pair = ic_delta / hv
    rows = np.concatenate([np.arange(n), p, q, p, q])
    cols = np.concatenate([np.arange(n), p, q, q, p])
    vals = np.conj(np.concatenate([f_diag, -f_pair, -f_pair, f_pair, f_pair]))
    f = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))
    y = model.yll
    op = scipy.sparse.bmat(
        [[y.real - f.real, -y.imag - f.imag], [y.imag - f.imag, y.real + f.real]], format="csc"
    )
    factor = LUFactor(op, SingularSensitivityError, "reduced sensitivity operator")
    z = factor.solve(np.eye(2 * n))
    # Complex dV responses to a real (re_unit) and an imaginary (im_unit)
    # unit right-hand side on each phase.
    re_unit = z[:n, :n] + 1j * z[n:, :n]
    im_unit = z[:n, n:] + 1j * z[n:, n:]
    del z  # the unit responses are freed before the magnitude maps are built

    def response(c, re_cols, im_cols):
        # dV for the injections (Re x, Im x) whose right-hand sides are (c, -i c).
        return np.hstack(
            [re_cols * c.real + im_cols * c.imag, re_cols * c.imag - im_cols * c.real]
        )

    m_wye = response(1.0 / np.conj(v_hat), re_unit, im_unit)
    m_delta = response(
        1.0 / np.conj(hv), re_unit[:, p] - re_unit[:, q], im_unit[:, p] - im_unit[:, q]
    )
    del re_unit, im_unit

    x_wye_hat = np.concatenate([base_inj.s_wye.real, base_inj.s_wye.imag])
    x_delta_hat = np.concatenate([base_inj.s_delta.real, base_inj.s_delta.imag])
    a = v_hat - m_wye @ x_wye_hat - m_delta @ x_delta_hat
    k_wye, k_delta, b = _magnitude_maps(v_hat, m_wye, m_delta, x_wye_hat, x_delta_hat)
    return LinearModel(
        kind="fot",
        m_wye=m_wye,
        m_delta=m_delta,
        a=a,
        k_wye=k_wye,
        k_delta=k_delta,
        b=b,
        base_v=v_hat,
        base_x=np.concatenate([x_wye_hat, x_delta_hat]),
    )


def fpl_linearize(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_solution: SolveResult,
    base_inj: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> LinearModel:
    """Explicit model from one voltage-update step frozen at the base.

    The coefficient blocks are closed-form column scalings of the cached
    ``Z = yll^-1``: ``Z diag(1/conj(v̂))`` for wye injections and
    ``Z Hᵀ diag(1/(H conj(v̂)))`` for delta injections, with ``Z Hᵀ`` taken
    as column differences, so no linear system is solved.  The offset is
    always the zero-load voltage, so the model interpolates both the
    zero-load pair and the base pair.
    """
    v_hat = checked_base(model, base_solution.v, base_inj, tol_residual)[0]
    conn = model.connection
    if np.abs(v_hat).min() <= EPS_V:
        raise DegenerateVoltageError("degenerate phase voltage at the base point")
    z = model.yll_inverse
    p = z * (1.0 / np.conj(v_hat))[None, :]
    m_wye = np.hstack([p, -1j * p])
    if model.n_delta:
        hv_conj = conn.H @ np.conj(v_hat)
        if np.abs(hv_conj).min() <= EPS_DELTA:
            raise DegenerateVoltageError("degenerate phase-pair voltage at the base point")
        q = (z[:, conn.first] - z[:, conn.second]) * (1.0 / hv_conj)[None, :]
        m_delta = np.hstack([q, -1j * q])
    else:
        m_delta = np.zeros((model.n_phases, 0), dtype=complex)

    x_wye_hat = np.concatenate([base_inj.s_wye.real, base_inj.s_wye.imag])
    x_delta_hat = np.concatenate([base_inj.s_delta.real, base_inj.s_delta.imag])
    k_wye, k_delta, b = _magnitude_maps(v_hat, m_wye, m_delta, x_wye_hat, x_delta_hat)
    return LinearModel(
        kind="fpl",
        m_wye=m_wye,
        m_delta=m_delta,
        a=w_profile.w.copy(),
        k_wye=k_wye,
        k_delta=k_delta,
        b=b,
        base_v=v_hat,
        base_x=np.concatenate([x_wye_hat, x_delta_hat]),
    )


def evaluate_linear(linmodel: LinearModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both affine maps at a stacked real injection vector.

    Returns the complex voltage prediction and the magnitude prediction;
    the latter is its own affine map, not the magnitude of the former.
    """
    x = np.asarray(x, dtype=float)
    n2 = linmodel.m_wye.shape[1]
    d2 = linmodel.m_delta.shape[1]
    if x.shape != (n2 + d2,):
        raise ValueError(f"expected stacked injection vector of length {n2 + d2}")
    x_wye, x_delta = x[:n2], x[n2:]
    v = linmodel.m_wye @ x_wye + linmodel.m_delta @ x_delta + linmodel.a
    vabs = linmodel.k_wye @ x_wye + linmodel.k_delta @ x_delta + linmodel.b
    return v, vabs


def fpl_error_bound(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base,
    target: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> tuple[float, float]:
    """A priori bound on the FPL prediction error for certified targets.

    Returns ``(bound, q)`` where ``q`` is the contraction coefficient at the
    tight containment radius and ``bound = q * rho_dagger * max|w|``.  The
    certificate guarantees ``q < 1``.

    Raises
    ------
    CertificateRequiredError
        The explicit certificate does not hold for this base/target pair, or
        its contraction coefficient ``q`` is not below one.
    """
    cert = check_theorem2(model, w_profile, base, target, tol_residual=tol_residual)
    if not cert.satisfied:
        raise CertificateRequiredError(
            "explicit certificate fails for the target injections; no bound available"
        )
    rho_d = cert.rho_dagger
    gam = gamma_quantities(w_profile, base[0])
    xi_t = xi_norms(model, w_profile, target)
    q = xi_t.xi_wye / (gam.alpha - rho_d) ** 2
    if model.n_delta:
        q += xi_t.xi_delta / (gam.beta - rho_d) ** 2
    if not q < 1.0:
        raise CertificateRequiredError(
            f"contraction coefficient q = {q:.6g} is not below one; no bound available"
        )
    bound = q * rho_d * float(w_profile.w_abs.max())
    return bound, q
