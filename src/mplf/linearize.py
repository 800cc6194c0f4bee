"""Linear surrogate models of the load-flow solution.

Two constructions share one model interface: the tangent model obtained by
differentiating the balance equations at a solved base point (FOT), and the
explicit model given by a single voltage-update step frozen at the base
(FPL).  Both predict complex voltages and, through a separate affine map,
voltage magnitudes.  Both are kept as operators: an evaluation is one
sparse solve, and the dense coefficient maps are built only when read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .certify import check_theorem2, xi_norms
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


class LinearModel:
    """Affine voltage and magnitude predictors around a base operating point.

    A model is held as an operator, not as matrices.  A stacked real
    injection vector ``x`` (see ``stack_injections``) enters through the
    right-hand side ``r(s) = conj(s_Y / v̂) + Hᵀ conj(s_δ / Hv̂)`` of one
    sparse solve:

    * FOT (``kind == "fot"``): ``v = v̂ + dV``, with ``dV`` from the reduced
      real ``2n`` operator applied to ``r(x − base_x)``;
    * FPL (``kind == "fpl"``): ``v = w + yll⁻¹ r(x)``, one application of
      the voltage-update map frozen at ``v̂``.

    The magnitude predictor is an affine map of its own, not the magnitude
    of the complex prediction: ``|v̂| + Re(conj(v̂)·dv)/|v̂|``, with ``dv``
    the change of the complex prediction from its value at ``base_x``.
    Evaluating at the base injections reproduces the base voltages.

    The dense coefficients, ``m_wye``/``m_delta`` with offset ``a`` for the
    voltages and ``k_wye``/``k_delta`` with offset ``b`` for the
    magnitudes, are built on first access, for ``to_dict()``; evaluation
    never reads them.
    """

    kind: str

    def __init__(self, base_v, base_x, connection, hv):
        self.base_v = base_v
        self.base_x = base_x
        self._connection = connection
        self._hv = hv

    @property
    def n_phases(self) -> int:
        return self.base_v.size

    @property
    def n_delta(self) -> int:
        return self.base_x.size // 2 - self.n_phases

    def _rhs(self, x):
        """``r(s)`` for the injections ``s`` stacked in ``x``."""
        n, d = self.n_phases, self.n_delta
        r = np.conj((x[:n] + 1j * x[n : 2 * n]) / self.base_v)
        if d:
            pair = np.conj((x[2 * n : 2 * n + d] + 1j * x[2 * n + d :]) / self._hv)
            r = r + self._connection.scatter(pair, n)
        return r

    def _predict(self, x):
        """The complex prediction at ``x`` and its change from the one at ``base_x``."""
        raise NotImplementedError

    def _coefficients(self):
        """The dense ``(m_wye, m_delta, a)``."""
        raise NotImplementedError

    @cached_property
    def _maps(self):
        m_wye, m_delta, a = self._coefficients()
        # d|v|/dx = Re(conj(v) dv/dx) / |v|, applied column-wise to both maps.
        scale = np.conj(self.base_v)[:, None]
        vabs = np.abs(self.base_v)
        k_wye = np.real(scale * m_wye) / vabs[:, None]
        k_delta = np.real(scale * m_delta) / vabs[:, None]
        b = _offset(vabs, k_wye, k_delta, self.base_x)
        return dict(m_wye=m_wye, m_delta=m_delta, a=a, k_wye=k_wye, k_delta=k_delta, b=b)

    m_wye = property(lambda self: self._maps["m_wye"])
    m_delta = property(lambda self: self._maps["m_delta"])
    a = property(lambda self: self._maps["a"])
    k_wye = property(lambda self: self._maps["k_wye"])
    k_delta = property(lambda self: self._maps["k_delta"])
    b = property(lambda self: self._maps["b"])

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self._maps, "base_v": self.base_v, "base_x": self.base_x}


def _offset(value, m_wye, m_delta, x):
    """``value - m_wye @ x_wye - m_delta @ x_delta`` for the stacked ``x``.

    The products go through ``np.einsum``'s own loops, not BLAS ``gemv``,
    whose summation order (and so the last bits) depends on its thread
    count.
    """
    n2 = m_wye.shape[1]
    return value - np.einsum("ij,j", m_wye, x[:n2]) - np.einsum("ij,j", m_delta, x[n2:])


class _TangentModel(LinearModel):
    kind = "fot"

    def __init__(self, base_v, base_x, connection, hv, factor):
        super().__init__(base_v, base_x, connection, hv)
        self._factor = factor

    def _predict(self, x):
        n = self.n_phases
        r = self._rhs(x - self.base_x)
        z = self._factor.solve(np.concatenate([r.real, r.imag]))
        dv = z[:n] + 1j * z[n:]
        return self.base_v + dv, dv

    def _coefficients(self):
        n = self.n_phases
        z = self._factor.inverse()
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

        m_wye = response(1.0 / np.conj(self.base_v), re_unit, im_unit)
        gather = self._connection.gather
        m_delta = response(1.0 / np.conj(self._hv), gather(re_unit), gather(im_unit))
        del re_unit, im_unit
        return m_wye, m_delta, _offset(self.base_v, m_wye, m_delta, self.base_x)


class _FixedPointModel(LinearModel):
    kind = "fpl"

    def __init__(self, base_v, base_x, connection, hv, model, w):
        super().__init__(base_v, base_x, connection, hv)
        self._model = model
        self._w = w

    @cached_property
    def _v_at_base(self):
        return self._w + self._model.factor.solve(self._rhs(self.base_x))

    def _predict(self, x):
        v = self._w + self._model.factor.solve(self._rhs(x))
        return v, v - self._v_at_base

    def _coefficients(self):
        z = self._model.yll_inverse
        p = z * (1.0 / np.conj(self.base_v))[None, :]
        q = self._connection.gather(z) * (1.0 / np.conj(self._hv))[None, :]
        return np.hstack([p, -1j * p]), np.hstack([q, -1j * q]), self._w.copy()


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
    ``(Re dV, Im dV)`` with the sparsity of ``yll``.  The operator is
    factored here, once, and the model keeps the factors: each evaluation
    is one solve with them.  The dense coefficients (for ``to_dict()``)
    are the responses to the ``2n`` unit right-hand sides: the response to
    ``c·e_k`` is ``Re(c)·(response to e_k) + Im(c)·(response to i·e_k)``,
    and every injection coordinate enters the right-hand side as such a
    ``c`` on one phase (wye) or on the two phases of its pair (delta).

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
    conn = model.connection
    n, d = model.n_phases, model.n_delta
    if np.abs(v_hat).min() <= EPS_V:
        raise DegenerateVoltageError("degenerate phase voltage at the base point")
    hv = conn.gather(v_hat)
    if d and np.abs(hv).min() <= EPS_DELTA:
        raise SingularSensitivityError(
            f"phase-pair voltage |Hv| = {np.abs(hv).min():.3e} at the base is not above "
            f"{EPS_DELTA:.0e}; the pair currents have no unique sensitivity"
        )

    # F = conj(diag(f_diag) - H^T diag(ic_delta / hv) H), assembled bus-local.
    f_diag = (conn.scatter(ic_delta, n) - np.conj(i_hat)) / v_hat
    f = conn.bus_block(np.conj(f_diag), np.conj(ic_delta / hv))
    y = model.yll
    op = scipy.sparse.bmat(
        [[y.real - f.real, -y.imag - f.imag], [y.imag - f.imag, y.real + f.real]], format="csc"
    )
    factor = LUFactor(op, SingularSensitivityError, "reduced sensitivity operator")
    return _TangentModel(v_hat, stack_injections(base_inj), conn, hv, factor)


def fpl_linearize(
    model: NetworkModel,
    w_profile: ZeroLoadProfile,
    base_solution: SolveResult,
    base_inj: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> LinearModel:
    """Explicit model from one voltage-update step frozen at the base.

    The model keeps ``model``, the zero-load voltage ``w`` and ``v̂``; each
    evaluation is one solve with ``yll``'s factors, so no inverse is formed.
    The offset is always the zero-load voltage, so the model interpolates
    both the zero-load pair and the base pair.  The dense coefficients (for
    ``to_dict()``) are closed-form column scalings of the cached
    ``Z = yll^-1``: ``Z diag(1/conj(v̂))`` for wye injections and
    ``Z Hᵀ diag(1/(H conj(v̂)))`` for delta injections, with ``Z Hᵀ`` taken
    as column differences.

    Raises
    ------
    DegenerateVoltageError
        A base phase voltage, or a base phase-pair voltage, is not above
        ``EPS_V`` or ``EPS_DELTA``.
    """
    v_hat = checked_base(model, base_solution.v, base_inj, tol_residual)[0]
    conn = model.connection
    if np.abs(v_hat).min() <= EPS_V:
        raise DegenerateVoltageError("degenerate phase voltage at the base point")
    hv = conn.gather(v_hat)
    if model.n_delta and np.abs(hv).min() <= EPS_DELTA:
        raise DegenerateVoltageError("degenerate phase-pair voltage at the base point")
    return _FixedPointModel(v_hat, stack_injections(base_inj), conn, hv, model, w_profile.w)


def evaluate_linear(linmodel: LinearModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both predictors at a stacked real injection vector.

    One sparse solve gives the complex voltage prediction; the magnitude
    prediction is its own affine map around the base,
    ``|v̂| + Re(conj(v̂)·dv)/|v̂|``, not the magnitude of the former.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != linmodel.base_x.shape:
        raise ValueError(f"expected stacked injection vector of length {linmodel.base_x.size}")
    v, dv = linmodel._predict(x)
    v_hat = linmodel.base_v
    vabs = np.abs(v_hat) + np.real(np.conj(v_hat) * dv) / np.abs(v_hat)
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
    rho_d, gam = cert.rho_dagger, cert.margins
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
