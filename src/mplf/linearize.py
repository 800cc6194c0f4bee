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

from .certify import check_theorem2, theorem1_sides, xi_norms
from .errors import (
    CertificateRequiredError,
    SingularSensitivityError,
)
from .netmodel import NetworkModel, ZeroLoadProfile, check_profile
from .powerflow import (
    BASE_RESIDUAL_TOL,
    EPS_V,
    InjectionSet,
    SolveResult,
    _check_degenerate,
    _tangent_factor,
    _tangent_solve,
    _UpdateKernel,
    checked_base,
)


def stack_injections(inj: InjectionSet) -> np.ndarray:
    """Stack an injection set as the real vector (Re wye, Im wye, Re delta,
    Im delta); a stack of injection rows gives a stack of such vectors."""
    return np.concatenate(
        [inj.s_wye.real, inj.s_wye.imag, inj.s_delta.real, inj.s_delta.imag], axis=-1
    )


class LinearModel:
    """Affine voltage and magnitude predictors around a base operating point.

    A model is held as an operator, not as matrices, and evaluates
    injections (an ``InjectionSet``, one row or a stack of rows) through
    the update map's kernel (``powerflow._UpdateKernel``) at the base
    voltages ``v̂``, whose right-hand side is
    ``r(s) = conj(s_Y / v̂) + Hᵀ conj(s_δ / Hv̂)``:

    * FOT (``kind == "fot"``): ``v = v̂ + dV``, with ``dV`` from the reduced
      real ``2n`` operator applied to ``r(s − ŝ)``, the right-hand side of
      a kernel built on the change of the injections from the base ``ŝ``;
    * FPL (``kind == "fpl"``): ``v = w + yll⁻¹ r(s)``, the kernel for ``s``
      applied at ``v̂``: one step of the voltage-update map frozen there.

    The magnitude predictor is an affine map of its own, not the magnitude
    of the complex prediction: ``|v̂| + Re(conj(v̂)·dv)/|v̂|``, with ``dv``
    the change of the complex prediction from its value at ``ŝ``.
    Evaluating at the base injections reproduces the base voltages.

    The dense coefficients, ``m_wye``/``m_delta`` with offset ``a`` for the
    voltages and ``k_wye``/``k_delta`` with offset ``b`` for the
    magnitudes, act on the stacked real injection vector ``x`` (see
    ``stack_injections``; ``base_x`` is ``ŝ``'s).  They are built on first
    access, for ``to_dict()``; evaluation never reads them.
    """

    kind: str

    def __init__(self, model, base_v, base_inj):
        self._model = model
        self.base_v = base_v
        self._base_inj = InjectionSet(base_inj.s_wye.copy(), base_inj.s_delta.copy())
        self.base_x = stack_injections(base_inj)

    @property
    def n_phases(self) -> int:
        return self.base_v.size

    @property
    def n_delta(self) -> int:
        return self._model.n_delta

    def _voltages(self, inj: InjectionSet):
        """The complex voltage prediction at the injections ``inj``, or at
        each row of a stack of them: one sparse solve with a right-hand side
        per row."""
        raise NotImplementedError

    @cached_property
    def _v_at_base(self):
        return self._voltages(self._base_inj)

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

    def __init__(self, model, base_v, base_inj, factor):
        super().__init__(model, base_v, base_inj)
        self._factor = factor

    def _voltages(self, inj):
        r = _UpdateKernel(self._model, inj - self._base_inj).rhs(self.base_v)
        v = _tangent_solve(self._factor, r)
        v += self.base_v
        return v

    def _coefficients(self):
        # Complex dV responses (as columns) to a real (re_unit) and an
        # imaginary (im_unit) unit right-hand side on each phase.
        eye = np.eye(self.n_phases)
        re_unit = _tangent_solve(self._factor, eye).T
        im_unit = _tangent_solve(self._factor, 1j * eye).T
        del eye

        def response(c, re_cols, im_cols):
            # dV for the injections (Re x, Im x) whose right-hand sides are (c, -i c).
            return np.hstack(
                [re_cols * c.real + im_cols * c.imag, re_cols * c.imag - im_cols * c.real]
            )

        m_wye = response(1.0 / np.conj(self.base_v), re_unit, im_unit)
        gather = self._model.connection.gather
        m_delta = response(1.0 / np.conj(gather(self.base_v)), gather(re_unit), gather(im_unit))
        del re_unit, im_unit
        return m_wye, m_delta, _offset(self.base_v, m_wye, m_delta, self.base_x)


class _FixedPointModel(LinearModel):
    kind = "fpl"

    def _voltages(self, inj):
        return _UpdateKernel(self._model, inj)(self.base_v)

    def _coefficients(self):
        z = self._model.yll_inverse
        p = z * (1.0 / np.conj(self.base_v))[None, :]
        gather = self._model.connection.gather
        q = gather(z) * (1.0 / np.conj(gather(self.base_v)))[None, :]
        return np.hstack([p, -1j * p]), np.hstack([q, -1j * q]), self._model.zero_load.w.copy()


def fot_linearize(
    model: NetworkModel,
    base_solution: SolveResult,
    base_inj: InjectionSet,
    tol_residual: float = BASE_RESIDUAL_TOL,
) -> LinearModel:
    """Tangent (first-order) model at a solved base point.

    The model is the balance equations' tangent operator at the base
    (``powerflow._tangent_factor``, which derives it and its bus-local
    ``F``): the real ``2n`` form on ``(Re dV, Im dV)`` of

        yll·dV − F·conj(dV) = conj(ds_Y / v̂) + Hᵀ conj(ds_δ / Hv̂),

    with the sparsity of ``yll``.  The operator is
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
        A base phase-pair voltage ``|Hv̂|`` is not above ``EPS_V`` (the
        pair rows cannot determine ``dĪ``), or the reduced operator's
        condition estimate is below ``RCOND_FLOOR``: the tangent model is not
        uniquely defined at this base (neither hypothesis holds).
    """
    v_hat, ic_delta, i_hat = checked_base(model, base_solution.v, base_inj, tol_residual)
    _check_degenerate(v_hat, True, "degenerate phase voltage at the base point")
    hv = model.connection.gather(v_hat)
    if (smallest := np.abs(hv).min(initial=np.inf)) <= EPS_V:
        raise SingularSensitivityError(
            f"phase-pair voltage |Hv| = {smallest:.3e} at the base is not above "
            f"{EPS_V:.0e}; the pair currents have no unique sensitivity"
        )
    factor = _tangent_factor(
        model, v_hat, ic_delta, i_hat, SingularSensitivityError, "reduced sensitivity operator"
    )
    return _TangentModel(model, v_hat, base_inj, factor)


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
        ``EPS_V``.
    ValueError
        ``w_profile`` was built for another model.
    """
    check_profile(model, w_profile)
    v_hat = checked_base(model, base_solution.v, base_inj, tol_residual)[0]
    _check_degenerate(v_hat, True, "degenerate phase voltage at the base point")
    hv = model.connection.gather(v_hat)
    _check_degenerate(hv, True, "degenerate phase-pair voltage at the base point")
    return _FixedPointModel(model, v_hat, base_inj)


def evaluate_linear(linmodel: LinearModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both predictors at a stacked real injection vector, or at
    each row of a stack of them.

    ``x`` of shape ``(2n+2d,)`` gives two ``(n,)`` arrays, and a stack of
    ``k`` rows, shape ``(k, 2n+2d)``, gives two ``(k, n)`` arrays; each row
    equals, bit for bit, the evaluation at that row alone.  ``x`` becomes
    injections once, here, and one sparse solve with ``k`` right-hand sides
    gives the complex voltage predictions; the magnitude prediction is its
    own affine map around the base, ``|v̂| + Re(conj(v̂)·dv)/|v̂|``, not the
    magnitude of the former, with ``dv`` the change of the voltage
    prediction from its value at the base injections.  An ``x`` of another
    shape, a complex ``x``, or one with an entry that is not finite raises
    ``ValueError``.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("x must be real")
    x = x.astype(float, copy=False)
    if x.ndim not in (1, 2) or x.shape[-1] != linmodel.base_x.size:
        raise ValueError(
            f"expected a stacked injection vector of length {linmodel.base_x.size}, "
            f"or a stack of them, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    n, d = linmodel.n_phases, linmodel.n_delta
    inj = InjectionSet(
        x[..., :n] + 1j * x[..., n : 2 * n], x[..., 2 * n : 2 * n + d] + 1j * x[..., 2 * n + d :]
    )
    v = linmodel._voltages(inj)
    v_hat = linmodel.base_v
    vabs = np.abs(v_hat) + np.real(np.conj(v_hat) * (v - linmodel._v_at_base)) / np.abs(v_hat)
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
    rho_d, xi_t = cert.rho_dagger, xi_norms(model, w_profile, target)
    # Theorem 1's contraction side at the tight containment radius.
    q = theorem1_sides(cert.margins, rho_d, cert.xi_change, cert.xi_base, xi_t)[1]
    if not q < 1.0:
        raise CertificateRequiredError(
            f"contraction coefficient q = {q:.6g} is not below one; no bound available"
        )
    bound = q * rho_d * float(w_profile.w_abs.max())
    return bound, q
