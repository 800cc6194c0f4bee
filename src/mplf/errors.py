"""Exception types raised by the mplf library."""


class MplfError(Exception):
    """Base class for all mplf errors."""


class InputFormatError(MplfError):
    """A network or injection document could not be parsed.

    The message carries the offending field/entry so CLI users can locate
    the problem in their input file.
    """


class ModelError(MplfError):
    """The network description is structurally invalid."""


class SingularModelError(ModelError):
    """The load-bus admittance block is singular (or numerically so)."""


class DegenerateProfileError(ModelError):
    """The zero-load voltage has a (near-)zero phase entry."""


class DegenerateVoltageError(MplfError):
    """A voltage needed in a diagonal inversion is below the guard threshold
    while the corresponding injection is nonzero.

    Attributes
    ----------
    rows : ndarray of bool or None
        For a stack of voltage rows, the rows that degenerate; a single
        voltage vector gives a 0-d ``True``.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class NonConvergenceError(MplfError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    last_v : ndarray or None
        The final iterate.
    step_norms : list of float or None
        Infinity norms of the update at every iteration, for diagnosis.
    """

    def __init__(self, message, last_v=None, step_norms=None):
        super().__init__(message)
        self.last_v = last_v
        self.step_norms = step_norms


class SingularJacobianError(MplfError):
    """The Newton iteration hit a singular Jacobian."""


class InvalidBaseError(MplfError):
    """A certificate/linearization base pair does not satisfy the
    power-flow equations to the required residual tolerance."""


class SingularSensitivityError(MplfError):
    """The sensitivity equations at the base point are singular (a
    degenerate phase-pair voltage or a near-singular reduced operator), so
    the tangent-model coefficients are not uniquely defined there."""


class CertificateRequiredError(MplfError):
    """An operation that is only defined under a passing certificate was
    invoked with a base/target pair that does not certify."""
