"""mplf: load flow for generic multiphase distribution networks.

Fixed-point solution of the AC power-flow equations with mixed wye/delta
constant-power injections, explicit existence/uniqueness/convergence
certificates, and two linear surrogate models with a provable error bound.
"""

from .analysis import (
    ContinuationResult,
    feasible_interval,
    linear_error_sweep,
    recentered_interval,
)
from .certify import (
    Certificate,
    GammaQuantities,
    XiQuantities,
    check_theorem1,
    check_theorem2,
    gamma_quantities,
    xi_norms,
)
from .errors import (
    CertificateRequiredError,
    DegenerateProfileError,
    DegenerateVoltageError,
    InputFormatError,
    InvalidBaseError,
    ModelError,
    MplfError,
    NonConvergenceError,
    SingularJacobianError,
    SingularModelError,
    SingularSensitivityError,
)
from .linearize import (
    LinearModel,
    evaluate_linear,
    fot_linearize,
    fpl_error_bound,
    fpl_linearize,
    stack_injections,
)
from .netmodel import (
    BusSpec,
    ConnectionMatrix,
    LineSpec,
    NetworkModel,
    PhaseIndexMap,
    SlackSpec,
    ZeroLoadProfile,
    assemble_network,
    network_from_file,
    network_from_json,
    write_json,
    zero_load_voltage,
)
from .powerflow import (
    InjectionSet,
    SolveResult,
    fixed_point_map,
    injections_from_file,
    injections_from_json,
    newton_oracle,
    power_flow_residual,
    solve_fixed_point,
)

__version__ = "0.1.0"
