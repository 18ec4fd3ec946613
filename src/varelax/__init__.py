"""Relaxation-based solving of fixed-endpoint variational problems.

The pipeline: certify the integrand's structure, solve the relaxed
problem (velocity cost replaced by its convex envelope) by dynamic
programming, check the necessary condition along the minimizer, then
split relaxed velocities across their supporting sample points to
recover a trajectory of the original non-convex problem.
"""

from .catalog import (
    NagumoFunction,
    ShapeFunction,
    TimeFactor,
    nagumo_function,
    state_function,
    time_factor,
    velocity_function,
)
from .classify import (
    ClassECertificate,
    HypothesisReport,
    ProbeBox,
    SciCertificate,
    TimeLipschitzReport,
    class_e_certificate,
    default_radius_schedule,
    fstar_lipschitz_check,
    hypothesis_check,
    sci_certificate,
)
from .conditions import DRReport, dubois_reymond_residual, energy_constancy
from .convex import CaratheodoryDecomposition, EpigraphCloud2D, decompose_2d
from .errors import (
    CertificateError,
    DegenerateInputError,
    InfeasibleError,
    NotAutonomousError,
    OutOfDomainError,
    SchemaError,
    VarelaxError,
)
from .families import IntegrandFamily
from .io import LoadedProblem, emit_report, emit_trajectory, parse_problem, read_trajectory
from .problem import DPConfig, Problem, SweepReport, Trajectory
from .reconstruct import (
    CostComparison,
    ReconstructedTrajectory,
    compare_costs,
    decompose_velocities,
    rearrange,
)
from .solve import (
    CoercivityReport,
    coercivity_bound_check,
    lagrangian_sweep,
    nagumo_penalized_solve,
    solve_relaxed,
    value_sweep,
)

__version__ = "0.1.0"
