"""Sharp bounds and identification for joint potential-outcome probabilities.

The package compiles experimental/observational contingency data, treatment
exogeneity, and probability- or increment-limited monotonicity assumptions
into linear programs over the joint potential-outcome simplex, solves them
with a built-in two-phase simplex, and, under the unit-increment assumption,
evaluates closed-form point identifications instead.
"""

from .bounds import BoundResult, assemble_constraints, bound
from .compile import (
    ConstraintSet,
    compile_base,
    compile_exogeneity,
    compile_experimental,
    compile_monotonicity,
    compile_observational,
    indicator_mask,
    preset,
)
from .errors import (
    BootstrapFailureError,
    ConfigError,
    ContradictionError,
    InsufficientDataError,
    MiteIncompatibleError,
    PoboundsError,
    SolverFailureError,
    UndefinedConditionalError,
    ValidationError,
)
from .estimate import (
    EndpointSummary,
    ExperimentalSample,
    ObservationalSample,
    ReplicationResult,
    bootstrap,
    empirical_experimental,
    empirical_observational,
    sample_from_truth,
    simulation_study,
)
from .identify import (
    evaluate,
    identify_experimental,
    identify_observational,
    mite_compatibility_report,
)
from .model import (
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    MonotoneTerm,
    ObservationalJoint,
    QuerySpec,
    SparseJointPO,
    validate_distribution,
)
from .queries import (
    bind_condition,
    build_conditional_query,
    build_event_query,
    build_moment_query,
    build_posterior_effect_query,
    collapse_to_objective,
    condition_probability,
)
from .simplex import LpProblem, LpSolution, check_feasible, solve

__version__ = "0.1.0"

__all__ = [
    "AssumptionSet",
    "BoundResult",
    "BootstrapFailureError",
    "ConfigError",
    "ConstraintSet",
    "ContradictionError",
    "Dims",
    "EndpointSummary",
    "ExperimentalMarginals",
    "ExperimentalSample",
    "InsufficientDataError",
    "LpProblem",
    "LpSolution",
    "MiteIncompatibleError",
    "MonotoneTerm",
    "ObservationalJoint",
    "ObservationalSample",
    "PoboundsError",
    "QuerySpec",
    "ReplicationResult",
    "SolverFailureError",
    "SparseJointPO",
    "UndefinedConditionalError",
    "ValidationError",
    "assemble_constraints",
    "bind_condition",
    "bootstrap",
    "bound",
    "build_conditional_query",
    "build_event_query",
    "build_moment_query",
    "build_posterior_effect_query",
    "check_feasible",
    "collapse_to_objective",
    "compile_base",
    "compile_exogeneity",
    "compile_experimental",
    "compile_monotonicity",
    "compile_observational",
    "condition_probability",
    "empirical_experimental",
    "empirical_observational",
    "evaluate",
    "identify_experimental",
    "identify_observational",
    "indicator_mask",
    "mite_compatibility_report",
    "preset",
    "sample_from_truth",
    "simulation_study",
    "solve",
    "validate_distribution",
]
