"""Complex-Lagrangian classical mechanics.

A Lagrangian here is a complex-valued function L + iM of real coordinates,
velocities, and time. The package parses such Lagrangians from a small
expression DSL, derives the momentum map, force map, and mass matrix, decides
whether the dynamics are second-order (regular) or a first-order closure
(degenerate), integrates trajectories with fixed-step RK4, and numerically
verifies the structural identities the formulation rests on: the stationarity
of the real part of the action, the Noether charge, gauge equivalence of
Lagrangians, the Lie derivative of the Lagrangian one-form, and the
correspondence to a complex Hamiltonian flow.
"""

from .codegen import compile_expr
from .exprcore import (
    DomainError,
    Expr,
    ExprSyntaxError,
    UnboundSymbol,
    UnknownFunction,
    diff,
    evaluate,
    parse,
    simplify,
    to_source,
)
from .lagrangian import (
    ComplexLagrangian,
    ClosureConsistencyWarning,
    ClosureInconsistent,
    DegenerateWithoutClosure,
    EomSystem,
    MechState,
    SingularMass,
    accel,
    derive_eom,
    force,
    momentum,
    to_complex_phase,
    wirtinger,
    wirtingers,
)
from .dynamics import (
    IntegratorConfig,
    StepBlowUp,
    Trajectory,
    integrate,
    integrate_hamiltonian,
    sampled_path,
    to_csv,
)
from .variational import (
    BadSampling,
    VariationField,
    action,
    charge_series,
    first_variation,
    noether_charge,
    pair,
    real_inner,
)
from .equivalence import (
    EquivalenceReport,
    Ffunction,
    GaugeDependsOnVelocity,
    LagrangianPair,
    eom_equivalent,
    gauge_add,
    integrability_residual,
)
from .geometry import OneForm, lie_theta, lie_theta_cartan, rhs_pairing_form, theta
from .hamiltonian import (
    DegenerateJacobian,
    HamiltonianField,
    InversionFailure,
    PhaseState,
    UnsupportedDimension,
    flow_field,
    invert_velocity,
    legendre_H,
)
from .sampling import DEFAULT_SEED, Lcg, latin_hypercube, sample_states
from .scenario import Scenario, ScenarioError
from .corpus import bundled_corpus, corpus_scenario
from .suites import CheckLine, SuiteResult, format_report, run_suites

__version__ = "0.1.0"
