"""Symplectic Gauss collocation with per-step energy-conserving tuning.

The package builds the s-stage Gauss-Legendre tableau, perturbs it inside its
symplecticity class by a scalar parameter, and tunes that parameter at every
step of an integration so the computed trajectory conserves the Hamiltonian
exactly (to a prescribed tolerance) while keeping the full order 2s of the
underlying Gauss method and the automatic conservation of quadratic
invariants.
"""

from .tableau import (
    ButcherTableau,
    LegendreBasis,
    PerturbationSpec,
    QuadratureRule,
    affine_parts,
    butcher,
    gauss_core,
    gauss_quadrature,
    legendre_basis,
    subdiagonal_coupling,
)
from .problems import (
    HamiltonianSystem,
    InitialCondition,
    Invariant,
    SingularPotentialError,
    get_problem,
    harmonic,
    henon_heiles,
    kepler,
    kepler_reference,
    quartic,
)
from .stepper import StepConfig, StepResult, step
from .conserve import (
    AlphaSearchConfig,
    AlphaSolveRecord,
    NoRootError,
    StageSolveError,
    energy_defect,
    level_grid,
    solve_alpha,
)
from .experiments import (
    ConvergenceRow,
    DefectOrderReport,
    IntegrationError,
    RunSpec,
    TrajectoryRecord,
    convergence_table,
    energy_defect_order,
    integrate,
    reference_state,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSearchConfig",
    "AlphaSolveRecord",
    "ButcherTableau",
    "ConvergenceRow",
    "DefectOrderReport",
    "HamiltonianSystem",
    "InitialCondition",
    "IntegrationError",
    "Invariant",
    "LegendreBasis",
    "NoRootError",
    "PerturbationSpec",
    "QuadratureRule",
    "RunSpec",
    "SingularPotentialError",
    "StageSolveError",
    "StepConfig",
    "StepResult",
    "TrajectoryRecord",
    "affine_parts",
    "butcher",
    "convergence_table",
    "energy_defect",
    "energy_defect_order",
    "gauss_core",
    "gauss_quadrature",
    "get_problem",
    "harmonic",
    "henon_heiles",
    "integrate",
    "kepler",
    "kepler_reference",
    "legendre_basis",
    "level_grid",
    "quartic",
    "reference_state",
    "solve_alpha",
    "step",
    "subdiagonal_coupling",
    "__version__",
]
