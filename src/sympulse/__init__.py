"""Symplectic Gauss collocation with per-step energy-conserving tuning.

The package builds the s-stage Gauss-Legendre tableau, perturbs it inside its
symplecticity class by a scalar parameter, and tunes that parameter at every
step of an integration so the computed trajectory conserves the Hamiltonian
exactly (to a prescribed tolerance) while keeping the full order 2s of the
underlying Gauss method and the automatic conservation of quadratic
invariants.

Each module's `__all__` is what the package exports from it.
"""

from . import conserve, experiments, problems, stepper, tableau
from .tableau import *
from .problems import *
from .stepper import *
from .conserve import *
from .experiments import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += tableau.__all__
__all__ += problems.__all__
__all__ += stepper.__all__
__all__ += conserve.__all__
__all__ += experiments.__all__
