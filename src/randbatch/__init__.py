"""Random-batch methods for interacting particle systems.

Random mini-batch force estimation turns the O(N^2) per-step cost of pairwise
interactions into O(pN).  This package provides the batch estimators with
their exact statistics, the RBM family of SDE integrators, the Random Batch
Ewald pipeline for periodic Coulomb systems, random-batch Monte Carlo and
Stein variational samplers, a model zoo with analytic references, and the
diagnostics used to validate them.

A heavy dependency is loaded by the object that needs it, when that object
is built, never at package import: ``scipy.special`` by
``ewald.PeriodicChargeSystem`` and ``models.WealthModel`` (through
``backend.special``), and ``scipy.spatial`` likewise once it is used.
"""

__version__ = "0.1.0"

from .rng import RngStream, SimStreams
from .state import BatchDivision, KernelSpec, ParticleState

# no numba kernel is left; perfbench's environment record reads these, ROADMAP item 6 drops them
HAVE_NUMBA = USE_NUMBA = False

__all__ = [
    "__version__",
    "RngStream",
    "SimStreams",
    "BatchDivision",
    "KernelSpec",
    "ParticleState",
]
