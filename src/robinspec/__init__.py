"""robinspec: lowest Robin eigenvalues, optimal boundary coefficients, and
inradius bounds on intervals and planar domains, with a reproducible CLI."""

from . import assembly, bounds, eigensolve, exact1d, geometry, mixed_dn, robin
from .assembly import Operators, SigmaField
from .eigensolve import EigResult
from .errors import (
    ArgumentError,
    AssemblyError,
    ConvergenceError,
    GeometryError,
    MatrixError,
    RangeError,
    ResolutionError,
    RobinspecError,
    UnsupportedDomainError,
)
from .geometry import DomainSpec, GammaSelect, Mesh, build_mesh, refine

__version__ = "0.1.0"

__all__ = [
    "assembly", "bounds", "eigensolve", "exact1d", "geometry", "mixed_dn",
    "robin",
    "Operators", "SigmaField", "EigResult", "DomainSpec", "GammaSelect",
    "Mesh", "build_mesh", "refine",
    "RobinspecError", "ArgumentError", "AssemblyError", "ConvergenceError",
    "GeometryError", "MatrixError", "RangeError", "ResolutionError",
    "UnsupportedDomainError",
    "__version__",
]
