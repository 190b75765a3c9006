"""Lowest Robin and Dirichlet eigenvalues, refinement levels, and the
shrinking-support sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from . import assembly, geometry
from .assembly import SigmaField
# smallest_eigs is unused here, but the benchmark's tracer patches it as
# robin.smallest_eigs
from .eigensolve import EigResult, NearbyPencils, lowest_alone, smallest_eigs
from .errors import ArgumentError, ResolutionError
from .geometry import GAMMA, Mesh


@dataclass(frozen=True, eq=False)
class RobinResult:
    """Lowest eigenpair of the Robin problem on one mesh.

    The eigenfunction is L2-normalized and sign-flipped to positive mean;
    residual is the Euler-Lagrange defect ||(K + B - lambda M) x||_2.
    """

    value: float
    eigenfunction: np.ndarray
    residual: float


def lowest_eigenvalue(mesh: Mesh, sigma: SigmaField) -> RobinResult:
    """Smallest eigenvalue of (K + B(sigma)) x = lambda M x with minimiser,
    solved alone on the mesh's hierarchy (a family of one pencil)."""
    ops = assembly.operators(mesh)
    b = assembly.assemble_boundary_mass(mesh, sigma)
    return _robin_result(mesh, NearbyPencils(mesh.dim).lowest(ops.stiffness + b, ops.mass,
                                                              assembly.hierarchy(mesh)))


def _robin_result(mesh: Mesh, res: EigResult) -> RobinResult:
    psi = res.vector.copy()
    if float(np.ones(len(psi)) @ (assembly.operators(mesh).mass @ psi)) < 0.0:
        psi = -psi
    return RobinResult(res.value, psi, res.residual)


def refinement_levels(mesh: Mesh, sigma: SigmaField,
                      levels: int) -> Iterator[Tuple[Mesh, RobinResult]]:
    """(mesh, lowest Robin eigenpair) on the top `levels` levels of mesh's
    hierarchy, coarsest first and mesh itself last: one chain of `NearbyPencils`
    given each level's prolongation, with sigma on every level.  The first
    level is solved on its own LU.  sigma must fit every level: a constant
    field, or a per-facet one on an interval, whose refinements keep its
    two facets.  Each value is the one `lowest_eigenvalue` gives on its
    mesh, up to the eigensolver's gate."""
    hierarchy = []
    for _ in range(levels):
        hierarchy.append(mesh)
        mesh = mesh.coarse[0]
    chain = NearbyPencils(mesh.dim)
    for mesh in reversed(hierarchy):
        ops = assembly.operators(mesh)
        b = assembly.assemble_boundary_mass(mesh, sigma)
        res = chain.lowest(ops.stiffness + b, ops.mass, (), mesh.coarse[1])
        yield mesh, _robin_result(mesh, res)


def dirichlet_eigenvalue(mesh: Mesh, fixed: np.ndarray) -> float:
    """Lowest eigenvalue with the value pinned to zero on the fixed nodes,
    solved as `mixed_dn.MixedProblem` solves its ground state: on the
    hierarchy restricted to the free nodes above the coarse size."""
    ops = assembly.operators(mesh)
    free, k_ff, m_ff = ops.restrict(fixed)
    return lowest_alone(k_ff, m_ff, assembly.hierarchy(mesh, free))[0].value


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    radius: float
    support_length: float
    coefficient: float
    eigenvalue: float


def concentration_sweep(mesh: Mesh, mass: float, point, n_max: int,
                        seed: int = 42) -> List[ConcentrationRow]:
    """Eigenvalues for coefficients of fixed mass concentrating at a point.

    Step n places the constant mass/length(support) on the gamma edges lying
    entirely inside the ball of radius 2^-n around the given boundary point.
    The steps form one coefficient family.  Raises ResolutionError once no
    edge fits inside the ball.  seed is unused: no step draws at random.
    """
    if mesh.dim != 2:
        raise ArgumentError("concentration sweep requires a planar mesh")
    if mass <= 0:
        raise ArgumentError("mass must be positive")
    pt = np.asarray(point, dtype=float)
    d0 = np.linalg.norm(mesh.nodes[mesh.boundary[:, 0]] - pt, axis=1)
    d1 = np.linalg.norm(mesh.nodes[mesh.boundary[:, 1]] - pt, axis=1)
    lengths = geometry.boundary_edge_lengths(mesh)
    on_gamma = mesh.boundary_markers == GAMMA
    ops = assembly.operators(mesh)
    levels = assembly.hierarchy(mesh)
    family = NearbyPencils(mesh.dim)
    rows: List[ConcentrationRow] = []
    for n in range(1, n_max + 1):
        r = 2.0 ** (-n)
        support = on_gamma & (d0 <= r + 1e-12) & (d1 <= r + 1e-12)
        total = float(lengths[support].sum())
        if total == 0.0:
            raise ResolutionError(
                f"no gamma edge fits inside radius {r}: refine the mesh")
        alpha = mass / total
        values = np.where(support, alpha, 0.0)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.per_edge(values))
        lam = family.lowest(ops.stiffness + b, ops.mass, levels).value
        rows.append(ConcentrationRow(n, r, total, alpha, lam))
    return rows
