"""Lowest Robin eigenvalue, Robin spectra, and the shrinking-support sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import assembly, geometry
from .assembly import SigmaField
from .eigensolve import CoefficientFamily, EigResult, smallest_eigs
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
    level: int


def lowest_eigenvalue(mesh: Mesh, sigma: SigmaField, tol: float = 1e-10,
                      seed: int = 42, factor=None) -> RobinResult:
    """Smallest eigenvalue of (K + B(sigma)) x = lambda M x with minimiser.

    factor is a `shifted_factor` pair of that pencil to reuse."""
    res = spectrum(mesh, sigma, 1, tol=tol, seed=seed, factor=factor)
    psi = res.vectors[:, 0].copy()
    if float(np.ones(len(psi)) @ (assembly.operators(mesh).mass @ psi)) < 0.0:
        psi = -psi
    return RobinResult(float(res.values[0]), psi, float(res.residuals[0]), mesh.level)


def spectrum(mesh: Mesh, sigma: SigmaField, k: int, tol: float = 1e-10,
             seed: int = 42, factor=None) -> EigResult:
    """First k Robin eigenpairs; factor as in `lowest_eigenvalue`."""
    ops = assembly.operators(mesh)
    b = assembly.assemble_boundary_mass(mesh, sigma)
    return smallest_eigs(ops.stiffness + b, ops.mass, k=k, tol=tol, seed=seed,
                         factor=factor, order=ops.order)


def dirichlet_spectrum(mesh: Mesh, k: int, tol: float = 1e-10, seed: int = 42) -> EigResult:
    """First k eigenvalues with the value pinned to zero on the whole boundary."""
    ops = assembly.operators(mesh)
    free, k_ff, m_ff = ops.restrict(geometry.boundary_nodes(mesh))
    return smallest_eigs(k_ff, m_ff, k=k, tol=tol, seed=seed, order=ops.free_order(free))


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    radius: float
    support_length: float
    coefficient: float
    eigenvalue: float


def concentration_sweep(mesh: Mesh, mass: float, point, n_max: int,
                        tol: float = 1e-10, seed: int = 42) -> List[ConcentrationRow]:
    """Eigenvalues for coefficients of fixed mass concentrating at a point.

    Step n places the constant mass/length(support) on the gamma edges lying
    entirely inside the ball of radius 2^-n around the given boundary point.
    The steps form one coefficient family.  Raises ResolutionError once no
    edge fits inside the ball.
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
    family = CoefficientFamily(ops.mass, order=ops.order, tol=tol, seed=seed)
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
        lam = float(family.lowest(ops.stiffness + b).values[0])
        rows.append(ConcentrationRow(n, r, total, alpha, lam))
    return rows
