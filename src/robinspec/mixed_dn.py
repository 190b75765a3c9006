"""Mixed Dirichlet-Neumann ground state and the optimal boundary coefficient.

The pipeline: pin the solution to zero on gamma, compute the ground
eigenvalue of the pinned Laplacian, apply the resolvent at a spectral
parameter to the constant source, invert the resulting mass curve for a
prescribed boundary mass, and recover the optimal coefficient from the
variational boundary flux on gamma.  The recovered total mass reproduces
the prescribed one to root-finder tolerance, and the minimiser built from
the resolvent nearly diagonalizes the recovered Robin pencil, so the
cross-checks below hold far inside discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import assembly, robin
from .assembly import SigmaField
from .eigensolve import smallest_eigs, solve_spd
from .errors import ArgumentError, RangeError
from .geometry import Mesh, gamma_nodes

_XI_MARGIN = 1e-9
_MASS_RTOL = 1e-10
_MAX_NEWTON = 80


@dataclass(frozen=True, eq=False)
class MixedGroundState:
    """Ground eigenpair of the Laplacian pinned to zero on gamma.

    eigenfunction is nodal over the full mesh (exact zeros on gamma nodes),
    positive, L2-normalized; integral is its total integral.
    """

    value: float
    eigenfunction: np.ndarray
    integral: float


@dataclass(frozen=True, eq=False)
class OptimalSigma:
    """Optimal boundary coefficient of a given mass and its diagnostics.

    sigma is a nodal field supported on gamma, minimizer the associated
    eigenfunction (identically 1 on gamma), mass_defect the error in the
    recovered boundary mass, lambda_check the eigenvalue recomputed from
    the Robin pencil with the recovered coefficient.
    """

    mass: float
    value: float
    resolvent: np.ndarray
    sigma: SigmaField
    minimizer: np.ndarray
    mass_defect: float
    lambda_check: float
    ground: MixedGroundState
    sigma_min_raw: float


class MixedProblem:
    """The problem pinned on gamma for one mesh: the mesh's shared operators
    restricted to the free nodes, and the ground state, computed once."""

    def __init__(self, mesh: Mesh, tol: float = 1e-10, seed: int = 42):
        ops = assembly.operators(mesh)
        self.mesh = mesh
        self.tol = tol
        self.seed = seed
        self.stiffness = ops.stiffness
        self.mass_matrix = ops.mass
        self.volume = ops.volume
        self.fixed = gamma_nodes(mesh)
        self.free, self.k_ff, self.m_ff = ops.restrict(self.fixed)
        self.load = ops.load[self.free]
        res = smallest_eigs(self.k_ff, self.m_ff, k=1, tol=tol, seed=seed)
        phi = np.zeros(mesh.num_nodes)
        phi[self.free] = res.vectors[:, 0]
        integral = float(np.ones(len(phi)) @ (self.mass_matrix @ phi))
        if integral < 0.0:
            phi, integral = -phi, -integral
        self.ground = MixedGroundState(float(res.values[0]), phi, integral)

    def _check_xi(self, xi: float) -> None:
        e1 = self.ground.value
        if not 0.0 < xi < e1 * (1.0 - _XI_MARGIN):
            raise RangeError(
                f"spectral parameter must lie in (0, {e1:.6g}), got {xi}")

    def resolvent_one(self, xi: float) -> np.ndarray:
        """Solve (K - xi M) u = M 1 on free nodes; zero on gamma nodes."""
        self._check_xi(xi)
        u_free = solve_spd(self.k_ff - xi * self.m_ff, self.load)
        u = np.zeros(self.mesh.num_nodes)
        u[self.free] = u_free
        return u

    def mass_function(self, xi: float) -> float:
        return self.mass_function_with_derivative(xi)[0]

    def mass_function_with_derivative(self, xi: float):
        """Mass curve xi^2 int(U) + xi |Omega|, its (always positive)
        derivative, and the resolvent U both come from."""
        u = self.resolvent_one(xi)
        int_u = float(np.ones(len(u)) @ (self.mass_matrix @ u))
        norm2_u = float(u @ (self.mass_matrix @ u))
        f = xi * xi * int_u + xi * self.volume
        fp = 2.0 * xi * int_u + xi * xi * norm2_u + self.volume
        return f, fp, u

    def optimal_eigenvalue(self, mass: float) -> float:
        """Invert the mass curve: Newton safeguarded by bisection inside
        (0, E1 (1 - 1e-9)), stopping at |F(xi) - m| <= 1e-10 max(m, 1)."""
        return self._invert_mass_curve(mass)[0]

    def _invert_mass_curve(self, mass: float):
        """(xi, U): the root of the mass curve and the resolvent at it, or
        None in place of U when the step cap ends the loop on a new xi."""
        if mass <= 0:
            raise ArgumentError(f"mass must be positive, got {mass}")
        e1 = self.ground.value
        lo = 0.0
        hi = e1 * (1.0 - _XI_MARGIN)
        # closed-form lower bound for the optimum: a guaranteed bracket start
        xi = mass * e1 / (mass + self.volume * e1)
        xi = min(max(xi, hi * 1e-12), hi)
        target = _MASS_RTOL * max(mass, 1.0)
        for _ in range(_MAX_NEWTON):
            f, fp, u = self.mass_function_with_derivative(xi)
            err = f - mass
            if abs(err) <= target:
                return xi, u
            if err < 0:
                lo = xi
            else:
                hi = xi
            step = xi - err / fp
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if step == xi:
                return xi, u
            xi = step
        return xi, None

    def optimal_sigma(self, mass: float, recovery: str = "lumped") -> OptimalSigma:
        """Optimal coefficient of the given mass by variational flux recovery.

        The flux on gamma satisfies W g = (K U - xi M U - M 1)|gamma with W
        the gamma-edge mass matrix; the coefficient is -xi g.  By default W
        is lumped (divide by the hat-function boundary integrals), which
        keeps the recovered field nonnegative at corners and reproduces the
        prescribed mass exactly; ``recovery="consistent"`` solves the full
        tridiagonal system instead (sharper in smooth regions, but it
        overshoots negative at corners where the true flux vanishes).
        """
        if recovery not in ("lumped", "consistent"):
            raise ArgumentError(f"unknown recovery mode {recovery!r}")
        xi, u = self._invert_mass_curve(mass)
        if u is None:
            u = self.resolvent_one(xi)
        ones = np.ones(self.mesh.num_nodes)
        residual = (self.stiffness @ u - xi * (self.mass_matrix @ u)
                    - self.mass_matrix @ ones)
        w = assembly.gamma_edge_mass(self.mesh)
        g_idx = self.fixed
        w_gg = w[g_idx][:, g_idx]
        if recovery == "consistent":
            flux = solve_spd(w_gg.tocsc(), residual[g_idx])
        else:
            weights = np.asarray(w_gg.sum(axis=1)).ravel()
            flux = residual[g_idx] / weights
        sigma_vals = np.zeros(self.mesh.num_nodes)
        sigma_vals[g_idx] = -xi * flux
        sigma_min_raw = float(sigma_vals[g_idx].min())
        sigma_vals = np.maximum(sigma_vals, 0.0)
        sigma = SigmaField.nodal(sigma_vals, support="gamma")
        recovered_mass = float(ones @ (assembly.assemble_boundary_mass(self.mesh, sigma) @ ones))
        minimizer = xi * u + 1.0
        check = robin.lowest_eigenvalue(self.mesh, sigma, tol=self.tol, seed=self.seed)
        return OptimalSigma(mass=mass, value=xi, resolvent=u, sigma=sigma,
                            minimizer=minimizer, mass_defect=abs(recovered_mass - mass),
                            lambda_check=check.value, ground=self.ground,
                            sigma_min_raw=sigma_min_raw)


# ---------------------------------------------------------------------------
# Maximality verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalityTrial:
    eigenvalue: float
    quotient_at_minimizer: float
    boundary_term: float
    violation: bool


@dataclass(frozen=True, eq=False)
class MaximalityReport:
    mass: float
    optimal_value: float
    quotient_optimal: float
    trials: List[MaximalityTrial]
    violations: int
    passed: bool


def _rayleigh(kmat, bmat, mmat, u) -> float:
    return float((u @ (kmat @ u) + u @ (bmat @ u)) / (u @ (mmat @ u)))


def verify_maximality(mesh: Mesh, mass: float, trials: int = 20,
                      tol_fem: float = 1e-6, seed: int = 42) -> MaximalityReport:
    """Randomized check that no admissible coefficient beats the optimum.

    Draws nonnegative nodal perturbations of the optimal coefficient on
    gamma, rescales each to the prescribed mass, and requires the perturbed
    eigenvalue to stay below the optimal one (up to tol_fem).  Also records
    the quotient of the optimal minimiser under each perturbed coefficient,
    which is invariant because the minimiser equals 1 on gamma.
    """
    prob = MixedProblem(mesh, seed=seed)
    opt = prob.optimal_sigma(mass)
    kmat, mmat = prob.stiffness, prob.mass_matrix
    b_opt = assembly.assemble_boundary_mass(mesh, opt.sigma)
    u_m = opt.minimizer
    q_opt = _rayleigh(kmat, b_opt, mmat, u_m)
    rng = np.random.default_rng(seed)
    ones = np.ones(mesh.num_nodes)
    rows: List[MaximalityTrial] = []
    violations = 0
    base = np.asarray(opt.sigma.values, dtype=float)
    g_idx = prob.fixed
    for _ in range(trials):
        factor = rng.uniform(0.2, 1.8, size=len(g_idx))
        vals = np.zeros(mesh.num_nodes)
        vals[g_idx] = base[g_idx] * factor
        trial_sigma = SigmaField.nodal(vals, support="gamma")
        b_trial = assembly.assemble_boundary_mass(mesh, trial_sigma)
        trial_mass = float(ones @ (b_trial @ ones))
        vals = vals * (mass / trial_mass)
        trial_sigma = SigmaField.nodal(vals, support="gamma")
        b_trial = assembly.assemble_boundary_mass(mesh, trial_sigma)
        lam = robin.lowest_eigenvalue(mesh, trial_sigma, seed=seed).value
        q_trial = _rayleigh(kmat, b_trial, mmat, u_m)
        boundary_term = float(u_m @ (b_trial @ u_m))
        bad = lam > opt.lambda_check + tol_fem
        violations += bad
        rows.append(MaximalityTrial(lam, q_trial, boundary_term, bool(bad)))
    return MaximalityReport(mass=mass, optimal_value=opt.value,
                            quotient_optimal=q_opt, trials=rows,
                            violations=violations, passed=violations == 0)
