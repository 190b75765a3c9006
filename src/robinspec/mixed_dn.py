"""Mixed Dirichlet-Neumann ground state and the optimal boundary coefficient.

The pipeline: pin the solution to zero on gamma, compute the ground
eigenvalue of the pinned Laplacian, apply the resolvent at a spectral
parameter to the constant source, invert the resulting mass curve for a
prescribed boundary mass, and recover the optimal coefficient from the
variational boundary flux on gamma.  A Galerkin model of the resolvent
proposes each spectral parameter, and each true resolvent solve joins it
(`MixedProblem`).  Above the coarse size the pinned pencil runs on its own
hierarchy, where one coarse LU and its V-cycle serve the ground eigensolve
and every resolvent solve, and the model starts from the ground state alone
(at most 3 solves per mass); at or below it the LU of the ground
eigensolve also seeds the model with its Krylov vectors, and each mass
takes one resolvent solve, conjugate gradients on an LU of K - xi M, as a
rule.  The recovered total mass reproduces the prescribed one to root-finder tolerance, and the
minimiser built from the resolvent nearly diagonalizes the recovered Robin
pencil, so the cross-checks below hold far inside discretization error.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.linalg

from . import assembly
from .assembly import SigmaField
from .eigensolve import NearbyPencils, lowest_alone, on_hierarchy, solve_spd
from .errors import ArgumentError, RangeError
from .geometry import Mesh, gamma_nodes

_XI_MARGIN = 1e-9
# a move of xi below this, relative, is a few ulps: a model root that moves
# xi no further takes no resolvent solve
_XI_ROUNDOFF = 1e-15
_MASS_RTOL = 1e-10
_MAX_NEWTON = 80
_KRYLOV_STEPS = 20
_KRYLOV_BREAKDOWN = 1e-12
_MAXIMALITY_SLACK = 1e-6


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


def optimal_lower_bound(mass: float, e1: float, volume: float) -> float:
    """Lower bound m E1 / (m + |Omega| E1) on the optimal eigenvalue."""
    if mass <= 0 or e1 <= 0 or volume <= 0:
        raise ArgumentError("mass, e1, volume must be positive")
    return mass * e1 / (mass + volume * e1)


def optimal_upper_bound(mass: float, e1: float, volume: float,
                        phi_integral: float) -> float:
    """Upper bound from the interpolated test family.

    phi_integral is the integral of the normalized pinned ground state; it
    must lie in (0, sqrt(volume)].  With phi_integral = sqrt(volume) the
    bound collapses onto the lower bound.
    """
    if mass <= 0 or e1 <= 0 or volume <= 0:
        raise ArgumentError("mass, e1, volume must be positive")
    if not 0.0 < phi_integral <= math.sqrt(volume) * (1.0 + 1e-12):
        raise ArgumentError(
            f"phi_integral must lie in (0, sqrt(volume)], got {phi_integral}")
    disc = (volume * e1 - mass) ** 2 + 4.0 * phi_integral ** 2 * mass * e1
    return 2.0 * mass * e1 / (mass + volume * e1 + math.sqrt(disc))


class _ResolventModel:
    """Galerkin model of the pinned resolvent U(xi) = (K - xi M)^-1 b on the
    free nodes, over a space that grows with its own samples: rational
    Krylov interpolation (Ruhe, Linear Algebra Appl. 197/198, 1994).

    The basis Q is M-orthonormal, and Q^T K Q grows by a row and a column
    with each vector joined, so no K-image of the basis is kept.  It is
    seeded with the ground state phi and, given the solver of a shifted
    pencil S = K - tau M (an LU), with the `_KRYLOV_STEPS` Krylov vectors
    S^-1 b, (S^-1 M) S^-1 b, ..., whose span approximates U(xi) for every xi
    at once (Ericsson & Ruhe, Math. Comp. 1980) and holds it exactly once
    they exhaust it.  With
    Q^T K Q = V diag(lam) V^T and d = V^T Q^T b, the Galerkin vector
    U_Q(xi) = Q V (d / (lam - xi)) gives b^T U_Q = sum d^2 / (lam - xi) and
    ||U_Q||_M^2 = sum d^2 / (lam - xi)^2.  Below E1, U_Q minimises the energy
    of K - xi M over the space, so b^T U_Q is at most b^T U: the model's mass
    curve lies below the true one and its root above the true root, and each
    sample lowers it.  With phi alone that root is
    `optimal_upper_bound`; a sampled resolvent makes the model exact
    at its xi, in value and slope.
    """

    def __init__(self, k_ff, m_ff, b, phi, solver=None):
        self._k, self._m, self._b = k_ff, m_ff, b
        # one block, trimmed once where the Krylov space runs out early
        block = np.empty((1 + (_KRYLOV_STEPS if solver is not None else 0), len(b)))
        h = np.empty((len(block), len(block)))
        rows, u = 0, phi
        while rows < len(block) and (q := self._orthonormal(u, block[:rows])) is not None:
            block[rows] = q
            h[rows, :rows + 1] = h[:rows + 1, rows] = block[:rows + 1] @ (k_ff @ q)
            rows += 1
            if rows < len(block):
                u = solver.solve(b if rows == 1 else m_ff @ q)
        self._basis = block if rows == len(block) else block[:rows].copy()
        self._h = h[:rows, :rows].copy()
        self._fit()

    def _orthonormal(self, u, basis):
        """u made M-orthonormal to the rows of basis by Gram-Schmidt in the M
        inner product, applied twice, or None within `_KRYLOV_BREAKDOWN` of
        their span."""
        w = np.array(u, dtype=float)
        mw = self._m @ w
        scale = math.sqrt(float(w @ mw))
        for _ in range(2):
            w -= (basis @ mw) @ basis
            mw = self._m @ w
        norm = math.sqrt(float(w @ mw))
        if not norm > _KRYLOV_BREAKDOWN * scale:
            return None
        w /= norm
        return w

    def _fit(self) -> None:
        """The Ritz pairs of K on the basis."""
        # scipy's LAPACK, which LOBPCG's Ritz problems load anyway; numpy's
        # eigh would map a second one (about 0.8 MB of resident pages)
        self._lam, self._v = scipy.linalg.eigh(self._h, check_finite=False)
        self._d = self._v.T @ (self._basis @ self._b)

    def add(self, u) -> None:
        """Join the sample u and refit.  The arrays are replaced, not written
        into, so a shallow copy of the model is left as it was."""
        q = self._orthonormal(u, self._basis)
        if q is not None:
            basis = np.vstack([self._basis, q])
            column = basis @ (self._k @ q)
            self._basis, self._h = basis, np.block([[self._h, column[:-1, None]], [column]])
            self._fit()

    def _coefficients(self, xi: float) -> np.ndarray:
        return self._d / (self._lam - xi)

    def moments(self, xi: float):
        """Model values of (b^T U, U^T M U) at xi: the integral and the
        squared L2 norm of the resolvent."""
        y = self._coefficients(xi)
        return float(self._d @ y), float(y @ y)

    def vector(self, xi: float) -> np.ndarray:
        """The Galerkin vector U_Q(xi)."""
        return (self._v @ self._coefficients(xi)) @ self._basis


class MixedProblem:
    """The problem pinned on gamma for one mesh: the mesh's shared operators
    restricted to the free nodes, the ground state and the seeded space of
    the Galerkin resolvent model, computed once, on construction.

    Above `eigensolve._COARSE_NODES` free nodes on a planar mesh with
    coarser levels (any mesh `refine` or `build_mesh` made; not one read
    from a file) the ground state runs on the pinned pencil's hierarchy
    (`assembly.hierarchy` given the free nodes), and the problem keeps its
    V-cycle, which preconditions each resolvent solve; the model is seeded
    with phi alone.  Otherwise, and where the ground state's run on the
    V-cycle gave up (`eigensolve.lowest_alone`), the shifted LU of the
    ground eigensolve seeds the model with its Krylov vectors and is not
    kept, and each resolvent solve runs on its own LU of K - xi M.  Every
    resolvent solve is the same conjugate gradients (`eigensolve.solve_spd`),
    started from the model's vector at its xi.
    """

    def __init__(self, mesh: Mesh):
        ops = assembly.operators(mesh)
        self.mesh = mesh
        self.stiffness = ops.stiffness
        self.mass_matrix = ops.mass
        self.volume = ops.volume
        self.fixed = gamma_nodes(mesh)
        self.free, self.k_ff, self.m_ff = ops.restrict(self.fixed)
        self.hierarchy = assembly.hierarchy(mesh)
        self.load = ops.load[self.free]
        levels = assembly.hierarchy(mesh, self.free)
        res, pair, _ = lowest_alone(self.k_ff, self.m_ff, levels)
        phi = np.zeros(mesh.num_nodes)
        phi[self.free] = res.vector
        integral = float(np.ones(len(phi)) @ (self.mass_matrix @ phi))
        if integral < 0.0:
            phi, integral = -phi, -integral
        self.ground = MixedGroundState(res.value, phi, integral)
        self._cycle = pair[1] if on_hierarchy(pair) else None
        self._seeded = _ResolventModel(self.k_ff, self.m_ff, self.load, phi[self.free],
                                       None if self._cycle is not None else pair[1])

    def _check_xi(self, xi: float) -> None:
        e1 = self.ground.value
        if not 0.0 < xi <= e1 * (1.0 - _XI_MARGIN):
            raise RangeError(
                f"spectral parameter must lie in (0, {e1:.6g}), got {xi}")

    def resolvent_one(self, xi: float, start=None) -> np.ndarray:
        """Solve (K - xi M) u = M 1 on free nodes; zero on gamma nodes.  The
        conjugate gradients start from start, a guess of u on the free nodes
        (zero where None)."""
        self._check_xi(xi)
        shifted = self.k_ff - xi * self.m_ff
        u = np.zeros(self.mesh.num_nodes)
        u[self.free] = solve_spd(shifted, self.load, solver=self._cycle, x0=start)
        return u

    def mass_function_with_derivative(self, xi: float, start=None):
        """Mass curve xi^2 int(U) + xi |Omega|, its (always positive)
        derivative, and the resolvent U both come from (`resolvent_one`
        from start)."""
        u = self.resolvent_one(xi, start)
        int_u = float(np.ones(len(u)) @ (self.mass_matrix @ u))
        norm2_u = float(u @ (self.mass_matrix @ u))
        return (*self._curve(xi, int_u, norm2_u), u)

    def _curve(self, xi: float, int_u: float, norm2_u: float):
        f = xi * xi * int_u + xi * self.volume
        fp = 2.0 * xi * int_u + xi * xi * norm2_u + self.volume
        return f, fp

    def optimal_eigenvalue(self, mass: float) -> float:
        """Invert the mass curve inside (0, E1 (1 - 1e-9)], stopping at
        |F(xi) - m| <= 1e-10 m (`_invert_mass_curve`)."""
        return self._invert_mass_curve(mass)[0]

    def _invert_mass_curve(self, mass: float):
        """(xi, U): the root of the mass curve and the resolvent at it, or
        None in place of U when the step cap ends the loop on a new xi.

        A mass whose `optimal_lower_bound` reaches the margin E1 (1 - 1e-9),
        or whose mass curve is still below m there, raises RangeError.
        Otherwise the root lies in the bracket (lo, hi] of that bound and
        the margin; on an LU, hi is at most `optimal_upper_bound`, which the
        seeded model's root can pass by the round-off of its lowest Ritz
        value.  Each xi is the root of the `_ResolventModel` inside the
        bracket (`_model_root`); each true resolvent solve starts from the
        model's vector at its xi, narrows the bracket and joins a copy of
        the problem's seeded model, which the inversion leaves as it was.  On
        the hierarchy the first root is the closed-form upper bound, clamped
        to the margin, and the roots fall onto the root of the mass curve
        from the right; with the Krylov vectors of an LU the first root is
        the root already, and the loop usually ends after one solve.  The
        loop stops once |F - m| <= 1e-10 m, relative like every stop, has
        held for a step, on a step that removes less than half of |F - m| (F
        at its evaluation floor; the better of the two is returned), on a
        model root within `_XI_ROUNDOFF` of the xi just solved, or at the
        step cap.  An xi inside the band takes at most one more step, to the
        root of the model that holds its resolvent, returned when it stays
        inside the band.
        """
        if mass <= 0:
            raise ArgumentError(f"mass must be positive, got {mass}")
        e1 = self.ground.value
        hi = top = e1 * (1.0 - _XI_MARGIN)
        lo = optimal_lower_bound(mass, e1, self.volume)
        too_large = (f"mass {mass:g} is too large: the root of its mass curve lies within the "
                     f"margin {_XI_MARGIN:g} of the pinned ground eigenvalue E1 = {e1:.6g}")
        if lo >= hi:
            raise RangeError(too_large)
        if self._cycle is None:
            hi = min(hi, optimal_upper_bound(mass, e1, self.volume, self.ground.integral))
        target = _MASS_RTOL * mass
        model = copy.copy(self._seeded)
        xi, best = self._model_root(model, mass, lo, hi), None
        for _ in range(_MAX_NEWTON):
            f, _, u = self.mass_function_with_derivative(xi, model.vector(xi))
            if xi == top and f < mass:
                raise RangeError(too_large)
            err = abs(f - mass)
            if best is not None and best[0] <= target:  # the step from inside the band
                return (xi, u) if err <= target else best[1:]
            if best is not None and target < err and 0.5 * best[0] < err:
                return (xi, u) if err < best[0] else best[1:]
            best = (err, xi, u)
            if f < mass:
                lo = xi
            else:
                hi = xi
            model.add(u[self.free])
            step = self._model_root(model, mass, lo, hi)
            if abs(step - xi) <= _XI_ROUNDOFF * xi:
                return xi, u
            xi = step
        return xi, None

    def _model_root(self, model, mass: float, lo: float, hi: float) -> float:
        """The root of a `_ResolventModel`'s mass curve inside (lo, hi], by
        Newton safeguarded by bisection, to round-off from hi: from the right
        of the root of the convex curve, or hi itself where the root lies
        beyond it.  It stops where a step no longer moves xi, or at the step
        cap."""
        xi = hi
        for _ in range(_MAX_NEWTON):
            f, fp = self._curve(xi, *model.moments(xi))
            err = f - mass
            if err == 0.0:
                return xi
            if err < 0:
                lo = xi
            else:
                hi = xi
            step = xi - err / fp
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if step == xi:
                return xi
            xi = step
        return xi

    def optimal_sigma(self, mass: float) -> OptimalSigma:
        """Optimal coefficient of the given mass by variational flux recovery.

        The flux on gamma satisfies W g = (K U - xi M U - M 1)|gamma with W
        the gamma-edge mass matrix; the coefficient is -xi g.  W is lumped
        (divide by the hat-function boundary integrals), which keeps the
        recovered field nonnegative at corners and reproduces the prescribed
        mass exactly.
        """
        return self._optimal_sigma(mass)[0]

    def _optimal_sigma(self, mass: float):
        """(OptimalSigma, pencils): the result of `optimal_sigma` and the
        `NearbyPencils` whose first pencil, the recovered Robin pencil
        (K + B(sigma), M), gave its lambda_check."""
        xi, u = self._invert_mass_curve(mass)
        if u is None:
            u = self.resolvent_one(xi)
        ones = np.ones(self.mesh.num_nodes)
        residual = (self.stiffness @ u - xi * (self.mass_matrix @ u)
                    - self.mass_matrix @ ones)
        w = assembly.assemble_boundary_mass(self.mesh, SigmaField.on_gamma(1.0))
        g_idx = self.fixed
        weights = np.asarray(w[g_idx][:, g_idx].sum(axis=1)).ravel()
        flux = residual[g_idx] / weights
        sigma_vals = np.zeros(self.mesh.num_nodes)
        sigma_vals[g_idx] = -xi * flux
        sigma_min_raw = float(sigma_vals[g_idx].min())
        sigma_vals = np.maximum(sigma_vals, 0.0)
        sigma = SigmaField.nodal(sigma_vals, support="gamma")
        b = assembly.assemble_boundary_mass(self.mesh, sigma)
        recovered_mass = float(ones @ (b @ ones))
        minimizer = xi * u + 1.0
        pencils = NearbyPencils(self.mesh.dim)
        check = pencils.lowest(self.stiffness + b, self.mass_matrix, self.hierarchy)
        opt = OptimalSigma(mass=mass, value=xi, resolvent=u, sigma=sigma,
                           minimizer=minimizer, mass_defect=abs(recovered_mass - mass),
                           lambda_check=check.value, ground=self.ground,
                           sigma_min_raw=sigma_min_raw)
        return opt, pencils


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
                      seed: int = 42) -> MaximalityReport:
    """Randomized check that no admissible coefficient beats the optimum.

    Draws `trials` nonnegative nodal perturbations of the optimal
    coefficient on gamma, rescales each to the prescribed mass, and requires
    the perturbed eigenvalue to stay below the optimal one (up to
    `_MAXIMALITY_SLACK`, for discretization noise).  Also records
    the quotient of the optimal minimiser under each perturbed coefficient,
    which is invariant because the minimiser equals 1 on gamma.  The trials
    continue the `NearbyPencils` whose first pencil, the optimal one, gave
    lambda_check.
    """
    if trials < 0:
        raise ArgumentError(f"trials must be nonnegative, got {trials}")
    prob = MixedProblem(mesh)
    opt, family = prob._optimal_sigma(mass)
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
        b_trial = assembly.assemble_boundary_mass(mesh, SigmaField.nodal(vals, support="gamma"))
        # B is linear in sigma: rescale the trial to the prescribed mass
        b_trial = b_trial * (mass / float(ones @ (b_trial @ ones)))
        lam = family.lowest(kmat + b_trial, mmat, prob.hierarchy).value
        q_trial = _rayleigh(kmat, b_trial, mmat, u_m)
        boundary_term = float(u_m @ (b_trial @ u_m))
        bad = lam > opt.lambda_check + _MAXIMALITY_SLACK
        violations += bad
        rows.append(MaximalityTrial(lam, q_trial, boundary_term, bool(bad)))
    return MaximalityReport(mass=mass, optimal_value=opt.value,
                            quotient_optimal=q_opt, trials=rows,
                            violations=violations, passed=violations == 0)
