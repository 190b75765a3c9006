"""Mixed Dirichlet-Neumann ground state and the optimal boundary coefficient.

The pipeline: pin the solution to zero on gamma, compute the ground
eigenvalue of the pinned Laplacian, apply the resolvent at a spectral
parameter to the constant source, invert the resulting mass curve for a
prescribed boundary mass, and recover the optimal coefficient from the
variational boundary flux on gamma.  Above the coarse size the pinned
pencil runs on its own hierarchy, where one coarse LU and its V-cycle serve
the ground eigensolve and every resolvent solve, and a Galerkin model of
the resolvent over the ground state and its own samples proposes each
spectral parameter (at most 3 solves per mass); at or below it one sparse
factorization serves the ground eigensolve and a Lanczos model of the mass
curve (`MixedProblem`).  The recovered total mass reproduces the
prescribed one to root-finder tolerance, and the minimiser built from the
resolvent nearly diagonalizes the recovered Robin pencil, so the
cross-checks below hold far inside discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.linalg

from . import assembly
from .assembly import SigmaField
from .eigensolve import (NearbyPencils, lowest_alone, on_hierarchy, shifted_factor, solve_spd,
                         solve_spd_cg)
from .errors import ArgumentError, RangeError
from .geometry import Mesh, gamma_nodes

_XI_MARGIN = 1e-9
# a move of xi below this, relative, is a few ulps: on the hierarchy a
# model root that moves xi no further takes no resolvent solve
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


class _MassCurveModel:
    """Lanczos model of the resolvent moments on the free nodes.

    With S = (K - tau M)^-1 and b = (M 1)_free, the Lanczos process on S M in
    the M inner product, started from S b, gives an M-orthonormal basis Q and
    the tridiagonal T = Q^T M S M Q.  Since K - xi M = (K - tau M)(I - (xi -
    tau) S M), the resolvent U = (K - xi M)^-1 b is about Q y with
    (I - (xi - tau) T) y = ||S b||_M e1, so b^T U ~ c^T y with c = Q^T b and
    U^T M U ~ y^T y, for every xi from one Krylov space (Ericsson & Ruhe,
    Math. Comp. 1980).  The process stops after `_KRYLOV_STEPS` steps, or
    earlier when the Krylov space is exhausted, where the model is exact.
    """

    def __init__(self, m_ff, b, tau: float, lu):
        r = lu.solve(b)
        norm = math.sqrt(float(r @ (m_ff @ r)))
        basis = np.empty((_KRYLOV_STEPS, len(b)))
        basis[0] = r / norm
        alpha: List[float] = []
        beta: List[float] = []
        for j in range(_KRYLOV_STEPS):
            q = basis[: j + 1]
            w = lu.solve(m_ff @ basis[j])
            scale = math.sqrt(float(w @ (m_ff @ w)))
            coef = np.zeros(j + 1)
            for _ in range(2):  # full reorthogonalisation, repeated once
                proj = q @ (m_ff @ w)
                w -= proj @ q
                coef += proj
            alpha.append(float(coef[j]))
            norm_w = math.sqrt(float(w @ (m_ff @ w)))
            if j + 1 == _KRYLOV_STEPS or norm_w <= _KRYLOV_BREAKDOWN * scale:
                break
            beta.append(norm_w)
            basis[j + 1] = w / norm_w
        k = len(alpha)
        self.tau = tau
        self.start = np.zeros(k)
        self.start[0] = norm
        self.tridiag = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        self.c = basis[:k] @ b

    def moments(self, xi: float):
        """Model values of (b^T U, U^T M U) at xi: the integral and the
        squared L2 norm of the resolvent."""
        k = len(self.start)
        y = np.linalg.solve(np.eye(k) - (xi - self.tau) * self.tridiag, self.start)
        return float(self.c @ y), float(y @ y)


class _ResolventModel:
    """Galerkin model of the pinned resolvent U(xi) = (K - xi M)^-1 b on the
    free nodes, over the space of its own samples: rational Krylov
    interpolation (Ruhe, Linear Algebra Appl. 197/198, 1994).

    The basis is M-orthonormal, seeded with the ground state phi, and holds
    the K-images of its vectors.  With Q^T K Q = V diag(lam) V^T and
    d = V^T Q^T b, the Galerkin vector U_Q(xi) = Q V (d / (lam - xi)) gives
    b^T U_Q = sum d^2 / (lam - xi) and ||U_Q||_M^2 = sum d^2 / (lam - xi)^2.
    Below E1, U_Q minimises the energy of K - xi M over the space, so b^T U_Q
    is at most b^T U: the model's mass curve lies below the true one and its
    root above the true root, and each sample lowers it.  With phi alone
    that root is `bounds.optimal_upper_bound`; a sampled resolvent makes the
    model exact at its xi, in value and slope.
    """

    def __init__(self, k_ff, m_ff, b, phi):
        self._k, self._m, self._b = k_ff, m_ff, b
        self._basis = np.empty((0, len(b)))
        self._images = np.empty((0, len(b)))
        self.add(phi)

    def add(self, u) -> None:
        """Join u to the basis by Gram-Schmidt in the M inner product, applied
        twice; a u within `_KRYLOV_BREAKDOWN` of the span is dropped."""
        w = np.array(u, dtype=float)
        scale = math.sqrt(float(w @ (self._m @ w)))
        for _ in range(2):
            w -= (self._basis @ (self._m @ w)) @ self._basis
        norm = math.sqrt(float(w @ (self._m @ w)))
        if not norm > _KRYLOV_BREAKDOWN * scale:
            return
        w /= norm
        self._basis = np.vstack([self._basis, w])
        self._images = np.vstack([self._images, self._k @ w])
        h = self._basis @ self._images.T
        # scipy's LAPACK, which LOBPCG's Ritz problems load anyway; numpy's
        # eigh would map a second one (about 0.8 MB of resident pages)
        self._lam, self._v = scipy.linalg.eigh(0.5 * (h + h.T), check_finite=False)
        self._d = self._v.T @ (self._basis @ self._b)

    def _coefficients(self, xi: float) -> np.ndarray:
        return self._d / (self._lam - xi)

    def moments(self, xi: float):
        """Model values of (b^T U, U^T M U) at xi."""
        y = self._coefficients(xi)
        return float(self._d @ y), float(y @ y)

    def vector(self, xi: float) -> np.ndarray:
        """The Galerkin vector U_Q(xi)."""
        return (self._v @ self._coefficients(xi)) @ self._basis


def _safeguarded_newton(curve, mass: float, xi: float, hi: float, target: float,
                        lo: float = 0.0):
    """Newton on curve(xi) = (F, F', payload) for F(xi) = mass, safeguarded
    by bisection inside (lo, hi) and stopping at |F - mass| <= target or on
    a step that no longer moves xi.  With a positive target it also stops
    on a step that removes less than half of |F - mass|: started near the
    root, Newton removes far more, so F is at its evaluation floor above the
    target, and the evaluated xi with the smallest |F - mass| is returned.
    Returns (xi, payload), or (xi, None) when the step cap ends the loop on
    an unevaluated xi."""
    best = None
    for _ in range(_MAX_NEWTON):
        f, fp, payload = curve(xi)
        err = f - mass
        if abs(err) <= target:
            return xi, payload
        if target > 0.0 and best is not None and abs(err) > 0.5 * best[0]:
            return (xi, payload) if abs(err) < best[0] else best[1:]
        best = (abs(err), xi, payload)
        if err < 0:
            lo = xi
        else:
            hi = xi
        step = xi - err / fp
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == xi:
            return xi, payload
        xi = step
    return xi, None


class MixedProblem:
    """The problem pinned on gamma for one mesh: the mesh's shared operators
    restricted to the free nodes and the ground state, computed once, on
    construction.

    Above `eigensolve._COARSE_NODES` free nodes on a planar mesh with
    coarser levels (any mesh `refine` or `build_mesh` made; not one read
    from a file) the ground state runs on the pinned pencil's hierarchy
    (`assembly.hierarchy` given the free nodes), and the problem keeps its
    V-cycle: each resolvent solve is conjugate gradients preconditioned by
    it (`eigensolve.solve_spd_cg`), started from the Galerkin model's
    vector at its xi (`_invert_on_hierarchy`).
    Otherwise, and where the ground state's run on the V-cycle gave up
    (`eigensolve.lowest_alone`), the shifted factorization of the ground
    eigensolve builds a Lanczos model of the mass curve and is not kept,
    and each resolvent solve factors K - xi M.
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
        self._cycle = self._model = None
        if pair is not None and on_hierarchy(pair):
            self._cycle = pair[1]
        else:
            factor = pair or shifted_factor(self.k_ff, self.m_ff)
            self._model = _MassCurveModel(self.m_ff, self.load, *factor)

    def _check_xi(self, xi: float) -> None:
        e1 = self.ground.value
        if not 0.0 < xi < e1 * (1.0 - _XI_MARGIN):
            raise RangeError(
                f"spectral parameter must lie in (0, {e1:.6g}), got {xi}")

    def resolvent_one(self, xi: float, start=None) -> np.ndarray:
        """Solve (K - xi M) u = M 1 on free nodes; zero on gamma nodes.  On
        the hierarchy the conjugate gradients start from start, a guess of u
        on the free nodes (zero where None); an LU solve has no use for it."""
        self._check_xi(xi)
        shifted = self.k_ff - xi * self.m_ff
        if self._cycle is None:
            u_free = solve_spd(shifted, self.load)
        else:
            u_free = solve_spd_cg(shifted, self.load, self._cycle, start)
        u = np.zeros(self.mesh.num_nodes)
        u[self.free] = u_free
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

    def _model_curve(self, xi: float):
        return (*self._curve(xi, *self._model.moments(xi)), None)

    def optimal_eigenvalue(self, mass: float) -> float:
        """Invert the mass curve: Newton safeguarded by bisection inside
        (0, E1 (1 - 1e-9)), stopping at |F(xi) - m| <= 1e-10 max(m, 1)."""
        return self._invert_mass_curve(mass)[0]

    def _invert_mass_curve(self, mass: float):
        """(xi, U): the root of the mass curve and the resolvent at it, or
        None in place of U when the step cap ends the loop on a new xi.

        A mass whose closed-form lower bound m E1 / (m + |Omega| E1) reaches
        E1 (1 - 1e-9) raises RangeError.  With the Lanczos model, Newton
        runs to round-off on the model first, from that lower bound; its
        root starts the loop on true resolvent solves, which judges the
        stopping test and usually stops at once.  On the hierarchy the
        Galerkin model of the resolvent proposes every xi
        (`_invert_on_hierarchy`).
        """
        if mass <= 0:
            raise ArgumentError(f"mass must be positive, got {mass}")
        e1 = self.ground.value
        hi = e1 * (1.0 - _XI_MARGIN)
        xi = mass * e1 / (mass + self.volume * e1)
        if xi >= hi:
            raise RangeError(
                f"mass {mass:g} is too large: the root of its mass curve lies within the "
                f"margin {_XI_MARGIN:g} of the pinned ground eigenvalue E1 = {e1:.6g}")
        target = _MASS_RTOL * max(mass, 1.0)
        if self._model is None:
            return self._invert_on_hierarchy(mass, xi, hi, target)
        xi = max(xi, hi * 1e-12)
        xi, _ = _safeguarded_newton(self._model_curve, mass, xi, hi, 0.0)
        return _safeguarded_newton(self.mass_function_with_derivative, mass, xi, hi, target)

    def _invert_on_hierarchy(self, mass: float, lo: float, hi: float, target: float):
        """`_invert_mass_curve` on the hierarchy, inside the bracket (lo, hi)
        of the closed-form lower bound and the margin.

        Each xi is the root of a `_ResolventModel` inside the bracket, by
        Newton to round-off from its right end; each true resolvent solve
        starts from the model's vector at its xi, narrows the bracket and
        joins the model.  With phi alone the model's root is the closed-form
        upper bound, clamped to the margin, and the model's roots fall onto
        the root of the mass curve from the right.  The loop keeps the
        stopping band, the floor stop and the step cap of
        `_safeguarded_newton`, and ends on a model root within
        `_XI_ROUNDOFF` of the xi just solved.  An xi inside the band takes at
        most one more step, to the root of the model that holds its
        resolvent, returned when it stays inside the band.
        """
        model = _ResolventModel(self.k_ff, self.m_ff, self.load,
                                self.ground.eigenfunction[self.free])
        xi, best = self._model_root(model, mass, lo, hi), None
        for _ in range(_MAX_NEWTON):
            f, _, u = self.mass_function_with_derivative(xi, model.vector(xi))
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
        Newton to round-off from hi: from the right of the root of the convex
        curve, or hi itself where the root lies beyond it."""
        def curve(x):
            return (*self._curve(x, *model.moments(x)), None)
        return _safeguarded_newton(curve, mass, hi, hi, 0.0, lo)[0]

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
