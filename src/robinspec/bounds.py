"""Closed-form bounds, asymptotics, and verification reports.

Everything here is either a direct formula in (mass, pinned ground
eigenvalue, volume, ...) or a check wiring those formulas to the FEM
pipeline: two-sided bounds on the optimal eigenvalue, the inradius
sandwiches for Dirichlet and constant-coefficient Robin problems on convex
domains, a weighted Hardy-type lower bound, and the shrink/expand scaling
table computed by coefficient scaling on a fixed mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import assembly, exact1d, geometry, mixed_dn, robin
from .assembly import SigmaField
from .eigensolve import NearbyPencils, shifted_factor
from .errors import ArgumentError
from .geometry import DomainSpec, Mesh

_BESSEL_TERMS = 40
_BESSEL_XMAX = 12.0
# relative slack of the inradius and optimal-eigenvalue reports, and of the
# Hardy check, for solver and quadrature noise
_REPORT_RTOL = 0.02
_HARDY_RTOL = 1e-3


# ---------------------------------------------------------------------------
# Bound report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """A computed quantity against its lower/upper bounds."""

    quantity: str
    lower: float
    computed: float
    upper: float
    slack_lower: float
    slack_upper: float
    tol: float
    passed: bool


def _make_report(quantity: str, lower: float, computed: float,
                 upper: float) -> BoundReport:
    tol = _REPORT_RTOL * max(abs(lower), abs(upper))
    passed = (lower - tol <= computed) and (computed <= upper + tol)
    return BoundReport(quantity, lower, computed, upper,
                       computed - lower, upper - computed, tol, passed)


# ---------------------------------------------------------------------------
# Closed-form bounds on the optimal eigenvalue
# ---------------------------------------------------------------------------

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


def optimal_eigenvalue_sandwich(mesh: Mesh, mass: float) -> BoundReport:
    """Two-sided check of the optimal eigenvalue computed on a mesh.

    Uses the same-mesh pinned ground state, so the inequalities hold
    discretely; the report's tolerance only absorbs solver noise.  The
    reported upper bound is the tighter one (it implies the factor-two
    bound).
    """
    prob = mixed_dn.MixedProblem(mesh)
    ground = prob.ground
    computed = prob.optimal_eigenvalue(mass)
    lower = optimal_lower_bound(mass, ground.value, prob.volume)
    upper = optimal_upper_bound(mass, ground.value, prob.volume, ground.integral)
    return _make_report(f"optimal eigenvalue mass={mass:g}",
                        lower, computed, upper)


# ---------------------------------------------------------------------------
# Bessel series, unit-ball Dirichlet eigenvalue
# ---------------------------------------------------------------------------

def bessel_j(nu: float, x: float) -> float:
    """Bessel J_nu by its ascending power series (40 terms, x <= 12)."""
    if x < 0 or x > _BESSEL_XMAX:
        raise ArgumentError(f"series evaluation restricted to [0, {_BESSEL_XMAX}]")
    half = 0.5 * x
    term = half ** nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, _BESSEL_TERMS):
        term *= -half * half / (k * (k + nu))
        total += term
    return total


def unit_ball_dirichlet_eigenvalue(n: int) -> float:
    """Lowest Dirichlet eigenvalue of the unit ball in dimension n.

    The square of the first positive zero of J_{n/2-1}, found by a scan +
    bisection on the power series; n = 1 is the interval (-1, 1) with
    eigenvalue pi^2/4.
    """
    if n < 1:
        raise ArgumentError("dimension must be at least 1")
    if n == 1:
        return math.pi ** 2 / 4.0
    nu = 0.5 * n - 1.0
    x = 1e-6 + nu  # series is positive before the first zero
    f_prev = bessel_j(nu, x)
    step = 0.05
    while x < _BESSEL_XMAX:
        x_next = x + step
        f_next = bessel_j(nu, x_next)
        if (f_prev > 0) and (f_next <= 0):
            root = exact1d._bisect(lambda t: bessel_j(nu, t), x, x_next)
            return root * root
        x, f_prev = x_next, f_next
    raise ArgumentError(f"no Bessel zero found below {_BESSEL_XMAX} for nu={nu}")


# ---------------------------------------------------------------------------
# Inradius sandwiches
# ---------------------------------------------------------------------------

def dirichlet_inradius_report(mesh: Mesh, domain: DomainSpec) -> BoundReport:
    """Check 1/4 R^-2 <= lambda_D <= K_n R^-2 on a convex domain."""
    r = geometry.inradius(domain)
    n = domain.dim
    if n == 1:
        lam = (math.pi / (domain.b - domain.a)) ** 2
    else:
        lam = robin.dirichlet_eigenvalue(mesh, geometry.boundary_nodes(mesh))
    lower = 0.25 / r ** 2
    upper = unit_ball_dirichlet_eigenvalue(n) / r ** 2
    return _make_report("dirichlet eigenvalue vs inradius", lower, float(lam),
                        upper)


def robin_inradius_report(mesh: Optional[Mesh], domain: DomainSpec,
                          sigma_const: float) -> BoundReport:
    """Check the convex two-sided bound
    sigma / (4 R (1 + sigma R)) <= lambda <= 2 K_n sigma / (R (1 + sigma R))
    for a constant coefficient."""
    if sigma_const <= 0:
        raise ArgumentError("constant coefficient must be positive")
    r = geometry.inradius(domain)
    n = domain.dim
    if n == 1:
        lam = exact1d.lowest_eigenvalue(
            exact1d.IntervalProblem(domain.a, domain.b, sigma_const, sigma_const))
    else:
        if mesh is None:
            raise ArgumentError("planar domains need a mesh")
        lam = robin.lowest_eigenvalue(mesh, SigmaField.constant(sigma_const)).value
    scale = sigma_const / (r * (1.0 + sigma_const * r))
    lower = 0.25 * scale
    upper = 2.0 * unit_ball_dirichlet_eigenvalue(n) * scale
    return _make_report(f"robin eigenvalue vs inradius sigma={sigma_const:g}",
                        lower, float(lam), upper)


# ---------------------------------------------------------------------------
# Weighted Hardy-type lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyTrial:
    lhs: float
    rhs: float
    violation: bool


@dataclass(frozen=True, eq=False)
class HardyReport:
    sigma: float
    alpha: float
    coefficient: float
    trials: List[HardyTrial]
    violations: int
    passed: bool


def _quadrature_points(mesh: Mesh):
    """Second-order quadrature: edge midpoints (2D, weight |T|/3) or
    two-point Gauss (1D).  Returns (points, weights, nodal-to-point matrix
    encoded as index pairs + coefficients)."""
    meas = geometry.element_measures(mesh)
    if mesh.dim == 1:
        x0 = mesh.nodes[mesh.elements[:, 0], 0]
        x1 = mesh.nodes[mesh.elements[:, 1], 0]
        g = 0.5 / math.sqrt(3.0)
        t = np.array([0.5 - g, 0.5 + g])
        pts = np.concatenate([x0[:, None] + t[None, :] * (x1 - x0)[:, None]]).reshape(-1, 1)
        wts = np.repeat(0.5 * meas, 2)
        # P1 values at the two Gauss points
        coeff = np.stack([np.column_stack([1 - t, t])] * len(meas))  # (Ne,2,2)
        idx = mesh.elements[:, None, :].repeat(2, axis=1)  # (Ne,2,2)
        return pts, wts, idx.reshape(-1, 2), coeff.reshape(-1, 2)
    p = mesh.nodes[mesh.elements]  # (Ne,3,2)
    mids = np.stack([(p[:, 0] + p[:, 1]) / 2,
                     (p[:, 1] + p[:, 2]) / 2,
                     (p[:, 2] + p[:, 0]) / 2], axis=1)
    pts = mids.reshape(-1, 2)
    wts = np.repeat(meas / 3.0, 3)
    pairs = np.stack([mesh.elements[:, (0, 1)],
                      mesh.elements[:, (1, 2)],
                      mesh.elements[:, (2, 0)]], axis=1).reshape(-1, 2)
    coeff = np.full((len(pairs), 2), 0.5)
    return pts, wts, pairs, coeff


def hardy_reports(mesh: Mesh, pairs, trials: int = 25, seed: int = 42) -> List[HardyReport]:
    """One report per (sigma, alpha) pair, checking the convex-domain bound
    |grad u|^2 + sigma |u|^2_bdry >= alpha sigma (1 - alpha sigma)
    * integral of u^2 / (dist + alpha)^2 for random functions and the
    Robin ground state, each to within `_HARDY_RTOL` of the right side.

    The domain must be convex: the distance enters pointwise at quadrature
    points as the distance to the mesh's boundary polygon, and a non-convex
    mesh raises UnsupportedDomainError.  With alpha sigma >= 1 the right
    side is nonpositive and the bound is vacuous, which the sign of the
    coefficient encodes.  The
    quadrature, the distances and the random functions depend only on the
    mesh and the seed, the ground state only on sigma: each is computed
    once and shared by the pairs.
    """
    pairs = list(pairs)
    if any(s < 0 or a <= 0 for s, a in pairs):
        raise ArgumentError("need sigma >= 0 and alpha > 0")
    if trials < 0:
        raise ArgumentError(f"trials must be nonnegative, got {trials}")
    kmat = assembly.operators(mesh).stiffness
    b1 = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
    pts, wts, idx, coeff = _quadrature_points(mesh)
    delta = geometry.distances_to_boundary(mesh, pts)

    def forms(u):
        """u's stiffness and unit boundary forms and its quadrature values."""
        return u @ (kmat @ u), u @ (b1 @ u), np.sum(u[idx] * coeff, axis=1)

    rng = np.random.default_rng(seed)
    random_forms = [forms(rng.standard_normal(mesh.num_nodes)) for _ in range(trials)]
    ground_forms = {
        s: forms(robin.lowest_eigenvalue(mesh, SigmaField.constant(s)).eigenfunction
                 if s > 0 else np.ones(mesh.num_nodes))
        for s in dict.fromkeys(s for s, _ in pairs)}
    reports: List[HardyReport] = []
    for sigma_const, alpha in pairs:
        weight = wts / (delta + alpha) ** 2
        coef = alpha * sigma_const * (1.0 - alpha * sigma_const)
        rows: List[HardyTrial] = []
        violations = 0
        for k_form, b_form, u_q in random_forms + [ground_forms[sigma_const]]:
            lhs = float(k_form + sigma_const * b_form)
            rhs = coef * float(np.sum(weight * u_q * u_q))
            bad = lhs < rhs - _HARDY_RTOL * abs(rhs) - 1e-12 * max(lhs, 1.0)
            violations += bad
            rows.append(HardyTrial(lhs, rhs, bool(bad)))
        reports.append(HardyReport(sigma_const, alpha, coef, rows, violations,
                                   passed=violations == 0))
    return reports


# ---------------------------------------------------------------------------
# Shrink/expand scaling study on a fixed mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    eps: float
    eigenvalue: float
    eps_eigenvalue: float
    eps2_eigenvalue: float


def scaling_table(mesh: Mesh, sigma: SigmaField, eps_grid) -> List[ScalingRow]:
    """Lowest eigenvalue of the rescaled domain for each scale factor.

    Rescaling is realized as coefficient scaling on the fixed mesh: the
    smallest eigenvalue of (eps^-2 K + eps^-1 B) x = lambda M x.  The grid
    is one coefficient family whose reference is the unscaled pencil K + B.
    """
    eps_grid = list(eps_grid)
    if any(eps <= 0 for eps in eps_grid):
        raise ArgumentError("scale factors must be positive")
    ops = assembly.operators(mesh)
    bmat = assembly.assemble_boundary_mass(mesh, sigma)
    reference = shifted_factor(ops.stiffness + bmat, ops.mass, order=ops.order)
    family = NearbyPencils(mesh.dim, reference=reference)
    rows: List[ScalingRow] = []
    for eps in eps_grid:
        a = ops.stiffness / (eps * eps) + bmat / eps
        lam = family.lowest(a, ops.mass, ops.order).value
        rows.append(ScalingRow(float(eps), lam, eps * lam, eps * eps * lam))
    return rows


def scaling_limits(mesh: Mesh, sigma: SigmaField):
    """The two scaling limits on this mesh: boundary-mass ratio (shrink)
    and the ground eigenvalue pinned on gamma (expand), the value
    `mixed_dn.MixedProblem(mesh).ground` has.

    The mesh's gamma markers must coincide with the support of sigma."""
    bmat = assembly.assemble_boundary_mass(mesh, sigma)
    ones = np.ones(mesh.num_nodes)
    sigma_total = float(ones @ (bmat @ ones))
    volume = geometry.area(mesh)
    e1 = robin.dirichlet_eigenvalue(mesh, geometry.gamma_nodes(mesh))
    return sigma_total / volume, e1
