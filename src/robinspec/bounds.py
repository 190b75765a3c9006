"""Closed-form bounds, asymptotics, and verification reports.

Everything here is either a direct formula in (mass, pinned ground
eigenvalue, volume, ...) or a check wiring those formulas to the FEM
pipeline: two-sided bounds on the optimal eigenvalue, the inradius
sandwich for constant-coefficient Robin problems on convex domains, a
weighted Hardy-type lower bound, and the shrink/expand scaling
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
# Inradius sandwich
# ---------------------------------------------------------------------------

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


def hardy_reports(mesh: Mesh, pairs, trials: int = 25, seed: int = 42) -> List[HardyReport]:
    """One report per (sigma, alpha) pair, checking the convex-domain bound
    |grad u|^2 + sigma |u|^2_bdry >= alpha sigma (1 - alpha sigma)
    * integral of u^2 / (dist + alpha)^2 for random functions and the
    Robin ground state, each to within `_HARDY_RTOL` of the right side.

    Both sides are quadratic forms: u^T (K + sigma B_1) u, and the
    coefficient times u^T H_alpha u with H_alpha the weighted mass matrix
    of 1/(dist + alpha)^2.  The domain must be convex: the distance enters
    at the quadrature points as the distance to the mesh's boundary
    polygon, and a non-convex mesh raises UnsupportedDomainError.  With
    alpha sigma >= 1 the right side is nonpositive and the bound is vacuous,
    which the sign of the coefficient encodes.  A right side that is not
    finite (alpha below about 1e-154 overflows the weight where the distance
    is 0) is an ArgumentError rather than a vacuous pass.  The distances,
    each H_alpha and each sigma's ground state are computed once and shared
    by the pairs; the random functions are drawn and checked one at a time.
    """
    pairs = list(pairs)
    if any(s < 0 or a <= 0 for s, a in pairs):
        raise ArgumentError("need sigma >= 0 and alpha > 0")
    if trials < 0:
        raise ArgumentError(f"trials must be nonnegative, got {trials}")
    kmat = assembly.operators(mesh).stiffness
    b1 = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
    points, weights = assembly.quadrature_rule(mesh)
    delta = geometry.distances_to_boundary(mesh, points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hardy = {alpha: assembly.assemble_weighted_mass(mesh, weights / (delta + alpha) ** 2)
                 for alpha in dict.fromkeys(a for _, a in pairs)}
    coefs = [alpha * s * (1.0 - alpha * s) for s, alpha in pairs]

    k_diagonal, b_diagonal = kmat.diagonal(), b1.diagonal()

    def sides(u):
        """u's (left side, right side, the left side's round-off) under each
        pair, the last as 1e-12 times the diagonal part of the left form."""
        k_form, b_form = u @ (kmat @ u), u @ (b1 @ u)
        k_scale, b_scale = k_diagonal @ (u * u), b_diagonal @ (u * u)
        with np.errstate(over="ignore", invalid="ignore"):
            h_forms = {alpha: float(u @ (h @ u)) for alpha, h in hardy.items()}
        return [(float(k_form + s * b_form), c * h_forms[alpha],
                 1e-12 * float(k_scale + s * b_scale))
                for (s, alpha), c in zip(pairs, coefs)]

    rng = np.random.default_rng(seed)
    random_sides = [sides(rng.standard_normal(mesh.num_nodes)) for _ in range(trials)]
    ground_sides = {
        s: sides(robin.lowest_eigenvalue(mesh, SigmaField.constant(s)).eigenfunction
                 if s > 0 else np.ones(mesh.num_nodes))
        for s in dict.fromkeys(s for s, _ in pairs)}
    reports: List[HardyReport] = []
    for i, (sigma_const, alpha) in enumerate(pairs):
        rows: List[HardyTrial] = []
        violations = 0
        for lhs, rhs, roundoff in (t[i] for t in random_sides + [ground_sides[sigma_const]]):
            if not math.isfinite(rhs):
                raise ArgumentError(f"the Hardy right side at sigma={sigma_const!r}, "
                                    f"alpha={alpha!r} is not finite: alpha is too small")
            bad = lhs < rhs - _HARDY_RTOL * abs(rhs) - roundoff
            violations += bad
            rows.append(HardyTrial(lhs, rhs, bool(bad)))
        reports.append(HardyReport(sigma_const, alpha, coefs[i], rows, violations,
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

    Rescaling is realized as coefficient scaling on the fixed mesh:
    (eps^-2 K + eps^-1 B) x = lambda M x exactly when (K + eps B) x =
    eps^2 lambda M x.  The grid is one family of the pencils (K + eps B, M),
    whose reference is K + B and whose stop keeps its scale at large eps.
    """
    eps_grid = list(eps_grid)
    if any(eps <= 0 for eps in eps_grid):
        raise ArgumentError("scale factors must be positive")
    ops = assembly.operators(mesh)
    bmat = assembly.assemble_boundary_mass(mesh, sigma)
    levels = assembly.hierarchy(mesh)
    family = NearbyPencils(mesh.dim,
                           reference=shifted_factor(ops.stiffness + bmat, ops.mass, levels))
    mus = [family.lowest(ops.stiffness + eps * bmat, ops.mass, levels).value for eps in eps_grid]
    return [ScalingRow(float(e), mu / (e * e), mu / e, mu) for e, mu in zip(eps_grid, mus)]


def scaling_limits(mesh: Mesh, sigma: SigmaField):
    """The two scaling limits on this mesh: boundary-mass ratio (shrink)
    and the ground eigenvalue pinned on the nodes where sigma acts, those
    with a positive diagonal of B (expand), or 0 where sigma vanishes.
    With sigma positive on gamma this is the value
    `mixed_dn.MixedProblem(mesh).ground` has."""
    bmat = assembly.assemble_boundary_mass(mesh, sigma)
    ones = np.ones(mesh.num_nodes)
    sigma_total = float(ones @ (bmat @ ones))
    volume = geometry.area(mesh)
    support = np.flatnonzero(bmat.diagonal() > 0)
    e1 = robin.dirichlet_eigenvalue(mesh, support) if len(support) else 0.0
    return sigma_total / volume, e1
