"""Interval oracles that only the tests use: the higher root branches of
the characteristic equation, the sweep of a fixed mass's endpoint split,
and the root of a P1 interval mesh's pinned mass curve in long double.

The first two are built on `exact1d`'s characteristic function and
bisection.
"""

from dataclasses import dataclass
import math

import numpy as np

from robinspec import assembly, exact1d, geometry
from robinspec.errors import ArgumentError
from robinspec.exact1d import IntervalProblem


def eigenvalue_branch(problem: IntervalProblem, j: int) -> float:
    """j-th eigenvalue (j >= 1) from the j-th root branch of the
    characteristic equation; branch j lives in ((j-1) pi/L, j pi/L)."""
    sa, sb, length = problem.sigma_a, problem.sigma_b, problem.length
    if j < 1:
        raise ArgumentError("branch index starts at 1")
    if sa == 0.0 and sb == 0.0:
        return ((j - 1) * math.pi / length) ** 2

    def char(k):
        return exact1d._char(k, length, sa, sb)

    panels, eps = exact1d._SCAN_PANELS, exact1d._EDGE_EPS
    lo_edge = (j - 1) * math.pi / length + eps
    hi_edge = j * math.pi / length - eps
    lo, f_lo = lo_edge, char(lo_edge)
    for p in range(1, panels + 1):
        hi = lo_edge + p * (hi_edge - lo_edge) / panels
        f_hi = char(hi)
        if (f_lo < 0) != (f_hi < 0):
            k = exact1d._bisect(char, lo, hi)
            return k * k
        lo, f_lo = hi, f_hi
    raise ArgumentError(f"no root found in branch {j}")


@dataclass(frozen=True)
class EndpointSweepReport:
    """Result of sweeping the endpoint split of a fixed total mass."""

    length: float
    mass: float
    fractions: tuple
    eigenvalues: tuple
    min_at_endpoints: bool
    max_at_half: bool
    lower_bound: float
    lower_bound_holds: bool
    passed: bool


def endpoint_sweep(length: float, mass: float, steps: int = 21) -> EndpointSweepReport:
    """Sweep sigma = (t m, (1-t) m) over t in [0, 1].

    Checks that the sweep minimum sits at a pure-endpoint split, that the
    maximum sits at the even split, and that the pure-endpoint value obeys
    the closed-form lower bound  1/4 (L + 1/(2m))^-2.
    """
    if mass <= 0:
        raise ArgumentError("mass must be positive")
    if steps < 3 or steps % 2 == 0:
        raise ArgumentError("steps must be odd and at least 3")
    ts = tuple(i / (steps - 1) for i in range(steps))
    lams = tuple(exact1d.lowest_eigenvalue(IntervalProblem(0.0, length, t * mass,
                                                           (1.0 - t) * mass))
                 for t in ts)
    i_min = min(range(steps), key=lambda i: lams[i])
    i_max = max(range(steps), key=lambda i: lams[i])
    min_at_endpoints = i_min in (0, steps - 1)
    max_at_half = i_max == (steps - 1) // 2
    bound = 0.25 / (length + 0.5 / mass) ** 2
    lam_endpoint = lams[0]
    bound_holds = lam_endpoint >= bound - 1e-12 * max(1.0, bound)
    return EndpointSweepReport(length, mass, ts, lams, min_at_endpoints,
                               max_at_half, bound, bound_holds,
                               passed=min_at_endpoints and max_at_half and bound_holds)


def _thomas(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    lower, diag and upper, without pivoting, in rhs's precision."""
    n = len(diag)
    c, d = np.empty_like(diag), np.empty_like(rhs)
    c[0], d[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        pivot = diag[i] - lower[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / pivot
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def tight_mass_root(mesh, mass: float, xi: float, steps: int = 4) -> float:
    """The root of the mass curve F(xi) = xi^2 b^T U + xi |Omega| of a P1
    interval mesh pinned on gamma, with U = (K - xi M)^-1 b and b = M 1 on
    the free nodes, by Newton in long double from xi near it.

    K and M are the float64 matrices the package assembles.  Sorted by
    coordinate (refinement numbers midpoints last) the free nodes make the
    pinned pencil tridiagonal, and each of the `steps` Newton steps is one
    Thomas solve in long double: F' = 2 xi b^T U + xi^2 U^T M U.  The
    long-double floor of F bounds the root's accuracy: Newton's iterates 3
    to 10 from a float64 root, masses 1 to 1e8, spread by at most 3e-14
    relative on the interval refined 10 times and 4e-13 on it refined 12
    times.
    """
    ops = assembly.operators(mesh)
    free, k_ff, m_ff = ops.restrict(geometry.gamma_nodes(mesh))
    order = np.argsort(mesh.nodes[free, 0])
    k, m = (a[order][:, order].tocsr() for a in (k_ff, m_ff))
    n = len(free)
    if k.nnz != 3 * n - 2 or m.nnz != 3 * n - 2:
        raise ArgumentError("the pinned pencil is not tridiagonal in coordinate order")
    kd, md = ([a.diagonal(j).astype(np.longdouble) for j in (-1, 0, 1)] for a in (k, m))
    full_mass = ops.mass.tocoo()
    row_sums = np.zeros(mesh.num_nodes, dtype=np.longdouble)
    np.add.at(row_sums, full_mass.row, full_mass.data.astype(np.longdouble))
    b, volume = row_sums[free][order], row_sums.sum()
    xi = np.longdouble(xi)
    for _ in range(steps):
        u = _thomas(*(kj - xi * mj for kj, mj in zip(kd, md)), b)
        int_u = b @ u
        m_u = md[1] * u
        m_u[1:] += md[0] * u[:-1]
        m_u[:-1] += md[2] * u[1:]
        f = xi * xi * int_u + xi * volume
        xi -= (f - mass) / (2 * xi * int_u + xi * xi * (u @ m_u) + volume)
    return float(xi)
