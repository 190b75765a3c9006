"""Interval oracles that only the tests use: the higher root branches of
the characteristic equation and the sweep of a fixed mass's endpoint split.

Both are built on `exact1d`'s characteristic function and bisection.
"""

from dataclasses import dataclass
import math

from robinspec import exact1d
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
