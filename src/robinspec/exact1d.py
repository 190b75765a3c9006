"""Closed-form/transcendental ground truth for Robin problems on intervals.

Separation of variables reduces the interval problem with endpoint
coefficients (sa, sb) to the first root k in (0, pi/L) of

    (k^2 - sa*sb) sin(kL) - k (sa + sb) cos(kL) = 0,

with lambda_1 = k^2.  This module is the oracle layer the FEM pipeline is
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, RangeError

_SCAN_PANELS = 64
_EDGE_EPS = 1e-12


@dataclass(frozen=True)
class IntervalProblem:
    """Interval (a, b) with nonnegative endpoint coefficients."""

    a: float
    b: float
    sigma_a: float
    sigma_b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ArgumentError(f"need a < b, got ({self.a}, {self.b})")
        if self.sigma_a < 0 or self.sigma_b < 0:
            raise ArgumentError("endpoint coefficients must be nonnegative")

    @property
    def length(self) -> float:
        return self.b - self.a


def _char(k: float, length: float, sa: float, sb: float) -> float:
    return (k * k - sa * sb) * math.sin(k * length) - k * (sa + sb) * math.cos(k * length)


def _bisect(f, lo: float, hi: float, iterations: int = 200) -> float:
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lowest_eigenvalue(problem: IntervalProblem) -> float:
    """Lowest Robin eigenvalue of the interval, exact up to root tolerance.

    Pure Neumann (both coefficients zero) short-circuits to 0.  The first
    root is bracketed by a sign-change scan over 64 panels of
    (0, pi/L) so the bisection never straddles a second branch.
    """
    sa, sb, length = problem.sigma_a, problem.sigma_b, problem.length
    if sa == 0.0 and sb == 0.0:
        return 0.0
    k_max = math.pi / length
    lo = _EDGE_EPS
    f_lo = _char(lo, length, sa, sb)
    for p in range(1, _SCAN_PANELS + 1):
        hi = min(p * k_max / _SCAN_PANELS, k_max - _EDGE_EPS)
        f_hi = _char(hi, length, sa, sb)
        if (f_lo < 0) != (f_hi < 0):
            k = _bisect(lambda k: _char(k, length, sa, sb), lo, hi)
            return k * k
        lo, f_lo = hi, f_hi
    raise ArgumentError("no eigenvalue bracket found in (0, pi/L)")


def interval_mass_function(length: float, xi: float) -> float:
    """Boundary mass that makes xi the optimal eigenvalue when both
    endpoints carry the coefficient: 2 sqrt(xi) tan(sqrt(xi) L / 2).

    Defined on 0 < xi < (pi/L)^2, diverging at the upper end.
    """
    if length <= 0:
        raise ArgumentError("length must be positive")
    limit = (math.pi / length) ** 2
    if not 0.0 < xi < limit:
        raise RangeError(f"xi must lie in (0, {limit:.6g}), got {xi}")
    root = math.sqrt(xi)
    return 2.0 * root * math.tan(root * length / 2.0)


def optimal_eigenvalue_interval(length: float, mass: float) -> float:
    """Inverse of interval_mass_function at a given mass (bisection)."""
    if mass <= 0:
        raise ArgumentError("mass must be positive")
    limit = (math.pi / length) ** 2
    lo, hi = _EDGE_EPS * limit, limit * (1.0 - 1e-14)

    def f(xi):
        return interval_mass_function(length, xi) - mass

    if f(lo) > 0:
        return lo
    return _bisect(f, lo, hi)
