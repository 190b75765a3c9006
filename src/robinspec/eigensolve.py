"""Sparse SPD linear solves and the lowest eigenpair of A x = lambda M x.

Every eigensolve returns the lowest eigenpair only.  Every pencil runs
LOBPCG (Knyazev, SISC 23, 2001) for one vector, preconditioned by a solve
with a shifted pencil S = A - tau M (`shifted_factor`): its LU, or a
V-cycle over a coarse LU of it.  LOBPCG is this module's own single-vector
kernel (`_lobpcg`): a step is one preconditioner solve, the products of
one vector with A and M, and a Ritz problem of size 3 at most.  It raises
ConvergenceError on a breakdown instead of warning, so it touches no
process-wide state and threads run it without a lock.

A pencil on a refined planar mesh above `_COARSE_NODES` nodes runs on its
hierarchy: `shifted_factor` coarsens S by Galerkin products P^T S P down
to the first level with at most `_COARSE_NODES` nodes, factors that level
once and stacks one `_VCycle` per level above it, each smoothing at its
level's own Gershgorin weight, so the fine mesh is never factored.  Robin
pencils run on the mesh's hierarchy, and pencils pinned on gamma or the
boundary on its restriction to their free nodes (`assembly.hierarchy`),
where the V-cycle also preconditions the conjugate gradients of
`solve_spd_cg`.
Pencils keep an LU of their own where there is no such hierarchy:
intervals (whose tridiagonal LU has no fill), meshes without coarser
levels (read from a file) or with at most `_COARSE_NODES` nodes (free
nodes, where pinned), and the first level of a refinement chain.

Every stop and gate is one rule on the residual r = A x - rho M x of the
M-normalised iterate and its Ritz value (`_yardstick`): ||M_lump^-1/2 r||
<= tol |rho| + `_ROUNDOFF` lambda_est, free of units and of sigma.  A
pencil solved on its own is preconditioned by its own shifted pair,
started from solver^-1 M 1 and stopped at tol = `_OWN_RTOL`, above where
the residual levels off (at most 4e-12 on the square at level 3 for sigma
up to 1e200).  It takes a handful of LU applications: 5-9 for sigma from
1 to 1000 on the square at level 7 and the disk at level 6, 0 or 1 near
sigma = 0; on the hierarchy, for sigma from 1e-3 to 1e5 at levels 5 and 6,
it takes 6-11 V-cycles on the square and 12-20 on the disk.  A run on a
V-cycle gives up once its pace would miss the stop at the step cap, as on
the stretched elements of thin or obtuse domains, and the pencil is then
factored and solved on its own LU (`lowest_alone`).

`solve_spd_cg` solves a pinned resolvent system (K - xi M) U = M 1 by
conjugate gradients on the V-cycle of K - tau M.  Started from the
Galerkin model's U at xi (`mixed_dn`), it takes 3-19 V-cycles per solve on
the square at level 7 for masses from 0.05 to 1e5 (14-19 for the first,
7-12 for the second, 3-6 for a step from inside the stop), and 23-34
near the margin xi -> E1 (1 - 1e-9), where K - xi M is nearly singular.

`NearbyPencils` solves a sequence of nearby pencils in order: a family
that shares M (one Robin problem under a range of boundary coefficients)
or a chain of uniformly refined meshes.  Each pencil is warm-started from
the last and stops at tol = `_NEARBY_RTOL`; one it cannot finish is
factored and solved on its own LU.  After such a fallback a family takes
the new LU as its reference and stays on LUs, while a chain stops
nesting.

Every path returns the Rayleigh quotient of its M-normalised vector as the
eigenvalue, accurate to the square of the residual: within 4e-14 |rho|
(|rho| / gap) at tol = 1e-7, gap the distance to the next eigenvalue.  The
gate is the rule at tol = `_NEARBY_RTOL`.  A LOBPCG breakdown, a run over
the step cap and a result over the gate all raise ConvergenceError with the
same diagnostics: the preconditioner applications (`iterations`), the
residual reached (`residual`, None where no vector came back) and the bound
it had to meet (`bound`).

Every factorization is a sparse LU in SuperLU's own column order (COLAMD),
with diagonal pivots in symmetric mode, as the matrices factored here are
symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ArgumentError, ConvergenceError, MatrixError

# the smallest relative difference between eigenvalues solves resolve
DEFAULT_TOL = 1e-10
_LOBPCG_STEPS = 40
# the first application at which a paced LOBPCG run judges its rate
_PACE_FROM = 2
# tol of a run on its own pair and of a warm-started one (and the gate), and
# the floor and the shift in units of lambda_est (see `_yardstick`)
_OWN_RTOL = 5e-12
_NEARBY_RTOL = 1e-7
_ROUNDOFF = 1e-15
_SHIFT = 1e-12
# Jacobi steps before and after the V-cycle's coarse correction, and their
# weight times a bound on each level's lambda_max(diag(S)^-1 S) (see _VCycle)
_SWEEPS = 2
_SMOOTHING = 1.6
# `shifted_factor` coarsens a pencil on a hierarchy to at most this many
# nodes and factors that level
_COARSE_NODES = 1000
# a family on a hierarchy builds a new reference for the member after one that
# took more preconditioner applications than this: a V-cycle costs about nine
_REREFERENCE = 12
# `solve_spd_cg` stops at this recursive residual relative to ||b||, near
# the float64 floor.  The mass curve's roots hardly depend on it: over the
# square, triangle, disk and L-shape at levels 5-7 and masses 1e-3 to 1e10,
# a stop of 1e-12 moves them by at most 4e-16 relative, and on the square
# at level 7 it leaves the same last |F - m| (1.4e-10 m at m = 1e5, the
# floor of F there) for 19 % fewer V-cycles (292 against 361 over masses
# 0.05 to 1e10); the resolvents themselves are then less exact
_CG_RTOL = 1e-14
# far above the 2-53 steps of the pinned resolvents (square, triangle,
# disk and L-shape at levels 5-7, masses 1e-3 to 1e10); the gates judge a run
# that reaches it
_CG_STEPS = 200


@dataclass(frozen=True, eq=False)
class EigResult:
    """The lowest eigenvalue and its M-normalised eigenvector.

    residual = ||A x - value M x||_2.  iterations counts preconditioner
    applications of LOBPCG, 0 on a run whose start already meets its stop.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _inf_norm_estimate(a: sp.spmatrix) -> float:
    """max_i sum_j |a_ij|, 0 without entries.  The row sums are the ones
    `np.abs(a).sum(axis=1)` gives on CSR, without copying the matrix:
    `reduceat` over the starts of the non-empty rows only, as it would
    mis-sum an empty row and fail on a trailing one."""
    a = sp.csr_matrix(a)
    filled = np.flatnonzero(np.diff(a.indptr))
    if len(filled) == 0:
        return 0.0
    return float(np.max(np.add.reduceat(np.abs(a.data), a.indptr[filled])))


def _factor(a: sp.spmatrix):
    """Sparse LU of a in SuperLU's COLAMD order with diagonal pivots."""
    return splu(sp.csc_matrix(a), diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def solve_spd(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Direct sparse factorization plus iterative refinement targeting
    ||Ax - b|| <= 1e-12 ||b||; stiff systems where that is below the
    float64 floor are accepted at backward error 1e-12 relative to
    ||b|| + ||A|| ||x|| instead.  Raises MatrixError on factorization
    breakdown, on a backward-unstable residual, or when negative curvature
    (b.x < 0) reveals an indefinite matrix.
    """
    norm_a = _inf_norm_estimate(a)
    a = sp.csc_matrix(a)
    b = np.asarray(b, dtype=float)
    try:
        lu = _factor(a)
    except RuntimeError as exc:
        raise MatrixError(f"factorization breakdown: {exc}") from exc
    x = lu.solve(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    for _ in range(5):
        res = np.linalg.norm(b - a @ x)
        if res <= 1e-12 * norm_b:
            break
        x_new = x + lu.solve(b - a @ x)
        if np.linalg.norm(b - a @ x_new) >= res:
            break  # refinement hit the float64 floor
        x = x_new
    return _gated(a, b, x, norm_a)


def solve_spd_cg(a: sp.spmatrix, b: np.ndarray, solver, x0) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by conjugate
    gradients preconditioned by solver.solve, a symmetric positive definite
    approximation of A^-1 (a `shifted_factor` V-cycle of a nearby pencil).
    It starts from the multiple of x0 nearest the solution in the A-norm,
    (x0.b / x0.A x0) x0, so a guess of the wrong scale is rescaled, not
    iterated away, or from zero where x0 is None.

    The run stops once its recursive residual is below `_CG_RTOL` ||b||,
    near the float64 floor, or after `_CG_STEPS` steps, and its result
    passes `solve_spd`'s gates.  A step of non-positive curvature
    (p.A p <= 0) raises MatrixError too.
    """
    a = sp.csr_matrix(a)
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        curvature = x0 @ (a @ x0)
        if curvature > 0.0:
            x = (x0 @ b / curvature) * x0
    r = b - a @ x
    stop = _CG_RTOL * np.linalg.norm(b)
    z = solver.solve(r)
    p = z
    rz = r @ z
    for _ in range(_CG_STEPS):
        if not np.linalg.norm(r) > stop:
            break
        q = a @ p
        curvature = p @ q
        if not curvature > 0.0:
            raise MatrixError("negative curvature detected: matrix is not positive definite")
        step = rz / curvature
        x += step * p
        r -= step * q
        z = solver.solve(r)
        rz, last = r @ z, rz
        p = z + (rz / last) * p
    return _gated(a, b, x, _inf_norm_estimate(a))


def _gated(a, b: np.ndarray, x: np.ndarray, norm_a: float) -> np.ndarray:
    """x, once it passes the gates of `solve_spd`: a backward error of at
    most 1e-12 relative to ||b|| + ||A||_inf ||x||, and b.x >= 0."""
    res = np.linalg.norm(b - a @ x)
    if not res <= 1e-12 * (np.linalg.norm(b) + norm_a * np.linalg.norm(x)):
        raise MatrixError("residual stalled: matrix numerically singular")
    if float(b @ x) < 0.0:
        raise MatrixError("negative curvature detected: matrix is not positive definite")
    return x


def _yardstick(a: sp.spmatrix, m: sp.spmatrix):
    """(M_lump, M_lump^-1/2, lambda_est) of the pencil (A, M), for the rule
    ||M_lump^-1/2 r|| <= tol |rho| + `_ROUNDOFF` lambda_est: M_lump = M 1 is
    the lumped mass and lambda_est = max_i -sum_j min(a_ij, 0) / (M_lump)_i
    a lambda_max estimate.  For P1, M >= M_lump / 4, so with x M-normalised
    |lambda - rho| <= ||r||_M^-1 <= 2 ||M_lump^-1/2 r|| (Parlett, The
    Symmetric Eigenvalue Problem, 1998), and both sides of the rule scale as
    lambda under x -> t x.  B(sigma) only adds positive entries to boundary
    rows, so sigma never raises lambda_est.  The floor is for lambda at
    round-off: a Neumann pencil's constant vector has a residual of 0.3-0.8
    eps lambda_est (square, triangle, disks, L-shape, thin and obtuse
    domains at levels 2-7)."""
    lumped = m @ np.ones(m.shape[0])
    negative = a.minimum(0.0) @ np.ones(a.shape[0])
    return lumped, 1.0 / np.sqrt(lumped), float(np.max(-negative / lumped))


def shifted_factor(a: sp.spmatrix, m: sp.spmatrix, levels=()):
    """(tau, solver): the shifted pair `smallest_eigs` preconditions the
    pencil (A, M) with.  tau is `_SHIFT` times the pencil's lambda_max
    estimate (`_yardstick`), negative, so a Neumann kernel leaves
    S = A - tau M positive definite, and far below lambda_1 elsewhere.

    levels are the prolongations of a planar mesh's hierarchy
    (`assembly.hierarchy`), finest first, each from a level onto the one
    above it.  S is coarsened by Galerkin products P^T S P down to the first
    level with at most `_COARSE_NODES` rows, that level is factored once,
    and solver is one `_VCycle` per level above it.  Without levels, or for
    a pencil that small, solver is the sparse LU of S itself.
    """
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    tau = -_SHIFT * _yardstick(a, m)[2]
    shifted = a - tau * m
    cycles = []
    for prolongation in levels:
        if shifted.shape[0] <= _COARSE_NODES:
            break
        cycles.append((shifted, prolongation))
        shifted = (prolongation.T @ (shifted @ prolongation)).tocsr()
    try:
        solver = _factor(shifted)
    except RuntimeError as exc:
        raise MatrixError(f"shifted factorization failed: {exc}") from exc
    for fine, prolongation in reversed(cycles):
        solver = _VCycle(fine, prolongation, solver, cap=3)  # planar: d + 1
    return tau, solver


def on_hierarchy(pair) -> bool:
    """Whether a `shifted_factor` pair's solver is a V-cycle over a coarser
    level's LU rather than an LU of S itself."""
    return isinstance(pair[1], _VCycle)


def eigenvalue_floor(value: float, a: sp.spmatrix, m: sp.spmatrix) -> float:
    """The smallest difference between eigenvalues near `value` of the
    pencil (a, m) (or of pencils of its mesh) that `smallest_eigs` resolves:
    `DEFAULT_TOL` |value| plus `_ROUNDOFF` times the pencil's lambda_max
    estimate (`_yardstick`), where value itself is round-off (sigma = 0).
    Differences below it may be round-off, or where each solve stopped
    inside its gate."""
    return DEFAULT_TOL * abs(value) + _ROUNDOFF * _yardstick(a, m)[2]


def _failure(message: str, iterations: int, residual, bound: float) -> ConvergenceError:
    return ConvergenceError(message, diagnostics={
        "iterations": iterations, "residual": residual, "bound": bound})


def _normalised(a, m, x: np.ndarray):
    """(value, x, r): x M-normalised, its Rayleigh quotient and the residual
    A x - value M x."""
    x = x / np.sqrt(x @ (m @ x))
    value = float(x @ (a @ x))
    return value, x, a @ x - value * (m @ x)


def _lobpcg(a, m, lu, x0: np.ndarray, tol: float, floor: float, weights, paced: bool = False):
    """Single-vector LOBPCG (Knyazev, SISC 23, 2001) for the lowest eigenpair
    of (A, M) from x0, preconditioned by lu.solve, to ||weights r|| <= tol
    |rho| + floor (`_yardstick`); returns (vector, number of preconditioner
    applications).  A paced run also gives up, from `_PACE_FROM`
    applications on, once that residual, falling at its mean rate so far,
    would still be above the stop at the step cap.

    The basis rows are the iterate x, the preconditioned residual w, made
    M-orthogonal to x and M-normal, and the last step p, M-normal, each
    carried with its A- and M-image.  A step applies the preconditioner
    once, multiplies w by A and M, and takes the lowest Ritz pair of the
    basis: 2 x 2 on the first step, 3 x 3 after it, and 2 x 2 again where p
    leaves the M-Gram matrix indefinite.  A start that meets the stop takes
    no application.  A zero or non-finite start or preconditioner output, a
    Ritz problem that fails without p, and a run that needs more than
    `_LOBPCG_STEPS` applications raise ConvergenceError.
    """
    basis = np.empty((3, a.shape[0]))
    a_basis = np.empty_like(basis)
    m_basis = np.empty_like(basis)
    x = np.ravel(x0).astype(float)
    mx = m @ x
    square = x @ mx
    if not (np.isfinite(square) and square > 0.0):
        raise _failure("LOBPCG breakdown: a start of zero or non-finite M-norm", 0, None, floor)
    basis[0] = x / np.sqrt(square)
    m_basis[0] = mx / np.sqrt(square)
    a_basis[0] = a @ basis[0]
    rho = basis[0] @ a_basis[0]
    rows = 2  # x and w; p joins after the first step
    for applications in range(_LOBPCG_STEPS + 1):
        r = a_basis[0] - rho * m_basis[0]
        residual = float(np.linalg.norm(weights * r))
        stop = tol * abs(rho) + floor
        if residual <= stop:
            return basis[0].copy(), applications
        if applications == 0:
            first = residual
        if applications == _LOBPCG_STEPS:
            raise _failure("LOBPCG did not converge within its step cap", applications + 1,
                           residual, stop)
        if (paced and applications >= _PACE_FROM
                and np.log(residual / first) * _LOBPCG_STEPS / applications > np.log(stop / first)):
            raise _failure("LOBPCG would not converge within its step cap at its pace",
                           applications, residual, stop)
        w = lu.solve(r)
        square = 0.0
        if np.isfinite(w).all():
            w -= (m_basis[0] @ w) * basis[0]
            mw = m @ w
            square = w @ mw
        if not (np.isfinite(square) and square > 0.0):
            raise _failure("LOBPCG breakdown: a zero or non-finite preconditioned residual",
                           applications + 1, residual, stop)
        np.divide(w, np.sqrt(square), out=basis[1])
        np.divide(mw, np.sqrt(square), out=m_basis[1])
        a_basis[1] = a @ basis[1]
        for size in range(rows, 1, -1):
            gram_a = basis[:size] @ a_basis[:size].T
            gram_m = basis[:size] @ m_basis[:size].T
            try:
                values, vectors = scipy.linalg.eigh((gram_a + gram_a.T) / 2,
                                                    (gram_m + gram_m.T) / 2, check_finite=False)
            except np.linalg.LinAlgError:
                continue
            break
        else:
            raise _failure("LOBPCG breakdown: the Ritz problem failed", applications + 1,
                           residual, stop)
        c = vectors[:, 0]
        rho = values[0]
        # the step is the new iterate's move off x: form it from the old rows
        # before x takes it in and it replaces p
        steps = [c[1:] @ v[1:size] for v in (basis, a_basis, m_basis)]
        for v, step in zip((basis, a_basis, m_basis), steps):
            v[0] *= c[0]
            v[0] += step
        square = steps[0] @ steps[2]
        rows = 3 if np.isfinite(square) and square > 0.0 else 2
        if rows == 3:
            for v, step in zip((basis, a_basis, m_basis), steps):
                np.divide(step, np.sqrt(square), out=v[2])


def smallest_eigs(a: sp.spmatrix, m: sp.spmatrix, factor=None, start=None) -> EigResult:
    """The lowest eigenpair of the symmetric pencil (A, M), A PSD, M SPD with
    positive row sums (a P1 mass matrix).

    The eigenvalue is the Rayleigh quotient of the M-normalised vector.
    Without start LOBPCG runs on the pencil's own shifted pair from
    solver^-1 M 1 to the rule of `_yardstick` at tol = `_OWN_RTOL`; factor
    is the pencil's `shifted_factor(a, m)` pair to reuse, and without one
    the pair is made here, on the pencil's own LU; a run on a V-cycle is
    paced (see `_lobpcg`), and `lowest_alone` falls back from one that gives
    up.  start = (pair, guess) is a `shifted_factor` pair of a nearby pencil
    (or a pair whose second item has the same solve) and a start vector:
    LOBPCG runs from guess, preconditioned by the pair, to tol =
    `_NEARBY_RTOL`, the gate of every result.  A start that lacks either
    item raises ArgumentError before any solve; a breakdown, a run over the
    step cap or a result over the gate raises ConvergenceError.
    """
    if start is not None and (start[0] is None or start[1] is None):
        raise ArgumentError("start takes a nearby shifted pair and a guess, both given")
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    lumped, weights, scale = _yardstick(a, m)
    floor = _ROUNDOFF * scale
    # overflow and 0/0 show as non-finite values, which the checks below raise on
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if start is not None:
            lu, x0, tol = start[0][1], np.asarray(start[1], dtype=float), _NEARBY_RTOL
        else:
            _, lu = factor if factor is not None else shifted_factor(a, m)
            x0, tol = lu.solve(lumped), _OWN_RTOL
        # an own run on a V-cycle can fall back on the fine LU
        x, iterations = _lobpcg(a, m, lu, x0, tol, floor, weights,
                                paced=start is None and isinstance(lu, _VCycle))
        value, x, r = _normalised(a, m, x)
        bound = _NEARBY_RTOL * abs(value) + floor
        judged = float(np.linalg.norm(weights * r))
    if not (np.isfinite(bound) and judged <= bound):
        raise _failure("eigenpair residual above tolerance", iterations, judged, bound)
    return EigResult(value, x, float(np.linalg.norm(r)), iterations)


class _VCycle:
    """One symmetric V-cycle for S = A - tau M on a refined mesh, with an
    LU's solve contract: `_SWEEPS` damped-Jacobi steps on S from zero, the
    coarse correction P coarse.solve(P^T r), and `_SWEEPS` more.

    With W = omega diag(S)^-1, Q = (I - W S)^_SWEEPS and C the coarse solve,
    the cycle is B = S^-1 - Q S^-1 Q^T + Q P C P^T Q^T, symmetric when C is.
    omega is `_SMOOTHING` / min(g, cap), with g = max_i sum_j |s_ij| / s_ii
    the level's Gershgorin bound on lambda_max(diag(S)^-1 S) (2 on every
    level of the refined square, disk and triangle) and cap = d + 1 the
    bound for P1 elements in d dimensions, which holds for a Galerkin P^T S P
    too: it sums one positive semidefinite block of size d + 1 per coarse
    element.  So lambda_max(W S) < 2, the smoother contracts in the S-norm,
    S^-1 - Q S^-1 Q^T is positive definite, and so is B whenever C is
    positive semidefinite.
    """

    def __init__(self, shifted: sp.csr_matrix, prolongation: sp.spmatrix, coarse, cap: int):
        self.shifted = shifted
        self.prolongation = sp.csr_matrix(prolongation)
        self.restriction = self.prolongation.T.tocsr()
        self.coarse = coarse
        diagonal = shifted.diagonal()  # in every row, so no row is empty
        rows = np.add.reduceat(np.abs(shifted.data), shifted.indptr[:-1])
        self.weights = _SMOOTHING / min(np.max(rows / diagonal), cap) / diagonal

    def _smooth(self, x: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
        for _ in range(sweeps):
            x += self.weights * (b - self.shifted @ x)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the first step from zero is W b
        x = self._smooth(self.weights * b, b, _SWEEPS - 1)
        x += self.prolongation @ self.coarse.solve(self.restriction @ (b - self.shifted @ x))
        return self._smooth(x, b, _SWEEPS)


class NearbyPencils:
    """Lowest eigenpairs of a sequence of nearby pencils, solved in order,
    each warm-started from the last.

    The next pencil runs LOBPCG from the last eigenvector, preconditioned by
    the last pencil's shifted pair: a family of pencils (A_j, M) that share
    M, such as one Robin problem under a range of boundary coefficients,
    keeps one preconditioner.  With a prolongation from the last pencil's
    nodes, as on a chain of uniformly refined meshes (each level started
    from the one below: Knyazev and Neymeyr, ETNA 15, 2003), it runs from
    the prolonged eigenvector, preconditioned by a `_VCycle` on the same
    shift whose coarse solve is the last preconditioner, and that cycle
    preconditions the level after.  Both stop at the rule of `_yardstick`
    with tol = `_NEARBY_RTOL`.

    The first pencil without a reference is solved on its own
    `shifted_factor` pair, as `smallest_eigs` solves a pencil alone: a
    V-cycle over its hierarchy's coarse LU where it is given the
    prolongations of coarser levels, its own LU otherwise.  A pencil that
    LOBPCG does not bring through the stop, within `_LOBPCG_STEPS`
    iterations as a warm-started member or at its pace on its own V-cycle,
    is factored and solved on its own LU; `fallbacks` counts these.  A
    family takes the pair it solved a pencil on alone as its reference, and
    after a fallback it stays on LUs.  On a V-cycle, the member after one
    that took more than `_REREFERENCE` applications runs on a new V-cycle,
    the family's next reference.  A fallback ends a chain's nesting: every
    later level is factored.

    reference is a nearby pencil's `shifted_factor` pair on the first
    pencil's nodes, which the first pencil then runs on from
    solver^-1 M 1.
    """

    def __init__(self, dim: int, reference=None):
        self._cap = dim + 1  # the weight's cap in a chain's cycles (see _VCycle)
        self.fallbacks = 0
        self._pair = reference  # (tau, solver) that preconditions the next pencil
        self._vector = None
        self._stale = False  # the last member took more than _REREFERENCE applications

    def lowest(self, a: sp.spmatrix, m: sp.spmatrix, levels,
               prolongation: sp.spmatrix = None) -> EigResult:
        """The lowest eigenpair of the next pencil (a, m).

        levels are the prolongations of its hierarchy, as in
        `shifted_factor`, or () for a pencil on its own LU; prolongation
        maps the last pencil's vectors onto this one's nodes.
        """
        a = sp.csr_matrix(a)
        m = sp.csr_matrix(m)
        if self._pair is not None:
            tau, solver = pair = self._pair
            if prolongation is not None:
                pair = (tau, _VCycle((a - tau * m).tocsr(), prolongation, solver, self._cap))
                guess = prolongation @ self._vector
            elif self._vector is not None:
                guess = self._vector
                if self._stale and isinstance(solver, _VCycle):  # a family on LUs keeps its LU
                    pair = shifted_factor(a, m, levels)
            else:
                guess = solver.solve(m @ np.ones(m.shape[0]))
            try:
                res = smallest_eigs(a, m, start=(pair, guess))
            except ConvergenceError:
                self.fallbacks += 1
                self._pair = self._vector = None  # release the LU or hierarchy
            else:
                self._stale = res.iterations > _REREFERENCE
                self._pair, self._vector = pair, res.vector
                return res
        res, factor, fell_back = lowest_alone(a, m, () if self.fallbacks else levels)
        self.fallbacks += fell_back
        if prolongation is None or not self.fallbacks:
            self._pair, self._vector = factor, res.vector
        return res


def lowest_alone(a: sp.spmatrix, m: sp.spmatrix, levels):
    """(EigResult, pair, fell back): the lowest eigenpair of the pencil
    (a, m) solved on its own, as `smallest_eigs` solves it, and the
    `shifted_factor` pair it was solved on.  levels are as in
    `shifted_factor`.  Where the pair is a V-cycle the run is paced, and a
    run that gives up falls back on the pencil's own LU, which the pair then
    is."""
    factor = shifted_factor(a, m, levels)
    try:
        return smallest_eigs(a, m, factor=factor), factor, False
    except ConvergenceError:
        if not on_hierarchy(factor):
            raise
    factor = shifted_factor(a, m)
    return smallest_eigs(a, m, factor=factor), factor, True
