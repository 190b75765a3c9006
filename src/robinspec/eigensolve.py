"""Sparse SPD linear solves and the lowest eigenpair of A x = lambda M x.

Every eigensolve returns the lowest eigenpair only.  Pencils of dense size
(n <= 40) are solved by a dense generalized eigensolve; every larger pencil
runs LOBPCG (Knyazev, SISC 23, 2001) for one vector, preconditioned by a
solve with a shifted pencil S = A - tau M (`shifted_factor`): its LU, or a
V-cycle over a coarse LU of it.  LOBPCG is this module's own single-vector
kernel (`_lobpcg`): a step is one preconditioner solve, the products of
one vector with A and M, and a Ritz problem of size 3 at most.  It raises ConvergenceError on a breakdown instead of warning,
so it touches no process-wide state and threads run it without a lock.

A pencil on a refined planar mesh above `_COARSE_NODES` nodes runs on its
hierarchy: `shifted_factor` coarsens S by Galerkin products P^T S P down
to the first level with at most `_COARSE_NODES` nodes, factors that level
once, in its own mesh's order, and stacks one `_VCycle` per level above
it, so the fine mesh is neither factored nor ordered.  Robin pencils run
on the mesh's hierarchy, and pencils pinned on gamma or the boundary on
its restriction to their free nodes (`assembly.hierarchy`), where the
V-cycle also preconditions the conjugate gradients of `solve_spd_cg`.
Pencils keep an LU of their own where there is no such hierarchy:
intervals (whose tridiagonal LU has no fill), meshes without coarser
levels or at most `_COARSE_NODES` nodes (free nodes, where pinned), and
the levels of a refinement chain.

A pencil solved on its own is preconditioned by its own shifted pair and
started from solver^-1 M 1.  That run stops at round-off, at a residual of
max(1e-12 |rho| ||M||_inf, 1e-14 max(||A||_inf, 1)) with rho the Rayleigh
quotient of the start; the floor holds where lambda itself is at round-off
(sigma = 0) and where the residual cannot be formed more finely.
It takes a handful of LU applications: 5-9 for sigma from 1 to 1000 on the
square at level 7 and the disk at level 6, 0 or 1 near sigma = 0; on the
hierarchy, for sigma from 1e-3 to 1e5 at levels 5 and 6, it takes 7-14
V-cycles on the square and 16-25 on the disk.  A run on a V-cycle gives up
once its pace would miss the stop at the step cap, as on the stretched
elements of thin or obtuse domains, and the pencil is then factored and
solved on its own LU (`lowest_alone`).

`solve_spd_cg` solves a pinned resolvent system (K - xi M) U = M 1 by
conjugate gradients on the V-cycle of K - tau M.  Warm-started from the
last Newton step's U, it takes 3-25 V-cycles per solve on the square at
level 7 for masses from 0.05 to 1e4, and 31-39 near the margin
xi -> E1 (1 - 1e-9), where K - xi M is nearly singular.

`NearbyPencils` solves a sequence of nearby pencils in order: a family
that shares M (one Robin problem under a range of boundary coefficients)
or a chain of uniformly refined meshes.  Each pencil is warm-started from
the last and stops at `DEFAULT_TOL` times max(||A||_inf, 1); one it cannot
finish is factored and solved on its own LU.  After such a fallback a
family takes the new LU as its reference and stays on LUs, while a chain
stops nesting.  A family on a V-cycle takes a new V-cycle reference from
each member that needed more than `_REREFERENCE` (12) applications, since
a new V-cycle costs a few applications and a fine LU tens.

Every path returns the Rayleigh quotient of its M-normalised vector as the
eigenvalue, so the value is accurate to the square of the residual, and
every result passes one gate: ||A x - lambda M x|| <= `DEFAULT_TOL` times
max(||A||_inf + |lambda| ||M||_inf, 1).  A LOBPCG breakdown, a run over the
step cap and a result over the gate all raise ConvergenceError with the
same diagnostics: the preconditioner applications (`iterations`), the
residual reached (`residual`, None where no vector came back) and the
bound it had to meet (`bound`).

Factorizations take an `order`: a fill-reducing permutation, which callers
on a mesh take from `assembly.operators(mesh).order` (nested dissection of
the mesh's node graph, restricted to the free nodes where nodes are
eliminated).  The permuted matrix is factored in that order with diagonal
pivots, as the matrices factored here are symmetric positive definite, and
solves permute the right-hand side in and the solution out.  The order may
also be given as a function returning it, which is called only when a
factorization is made, so callers that may not factor (a dense-size
pencil, a pencil with a ready factor) do not compute it.  Without an
order SuperLU picks its own column ordering (COLAMD); that path is for
matrices that come without a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ArgumentError, ConvergenceError, MatrixError

# the relative tolerance of the eigenpair residual gate
DEFAULT_TOL = 1e-10
_DENSE_CUTOFF = 40
_LOBPCG_STEPS = 40
# the first application at which a paced LOBPCG run judges its rate
_PACE_FROM = 2
# the round-off stop of a pencil's run on its own LU: relative to the start's
# Rayleigh quotient, with an absolute floor for eigenvalues at round-off
_OWN_RTOL = 1e-12
_OWN_FLOOR = 1e-14
# Jacobi steps before and after the V-cycle's coarse correction, and their
# weight omega times d + 1 (below 2, see _VCycle)
_SWEEPS = 2
_SMOOTHING = 1.6
# `shifted_factor` coarsens a pencil on a hierarchy to at most this many
# nodes and factors that level
_COARSE_NODES = 1000
# a family on a hierarchy builds a new reference from a member that took
# more preconditioner applications than this: a V-cycle costs a few
_REREFERENCE = 12
# `solve_spd_cg` stops at this recursive residual relative to ||b||, near
# the float64 floor: Newton on the mass curve reads F from b.x, and its
# last step at m = 1e5 (square, level 7) left |F - m| = 6e-11 m at a stop
# of 1e-12 but 1.3e-12 m at 1e-14, for about 15 % more V-cycles
_CG_RTOL = 1e-14
# far above the 3-39 steps of the pinned resolvents; the gates judge a run
# that reaches it
_CG_STEPS = 200


@dataclass(frozen=True, eq=False)
class EigResult:
    """The lowest eigenvalue and its M-normalised eigenvector.

    residual = ||A x - value M x||_2.  iterations counts preconditioner
    applications of LOBPCG: 0 on the dense path, and 0 on a LOBPCG run whose
    start already meets its stop.
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


class _OrderedLU:
    """LU of A[order][:, order]; solve takes and returns vectors in A's
    numbering."""

    def __init__(self, lu, order: np.ndarray):
        self.lu = lu
        self.order = order
        self.inverse = np.argsort(order)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.inverse]


def _factor(a: sp.spmatrix, order=None):
    """Sparse LU of a with a `solve` method: in the given order (or the
    order a given function returns) with diagonal pivots, or by default in
    SuperLU's COLAMD order."""
    if order is None:
        return splu(sp.csc_matrix(a))
    if callable(order):
        order = order()
    permuted = sp.csr_matrix(a)[order][:, order].tocsc()
    return _OrderedLU(splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True}), order)


def solve_spd(a: sp.spmatrix, b: np.ndarray, order=None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Direct sparse factorization plus iterative refinement targeting
    ||Ax - b|| <= 1e-12 ||b||; stiff systems where that is below the
    float64 floor are accepted at backward error 1e-12 relative to
    ||b|| + ||A|| ||x|| instead.  Raises MatrixError on factorization
    breakdown, on a backward-unstable residual, or when negative curvature
    (b.x < 0) reveals an indefinite matrix.  order is a fill-reducing
    permutation of a's rows and columns (see the module docstring).
    """
    norm_a = _inf_norm_estimate(a)
    a = sp.csc_matrix(a)
    b = np.asarray(b, dtype=float)
    try:
        lu = _factor(a, order)
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


def shifted_factor(a: sp.spmatrix, m: sp.spmatrix, order=None):
    """(tau, solver): the shifted pair `smallest_eigs` preconditions the
    pencil (A, M) with.  tau is a small negative multiple of A's mean
    diagonal, so a Neumann kernel leaves S = A - tau M positive definite.

    order is S's fill-reducing order (or a function returning it), and
    solver is the sparse LU of S factored in that order.  order may also be
    a hierarchy (`assembly.hierarchy`): a list of that order followed by
    one (P, order) pair per coarser level of a planar mesh, finest first,
    with P the prolongation from the level onto the one above it and order
    the level's own.  S is then coarsened by Galerkin products P^T S P down
    to the first level with at most `_COARSE_NODES` rows, that level is
    factored once, in its own order, and solver is one `_VCycle` per level
    above it; a pencil that small is factored itself.
    """
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    tau = -1e-8 * max(float(a.diagonal().sum()), 1.0) / a.shape[0]
    shifted = a - tau * m
    order, coarser = _levels(order)
    cycles = []
    for prolongation, coarse_order in coarser:
        if shifted.shape[0] <= _COARSE_NODES:
            break
        cycles.append((shifted, prolongation))
        shifted = (prolongation.T @ (shifted @ prolongation)).tocsr()
        order = coarse_order
    try:
        solver = _factor(shifted, order)
    except RuntimeError as exc:
        raise MatrixError(f"shifted factorization failed: {exc}") from exc
    for fine, prolongation in reversed(cycles):
        solver = _VCycle(fine, prolongation, solver, _SMOOTHING / 3)
    return tau, solver


def on_hierarchy(pair) -> bool:
    """Whether a `shifted_factor` pair's solver is a V-cycle over a coarser
    level's LU rather than an LU of S itself."""
    return isinstance(pair[1], _VCycle)


def _levels(order):
    """(the pencil's own order, its coarser levels) of `shifted_factor`'s
    order argument."""
    return (order[0], order[1:]) if isinstance(order, list) else (order, [])


def eigenvalue_floor(value: float) -> float:
    """The smallest difference between eigenvalues near `value` that
    `smallest_eigs` resolves: `DEFAULT_TOL` times max(|value|, 1).
    Differences below it may be round-off, or where each solve stopped
    inside the gate."""
    return DEFAULT_TOL * max(abs(value), 1.0)


def _dense(n: int) -> bool:
    return n <= _DENSE_CUTOFF


def _failure(message: str, iterations: int, residual, bound: float) -> ConvergenceError:
    return ConvergenceError(message, diagnostics={
        "iterations": iterations, "residual": residual, "bound": bound})


def _normalised(a, m, x: np.ndarray):
    """(value, x, residual): x M-normalised, its Rayleigh quotient and
    ||A x - value M x||."""
    x = x / np.sqrt(x @ (m @ x))
    value = float(x @ (a @ x))
    return value, x, float(np.linalg.norm(a @ x - value * (m @ x)))


def _lobpcg(a, m, lu, x0: np.ndarray, tol: float, paced: bool = False):
    """Single-vector LOBPCG (Knyazev, SISC 23, 2001) for the lowest eigenpair
    of (A, M) from x0, preconditioned by lu.solve, to residual tol; returns
    (vector, number of preconditioner applications).  A paced run also
    gives up, from `_PACE_FROM` applications on, once the residual, falling
    at its mean rate so far, would still be above tol at the step cap.

    The basis rows are the iterate x, the preconditioned residual w, made
    M-orthogonal to x and M-normal, and the last step p, M-normal, each
    carried with its A- and M-image.  A step applies the preconditioner
    once, multiplies w by A and M, and takes the lowest Ritz pair of the
    basis: 2 x 2 on the first step, 3 x 3 after it, and 2 x 2 again where p
    leaves the M-Gram matrix indefinite.  The run stops once
    ||A x - rho M x|| <= tol, with x M-normalised and rho its Ritz value, so
    a start that meets tol takes no application.  A zero or non-finite start
    or preconditioner output, a Ritz problem that fails without p, and a run
    that needs more than `_LOBPCG_STEPS` applications raise ConvergenceError.
    """
    basis = np.empty((3, a.shape[0]))
    a_basis = np.empty_like(basis)
    m_basis = np.empty_like(basis)
    x = np.ravel(x0).astype(float)
    mx = m @ x
    square = x @ mx
    if not (np.isfinite(square) and square > 0.0):
        raise _failure("LOBPCG breakdown: a start of zero or non-finite M-norm", 0, None, tol)
    basis[0] = x / np.sqrt(square)
    m_basis[0] = mx / np.sqrt(square)
    a_basis[0] = a @ basis[0]
    rho = basis[0] @ a_basis[0]
    rows = 2  # x and w; p joins after the first step
    for applications in range(_LOBPCG_STEPS + 1):
        r = a_basis[0] - rho * m_basis[0]
        residual = float(np.linalg.norm(r))
        if residual <= tol:
            return basis[0].copy(), applications
        if applications == 0:
            first = residual
        if applications == _LOBPCG_STEPS:
            raise _failure("LOBPCG did not converge within its step cap", applications + 1,
                           residual, tol)
        if (paced and applications >= _PACE_FROM
                and np.log(residual / first) * _LOBPCG_STEPS / applications > np.log(tol / first)):
            raise _failure("LOBPCG would not converge within its step cap at its pace",
                           applications, residual, tol)
        w = lu.solve(r)
        square = 0.0
        if np.isfinite(w).all():
            w -= (m_basis[0] @ w) * basis[0]
            mw = m @ w
            square = w @ mw
        if not (np.isfinite(square) and square > 0.0):
            raise _failure("LOBPCG breakdown: a zero or non-finite preconditioned residual",
                           applications + 1, residual, tol)
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
                           residual, tol)
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


def smallest_eigs(a: sp.spmatrix, m: sp.spmatrix, factor=None, start=None,
                  order=None) -> EigResult:
    """The lowest eigenpair of the symmetric pencil (A, M), A PSD, M SPD.

    The eigenvalue is the Rayleigh quotient of the M-normalised vector, and
    its residual must pass the gate of the module docstring.  Without start
    LOBPCG runs on the pencil's own shifted LU from LU^-1 M 1 to round-off;
    factor is the pencil's `shifted_factor(a, m)` pair to reuse, and without
    one the pair is made here, in the given order; a run on a V-cycle is
    paced (see `_lobpcg`), and `NearbyPencils` falls back from one that
    gives up.  start = (pair, guess)
    is a `shifted_factor` pair of a nearby pencil (or a pair whose second
    item has the same solve) and a start vector: LOBPCG runs from guess,
    preconditioned by the pair, to `DEFAULT_TOL` times max(||A||_inf, 1).
    A start that lacks either item raises ArgumentError before any solve; a
    breakdown, a run over the step cap or a result over the gate raises
    ConvergenceError.  The dense path ignores factor, start and order.
    """
    if start is not None and (start[0] is None or start[1] is None):
        raise ArgumentError("start takes a nearby shifted pair and a guess, both given")
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    n = a.shape[0]
    norm_a = _inf_norm_estimate(a)
    norm_m = _inf_norm_estimate(m)
    # overflow and 0/0 show as non-finite values, which the checks below raise on
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if _dense(n):
            x, iterations = scipy.linalg.eigh(a.toarray(), m.toarray())[1][:, 0], 0
        else:
            if start is not None:
                # the gate's bound at lambda = 0, never above the bound at lambda
                lu, x0 = start[0][1], np.asarray(start[1], dtype=float)
                tol = DEFAULT_TOL * max(norm_a, 1.0)
            else:
                _, lu = factor if factor is not None else shifted_factor(a, m, order=order)
                x0 = lu.solve(m @ np.ones(n))
                floor = _OWN_FLOOR * max(norm_a, 1.0)
                square = float(x0 @ (m @ x0))
                if not (np.isfinite(square) and square > 0.0):
                    raise _failure("LOBPCG breakdown: a start of zero or non-finite M-norm",
                                   0, None, floor)
                rho = float(x0 @ (a @ x0)) / square
                tol = max(_OWN_RTOL * abs(rho) * norm_m, floor)
            # an own run on a V-cycle can fall back on the fine LU
            x, iterations = _lobpcg(a, m, lu, x0, tol,
                                    paced=start is None and isinstance(lu, _VCycle))
        value, x, residual = _normalised(a, m, x)
    bound = DEFAULT_TOL * max(norm_a + abs(value) * norm_m, 1.0)
    if not (np.isfinite(bound) and residual <= bound):
        raise _failure("eigenpair residual above tolerance", iterations, residual, bound)
    return EigResult(value, x, residual, iterations)


class _VCycle:
    """One symmetric V-cycle for S = A - tau M on a refined mesh, with
    `_OrderedLU`'s solve contract: `_SWEEPS` damped-Jacobi steps on S from
    zero, the coarse correction P coarse.solve(P^T r), and `_SWEEPS` more.

    With W = omega diag(S)^-1, Q = (I - W S)^_SWEEPS and C the coarse solve,
    the cycle is B = S^-1 - Q S^-1 Q^T + Q P C P^T Q^T, symmetric when C is.
    For P1 elements in d dimensions lambda_max(W S) <= omega (d + 1), which
    the weight keeps below 2, so the smoother contracts in the S-norm,
    S^-1 - Q S^-1 Q^T is positive definite, and so is B whenever C is
    positive semidefinite.  The bound holds for a Galerkin operator P^T S P
    of a refined mesh too: it sums one positive semidefinite block of size
    d + 1 per coarse element.
    """

    def __init__(self, shifted: sp.csr_matrix, prolongation: sp.spmatrix, coarse,
                 omega: float):
        self.shifted = shifted
        self.prolongation = sp.csr_matrix(prolongation)
        self.restriction = self.prolongation.T.tocsr()
        self.coarse = coarse
        self.weights = omega / shifted.diagonal()

    def _smooth(self, x: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
        for _ in range(sweeps):
            x = x + self.weights * (b - self.shifted @ x)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the first step from zero is W b
        x = self._smooth(self.weights * b, b, _SWEEPS - 1)
        x = x + self.prolongation @ self.coarse.solve(self.restriction @ (b - self.shifted @ x))
        return self._smooth(x, b, _SWEEPS)


class NearbyPencils:
    """Lowest eigenpairs of a sequence of nearby pencils, solved in order,
    each warm-started from the last.

    The next pencil runs LOBPCG from the last eigenvector, preconditioned by
    the last pencil's shifted pair: a family of pencils (A_j, M) that share
    M, such as one Robin problem under a range of boundary coefficients,
    keeps one preconditioner.  With a prolongation from the last pencil's
    nodes, as on a chain of uniformly refined meshes (nested iteration,
    Knyazev and Neymeyr, ETNA 15, 2003), it runs from the prolonged
    eigenvector, preconditioned by a `_VCycle` on the same shift whose
    coarse solve is the last preconditioner, and that cycle preconditions
    the level after.  Both stop at `DEFAULT_TOL` times max(||A||_inf, 1).

    The first pencil without a reference is solved on its own
    `shifted_factor` pair, as `smallest_eigs` solves a pencil alone: a
    V-cycle over its hierarchy's coarse LU where its order lists coarser
    levels, its own LU otherwise.  A pencil that LOBPCG does not bring
    through the stop, within `_LOBPCG_STEPS` iterations as a warm-started
    member or at its pace on its own V-cycle, is factored and solved on its
    own LU; `fallbacks` counts these.  A family takes the pair it solved a pencil on alone as
    its reference, and after a fallback it stays on LUs.  A family on a
    V-cycle also takes a new V-cycle reference from a member that needed
    more than `_REREFERENCE` applications.  A fallback ends a chain's
    nested iteration, so every later level is factored too.  Pencils of
    dense size are solved densely and leave the sequence as it was.

    reference is a nearby pencil's `shifted_factor` pair on the first
    pencil's nodes, which the first pencil then runs on from
    solver^-1 M 1.
    """

    def __init__(self, dim: int, reference=None):
        self.omega = _SMOOTHING / (dim + 1)
        self.fallbacks = 0
        self._pair = reference  # (tau, solver) that preconditions the next pencil
        self._vector = None

    def lowest(self, a: sp.spmatrix, m: sp.spmatrix, order,
               prolongation: sp.spmatrix = None) -> EigResult:
        """The lowest eigenpair of the next pencil (a, m).

        order is its fill-reducing order, or a function returning it, as in
        `_factor`, or its hierarchy, as in `shifted_factor`; prolongation
        maps the last pencil's vectors onto this one's nodes.
        """
        a = sp.csr_matrix(a)
        m = sp.csr_matrix(m)
        if _dense(a.shape[0]):
            return smallest_eigs(a, m)
        if self._pair is not None:
            tau, solver = pair = self._pair
            if prolongation is not None:
                pair = (tau, _VCycle((a - tau * m).tocsr(), prolongation, solver, self.omega))
                guess = prolongation @ self._vector
            elif self._vector is not None:
                guess = self._vector
            else:
                guess = solver.solve(m @ np.ones(m.shape[0]))
            try:
                res = smallest_eigs(a, m, start=(pair, guess))
            except ConvergenceError:
                self.fallbacks += 1
                self._pair = self._vector = None  # release the LU or hierarchy
            else:
                if (prolongation is None and isinstance(solver, _VCycle)
                        and res.iterations > _REREFERENCE):
                    pair = shifted_factor(a, m, order)
                self._pair, self._vector = pair, res.vector
                return res
        res, factor, fell_back = lowest_alone(a, m, _levels(order)[0] if self.fallbacks else order)
        self.fallbacks += fell_back
        if prolongation is None or not self.fallbacks:
            self._pair, self._vector = factor, res.vector
        return res


def lowest_alone(a: sp.spmatrix, m: sp.spmatrix, order):
    """(EigResult, pair, fell back): the lowest eigenpair of the pencil
    (a, m) solved on its own, as `smallest_eigs` solves it, and the
    `shifted_factor` pair it was solved on, None at dense size, where
    nothing is factored.  order is as in `shifted_factor`.  Where it lists
    coarser levels the run is on a V-cycle and paced, and a run that gives
    up falls back on the pencil's own LU, which the pair then is."""
    if _dense(a.shape[0]):
        return smallest_eigs(a, m), None, False
    factor = shifted_factor(a, m, order)
    try:
        return smallest_eigs(a, m, factor=factor), factor, False
    except ConvergenceError:
        if not on_hierarchy(factor):
            raise
    factor = shifted_factor(a, m, _levels(order)[0])
    return smallest_eigs(a, m, factor=factor), factor, True
