"""Sparse SPD linear solves and smallest eigenpairs of A x = lambda M x.

The eigensolver runs shift-invert Lanczos (ARPACK) with a small negative
shift so that a Neumann kernel does not break the factorization; tiny
problems fall back to a dense generalized solve.  Start vectors come from a
fixed seed, so repeated runs are bit-for-bit reproducible.

A family of pencils (A_j, M) that share M, such as one Robin problem under
a range of boundary coefficients, is solved on one shared factorization:
`CoefficientFamily` runs LOBPCG (Knyazev, SISC 2001) preconditioned by the
shifted LU of a reference member, each member started from the previous
member's eigenvector.  A member that LOBPCG does not bring through the
residual gate within `_LOBPCG_STEPS` iterations is factored and solved by
shift-invert ARPACK instead, and its LU becomes the new reference.

Every path returns the Rayleigh quotient of its M-normalised vector as the
eigenvalue, so the value is accurate to the square of the residual and does
not follow the rounding of the factorization.

Factorizations take an `order`: a fill-reducing permutation, which callers
on a mesh take from `assembly.operators(mesh).order` (nested dissection of
the mesh's node graph, restricted to the free nodes where nodes are
eliminated).  The permuted matrix is factored in that order with diagonal
pivots, as the matrices factored here are symmetric positive definite, and
solves permute the right-hand side in and the solution out.  Without an
order SuperLU picks its own column ordering (COLAMD); that path is for
matrices that come without a mesh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, lobpcg, splu

from .errors import ConvergenceError, MatrixError

DEFAULT_TOL = 1e-10
MAX_OUTER_ITERATIONS = 500
_DENSE_CUTOFF = 40
_LOBPCG_STEPS = 40


@dataclass(frozen=True, eq=False)
class EigResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors.

    residuals[i] = ||A x_i - lambda_i M x_i||_2.
    iterations counts applications of the factorization: shift-invert
    steps on the ARPACK path, preconditioner applications on the LOBPCG
    path, 0 on the dense path.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int


def _inf_norm_estimate(a: sp.spmatrix) -> float:
    return float(np.max(np.abs(a).sum(axis=1))) if a.shape[0] else 0.0


class _OrderedLU:
    """LU of A[order][:, order]; solve takes and returns vectors (or
    blocks of columns) in A's numbering."""

    def __init__(self, lu, order: np.ndarray):
        self.lu = lu
        self.order = order
        self.inverse = np.argsort(order)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.inverse]


def _factor(a: sp.spmatrix, order=None):
    """Sparse LU of a with a `solve` method: in the given order with
    diagonal pivots, or by default in SuperLU's COLAMD order."""
    if order is None:
        return splu(sp.csc_matrix(a))
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
    norm_a = _inf_norm_estimate(a)
    for _ in range(5):
        res = np.linalg.norm(b - a @ x)
        if res <= 1e-12 * norm_b:
            break
        x_new = x + lu.solve(b - a @ x)
        if np.linalg.norm(b - a @ x_new) >= res:
            break  # refinement hit the float64 floor
        x = x_new
    res = np.linalg.norm(b - a @ x)
    if res > 1e-12 * (norm_b + norm_a * np.linalg.norm(x)):
        raise MatrixError("residual stalled: matrix numerically singular")
    if float(b @ x) < 0.0:
        raise MatrixError("negative curvature detected: matrix is not positive definite")
    return x


def shifted_factor(a: sp.spmatrix, m: sp.spmatrix, shift: float | None = None,
                   order=None):
    """(tau, lu): the shift-invert pair `smallest_eigs` uses for the pencil
    (A, M).  tau is `shift`, or by default a small negative multiple of A's
    mean diagonal, so a Neumann kernel leaves A - tau M positive definite;
    lu is the sparse LU of A - tau M, factored in the given order."""
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    trace = float(a.diagonal().sum())
    tau = shift if shift is not None else -1e-8 * max(trace, 1.0) / a.shape[0]
    try:
        lu = _factor(a - tau * m, order)
    except RuntimeError as exc:
        raise MatrixError(f"shifted factorization failed: {exc}") from exc
    return tau, lu


def _dense(n: int, k: int) -> bool:
    return n <= max(_DENSE_CUTOFF, 2 * k + 2)


def _lobpcg(a, m, lu, x0: np.ndarray, tol: float):
    """LOBPCG for the smallest eigenpairs of (A, M) from the columns of
    x0, preconditioned by lu.solve, to residual tol; returns (values,
    vectors, number of preconditioner applications).  LOBPCG applies the
    preconditioner once per iteration until the residual meets tol.  A run
    that needs more than `_LOBPCG_STEPS` iterations raises ConvergenceError
    in place of LOBPCG's warning, which is silenced."""
    counter = {"n": 0}

    def precondition(x):
        counter["n"] += x.shape[1]
        return lu.solve(x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            vals, vecs = lobpcg(a, x0, B=m, M=precondition, tol=tol,
                                maxiter=_LOBPCG_STEPS, largest=False)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(
                f"LOBPCG breakdown: {exc}",
                diagnostics={"iterations": counter["n"]}) from exc
    if counter["n"] > _LOBPCG_STEPS * x0.shape[1]:
        raise ConvergenceError(
            "LOBPCG did not converge within its iteration cap",
            diagnostics={"iterations": counter["n"], "tol": tol})
    return vals, vecs, counter["n"]


def smallest_eigs(a: sp.spmatrix, m: sp.spmatrix, k: int = 1,
                  tol: float = DEFAULT_TOL, seed: int = 42,
                  maxiter: int = MAX_OUTER_ITERATIONS, factor=None,
                  precondition=None, guess=None, order=None) -> EigResult:
    """k smallest eigenpairs of the symmetric pencil (A, M), A PSD, M SPD.

    The eigenvalues are the Rayleigh quotients of the M-normalised vectors.
    factor is a `shifted_factor(a, m)` pair to reuse; without one the
    shift-invert path computes its own, in the given order.  precondition
    is a `shifted_factor` pair of a nearby pencil: with it LOBPCG runs from
    guess (n x k, or n values for k = 1), preconditioned by that LU; a run
    over the iteration cap or a result that misses the residual gate raises
    ConvergenceError.  The dense path ignores all four.
    """
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ConvergenceError(f"need 1 <= k <= {n}, got k={k}")
    norm_a = _inf_norm_estimate(a)
    floor = max(tol, 1e-12)

    dense = _dense(n, k)
    iterative = precondition is not None and not dense
    if dense:
        vals, vecs = scipy.linalg.eigh(a.toarray(), m.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        iterations = 0
    elif iterative:
        # the gate's bound at lambda = 0, never above the bound at lambda
        x0 = np.asarray(guess, dtype=float).reshape(n, k)
        vals, vecs, iterations = _lobpcg(a, m, precondition[1], x0,
                                         floor * max(norm_a, 1.0))
    else:
        tau, lu = factor if factor is not None else shifted_factor(a, m, order=order)
        counter = {"n": 0}

        def apply_inverse(x):
            counter["n"] += 1
            return lu.solve(x)

        op_inv = LinearOperator(shape=(n, n), matvec=apply_inverse, dtype=float)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        try:
            vals, vecs = eigsh(a, k=k, M=m, sigma=tau, OPinv=op_inv,
                               v0=v0, maxiter=maxiter)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                "eigensolver did not converge",
                diagnostics={"converged": len(exc.eigenvalues), "requested": k,
                             "iterations": counter["n"]}) from exc
        iterations = counter["n"]

    ascending = np.argsort(vals)
    vecs = vecs[:, ascending]
    # enforce exact M-orthonormality
    gram = vecs.T @ (m @ vecs)
    chol = scipy.linalg.cholesky(gram, lower=True)
    vecs = scipy.linalg.solve_triangular(chol, vecs.T, lower=True).T
    vals = np.einsum("ij,ij->j", vecs, a @ vecs)
    ascending = np.argsort(vals, kind="stable")
    vals, vecs = vals[ascending], vecs[:, ascending]

    residuals = np.array([np.linalg.norm(a @ vecs[:, i] - vals[i] * (m @ vecs[:, i]))
                          for i in range(k)])
    scale = norm_a + np.abs(vals).max(initial=0.0) * _inf_norm_estimate(m)
    bound = floor * max(scale, 1.0)
    if np.any(residuals > bound):
        raise ConvergenceError(
            "eigenpair residual above tolerance",
            diagnostics={"residuals": residuals.tolist(), "bound": bound,
                         "iterations": iterations})
    return EigResult(vals, vecs, residuals, iterations)


class CoefficientFamily:
    """Lowest eigenpairs of a family of pencils (A_j, M) with a common M,
    solved in order on one shared factorization.

    The reference is a `shifted_factor` pair of a nearby pencil (by default
    the first member's).  Each member runs LOBPCG preconditioned by it,
    started from the previous member's eigenvector (the first from
    LU^-1 M 1).  A member that LOBPCG does not bring through the residual
    gate within `_LOBPCG_STEPS` iterations is factored and solved by
    shift-invert ARPACK, and its LU becomes the reference; `fallbacks`
    counts these.  Factorizations use the given order.
    """

    def __init__(self, m: sp.spmatrix, reference=None, order=None,
                 tol: float = DEFAULT_TOL, seed: int = 42):
        self.m = sp.csr_matrix(m)
        self.order = order
        self.tol = tol
        self.seed = seed
        self.fallbacks = 0
        self._factor = reference
        self._guess = None

    def lowest(self, a: sp.spmatrix) -> EigResult:
        """The lowest eigenpair of (a, M)."""
        if _dense(self.m.shape[0], 1):
            return smallest_eigs(a, self.m, tol=self.tol, seed=self.seed)
        if self._factor is None:
            self._factor = shifted_factor(a, self.m, order=self.order)
        if self._guess is None:
            self._guess = self._factor[1].solve(self.m @ np.ones(self.m.shape[0]))
        try:
            res = smallest_eigs(a, self.m, tol=self.tol, seed=self.seed,
                                precondition=self._factor, guess=self._guess)
        except ConvergenceError:
            self.fallbacks += 1
            self._factor = None  # release the old LU before factoring anew
            self._factor = shifted_factor(a, self.m, order=self.order)
            res = smallest_eigs(a, self.m, tol=self.tol, seed=self.seed,
                                factor=self._factor)
        self._guess = res.vectors[:, 0]
        return res
