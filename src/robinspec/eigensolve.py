"""Sparse SPD linear solves and smallest eigenpairs of A x = lambda M x.

The eigensolver runs shift-invert Lanczos (ARPACK) with a small negative
shift so that a Neumann kernel does not break the factorization; tiny
problems fall back to a dense generalized solve.  Start vectors come from a
fixed seed, so repeated runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ConvergenceError, MatrixError

DEFAULT_TOL = 1e-10
MAX_OUTER_ITERATIONS = 500
_DENSE_CUTOFF = 40


@dataclass(frozen=True, eq=False)
class EigResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors.

    residuals[i] = ||A x_i - lambda_i M x_i||_2.
    iterations counts inner shift-invert applications (0 on the dense path).
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int


def _inf_norm_estimate(a: sp.spmatrix) -> float:
    return float(np.max(np.abs(a).sum(axis=1))) if a.shape[0] else 0.0


def solve_spd(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Direct sparse factorization plus iterative refinement targeting
    ||Ax - b|| <= 1e-12 ||b||; stiff systems where that is below the
    float64 floor are accepted at backward error 1e-12 relative to
    ||b|| + ||A|| ||x|| instead.  Raises MatrixError on factorization
    breakdown, on a backward-unstable residual, or when negative curvature
    (b.x < 0) reveals an indefinite matrix.
    """
    a = sp.csc_matrix(a)
    b = np.asarray(b, dtype=float)
    try:
        lu = splu(a)
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


def shifted_factor(a: sp.spmatrix, m: sp.spmatrix, shift: float | None = None):
    """(tau, lu): the shift-invert pair `smallest_eigs` uses for the pencil
    (A, M).  tau is `shift`, or by default a small negative multiple of A's
    mean diagonal, so a Neumann kernel leaves A - tau M positive definite;
    lu is the sparse LU of A - tau M."""
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    trace = float(a.diagonal().sum())
    tau = shift if shift is not None else -1e-8 * max(trace, 1.0) / a.shape[0]
    try:
        lu = splu((a - tau * m).tocsc())
    except RuntimeError as exc:
        raise MatrixError(f"shifted factorization failed: {exc}") from exc
    return tau, lu


def smallest_eigs(a: sp.spmatrix, m: sp.spmatrix, k: int = 1,
                  tol: float = DEFAULT_TOL, seed: int = 42,
                  maxiter: int = MAX_OUTER_ITERATIONS, factor=None) -> EigResult:
    """k smallest eigenpairs of the symmetric pencil (A, M), A PSD, M SPD.

    factor is a `shifted_factor(a, m)` pair to reuse; without one the
    shift-invert path computes its own.  The dense path ignores it.
    """
    a = sp.csr_matrix(a)
    m = sp.csr_matrix(m)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ConvergenceError(f"need 1 <= k <= {n}, got k={k}")

    if n <= max(_DENSE_CUTOFF, 2 * k + 2):
        vals, vecs = scipy.linalg.eigh(a.toarray(), m.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        iterations = 0
    else:
        tau, lu = factor if factor is not None else shifted_factor(a, m)
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

    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    # enforce exact M-orthonormality
    gram = vecs.T @ (m @ vecs)
    chol = scipy.linalg.cholesky(gram, lower=True)
    vecs = scipy.linalg.solve_triangular(chol, vecs.T, lower=True).T

    residuals = np.array([np.linalg.norm(a @ vecs[:, i] - vals[i] * (m @ vecs[:, i]))
                          for i in range(k)])
    scale = _inf_norm_estimate(a) + np.abs(vals).max(initial=0.0) * _inf_norm_estimate(m)
    bound = max(tol, 1e-12) * max(scale, 1.0)
    if np.any(residuals > bound):
        raise ConvergenceError(
            "eigenpair residual above tolerance",
            diagnostics={"residuals": residuals.tolist(), "bound": bound})
    return EigResult(vals, vecs, residuals, iterations)
