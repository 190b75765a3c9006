import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg

from robinspec import assembly, cli, eigensolve, geometry
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError, ConvergenceError, MatrixError

from conftest import dense_eigenvalues, interval_mesh, square_mesh


class TestSolveSpd:
    def test_diagonal(self):
        a = sp.diags([2.0] * 10).tocsr()
        x = eigensolve.solve_spd(a, np.ones(10))
        np.testing.assert_allclose(x, 0.5 * np.ones(10), atol=1e-14)

    def test_matches_dense_oracle(self):
        mesh = interval_mesh(100)
        a = assembly.assemble_stiffness(mesh) + assembly.assemble_mass(mesh)
        b = assembly.assemble_mass(mesh) @ np.ones(mesh.num_nodes)
        x = eigensolve.solve_spd(a, b)
        oracle = np.linalg.solve(a.toarray(), b)
        np.testing.assert_allclose(x, oracle, atol=1e-10)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((50, 50))
        a = sp.csr_matrix(raw.T @ raw + np.eye(50))
        b = rng.standard_normal(50)
        x = eigensolve.solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_indefinite_detected(self):
        a = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(MatrixError):
            eigensolve.solve_spd(a, np.array([0.0, 1.0]))

    def test_singular_detected(self):
        a = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(MatrixError):
            eigensolve.solve_spd(a, np.ones(3))


class TestSmallestEigs:
    def test_1d_dirichlet_pi_squared(self):
        mesh = interval_mesh(64)
        _, k_ff, m_ff = assembly.operators(mesh).restrict(geometry.gamma_nodes(mesh))
        res = eigensolve.smallest_eigs(k_ff, m_ff)
        lam = res.value
        assert abs(lam - np.pi ** 2) / np.pi ** 2 <= 2e-3
        oracle = dense_eigenvalues(k_ff, m_ff, 1)[0]
        assert abs(lam - oracle) <= 1e-9 * max(1.0, oracle)

    def test_neumann_kernel(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k, m)
        assert abs(res.value) <= 1e-9
        v = res.vector
        assert np.max(np.abs(v - v.mean())) <= 1e-6 * max(1.0, abs(v.mean()))

    def test_small_random_pencil_matches_dense(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((20, 20))
        a = sp.csr_matrix(raw.T @ raw)
        mraw = rng.standard_normal((20, 20))
        m = sp.csr_matrix(mraw.T @ mraw + 20 * np.eye(20))
        res = eigensolve.smallest_eigs(a, m)
        oracle = dense_eigenvalues(a, m, 1)[0]
        assert abs(res.value - oracle) <= 1e-9

    def test_own_factor_path_matches_dense(self):
        mesh = square_mesh(2)
        _, k_ff, m_ff = assembly.operators(mesh).restrict(geometry.gamma_nodes(mesh))
        res = eigensolve.smallest_eigs(k_ff, m_ff)
        assert res.iterations > 0  # LOBPCG on the pencil's own LU, not the dense path
        oracle = dense_eigenvalues(k_ff, m_ff, 1)[0]
        assert abs(res.value - oracle) <= 1e-9 * oracle

    def test_m_orthonormal(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        x = eigensolve.smallest_eigs(k + m, m).vector
        assert abs(x @ (m @ x) - 1.0) <= 1e-10

    def test_ordering_and_nonnegative(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k, m)
        assert res.value >= -1e-9
        # the lowest eigenvalue, below the next one
        oracle = dense_eigenvalues(k, m, 2)
        assert abs(res.value - oracle[0]) <= 1e-12 and res.value < oracle[1]

    def test_lambda1_is_subspace_rayleigh_min(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k + m, m)
        x = res.vector
        quotient = x @ ((k + m) @ x) / (x @ (m @ x))
        assert abs(res.value - quotient) <= 1e-12 * max(1.0, res.value)
        oracle = dense_eigenvalues(k + m, m, 1)[0]
        assert abs(res.value - oracle) <= 1e-12 * max(1.0, oracle)

    def test_shift_perturbation_consistency(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        n = k.shape[0]
        tau = -1e-8 * float(k.diagonal().sum()) / n
        base = eigensolve.smallest_eigs(k + m, m)
        moved = eigensolve.smallest_eigs(
            k + m, m, factor=(10 * tau, eigensolve._factor(k + m - 10 * tau * m)))
        assert abs(base.value - moved.value) <= 1e-10

    def test_residual_bound(self):
        mesh = square_mesh(3)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k + m, m)
        norm_a = np.max(np.abs(k + m).sum(axis=1))
        norm_m = np.max(np.abs(m).sum(axis=1))
        assert res.residual <= 1e-10 * (norm_a + abs(res.value) * norm_m) + 1e-13

    def test_deterministic(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        r1 = eigensolve.smallest_eigs(k + m, m)
        r2 = eigensolve.smallest_eigs(k + m, m)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.vector, r2.vector)


def tight_value(a, m):
    """The lowest eigenvalue of (A, M) to far below the package's stop: the
    Rayleigh quotient, summed in np.longdouble, of a 20-step LOBPCG run on
    the pencil's own shifted LU with no stop before its cap."""
    _, lu = eigensolve.shifted_factor(a, m)
    x0 = lu.solve(m @ np.ones(a.shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, vecs = lobpcg(a, x0[:, None], B=m, M=lu.solve, tol=1e-300, maxiter=20,
                         largest=False)
    x = vecs[:, 0].astype(np.longdouble)

    def form(mat):
        c = mat.tocoo()
        return np.sum(c.data.astype(np.longdouble) * x[c.row] * x[c.col])

    return float(form(a) / form(m))


def robin_pencil(domain, level, sigma):
    mesh = cli._mesh_at_level(domain, level, None)
    ops = assembly.operators(mesh)
    a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(sigma))
    return a, ops.mass, ops.order


class TestOwnFactorPath:
    """LOBPCG on the pencil's own shifted LU, from LU^-1 M 1, stops at
    round-off."""

    def test_neumann_pencil_is_solved_by_its_start(self):
        a, m, order = robin_pencil(geometry.unit_square(), 3, 0.0)
        assert a.shape[0] > eigensolve._DENSE_CUTOFF
        res = eigensolve.smallest_eigs(a, m, order=order)
        # (K - tau M)^-1 M 1 is the constant: the start meets the stop
        assert res.iterations == 0
        assert abs(res.value) <= 1e-13
        v = res.vector
        assert np.max(np.abs(v - v.mean())) <= 1e-12 * abs(v.mean())

    @pytest.mark.parametrize("domain, level, sigma", [
        (geometry.unit_square(), 5, 1.0),
        (geometry.polygon([(0, 0), (1, 0), (0, 1)]), 5, 0.5),
        (geometry.disk((0.0, 0.0), 1.0, 16), 4, 1e-3),
    ], ids=["square-L5", "triangle-L5", "disk-L4-near-neumann"])
    def test_lands_on_the_tight_value(self, domain, level, sigma):
        a, m, order = robin_pencil(domain, level, sigma)
        res = eigensolve.smallest_eigs(a, m, order=order)
        assert 0 < res.iterations <= eigensolve._LOBPCG_STEPS
        tight = tight_value(a, m)
        assert abs(res.value - tight) <= 1e-12 * max(abs(tight), 1.0)


class TestFailureDiagnostics:
    """A LOBPCG breakdown, a run over the step cap and a result over the
    gate report the same diagnostics."""

    KEYS = {"iterations", "residual", "bound"}

    def test_gate(self, monkeypatch):
        a, m, order = robin_pencil(geometry.unit_square(), 3, 1.0)
        monkeypatch.setattr(eigensolve, "DEFAULT_TOL", 1e-20)
        with pytest.raises(ConvergenceError) as info:
            eigensolve.smallest_eigs(a, m, order=order)
        diag = info.value.diagnostics
        assert set(diag) == self.KEYS
        assert diag["residual"] > diag["bound"] and diag["iterations"] > 0

    def test_breakdown(self):
        a, m, _ = robin_pencil(geometry.unit_square(), 3, 1.0)
        factor = eigensolve.shifted_factor(a, m)
        with pytest.raises(ConvergenceError) as info:
            eigensolve.smallest_eigs(a, m, start=(factor, np.zeros(a.shape[0])))
        assert info.value.diagnostics == {
            "iterations": 0, "residual": None,
            "bound": eigensolve.DEFAULT_TOL * np.abs(a).sum(axis=1).max()}


class TestStart:
    """start is a nearby pair and its guess together: either alone is an
    argument error, raised before any solve rather than sending LOBPCG a
    start of None."""

    @pytest.mark.parametrize("which", ["pair-without-guess", "guess-without-pair"])
    def test_incomplete_start_raises_before_any_solve(self, which, monkeypatch):
        a, m, order = robin_pencil(geometry.unit_square(), 5, 1.0)
        factor = eigensolve.shifted_factor(a, m, order=order)
        guess = factor[1].solve(m @ np.ones(a.shape[0]))
        start = (factor, None) if which == "pair-without-guess" else (None, guess)
        solves = []
        monkeypatch.setattr(eigensolve, "lobpcg", lambda *args, **kw: solves.append(args))
        monkeypatch.setattr(eigensolve.scipy.linalg, "eigh",
                            lambda *args, **kw: solves.append(args))
        with pytest.raises(ArgumentError):
            eigensolve.smallest_eigs(a, m, start=start)
        assert solves == []


class TestRayleighQuotient:
    # on the interval with 1024 elements the LU's rounding is 1e-10
    # relative; the vector's quotient does not follow it
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "lobpcg"])
    def test_values_are_quotients_of_normalised_vectors(self, dense):
        mesh = square_mesh(1) if dense else interval_mesh(1024)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(2.0))
        res = eigensolve.smallest_eigs(a, ops.mass, order=ops.order)
        assert (res.iterations == 0) == dense
        x = res.vector
        assert x @ (ops.mass @ x) == pytest.approx(1.0, rel=1e-14)
        assert res.value == pytest.approx(x @ (a @ x), rel=1e-14)


def test_concurrent_solves_leave_the_warning_filters_alone():
    # catch_warnings swaps the process-wide filter list: threads that enter
    # and leave it interleaved would leave LOBPCG's "ignore" filter behind
    a, m, order = robin_pencil(geometry.unit_square(), 4, 1.0)
    factor = eigensolve.shifted_factor(a, m, order=order)
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(eigensolve.smallest_eigs, a, m, factor=factor)
                       for _ in range(64)]
            values = [f.result(timeout=60).value for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(set(values)) == 1
    assert warnings.filters == before
