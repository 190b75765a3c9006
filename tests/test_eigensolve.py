import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from robinspec import assembly, eigensolve, geometry
from robinspec.assembly import SigmaField
from robinspec.errors import MatrixError

from conftest import interval_mesh, square_mesh


def dense_generalized_oracle(a, m, k):
    vals = scipy.linalg.eigh(np.asarray(a.toarray()), np.asarray(m.toarray()),
                             eigvals_only=True)
    return vals[:k]


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
        res = eigensolve.smallest_eigs(k_ff, m_ff, k=1)
        lam = res.values[0]
        assert abs(lam - np.pi ** 2) / np.pi ** 2 <= 2e-3
        oracle = dense_generalized_oracle(k_ff, m_ff, 1)[0]
        assert abs(lam - oracle) <= 1e-9 * max(1.0, oracle)

    def test_neumann_kernel(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k, m, k=2)
        assert abs(res.values[0]) <= 1e-9
        v = res.vectors[:, 0]
        assert np.max(np.abs(v - v.mean())) <= 1e-6 * max(1.0, abs(v.mean()))

    def test_small_random_pencil_matches_dense(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((20, 20))
        a = sp.csr_matrix(raw.T @ raw)
        mraw = rng.standard_normal((20, 20))
        m = sp.csr_matrix(mraw.T @ mraw + 20 * np.eye(20))
        res = eigensolve.smallest_eigs(a, m, k=3)
        oracle = dense_generalized_oracle(a, m, 3)
        np.testing.assert_allclose(res.values, oracle, atol=1e-9)

    def test_arpack_path_matches_dense(self):
        mesh = square_mesh(2)
        _, k_ff, m_ff = assembly.operators(mesh).restrict(geometry.gamma_nodes(mesh))
        res = eigensolve.smallest_eigs(k_ff, m_ff, k=4)
        assert res.iterations > 0  # shift-invert path, not the dense fallback
        oracle = dense_generalized_oracle(k_ff, m_ff, 4)
        np.testing.assert_allclose(res.values, oracle, rtol=1e-9)

    def test_m_orthonormal(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k + m, m, k=3)
        gram = res.vectors.T @ (m @ res.vectors)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_ordering_and_nonnegative(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k, m, k=4)
        assert np.all(np.diff(res.values) >= -1e-12)
        assert np.all(res.values >= -1e-9)

    def test_lambda1_is_subspace_rayleigh_min(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k + m, m, k=3)
        quotients = [res.vectors[:, i] @ ((k + m) @ res.vectors[:, i])
                     / (res.vectors[:, i] @ (m @ res.vectors[:, i]))
                     for i in range(3)]
        assert abs(res.values[0] - min(quotients)) <= 1e-12 * max(1.0, res.values[0])

    def test_shift_perturbation_consistency(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        n = k.shape[0]
        tau = -1e-8 * float(k.diagonal().sum()) / n
        base = eigensolve.smallest_eigs(k + m, m, k=2)
        moved = eigensolve.smallest_eigs(
            k + m, m, k=2, factor=eigensolve.shifted_factor(k + m, m, shift=10 * tau))
        np.testing.assert_allclose(base.values, moved.values, atol=1e-10)

    def test_residual_bound(self):
        mesh = square_mesh(3)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        res = eigensolve.smallest_eigs(k + m, m, k=2, tol=1e-10)
        norm_a = np.max(np.abs(k + m).sum(axis=1))
        norm_m = np.max(np.abs(m).sum(axis=1))
        for lam, r in zip(res.values, res.residuals):
            assert r <= 1e-10 * (norm_a + abs(lam) * norm_m) + 1e-13

    def test_deterministic(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        r1 = eigensolve.smallest_eigs(k + m, m, k=2, seed=42)
        r2 = eigensolve.smallest_eigs(k + m, m, k=2, seed=42)
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(r1.vectors, r2.vectors)


class TestRayleighQuotient:
    # on the interval with 1024 elements ARPACK's Ritz values follow the
    # LU's rounding (1e-10 relative); their vectors' quotients do not
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "arpack"])
    def test_values_are_quotients_of_normalised_vectors(self, dense):
        mesh = square_mesh(1) if dense else interval_mesh(1024)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(2.0))
        res = eigensolve.smallest_eigs(a, ops.mass, k=3, order=ops.order)
        assert (res.iterations == 0) == dense
        assert np.all(np.diff(res.values) >= 0.0)
        for lam, x in zip(res.values, res.vectors.T):
            assert x @ (ops.mass @ x) == pytest.approx(1.0, rel=1e-14)
            assert lam == pytest.approx(x @ (a @ x), rel=1e-14)
