import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse.linalg import lobpcg, splu

from robinspec import assembly, bounds, cli, eigensolve, geometry, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError, ConvergenceError, MatrixError

from conftest import (convex_polygons, dense_eigenvalues, disk_mesh, interval_mesh, refined,
                      square_mesh, triangle_mesh)

# meshes above dense size whose pencils are factored
FACTORED = {
    "square": lambda: square_mesh(4),
    "triangle": lambda: triangle_mesh(4),
    "disk": lambda: disk_mesh(3),
    "interval": lambda: interval_mesh(300),
}


def factored_pencil(name, pinned):
    """(K + M, M) on a FACTORED mesh, restricted to the free nodes where
    pinned on gamma."""
    mesh = FACTORED[name]()
    ops = assembly.operators(mesh)
    if not pinned:
        return ops.stiffness + ops.mass, ops.mass
    _, k_ff, m_ff = ops.restrict(geometry.gamma_nodes(mesh))
    return k_ff + m_ff, m_ff


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

    @pytest.mark.parametrize("pinned", [False, True], ids=["full", "pinned"])
    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_matches_a_reference_solve(self, name, pinned):
        a, _ = factored_pencil(name, pinned)
        b = np.random.default_rng(7).standard_normal(a.shape[0])
        want = splu(sp.csc_matrix(a)).solve(b)  # SuperLU's defaults: partial pivoting
        x = eigensolve.solve_spd(a, b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_indefinite_detected(self):
        a = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(MatrixError):
            eigensolve.solve_spd(a, np.array([0.0, 1.0]))

    def test_singular_detected(self):
        a = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(MatrixError):
            eigensolve.solve_spd(a, np.ones(3))


class TestShiftedFactor:
    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_lu_is_backward_stable(self, name):
        # raw LU solves differ by the conditioning (about 1e6 on the
        # interval); each must solve its own system to round-off
        a, m = factored_pencil(name, False)
        b = np.random.default_rng(8).standard_normal((a.shape[0], 3))
        tau, lu = eigensolve.shifted_factor(a, m)
        shifted = a - tau * m
        x = lu.solve(b)
        scale = abs(shifted).sum(axis=1).max() * np.linalg.norm(x)
        assert np.linalg.norm(shifted @ x - b) <= 1e-14 * scale

    def test_a_ready_factor_is_not_factored_again(self, factorizations):
        mesh = square_mesh(3)
        assert mesh.num_nodes <= eigensolve._COARSE_NODES
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
        factor = eigensolve.shifted_factor(a, ops.mass)
        eigensolve.smallest_eigs(a, ops.mass, factor=factor)
        assert factorizations == [mesh.num_nodes]

    def test_large_meshes_factor_only_their_coarse_level(self, factorizations):
        # solve and the shrinking support each run on V-cycles over one
        # coarse LU
        mesh = cli._mesh_at_level(geometry.unit_square(), 6, None)
        coarse = mesh.coarse[0].coarse[0]
        assert mesh.coarse[0].num_nodes > eigensolve._COARSE_NODES >= coarse.num_nodes
        sigma = SigmaField.constant(1.0)
        robin.lowest_eigenvalue(mesh, sigma)
        robin.concentration_sweep(mesh, 1.0, (0.4, 0.0), 5)
        assert factorizations == [coarse.num_nodes] * 2


class TestSolveSpdCg:
    class Jacobi:
        def __init__(self, a):
            self.inverse = 1.0 / a.diagonal()

        def solve(self, b):
            return self.inverse * b

    def test_matches_the_direct_solve_from_any_scale_of_start(self):
        mesh = interval_mesh(100)
        a = assembly.assemble_stiffness(mesh) + assembly.assemble_mass(mesh)
        b = assembly.assemble_mass(mesh) @ np.ones(mesh.num_nodes)
        want = eigensolve.solve_spd(a, b)
        # a start of the wrong scale is rescaled, not iterated away
        for x0 in (None, 1e9 * want, -want):
            x = eigensolve.solve_spd_cg(a, b, self.Jacobi(a), x0)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert not eigensolve.solve_spd_cg(a, np.zeros_like(b), self.Jacobi(a), want).any()

    def test_indefinite_detected(self):
        a = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(MatrixError):
            eigensolve.solve_spd_cg(a, np.array([1.0, 1.0]), self.Jacobi(a), None)

    def test_a_capped_run_is_gated(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_CG_STEPS", 1)
        mesh = interval_mesh(100)
        a = assembly.assemble_stiffness(mesh) + assembly.assemble_mass(mesh)
        with pytest.raises(MatrixError):
            eigensolve.solve_spd_cg(a, np.ones(mesh.num_nodes), self.Jacobi(a), None)


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
    return a, ops.mass


class TestOwnFactorPath:
    """LOBPCG on the pencil's own shifted LU, from LU^-1 M 1, stops at
    round-off."""

    def test_neumann_pencil_is_solved_by_its_start(self):
        a, m = robin_pencil(geometry.unit_square(), 3, 0.0)
        res = eigensolve.smallest_eigs(a, m)
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
        a, m = robin_pencil(domain, level, sigma)
        res = eigensolve.smallest_eigs(a, m)
        assert 0 < res.iterations <= eigensolve._LOBPCG_STEPS
        tight = tight_value(a, m)
        assert abs(res.value - tight) <= 1e-12 * max(abs(tight), 1.0)


KERNEL_SETTINGS = settings(max_examples=10, derandomize=True, deadline=None,
                           suppress_health_check=[HealthCheck.filter_too_much])
SIGMAS = st.floats(-2.0, 2.0).map(lambda t: 10.0 ** t)


def polygon_operators(dom):
    """K, the boundary mass of sigma = 1 and M on a mesh of dom refined
    three times."""
    mesh = refined(geometry.build_mesh(dom, 0.5), 3)
    ops = assembly.operators(mesh)
    b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
    return ops.stiffness, b, ops.mass


def scipy_applications(a, m, lu, x0, tol):
    """Preconditioner applications of scipy's block LOBPCG on the same run,
    counted as `eigensolve._lobpcg` counts them: one more than the cap where
    it does not reach tol."""
    applications = 0

    def precondition(x):
        nonlocal applications
        applications += x.shape[1]
        return lu.solve(x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        lobpcg(a, x0[:, None], B=m, M=precondition, tol=tol,
               maxiter=eigensolve._LOBPCG_STEPS, largest=False)
    return applications


class TestKernel:
    """The in-package single-vector LOBPCG against scipy's block LOBPCG."""

    @KERNEL_SETTINGS
    @given(convex_polygons(), SIGMAS)
    def test_own_lu_run_lands_on_the_tight_value(self, dom, sigma):
        k, b, m = polygon_operators(dom)
        a = k + sigma * b
        res = eigensolve.smallest_eigs(a, m)
        tight = tight_value(a, m)
        assert abs(res.value - tight) <= 1e-12 * max(abs(tight), 1.0)

    @KERNEL_SETTINGS
    @given(convex_polygons(), SIGMAS, st.sampled_from([0.5, 2.0, 10.0]))
    def test_takes_at_most_one_application_more_than_scipy(self, dom, sigma, ratio):
        # a family member: preconditioned by a nearby pencil's LU, started
        # from that pencil's LU^-1 M 1, stopped at scipy's measure, the
        # Euclidean residual (unit weights, no relative part), at 1e-10 ||A||
        k, b, m = polygon_operators(dom)
        a = k + sigma * b
        _, lu = eigensolve.shifted_factor(k + ratio * sigma * b, m)
        x0 = lu.solve(m @ np.ones(a.shape[0]))
        tol = 1e-10 * float(abs(a).sum(axis=1).max())
        try:
            own = eigensolve._lobpcg(a, m, lu, x0, 0.0, tol, 1.0)[1]
        except ConvergenceError as exc:
            own = exc.diagnostics["iterations"]
        assert own <= scipy_applications(a, m, lu, x0, tol) + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_preconditioner_output_raises_without_warnings(self, bad):
        a, m = robin_pencil(geometry.unit_square(), 3, 1.0)
        tau, lu = eigensolve.shifted_factor(a, m)

        class Broken:
            def solve(self, b):
                return np.full_like(b, bad)

        guess = lu.solve(m @ np.ones(a.shape[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                eigensolve.smallest_eigs(a, m, start=((tau, Broken()), guess))
        diag = info.value.diagnostics
        assert set(diag) == TestFailureDiagnostics.KEYS
        assert diag["iterations"] == 1 and diag["residual"] > diag["bound"]

    @pytest.mark.parametrize("level", [5, 6, 7], ids=["L5", "L6", "L7"])
    def test_square_scale_grid_needs_no_fallback(self, level, monkeypatch):
        # the benchmark's grid on the CLI's squares, all above the coarse
        # size.  On one fine LU of the unscaled pencil its eps = 1000 member
        # took 39 of the 40 applications allowed at level 7 and fell back at
        # levels 5 and 6; on V-cycles the family re-references from each
        # member that takes more than _REREFERENCE applications.
        families = []
        init = eigensolve.NearbyPencils.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            families.append(self)

        monkeypatch.setattr(eigensolve.NearbyPencils, "__init__", recorded)
        mesh = cli._mesh_at_level(geometry.unit_square(), level, None)
        assert mesh.num_nodes > eigensolve._COARSE_NODES
        bounds.scaling_table(mesh, SigmaField.constant(1.0),
                             [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3])
        (family,) = families
        assert family.fallbacks == 0


class TestFailureDiagnostics:
    """A LOBPCG breakdown, a run over the step cap and a result over the
    gate report the same diagnostics."""

    KEYS = {"iterations", "residual", "bound"}

    def test_gate(self, monkeypatch):
        # the own run stops at _OWN_RTOL |rho|; a gate far below it fails
        a, m = robin_pencil(geometry.unit_square(), 3, 1.0)
        monkeypatch.setattr(eigensolve, "_NEARBY_RTOL", 1e-20)
        monkeypatch.setattr(eigensolve, "_ROUNDOFF", 0.0)
        with pytest.raises(ConvergenceError) as info:
            eigensolve.smallest_eigs(a, m)
        diag = info.value.diagnostics
        assert set(diag) == self.KEYS
        assert diag["residual"] > diag["bound"] and diag["iterations"] > 0

    def test_breakdown(self):
        a, m = robin_pencil(geometry.unit_square(), 3, 1.0)
        factor = eigensolve.shifted_factor(a, m)
        with pytest.raises(ConvergenceError) as info:
            eigensolve.smallest_eigs(a, m, start=(factor, np.zeros(a.shape[0])))
        # without a Ritz value the bound is the floor alone
        floor = eigensolve._ROUNDOFF * eigensolve._yardstick(a, m)[2]
        assert info.value.diagnostics == {"iterations": 0, "residual": None, "bound": floor}


class TestStart:
    """start is a nearby pair and its guess together: either alone is an
    argument error, raised before any solve rather than sending LOBPCG a
    start of None."""

    @pytest.mark.parametrize("which", ["pair-without-guess", "guess-without-pair"])
    def test_incomplete_start_raises_before_any_solve(self, which, monkeypatch):
        a, m = robin_pencil(geometry.unit_square(), 5, 1.0)
        factor = eigensolve.shifted_factor(a, m)
        guess = factor[1].solve(m @ np.ones(a.shape[0]))
        start = (factor, None) if which == "pair-without-guess" else (None, guess)
        solves = []
        monkeypatch.setattr(eigensolve, "_lobpcg", lambda *args, **kw: solves.append(args))
        monkeypatch.setattr(eigensolve.scipy.linalg, "eigh",
                            lambda *args, **kw: solves.append(args))
        with pytest.raises(ArgumentError):
            eigensolve.smallest_eigs(a, m, start=start)
        assert solves == []


def copied_inf_norm(a):
    """The infinity norm as `_inf_norm_estimate` took it before, by summing
    the rows of a copy of |A|."""
    return float(np.max(np.abs(a).sum(axis=1))) if a.shape[0] else 0.0


class TestInfNorm:
    """`_inf_norm_estimate` sums |A|'s rows without copying A, to the same
    bits as the copy."""

    @pytest.mark.parametrize("domain, level", [
        (geometry.unit_square(gamma=geometry.gamma_sides(0)), 5),
        (geometry.disk((0.0, 0.0), 1.0, 16, gamma=geometry.gamma_arcs([(0.0, 3.0)])), 4),
        (geometry.interval(0.0, 1.0), 8),
        (geometry.polygon([(0, 0), (1, 0), (0, 1)], gamma=geometry.gamma_sides(1)), 4),
    ], ids=["square", "disk", "interval", "triangle"])
    def test_mesh_pencils(self, domain, level):
        mesh = cli._mesh_at_level(domain, level, None)
        ops = assembly.operators(mesh)
        mats = [ops.mass, *ops.restrict(geometry.gamma_nodes(mesh))[1:]]
        for sigma in (0.0, 1e-3, 1.0, 1e3):
            b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(sigma))
            mats += [(ops.stiffness + b) / eps ** 2 for eps in (1e-3, 1.0, 1e3)]
        for a in mats:
            assert eigensolve._inf_norm_estimate(a) == copied_inf_norm(a)

    def test_empty_rows(self):
        # rows 0, 2, 3 and 5 are empty: leading, interior and trailing
        a = sp.csr_matrix(([3.0, -1.5, 0.25, -7.0, 2.0], ([1, 1, 4, 4, 4], [0, 5, 1, 2, 3])),
                          shape=(6, 6))
        assert eigensolve._inf_norm_estimate(a) == copied_inf_norm(a) == 9.25

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3)])
    def test_matrices_without_entries(self, shape):
        a = sp.csr_matrix(shape)
        assert eigensolve._inf_norm_estimate(a) == copied_inf_norm(a) == 0.0


class TestRayleighQuotient:
    # on the interval with 1024 elements the LU's rounding is 1e-10
    # relative; the vector's quotient does not follow it.  "dense" is a
    # pencil of 9 nodes, of the size a dense eigensolve once took, now run
    # by LOBPCG like every other
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "lobpcg"])
    def test_values_are_quotients_of_normalised_vectors(self, dense):
        mesh = square_mesh(1) if dense else interval_mesh(1024)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(2.0))
        res = eigensolve.smallest_eigs(a, ops.mass)
        assert res.iterations > 0
        x = res.vector
        assert x @ (ops.mass @ x) == pytest.approx(1.0, rel=1e-14)
        assert res.value == pytest.approx(x @ (a @ x), rel=1e-14)


def test_concurrent_solves_leave_the_warning_filters_alone():
    # catch_warnings swaps the process-wide filter list: threads that enter
    # and leave it interleaved would leave LOBPCG's "ignore" filter behind
    a, m = robin_pencil(geometry.unit_square(), 4, 1.0)
    factor = eigensolve.shifted_factor(a, m)
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
