import gc
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from robinspec import assembly, geometry
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError

from conftest import interval_mesh, square_mesh


def element_gradient_energy(mesh, u):
    """Independent oracle: sum over triangles of |grad u|^2 * area, with the
    P1 gradient computed from a local 3x3 solve per element."""
    total = 0.0
    for tri in mesh.elements:
        p = mesh.nodes[tri]
        a = np.column_stack([np.ones(3), p])
        coeff = np.linalg.solve(a, u[tri])  # u = c0 + c1 x + c2 y
        d1, d2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        total += (coeff[1] ** 2 + coeff[2] ** 2) * area
    return total


class TestStiffness:
    def test_1d_two_elements_hand_assembled(self):
        mesh = interval_mesh(2)
        k = assembly.assemble_stiffness(mesh).toarray()
        # h = 0.5: element matrix 2 * [[1,-1],[-1,1]]
        order = np.argsort(mesh.nodes[:, 0])
        k = k[np.ix_(order, order)]
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        np.testing.assert_allclose(k, expected, atol=1e-13)

    def test_constants_in_kernel(self):
        for mesh in (interval_mesh(7), square_mesh(2)):
            k = assembly.assemble_stiffness(mesh)
            ones = np.ones(mesh.num_nodes)
            assert np.linalg.norm(k @ ones) < 1e-12

    def test_energy_matches_per_element_oracle(self):
        mesh = square_mesh(1)
        k = assembly.assemble_stiffness(mesh)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(mesh.num_nodes)
            quad = u @ (k @ u)
            oracle = element_gradient_energy(mesh, u)
            assert abs(quad - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_symmetry(self):
        mesh = square_mesh(2)
        k = assembly.assemble_stiffness(mesh)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, mesh.num_nodes))
        assert abs(x @ (k @ y) - y @ (k @ x)) <= 1e-13 * max(1.0, abs(x @ (k @ y)))


class TestMass:
    def test_integrates_one_to_area(self):
        mesh = square_mesh(2)
        m = assembly.assemble_mass(mesh)
        ones = np.ones(mesh.num_nodes)
        assert abs(ones @ (m @ ones) - 1.0) < 1e-12

    def test_1d_single_element_hand_integrated(self):
        mesh = geometry.build_mesh(geometry.interval(0, 1), 1.0)
        m = assembly.assemble_mass(mesh).toarray()
        np.testing.assert_allclose(m, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, atol=1e-15)

    def test_positive_definite(self):
        mesh = square_mesh(1)
        m = assembly.assemble_mass(mesh)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(mesh.num_nodes)
            assert v @ (m @ v) > 0.0


class TestBoundaryMass:
    def test_constant_total(self):
        mesh = square_mesh(2)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(3.0))
        ones = np.ones(mesh.num_nodes)
        assert abs(ones @ (b @ ones) - 12.0) < 1e-12

    def test_1d_diagonal_endpoints(self):
        mesh = interval_mesh(4)
        vals = np.zeros(mesh.num_nodes)
        left, right = mesh.boundary[0, 0], mesh.boundary[1, 0]
        vals[left], vals[right] = 2.0, 5.0
        b = assembly.assemble_boundary_mass(mesh, SigmaField.nodal(vals)).toarray()
        expected = np.zeros_like(b)
        expected[left, left] = 2.0
        expected[right, right] = 5.0
        np.testing.assert_allclose(b, expected, atol=1e-15)

    def test_one_side_mass(self):
        mesh = square_mesh(2, gamma=geometry.gamma_sides(0))
        m_target = 7.0
        b = assembly.assemble_boundary_mass(mesh, SigmaField.on_gamma(m_target))
        ones = np.ones(mesh.num_nodes)
        assert abs(ones @ (b @ ones) - m_target) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(ArgumentError):
            SigmaField.constant(-1.0)
        with pytest.raises(ArgumentError):
            SigmaField.nodal([-0.1, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [
        SigmaField.constant,
        SigmaField.on_gamma,
        lambda v: SigmaField.per_edge([1.0, v]),
        lambda v: SigmaField.nodal([0.0, v, 2.0]),
    ], ids=["constant", "on_gamma", "per_edge", "nodal"])
    def test_non_finite_sigma_rejected(self, make, bad):
        with pytest.raises(ArgumentError):
            make(bad)

    def test_nodal_linear_edge_rule_exact(self):
        # integral of a linear sigma over one unit edge: trapezoid is exact
        mesh = square_mesh(0)
        vals = mesh.nodes[:, 0] + 0.5  # linear, positive on the square
        b = assembly.assemble_boundary_mass(mesh, SigmaField.nodal(vals))
        ones = np.ones(mesh.num_nodes)
        # integral of (x + 1/2) over the 4 sides
        exact = 1.0 + (1.0 + 0.5) + 1.0 + 0.5
        assert abs(ones @ (b @ ones) - exact) < 1e-12

    def test_psd(self):
        mesh = square_mesh(1)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(mesh.num_nodes)
            assert v @ (b @ v) >= -1e-14


def gamma_restriction(mesh):
    return assembly.operators(mesh).restrict(geometry.gamma_nodes(mesh))


class TestEliminateGamma:
    def test_interval_both_ends(self):
        free, k_ff, m_ff = gamma_restriction(interval_mesh(8))
        assert k_ff.shape == m_ff.shape == (7, 7)
        assert len(free) == 7

    def test_square_all(self):
        mesh = square_mesh(2)
        _, k_ff, m_ff = gamma_restriction(mesh)
        n_interior = mesh.num_nodes - len(geometry.boundary_nodes(mesh))
        assert k_ff.shape == m_ff.shape == (n_interior, n_interior)

    def test_one_side_keeps_other_corners(self):
        mesh = square_mesh(2, gamma=geometry.gamma_sides(0))
        free, _, _ = gamma_restriction(mesh)
        dropped = np.setdiff1d(np.arange(mesh.num_nodes), free)
        ys = mesh.nodes[dropped, 1]
        xs = mesh.nodes[dropped, 0]
        assert np.all(np.abs(ys) < 1e-14)
        # closed side: both bottom corners eliminated
        assert 0.0 in xs and 1.0 in xs

    def test_empty_gamma_rejected(self):
        mesh = square_mesh(1, gamma=geometry.gamma_none())
        with pytest.raises(ArgumentError):
            gamma_restriction(mesh)

    def test_all_nodes_rejected(self):
        mesh = interval_mesh(1)
        with pytest.raises(ArgumentError):
            gamma_restriction(mesh)

    def test_restricted_blocks_match_full_matrices(self):
        mesh = square_mesh(1)
        ops = assembly.operators(mesh)
        free, k_ff, m_ff = gamma_restriction(mesh)
        np.testing.assert_array_equal(k_ff.toarray(), ops.stiffness.toarray()[np.ix_(free, free)])
        np.testing.assert_array_equal(m_ff.toarray(), ops.mass.toarray()[np.ix_(free, free)])


class TestOperators:
    def test_same_object_per_mesh(self):
        mesh, other = square_mesh(1), square_mesh(1)
        assert assembly.operators(mesh) is assembly.operators(mesh)
        assert assembly.operators(other) is not assembly.operators(mesh)

    def test_matches_fresh_assembly(self):
        mesh = square_mesh(2)
        ops = assembly.operators(mesh)
        k, m = assembly.assemble_stiffness(mesh), assembly.assemble_mass(mesh)
        ones = np.ones(mesh.num_nodes)
        assert (ops.stiffness != k).nnz == 0
        assert (ops.mass != m).nnz == 0
        np.testing.assert_array_equal(ops.load, m @ ones)
        assert ops.volume == float(ones @ (m @ ones))

    def test_dropped_mesh_is_collected(self):
        mesh = square_mesh(1)
        ops = assembly.operators(mesh)
        mesh_ref, ops_ref = weakref.ref(mesh), weakref.ref(ops)
        del mesh, ops
        gc.collect()
        assert mesh_ref() is None
        assert ops_ref() is None

    def test_cached_arrays_are_write_locked(self):
        ops = assembly.operators(square_mesh(1))
        with pytest.raises(ValueError):
            ops.order[0] = 0
        for mat in (ops.stiffness, ops.mass):
            for arr in (mat.data, mat.indices, mat.indptr):
                with pytest.raises(ValueError):
                    arr[0] = arr[0]
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            ops.load[0] = 0.0

    def test_fields_are_read_only(self):
        ops = assembly.operators(square_mesh(1))
        for name in ("stiffness", "mass", "load", "volume", "order"):
            with pytest.raises(AttributeError):
                setattr(ops, name, getattr(ops, name))

    def test_concurrent_first_access_assembles_once(self, monkeypatch):
        calls = []
        orderings = []
        stiffness = assembly.assemble_stiffness
        dissection = assembly._nested_dissection

        def slow_stiffness(m):
            calls.append(m)
            time.sleep(0.02)
            return stiffness(m)

        def slow_dissection(coords, pattern):
            orderings.append(coords)
            time.sleep(0.02)
            return dissection(coords, pattern)

        monkeypatch.setattr(assembly, "assemble_stiffness", slow_stiffness)
        monkeypatch.setattr(assembly, "_nested_dissection", slow_dissection)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                mesh = square_mesh(1)
                barrier = threading.Barrier(4)

                def first_access(_):
                    barrier.wait(timeout=10)
                    ops = assembly.operators(mesh)
                    return ops, ops.order

                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(first_access, range(4), timeout=30))
                assert calls.count(mesh) == 1
                assert sum(coords is mesh.nodes for coords in orderings) == 1
                assert all(ops is results[0][0] for ops, _ in results)
                assert all(order is results[0][1] for _, order in results)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 5
        # operators alone assembles but does not order
        mesh = square_mesh(2)
        ops = assembly.operators(mesh)
        assert len(calls) == 6 and len(orderings) == 5
        assert ops.order is ops.order
        assert len(orderings) == 6


class TestFunctionals:
    def test_integrate_constant(self):
        mesh = square_mesh(2)
        ones = np.ones(mesh.num_nodes)
        assert abs(ones @ (assembly.operators(mesh).mass @ ones) - 1.0) < 1e-12

    def test_l2_norm_constant(self):
        mesh = square_mesh(2)
        c = 3.5
        u = c * np.ones(mesh.num_nodes)
        assert abs(np.sqrt(u @ (assembly.operators(mesh).mass @ u)) - c) < 1e-12

    def test_boundary_integral_recovers_mass(self):
        mesh = square_mesh(2)
        m_target = 5.0
        sigma = SigmaField.constant(m_target / 4.0)
        ones = np.ones(mesh.num_nodes)
        val = ones @ (assembly.assemble_boundary_mass(mesh, sigma) @ ones)
        assert abs(val - m_target) < 1e-12


class TestGalerkin:
    def test_eigenvalue_monotone_under_refinement(self):
        from robinspec import robin
        sigma = SigmaField.constant(1.0)
        mesh = square_mesh(1)
        prev = robin.lowest_eigenvalue(mesh, sigma).value
        for _ in range(2):
            mesh = geometry.refine(mesh)
            cur = robin.lowest_eigenvalue(mesh, sigma).value
            assert cur <= prev + 1e-12
            prev = cur

    def test_rayleigh_quotient_above_lambda1(self):
        from robinspec import robin
        mesh = square_mesh(2)
        sigma = SigmaField.constant(2.0)
        k = assembly.assemble_stiffness(mesh)
        m = assembly.assemble_mass(mesh)
        b = assembly.assemble_boundary_mass(mesh, sigma)
        lam = robin.lowest_eigenvalue(mesh, sigma).value
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.standard_normal(mesh.num_nodes)
            quotient = (u @ (k @ u) + u @ (b @ u)) / (u @ (m @ u))
            assert quotient >= lam - 1e-10 * max(1.0, abs(lam))
