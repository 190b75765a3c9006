import gc
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from robinspec import assembly, geometry
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError

from conftest import L_SHAPE, convex_polygons, interval_mesh, refined, square_mesh


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
        n_interior = mesh.num_nodes - len(np.unique(mesh.boundary))
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
        for name in ("stiffness", "mass", "load", "volume"):
            with pytest.raises(AttributeError):
                setattr(ops, name, getattr(ops, name))

    def test_concurrent_first_access_assembles_once(self, monkeypatch):
        calls = []
        stiffness = assembly.assemble_stiffness

        def slow_stiffness(m):
            calls.append(m)
            time.sleep(0.02)
            return stiffness(m)

        monkeypatch.setattr(assembly, "assemble_stiffness", slow_stiffness)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                mesh = square_mesh(1)
                barrier = threading.Barrier(4)

                def first_access(_):
                    barrier.wait(timeout=10)
                    return assembly.operators(mesh)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(first_access, range(4), timeout=30))
                assert calls.count(mesh) == 1
                assert all(ops is results[0] for ops in results)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 5


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


@st.composite
def meshes_with_gamma(draw):
    """A convex polygon with a random subset of its sides as gamma, a disk
    with a gamma arc, or an interval with gamma at one or both ends, refined
    once or twice."""
    kind = draw(st.sampled_from(["polygon", "disk", "interval"]))
    if kind == "polygon":
        verts = draw(convex_polygons()).vertices
        sides = draw(st.sets(st.integers(0, len(verts) - 1), min_size=1))
        base = geometry.build_mesh(geometry.polygon(verts, gamma=geometry.gamma_sides(*sides)),
                                   0.5)
    elif kind == "disk":
        start = draw(st.floats(0.0, 6.0))
        dom = geometry.disk((0.0, 0.0), draw(st.floats(0.2, 2.0)), draw(st.integers(8, 24)),
                            gamma=geometry.gamma_arcs([(start, start + draw(st.floats(0.5, 3.0)))]))
        base = geometry.build_mesh(dom, 0.5)
    else:
        ends = draw(st.sets(st.integers(0, 1), min_size=1))
        base = geometry.build_mesh(geometry.interval(0.0, draw(st.floats(0.1, 10.0)),
                                                     gamma=geometry.gamma_sides(*ends)), 0.1)
    return refined(base, draw(st.integers(1, 2)))


def assert_exactly_symmetric_csr(a):
    """a equals its transpose bit for bit, its indices are sorted without
    repeats and it stores no zero."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    assert np.all(np.diff(rows * n + a.indices) > 0)
    assert a.has_sorted_indices and np.all(a.data != 0)
    t = a.T.tocsr()
    t.sort_indices()
    for x, y in ((a.indptr, t.indptr), (a.indices, t.indices), (a.data, t.data)):
        assert np.array_equal(x, y)


def sigma_fields(mesh, rng):
    """Each kind of boundary coefficient: constant, constant on gamma,
    per facet with zeros, nodal on gamma and nodal on the whole boundary."""
    per_edge = rng.uniform(0.0, 3.0, len(mesh.boundary))
    per_edge[::3] = 0.0
    nodal = rng.uniform(0.1, 2.0, mesh.num_nodes)
    return [SigmaField.constant(1.3), SigmaField.on_gamma(2.0), SigmaField.per_edge(per_edge),
            SigmaField.nodal(nodal, support="gamma"), SigmaField.nodal(nodal)]


def hardy_weight(mesh, alpha):
    points, weights = assembly.quadrature_rule(mesh)
    return weights / (geometry.distances_to_boundary(mesh, points) + alpha) ** 2


class TestExactSymmetry:
    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(meshes_with_gamma(), st.floats(1e-3, 10.0))
    def test_every_matrix_equals_its_transpose(self, mesh, alpha):
        rng = np.random.default_rng(mesh.num_nodes)
        matrices = [assembly.assemble_stiffness(mesh), assembly.assemble_mass(mesh),
                    assembly.assemble_weighted_mass(mesh, hardy_weight(mesh, alpha))]
        matrices += [assembly.assemble_boundary_mass(mesh, sigma)
                     for sigma in sigma_fields(mesh, rng)]
        for a in matrices:
            assert_exactly_symmetric_csr(a)


def barycentric(mesh, points):
    """The P1 basis values of each element's nodes at its quadrature points,
    (Ne, q, d + 1), by a solve per element."""
    corners = mesh.nodes[mesh.elements]  # (Ne, d + 1, d)
    lhs = np.concatenate([np.ones(corners.shape[:2] + (1,)), corners], axis=2)
    rhs = points.reshape(mesh.num_elements, -1, mesh.dim)
    rhs = np.concatenate([np.ones(rhs.shape[:2] + (1,)), rhs], axis=2)
    return np.linalg.solve(np.swapaxes(lhs, 1, 2)[:, None], rhs[..., None])[..., 0]


class TestWeightedMass:
    @pytest.mark.parametrize("mesh", [
        lambda: square_mesh(3),
        lambda: refined(geometry.build_mesh(geometry.disk((0.0, 0.0), 1.0, 16), 0.5), 2),
        lambda: refined(geometry.build_mesh(geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)]),
                                            0.5), 3),
        lambda: interval_mesh(64),
    ], ids=["square", "disk", "obtuse", "interval"])
    @pytest.mark.parametrize("alpha", [1e-3, 0.25, 10.0])
    def test_form_is_the_quadrature_sum(self, mesh, alpha):
        mesh = mesh()
        points, weights = assembly.quadrature_rule(mesh)
        dist = geometry.distances_to_boundary(mesh, points)
        h = assembly.assemble_weighted_mass(mesh, weights / (dist + alpha) ** 2)
        values = barycentric(mesh, points)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.standard_normal(mesh.num_nodes)
            at_points = np.einsum("tqi,ti->tq", values, u[mesh.elements]).ravel()
            quadrature = np.sum(weights * at_points ** 2 / (dist + alpha) ** 2)
            assert abs(u @ (h @ u) - quadrature) <= 1e-14 * quadrature

    def test_unit_weight_gives_the_mass_matrix(self):
        # the rules are exact for the quadratic u v
        for mesh in (square_mesh(2), interval_mesh(9)):
            _, weights = assembly.quadrature_rule(mesh)
            h = assembly.assemble_weighted_mass(mesh, weights)
            m = assembly.assemble_mass(mesh)
            assert abs(h - m).max() <= 1e-15 * abs(m).max()


# ---------------------------------------------------------------------------
# The assembly plan against the COO scatter it replaced
# ---------------------------------------------------------------------------

def coo_scatter(n, cells, local):
    """The n x n CSR matrix summing the symmetric block local[t] over the
    nodes cells[t] of each cell t, by a COO to CSR conversion, sorted and
    without explicit zeros: the reference for the plan's scatter."""
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    a.eliminate_zeros()
    return a


def coo_stiffness(mesh):
    meas = geometry.element_measures(mesh)
    if mesh.dim == 1:
        local = np.stack([1.0 / meas, -1.0 / meas, -1.0 / meas, 1.0 / meas], axis=1)
        return coo_scatter(mesh.num_nodes, mesh.elements, local)
    p = mesh.nodes[mesh.elements]
    grads = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    grads = np.stack([-grads[:, :, 1], grads[:, :, 0]], axis=2) / (2.0 * meas)[:, None, None]
    local = np.einsum("tik,tjk->tij", grads, grads) * meas[:, None, None]
    return coo_scatter(mesh.num_nodes, mesh.elements, local)


def coo_mass(mesh):
    meas = geometry.element_measures(mesh)
    if mesh.dim == 1:
        local = np.stack([meas / 3.0, meas / 6.0, meas / 6.0, meas / 3.0], axis=1)
        return coo_scatter(mesh.num_nodes, mesh.elements, local)
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return coo_scatter(mesh.num_nodes, mesh.elements, meas[:, None, None] * base[None, :, :])


def coo_weighted_mass(mesh, weights):
    values = assembly._RULES[mesh.dim]
    outer = values[:, :, None] * values[:, None, :]
    local = np.einsum("tq,qij->tij", np.reshape(weights, (mesh.num_elements, -1)), outer)
    return coo_scatter(mesh.num_nodes, mesh.elements, local)


def coo_boundary_mass(mesh, sigma):
    vals, bdry = sigma.edge_values(mesh), mesh.boundary
    lengths = geometry.boundary_edge_lengths(mesh)
    if sigma.support == "gamma":
        keep = mesh.boundary_markers == geometry.GAMMA
        vals, bdry, lengths = vals[keep], bdry[keep], lengths[keep]
    if mesh.dim == 1:
        return coo_scatter(mesh.num_nodes, bdry, vals)
    s0, s1 = vals[:, 0], vals[:, 1]
    b01 = lengths * (s0 + s1) / 12.0
    local = np.stack([lengths * (s0 / 4.0 + s1 / 12.0), b01, b01,
                      lengths * (s0 / 12.0 + s1 / 4.0)], axis=1)
    return coo_scatter(mesh.num_nodes, bdry, local)


def assert_matches_coo(a, ref):
    """The same CSR pattern, the off-diagonal entries bit for bit and the
    diagonal within 4 ulp: only the order of a diagonal's addends differs."""
    for attr in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(a, attr), getattr(ref, attr), err_msg=attr)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    diagonal = rows == a.indices
    np.testing.assert_array_equal(a.data[~diagonal], ref.data[~diagonal])
    ulps = np.abs(a.data[diagonal] - ref.data[diagonal]) / np.spacing(np.abs(ref.data[diagonal]))
    assert ulps.max(initial=0.0) <= 4.0


def assert_edges_consistent(mesh):
    """mesh's edges, inherited through refinement, are those np.unique finds
    on a copy of mesh without a hierarchy, numbered where they first occur
    along the element sides; every element side and boundary facet maps to
    its edge, and every array is write-locked."""
    edges = mesh.edges
    copy = geometry.Mesh(mesh.dim, mesh.nodes, mesh.elements, mesh.boundary,
                         mesh.boundary_markers)
    found = geometry._find_edges(copy)
    np.testing.assert_array_equal(edges.ends, found.ends)
    np.testing.assert_array_equal(edges.of_elements, found.of_elements)
    pairs = [(0, 1), (1, 2), (2, 0)] if mesh.dim == 2 else [(0, 1)]
    sides = np.sort(np.stack([mesh.elements[:, pair] for pair in pairs], axis=1), axis=2)
    np.testing.assert_array_equal(edges.ends[edges.of_elements], sides)
    first = dict.fromkeys(map(tuple, sides.reshape(-1, 2).tolist()))
    np.testing.assert_array_equal(edges.ends, np.array(list(first)))
    arrays = [edges.ends, edges.of_elements]
    if mesh.dim == 2:
        np.testing.assert_array_equal(edges.of_facets, found.of_facets)
        np.testing.assert_array_equal(edges.ends[edges.of_facets], np.sort(mesh.boundary, axis=1))
        arrays.append(edges.of_facets)
    else:
        assert edges.of_facets is None
    assert not any(arr.flags.writeable for arr in arrays)



@st.composite
def plan_meshes(draw):
    """A convex polygon with random gamma sides, a disk with a gamma arc, the
    obtuse triangle, the L-shape or an interval with a gamma end, refined
    0-3 times."""
    kind = draw(st.sampled_from(["polygon", "disk", "obtuse", "l-shape", "interval"]))
    if kind == "polygon":
        verts = draw(convex_polygons()).vertices
        sides = draw(st.sets(st.integers(0, len(verts) - 1)))
        dom = geometry.polygon(verts, gamma=geometry.gamma_sides(*sides))
    elif kind == "disk":
        start = draw(st.floats(0.0, 6.0))
        dom = geometry.disk((0.0, 0.0), 1.0, 16, gamma=geometry.gamma_arcs([(start, start + 2.0)]))
    elif kind == "obtuse":
        dom = geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)], gamma=geometry.gamma_sides(0))
    elif kind == "l-shape":
        dom = geometry.polygon(L_SHAPE, gamma=geometry.gamma_sides(1, 3))
    else:
        dom = geometry.interval(0.0, draw(st.floats(0.1, 10.0)), gamma=geometry.gamma_sides(1))
    base = geometry.build_mesh(dom, 0.5 if dom.dim == 2 else dom.b / draw(st.integers(1, 9)))
    return refined(base, draw(st.integers(0, 3)))


class TestPlan:
    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(plan_meshes())
    def test_matrices_equal_the_coo_scatter(self, mesh):
        assert_edges_consistent(mesh)
        rng = np.random.default_rng(mesh.num_nodes)
        points, weights = assembly.quadrature_rule(mesh)
        weights = weights * rng.uniform(0.5, 2.0, len(weights)) * (1.0 + points[:, 0] ** 2)
        pairs = [(assembly.assemble_stiffness(mesh), coo_stiffness(mesh)),
                 (assembly.assemble_mass(mesh), coo_mass(mesh)),
                 (assembly.assemble_weighted_mass(mesh, weights), coo_weighted_mass(mesh, weights))]
        pairs += [(assembly.assemble_boundary_mass(mesh, sigma), coo_boundary_mass(mesh, sigma))
                  for sigma in sigma_fields(mesh, rng)]
        for a, ref in pairs:
            assert_matches_coo(a, ref)
            assert_exactly_symmetric_csr(a)

    @pytest.mark.parametrize("mesh", [lambda: square_mesh(4), lambda: interval_mesh(40)],
                             ids=["square", "interval"])
    def test_stiffness_and_mass_bit_identical_where_every_sum_is_exact(self, mesh):
        # element blocks of dyadic numbers: no order of addends rounds
        mesh = mesh()
        for a, ref in ((assembly.assemble_stiffness(mesh), coo_stiffness(mesh)),
                       (assembly.assemble_mass(mesh), coo_mass(mesh))):
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, attr), getattr(ref, attr))

    def test_one_plan_per_mesh_shared_by_matrices_without_zeros(self):
        mesh = square_mesh(2)
        plan = assembly._plan(mesh)
        assert assembly._plan(mesh) is plan
        m = assembly.assemble_mass(mesh)
        assert np.shares_memory(m.indices, plan.indices)
        for arr in (plan.indptr, plan.indices, plan.diagonal, plan.upper, plan.lower):
            assert not arr.flags.writeable
        # the square's right angles zero some stiffness entries, which K drops
        k = assembly.assemble_stiffness(mesh)
        assert k.nnz < len(plan.indices) and np.all(k.data != 0)

    def test_assembly_peaks_below_the_coo_triples(self):
        # the COO path held 9 Ne (row, col, value) triples per matrix, 24 B
        # each, before summing them; the plan's scatter holds none
        mesh = square_mesh(7)
        tracemalloc.start()
        try:
            assembly.assemble_stiffness(mesh)
            assembly.assemble_mass(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * mesh.num_elements * 24

    def test_concurrent_first_access_finds_edges_and_builds_the_plan_once(self, monkeypatch):
        base = square_mesh(2)
        found, built = [], []
        find, build = geometry._find_edges, assembly._build_plan

        def slow_find(mesh):
            found.append(mesh)
            time.sleep(0.02)
            return find(mesh)

        def slow_build(mesh):
            built.append(mesh)
            time.sleep(0.02)
            return build(mesh)

        monkeypatch.setattr(geometry, "_find_edges", slow_find)
        monkeypatch.setattr(assembly, "_build_plan", slow_build)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                # a copy without a hierarchy finds its edges on first access
                mesh = geometry.Mesh(2, base.nodes, base.elements, base.boundary,
                                     base.boundary_markers)
                barrier = threading.Barrier(4)

                def first_access(_):
                    barrier.wait(timeout=10)
                    return assembly.assemble_mass(mesh), mesh.edges

                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(first_access, range(4), timeout=30))
                assert found.count(mesh) == 1 and built.count(mesh) == 1
                assert all(edges is results[0][1] for _, edges in results)
                assert all(np.shares_memory(m.indices, results[0][0].indices) for m, _ in results)
        finally:
            sys.setswitchinterval(interval)
        assert len(found) == len(built) == 5
