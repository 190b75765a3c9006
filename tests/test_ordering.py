"""The nested-dissection ordering each mesh's operators carry.

Every package factorization runs in its mesh's ordering: the ordering must
be a permutation (also restricted to free nodes), ordered solves must agree
with SuperLU's default COLAMD ones, and the ordering must leave less fill
than COLAMD on the benchmark's largest meshes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from robinspec import assembly, cli, eigensolve, geometry, robin

from conftest import L_SHAPE, disk_mesh, interval_mesh, square_mesh, triangle_mesh

MESHES = {
    "square": lambda: square_mesh(4),
    "triangle": lambda: triangle_mesh(4),
    "disk": lambda: disk_mesh(3),
    "interval": lambda: interval_mesh(300),
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def is_permutation(order, n):
    return order.dtype.kind == "i" and np.array_equal(np.sort(order), np.arange(n))


class TestPermutation:
    def test_ordering_is_a_permutation(self, mesh):
        order = assembly.operators(mesh).order
        assert is_permutation(order, mesh.num_nodes)
        assert not order.flags.writeable

    @pytest.mark.parametrize("make", [square_mesh, triangle_mesh, disk_mesh])
    def test_coarse_meshes(self, make):
        for level in range(3):
            m = make(level)
            assert is_permutation(assembly.operators(m).order, m.num_nodes)

    @pytest.mark.parametrize("fixed", [geometry.gamma_nodes, geometry.boundary_nodes])
    def test_free_order_keeps_relative_order(self, mesh, fixed):
        ops = assembly.operators(mesh)
        free, _, _ = ops.restrict(fixed(mesh))
        free_order = ops.free_order(free)
        assert is_permutation(free_order, len(free))
        # in the mesh's numbering, the free nodes in the order they have there
        kept = ops.order[np.isin(ops.order, free)]
        np.testing.assert_array_equal(free[free_order], kept)

    def test_path_is_cut_at_its_middle_and_the_cut_comes_last(self):
        # the root separator of a path is one vertex near its middle; the two
        # halves it leaves are ordered before it, one after the other
        m = interval_mesh(200)
        order = assembly.operators(m).order
        x = m.nodes[:, 0]
        cut = order[-1]
        assert abs(x[cut] - 0.5) <= 1.5 / 200
        position = np.argsort(order)
        left, right = x < x[cut], x > x[cut]
        assert position[left].max() < position[right].min()


class TestOrderedSolves:
    def test_solve_spd_agrees_with_colamd(self, mesh):
        ops = assembly.operators(mesh)
        a = ops.stiffness + ops.mass
        b = np.random.default_rng(7).standard_normal(mesh.num_nodes)
        colamd = splu(sp.csc_matrix(a)).solve(b)
        ordered = eigensolve.solve_spd(a, b, order=ops.order)
        assert np.linalg.norm(ordered - colamd) <= 1e-12 * np.linalg.norm(colamd)

    def test_shifted_factor_is_backward_stable(self, mesh):
        # raw LU solves differ by the conditioning (about 1e6 on the
        # interval); each must solve its own system to round-off
        ops = assembly.operators(mesh)
        a = ops.stiffness + ops.mass
        b = np.random.default_rng(8).standard_normal((mesh.num_nodes, 3))
        tau, lu = eigensolve.shifted_factor(a, ops.mass, order=ops.order)
        tau0, _ = eigensolve.shifted_factor(a, ops.mass)
        assert tau == tau0
        shifted = a - tau * ops.mass
        x = lu.solve(b)
        scale = abs(shifted).sum(axis=1).max() * np.linalg.norm(x)
        assert np.linalg.norm(shifted @ x - b) <= 1e-14 * scale

    def test_pinned_solve_agrees_with_colamd(self, mesh):
        ops = assembly.operators(mesh)
        free, k_ff, m_ff = ops.restrict(geometry.gamma_nodes(mesh))
        a = k_ff + m_ff
        b = ops.load[free]
        ordered = eigensolve.solve_spd(a, b, order=ops.free_order(free))
        colamd = eigensolve.solve_spd(a, b)
        assert np.linalg.norm(ordered - colamd) <= 1e-12 * np.linalg.norm(colamd)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("domain, level", [(geometry.unit_square(), 7),
                                           (geometry.disk((0.0, 0.0), 1.0, 16), 6)],
                         ids=["square-L7", "disk-L6"])
def test_fill_below_colamd(domain, level, monkeypatch):
    # the benchmark's largest meshes, built by the CLI's recipe
    mesh = cli._mesh_at_level(domain, level, None)
    ops = assembly.operators(mesh)
    factors = []
    real_splu = eigensolve.splu

    def recorded(a, **kwargs):
        factors.append(real_splu(a, **kwargs))
        return factors[-1]

    monkeypatch.setattr(eigensolve, "splu", recorded)
    eigensolve.shifted_factor(ops.stiffness, ops.mass, order=ops.order)
    eigensolve.shifted_factor(ops.stiffness, ops.mass)
    ordered, colamd = factors
    assert fill(ordered) < fill(colamd)


@pytest.mark.parametrize("argv", [
    ["bounds", "--domain", "square", "--m", "0.1,10", "--levels", "3",
     "--sigma", "1"],
    ["optimal", "--domain", "square", "--m", "1", "--levels", "3"],
    ["scaling", "--domain", "square", "--sigma", "1", "--eps", "0.01,1,100",
     "--levels", "3"],
], ids=["bounds", "optimal", "scaling"])
def test_cli_factors_only_in_mesh_order(argv, tmp_path, monkeypatch, capsys):
    calls = []
    real_splu = eigensolve.splu

    def recorded(a, **kwargs):
        calls.append(kwargs)
        return real_splu(a, **kwargs)

    monkeypatch.setattr(eigensolve, "splu", recorded)
    extra = ["--csv", str(tmp_path / "sigma.csv")] if argv[0] == "optimal" else []
    assert cli.main(argv + extra) == 0
    capsys.readouterr()
    assert calls
    assert all(kw.get("permc_spec") == "NATURAL" for kw in calls)


class TestOrderedOnlyWhenFactored:
    """The ordering is computed by the first factorization on a mesh, so
    solves that factor nothing leave it uncomputed."""

    @pytest.fixture
    def orderings(self, monkeypatch):
        calls = []
        dissection = assembly._nested_dissection

        def counted(coords, pattern):
            calls.append(len(coords))
            return dissection(coords, pattern)

        monkeypatch.setattr(assembly, "_nested_dissection", counted)
        return calls

    def test_dense_spectra_are_not_ordered(self, orderings):
        mesh = square_mesh(1)
        assert mesh.num_nodes <= eigensolve._DENSE_CUTOFF
        robin.lowest_eigenvalue(mesh, assembly.SigmaField.constant(1.0))
        robin.dirichlet_eigenvalue(mesh, geometry.boundary_nodes(mesh))
        robin.concentration_sweep(mesh, 1.0, (0.5, 0.0), 1)
        assert orderings == []

    def test_spectrum_with_a_ready_factor_is_not_ordered(self, orderings):
        mesh = square_mesh(3)
        sigma = assembly.SigmaField.constant(1.0)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
        factor = eigensolve.shifted_factor(a, ops.mass)
        eigensolve.smallest_eigs(a, ops.mass, factor=factor, order=lambda: ops.order)
        assert orderings == []
        robin.lowest_eigenvalue(mesh, sigma)
        assert orderings == [mesh.num_nodes]

    def test_meshes_above_the_coarse_size_order_only_their_coarse_level(self, orderings):
        # solve and the shrinking support run on V-cycles over one coarse LU
        mesh = cli._mesh_at_level(geometry.unit_square(), 6, None)
        coarse = mesh.coarse[0].coarse[0]
        assert mesh.coarse[0].num_nodes > eigensolve._COARSE_NODES >= coarse.num_nodes
        sigma = assembly.SigmaField.constant(1.0)
        robin.lowest_eigenvalue(mesh, sigma)
        robin.concentration_sweep(mesh, 1.0, (0.4, 0.0), 5)
        assert orderings == [coarse.num_nodes]


@pytest.mark.parametrize("base", [lambda: square_mesh(0), lambda: disk_mesh(0),
                                  lambda: geometry.build_mesh(geometry.polygon(L_SHAPE), 0.9)],
                         ids=["square", "disk", "l-shape"])
def test_edge_orders_equal_the_mass_pattern_orders(base):
    # the dissection of the edge list is the dissection of M's graph
    mesh = base()
    for _ in range(4):
        mesh = geometry.refine(mesh)
        upper = sp.triu(assembly.assemble_mass(mesh), k=1, format="coo")
        want = assembly._nested_dissection(mesh.nodes, np.column_stack([upper.row, upper.col]))
        np.testing.assert_array_equal(assembly.operators(mesh).order, want)


def test_coarse_levels_are_ordered_without_assembly(monkeypatch):
    assembled = []
    stiffness = assembly.assemble_stiffness

    def counted(mesh):
        assembled.append(mesh)
        return stiffness(mesh)

    monkeypatch.setattr(assembly, "assemble_stiffness", counted)
    mesh = square_mesh(4)
    fixed = geometry.boundary_nodes(mesh)
    free = np.setdiff1d(np.arange(mesh.num_nodes), fixed)
    for (_, order), coarse in zip(assembly.hierarchy(mesh)[1:], coarse_meshes(mesh)):
        assert is_permutation(order(), coarse.num_nodes)
    for (_, order), coarse in zip(assembly.hierarchy(mesh, free)[1:], coarse_meshes(mesh)):
        assert is_permutation(order(), np.count_nonzero(free < coarse.num_nodes))
    assert assembled == []


def coarse_meshes(mesh):
    while mesh.coarse is not None:
        mesh = mesh.coarse[0]
        yield mesh
