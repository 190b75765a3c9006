"""`converge` as one refinement chain: `NearbyPencils` with a prolongation.

The chain walks the hierarchy a refined mesh carries, factors its first
level above dense size and solves every finer level by LOBPCG from the
prolonged eigenvector of the level below, preconditioned by a V-cycle over
that one factorization.  The prolongation `refine` stores must be the P1
interpolation, the cycle must be symmetric positive definite, the chain's
meshes must be the ones `_mesh_at_level` builds level by level, and a level
LOBPCG cannot finish must be solved on its own LU, which the level above
then nests over.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from scipy.sparse.linalg import splu

from robinspec import assembly, cli, eigensolve, geometry, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ConvergenceError

from conftest import L_SHAPE, convex_polygons

DOMAINS = {
    "square": geometry.unit_square(),
    "triangle": geometry.polygon([(0, 0), (1, 0), (0, 1)]),
    "disk": geometry.disk((0.0, 0.0), 1.0, 16),
    "interval": geometry.interval(0.0, 1.0),
}


def level(name, lvl):
    return cli._mesh_at_level(DOMAINS[name], lvl, None)


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []

    def counted(a, **kwargs):
        calls.append(a.shape[0])
        return splu(a, **kwargs)

    monkeypatch.setattr(eigensolve, "splu", counted)
    return calls


def converge(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["converge", *argv]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "level,h,dofs,lambda1,diff,order"
    return [line.split(",") for line in lines[1:]]


class TestProlongation:
    @pytest.mark.parametrize("name", ["square", "triangle", "interval"])
    @pytest.mark.parametrize("lvl", [0, 1, 2])
    def test_reproduces_linear_functions(self, name, lvl):
        coarse = level(name, lvl)
        fine = geometry.refine(coarse)
        p = fine.coarse[1]
        assert p.shape == (fine.num_nodes, coarse.num_nodes)
        slope = np.array([0.7, -1.3])[:coarse.dim]
        for f in (lambda x: 2.0 + x @ slope, lambda x: np.ones(len(x))):
            np.testing.assert_allclose(p @ f(coarse.nodes), f(fine.nodes), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lvl", [0, 1, 2])
    def test_reproduces_constants_on_the_disk(self, lvl):
        coarse = level("disk", lvl)
        fine = geometry.refine(coarse)
        p = fine.coarse[1]
        assert np.array_equal(p @ np.ones(coarse.num_nodes), np.ones(fine.num_nodes))
        # the projected boundary midpoints leave the coarse mesh: not nested
        assert np.abs(p @ coarse.nodes[:, 0] - fine.nodes[:, 0]).max() > 1e-3


def hierarchy(name, top):
    """The V-cycle at level `top` over a shifted LU at level 1, built as the
    chain builds it, with the pencil's shift."""
    sigma = SigmaField.constant(1.0)
    mesh = level(name, 1)
    ops = assembly.operators(mesh)
    a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
    tau, solver = eigensolve.shifted_factor(a, ops.mass)
    for _ in range(1, top):
        mesh = geometry.refine(mesh)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
        solver = eigensolve._VCycle((a - tau * ops.mass).tocsr(), mesh.coarse[1], solver)
    return a - tau * ops.mass, solver


def smoothed_spectrum_top(cycle):
    """lambda_max(W S) of a cycle's level, W its Jacobi weights."""
    root = np.sqrt(cycle.weights)
    s = root[:, None] * cycle.shifted.toarray() * root[None, :]
    return scipy.linalg.eigvalsh(s, subset_by_index=[len(s) - 1, len(s) - 1])[0]


class TestVCycle:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_weight_keeps_the_smoother_contracting(self, dim):
        # omega min(g, d + 1) = _SMOOTHING bounds lambda_max(W S), and the
        # Gershgorin bound g never lowers the weight below the P1 cap's
        shifted, cycle = hierarchy("interval" if dim == 1 else "square", 3)
        assert 0.0 < smoothed_spectrum_top(cycle) <= eigensolve._SMOOTHING + 1e-12 < 2.0
        assert np.all(cycle.weights * shifted.diagonal()
                      >= eigensolve._SMOOTHING / (dim + 1) * (1.0 - 1e-12))

    @pytest.mark.parametrize("name", ["square", "disk", "triangle"])
    @pytest.mark.parametrize("top", [2, 3])
    def test_cycle_is_symmetric_positive_definite(self, name, top):
        shifted, cycle = hierarchy(name, top)
        b = np.column_stack([cycle.solve(e) for e in np.eye(shifted.shape[0])])
        np.testing.assert_allclose(b, b.T, rtol=0, atol=1e-10 * np.abs(b).max())
        eig = np.linalg.eigvalsh(0.5 * (b + b.T))
        assert eig.min() > 0.0
        if name != "disk":
            # nested levels: the coarse operator is P^T S P, so the coarse
            # correction is an S-orthogonal projection and B S has its
            # spectrum in (0, 1]
            spectrum = np.linalg.eigvals(b @ shifted.toarray()).real
            assert spectrum.min() > 0.0 and spectrum.max() <= 1.0 + 1e-9


    def test_a_cycle_takes_four_products_with_s(self):
        # the pre-smoother starts at W b, the first Jacobi step from zero,
        # so it skips the product with a zero vector and changes no bit
        shifted, cycle = hierarchy("square", 3)

        class Counted:
            def __init__(self, matrix):
                self.matrix, self.products = matrix, 0
                # the Gershgorin bound reads the CSR arrays
                self.data, self.indptr = matrix.data, matrix.indptr

            def diagonal(self):
                return self.matrix.diagonal()

            def __matmul__(self, x):
                self.products += 1
                return self.matrix @ x

        counted = Counted(cycle.shifted)
        counting = eigensolve._VCycle(counted, cycle.prolongation, cycle.coarse)
        assert counted.products == 0
        np.testing.assert_array_equal(counting.weights, cycle.weights)
        b = np.random.default_rng(4).standard_normal(shifted.shape[0])
        x = counting.solve(b)
        assert counted.products == 4
        # the same bits as two full sweeps from zero
        w, s = counting.weights, cycle.shifted
        want = np.zeros_like(b)
        for _ in range(eigensolve._SWEEPS):
            want = want + w * (b - s @ want)
        want = want + cycle.prolongation @ cycle.coarse.solve(
            cycle.restriction @ (b - s @ want))
        for _ in range(eigensolve._SWEEPS):
            want = want + w * (b - s @ want)
        np.testing.assert_array_equal(x, want)


@st.composite
def hierarchy_meshes(draw, kind):
    """A convex polygon with gamma all or some of its sides, the obtuse
    triangle, the disk with a gamma arc or the L-shape, refined as often as
    it stays at most 2,000 nodes."""
    if kind == "polygon":
        verts = draw(convex_polygons()).vertices
        sides = draw(st.sets(st.integers(0, len(verts) - 1), min_size=1))
        dom = geometry.polygon(verts, gamma=geometry.gamma_sides(*sides))
    elif kind == "obtuse":
        dom = geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)])
    elif kind == "disk":
        start = draw(st.floats(0.0, 6.0))
        dom = geometry.disk((0.0, 0.0), 1.0, 16, gamma=geometry.gamma_arcs([(start, start + 2.0)]))
    else:
        dom = geometry.polygon(L_SHAPE, gamma=geometry.gamma_sides(1, 3))
    mesh = geometry.build_mesh(dom, 1.0)
    while (fine := geometry.refine(mesh)).num_nodes <= 2000:
        mesh = fine
    return mesh


def cycle_levels(solver):
    """Each `_VCycle` of a preconditioner, finest first."""
    while isinstance(solver, eigensolve._VCycle):
        yield solver
        solver = solver.coarse


def cycle_spectrum(cycle):
    """The spectrum of B S, B the cycle as a dense matrix and S its level's
    shifted matrix: the eigenvalues of the pencil (S B S, S)."""
    s = cycle.shifted
    b = np.column_stack([cycle.solve(e) for e in np.eye(s.shape[0])])
    sbs = s @ (s @ (0.5 * (b + b.T))).T
    return scipy.linalg.eigvalsh(0.5 * (sbs + sbs.T), s.toarray())


class TestSmoothingWeight:
    """Every level's Gershgorin weight keeps lambda_max(W S) below 2 and the
    cycle symmetric positive definite, with B S at most 1 where the coarse
    correction is an S-orthogonal projection: on the Robin and pinned
    Galerkin hierarchies of `shifted_factor`, coarsened here to at most 40
    nodes so that each mesh has several levels, and on the re-discretised
    levels of a refinement chain (`robin.refinement_levels`) where they are
    nested, which the disk's are not."""

    @pytest.mark.parametrize("kind, examples", [("polygon", 5), ("obtuse", 2), ("disk", 2),
                                                ("l-shape", 2)])
    def test_every_level_smooths_below_two_and_b_s_lies_in_0_1(self, kind, examples):
        # no shrinking: each example takes dense eigensolves of every level
        @settings(max_examples=examples, derandomize=True, deadline=None, database=None,
                  phases=[Phase.generate],
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
        @given(hierarchy_meshes(kind), st.floats(-2.0, 3.0))
        def check(mesh, log_sigma):
            sigma = SigmaField.constant(10.0 ** log_sigma)
            ops = assembly.operators(mesh)
            a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
            free, k_ff, m_ff = ops.restrict(geometry.gamma_nodes(mesh))
            with mock.patch.object(eigensolve, "_COARSE_NODES", 40):
                galerkin = [eigensolve.shifted_factor(a, ops.mass, assembly.hierarchy(mesh)),
                            eigensolve.shifted_factor(k_ff, m_ff, assembly.hierarchy(mesh, free))]
            meshes = [mesh]
            while meshes[-1].coarse is not None:
                meshes.append(meshes[-1].coarse[0])
            chain = eigensolve.NearbyPencils()
            for fine in reversed(meshes[:-1]):
                fine_ops = assembly.operators(fine)
                chain.lowest(fine_ops.stiffness + assembly.assemble_boundary_mass(fine, sigma),
                             fine_ops.mass, (), fine.coarse[1])
            cycles = [(level, True) for _, solver in galerkin for level in cycle_levels(solver)]
            assert len(cycles) >= 4
            # the cycles above the last level the chain factored
            cycles += [(level, kind != "disk") for level in cycle_levels(chain.pair[1])]
            for cycle, projection in cycles:
                assert smoothed_spectrum_top(cycle) < 2.0
                spectrum = cycle_spectrum(cycle)
                assert spectrum[0] > 0.0
                if projection:
                    assert spectrum[-1] <= 1.0 + 1e-9

        check()


class TestChain:
    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_meshes_are_the_per_level_meshes(self, name):
        chain = robin.refinement_levels(level(name, 4), SigmaField.constant(1.0), 4)
        for lvl, (mesh, _) in enumerate(chain, start=1):
            want = level(name, lvl)
            assert mesh.level == want.level == lvl
            for field in ("nodes", "elements", "boundary", "boundary_markers"):
                assert np.array_equal(getattr(mesh, field), getattr(want, field)), field

    @pytest.mark.parametrize("argv", [
        ["--domain", "disk", "--sigma", "1", "--levels", "5"],
        ["--domain", "square", "--sigma", "1", "--levels", "5"],
        ["--domain", "interval", "--sigma-a", "1", "--sigma-b", "1", "--levels", "10"],
    ], ids=["disk", "square", "interval"])
    def test_one_factorization_and_one_ordering(self, argv, splu_calls):
        # SuperLU orders the one matrix it factors
        rows = converge(argv)
        assert len(splu_calls) == 1
        # the factored level is the first one
        assert splu_calls[0] == int(rows[0][2])

    def test_a_built_base_gives_only_the_levels_asked_for(self):
        # the base of --target-h 0.3 is itself the third refinement of the
        # initial square, yet the chain starts at its first refinement
        rows = converge(["--domain", "square", "--sigma", "1", "--target-h", "0.3",
                         "--levels", "3"])
        assert [(row[0], row[2]) for row in rows] == [("1", "289"), ("2", "1089"),
                                                      ("3", "4225")]

    @pytest.mark.parametrize("name", ["square", "disk", "triangle", "interval"])
    def test_values_match_per_level_solves(self, name):
        sigma = SigmaField.constant(1.0)
        top = 8 if name == "interval" else 4
        for mesh, res in robin.refinement_levels(level(name, top), sigma, top):
            want = robin.lowest_eigenvalue(mesh, sigma)
            assert abs(res.value - want.value) <= 1e-12 * want.value
            # positive mean, like lowest_eigenvalue's eigenfunction
            assert assembly.operators(mesh).load @ res.eigenfunction > 0


# domains on whose chain LOBPCG cannot finish some levels on their V-cycles
STIFF = {
    "thin-rectangle": geometry.rectangle(1.0, 0.05),
    "obtuse-triangle": geometry.polygon([(0, 0), (1, 0), (0.95, 0.05)]),
}


class TestChainGiveUp:
    @pytest.mark.parametrize("name", sorted(STIFF))
    def test_levels_that_give_up_are_factored_and_match_per_level_solves(self, name,
                                                                          splu_calls):
        # the first level, then each level whose warm run on the cycle over
        # the last factored level gives up, is solved on its own LU, and the
        # level above nests over that LU: the thin rectangle's levels from
        # 289 nodes give up, and every level of the obtuse triangle
        sigma = SigmaField.constant(1.0)
        finest = cli._mesh_at_level(STIFF[name], 6, None)
        results = list(robin.refinement_levels(finest, sigma, 6))
        sizes = [mesh.num_nodes for mesh, _ in results]
        assert splu_calls == ([9, 289, 1089, 4225] if name == "thin-rectangle" else sizes)
        for mesh, res in results:
            want = robin.lowest_eigenvalue(mesh, sigma)
            assert abs(res.value - want.value) <= 1e-12 * want.value

    def test_a_level_that_gives_up_does_not_end_the_nesting(self, splu_calls, monkeypatch):
        # the warm run of level 3 (81 nodes) on square L5 is made to give
        # up: that level is factored, and levels 4 and 5 nest over its LU
        smallest_eigs = eigensolve.smallest_eigs

        def gives_up_at_level_3(a, m, factor=None, start=None):
            if start is not None and a.shape[0] == 81:
                raise ConvergenceError("forced give-up")
            return smallest_eigs(a, m, factor=factor, start=start)

        monkeypatch.setattr(eigensolve, "smallest_eigs", gives_up_at_level_3)
        sigma = SigmaField.constant(1.0)
        results = list(robin.refinement_levels(level("square", 5), sigma, 5))
        assert [mesh.num_nodes for mesh, _ in results] == [9, 25, 81, 289, 1089]
        assert splu_calls == [9, 81]
        monkeypatch.undo()
        for mesh, res in results:
            want = robin.lowest_eigenvalue(mesh, sigma)
            assert abs(res.value - want.value) <= 1e-12 * want.value


class TestOrderColumn:
    @pytest.mark.parametrize("argv", [
        ["--domain", "square", "--sigma", "0", "--levels", "3"],
        ["--domain", "interval", "--sigma-a", "0", "--sigma-b", "0", "--levels", "7"],
        ["--domain", "disk", "--sigma", "0", "--levels", "3"],
    ], ids=["square", "interval", "disk"])
    def test_round_off_diffs_get_no_order(self, argv):
        rows = converge(argv)
        assert all(abs(float(row[3])) < 1e-12 for row in rows)
        assert [row[5] for row in rows] == [""] * len(rows)
        assert all(row[4] for row in rows[:-1])

    @pytest.mark.parametrize("argv", [
        ["--domain", "square", "--sigma", "1", "--levels", "3"],
        ["--domain", "interval", "--sigma-a", "1", "--sigma-b", "1", "--levels", "7"],
        ["--domain", "disk", "--sigma", "1", "--levels", "3"],
    ], ids=["square", "interval", "disk"])
    def test_resolved_diffs_keep_their_order(self, argv):
        rows = converge(argv)
        orders = [row[5] for row in rows]
        assert all(orders[:-2]) and orders[-2:] == ["", ""]
        assert all(1.8 < float(o) < 2.2 for o in orders[:-2])

    def test_floor_follows_the_gate(self):
        # DEFAULT_TOL relative, over the round-off floor of the pencil's
        # lambda_max estimate, max_i -sum_j min(k_ij, 0) / (M 1)_i: 4 / h^2
        # at the square's interior nodes
        ops = assembly.operators(level("square", 3))
        floor = eigensolve.eigenvalue_floor
        round_off = eigensolve._ROUNDOFF * 4.0 * 64.0
        assert floor(0.0, ops.stiffness, ops.mass) == pytest.approx(round_off, rel=1e-12)
        assert floor(-4000.0, ops.stiffness, ops.mass) == pytest.approx(
            4000.0 * eigensolve.DEFAULT_TOL + round_off, rel=1e-12)
