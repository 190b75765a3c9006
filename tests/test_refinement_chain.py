"""`converge` as one refinement chain: `NearbyPencils` with a prolongation.

The chain refines one base mesh, factors its first level above dense size
and solves every finer level by LOBPCG from the prolonged eigenvector of
the level below, preconditioned by a V-cycle over that one factorization.
The prolongation must be the P1 interpolation refine implies, the cycle
must be symmetric positive definite, the chain's meshes must be the ones
`converge` built level by level, and a level LOBPCG cannot finish must
fall back, for good, to solving each level on its own LU.
"""

import contextlib
import io

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from robinspec import assembly, cli, eigensolve, geometry, robin
from robinspec.assembly import SigmaField

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
        fine, p = geometry.refine_with_prolongation(coarse)
        assert p.shape == (fine.num_nodes, coarse.num_nodes)
        slope = np.array([0.7, -1.3])[:coarse.dim]
        for f in (lambda x: 2.0 + x @ slope, lambda x: np.ones(len(x))):
            np.testing.assert_allclose(p @ f(coarse.nodes), f(fine.nodes), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lvl", [0, 1, 2])
    def test_reproduces_constants_on_the_disk(self, lvl):
        coarse = level("disk", lvl)
        fine, p = geometry.refine_with_prolongation(coarse)
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
    tau, solver = eigensolve.shifted_factor(a, ops.mass, order=ops.order)
    omega = eigensolve.NearbyPencils(mesh.dim).omega
    for _ in range(1, top):
        mesh, p = geometry.refine_with_prolongation(mesh)
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
        solver = eigensolve._VCycle((a - tau * ops.mass).tocsr(), p, solver, omega)
    return a - tau * ops.mass, solver


class TestVCycle:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_weight_keeps_the_smoother_contracting(self, dim):
        # omega (d + 1) bounds lambda_max(W S) for P1 elements
        assert 0.0 < eigensolve.NearbyPencils(dim).omega * (dim + 1) < 2.0

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


class TestChain:
    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_meshes_are_the_per_level_meshes(self, name):
        chain = robin.refinement_levels(level(name, 0), 4, SigmaField.constant(1.0))
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
    def test_one_factorization_and_one_ordering(self, argv, splu_calls, monkeypatch):
        orderings = []
        dissection = assembly._nested_dissection

        def counted(coords, pattern):
            orderings.append(len(coords))
            return dissection(coords, pattern)

        monkeypatch.setattr(assembly, "_nested_dissection", counted)
        rows = converge(argv)
        assert len(splu_calls) == 1 and orderings == splu_calls
        # the factored level is the first one above dense size
        sizes = [int(row[2]) for row in rows]
        assert splu_calls[0] == min(n for n in sizes if n > eigensolve._DENSE_CUTOFF)

    @pytest.mark.parametrize("name", ["square", "disk", "triangle", "interval"])
    def test_values_match_per_level_solves(self, name):
        sigma = SigmaField.constant(1.0)
        top = 8 if name == "interval" else 4
        for mesh, res in robin.refinement_levels(level(name, 0), top, sigma):
            want = robin.lowest_eigenvalue(mesh, sigma)
            assert abs(res.value - want.value) <= 1e-12 * want.value
            # positive mean, like lowest_eigenvalue's eigenfunction
            assert assembly.operators(mesh).load @ res.eigenfunction > 0


STIFF = {
    "thin-rectangle": geometry.rectangle(1.0, 0.05),
    "obtuse-triangle": geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)]),
}


class TestStickyFallback:
    @pytest.mark.parametrize("name", sorted(STIFF))
    def test_falls_back_for_good_and_matches_per_level_solves(self, name, splu_calls,
                                                              monkeypatch):
        chains = []

        class Recorded(eigensolve.NearbyPencils):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                chains.append(self)

        monkeypatch.setattr(robin, "NearbyPencils", Recorded)
        sigma = SigmaField.constant(1.0)
        base = cli._mesh_at_level(STIFF[name], 0, None)
        results = list(robin.refinement_levels(base, 6, sigma))
        (chain,) = chains
        assert chain.fallbacks == 1
        # the first level above dense size, then every level from the one
        # LOBPCG could not finish, is factored
        factored = [mesh.num_nodes for mesh, _ in results
                    if mesh.num_nodes > eigensolve._DENSE_CUTOFF]
        first_fallback = len(factored) - len(splu_calls) + 1
        assert 1 <= first_fallback < len(factored)
        assert splu_calls == [factored[0]] + factored[first_fallback:]
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
        floor = eigensolve.eigenvalue_floor
        assert floor(0.0) == floor(1.0) == eigensolve.DEFAULT_TOL
        assert floor(-4000.0) == 4000.0 * eigensolve.DEFAULT_TOL
