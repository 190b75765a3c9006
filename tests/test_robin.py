import dataclasses
import math

import numpy as np
import pytest

from robinspec import assembly, cli, eigensolve, exact1d, geometry, robin
from robinspec.assembly import SigmaField
from robinspec.eigensolve import smallest_eigs
from robinspec.errors import ResolutionError

from conftest import (dense_eigenvalues, dirichlet_spectrum, disk_mesh, interval_mesh, refined,
                      robin_spectrum, square_mesh)
from interval_oracles import eigenvalue_branch

# First root of k J1(k) = J0(k) (scipy.special + brentq, xtol=1e-15), squared:
# the separated unit-disk problem with unit constant coefficient.
DISK_LAM_SIGMA1 = 1.5769927308086062


class TestLowestEigenvalue:
    def test_neumann_ground_state(self):
        mesh = square_mesh(2)
        res = robin.lowest_eigenvalue(mesh, SigmaField.constant(0.0))
        assert abs(res.value) <= 1e-9
        psi = res.eigenfunction
        assert np.max(np.abs(psi - psi.mean())) <= 1e-6

    def test_interval_matches_exact(self):
        mesh = interval_mesh(64)
        res = robin.lowest_eigenvalue(mesh, SigmaField.constant(1.0))
        exact = exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, 1, 1))
        assert abs(res.value - exact) / exact <= 2e-3

    def test_interval_converges_second_order(self):
        exact = exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, 1, 1))
        errs = [abs(robin.lowest_eigenvalue(interval_mesh(n), SigmaField.constant(1.0)).value - exact)
                for n in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_disk_matches_bessel_oracle(self, disk_l2):
        mesh = refined(disk_l2, 1)
        res = robin.lowest_eigenvalue(mesh, SigmaField.constant(1.0))
        assert abs(res.value - DISK_LAM_SIGMA1) / DISK_LAM_SIGMA1 <= 1e-2

    def test_positivity_and_normalization(self, square_l3):
        res = robin.lowest_eigenvalue(square_l3, SigmaField.constant(1.0))
        assert res.eigenfunction.min() > 0.0
        m = assembly.assemble_mass(square_l3)
        assert abs(res.eigenfunction @ (m @ res.eigenfunction) - 1.0) <= 1e-10

    def test_monotone_in_sigma(self, square_l3):
        rng = np.random.default_rng(6)
        for _ in range(5):
            lo, hi = np.sort(rng.uniform(0.1, 10.0, size=2))
            lam_lo = robin.lowest_eigenvalue(square_l3, SigmaField.constant(lo)).value
            lam_hi = robin.lowest_eigenvalue(square_l3, SigmaField.constant(hi)).value
            assert lam_hi >= lam_lo - 1e-12

    def test_euler_lagrange_residual(self, square_l3):
        sigma = SigmaField.constant(1.0)
        res = robin.lowest_eigenvalue(square_l3, sigma)
        k = assembly.assemble_stiffness(square_l3)
        b = assembly.assemble_boundary_mass(square_l3, sigma)
        scale = np.max(np.abs(k + b).sum(axis=1))
        assert res.residual <= 1e-8 * scale


class TestSpectrum:
    """Spectra beyond the lowest pair come from dense solves of the same
    pencils (conftest); the lowest values come from the package."""

    def test_sandwich_square(self, square_l3):
        k = 3
        rob = robin_spectrum(square_l3, 1.0, k)
        neu = robin_spectrum(square_l3, 0.0, k)
        dirich = dirichlet_spectrum(square_l3, k)
        rob[0] = robin.lowest_eigenvalue(square_l3, SigmaField.constant(1.0)).value
        neu[0] = robin.lowest_eigenvalue(square_l3, SigmaField.constant(0.0)).value
        dirich[0] = robin.dirichlet_eigenvalue(square_l3, geometry.boundary_nodes(square_l3))
        for j in range(k):
            assert neu[j] <= rob[j] + 1e-9
            assert rob[j] <= dirich[j] + 1e-9

    def test_sigma_zero_is_neumann(self, square_l3):
        a = robin_spectrum(square_l3, 0.0, 3)
        ops = assembly.operators(square_l3)  # the Neumann pencil: no boundary term
        b = dense_eigenvalues(ops.stiffness, ops.mass, 3)
        np.testing.assert_allclose(a, b, atol=1e-12)
        lam = robin.lowest_eigenvalue(square_l3, SigmaField.constant(0.0)).value
        assert abs(lam - smallest_eigs(ops.stiffness, ops.mass).value) <= 1e-12

    def test_interval_second_branch(self):
        mesh = interval_mesh(128)
        lam2 = eigenvalue_branch(exact1d.IntervalProblem(0, 1, 1, 1), 2)
        assert abs(robin_spectrum(mesh, 1.0, 2)[1] - lam2) / lam2 <= 1e-2


@pytest.fixture(scope="module")
def fine_square():
    return refined(geometry.build_mesh(geometry.unit_square(), 1.5), 6)


class TestConcentrationSweep:

    def test_strictly_decreasing(self, fine_square):
        rows = robin.concentration_sweep(fine_square, 1.0, (0.5, 0.0), 6)
        lams = [r.eigenvalue for r in rows]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_mass_normalized(self, fine_square):
        rows = robin.concentration_sweep(fine_square, 1.0, (0.5, 0.0), 4)
        for r in rows:
            assert abs(r.coefficient * r.support_length - 1.0) <= 1e-10

    def test_all_positive(self, fine_square):
        rows = robin.concentration_sweep(fine_square, 1.0, (0.5, 0.0), 6)
        assert all(r.eigenvalue > 0.0 for r in rows)

    def test_too_coarse_raises(self):
        coarse = refined(geometry.build_mesh(geometry.unit_square(), 1.5), 2)
        with pytest.raises(ResolutionError):
            robin.concentration_sweep(coarse, 1.0, (0.5, 0.0), 6)


class TestHierarchyFallback:
    @pytest.mark.parametrize("domain", [
        geometry.rectangle(1.0, 0.05),
        geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)]),
    ], ids=["thin-rectangle", "obtuse-triangle"])
    def test_a_failed_v_cycle_returns_the_fine_lu_value(self, domain, monkeypatch):
        # stretched elements: LOBPCG on the V-cycle over the coarse LU gives
        # up, and the solve falls back on the fine LU
        families = []

        class Recorded(eigensolve.NearbyPencils):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                families.append(self)

        monkeypatch.setattr(robin, "NearbyPencils", Recorded)
        mesh = cli._mesh_at_level(domain, 6, None)
        assert mesh.num_nodes > eigensolve._COARSE_NODES
        sigma = SigmaField.constant(1.0)
        res = robin.lowest_eigenvalue(mesh, sigma)
        (family,) = families
        assert family.fallbacks == 1
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, sigma)
        want = smallest_eigs(a, ops.mass, order=ops.order)
        assert res.value == want.value and res.residual == want.residual



class TestDirichletOnTheHierarchy:
    def test_one_coarse_factorization_and_the_own_lu_value(self, factorizations):
        # 3,969 free nodes: the pinned pencil runs on a V-cycle over one
        # coarse LU, and the fine mesh is neither factored nor ordered
        mesh = square_mesh(5)
        fixed = geometry.boundary_nodes(mesh)
        lam = robin.dirichlet_eigenvalue(mesh, fixed)
        assert len(factorizations) == 1
        assert factorizations[0] <= eigensolve._COARSE_NODES < mesh.num_nodes - len(fixed)
        assert assembly.operators(mesh)._order is None
        own = robin.dirichlet_eigenvalue(dataclasses.replace(mesh, coarse=None), fixed)
        assert len(factorizations) == 2 and factorizations[1] == mesh.num_nodes - len(fixed)
        assert abs(lam - own) <= 1e-12 * own
