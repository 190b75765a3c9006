import math

import numpy as np
import pytest

from robinspec import assembly, exact1d, geometry, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError, RangeError
from robinspec.exact1d import IntervalProblem

from conftest import interval_mesh
from interval_oracles import eigenvalue_branch, endpoint_sweep

# Frozen oracle values, computed by scipy.optimize.brentq (xtol=1e-15) on the
# separated characteristic equations:
#   sigma=(1,1), L=1:  (k^2-1) sin k = 2k cos k      -> lambda = k^2
#   sigma=(1,0), L=1:  k tan k = 1                   -> lambda = k^2
LAM_11 = 1.7070529755509227
LAM2_11 = 13.492357146504844
LAM_10 = 0.7401738843949672
XI_OF_2 = 1.7070529755509225  # root of 2 sqrt(xi) tan(sqrt(xi)/2) = 2


class TestLowestEigenvalue:
    def test_neumann_zero(self):
        assert exact1d.lowest_eigenvalue(IntervalProblem(0, 1, 0, 0)) == 0.0

    def test_sigma_11(self):
        lam = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, 1, 1))
        assert abs(lam - LAM_11) < 1e-12

    def test_sigma_10(self):
        lam = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, 1, 0))
        assert abs(lam - LAM_10) < 1e-12

    def test_reflection_symmetry_exact(self):
        for sa, sb in [(1.0, 3.0), (0.25, 7.5), (10.0, 0.0)]:
            a = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, sa, sb))
            b = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, sb, sa))
            assert a == b  # bitwise: the characteristic equation is symmetric

    def test_monotone_in_each_coefficient(self):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0]
        for sb in (0.0, 1.0):
            vals = [exact1d.lowest_eigenvalue(IntervalProblem(0, 1, sa, sb))
                    for sa in grid]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_dirichlet_limit(self):
        lam = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, 1e3, 1e3))
        assert lam >= 0.95 * math.pi ** 2

    def test_second_branch(self):
        lam2 = eigenvalue_branch(IntervalProblem(0, 1, 1, 1), 2)
        assert abs(lam2 - LAM2_11) < 1e-11

    def test_negative_sigma_rejected(self):
        with pytest.raises(ArgumentError):
            IntervalProblem(0, 1, -1, 0)


class TestMassFunction:
    def test_small_xi_linear(self):
        for length in (0.5, 1.0, 2.0):
            xi = 1e-8
            f = exact1d.interval_mass_function(length, xi)
            assert abs(f / xi - length) < 1e-6

    def test_quadrature_consistency(self):
        # closed-form resolvent integrated numerically reproduces the mass
        from scipy.integrate import simpson
        length, xi = 1.0, 1.0
        root = math.sqrt(xi)
        xs = np.linspace(0, length, 20001)
        u = (np.cos(root * (xs - length / 2)) / math.cos(root * length / 2) - 1.0) / xi
        integral = simpson(u, x=xs)
        f_quad = xi * xi * integral + xi * length
        assert abs(f_quad - exact1d.interval_mass_function(length, xi)) < 1e-12

    def test_half_mass_per_endpoint(self):
        # -xi * U'(b) equals half the mass
        length, xi = 1.0, 2.0
        root = math.sqrt(xi)
        eps = 1e-7
        u = lambda x: (math.cos(root * (x - length / 2)) / math.cos(root * length / 2) - 1.0) / xi
        du_b = (u(length) - u(length - eps)) / eps
        f = exact1d.interval_mass_function(length, xi)
        assert abs(-xi * du_b - f / 2.0) < 1e-5

    def test_range_error(self):
        with pytest.raises(RangeError):
            exact1d.interval_mass_function(1.0, math.pi ** 2)
        with pytest.raises(RangeError):
            exact1d.interval_mass_function(1.0, 0.0)

    def test_inverse(self):
        xi = exact1d.optimal_eigenvalue_interval(1.0, 2.0)
        assert abs(xi - XI_OF_2) < 1e-10

    def test_optimal_matches_even_split(self):
        # the optimal coefficient splits the mass evenly, so the optimal
        # eigenvalue equals the Robin eigenvalue at (m/2, m/2)
        m = 2.0
        xi = exact1d.optimal_eigenvalue_interval(1.0, m)
        lam = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, m / 2, m / 2))
        assert abs(xi - lam) < 1e-10


class TestEndpointSweep:
    def test_unit_case(self):
        rep = endpoint_sweep(1.0, 1.0)
        assert rep.passed
        assert rep.min_at_endpoints and rep.max_at_half

    def test_lower_bound_value(self):
        rep = endpoint_sweep(1.0, 1.0)
        assert abs(rep.lower_bound - 1.0 / 9.0) < 1e-15
        assert rep.eigenvalues[0] >= 1.0 / 9.0

    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mass", [0.1, 1.0, 10.0])
    def test_grid(self, length, mass):
        assert endpoint_sweep(length, mass).passed


class TestFemAgreement:
    def test_convergence_order_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sa, sb = rng.uniform(0, 10, size=2)
            exact = exact1d.lowest_eigenvalue(IntervalProblem(0, 1, sa, sb))
            errors = []
            for n in (16, 32, 64):
                mesh = interval_mesh(n)
                vals = np.zeros(mesh.num_nodes)
                vals[mesh.boundary[0, 0]] = sa
                vals[mesh.boundary[1, 0]] = sb
                lam = robin.lowest_eigenvalue(mesh, SigmaField.nodal(vals)).value
                errors.append(abs(lam - exact))
            orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
            assert min(orders) >= 1.9
