import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from robinspec import assembly, bounds, exact1d, geometry, mixed_dn, robin
from robinspec.assembly import SigmaField
from robinspec.eigensolve import smallest_eigs
from robinspec.errors import ArgumentError

from conftest import (convex_polygons, dense_eigenvalues, dirichlet_spectrum, disk_mesh,
                      interval_mesh, refined, robin_spectrum, square_mesh, triangle_mesh)

K2_REFERENCE = 5.783185962946783  # square of the first J0 zero (scipy jn_zeros)


def ball_eigenvalue_dimension_bound(n):
    """Berezin/Li-Yau style lower bound 4n/(n+2) Gamma(1+n/2)^(4/n)."""
    return 4.0 * n / (n + 2.0) * math.gamma(1.0 + 0.5 * n) ** (4.0 / n)


def upper_bound_test_family(mass, e1, volume, phi_integral):
    """Optimizing parameter t0 of the interpolated test family and the
    quotient value there: the oracle of bounds.optimal_upper_bound."""
    g2 = phi_integral ** 2
    disc = (volume * e1 - mass) ** 2 + 4.0 * g2 * mass * e1
    denom = 2.0 * (volume - g2) * mass / volume
    if denom <= 0.0:  # constant ground state: family degenerates
        t0 = 1.0
    else:
        t0 = (e1 * volume + mass - math.sqrt(disc)) / denom
    return t0, t0 * mass / volume


def quotient_of_family(t, mass, e1, volume, phi_integral):
    """Rayleigh quotient of the interpolated test function at parameter t."""
    g2 = phi_integral ** 2
    num = e1 * volume / g2 * (1.0 - t) ** 2 + mass / volume * t ** 2
    den = 1.0 + (volume / g2 - 1.0) * (1.0 - t) ** 2
    return num / den


class TestClosedFormBounds:
    def test_lower_unit_values(self):
        assert bounds.optimal_lower_bound(1.0, 1.0, 1.0) == 0.5

    def test_lower_large_mass_limit(self):
        e1 = 1.0
        val = bounds.optimal_lower_bound(1e6, e1, 1.0)
        assert abs(val - e1) <= 1e-5

    def test_lower_small_mass_slope(self):
        vol = 3.0
        m = 1e-9
        assert abs(bounds.optimal_lower_bound(m, 5.0, vol) / m - 1.0 / vol) <= 1e-6

    def test_upper_degenerate_equals_lower(self):
        m, e1, vol = 2.0, 5.0, 3.0
        up = bounds.optimal_upper_bound(m, e1, vol, math.sqrt(vol))
        lo = bounds.optimal_lower_bound(m, e1, vol)
        assert abs(up - lo) <= 1e-12 * lo

    def test_upper_above_lower(self):
        up = bounds.optimal_upper_bound(1.0, 1.0, 1.0, 0.9)
        lo = bounds.optimal_lower_bound(1.0, 1.0, 1.0)
        assert up >= lo

    def test_strict_gap_when_nonconstant(self):
        up = bounds.optimal_upper_bound(1.0, 2.0, 1.0, 0.7)
        lo = bounds.optimal_lower_bound(1.0, 2.0, 1.0)
        assert up > lo + 1e-6

    def test_upper_gamma_range_rejected(self):
        with pytest.raises(ArgumentError):
            bounds.optimal_upper_bound(1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ArgumentError):
            bounds.optimal_upper_bound(1.0, 1.0, 1.0, 0.0)

    def test_family_minimum_at_t0(self):
        m, e1, vol, g1 = 1.0, 19.7, 1.0, 0.81
        t0, val = upper_bound_test_family(m, e1, vol, g1)
        assert abs(val - bounds.optimal_upper_bound(m, e1, vol, g1)) <= 1e-12
        assert abs(quotient_of_family(t0, m, e1, vol, g1) - val) <= 1e-10
        for t in np.linspace(0.01, 2.0, 50):
            assert quotient_of_family(t, m, e1, vol, g1) >= val - 1e-10

    def test_bounds_increasing_in_mass_below_e1(self):
        e1, vol, g1 = 19.7, 1.0, 0.81
        grid = np.geomspace(0.01, 1e4, 25)
        lows = [bounds.optimal_lower_bound(m, e1, vol) for m in grid]
        ups = [bounds.optimal_upper_bound(m, e1, vol, g1) for m in grid]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        assert all(b > a for a, b in zip(ups, ups[1:]))
        assert all(v <= e1 for v in lows + ups)


class TestSandwich:
    @pytest.mark.parametrize("m", [0.1, 1.0, 10.0, 100.0])
    def test_square(self, square_l3, m):
        rep = bounds.optimal_eigenvalue_sandwich(square_l3, m)
        assert rep.passed

    def test_disk(self, disk_l2):
        rep = bounds.optimal_eigenvalue_sandwich(disk_l2, math.pi)
        assert rep.passed

    def test_interval_analytic(self):
        # everything in closed form; only root-finder tolerance enters
        m, e1, vol = 2.0, math.pi ** 2, 1.0
        g1 = 2.0 * math.sqrt(2.0) / math.pi
        lam = exact1d.optimal_eigenvalue_interval(1.0, m)
        lo = bounds.optimal_lower_bound(m, e1, vol)
        up_loose = 2.0 * lo
        up_tight = bounds.optimal_upper_bound(m, e1, vol, g1)
        assert lo - 1e-9 <= lam <= up_tight + 1e-9
        assert up_tight <= up_loose + 1e-12

    def test_factor_two_bound_implied(self, square_l3):
        rep = bounds.optimal_eigenvalue_sandwich(square_l3, 1.0)
        assert rep.upper <= 2.0 * rep.lower + 1e-12


class TestBallEigenvalue:
    def test_dimension_two(self):
        assert abs(bounds.unit_ball_dirichlet_eigenvalue(2) - K2_REFERENCE) <= 1e-5

    def test_dimension_one(self):
        assert bounds.unit_ball_dirichlet_eigenvalue(1) == math.pi ** 2 / 4.0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dimension_lower_bounds(self, n):
        kn = bounds.unit_ball_dirichlet_eigenvalue(n)
        assert kn >= ball_eigenvalue_dimension_bound(n) - 1e-12
        assert kn >= n - 1e-12

    def test_bessel_series_zero(self):
        root = math.sqrt(bounds.unit_ball_dirichlet_eigenvalue(2))
        assert abs(bounds.bessel_j(0.0, root)) <= 1e-12


class TestDirichletInradius:
    def test_square(self, square_l3):
        rep = bounds.dirichlet_inradius_report(square_l3, geometry.unit_square())
        assert rep.passed
        assert abs(rep.computed - 2 * math.pi ** 2) / (2 * math.pi ** 2) <= 1e-2

    def test_disk_saturates_upper(self, disk_l2):
        dom = geometry.disk((0, 0), 1.0, 16)
        rep = bounds.dirichlet_inradius_report(disk_l2, dom)
        assert rep.passed
        assert abs(rep.computed - K2_REFERENCE) / K2_REFERENCE <= 0.02

    def test_interval(self):
        dom = geometry.interval(0, 1)
        rep = bounds.dirichlet_inradius_report(None, dom)
        assert rep.passed
        assert abs(rep.computed - rep.upper) <= 1e-12  # upper end tight in 1d


class TestRobinInradius:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 100.0])
    def test_square(self, square_l3, sigma):
        rep = bounds.robin_inradius_report(square_l3, geometry.unit_square(), sigma)
        assert rep.passed

    @pytest.mark.parametrize("sigma", [0.5, 5.0])
    def test_interval(self, sigma):
        rep = bounds.robin_inradius_report(None, geometry.interval(0, 1), sigma)
        assert rep.passed

    def test_large_sigma_matches_dirichlet_scale(self):
        # as sigma grows the bracket turns into the inradius bracket for the
        # pinned problem, up to the factor two on the upper side
        r = 0.5
        sigma = 1e4
        scale = sigma / (r * (1.0 + sigma * r))
        assert abs(scale * r * r - 1.0) <= 2.1e-4


class TestHardy:
    @pytest.mark.parametrize("sigma,alpha", [(1.0, 0.5), (0.5, 0.25), (2.0, 0.1)])
    def test_square_no_violations(self, square_l3, sigma, alpha):
        (rep,) = bounds.hardy_reports(square_l3, [(sigma, alpha)], trials=25)
        assert rep.passed and rep.violations == 0

    def test_triangle_no_violations(self, triangle_l3):
        (rep,) = bounds.hardy_reports(triangle_l3, [(2.0, 0.25)], trials=25)
        assert rep.passed

    def test_interval_no_violations(self):
        (rep,) = bounds.hardy_reports(interval_mesh(64), [(1.0, 0.3)], trials=25)
        assert rep.passed

    def test_vacuous_when_alpha_sigma_above_one(self, square_l3):
        (rep,) = bounds.hardy_reports(square_l3, [(2.0, 1.0)], trials=10)
        assert rep.coefficient < 0.0
        assert all(t.rhs <= 0.0 for t in rep.trials)
        assert rep.passed

    def test_sigma_zero_trivial(self, square_l3):
        (rep,) = bounds.hardy_reports(square_l3, [(0.0, 0.5)], trials=5)
        assert rep.coefficient == 0.0
        assert all(t.rhs == 0.0 for t in rep.trials)
        assert rep.passed

    def test_half_inverse_sigma_gives_quarter(self, square_l3):
        sigma = 2.0
        (rep,) = bounds.hardy_reports(square_l3, [(sigma, 0.5 / sigma)], trials=10)
        assert abs(rep.coefficient - 0.25) <= 1e-15
        assert rep.passed

    def test_pairs_share_distances_and_ground_states(self, square_l3, monkeypatch):
        pairs = [(0.5, 0.25), (0.5, 1.0), (2.0, 0.25), (2.0, 0.1), (0.0, 0.5)]
        alone = [bounds.hardy_reports(square_l3, [p], trials=5, seed=3)[0] for p in pairs]
        calls = {"distances": 0, "ground": 0}
        distances = bounds.geometry.distances_to_boundary
        ground = bounds.robin.lowest_eigenvalue

        def counted_distances(*args):
            calls["distances"] += 1
            return distances(*args)

        def counted_ground(*args, **kwargs):
            calls["ground"] += 1
            return ground(*args, **kwargs)

        monkeypatch.setattr(bounds.geometry, "distances_to_boundary", counted_distances)
        monkeypatch.setattr(bounds.robin, "lowest_eigenvalue", counted_ground)
        shared = bounds.hardy_reports(square_l3, pairs, trials=5, seed=3)
        assert calls == {"distances": 1, "ground": 2}
        for one, rep in zip(alone, shared):
            assert (rep.sigma, rep.alpha, rep.coefficient) == (one.sigma, one.alpha,
                                                               one.coefficient)
            assert rep.trials == one.trials and rep.violations == one.violations

    def test_invalid_pair_rejected(self, square_l3):
        with pytest.raises(ArgumentError):
            bounds.hardy_reports(square_l3, [(1.0, 0.5), (-1.0, 0.5)])

    @pytest.mark.parametrize("alpha", [1e-160, 1e-300])
    def test_non_finite_right_side_rejected(self, alpha):
        # 1/(dist + alpha)^2 overflows at boundary quadrature points, where
        # dist = 0, and the right side would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="not finite"):
                bounds.hardy_reports(square_mesh(2), [(1.0, 0.25), (1.0, alpha)], trials=3)

    def test_negative_trials_rejected(self, square_l3):
        with pytest.raises(ArgumentError):
            bounds.hardy_reports(square_l3, [(1.0, 0.5)], trials=-1)

    def test_memory_does_not_grow_with_trials(self):
        # kept for every trial, the quadrature values would grow by 24,576
        # points x 8 B per trial on this mesh (8,192 triangles)
        mesh = square_mesh(5)
        pairs = [(1.0, 0.25), (4.0, 0.125)]
        bounds.hardy_reports(mesh, pairs, trials=0)  # shared operators
        peaks = []
        for trials in (5, 50):
            tracemalloc.start()
            try:
                bounds.hardy_reports(mesh, pairs, trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1 << 20


class TestScaling:
    def test_shrink_limit(self, square_l3):
        sigma = SigmaField.constant(1.0)
        rows = bounds.scaling_table(square_l3, sigma, [1e-3])
        shrink, _ = bounds.scaling_limits(square_l3, sigma)
        assert abs(rows[0].eps_eigenvalue - shrink) / shrink <= 0.02
        assert abs(shrink - 4.0) <= 1e-12

    def test_expand_limit(self, square_l3):
        sigma = SigmaField.constant(1.0)
        rows = bounds.scaling_table(square_l3, sigma, [1e3])
        _, expand = bounds.scaling_limits(square_l3, sigma)
        assert abs(rows[0].eps2_eigenvalue - expand) / expand <= 0.02

    def test_one_sided_bounds_every_eps(self, square_l3):
        sigma = SigmaField.constant(1.0)
        eps_grid = [1e-3, 1e-1, 1.0, 1e1, 1e3]
        rows = bounds.scaling_table(square_l3, sigma, eps_grid)
        shrink, expand = bounds.scaling_limits(square_l3, sigma)
        for row in rows:
            assert row.eps_eigenvalue <= shrink + 1e-9
            assert row.eps2_eigenvalue <= expand + 1e-9

    def test_one_side_gamma(self):
        mesh = square_mesh(3, gamma=geometry.gamma_sides(0))
        sigma = SigmaField.on_gamma(1.0)
        shrink, expand = bounds.scaling_limits(mesh, sigma)
        assert abs(shrink - 1.0) <= 1e-12
        rows = bounds.scaling_table(mesh, sigma, [1e-3, 1e3])
        assert abs(rows[0].eps_eigenvalue - shrink) / shrink <= 0.02
        assert abs(rows[1].eps2_eigenvalue - expand) / expand <= 0.02

    @pytest.mark.parametrize("mesh", [
        square_mesh(3),
        square_mesh(3, gamma=geometry.gamma_sides(0, 1)),
        disk_mesh(2, gamma=geometry.gamma_arcs([(0.0, 3.14159)])),
        interval_mesh(64, gamma=geometry.gamma_sides(1)),
        square_mesh(5, gamma=geometry.gamma_sides(0, 1)),
    ], ids=["square-all", "square-edges-0-1", "disk-arc", "interval-one-end",
            "square-edges-0-1-on-its-hierarchy"])
    def test_expand_limit_is_the_pinned_ground_value(self, mesh):
        assert bounds.scaling_limits(mesh, SigmaField.on_gamma(1.0))[1] \
            == mixed_dn.MixedProblem(mesh).ground.value

    @settings(max_examples=15, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(convex_polygons(), st.data())
    def test_expand_limit_is_the_pinned_ground_value_on_convex_polygons(self, dom, data):
        sides = data.draw(st.sets(st.integers(0, len(dom.vertices) - 1), min_size=1))
        dom = geometry.polygon(dom.vertices, gamma=geometry.gamma_sides(*sides))
        mesh = refined(geometry.build_mesh(dom, 0.5), 1)
        assert bounds.scaling_limits(mesh, SigmaField.on_gamma(1.0))[1] \
            == mixed_dn.MixedProblem(mesh).ground.value

    def test_expand_limit_pins_the_support_of_sigma(self):
        # sigma acts at the left end only, while gamma holds both ends
        mesh = interval_mesh(64)
        left = np.flatnonzero(mesh.nodes[:, 0] == 0.0)
        _, expand = bounds.scaling_limits(mesh, SigmaField.per_edge([1.0, 0.0]))
        assert expand == robin.dirichlet_eigenvalue(mesh, left)
        assert abs(expand - math.pi ** 2 / 4) / (math.pi ** 2 / 4) <= 1e-3

    @pytest.mark.parametrize("mesh", [square_mesh(3), interval_mesh(32)],
                             ids=["square", "interval"])
    def test_expand_limit_without_sigma_is_zero(self, mesh):
        assert bounds.scaling_limits(mesh, SigmaField.constant(0.0)) == (0.0, 0.0)

    def test_limits_build_no_pinned_problem(self, monkeypatch):
        mesh = square_mesh(3, gamma=geometry.gamma_sides(0))
        expand = bounds.scaling_limits(mesh, SigmaField.on_gamma(1.0))[1]

        def refuse(self, mesh):
            raise AssertionError("scaling_limits built a MixedProblem")

        monkeypatch.setattr(mixed_dn.MixedProblem, "__init__", refuse)
        assert bounds.scaling_limits(mesh, SigmaField.on_gamma(1.0))[1] == expand

    def test_higher_eigenvalues_bracketed(self, square_l3):
        # the rescaled pencil's eigenvalues stay between the pinned and free
        # spectra at every scale: the lowest from the package, the higher
        # ones from dense solves of the same pencils
        kmat = assembly.assemble_stiffness(square_l3)
        mmat = assembly.assemble_mass(square_l3)
        bmat = assembly.assemble_boundary_mass(square_l3, SigmaField.constant(1.0))
        neu = robin_spectrum(square_l3, 0.0, 3)
        dir_ = dirichlet_spectrum(square_l3, 3)
        for eps in (0.1, 1.0, 10.0):
            a = kmat / eps ** 2 + bmat / eps
            vals = dense_eigenvalues(a, mmat, 3)
            vals[0] = smallest_eigs(a, mmat).value
            for j in (0, 1, 2):
                assert neu[j] / eps ** 2 <= vals[j] + 1e-9
                assert vals[j] <= dir_[j] / eps ** 2 + 1e-9
