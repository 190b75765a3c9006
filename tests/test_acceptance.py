"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Mesh levels follow the conftest convention (level n = n uniform refinements
of the coarse base mesh).
"""

import math
import time

import numpy as np
import pytest

from robinspec import assembly, bounds, exact1d, geometry, mixed_dn, robin
from robinspec.assembly import SigmaField
from robinspec.eigensolve import smallest_eigs

from conftest import (dirichlet_spectrum, disk_mesh, interval_mesh, refined, robin_spectrum,
                      square_mesh, triangle_mesh)
from interval_oracles import endpoint_sweep

K2_REFERENCE = 5.783186  # first J0 zero squared, 7 digits


def _report(num, desc):
    print(f"\nACCEPTANCE {num:02d} PASS: {desc}")


def test_criterion_01_one_dimensional_oracle_agreement():
    t0 = time.monotonic()
    exact = exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, 1, 1))
    errors = []
    for n in (16, 32, 64, 128, 256):
        lam = robin.lowest_eigenvalue(interval_mesh(n), SigmaField.constant(1.0)).value
        errors.append(abs(lam - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    elapsed = time.monotonic() - t0
    assert min(orders) >= 1.9, orders
    assert errors[-1] / exact <= 1e-4
    assert elapsed < 1.0
    _report(1, f"1d convergence orders {['%.3f' % p for p in orders]}, "
               f"final rel err {errors[-1] / exact:.2e}, {elapsed:.2f}s")


def test_criterion_02_optimal_sigma_pipeline_square():
    t0 = time.monotonic()
    mesh = square_mesh(4)
    opt = mixed_dn.MixedProblem(mesh).optimal_sigma(1.0)
    assert opt.mass_defect / opt.mass <= 1e-3
    rel_dual = abs(opt.lambda_check - opt.value) / opt.value
    assert rel_dual <= 1e-3
    rep = mixed_dn.verify_maximality(mesh, 1.0, trials=20)
    assert rep.violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, f"mass defect {opt.mass_defect:.2e}, dual gap {rel_dual:.2e}, "
               f"0/20 maximality violations, {elapsed:.1f}s")


def test_criterion_03_one_dimensional_optimum_and_minimisers():
    t0 = time.monotonic()
    for m in (0.1, 1.0, 10.0):
        opt = mixed_dn.MixedProblem(interval_mesh(64)).optimal_sigma(m)
        vals = np.asarray(opt.sigma.values)
        ends = np.concatenate(interval_mesh(64).boundary)
        assert np.max(np.abs(vals[ends] - m / 2.0)) <= 1e-8
    for length in (0.5, 1.0, 2.0):
        for m in (0.1, 1.0, 10.0):
            rep = endpoint_sweep(length, m)
            assert rep.min_at_endpoints
            assert rep.lower_bound_holds
    assert endpoint_sweep(1.0, 1.0).max_at_half
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"even split recovered to 1e-8; sweep minima at pure endpoints; "
               f"lower bound holds on 3x3 grid, {elapsed:.2f}s")


def test_criterion_04_two_sided_mass_bounds():
    t0 = time.monotonic()
    masses = (0.1, 1.0, 10.0, 100.0)
    for mesh in (square_mesh(3), disk_mesh(2)):
        for m in masses:
            rep = bounds.optimal_eigenvalue_sandwich(mesh, m)
            assert rep.passed, (rep, m)
            assert rep.upper <= 2.0 * rep.lower + 1e-12
    # interval in closed form, root-finder tolerance only
    e1, vol, g1 = math.pi ** 2, 1.0, 2.0 * math.sqrt(2.0) / math.pi
    for m in masses:
        lam = exact1d.optimal_eigenvalue_interval(1.0, m)
        lo = bounds.optimal_lower_bound(m, e1, vol)
        up = bounds.optimal_upper_bound(m, e1, vol, g1)
        assert lo - 1e-9 <= lam <= up + 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"sandwich holds on square/disk (2% slack) and interval (1e-9) "
               f"for m in {masses}, {elapsed:.1f}s")


def test_criterion_05_small_and_large_mass_asymptotics():
    mesh = square_mesh(3)
    prob = mixed_dn.MixedProblem(mesh)
    vol = prob.volume
    xi_small = prob.optimal_eigenvalue(1e-3)
    assert abs(xi_small * vol / 1e-3 - 1.0) <= 1e-2
    xi_large = prob.optimal_eigenvalue(1e4)
    assert xi_large >= 0.99 * prob.ground.value
    _report(5, f"xi(1e-3) vol/m = {xi_small * vol / 1e-3:.4f}; "
               f"xi(1e4)/E1 = {xi_large / prob.ground.value:.4f}")


def test_criterion_06_fixed_mesh_scaling_limits():
    eps_grid = [1e-3, 1e-1, 1.0, 1e1, 1e3]
    cases = [
        (square_mesh(3), SigmaField.constant(1.0), "full boundary"),
        (square_mesh(3, gamma=geometry.gamma_sides(0)), None, "one side"),
    ]
    for mesh, sigma, label in cases:
        if sigma is None:
            sigma = SigmaField.on_gamma(mesh, 1.0)
        shrink, expand = bounds.scaling_limits(mesh, sigma)
        rows = bounds.scaling_table(mesh, sigma, eps_grid)
        assert abs(rows[0].eps_eigenvalue - shrink) / shrink <= 0.02, label
        assert abs(rows[-1].eps2_eigenvalue - expand) / expand <= 0.02, label
        for row in rows:
            assert row.eps_eigenvalue <= shrink + 1e-9
            assert row.eps2_eigenvalue <= expand + 1e-9
    _report(6, "shrink/expand limits hit within 2% on full-boundary and "
               "one-side cases; one-sided bounds hold at every scale")


def test_criterion_07_convex_inradius_sandwich():
    k2 = bounds.unit_ball_dirichlet_eigenvalue(2)
    assert abs(k2 - K2_REFERENCE) <= 1e-5
    for n in range(1, 11):
        assert bounds.unit_ball_dirichlet_eigenvalue(n) >= n - 1e-12
    sigmas = (0.1, 1.0, 10.0, 100.0)
    cases = [
        (square_mesh(3), geometry.unit_square()),
        (refined(geometry.build_mesh(geometry.rectangle(2, 1), 0.6), 3),
         geometry.rectangle(2, 1)),
        (triangle_mesh(3), geometry.polygon([(0, 0), (1, 0), (0, 1)])),
        (disk_mesh(2), geometry.disk((0, 0), 1.0, 16)),
        (None, geometry.interval(0, 1)),
    ]
    for mesh, dom in cases:
        for s in sigmas:
            rep = bounds.robin_inradius_report(mesh, dom, s)
            assert rep.passed, (dom.kind, s, rep)
    _report(7, f"K2 = {k2:.6f}; K_N >= N for N=1..10; sandwich passes on "
               f"square/rect/triangle/disk/interval for sigma in {sigmas}")


def test_criterion_08_hardy_property_suite():
    meshes = {"square": square_mesh(3), "triangle": triangle_mesh(3)}
    for label, mesh in meshes.items():
        pairs = [(s, alpha) for s in (0.5, 2.0) for alpha in (0.1, 0.25, 0.5 / s, 1.0)]
        for (s, alpha), rep in zip(pairs, bounds.hardy_reports(mesh, pairs, trials=25)):
            assert rep.violations == 0, (label, s, alpha)
            if alpha == 0.5 / s:
                assert abs(rep.coefficient - 0.25) <= 1e-15
    _report(8, "no violations over 26 functions x {square,triangle} x "
               "sigma {0.5,2} x 4 alphas; alpha=1/(2 sigma) hits coefficient 1/4")


def test_criterion_09_concentration_trend():
    mesh = refined(geometry.build_mesh(geometry.unit_square(), 1.5), 6)
    # the decay threshold needs enough mass to engage the capacity regime;
    # the trend itself is mass-independent
    rows = robin.concentration_sweep(mesh, 5.0, (0.5, 0.0), 6)
    lams = [r.eigenvalue for r in rows]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert all(lam > 0.0 for lam in lams)
    assert lams[5] <= 0.5 * lams[0]
    _report(9, f"strictly decreasing over n=1..6, all positive, "
               f"ratio lam6/lam1 = {lams[5] / lams[0]:.3f} <= 0.5")


def test_criterion_10_identity_checks():
    mesh = square_mesh(3)
    # integral identity for the pinned ground state
    gs = mixed_dn.MixedProblem(mesh).ground
    m = assembly.assemble_mass(mesh)
    ones = np.ones(mesh.num_nodes)
    vol = float(ones @ (m @ ones))
    norm2 = float(gs.eigenfunction @ (m @ gs.eigenfunction))
    double_integral = 2.0 * vol * norm2 - 2.0 * gs.integral ** 2
    assert abs(gs.integral ** 2 - (vol - 0.5 * double_integral)) <= 1e-10
    # free/pinned bracketing of the first three Robin eigenvalues, from dense
    # solves of the same pencils; the package's lowest values match them
    rob = robin_spectrum(mesh, 1.0, 3)
    neu = robin_spectrum(mesh, 0.0, 3)
    dir_ = dirichlet_spectrum(mesh, 3)
    for j in range(3):
        assert neu[j] <= rob[j] + 1e-9
        assert rob[j] <= dir_[j] + 1e-9
    lowest = (robin.lowest_eigenvalue(mesh, SigmaField.constant(1.0)).value,
              robin.lowest_eigenvalue(mesh, SigmaField.constant(0.0)).value,
              robin.dirichlet_eigenvalue(mesh, geometry.boundary_nodes(mesh)))
    for lam, oracle in zip(lowest, (rob[0], neu[0], dir_[0])):
        assert abs(lam - oracle) <= 1e-9 * max(abs(oracle), 1.0)
    # endpoint exchange symmetry is exact
    for sa, sb in [(1.0, 3.0), (0.2, 9.7), (5.0, 0.0)]:
        assert exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, sa, sb)) \
            == exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, sb, sa))
    _report(10, "integral identity to 1e-10; spectral bracketing for j=1..3; "
                "endpoint exchange symmetry bitwise")
