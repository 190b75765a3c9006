import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from robinspec import assembly, bounds, cli, eigensolve, geometry, mixed_dn, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError, RangeError
from robinspec.exact1d import optimal_eigenvalue_interval

from conftest import boundary_length, disk_mesh, interval_mesh, refined, square_mesh

TWO_PI_SQ = 2.0 * math.pi ** 2


def closed_form_resolvent(xs, xi, length=1.0):
    """Pinned-both-ends constant-source resolvent on (0, L)."""
    root = math.sqrt(xi)
    return (np.cos(root * (xs - length / 2)) / math.cos(root * length / 2) - 1.0) / xi


class TestGroundState:
    def test_square_two_pi_squared(self, square_l4):
        gs = mixed_dn.MixedProblem(square_l4).ground
        assert abs(gs.value - TWO_PI_SQ) / TWO_PI_SQ <= 1e-2

    def test_interval_both_ends(self):
        gs = mixed_dn.MixedProblem(interval_mesh(128)).ground
        assert abs(gs.value - math.pi ** 2) / math.pi ** 2 <= 1e-3

    def test_interval_one_end_quarter_wave(self):
        mesh = interval_mesh(128, gamma=geometry.gamma_sides(0))
        gs = mixed_dn.MixedProblem(mesh).ground
        assert abs(gs.value - math.pi ** 2 / 4.0) / (math.pi ** 2 / 4.0) <= 1e-3

    def test_eigenfunction_zero_on_gamma(self, square_l3):
        gs = mixed_dn.MixedProblem(square_l3).ground
        fixed = geometry.gamma_nodes(square_l3)
        assert np.all(gs.eigenfunction[fixed] == 0.0)
        free = np.setdiff1d(np.arange(square_l3.num_nodes), fixed)
        assert np.all(gs.eigenfunction[free] > 0.0)

    def test_integral_range(self, square_l3):
        gs = mixed_dn.MixedProblem(square_l3).ground
        vol = geometry.area(square_l3)
        assert 0.0 < gs.integral <= math.sqrt(vol) + 1e-12

    def test_square_integral_matches_separated_value(self, square_l4):
        # integral of the normalized product-of-sines state: 8/pi^2
        gs = mixed_dn.MixedProblem(square_l4).ground
        assert abs(gs.integral - 8.0 / math.pi ** 2) <= 5e-3

    def test_empty_gamma_rejected(self):
        mesh = square_mesh(1, gamma=geometry.gamma_none())
        with pytest.raises(ArgumentError):
            mixed_dn.MixedProblem(mesh)


class TestResolvent:
    def test_interval_closed_form(self):
        mesh = interval_mesh(128)
        u = mixed_dn.MixedProblem(mesh).resolvent_one(1.0)
        exact = closed_form_resolvent(mesh.nodes[:, 0], 1.0)
        assert np.max(np.abs(u - exact)) <= 1e-3

    def test_near_zero_is_constant_source_solve(self, square_l3):
        u = mixed_dn.MixedProblem(square_l3).resolvent_one(1e-8)
        k = assembly.assemble_stiffness(square_l3)
        m = assembly.assemble_mass(square_l3)
        ones = np.ones(square_l3.num_nodes)
        free = np.setdiff1d(np.arange(square_l3.num_nodes),
                            geometry.gamma_nodes(square_l3))
        defect = (k @ u - m @ ones)[free]
        assert np.max(np.abs(defect)) <= 1e-6

    def test_positive_inside(self, square_l3):
        u = mixed_dn.MixedProblem(square_l3).resolvent_one(5.0)
        free = np.setdiff1d(np.arange(square_l3.num_nodes),
                            geometry.gamma_nodes(square_l3))
        assert np.all(u[free] > 0.0)

    def test_diagonal_symmetry(self, square_l3):
        u = mixed_dn.MixedProblem(square_l3).resolvent_one(3.0)
        lookup = {(round(x, 12), round(y, 12)): i
                  for i, (x, y) in enumerate(square_l3.nodes)}
        for i, (x, y) in enumerate(square_l3.nodes):
            j = lookup[(round(y, 12), round(x, 12))]
            assert abs(u[i] - u[j]) <= 1e-10

    def test_out_of_range_rejected(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        with pytest.raises(RangeError):
            prob.resolvent_one(prob.ground.value * 1.01)
        with pytest.raises(RangeError):
            prob.resolvent_one(0.0)


class TestMassFunction:
    @pytest.mark.parametrize("xi", [1.0, 4.0, 8.0])
    def test_interval_closed_form(self, xi):
        mesh = interval_mesh(128)
        f = mixed_dn.MixedProblem(mesh).mass_function_with_derivative(xi)[0]
        exact = 2.0 * math.sqrt(xi) * math.tan(math.sqrt(xi) / 2.0)
        assert abs(f - exact) / exact <= 1e-3

    def test_increasing_and_convex(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        e1 = prob.ground.value
        grid = np.linspace(0.05, 0.9, 12) * e1
        vals = [prob.mass_function_with_derivative(x)[0] for x in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) > 0.0)

    def test_vanishes_at_zero(self, square_l3):
        vol = geometry.area(square_l3)
        prob = mixed_dn.MixedProblem(square_l3)
        assert prob.mass_function_with_derivative(1e-6)[0] <= 2e-6 * vol

    def test_derivative_positive_and_consistent(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        for xi in (0.5, 5.0, 15.0):
            f, fp, u = prob.mass_function_with_derivative(xi)
            np.testing.assert_array_equal(u, prob.resolvent_one(xi))
            assert fp > 0.0
            h = 1e-6 * max(1.0, xi)
            fd = (prob.mass_function_with_derivative(xi + h)[0]
                  - prob.mass_function_with_derivative(xi - h)[0]) / (2 * h)
            assert abs(fp - fd) / fd <= 1e-5


class TestMassCurveModel:
    """The Lanczos model of the mass curve against true resolvent solves."""

    @pytest.mark.parametrize("mesh", [square_mesh(4), interval_mesh(64)],
                             ids=["square_l4", "interval_l6"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 1.0 - 1e-6])
    def test_matches_true_mass_curve(self, mesh, fraction):
        prob = mixed_dn.MixedProblem(mesh)
        e1 = prob.ground.value
        xi = fraction * e1
        f, fp, _ = prob.mass_function_with_derivative(xi)
        f_model, fp_model, _ = prob._model_curve(xi)
        # near E1 both sides carry the round-off of K - xi M, amplified by
        # (lambda_max / E1) (E1 / (E1 - xi)); elsewhere 1e-10 applies
        lam_max = scipy.sparse.linalg.eigsh(prob.k_ff, 1, M=prob.m_ff, which="LA",
                                            return_eigenvectors=False)[0]
        rtol = max(1e-10, np.finfo(float).eps * lam_max / (e1 - xi))
        assert abs(f_model - f) <= rtol * f
        assert abs(fp_model - fp) <= rtol * fp

    @pytest.mark.parametrize("mesh,steps", [(interval_mesh(12), None), (interval_mesh(42), 64)],
                             ids=["dense_path", "just_above_dense_cutoff"])
    def test_exhausted_krylov_space_gives_exact_model(self, mesh, steps, monkeypatch):
        # with the step cap above the free dofs the space runs out (beta -> 0)
        if steps is not None:
            monkeypatch.setattr(mixed_dn, "_KRYLOV_STEPS", steps)
        prob = mixed_dn.MixedProblem(mesh)
        n_free = len(prob.free)
        assert (n_free > eigensolve._DENSE_CUTOFF) == (steps is not None)
        model = prob._model
        assert len(model.start) == n_free < mixed_dn._KRYLOV_STEPS
        assert np.all(np.isfinite(model.tridiag)) and np.all(np.isfinite(model.c))
        for fraction in (0.1, 0.5, 0.9):
            xi = fraction * prob.ground.value
            f, fp, _ = prob.mass_function_with_derivative(xi)
            f_model, fp_model, _ = prob._model_curve(xi)
            assert abs(f_model - f) <= 1e-12 * f
            assert abs(fp_model - fp) <= 1e-12 * fp

    @pytest.mark.parametrize("mass", [0.01, 1.0, 100.0])
    def test_factorization_budget(self, square_l3, mass, monkeypatch):
        # the ground eigensolve's factorization builds the model; each true
        # Newton step factors once more
        factorizations, steps = [], []
        splu = eigensolve.splu
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_splu(a, **kwargs):
            factorizations.append(a.shape)
            return splu(a, **kwargs)

        def counted_step(self, xi):
            steps.append(xi)
            return step(self, xi)

        monkeypatch.setattr(eigensolve, "splu", counted_splu)
        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        mixed_dn.MixedProblem(square_l3).optimal_eigenvalue(mass)
        assert len(factorizations) <= 1 + len(steps)

    def test_model_built_on_construction_and_no_lu_kept(self, square_l3, monkeypatch):
        prob = mixed_dn.MixedProblem(square_l3)
        held = [v for obj in (prob, prob._model) for v in vars(obj).values()]
        held += [item for v in held if isinstance(v, tuple) for item in v]
        lu_types = (eigensolve._OrderedLU, scipy.sparse.linalg.SuperLU)
        assert not any(isinstance(v, lu_types) for v in held)
        # the inversions reuse the model; their only factorizations are
        # the true Newton steps' solve_spd
        model = prob._model
        builds, factored, inside = [], [], []
        build = mixed_dn._MassCurveModel.__init__
        splu = eigensolve.splu
        solve = mixed_dn.solve_spd

        def counted_build(self, *args):
            builds.append(args)
            build(self, *args)

        def counted_splu(a, **kwargs):
            factored.append(bool(inside))
            return splu(a, **kwargs)

        def marked_solve(*args, **kwargs):
            inside.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(mixed_dn._MassCurveModel, "__init__", counted_build)
        monkeypatch.setattr(eigensolve, "splu", counted_splu)
        monkeypatch.setattr(mixed_dn, "solve_spd", marked_solve)
        first = prob.optimal_eigenvalue(2.0)
        second = prob.optimal_eigenvalue(20.0)
        assert prob._model is model and builds == []
        assert factored and all(factored)
        assert 0.0 < first < second < prob.ground.value


@pytest.fixture(scope="module")
def interval_l10_problem():
    # the CLI's interval at level 10: one element refined ten times
    return mixed_dn.MixedProblem(refined(interval_mesh(1), 10))


class TestEvaluationFloor:
    @pytest.mark.parametrize("mass", [1e2, 1e3, 1e4, 1e5])
    def test_true_loop_stops_at_the_floor_on_its_best_step(
            self, interval_l10_problem, mass, monkeypatch):
        # 1e-10 m lies below the float64 floor of F here: the true loop must
        # stop within a few solves on the best xi it evaluated
        prob = interval_l10_problem
        seen = []
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_step(self, xi):
            out = step(self, xi)
            seen.append(abs(out[0] - mass))
            return out

        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        xi, u = prob._invert_mass_curve(mass)
        assert len(seen) <= 6
        f, _, u_again = step(prob, xi)
        np.testing.assert_array_equal(u, u_again)
        assert abs(f - mass) == min(seen)
        assert abs(f - mass) <= 1e-6 * mass


    def test_floor_stop_returns_the_better_of_the_last_two(self):
        # a curve stuck at its floor: the second evaluation is worse
        errors = iter([4e-4, -9e-4])

        def curve(xi):
            return 1.0 + next(errors), 1e3, xi

        assert mixed_dn._safeguarded_newton(curve, 1.0, 0.5, 1.0, 1e-10) == (0.5, 0.5)


def without_hierarchy(mesh):
    """The mesh with the same nodes and elements but no coarser levels, on
    which a pinned pencil keeps its own LU."""
    return dataclasses.replace(mesh, coarse=None)


@pytest.fixture(scope="module")
def square_l5_problems():
    # 3,969 free nodes: above the coarse size, so the first problem runs on
    # its pinned hierarchy; the second is the same pencil on its own LU
    mesh = square_mesh(5)
    return mixed_dn.MixedProblem(mesh), mixed_dn.MixedProblem(without_hierarchy(mesh))


class TestPinnedHierarchy:
    """A pinned pencil above the coarse size: the ground state by LOBPCG on
    a V-cycle of its own hierarchy, Newton's resolvent solves by conjugate
    gradients on the same V-cycle, from the closed-form upper bound."""

    def test_paths(self, square_l5_problems):
        prob, own = square_l5_problems
        assert len(prob.free) > eigensolve._COARSE_NODES
        assert prob._cycle is not None and prob._model is None
        assert own._cycle is None and own._model is not None
        assert abs(prob.ground.value - own.ground.value) <= 1e-12 * own.ground.value

    def test_one_coarse_factorization(self, factorizations):
        prob = mixed_dn.MixedProblem(square_mesh(5))
        for mass in (0.01, 1.0, 30.0, 1e4):
            prob.optimal_eigenvalue(mass)
        assert len(factorizations) == 1
        assert factorizations[0] <= eigensolve._COARSE_NODES < len(prob.free)

    @pytest.mark.parametrize("mass", [1e-2, 1.0, 30.0, 360.0, 1e4, 1e10])
    def test_newton_from_the_upper_bound(self, square_l5_problems, mass, monkeypatch):
        # 1e10 puts the root 1.3e-9 below E1, just inside the margin 1e-9,
        # where K - xi M is nearly singular
        prob, own = square_l5_problems
        steps = []
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_step(self, xi):
            if self is prob:
                steps.append(xi)
            return step(self, xi)

        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        xi = prob.optimal_eigenvalue(mass)
        assert len(steps) <= 6
        # from the right of the root, Newton on the convex curve only falls
        # (up to round-off, once inside the band)
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(steps, steps[1:]))
        e1, volume, integral = prob.ground.value, prob.volume, prob.ground.integral
        lower = bounds.optimal_lower_bound(mass, e1, volume)
        upper = bounds.optimal_upper_bound(mass, e1, volume, integral)
        assert lower * (1.0 - 1e-12) <= xi <= upper * (1.0 + 1e-12)
        assert abs(xi - own.optimal_eigenvalue(mass)) <= 1e-12 * xi

    def test_resolvent_passes_the_solve_spd_gates(self, square_l5_problems):
        prob, own = square_l5_problems
        xi = 0.9 * prob.ground.value
        u, u_own = prob.resolvent_one(xi), own.resolvent_one(xi)
        assert np.linalg.norm(u - u_own) <= 1e-12 * np.linalg.norm(u_own)
        with pytest.raises(RangeError):
            prob.resolvent_one(prob.ground.value)

    def test_optimal_sigma_matches_the_own_lu(self, square_l5_problems):
        prob, own = square_l5_problems
        opt, want = prob.optimal_sigma(1.0), own.optimal_sigma(1.0)
        assert abs(opt.value - want.value) <= 1e-12 * want.value
        assert abs(opt.lambda_check - want.lambda_check) <= 1e-10 * want.lambda_check
        np.testing.assert_allclose(opt.sigma.values, want.sigma.values, rtol=0, atol=1e-10)

    def test_a_ground_state_that_gives_up_keeps_the_lu_path(self, factorizations):
        # stretched elements: LOBPCG on the V-cycle gives up, the ground
        # state falls back on the pencil's own LU, as a Robin pencil's does,
        # and that LU builds the Lanczos model
        domain = geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)])
        mesh = cli._mesh_at_level(domain, 6, None)
        prob = mixed_dn.MixedProblem(mesh)
        assert prob._cycle is None and prob._model is not None
        assert factorizations == [factorizations[0], len(prob.free)]
        assert factorizations[0] <= eigensolve._COARSE_NODES < len(prob.free)
        own = mixed_dn.MixedProblem(without_hierarchy(mesh))
        assert prob.ground.value == own.ground.value
        assert prob.optimal_eigenvalue(1.0) == own.optimal_eigenvalue(1.0)


class TestOptimalEigenvalue:
    def test_small_mass_volume_scaling(self, square_l3):
        xi = mixed_dn.MixedProblem(square_l3).optimal_eigenvalue(1e-3)
        vol = geometry.area(square_l3)
        assert abs(xi * vol / 1e-3 - 1.0) <= 1e-2

    def test_large_mass_approaches_ground(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        xi = prob.optimal_eigenvalue(1e4)
        assert xi >= 0.99 * prob.ground.value

    def test_interval_matches_scalar_root(self):
        mesh = interval_mesh(1024)
        xi = mixed_dn.MixedProblem(mesh).optimal_eigenvalue(2.0)
        oracle = optimal_eigenvalue_interval(1.0, 2.0)
        assert abs(xi - oracle) <= 1e-6

    def test_inverse_residual(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        for m in (0.1, 1.0, 10.0):
            xi = prob.optimal_eigenvalue(m)
            assert abs(prob.mass_function_with_derivative(xi)[0] - m) <= 1e-10 * max(m, 1.0)

    def test_concave_in_mass(self, square_l3):
        prob = mixed_dn.MixedProblem(square_l3)
        masses = np.geomspace(0.1, 100.0, 9)
        xis = np.array([prob.optimal_eigenvalue(m) for m in masses])
        for i in range(1, len(masses) - 1):
            d1 = (xis[i] - xis[i - 1]) / (masses[i] - masses[i - 1])
            d2 = (xis[i + 1] - xis[i]) / (masses[i + 1] - masses[i])
            assert d2 - d1 <= 1e-8


class TestOptimalSigma:
    def test_interval_even_split(self):
        mesh = interval_mesh(64)
        for m in (0.1, 1.0, 10.0):
            opt = mixed_dn.MixedProblem(mesh).optimal_sigma(m)
            vals = np.asarray(opt.sigma.values)
            ends = mesh.boundary[:, 0]
            assert np.max(np.abs(vals[ends] - m / 2.0)) <= 1e-8

    def test_disk_rotational_constancy(self):
        mesh = disk_mesh(2)
        m = math.pi
        opt = mixed_dn.MixedProblem(mesh).optimal_sigma(m)
        gi = geometry.gamma_nodes(mesh)
        vals = np.asarray(opt.sigma.values)[gi]
        spread = (vals.max() - vals.min()) / vals.mean()
        assert spread <= 0.02
        assert abs(vals.mean() - m / boundary_length(mesh)) <= 1e-6

    def test_square_mass_and_duality(self, square_l4):
        opt = mixed_dn.MixedProblem(square_l4).optimal_sigma(1.0)
        assert opt.mass_defect / opt.mass <= 1e-3
        assert abs(opt.lambda_check - opt.value) / opt.value <= 1e-4

    def test_invariants(self, square_l3):
        opt = mixed_dn.MixedProblem(square_l3).optimal_sigma(1.0)
        e1 = opt.ground.value
        assert 0.0 < opt.value < e1
        fixed = geometry.gamma_nodes(square_l3)
        free = np.setdiff1d(np.arange(square_l3.num_nodes), fixed)
        assert np.all(opt.resolvent[free] > 0.0)
        vals = np.asarray(opt.sigma.values)
        assert np.all(vals >= 0.0)
        assert np.all(vals[free] == 0.0)
        assert opt.sigma_min_raw >= -1e-8
        # minimizer equals one exactly on gamma
        assert np.all(opt.minimizer[fixed] == 1.0)

    def test_sigma_supported_on_gamma_only(self):
        mesh = square_mesh(3, gamma=geometry.gamma_sides(0))
        opt = mixed_dn.MixedProblem(mesh).optimal_sigma(1.0)
        vals = np.asarray(opt.sigma.values)
        off_gamma = np.setdiff1d(geometry.boundary_nodes(mesh),
                                 geometry.gamma_nodes(mesh))
        assert np.all(vals[off_gamma] == 0.0)
        assert opt.mass_defect <= 1e-9

    def test_disk_arc_gamma_pipeline(self):
        dom = geometry.disk((0, 0), 1.0, 16,
                            gamma=geometry.gamma_arcs([(-math.pi / 2, math.pi / 2)]))
        mesh = geometry.build_mesh(dom, 0.5)
        mesh = geometry.refine(geometry.refine(mesh))
        opt = mixed_dn.MixedProblem(mesh).optimal_sigma(1.0)
        assert opt.mass_defect <= 1e-9
        assert abs(opt.lambda_check - opt.value) / opt.value <= 1e-3
        vals = np.asarray(opt.sigma.values)
        support = np.nonzero(vals)[0]
        # right half-circle only (junction nodes sit at x = 0)
        assert np.all(mesh.nodes[support, 0] > -1e-9)

    def test_reuses_last_newton_resolvent(self, square_l3, monkeypatch):
        # the Lanczos model's root needs one true step, whose resolvent is
        # not redone
        prob = mixed_dn.MixedProblem(square_l3)
        solves, steps = [], []
        solve = mixed_dn.solve_spd
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_solve(a, b, **kwargs):
            solves.append(b)
            return solve(a, b, **kwargs)

        def counted_step(self, xi):
            steps.append(xi)
            return step(self, xi)

        monkeypatch.setattr(mixed_dn, "solve_spd", counted_solve)
        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        opt = prob.optimal_sigma(1.0)
        assert len(steps) == 1
        assert len(solves) == len(steps)
        assert steps[-1] == opt.value

    def test_step_cap_resolves_at_the_last_iterate(self, square_l3, monkeypatch):
        # a capped loop ends on an xi it never evaluated: solve once more
        prob = mixed_dn.MixedProblem(square_l3)
        monkeypatch.setattr(mixed_dn, "_MAX_NEWTON", 1)
        opt = prob.optimal_sigma(1.0)
        np.testing.assert_array_equal(opt.resolvent, prob.resolvent_one(opt.value))
        assert opt.value == prob.optimal_eigenvalue(1.0)

    def test_integral_identity(self, square_l3):
        # gamma1^2 = vol - (vol |phi|^2 - gamma1^2) via exact M-products
        gs = mixed_dn.MixedProblem(square_l3).ground
        m = assembly.assemble_mass(square_l3)
        ones = np.ones(square_l3.num_nodes)
        vol = float(ones @ (m @ ones))
        phi = gs.eigenfunction
        norm2 = float(phi @ (m @ phi))
        double_integral = 2.0 * vol * norm2 - 2.0 * gs.integral ** 2
        assert abs(gs.integral ** 2 - (vol - 0.5 * double_integral)) <= 1e-10


class TestMaximality:
    def test_square_twenty_trials(self, square_l3):
        rep = mixed_dn.verify_maximality(square_l3, 1.0, trials=20)
        assert rep.passed
        assert rep.violations == 0

    def test_negative_trials_rejected(self, square_l3):
        with pytest.raises(ArgumentError):
            mixed_dn.verify_maximality(square_l3, 1.0, trials=-1)

    def test_quotient_invariance(self, square_l3):
        rep = mixed_dn.verify_maximality(square_l3, 1.0, trials=5)
        for t in rep.trials:
            assert abs(t.quotient_at_minimizer - rep.quotient_optimal) \
                <= 1e-10 * max(1.0, rep.quotient_optimal)

    def test_boundary_term_is_mass(self, square_l3):
        rep = mixed_dn.verify_maximality(square_l3, 1.0, trials=5)
        for t in rep.trials:
            assert abs(t.boundary_term - rep.mass) <= 1e-10

    def test_optimum_itself_attains(self, square_l3):
        opt = mixed_dn.MixedProblem(square_l3).optimal_sigma(1.0)
        assert abs(opt.lambda_check - opt.value) <= 1e-4 * opt.value
