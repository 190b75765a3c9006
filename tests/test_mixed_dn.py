import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from robinspec import assembly, bounds, cli, eigensolve, geometry, mixed_dn, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ArgumentError, RangeError
from robinspec.exact1d import optimal_eigenvalue_interval

from conftest import (boundary_length, disk_mesh, interval_mesh, refined, square_mesh,
                      triangle_mesh)
from interval_oracles import tight_mass_root

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


def obtuse_triangle_mesh(level):
    # the CLI's mesh of a triangle with an obtuse corner at (0.9, 0.1)
    domain = geometry.polygon([(0, 0), (1, 0), (0.9, 0.1)])
    return cli._mesh_at_level(domain, level, None)


class TestMassCurveModel:
    """The Galerkin resolvent model of a problem on its own LU, seeded with
    the ground state and the Krylov vectors of the ground eigensolve's LU,
    against true resolvent solves."""

    @pytest.mark.parametrize("mesh", [square_mesh(4), interval_mesh(64)],
                             ids=["square_l4", "interval_l6"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 1.0 - 1e-6])
    def test_matches_true_mass_curve(self, mesh, fraction):
        prob = mixed_dn.MixedProblem(mesh)
        e1 = prob.ground.value
        xi = fraction * e1
        f, fp, _ = prob.mass_function_with_derivative(xi)
        f_model, fp_model = prob._curve(xi, *prob._seeded.moments(xi))
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
        # with the step cap above the free nodes, phi and the Krylov vectors
        # of the ground eigensolve's LU span them all and the model is
        # exact.  The ids name the sizes either side of 40 nodes, where a
        # dense eigensolve once took the ground state and made no LU
        if steps is not None:
            monkeypatch.setattr(mixed_dn, "_KRYLOV_STEPS", steps)
        prob = mixed_dn.MixedProblem(mesh)
        n_free = len(prob.free)
        assert (n_free > 40) == (steps is not None)
        assert n_free < 1 + mixed_dn._KRYLOV_STEPS
        basis = prob._seeded._basis
        assert basis.shape == (n_free, n_free)
        np.testing.assert_allclose(basis @ (prob.m_ff @ basis.T), np.eye(n_free),
                                   rtol=0, atol=1e-12)
        for fraction in (0.1, 0.5, 0.9):
            xi = fraction * prob.ground.value
            f, fp, _ = prob.mass_function_with_derivative(xi)
            f_model, fp_model = prob._curve(xi, *prob._seeded.moments(xi))
            assert abs(f_model - f) <= 1e-12 * f
            assert abs(fp_model - fp) <= 1e-12 * fp

    def test_seeding_holds_one_basis(self):
        # phi and the Krylov vectors fill one block of 1 + _KRYLOV_STEPS rows,
        # and Q^T K Q grows a column at a time: the peak is the block and a
        # few vectors in flight, with no second copy of the basis and no
        # K Q^T
        mesh = interval_mesh(8192)
        ops = assembly.operators(mesh)
        free, k_ff, m_ff = ops.restrict(geometry.gamma_nodes(mesh))
        res, pair, _ = eigensolve.lowest_alone(k_ff, m_ff, ())
        load = ops.load[free]
        rows = 1 + mixed_dn._KRYLOV_STEPS
        tracemalloc.start()
        try:
            model = mixed_dn._ResolventModel(k_ff, m_ff, load, res.vector, pair[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model._basis.shape == (rows, len(free))
        assert peak <= (rows + 10) * model._basis[0].nbytes

    @pytest.mark.parametrize("mass", [0.01, 1.0, 100.0])
    def test_factorization_budget(self, square_l3, mass, monkeypatch):
        # the ground eigensolve's factorization seeds the model; each true
        # Newton step factors once more
        factorizations, steps = [], []
        splu = eigensolve.splu
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_splu(a, **kwargs):
            factorizations.append(a.shape)
            return splu(a, **kwargs)

        def counted_step(self, xi, *args):
            steps.append(xi)
            return step(self, xi, *args)

        monkeypatch.setattr(eigensolve, "splu", counted_splu)
        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        mixed_dn.MixedProblem(square_l3).optimal_eigenvalue(mass)
        assert len(factorizations) <= 1 + len(steps)

    def test_model_built_on_construction_and_no_lu_kept(self, square_l3, monkeypatch):
        prob = mixed_dn.MixedProblem(square_l3)
        held = [v for obj in (prob, prob._seeded) for v in vars(obj).values()]
        held += [item for v in held if isinstance(v, tuple) for item in v]
        assert not any(isinstance(v, scipy.sparse.linalg.SuperLU) for v in held)
        # the inversions start from the seeded model and leave it as it
        # was; their only factorizations are the true Newton steps' solve_spd
        seeded = prob._seeded
        basis = seeded._basis
        assert basis.shape[0] == 1 + mixed_dn._KRYLOV_STEPS
        builds, factored, inside = [], [], []
        build = mixed_dn._ResolventModel.__init__
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

        monkeypatch.setattr(mixed_dn._ResolventModel, "__init__", counted_build)
        monkeypatch.setattr(eigensolve, "splu", counted_splu)
        monkeypatch.setattr(mixed_dn, "solve_spd", marked_solve)
        first = prob.optimal_eigenvalue(2.0)
        second = prob.optimal_eigenvalue(20.0)
        assert prob._seeded is seeded and seeded._basis is basis and builds == []
        assert factored and all(factored)
        assert 0.0 < first < second < prob.ground.value
        assert second == mixed_dn.MixedProblem(square_l3).optimal_eigenvalue(20.0)


# every kind of mesh whose pinned pencil keeps its own LU: at most
# eigensolve._COARSE_NODES free nodes, at dense size, or an interval
OWN_LU_MESHES = {
    "square_l3": lambda: square_mesh(3),
    "triangle_l5": lambda: triangle_mesh(5),
    "disk_l1": lambda: disk_mesh(1),
    "square_side0_l3": lambda: square_mesh(3, gamma=geometry.gamma_sides(0)),
    "obtuse_triangle_l4": lambda: obtuse_triangle_mesh(4),
    "interval_12": lambda: interval_mesh(12),
    "interval_l10": lambda: refined(interval_mesh(1), 10),
    "square_l5_no_hierarchy": lambda: without_hierarchy(square_mesh(5)),
}


@pytest.mark.parametrize("make_mesh", list(OWN_LU_MESHES.values()), ids=list(OWN_LU_MESHES))
def test_own_lu_takes_one_solve_per_mass(make_mesh, factorizations, monkeypatch):
    # the model seeded with the Krylov vectors puts the first solve on the
    # root: one true solve per mass, whose LU is the only one after the
    # construction's
    steps = []
    step = mixed_dn.MixedProblem.mass_function_with_derivative

    def counted_step(self, xi, *args):
        steps.append(xi)
        return step(self, xi, *args)

    monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
    prob = mixed_dn.MixedProblem(make_mesh())
    assert prob._cycle is None and len(factorizations) == 1
    e1, volume = prob.ground.value, prob.volume
    inside = [m for m in (1e-3, 1e-2, 1.0, 30.0, 360.0, 2000.0, 1e4, 1e8, 1e10)
              if bounds.optimal_lower_bound(m, e1, volume) < e1 * (1.0 - mixed_dn._XI_MARGIN)]
    assert len(inside) >= 8
    for mass in inside:
        del steps[:], factorizations[:]
        prob.optimal_eigenvalue(mass)
        assert (len(steps), len(factorizations)) == (1, 1), mass


@pytest.mark.parametrize("level,rtol", [(10, 1e-12), (12, 1e-11)])
def test_interval_root_is_tight(level, rtol):
    # against the long-double Newton root of the same float64 pencil
    mesh = refined(interval_mesh(1), level)
    prob = mixed_dn.MixedProblem(mesh)
    for mass in (1.0, 30.0, 360.0, 2000.0, 1e4, 1e8):
        xi = prob.optimal_eigenvalue(mass)
        tight = tight_mass_root(mesh, mass, xi)
        assert abs(xi - tight) <= rtol * tight, mass


def dense_tight_mass_root(prob, mass, xi, steps=4):
    """The root of prob's mass curve by Newton in long double from xi near
    it, each step a dense elimination of K - xi M on the float64 pencil."""
    k, m = (a.toarray().astype(np.longdouble) for a in (prob.k_ff, prob.m_ff))
    row_sums = prob.mass_matrix.toarray().astype(np.longdouble).sum(axis=1)
    b, volume = row_sums[prob.free], row_sums.sum()
    xi = np.longdouble(xi)
    for _ in range(steps):
        a, u = k - xi * m, b.copy()
        for j in range(len(u) - 1):  # positive definite below E1: no pivoting
            factors = a[j + 1:, j] / a[j, j]
            a[j + 1:, j + 1:] -= np.outer(factors, a[j, j + 1:])
            u[j + 1:] -= factors * u[j]
        for j in range(len(u) - 1, -1, -1):
            u[j] = (u[j] - a[j, j + 1:] @ u[j + 1:]) / a[j, j]
        int_u = b @ u
        f = xi * xi * int_u + xi * volume
        xi -= (f - mass) / (2 * xi * int_u + xi * xi * (u @ (m @ u)) + volume)
    return xi


@pytest.mark.parametrize("make_mesh", [lambda: square_mesh(1), lambda: square_mesh(2),
                                       lambda: square_mesh(3), lambda: triangle_mesh(3),
                                       lambda: triangle_mesh(4)],
                         ids=["square_9", "square_49", "square_225", "triangle_21",
                              "triangle_105"])
def test_planar_root_is_tight(make_mesh):
    # the CLI's square at levels 2-4 and triangle at levels 3-4, named by
    # their free nodes; the float64 floor of xi is a few ulps
    prob = mixed_dn.MixedProblem(make_mesh())
    for mass in (1.0, 30.0, 2000.0, 1e6, 1e8, 1e9, 1e10):
        xi = prob.optimal_eigenvalue(mass)
        tight = dense_tight_mass_root(prob, mass, xi)
        assert abs(xi - tight) <= 10 * np.spacing(xi), mass


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

        def counted_step(self, xi, *args):
            out = step(self, xi, *args)
            seen.append((abs(out[0] - mass), xi, out[2]))
            return out

        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        xi, u = prob._invert_mass_curve(mass)
        assert len(seen) <= 6
        err, best_xi, best_u = min(seen, key=lambda s: s[0])
        assert xi == best_xi and u is best_u
        assert err <= 1e-6 * mass

    def test_floor_stop_returns_the_better_of_the_last_two(self, square_l5_problems,
                                                           monkeypatch):
        # a curve stuck at its floor: the second evaluation removes less
        # than half of the first's |F - m|, and the better of the two ends
        # the loop, whether it is the first (factor 2) or the second
        prob, _ = square_l5_problems
        step = mixed_dn.MixedProblem.mass_function_with_derivative
        for factor, kept in ((2.0, 0), (0.75, 1)):
            seen = []

            def floored_step(self, xi, *args):
                f, fp, u = step(self, xi, *args)
                if seen:
                    f = 1.0 + factor * (seen[0][1] - 1.0)
                seen.append((xi, f, u))
                return f, fp, u

            monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative",
                                floored_step)
            xi, u = prob._invert_mass_curve(1.0)
            assert len(seen) == 2 and seen[0][1] != 1.0
            assert xi == seen[kept][0] and u is seen[kept][2]


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
    a V-cycle of its own hierarchy, the resolvent solves by conjugate
    gradients on the same V-cycle, at the roots of a Galerkin model of the
    resolvent that starts at the closed-form upper bound."""

    def test_paths(self, square_l5_problems):
        prob, own = square_l5_problems
        assert len(prob.free) > eigensolve._COARSE_NODES
        assert prob._cycle is not None and own._cycle is None
        # phi alone on the hierarchy; phi and the Krylov vectors on the LU
        assert prob._seeded._basis.shape[0] == 1
        assert own._seeded._basis.shape[0] == 1 + mixed_dn._KRYLOV_STEPS
        assert abs(prob.ground.value - own.ground.value) <= 1e-12 * own.ground.value

    def test_one_coarse_factorization(self, factorizations):
        prob = mixed_dn.MixedProblem(square_mesh(5))
        for mass in (0.01, 1.0, 30.0, 1e4):
            prob.optimal_eigenvalue(mass)
        assert len(factorizations) == 1
        assert factorizations[0] <= eigensolve._COARSE_NODES < len(prob.free)

    @pytest.mark.parametrize("mass", [1e-3, 1e-2, 1.0, 30.0, 360.0, 1e4, 1e8, 1e10])
    def test_newton_from_the_upper_bound(self, square_l5_problems, mass, monkeypatch):
        # 1e10 puts the root 1.3e-9 below E1, just inside the margin 1e-9,
        # where K - xi M is nearly singular
        prob, own = square_l5_problems
        steps = []
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_step(self, xi, *args):
            if self is prob:
                steps.append(xi)
            return step(self, xi, *args)

        monkeypatch.setattr(mixed_dn.MixedProblem, "mass_function_with_derivative", counted_step)
        xi = prob.optimal_eigenvalue(mass)
        e1, volume, integral = prob.ground.value, prob.volume, prob.ground.integral
        lower = bounds.optimal_lower_bound(mass, e1, volume)
        upper = bounds.optimal_upper_bound(mass, e1, volume, integral)
        # the model of phi alone puts the first solve on the upper bound,
        # clamped to the margin, and the model's roots then need at most
        # one more solve and the polish step
        first = min(upper, e1 * (1.0 - mixed_dn._XI_MARGIN))
        assert abs(steps[0] - first) <= 1e-14 * first
        assert len(steps) <= 3
        assert lower * (1.0 - 1e-12) <= xi <= upper * (1.0 + 1e-12)
        assert abs(xi - own.optimal_eigenvalue(mass)) <= 1e-12 * xi

    @pytest.mark.parametrize("mass", [1e-2, 1.0, 30.0])
    def test_resolvent_model_starts_at_the_upper_bound_and_fits_its_sample(
            self, square_l5_problems, mass):
        prob, _ = square_l5_problems
        e1, volume = prob.ground.value, prob.volume
        upper = bounds.optimal_upper_bound(mass, e1, volume, prob.ground.integral)
        lower = bounds.optimal_lower_bound(mass, e1, volume)
        model = copy.copy(prob._seeded)
        xi = prob._model_root(model, mass, lower, e1 * (1.0 - mixed_dn._XI_MARGIN))
        assert abs(xi - upper) <= 1e-14 * upper
        # a sampled resolvent makes the model exact at its xi, and the
        # problem's seeded model stays as it was
        _, _, u = prob.mass_function_with_derivative(xi)
        model.add(u[prob.free])
        assert prob._seeded._basis.shape[0] == 1 and model._basis.shape[0] == 2
        int_u, norm2_u = model.moments(xi)
        assert abs(int_u - prob.load @ u[prob.free]) <= 1e-12 * int_u
        assert abs(norm2_u - u @ (prob.mass_matrix @ u)) <= 1e-12 * norm2_u

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
        # and that LU seeds the model with its Krylov vectors
        mesh = obtuse_triangle_mesh(6)
        prob = mixed_dn.MixedProblem(mesh)
        assert prob._cycle is None
        assert prob._seeded._basis.shape[0] == 1 + mixed_dn._KRYLOV_STEPS
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
        # the seeded model's root needs one true step, whose resolvent is
        # not redone
        prob = mixed_dn.MixedProblem(square_l3)
        solves, steps = [], []
        solve = mixed_dn.solve_spd
        step = mixed_dn.MixedProblem.mass_function_with_derivative

        def counted_solve(a, b, **kwargs):
            solves.append(b)
            return solve(a, b, **kwargs)

        def counted_step(self, xi, *args):
            steps.append(xi)
            return step(self, xi, *args)

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
