"""Coefficient families: `NearbyPencils` without a prolongation, LOBPCG on
one shared preconditioner: a shifted LU, or on a refined mesh above the
coarse size a V-cycle over its hierarchy's coarse LU.

A family must reproduce each member's solve on its own LU (which replaced
shift-invert ARPACK, hence the class name), give up at its pace where its
reference is poor and then solve the member on its own (on its hierarchy
where it has one, and on its own LU where it has none or its run there
gives up), which then is the reference, keep to one factorization per
reference it takes, factor the fine mesh only where a run on the hierarchy
gives up, and raise no warnings.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from robinspec import assembly, bounds, eigensolve, mixed_dn, robin
from robinspec.assembly import SigmaField
from robinspec.errors import ConvergenceError

from conftest import square_mesh

EPS_GRID = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3]
AGREEMENT_RTOL = 1e-9
MESHES = {level: square_mesh(level) for level in (4, 5)}


@pytest.fixture
def members(monkeypatch):
    """Records (a, m, result, family) for every family member solved."""
    seen = []
    lowest = eigensolve.NearbyPencils.lowest

    def recorded(self, a, m, levels, prolongation=None):
        res = lowest(self, a, m, levels, prolongation)
        seen.append((a, m, res, self))
        return res

    monkeypatch.setattr(eigensolve.NearbyPencils, "lowest", recorded)
    return seen


def families(seen):
    return list({id(fam): fam for *_, fam in seen}.values())


def assert_agrees_with_own_factor_solves(seen):
    for a, m, res, _ in seen:
        ref = eigensolve.smallest_eigs(a, m).value
        assert abs(res.value - ref) <= AGREEMENT_RTOL * abs(ref)
        assert res.iterations > 0


def run_family(level, which):
    mesh = MESHES[level]
    if which == "maximality":
        return mixed_dn.verify_maximality(mesh, 1.0, trials=8, seed=3)
    if which == "scaling":
        return bounds.scaling_table(mesh, SigmaField.constant(1.0), EPS_GRID)
    return robin.concentration_sweep(mesh, 1.0, (0.4, 0.0), level - 1, seed=3)


class TestAgreementWithArpack:
    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_maximality_trials(self, level, members):
        rep = run_family(level, "maximality")
        # the pinned ground state, a pencil of its own; then lambda_check,
        # the trial family's first member, and the 8 trials
        assert len(members) == 1 + 1 + 8 and rep.passed
        assert len(families(members)) == 2
        assert [t.eigenvalue for t in rep.trials] == [r.value for _, _, r, _ in members[2:]]
        assert_agrees_with_own_factor_solves(members)
        opt = mixed_dn.MixedProblem(MESHES[level]).optimal_sigma(1.0)
        assert members[1][2].value == opt.lambda_check

    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_scale_grid(self, level, members):
        rows = run_family(level, "scaling")
        assert len(members) == len(EPS_GRID)
        # the members are the pencils (K + eps B, M), of eigenvalue eps^2 lambda
        assert [r.eps2_eigenvalue for r in rows] == [r.value for _, _, r, _ in members]
        assert_agrees_with_own_factor_solves(members)

    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_concentration_sweep(self, level, members):
        rows = run_family(level, "concentration")
        lams = [r.eigenvalue for r in rows]
        assert lams == [r.value for _, _, r, _ in members]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert_agrees_with_own_factor_solves(members)


class TestFactorizationBudget:
    @pytest.mark.parametrize("which", ["scaling", "concentration"])
    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_one_factorization_per_family(self, level, which, members, factorizations,
                                          give_ups):
        # both meshes lie above the coarse size: the family's references are
        # V-cycles over a coarse LU, the first one and one for each member
        # that gave up at its pace on the family's V-cycle, which is then
        # solved alone on its own hierarchy, where it keeps its pace
        run_family(level, which)
        assert len(families(members)) == 1
        assert len(factorizations) == 1 + len(give_ups)
        # the scale grid's eps = 100 member falls behind on the V-cycle of
        # K + B; the concentration steps keep their pace
        assert len(give_ups) == (1 if which == "scaling" else 0)
        assert all(g["iterations"] < eigensolve._LOBPCG_STEPS for g in give_ups)
        assert max(factorizations) <= eigensolve._COARSE_NODES < MESHES[level].num_nodes

    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_maximality(self, level, members, factorizations, give_ups):
        # lambda_check, the family's first member, runs on a V-cycle over one
        # coarse LU, which the trials reuse.  The pinned pencil at level 4
        # (961 free nodes) is factored for its ground state and once for its
        # one Newton step; at level 5 it runs on its own hierarchy, over one
        # coarse LU, and its Newton steps factor nothing
        run_family(level, "maximality")
        assert len(families(members)) == 2 and give_ups == []
        assert len(factorizations) == {4: 3, 5: 2}[level]
        if level == 5:
            assert max(factorizations) <= eigensolve._COARSE_NODES


class TestFallback:
    def pencil(self):
        mesh = MESHES[4]
        ops = assembly.operators(mesh)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
        return ops.stiffness, b, ops.mass

    def test_poor_reference_falls_back_gated_and_refactored(self, factorizations, give_ups):
        k, b, m = self.pencil()
        # a near-Dirichlet reference preconditions a near-Neumann member badly
        fam = eigensolve.NearbyPencils(reference=eigensolve.shifted_factor(k + 1e6 * b, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fam.lowest(k + 1e-3 * b, m, ())
        assert len(give_ups) == 1
        assert len(factorizations) == 2
        # the member's LU is the new reference: its neighbour needs no refactor
        fam.lowest(k + 2e-3 * b, m, ())
        assert len(give_ups) == 1
        assert len(factorizations) == 2
        # the fallback is the member's solve on its own LU, gate included
        own = eigensolve.smallest_eigs(k + 1e-3 * b, m)
        assert res.value == own.value and res.residual == own.residual
        assert res.iterations == own.iterations > 0

    @pytest.mark.parametrize("hierarchy", [False, True], ids=["lu", "v-cycle"])
    def test_the_reference_after_a_give_up_is_the_members_own_pair(self, hierarchy, give_ups,
                                                                   monkeypatch):
        # the member that gives up on the near-Dirichlet reference is solved
        # alone on its own shifted pair, which the family then keeps
        k, b, m = self.pencil()
        levels = assembly.hierarchy(MESHES[4]) if hierarchy else ()
        far = eigensolve.shifted_factor(k + 1e6 * b, m, levels)
        fam = eigensolve.NearbyPencils(reference=far)
        assert fam.pair is far
        pairs = []
        shifted_factor = eigensolve.shifted_factor

        def recorded(a, m, levels=()):
            pairs.append(shifted_factor(a, m, levels))
            return pairs[-1]

        monkeypatch.setattr(eigensolve, "shifted_factor", recorded)
        res = fam.lowest(k + 1e-3 * b, m, levels)
        assert len(give_ups) == 1
        (own,) = pairs
        assert fam.pair is own and eigensolve.on_hierarchy(own) == hierarchy
        alone = eigensolve.smallest_eigs(k + 1e-3 * b, m, factor=own)
        assert res.value == alone.value and res.iterations == alone.iterations

    def test_family_on_an_lu_keeps_it_after_slow_members(self, factorizations, give_ups):
        # a member that is slow on the family's LU but keeps its pace does
        # not give up, so the LU serves every member
        k, b, m = self.pencil()
        fam = eigensolve.NearbyPencils(reference=eigensolve.shifted_factor(k + 30.0 * b, m))
        sigmas = (1.0, 0.1, 0.05)
        runs = [fam.lowest(k + s * b, m, ()).iterations for s in sigmas]
        assert give_ups == []
        assert len(factorizations) == 1
        # each takes twice the applications of its own LU's run to a tighter stop
        own = [eigensolve.smallest_eigs(k + s * b, m).iterations for s in sigmas]
        assert all(run > 2 * alone for run, alone in zip(runs, own))

    def test_random_nodal_families_give_up_at_their_pace(self, give_ups):
        # five families of four members on square L3, each boundary node 0
        # or 10^U[-3, 3]: a member the family's LU cannot bring down gives
        # up within a few applications, where it once ran to the cap
        mesh = square_mesh(3)
        ops = assembly.operators(mesh)
        nodes = np.unique(mesh.boundary)
        rng = np.random.default_rng(7)
        for _ in range(5):
            fam = eigensolve.NearbyPencils()
            for _ in range(4):
                values = np.zeros(mesh.num_nodes)
                values[nodes] = np.where(rng.random(len(nodes)) < 0.5, 0.0,
                                         10.0 ** rng.uniform(-3.0, 3.0, len(nodes)))
                a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.nodal(values))
                lam = fam.lowest(a, ops.mass, ()).value
                ref = scipy.linalg.eigh(a.toarray(), ops.mass.toarray(), eigvals_only=True)[0]
                assert abs(lam - ref) <= AGREEMENT_RTOL * ref
        assert give_ups and all(g["iterations"] <= 10 for g in give_ups)

    def test_warm_run_gives_up_at_its_pace(self):
        # a warm-started run has a next rung, the member's own solve: on a
        # near-Dirichlet reference a near-Neumann member falls behind at once
        k, b, m = self.pencil()
        reference = eigensolve.shifted_factor(k + 1e6 * b, m)
        guess = reference[1].solve(m @ np.ones(m.shape[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="at its pace") as info:
                eigensolve.smallest_eigs(k + 1e-3 * b, m, start=(reference, guess))
        diag = info.value.diagnostics
        assert set(diag) == {"iterations", "residual", "bound"}
        assert eigensolve._PACE_FROM <= diag["iterations"] <= 10
        # the family's stop at the last Ritz value, above the floor alone
        a = k + 1e-3 * b
        floor = eigensolve._ROUNDOFF * eigensolve._yardstick(a, m)[2]
        assert diag["residual"] > diag["bound"] > floor

    def test_last_rung_hands_its_best_iterate_to_the_gate(self, monkeypatch):
        # an exact preconditioner converges fast, but never to a zero-width
        # tolerance.  Paced, the run gives up as soon as it is judged; not
        # paced, it runs to the cap and returns its iterate of least residual
        k, b, m = self.pencil()
        a = k + b
        _, lu = eigensolve.shifted_factor(a, m)
        x0 = lu.solve(m @ np.ones(m.shape[0])).reshape(-1, 1)
        with pytest.raises(ConvergenceError, match="at its pace") as info:
            eigensolve._lobpcg(a, m, lu, x0, 1e-300, 0.0, 1.0, paced=True)
        assert info.value.diagnostics["iterations"] == eigensolve._PACE_FROM
        x, applications = eigensolve._lobpcg(a, m, lu, x0, 1e-300, 0.0, 1.0)
        assert applications == eigensolve._LOBPCG_STEPS
        value, _, r = eigensolve._normalised(a, m, x)
        assert np.linalg.norm(r) <= 1e-12 * value
        # an own run on its own LU to a zero stop: the best iterate passes
        # the gate, and a gate below it raises the gate's error
        monkeypatch.setattr(eigensolve, "_OWN_RTOL", 0.0)
        monkeypatch.setattr(eigensolve, "_ROUNDOFF", 0.0)
        res = eigensolve.smallest_eigs(a, m)
        assert res.iterations == eigensolve._LOBPCG_STEPS
        assert res.value == pytest.approx(value, rel=1e-14)
        monkeypatch.setattr(eigensolve, "_NEARBY_RTOL", 1e-300)
        with pytest.raises(ConvergenceError, match="above tolerance") as info:
            eigensolve.smallest_eigs(a, m)
        diag = info.value.diagnostics
        assert diag["iterations"] == eigensolve._LOBPCG_STEPS
        assert diag["residual"] > diag["bound"]


class TestPreconditionedPath:
    def test_value_is_rayleigh_quotient_of_normalised_vector(self):
        mesh = MESHES[4]
        ops = assembly.operators(mesh)
        a = ops.stiffness + assembly.assemble_boundary_mass(mesh, SigmaField.constant(2.0))
        factor = eigensolve.shifted_factor(a, ops.mass)
        guess = factor[1].solve(ops.load)
        res = eigensolve.smallest_eigs(a, ops.mass, start=(factor, guess))
        x = res.vector
        assert x @ (ops.mass @ x) == pytest.approx(1.0, rel=1e-14)
        assert res.value == pytest.approx(x @ (a @ x), rel=1e-13)
        assert 0 < res.iterations <= eigensolve._LOBPCG_STEPS
