"""Coefficient families: `NearbyPencils` without a prolongation, LOBPCG on
one shared preconditioner: a shifted LU, or on a refined mesh above the
coarse size a V-cycle over its hierarchy's coarse LU.

A family must reproduce each member's solve on its own LU (which replaced
shift-invert ARPACK, hence the class name), fall back to that solve (and
take its LU as the reference) where its reference is poor, keep to one
factorization per reference it takes, factor the fine mesh only on a
fallback, and raise no warnings.
"""

import warnings

import numpy as np
import pytest

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
        # lambda_check is the family's first member, then the 8 trials
        assert len(members) == 1 + 8 and rep.passed
        assert [t.eigenvalue for t in rep.trials] == [r.value for _, _, r, _ in members[1:]]
        assert_agrees_with_own_factor_solves(members)
        opt = mixed_dn.MixedProblem(MESHES[level]).optimal_sigma(1.0)
        assert members[0][2].value == opt.lambda_check

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
    def test_one_factorization_per_family(self, level, which, members, factorizations):
        # both meshes lie above the coarse size: the family's references are
        # V-cycles over a coarse LU, the first one and one for each member
        # after one that took more than _REREFERENCE applications, so the
        # last member builds none
        run_family(level, which)
        (fam,) = families(members)
        assert fam.fallbacks == 0
        warm = members if which == "scaling" else members[1:]
        slow = [r.iterations > eigensolve._REREFERENCE for _, _, r, _ in warm]
        assert len(factorizations) == 1 + sum(slow[:-1])
        # a member after a slow one runs on its own V-cycle, warm-started
        assert all(r.iterations <= eigensolve._REREFERENCE
                   for was_slow, (_, _, r, _) in zip(slow, warm[1:]) if was_slow)
        if which == "scaling":
            assert any(slow[:-1])
        assert max(factorizations) <= eigensolve._COARSE_NODES < MESHES[level].num_nodes

    @pytest.mark.parametrize("level", sorted(MESHES))
    def test_maximality(self, level, members, factorizations):
        # lambda_check, the family's first member, runs on a V-cycle over one
        # coarse LU, which the trials reuse.  The pinned pencil at level 4
        # (961 free nodes) is factored for its ground state and once for its
        # one Newton step; at level 5 it runs on its own hierarchy, over one
        # coarse LU, and its Newton steps factor nothing
        run_family(level, "maximality")
        (fam,) = families(members)
        assert fam.fallbacks == 0
        assert len(factorizations) == {4: 3, 5: 2}[level]
        if level == 5:
            assert max(factorizations) <= eigensolve._COARSE_NODES


class TestFallback:
    def pencil(self):
        mesh = MESHES[4]
        ops = assembly.operators(mesh)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
        return ops.stiffness, b, ops.mass

    def test_poor_reference_falls_back_gated_and_refactored(self, factorizations):
        k, b, m = self.pencil()
        # a near-Dirichlet reference preconditions a near-Neumann member badly
        fam = eigensolve.NearbyPencils(2, reference=eigensolve.shifted_factor(k + 1e6 * b, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fam.lowest(k + 1e-3 * b, m, ())
        assert fam.fallbacks == 1
        assert len(factorizations) == 2
        # the member's LU is the new reference: its neighbour needs no refactor
        fam.lowest(k + 2e-3 * b, m, ())
        assert fam.fallbacks == 1
        assert len(factorizations) == 2
        # the fallback is the member's solve on its own LU, gate included
        own = eigensolve.smallest_eigs(k + 1e-3 * b, m)
        assert res.value == own.value and res.residual == own.residual
        assert res.iterations == own.iterations > 0

    def test_family_on_an_lu_keeps_it_after_slow_members(self, factorizations):
        # only a family on a V-cycle builds a new reference for the member
        # after a slow one; an LU reference serves every member
        k, b, m = self.pencil()
        fam = eigensolve.NearbyPencils(2, reference=eigensolve.shifted_factor(k + 30.0 * b, m))
        runs = [fam.lowest(k + s * b, m, ()).iterations for s in (1.0, 0.1, 0.05)]
        assert min(runs[:-1]) > eigensolve._REREFERENCE and fam.fallbacks == 0
        assert len(factorizations) == 1

    def test_cap_exceeded_raises_in_smallest_eigs(self):
        k, b, m = self.pencil()
        reference = eigensolve.shifted_factor(k + 1e6 * b, m)
        guess = reference[1].solve(m @ np.ones(m.shape[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                eigensolve.smallest_eigs(k + 1e-3 * b, m, start=(reference, guess))
        diag = info.value.diagnostics
        assert set(diag) == {"iterations", "residual", "bound"}
        assert diag["iterations"] > eigensolve._LOBPCG_STEPS
        # the family's stop at the last Ritz value, above the floor alone
        a = k + 1e-3 * b
        floor = eigensolve._ROUNDOFF * eigensolve._yardstick(a, m)[2]
        assert diag["residual"] > diag["bound"] > floor

    def test_cap_applies_even_below_the_gate(self):
        # an exact preconditioner converges fast, but never to a zero-width
        # tolerance: the cap ends the run however small the residual is
        k, b, m = self.pencil()
        _, lu = eigensolve.shifted_factor(k + b, m)
        x0 = lu.solve(m @ np.ones(m.shape[0])).reshape(-1, 1)
        with pytest.raises(ConvergenceError) as info:
            eigensolve._lobpcg(k + b, m, lu, x0, 1e-300, 0.0, 1.0)
        assert info.value.diagnostics["iterations"] == eigensolve._LOBPCG_STEPS + 1


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
