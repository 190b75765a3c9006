"""Property tests on small meshes.

Random nonnegative nodal coefficients: the lowest Robin eigenvalue, which
runs on the mesh's shared operators, is checked against a dense generalized
solve on freshly assembled matrices, and for monotonicity under
sigma -> c sigma with c >= 1.  Both checks are 1e-9 relative, plus a
round-off floor of 1e-12 ||K + B||_inf that covers the zero eigenvalue of an
all-zero (Neumann) coefficient.

Random families of nonnegative nodal coefficients, solved in order by one
`CoefficientFamily` (LOBPCG on one shared LU, a member's own LU where that
fails), are held to the same dense check member by member.

Random masses: the optimal eigenvalue, whose Newton loop starts from the
Lanczos model's root, must reproduce the mass on a true resolvent solve and
lie between the closed-form bounds.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from robinspec import assembly, bounds, eigensolve, mixed_dn, robin
from robinspec.assembly import SigmaField

from conftest import interval_mesh, square_mesh

# both meshes exceed the dense cutoff, so robin runs LOBPCG on the pencil's LU
MESHES = {"square": square_mesh(2), "interval": interval_mesh(48)}
RTOL = 1e-9
FLOOR = 1e-12
PROPERTY_SETTINGS = settings(max_examples=20, derandomize=True, deadline=None)


@st.composite
def nodal_sigma(draw):
    """(mesh, nodal sigma values): zero or in [1e-3, 1e3] at each boundary node."""
    mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))]
    nodes = np.unique(mesh.boundary)
    draws = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                          min_size=len(nodes), max_size=len(nodes)))
    values = np.zeros(mesh.num_nodes)
    values[nodes] = draws
    return mesh, values


def fresh_pencil(mesh, values):
    """K + B(sigma) and M, assembled without the shared operators."""
    b = assembly.assemble_boundary_mass(mesh, SigmaField.nodal(values))
    return assembly.assemble_stiffness(mesh) + b, assembly.assemble_mass(mesh)


def round_off(a) -> float:
    return FLOOR * float(np.abs(a).sum(axis=1).max())


@PROPERTY_SETTINGS
@given(nodal_sigma())
def test_lowest_eigenvalue_matches_dense_solve(case):
    mesh, values = case
    lam = robin.lowest_eigenvalue(mesh, SigmaField.nodal(values)).value
    a, m = fresh_pencil(mesh, values)
    ref = scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True)[0]
    assert abs(lam - ref) <= RTOL * abs(ref) + round_off(a)


@PROPERTY_SETTINGS
@given(nodal_sigma(), st.floats(1.0, 1e3))
def test_monotone_under_coefficient_scaling(case, c):
    mesh, values = case
    lam = robin.lowest_eigenvalue(mesh, SigmaField.nodal(values)).value
    lam_c = robin.lowest_eigenvalue(mesh, SigmaField.nodal(c * values)).value
    a, _ = fresh_pencil(mesh, c * values)
    assert lam_c >= lam - RTOL * abs(lam) - round_off(a)


FAMILY_MESH = square_mesh(3)


@st.composite
def sigma_family(draw):
    """Two to five nodal coefficients on FAMILY_MESH, drawn like nodal_sigma."""
    nodes = np.unique(FAMILY_MESH.boundary)
    members = []
    for _ in range(draw(st.integers(2, 5))):
        draws = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                              min_size=len(nodes), max_size=len(nodes)))
        values = np.zeros(FAMILY_MESH.num_nodes)
        values[nodes] = draws
        members.append(values)
    return members


@PROPERTY_SETTINGS
@given(sigma_family())
def test_coefficient_family_matches_dense_solves(members):
    ops = assembly.operators(FAMILY_MESH)
    family = eigensolve.CoefficientFamily(ops.mass)
    for values in members:
        b = assembly.assemble_boundary_mass(FAMILY_MESH, SigmaField.nodal(values))
        lam = family.lowest(ops.stiffness + b).value
        a, m = fresh_pencil(FAMILY_MESH, values)
        ref = scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True)[0]
        assert abs(lam - ref) <= RTOL * abs(ref) + round_off(a)


PROBLEMS = {name: mixed_dn.MixedProblem(mesh) for name, mesh in MESHES.items()}


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(PROBLEMS)), st.floats(-3.0, 5.0))
def test_optimal_eigenvalue_certified_and_bounded(name, log_mass):
    prob = PROBLEMS[name]
    mass = 10.0 ** log_mass
    xi = prob.optimal_eigenvalue(mass)
    f, _, _ = prob.mass_function_with_derivative(xi)
    assert abs(f - mass) <= 1e-10 * max(mass, 1.0)
    e1, volume = prob.ground.value, prob.volume
    lower = bounds.optimal_lower_bound(mass, e1, volume)
    upper = bounds.optimal_upper_bound(mass, e1, volume, prob.ground.integral)
    assert lower * (1.0 - 1e-12) <= xi <= upper * (1.0 + 1e-12)
