"""Property tests on small meshes.

Random nonnegative nodal coefficients: the lowest Robin eigenvalue, which
runs on the mesh's shared operators, is checked against a dense generalized
solve on freshly assembled matrices, and for monotonicity under
sigma -> c sigma with c >= 1.  Both checks are 1e-9 relative, plus a
round-off floor of 1e-12 ||K + B||_inf that covers the zero eigenvalue of an
all-zero (Neumann) coefficient.

Random families of nonnegative nodal coefficients are solved in order by
one `NearbyPencils`: LOBPCG from the last eigenvector on the last LU, and a
member factored and solved on its own LU where that fails, which then
becomes the family's reference.  Families run without a reference, with
their first member's LU, and with a near-Dirichlet reference that a
near-Neumann first member must fall back from.  Each member is held to the
same dense check, and to its standalone solve within `eigenvalue_floor`.
On random convex polygons the same class runs as a chain of refined
meshes: LOBPCG from the prolonged eigenvector on a V-cycle over the last
preconditioner, and a fallback ends the nesting.  Each level must match
the level's standalone solve to 1e-12 max(lambda, 1).

On random convex polygons with random gamma sides, refined past the coarse
size, a pencil solved alone on its hierarchy (LOBPCG on a V-cycle over the
coarse LU, or the fine LU after a fallback) must match the fine LU's solve
within `eigenvalue_floor`.

On random convex polygons pinned on all or some sides, refined past the
coarse size in free nodes, the pinned problem runs on its own hierarchy:
its ground state and its optimal eigenvalue at a random mass must match
the same problem on its own LU to 1e-12 max(value, 1), and the mass curve
is inverted in at most 3 resolvent solves.

Random masses: the optimal eigenvalue, whose Newton loop starts from the
Lanczos model's root, must reproduce the mass on a true resolvent solve and
lie between the closed-form bounds.

The scale law: under x -> t x with the coefficient sigma / t (and the mass
m t^(d-2)), the Robin lambda, the pinned E1, the optimal xi and its
lambda_check all scale as t^-2, on random convex polygons with random gamma
sides and on the interval, for t from 1e-6 to 1e6, and the CLI exits 0 at
every t.
"""

import contextlib
import dataclasses
import io

import numpy as np
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from robinspec import assembly, bounds, cli, eigensolve, geometry, mixed_dn, robin
from robinspec.assembly import SigmaField

from conftest import convex_polygons, interval_mesh, refined, square_mesh

# robin runs LOBPCG on the pencil's LU on both meshes
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
@given(sigma_family(), st.sampled_from(["none", "first", "far"]))
def test_coefficient_family_matches_dense_solves(members, reference):
    ops = assembly.operators(FAMILY_MESH)
    boundary = assembly.assemble_boundary_mass(FAMILY_MESH, SigmaField.constant(1.0))
    pencils = [ops.stiffness + assembly.assemble_boundary_mass(FAMILY_MESH, SigmaField.nodal(v))
               for v in members]
    pair = None
    if reference == "first":
        pair = eigensolve.shifted_factor(pencils[0], ops.mass)
    elif reference == "far":
        # a near-Dirichlet reference preconditions a near-Neumann member badly
        pair = eigensolve.shifted_factor(ops.stiffness + 1e6 * boundary, ops.mass)
        members = [1e-3 * np.ones(FAMILY_MESH.num_nodes), *members]
        pencils = [ops.stiffness + 1e-3 * boundary, *pencils]
    family = eigensolve.NearbyPencils(FAMILY_MESH.dim, reference=pair)
    for values, pencil in zip(members, pencils):
        lam = family.lowest(pencil, ops.mass, ()).value
        a, m = fresh_pencil(FAMILY_MESH, values)
        ref = scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True)[0]
        assert abs(lam - ref) <= RTOL * abs(ref) + round_off(a)
        alone = eigensolve.smallest_eigs(pencil, ops.mass).value
        assert abs(lam - alone) <= eigensolve.eigenvalue_floor(alone, pencil, ops.mass)
    assert family.fallbacks > 0 or reference != "far"


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(convex_polygons(), st.floats(-3.0, 3.0))
def test_refinement_chain_matches_per_level_solves(domain, log_sigma):
    sigma = SigmaField.constant(10.0 ** log_sigma)
    base = geometry.build_mesh(domain, 0.5)
    sizes = []
    for mesh, res in robin.refinement_levels(refined(base, 4), sigma, 4):
        want = robin.lowest_eigenvalue(mesh, sigma).value
        # relative to max(lambda, 1): near sigma = 0 the chain's stop, which
        # is absolute, leaves about 1e-14 (6e-12 relative at sigma = 1e-3)
        assert abs(res.value - want) <= 1e-12 * max(want, 1.0)
        sizes.append(mesh.num_nodes)
    # the first level factored, the three above it nested
    assert len(sizes) == 4


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(convex_polygons(), st.data(), st.floats(-2.0, 2.0))
def test_hierarchy_matches_the_fine_lu(domain, data, log_sigma):
    verts = domain.vertices
    sides = data.draw(st.sets(st.integers(0, len(verts) - 1), min_size=1))
    mesh = geometry.build_mesh(geometry.polygon(verts, gamma=geometry.gamma_sides(*sides)), 0.5)
    while mesh.num_nodes <= eigensolve._COARSE_NODES:
        mesh = geometry.refine(mesh)
    ops = assembly.operators(mesh)
    a = ops.stiffness + assembly.assemble_boundary_mass(
        mesh, SigmaField.on_gamma(10.0 ** log_sigma))
    family = eigensolve.NearbyPencils(mesh.dim)
    lam = family.lowest(a, ops.mass, assembly.hierarchy(mesh)).value
    want = eigensolve.smallest_eigs(a, ops.mass).value
    assert abs(lam - want) <= eigensolve.eigenvalue_floor(want, a, ops.mass)
    # a fallback is the fine LU's own solve
    assert lam == want or not family.fallbacks


@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(convex_polygons(), st.data(), st.floats(-3.0, 8.0))
def test_pinned_hierarchy_matches_the_own_lu(domain, data, log_mass):
    verts = domain.vertices
    sides = data.draw(st.none() | st.sets(st.integers(0, len(verts) - 1), min_size=1))
    gamma = geometry.gamma_all() if sides is None else geometry.gamma_sides(*sides)
    mesh = geometry.build_mesh(geometry.polygon(verts, gamma=gamma), 0.5)
    while mesh.num_nodes - len(geometry.gamma_nodes(mesh)) <= eigensolve._COARSE_NODES:
        mesh = geometry.refine(mesh)
    prob = mixed_dn.MixedProblem(mesh)
    # the same nodes and elements without coarser levels: the own LU
    own = mixed_dn.MixedProblem(dataclasses.replace(mesh, coarse=None))
    mass = 10.0 ** log_mass
    steps = []
    evaluate = prob.mass_function_with_derivative
    prob.mass_function_with_derivative = lambda xi, *args: steps.append(xi) or evaluate(xi, *args)
    for value, want in [(prob.ground.value, own.ground.value),
                        (prob.optimal_eigenvalue(mass), own.optimal_eigenvalue(mass))]:
        assert abs(value - want) <= 1e-12 * max(abs(want), 1.0)
    assert len(steps) <= 3


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


@st.composite
def scale_problems(draw):
    """(domain, level): a convex polygon at level 3 with gamma a random
    nonempty set of its sides, or the unit interval at level 4 with gamma
    one end or both."""
    if draw(st.booleans()):
        return geometry.interval(0.0, 1.0, gamma=geometry.gamma_sides(
            *draw(st.sampled_from([(0,), (1,), (0, 1)])))), 4
    verts = draw(convex_polygons()).vertices
    sides = draw(st.sets(st.integers(0, len(verts) - 1), min_size=1))
    return geometry.polygon(verts, gamma=geometry.gamma_sides(*sides)), 3


def scaled_options(domain, t):
    """The CLI's domain flags for domain under x -> t x, each as one
    --flag=value, which argparse reads even where the value starts with -."""
    sides = ",".join(map(str, sorted(domain.gamma.sides)))
    if domain.kind == "interval":
        flags = ["--domain=interval", "--a=0", f"--b={t * domain.b!r}"]
    else:
        flags = ["--domain=polygon", "--vertices=" + ";".join(
            f"{t * x!r},{t * y!r}" for x, y in domain.vertices)]
    return flags + [f"--gamma=edges={sides}"]


def scale_free_values(domain, level, sigma, mass):
    """(lambda, E1, xi, lambda_check) on the domain's mesh at level, and the
    round-off floor of its pencils, `eigenvalue_floor` at 0."""
    mesh = cli._mesh_at_level(domain, level, None)
    ops = assembly.operators(mesh)
    lam = robin.lowest_eigenvalue(mesh, SigmaField.on_gamma(sigma)).value
    prob = mixed_dn.MixedProblem(mesh)
    opt = prob.optimal_sigma(mass)
    return (np.array([lam, prob.ground.value, opt.value, opt.lambda_check]),
            eigensolve.eigenvalue_floor(0.0, ops.stiffness, ops.mass))


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scale_problems(), st.floats(-6.0, 6.0), st.floats(-3.0, 3.0), st.floats(-1.0, 2.0))
def test_scale_law(tmp_path_factory, problem, log_t, log_sigma, log_mass):
    domain, level = problem
    t, sigma, mass = 10.0 ** log_t, 10.0 ** log_sigma, 10.0 ** log_mass
    scaled_mass = mass * t ** (domain.dim - 2)
    if domain.kind == "interval":
        scaled = geometry.interval(0.0, t * domain.b, gamma=domain.gamma)
    else:
        scaled = geometry.polygon([(t * x, t * y) for x, y in domain.vertices], gamma=domain.gamma)
    want, floor = scale_free_values(domain, level, sigma, mass)
    got = scale_free_values(scaled, level, sigma / t, scaled_mass)[0] * t * t
    # 1e-12 relative, over the round-off of the pencil as it is formed in
    # float64, which sets lambda's 12th digit near sigma = 0 (1.6e-11
    # relative on the interval at sigma = 1e-3)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + floor), (got, want)
    csv = str(tmp_path_factory.mktemp("scale") / "s.csv")
    common = scaled_options(domain, t) + [f"--levels={level}"]
    for argv in (["solve", f"--sigma={sigma / t!r}"],
                 ["optimal", f"--m={scaled_mass!r}", f"--csv={csv}"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + common) == 0, argv + common
