import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from robinspec import assembly, bounds, cli, geometry, robin
from robinspec.errors import ArgumentError, GeometryError, UnsupportedDomainError

from conftest import (L_SHAPE, boundary_length, convex_polygons, disk_mesh, interval_mesh,
                      refined, square_mesh, triangle_mesh)

SQRT2 = math.sqrt(2.0)


class TestBuildMesh:
    def test_unit_square_target_half(self):
        mesh = geometry.build_mesh(geometry.unit_square(), 0.5)
        assert mesh.dim == 2
        # every side split into at least 2 segments
        lengths = geometry.boundary_edge_lengths(mesh)
        assert lengths.max() <= 0.5
        assert len(mesh.boundary) >= 8
        assert np.all(mesh.boundary_markers == geometry.GAMMA)

    def test_interval_quarters(self):
        mesh = interval_mesh(4)
        assert mesh.num_elements == 4
        assert mesh.num_nodes == 5
        assert sorted(mesh.nodes[mesh.boundary[:, 0], 0]) == [0.0, 1.0]

    def test_disk_boundary_nodes_on_circle(self):
        mesh = geometry.build_mesh(geometry.disk((0, 0), 1.0, 64), 0.2)
        bn = geometry.boundary_nodes(mesh)
        radii = np.linalg.norm(mesh.nodes[bn], axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-14

    def test_max_diameter_respected(self):
        mesh = geometry.build_mesh(geometry.unit_square(), 0.3)
        assert geometry.max_element_diameter(mesh) <= 0.3

    def test_nonpositive_target_h(self):
        with pytest.raises(ArgumentError):
            geometry.build_mesh(geometry.unit_square(), 0.0)
        with pytest.raises(ArgumentError):
            geometry.build_mesh(geometry.unit_square(), math.nan)

    def test_non_simple_polygon_rejected(self):
        with pytest.raises(GeometryError):
            geometry.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_clockwise_polygon_rejected(self):
        with pytest.raises(GeometryError):
            geometry.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_interval_needs_a_lt_b(self):
        with pytest.raises(GeometryError):
            geometry.interval(1.0, 0.0)

    @pytest.mark.parametrize("build", [
        lambda: geometry.interval(math.nan, 1.0),
        lambda: geometry.interval(0.0, math.inf),
        lambda: geometry.polygon([(0, 0), (1, math.nan), (0, 1)]),
        lambda: geometry.rectangle(math.inf, 1.0),
        lambda: geometry.disk((0, 0), math.nan),
        lambda: geometry.disk((0, 0), math.inf),
        lambda: geometry.disk((math.nan, 0), 1.0),
    ], ids=["interval-nan", "interval-inf", "polygon-nan", "rect-inf", "disk-nan",
            "disk-inf", "disk-center-nan"])
    def test_non_finite_domain_rejected(self, build):
        # each would otherwise refine toward a mesh size it can never reach
        with pytest.raises(GeometryError):
            build()

    def test_nonconvex_polygon_meshes(self):
        lshape = geometry.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        mesh = geometry.build_mesh(lshape, 0.5)
        assert abs(geometry.area(mesh) - 3.0) < 1e-12
        assert np.all(geometry.element_measures(mesh) > 0)

    def test_gamma_one_side(self):
        mesh = square_mesh(2, gamma=geometry.gamma_sides(0))
        marked = mesh.boundary[mesh.boundary_markers == geometry.GAMMA]
        ys = mesh.nodes[np.unique(marked), 1]
        assert np.all(np.abs(ys) < 1e-14)
        assert abs(boundary_length(mesh, "gamma") - 1.0) < 1e-12

    def test_gamma_arc_on_disk(self):
        dom = geometry.disk((0, 0), 1.0, 32, gamma=geometry.gamma_arcs([(0.0, math.pi)]))
        mesh = geometry.build_mesh(dom, 0.5)
        frac = boundary_length(mesh, "gamma") / boundary_length(mesh)
        assert abs(frac - 0.5) < 0.1


def diameter_target(domain):
    """The domain's largest vertex distance (2 R for a disk): a base
    target_h that no element of the initial mesh exceeds."""
    if domain.kind == "interval":
        return domain.b - domain.a
    if domain.kind == "disk":
        return 2.0 * domain.radius
    verts = np.array(domain.vertices)
    return float(max(np.linalg.norm(p - q) for p in verts for q in verts))


def assert_same_mesh(got, want):
    assert got.dim == want.dim and got.level == want.level
    for field in ("nodes", "elements", "boundary", "boundary_markers"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


class TestDefaultBaseMesh:
    @pytest.mark.parametrize("domain", [
        geometry.interval(0.0, 1.0), geometry.interval(-3.0, 7.5, gamma=geometry.gamma_sides(1)),
        geometry.disk((0.0, 0.0), 1.0, 16), geometry.disk((2.0, -1.0), 0.3, 9),
        geometry.unit_square(), geometry.rectangle(2.0, 1.0),
        geometry.polygon([(0, 0), (1, 0), (0, 1)]),
    ], ids=["interval", "interval-shifted", "disk", "disk-9", "square", "rect", "triangle"])
    @pytest.mark.parametrize("level", [0, 2])
    def test_matches_the_diameter_target(self, domain, level):
        want = refined(geometry.build_mesh(domain, diameter_target(domain)), level)
        assert_same_mesh(cli._mesh_at_level(domain, level, None), want)

    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(convex_polygons())
    def test_matches_the_diameter_target_on_convex_polygons(self, dom):
        assert_same_mesh(cli._mesh_at_level(dom, 0, None),
                         geometry.build_mesh(dom, diameter_target(dom)))

    def test_infinite_target_is_the_initial_mesh(self):
        mesh = geometry.build_mesh(geometry.unit_square(), math.inf)
        assert (mesh.num_nodes, mesh.num_elements) == (4, 2)
        assert geometry.build_mesh(geometry.interval(0.0, 2.0), math.inf).num_elements == 1


class TestNodeBudget:
    @pytest.mark.parametrize("make", [square_mesh, triangle_mesh, disk_mesh,
                                      lambda level: interval_mesh(3)])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_prediction_is_the_refined_node_count(self, make, levels, monkeypatch):
        mesh = make(0)
        nodes = refined(mesh, levels).num_nodes
        monkeypatch.setattr(geometry, "_MAX_NODES", nodes)
        geometry.check_refinement(mesh, levels)
        monkeypatch.setattr(geometry, "_MAX_NODES", nodes - 1)
        with pytest.raises(ArgumentError):
            geometry.check_refinement(mesh, levels)

    @pytest.mark.parametrize("domain", [geometry.unit_square(), geometry.interval(0.0, 1.0),
                                        geometry.disk((0.0, 0.0), 1.0, 16)],
                             ids=["square", "interval", "disk"])
    @pytest.mark.parametrize("target_h", [1e-300, 1e-9])
    def test_tiny_target_h_refused_before_refining(self, domain, target_h, monkeypatch):
        refine = geometry.refine
        sizes = []

        def counted(mesh):
            sizes.append(mesh.num_nodes)
            return refine(mesh)

        monkeypatch.setattr(geometry, "refine", counted)
        with pytest.raises(ArgumentError):
            geometry.build_mesh(domain, target_h)
        assert sizes == []

    def test_negative_levels_refused(self):
        with pytest.raises(ArgumentError):
            geometry.check_refinement(square_mesh(0), -1)

    def test_disk_segments_over_the_budget_refused(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_NODES", 101)
        geometry.disk((0.0, 0.0), 1.0, 100)
        with pytest.raises(ArgumentError):
            geometry.disk((0.0, 0.0), 1.0, 101)

    def test_budget_admits_the_benchmark_meshes(self):
        base = geometry.build_mesh(geometry.disk((0.0, 0.0), 1.0, 16), 2.0)
        geometry.check_refinement(base, 6)
        assert refined(base, 6).num_nodes * 30 <= geometry._MAX_NODES


class TestRefine:
    def test_interval_bisection(self):
        mesh = interval_mesh(2)
        fine = geometry.refine(mesh)
        assert fine.num_elements == 4
        assert fine.level == mesh.level + 1

    def test_triangle_count_quadruples(self):
        mesh = square_mesh(0)
        fine = geometry.refine(mesh)
        assert fine.num_elements == 4 * mesh.num_elements

    def test_disk_nodes_stay_on_circle(self):
        mesh = disk_mesh(0)
        for _ in range(3):
            mesh = geometry.refine(mesh)
            bn = geometry.boundary_nodes(mesh)
            radii = np.linalg.norm(mesh.nodes[bn], axis=1)
            assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_area_preserved_on_polygons(self):
        for mesh in (square_mesh(0), triangle_mesh(0)):
            a0 = geometry.area(mesh)
            a1 = geometry.area(geometry.refine(mesh))
            assert abs(a1 - a0) <= 1e-12 * abs(a0)

    def test_markers_inherited(self):
        mesh = square_mesh(0, gamma=geometry.gamma_sides(0))
        g0 = boundary_length(mesh, "gamma")
        fine = refined(mesh, 3)
        assert abs(boundary_length(fine, "gamma") - g0) < 1e-12

    def test_orientation_positive(self):
        mesh = refined(disk_mesh(0), 2)
        assert np.all(geometry.element_measures(mesh) > 0)

    def test_no_hanging_nodes(self):
        # each interior edge shared by exactly 2 elements, boundary edges by 1
        mesh = square_mesh(2)
        from collections import Counter
        count = Counter()
        for tri in mesh.elements:
            for i, j in ((0, 1), (1, 2), (2, 0)):
                count[tuple(sorted((tri[i], tri[j])))] += 1
        bset = {tuple(sorted(e)) for e in mesh.boundary.tolist()}
        for edge, c in count.items():
            assert c == (1 if edge in bset else 2)
        assert bset <= set(count)


def loop_refine_2d(mesh):
    """Red refinement by a Python loop over the elements: the reference the
    vectorised geometry._refine_2d must reproduce bit for bit."""
    elems = mesh.elements
    nv = mesh.num_nodes
    edges = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in edges:
            edges[key] = nv + len(edges)
        return edges[key]

    children = np.empty((4 * len(elems), 3), dtype=np.int64)
    for t, (v0, v1, v2) in enumerate(elems):
        m01 = midpoint(v0, v1)
        m12 = midpoint(v1, v2)
        m20 = midpoint(v2, v0)
        children[4 * t + 0] = (v0, m01, m20)
        children[4 * t + 1] = (v1, m12, m01)
        children[4 * t + 2] = (v2, m20, m12)
        children[4 * t + 3] = (m01, m12, m20)

    new_coords = np.empty((len(edges), 2))
    for (i, j), idx in edges.items():
        new_coords[idx - nv] = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
    nodes = np.vstack([mesh.nodes, new_coords])

    nb = len(mesh.boundary)
    new_bdry = np.empty((2 * nb, 2), dtype=np.int64)
    new_marks = np.empty(2 * nb, dtype=np.int64)
    for e, (v0, v1) in enumerate(mesh.boundary):
        m = midpoint(v0, v1)
        new_bdry[2 * e] = (v0, m)
        new_bdry[2 * e + 1] = (m, v1)
        new_marks[2 * e] = new_marks[2 * e + 1] = mesh.boundary_markers[e]

    if mesh.projection is not None:
        cx, cy, r = mesh.projection
        bnodes = np.unique(new_bdry)
        vec = nodes[bnodes] - (cx, cy)
        norm = np.hypot(vec[:, 0], vec[:, 1])
        nodes[bnodes] = (cx, cy) + vec * (r / norm)[:, None]

    return geometry._make_mesh(2, nodes, children, new_bdry, new_marks,
                               projection=mesh.projection)


L_SHAPE_SCALES = (1e-9, 1e-6, 1.0, 1e6)


def scaled_l_shape(scale):
    return geometry.polygon([(scale * x, scale * y) for x, y in L_SHAPE])


class TestRefineMatchesLoop:
    @pytest.mark.parametrize("base", [
        lambda: square_mesh(0, gamma=geometry.gamma_sides(0)),
        lambda: triangle_mesh(0),
        lambda: disk_mesh(0, gamma=geometry.gamma_arcs([(0.0, 2.0)])),
        lambda: geometry.build_mesh(geometry.polygon(L_SHAPE, gamma=geometry.gamma_sides(1, 3)), 0.9),
    ], ids=["square", "triangle", "disk", "l-shape"])
    def test_bit_identical_at_levels_1_to_4(self, base):
        mesh = base()
        for level in range(1, 5):
            fine, ref = geometry.refine(mesh), loop_refine_2d(mesh)
            for field in ("nodes", "elements", "boundary", "boundary_markers"):
                got, want = getattr(fine, field), getattr(ref, field)
                assert got.dtype == want.dtype, (level, field)
                np.testing.assert_array_equal(got, want, err_msg=f"level {level} {field}")
            assert (fine.level, fine.projection) == (mesh.level + 1, ref.projection)
            mesh = fine

    def test_boundary_edge_outside_elements_rejected(self):
        # (1, 3) crosses the square; the elements split it along (0, 2)
        broken = geometry._make_mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]],
                                     [[0, 1, 2], [0, 2, 3]], [[0, 1], [1, 3]], [0, 0])
        with pytest.raises(GeometryError):
            geometry.refine(broken)
        # assembling sigma along (1, 3) would integrate it over the diagonal
        with pytest.raises(GeometryError):
            robin.lowest_eigenvalue(broken, assembly.SigmaField.constant(1.0))


HIERARCHY = {
    "square": (geometry.unit_square(), None),
    "triangle": (geometry.polygon([(0, 0), (1, 0), (0, 1)]), None),
    "disk": (geometry.disk((0.0, 0.0), 1.0, 16, gamma=geometry.gamma_arcs([(0.0, 2.0)])), None),
    "l-shape": (geometry.polygon(L_SHAPE, gamma=geometry.gamma_sides(1, 3)), None),
    "interval": (geometry.interval(0.0, 1.0, gamma=geometry.gamma_sides(0)), None),
    "square-target-h": (geometry.unit_square(), 0.3),
}
HIERARCHY_LEVELS = 3


def reference_prolongation(coarse):
    """The P1 interpolation onto the refinement of coarse: the identity on
    the old nodes and the mean of its edge's two ends at each midpoint, the
    midpoints numbered as their edges first occur along the elements' sides
    (the elements themselves in 1D)."""
    if coarse.dim == 1:
        ends = coarse.elements
    else:
        sides = dict.fromkeys(tuple(sorted((int(t[i]), int(t[j]))))
                              for t in coarse.elements for i, j in ((0, 1), (1, 2), (2, 0)))
        ends = np.array(list(sides), dtype=np.int64)
    nv, ne = coarse.num_nodes, len(ends)
    rows = np.concatenate([np.arange(nv), nv + np.repeat(np.arange(ne), 2)])
    cols = np.concatenate([np.arange(nv), ends.ravel()])
    data = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return sp.csr_matrix((data, (rows, cols)), shape=(nv + ne, nv))


def hierarchy_levels(name):
    """The CLI's mesh at HIERARCHY_LEVELS and every mesh below it, finest first."""
    domain, target_h = HIERARCHY[name]
    meshes = [cli._mesh_at_level(domain, HIERARCHY_LEVELS, target_h)]
    while meshes[-1].coarse is not None:
        meshes.append(meshes[-1].coarse[0])
    return meshes


class TestHierarchy:
    @pytest.mark.parametrize("name", sorted(HIERARCHY))
    def test_walk_reaches_the_base_mesh(self, name):
        # through the base mesh of target_h, down to the unrefined one
        meshes = hierarchy_levels(name)
        domain, target_h = HIERARCHY[name]
        base = cli._mesh_at_level(domain, 0, target_h)
        assert len(meshes) == HIERARCHY_LEVELS + base.level + 1
        assert [m.level for m in meshes] == list(range(len(meshes) - 1, -1, -1))
        assert_same_mesh(meshes[HIERARCHY_LEVELS], base)
        assert_same_mesh(meshes[-1], geometry.build_mesh(domain, math.inf))

    @pytest.mark.parametrize("name", sorted(HIERARCHY))
    def test_each_level_is_the_refinement_of_the_one_below(self, name):
        for fine in hierarchy_levels(name)[:-1]:
            coarse = fine.coarse[0]
            again = geometry.refine(coarse)
            assert again.coarse[0] is coarse
            assert_same_mesh(fine, again)
            assert fine.projection == again.projection == coarse.projection

    @pytest.mark.parametrize("name", sorted(HIERARCHY))
    def test_prolongation_is_the_midpoint_interpolation(self, name):
        for fine in hierarchy_levels(name)[:-1]:
            coarse, p = fine.coarse
            want = reference_prolongation(coarse)
            assert p.shape == want.shape == (fine.num_nodes, coarse.num_nodes)
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(p, attr), getattr(want, attr), err_msg=attr)
                assert not getattr(p, attr).flags.writeable, attr
            with pytest.raises(ValueError):
                p.data[0] = 2.0

    @pytest.mark.parametrize("name", sorted(HIERARCHY))
    def test_only_built_meshes_keep_their_levels(self, name, tmp_path):
        domain, _ = HIERARCHY[name]
        built = geometry.build_mesh(domain, 0.3)
        levels = [built]
        while levels[-1].coarse is not None:
            levels.append(levels[-1].coarse[0])
        # a planar mesh is refined from the initial one inside build_mesh;
        # an interval is built directly
        assert (built.level > 0) == (domain.dim == 2)
        assert_same_mesh(levels[-1], geometry.build_mesh(domain, math.inf)
                         if domain.dim == 2 else built)
        for fine in levels[:-1]:
            assert_same_mesh(fine, geometry.refine(fine.coarse[0]))
        path = tmp_path / "mesh.txt"
        geometry.write_mesh(hierarchy_levels(name)[0], path)
        back = geometry.read_mesh(path)
        assert back.coarse is None and back.level == 0


class TestMeasures:
    def test_square_area_perimeter(self):
        mesh = square_mesh(2)
        assert abs(geometry.area(mesh) - 1.0) < 1e-12
        assert abs(boundary_length(mesh) - 4.0) < 1e-12

    def test_interval_counting_measure(self):
        mesh = interval_mesh(8)
        assert abs(geometry.area(mesh) - 1.0) < 1e-12
        assert boundary_length(mesh) == 2.0

    def test_right_triangle(self):
        mesh = triangle_mesh(1)
        assert abs(geometry.area(mesh) - 0.5) < 1e-12
        assert abs(boundary_length(mesh) - (2.0 + SQRT2)) < 1e-12


class TestInradius:
    def test_unit_square(self):
        assert abs(geometry.inradius(geometry.unit_square()) - 0.5) < 1e-9

    def test_unit_disk(self):
        assert geometry.inradius(geometry.disk((0, 0), 1.0, 16)) == 1.0

    def test_interval(self):
        assert geometry.inradius(geometry.interval(0, 1)) == 0.5

    def test_right_triangle_incircle(self):
        # oracle: r = area / semiperimeter = 1 / (2 + sqrt(2))
        dom = geometry.polygon([(0, 0), (1, 0), (0, 1)])
        assert abs(geometry.inradius(dom) - 0.2928932188134525) < 1e-9

    def test_nonconvex_rejected(self):
        # the convexity test is scale-free: the reflex corner is found at
        # every scale
        for scale in L_SHAPE_SCALES:
            with pytest.raises(UnsupportedDomainError):
                geometry.inradius(scaled_l_shape(scale))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_convexity_rule_is_translation_free(self, shift):
        # a reflex dent of depth 1e-7 in the top side is found wherever the
        # square lies, and translated convex polygons keep their inradius
        dent = [(0, 0), (1, 0), (1, 1), (0.5, 1 - 1e-7), (0, 1)]
        with pytest.raises(UnsupportedDomainError):
            geometry.inradius(geometry.polygon([(x + shift, y + shift) for x, y in dent]))
        for verts, radius in (([(0, 0), (1, 0), (1, 1), (0, 1)], 0.5),
                              ([(0, 0), (1, 0), (0, 1)], 1.0 / (2.0 + SQRT2)),
                              ([(0, 0), (1, 0), (1, 1), (0.5, 1), (0, 1)], 0.5)):
            moved = geometry.polygon([(x + shift, y + shift) for x, y in verts])
            assert abs(geometry.inradius(moved) - radius) <= 1e-9 * max(shift, 1.0)

    def test_center_realizes_radius(self):
        # the square with a vertex inside its top side has two sides with one
        # normal, so some triples of sides have no equidistant point
        for dom in (geometry.unit_square(),
                    geometry.rectangle(2, 1),
                    geometry.polygon([(0, 0), (1, 0), (0, 1)]),
                    geometry.polygon([(0, 0), (1, 0), (1, 1), (0.5, 1), (0, 1)]),
                    PENTAGON):
            assert_center_realizes_radius(dom, grid_n=100)

    def test_gauss_volume_estimate(self):
        # |Omega| >= |bdry| * inradius / 2 for convex planar domains
        for dom in (geometry.unit_square(),
                    geometry.rectangle(2, 1),
                    geometry.polygon([(0, 0), (1, 0), (0, 1)]),
                    geometry.polygon([(0, 0), (2, 0), (3, 1.5), (1, 2.5), (-0.5, 1)])):
            mesh = geometry.build_mesh(dom, 0.5)
            r = geometry.inradius(dom)
            assert geometry.area(mesh) >= boundary_length(mesh) * r / 2.0 - 1e-12


def segment_distances(mesh, points):
    """Distance from each point to the nearest boundary segment, by a search
    over all (point, segment) pairs: the reference the half-plane distances
    of geometry.distances_to_boundary must reproduce on convex domains."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p0 = mesh.nodes[mesh.boundary[:, 0]]
    seg = mesh.nodes[mesh.boundary[:, 1]] - p0
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    diff = pts[:, None, :] - p0[None, :, :]
    t = np.clip(np.einsum("pbj,bj->pb", diff, seg) / seg_len2[None, :], 0.0, 1.0)
    proj = p0[None, :, :] + t[:, :, None] * seg[None, :, :]
    return np.min(np.linalg.norm(pts[:, None, :] - proj, axis=2), axis=1)


def points_inside(mesh, points):
    """Which points lie in some element of a planar mesh (barycentric test
    with a 1e-12 margin), independent of the boundary's half-planes."""
    p = mesh.nodes[mesh.elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = np.asarray(points, dtype=float)[:, None, :] - p[None, :, 0]
    u = (rel[..., 0] * d2[:, 1] - rel[..., 1] * d2[:, 0]) / det
    v = (d1[:, 0] * rel[..., 1] - d1[:, 1] * rel[..., 0]) / det
    eps = 1e-12
    return np.any((u >= -eps) & (v >= -eps) & (u + v <= 1 + eps), axis=1)


def assert_center_realizes_radius(dom, grid_n, scale=1.0):
    """The Chebyshev center lies at distance r from the boundary, and no
    inside point of a grid_n x grid_n grid lies farther; lengths and
    tolerances are in units of `scale`."""
    center, r = geometry.chebyshev_center(dom)
    mesh = geometry.build_mesh(dom, 0.5 * scale)
    assert abs(geometry.distances_to_boundary(mesh, center)[0] - r) < 1e-10 * scale
    verts = np.array(dom.vertices)
    xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), grid_n)
    ys = np.linspace(verts[:, 1].min(), verts[:, 1].max(), grid_n)
    grid = np.array([(x, y) for x in xs for y in ys])
    inside = grid[points_inside(mesh, grid)]
    assert geometry.distances_to_boundary(mesh, inside).max() <= r + 1e-10 * scale


def quadrature_points(mesh):
    return assembly.quadrature_rule(mesh)[0]


def diameter(mesh):
    b = mesh.nodes[np.unique(mesh.boundary)]
    return float(np.max(np.linalg.norm(b[:, None, :] - b[None, :, :], axis=2)))


PENTAGON = geometry.polygon([(0, 0), (2, 0), (3, 1.5), (1, 2.5), (-0.5, 1)])


class TestDistance:
    def test_square_center(self):
        mesh = square_mesh(2)
        assert abs(geometry.distances_to_boundary(mesh, (0.5, 0.5))[0] - 0.5) < 1e-14

    def test_square_offcenter(self):
        mesh = square_mesh(2)
        assert abs(geometry.distances_to_boundary(mesh, (0.25, 0.5))[0] - 0.25) < 1e-14

    def test_interval_point(self):
        mesh = interval_mesh(10)
        assert abs(geometry.distances_to_boundary(mesh, (0.3,))[0] - 0.3) < 1e-14

    def test_outside_point_clipped_to_zero(self):
        mesh = square_mesh(1)
        assert not points_inside(mesh, [(2.0, 2.0)])[0]
        assert geometry.distances_to_boundary(mesh, (2.0, 2.0))[0] == 0.0

    @pytest.mark.parametrize("mesh", [
        lambda: triangle_mesh(4),
        lambda: disk_mesh(1),
        lambda: refined(geometry.build_mesh(PENTAGON, 0.5), 1),
    ], ids=["triangle", "disk", "pentagon"])
    def test_matches_segment_search(self, mesh):
        mesh = mesh()
        pts = quadrature_points(mesh)
        got = geometry.distances_to_boundary(mesh, pts)
        np.testing.assert_allclose(got, segment_distances(mesh, pts),
                                   rtol=0, atol=1e-15 * diameter(mesh))

    def test_square_bit_identical_to_segment_search(self):
        mesh = square_mesh(4)
        pts = quadrature_points(mesh)
        np.testing.assert_array_equal(geometry.distances_to_boundary(mesh, pts),
                                      segment_distances(mesh, pts))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_size_does_not_change_distances(self, block, monkeypatch):
        mesh = disk_mesh(1)  # 128 boundary edges
        pts = quadrature_points(mesh)
        want = geometry.distances_to_boundary(mesh, pts)
        monkeypatch.setattr(geometry, "_SIDE_BLOCK", block)
        np.testing.assert_array_equal(geometry.distances_to_boundary(mesh, pts), want)

    def test_memory_bounded_by_points_times_block(self):
        mesh = disk_mesh(2)  # 256 boundary edges
        pts = quadrature_points(mesh)
        assert len(mesh.boundary) >= 4 * geometry._SIDE_BLOCK
        tracemalloc.start()
        try:
            geometry.distances_to_boundary(mesh, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = len(pts) * geometry._SIDE_BLOCK * 8
        assert peak <= 3 * block_bytes

    @pytest.mark.parametrize("mesh, sides", [
        (lambda: square_mesh(6), 4),
        (lambda: triangle_mesh(5), 3),
        (lambda: refined(geometry.build_mesh(PENTAGON, 0.5), 3), 5),
        (lambda: disk_mesh(2), 256),
    ], ids=["square", "triangle", "pentagon", "disk"])
    def test_one_half_plane_per_side(self, mesh, sides, monkeypatch):
        mesh = mesh()
        measured = []
        margins = geometry._margins

        def recording(normals, offsets, x):
            measured.append(len(offsets))
            return margins(normals, offsets, x)

        monkeypatch.setattr(geometry, "_margins", recording)
        geometry.distances_to_boundary(mesh, quadrature_points(mesh))
        assert measured[-1] == sides

    def test_memory_does_not_grow_with_points(self):
        mesh = disk_mesh(2)  # 256 boundary edges, every one its own side
        base = quadrature_points(mesh)
        peaks = []
        for copies in (2, 16):
            pts = np.tile(base, (copies, 1))
            tracemalloc.start()
            try:
                geometry.distances_to_boundary(mesh, pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the result and its clipped copy are the only per-point arrays
            peaks.append(peak - 2 * 8 * len(pts))
        buffers = 2 * geometry._POINT_BLOCK * geometry._SIDE_BLOCK * 8
        assert max(peaks) <= buffers + 2 ** 20
        assert peaks[1] <= peaks[0] + 2 ** 20

    def test_nonconvex_rejected(self):
        for scale in L_SHAPE_SCALES:
            mesh = geometry.build_mesh(scaled_l_shape(scale), 0.5 * scale)
            with pytest.raises(UnsupportedDomainError):
                geometry.distances_to_boundary(mesh, quadrature_points(mesh))

    def test_clockwise_boundary_rejected(self):
        mesh = square_mesh(1)
        flipped = geometry._make_mesh(2, mesh.nodes, mesh.elements,
                                      mesh.boundary[:, ::-1], mesh.boundary_markers)
        with pytest.raises(UnsupportedDomainError):
            geometry.distances_to_boundary(flipped, [(0.5, 0.5)])

    @pytest.mark.parametrize("args", [
        ["hardy", "--sigma", "1", "--alpha", "0.5"],
        ["bounds", "--m", "1", "--sigma", "1"],
    ], ids=["hardy", "inradius"])
    def test_nonconvex_cli_exit_3(self, args, capsys):
        vertices = ";".join(f"{x},{y}" for x, y in L_SHAPE)
        code = cli.main(args + ["--domain", "polygon", "--vertices", vertices,
                                "--levels", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err)["error"] == "UnsupportedDomainError"


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(convex_polygons())
def test_random_convex_polygons(dom):
    mesh = refined(geometry.build_mesh(dom, 0.5), 1)
    pts = quadrature_points(mesh)
    np.testing.assert_allclose(geometry.distances_to_boundary(mesh, pts),
                               segment_distances(mesh, pts),
                               rtol=0, atol=1e-15 * diameter(mesh))
    assert_center_realizes_radius(dom, grid_n=30)
    r = geometry.inradius(dom)
    for scale in (1e-9, 1e-6, 1e6):
        scaled = geometry.polygon((scale * np.array(dom.vertices)).tolist())
        assert abs(geometry.inradius(scaled) - scale * r) <= 1e-13 * scale * r
        assert_center_realizes_radius(scaled, grid_n=30, scale=scale)
    reports = bounds.hardy_reports(mesh, [(1.0, 0.25), (1.0, 0.5), (4.0, 0.125)],
                                   trials=5)
    assert all(rep.violations == 0 for rep in reports)


def mesh_text(mesh, tmp_path):
    path = tmp_path / "mesh.txt"
    geometry.write_mesh(mesh, path)
    return path.read_text()


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        mesh = square_mesh(1, gamma=geometry.gamma_sides(0, 2))
        path = tmp_path / "mesh.txt"
        geometry.write_mesh(mesh, path)
        back = geometry.read_mesh(path)
        assert back.dim == mesh.dim
        np.testing.assert_array_equal(back.elements, mesh.elements)
        np.testing.assert_array_equal(back.boundary_markers, mesh.boundary_markers)
        np.testing.assert_allclose(back.nodes, mesh.nodes, rtol=0, atol=0)

    def test_header_and_1d_round_trip(self, tmp_path):
        mesh = interval_mesh(4, gamma=geometry.gamma_sides(1))
        path = tmp_path / "mesh1d.txt"
        geometry.write_mesh(mesh, path)
        first = path.read_text().splitlines()[0]
        assert first == "robinspec-mesh v1 1"
        back = geometry.read_mesh(path)
        assert back.dim == 1
        np.testing.assert_array_equal(back.boundary, mesh.boundary)
        np.testing.assert_array_equal(back.boundary_markers, mesh.boundary_markers)
        np.testing.assert_allclose(back.nodes, mesh.nodes, rtol=0, atol=0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n1 1 1\n")
        with pytest.raises(ArgumentError):
            geometry.read_mesh(path)

    @pytest.mark.parametrize("edit", [
        lambda lines: [],
        lambda lines: lines[:1],
        lambda lines: lines[:-1],
        lambda lines: [lines[0].rsplit(" ", 1)[0]] + lines[1:],
        lambda lines: [lines[0], "3 x 4"] + lines[2:],
        lambda lines: lines[:2] + ["0.5 abc"] + lines[3:],
        lambda lines: lines[:2] + ["0.5 nan"] + lines[3:],
        lambda lines: lines[:2] + ["0.5"] + lines[3:],
        lambda lines: lines[:-1] + [lines[-1] + " 7"],
        lambda lines: lines[:-1] + ["0 99 1"],
        lambda lines: lines[:-1] + ["0 -1 1"],
        lambda lines: [lines[0].replace("v1 2", "v1 3")] + lines[1:],
        lambda lines: [lines[0].replace("v1 2", "v1 1")] + lines[1:],
    ], ids=["empty", "header-only", "last-line-cut", "no-dim", "count-text",
            "coordinate-text", "coordinate-nan", "short-row", "long-row",
            "index-too-large", "index-negative", "dim-3", "dim-mismatch"])
    def test_malformed_file_rejected(self, edit, tmp_path):
        lines = mesh_text(square_mesh(0), tmp_path).splitlines()
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(edit(lines)))
        with pytest.raises(ArgumentError):
            geometry.read_mesh(path)

    @pytest.mark.parametrize("mesh", [
        # (1, 3) crosses the square, which the elements split along (0, 2)
        lambda: geometry._make_mesh(2, SQUARE_NODES, SQUARE_ELEMENTS, [[0, 1], [1, 3]], [0, 0]),
        # (0, 2) is a side of both elements
        lambda: geometry._make_mesh(2, SQUARE_NODES, SQUARE_ELEMENTS, [[0, 1], [0, 2]], [0, 0]),
        lambda: geometry._make_mesh(1, [[0.0], [0.5], [1.0]], [[0, 1], [1, 2]], [[0], [1]],
                                    [1, 1]),
        # the last facet twice, which would double sigma on it
        lambda: geometry._make_mesh(2, SQUARE_NODES, SQUARE_ELEMENTS,
                                    [[0, 1], [1, 2], [2, 3], [3, 0], [0, 3]], [1, 1, 1, 1, 1]),
        lambda: geometry._make_mesh(1, [[0.0], [1.0]], [[0, 1]], [[0], [1], [1]], [1, 1, 1]),
    ], ids=["not-a-side", "interior-side", "interior-node", "repeated-edge", "repeated-node"])
    def test_facet_not_a_side_of_one_element_or_repeated_rejected(self, mesh, tmp_path):
        path = tmp_path / "bad.txt"
        geometry.write_mesh(mesh(), path)
        with pytest.raises(ArgumentError, match="boundary facet is"):
            geometry.read_mesh(path)


SQUARE_NODES = [[0, 0], [1, 0], [1, 1], [0, 1]]
SQUARE_ELEMENTS = [[0, 1, 2], [0, 2, 3]]


@st.composite
def random_meshes(draw):
    """An interval, rectangle, disk or random convex polygon mesh with a
    random gamma selector, refined 0-2 times."""
    kind = draw(st.sampled_from(["interval", "rect", "disk", "polygon"]))
    size = st.floats(1e-3, 1e3)
    coord = st.floats(-1e3, 1e3)
    if kind == "interval":
        a = draw(coord)
        length = draw(size)
        dom = geometry.interval(a, a + length,
                                gamma=geometry.gamma_sides(*draw(st.sets(st.integers(0, 1)))))
        return geometry.build_mesh(dom, length / draw(st.integers(1, 20)))
    if kind == "rect":
        dom = geometry.rectangle(draw(size), draw(size),
                                 gamma=geometry.gamma_sides(*draw(st.sets(st.integers(0, 3)))))
    elif kind == "disk":
        arc = (draw(st.floats(0.0, 6.0)), draw(st.floats(0.0, 6.0)))
        dom = geometry.disk((draw(coord), draw(coord)), draw(size), draw(st.integers(8, 24)),
                            gamma=geometry.gamma_arcs([arc]))
    else:
        dom = draw(convex_polygons())
    return refined(geometry.build_mesh(dom, 1e4), draw(st.integers(0, 2)))


MESH_FILE_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None,
                              suppress_health_check=[HealthCheck.filter_too_much])


@MESH_FILE_SETTINGS
@given(random_meshes())
def test_mesh_file_round_trip_bit_identical(tmp_path_factory, mesh):
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    geometry.write_mesh(mesh, path)
    back = geometry.read_mesh(path)
    assert back.dim == mesh.dim
    for field in ("nodes", "elements", "boundary", "boundary_markers"):
        got, want = getattr(back, field), getattr(mesh, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


@MESH_FILE_SETTINGS
@given(random_meshes(), st.data())
def test_truncated_mesh_file_rejected(tmp_path_factory, mesh, data):
    """Every proper prefix of a mesh file's lines, the empty file included,
    is an ArgumentError."""
    lines = mesh_text(mesh, tmp_path_factory.mktemp("mesh")).splitlines(keepends=True)
    keep = data.draw(st.integers(0, len(lines) - 1))
    path = tmp_path_factory.mktemp("cut") / "mesh.txt"
    path.write_text("".join(lines[:keep]))
    with pytest.raises(ArgumentError):
        geometry.read_mesh(path)


def walk_gamma_arclength(mesh):
    """The planar gamma walk as `geometry.gamma_arclength` first wrote it,
    deduplicating by a scan of the ordered list: the oracle of its output."""
    marked = mesh.boundary[mesh.boundary_markers == geometry.GAMMA]
    if len(marked) == 0:
        return np.array([], dtype=np.int64), np.array([])
    adj = {}
    for v0, v1 in marked:
        adj.setdefault(int(v0), []).append(int(v1))
        adj.setdefault(int(v1), []).append(int(v0))
    unvisited = {tuple(sorted(e)) for e in marked.tolist()}
    chains = []
    while unvisited:
        endpoints = sorted(v for v, nb in adj.items()
                           if sum(tuple(sorted((v, w))) in unvisited for w in nb) == 1)
        start = endpoints[0] if endpoints else min(v for e in unvisited for v in e)
        chain = [start]
        cur = start
        while True:
            nxt = None
            for w in adj[cur]:
                if tuple(sorted((cur, w))) in unvisited:
                    nxt = w
                    break
            if nxt is None:
                break
            unvisited.discard(tuple(sorted((cur, nxt))))
            chain.append(nxt)
            cur = nxt
        chains.append(chain)
    chains.sort(key=lambda c: min(c))
    ordered = []
    for c in chains:
        ordered.extend(v for v in c if v not in ordered)
    ordered = np.array(ordered, dtype=np.int64)
    steps = np.linalg.norm(np.diff(mesh.nodes[ordered], axis=0), axis=1)
    return ordered, np.concatenate([[0.0], np.cumsum(steps)])


def assert_arclength_matches_walk(mesh):
    nodes, s = geometry.gamma_arclength(mesh)
    want_nodes, want_s = walk_gamma_arclength(mesh)
    assert nodes.dtype == want_nodes.dtype
    np.testing.assert_array_equal(nodes, want_nodes)
    np.testing.assert_array_equal(s, want_s)


class TestGammaArclength:
    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(convex_polygons(), st.data())
    def test_random_side_subsets_match_the_walk(self, dom, data):
        sides = data.draw(st.sets(st.integers(0, len(dom.vertices) - 1)))
        dom = geometry.polygon(dom.vertices, gamma=geometry.gamma_sides(*sides))
        assert_arclength_matches_walk(refined(geometry.build_mesh(dom, 0.5), 1))

    @pytest.mark.parametrize("arcs", [[(0.0, 3.14159)], [(5.0, 1.0)], [(0.5, 1.5), (3.0, 4.0)],
                                      [(0.0, 6.3)]],
                             ids=["half", "wrapping", "two-arcs", "whole-circle"])
    def test_disk_arcs_match_the_walk(self, arcs):
        assert_arclength_matches_walk(disk_mesh(3, gamma=geometry.gamma_arcs(arcs)))

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_mesh_file_matches_the_walk(self, seed, tmp_path):
        mesh = square_mesh(3, gamma=geometry.gamma_sides(0, 1, 3))
        lines = mesh_text(mesh, tmp_path).splitlines()
        first = 2 + mesh.num_nodes + mesh.num_elements
        rows = lines[first:]
        rng = np.random.default_rng(seed)
        rows = [rows[i] for i in rng.permutation(len(rows))]
        path = tmp_path / "shuffled.txt"
        path.write_text("\n".join(lines[:first] + rows) + "\n")
        back = geometry.read_mesh(path)
        assert not np.array_equal(back.boundary, mesh.boundary)
        assert_arclength_matches_walk(back)

    @pytest.mark.parametrize("sides", [(0, 2), (0, 1, 2, 3)], ids=["open", "closed"])
    def test_repeated_edges_match_the_walk(self, sides):
        # a boundary that lists some gamma edges twice, once reversed, counts
        # each repeat in the degrees that find the chain endpoints
        mesh = square_mesh(2, gamma=geometry.gamma_sides(*sides))
        gamma = np.flatnonzero(mesh.boundary_markers == geometry.GAMMA)[::3]
        boundary = np.vstack([mesh.boundary, mesh.boundary[gamma, ::-1]])
        markers = np.concatenate([mesh.boundary_markers, mesh.boundary_markers[gamma]])
        assert_arclength_matches_walk(geometry.Mesh(mesh.dim, mesh.nodes, mesh.elements,
                                                    boundary, markers))
