import math

import numpy as np
import pytest

from robinspec import geometry
from robinspec.errors import ArgumentError, GeometryError, UnsupportedDomainError

from conftest import disk_mesh, interval_mesh, refined, square_mesh, triangle_mesh

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

    def test_non_simple_polygon_rejected(self):
        with pytest.raises(GeometryError):
            geometry.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_clockwise_polygon_rejected(self):
        with pytest.raises(GeometryError):
            geometry.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_interval_needs_a_lt_b(self):
        with pytest.raises(GeometryError):
            geometry.interval(1.0, 0.0)

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
        assert abs(geometry.boundary_length(mesh, "gamma") - 1.0) < 1e-12

    def test_gamma_arc_on_disk(self):
        dom = geometry.disk((0, 0), 1.0, 32, gamma=geometry.gamma_arcs([(0.0, math.pi)]))
        mesh = geometry.build_mesh(dom, 0.5)
        frac = geometry.boundary_length(mesh, "gamma") / geometry.boundary_length(mesh)
        assert abs(frac - 0.5) < 0.1


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
        g0 = geometry.boundary_length(mesh, "gamma")
        fine = refined(mesh, 3)
        assert abs(geometry.boundary_length(fine, "gamma") - g0) < 1e-12

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
                               level=mesh.level + 1, projection=mesh.projection)


L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


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
            assert (fine.level, fine.projection) == (ref.level, ref.projection)
            mesh = fine

    def test_boundary_edge_outside_elements_rejected(self):
        # (1, 3) crosses the square; the elements split it along (0, 2)
        broken = geometry._make_mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]],
                                     [[0, 1, 2], [0, 2, 3]], [[0, 1], [1, 3]], [0, 0])
        with pytest.raises(GeometryError):
            geometry.refine(broken)


class TestMeasures:
    def test_square_area_perimeter(self):
        mesh = square_mesh(2)
        assert abs(geometry.area(mesh) - 1.0) < 1e-12
        assert abs(geometry.boundary_length(mesh) - 4.0) < 1e-12

    def test_interval_counting_measure(self):
        mesh = interval_mesh(8)
        assert abs(geometry.area(mesh) - 1.0) < 1e-12
        assert geometry.boundary_length(mesh) == 2.0

    def test_right_triangle(self):
        mesh = triangle_mesh(1)
        assert abs(geometry.area(mesh) - 0.5) < 1e-12
        assert abs(geometry.boundary_length(mesh) - (2.0 + SQRT2)) < 1e-12


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
        lshape = geometry.polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        with pytest.raises(UnsupportedDomainError):
            geometry.inradius(lshape)

    def test_center_realizes_radius(self):
        for dom in (geometry.unit_square(),
                    geometry.rectangle(2, 1),
                    geometry.polygon([(0, 0), (1, 0), (0, 1)]),
                    geometry.polygon([(0, 0), (2, 0), (3, 1.5), (1, 2.5), (-0.5, 1)])):
            center, r = geometry.chebyshev_center(dom)
            mesh = geometry.build_mesh(dom, 0.5)
            assert abs(geometry.dist_to_boundary(mesh, center) - r) < 1e-10
            # no grid point does better
            verts = np.array(dom.vertices)
            xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), 100)
            ys = np.linspace(verts[:, 1].min(), verts[:, 1].max(), 100)
            grid = np.array([(x, y) for x in xs for y in ys])
            inside = [p for p in grid if geometry._point_inside(mesh, p)]
            dmax = geometry.distances_to_boundary(mesh, np.array(inside)).max()
            assert dmax <= r + 1e-10

    def test_gauss_volume_estimate(self):
        # |Omega| >= |bdry| * inradius / 2 for convex planar domains
        for dom in (geometry.unit_square(),
                    geometry.rectangle(2, 1),
                    geometry.polygon([(0, 0), (1, 0), (0, 1)]),
                    geometry.polygon([(0, 0), (2, 0), (3, 1.5), (1, 2.5), (-0.5, 1)])):
            mesh = geometry.build_mesh(dom, 0.5)
            r = geometry.inradius(dom)
            assert geometry.area(mesh) >= geometry.boundary_length(mesh) * r / 2.0 - 1e-12


class TestDistance:
    def test_square_center(self):
        mesh = square_mesh(2)
        assert abs(geometry.dist_to_boundary(mesh, (0.5, 0.5)) - 0.5) < 1e-14

    def test_square_offcenter(self):
        mesh = square_mesh(2)
        assert abs(geometry.dist_to_boundary(mesh, (0.25, 0.5)) - 0.25) < 1e-14

    def test_interval_point(self):
        mesh = interval_mesh(10)
        assert abs(geometry.dist_to_boundary(mesh, (0.3,)) - 0.3) < 1e-14

    def test_outside_raises(self):
        mesh = square_mesh(1)
        with pytest.raises(ArgumentError):
            geometry.dist_to_boundary(mesh, (2.0, 2.0))


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
