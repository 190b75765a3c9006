"""Domain descriptions, mesh generation/refinement, and geometric functionals.

Supported domains are intervals, simple planar polygons (counterclockwise),
and disks approximated by inscribed polygons whose boundary nodes sit on the
circle.  A subset of the boundary (gamma) is selected at build time and
tracked through refinement via per-edge markers.  The inradius and the
distance to the boundary are defined for convex domains only.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, GeometryError, UnsupportedDomainError

GAMMA = 1
NOT_GAMMA = 0

# Largest mesh, in nodes, that build_mesh and check_refinement admit: 30x
# the largest benchmark mesh (disk level 6, 33,281 nodes).  Refining is
# refused before it starts, so an oversized request ends as an ArgumentError
# instead of a process killed for memory.
_MAX_NODES = 1_000_000
# boundary sides per block in _margins
_SIDE_BLOCK = 64
# triples of sides per block in chebyshev_center
_TRIPLE_BLOCK = 1024


# ---------------------------------------------------------------------------
# Boundary-subset selectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSelect:
    """Which part of the boundary carries the gamma marker.

    kind is one of ``all``, ``none``, ``sides`` (polygon side / interval
    endpoint indices) or ``arcs`` (angular ranges on a disk, radians).
    """

    kind: str = "all"
    sides: frozenset = frozenset()
    arcs: tuple = ()


def gamma_all() -> GammaSelect:
    return GammaSelect("all")


def gamma_none() -> GammaSelect:
    return GammaSelect("none")


def gamma_sides(*indices: int) -> GammaSelect:
    return GammaSelect("sides", sides=frozenset(int(i) for i in indices))


def gamma_arcs(ranges: Sequence[Tuple[float, float]]) -> GammaSelect:
    return GammaSelect("arcs", arcs=tuple((float(a), float(b)) for a, b in ranges))


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Description of an interval, polygon, or disk with a gamma selector."""

    kind: str
    a: float = 0.0
    b: float = 1.0
    vertices: tuple = ()
    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    segments: int = 16
    gamma: GammaSelect = field(default_factory=gamma_all)

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2


def interval(a: float, b: float, gamma: Optional[GammaSelect] = None) -> DomainSpec:
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise GeometryError(f"interval needs finite a < b, got ({a}, {b})")
    return DomainSpec("interval", a=float(a), b=float(b), gamma=gamma or gamma_all())


def polygon(vertices: Sequence[Sequence[float]], gamma: Optional[GammaSelect] = None) -> DomainSpec:
    verts = tuple((float(x), float(y)) for x, y in vertices)
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if not all(math.isfinite(c) for v in verts for c in v):
        raise GeometryError("polygon vertices must be finite")
    if _signed_area(verts) <= 0.0:
        raise GeometryError("polygon vertices must be counterclockwise")
    if not _is_simple(verts):
        raise GeometryError("polygon is self-intersecting")
    return DomainSpec("polygon", vertices=verts, gamma=gamma or gamma_all())


def disk(center: Sequence[float], radius: float, segments: int = 16,
         gamma: Optional[GammaSelect] = None) -> DomainSpec:
    if not (math.isfinite(radius) and radius > 0 and all(map(math.isfinite, center))):
        raise GeometryError("disk needs a finite center and a finite positive radius")
    if segments < 8:
        raise GeometryError("disk needs at least 8 boundary segments")
    if segments + 1 > _MAX_NODES:
        raise ArgumentError(
            f"{segments} boundary segments exceed the budget of {_MAX_NODES} nodes")
    return DomainSpec("disk", center=(float(center[0]), float(center[1])),
                      radius=float(radius), segments=int(segments),
                      gamma=gamma or gamma_all())


def unit_square(gamma: Optional[GammaSelect] = None) -> DomainSpec:
    return polygon([(0, 0), (1, 0), (1, 1), (0, 1)], gamma=gamma)


def rectangle(width: float, height: float, gamma: Optional[GammaSelect] = None) -> DomainSpec:
    return polygon([(0, 0), (width, 0), (width, height), (0, height)], gamma=gamma)


def _signed_area(verts) -> float:
    s = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _orient(a, b, c) -> float:
    """Twice the signed area of the triangle abc: positive when ccw."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p, q, r, s) -> bool:
    """Proper intersection test for open segments pq and rs."""
    d1 = _orient(r, s, p)
    d2 = _orient(r, s, q)
    d3 = _orient(p, q, r)
    d4 = _orient(p, q, s)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _is_simple(verts) -> bool:
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) in (0, 1) or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(verts[i], verts[(i + 1) % n],
                                   verts[j], verts[(j + 1) % n]):
                return False
    return True


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming simplex mesh with marked boundary.

    nodes: (Nv, dim) float coordinates.
    elements: (Ne, dim+1) int vertex indices, positively oriented in 2D.
    boundary: (Nb, dim) int — node pairs in 2D, singletons in 1D.
    boundary_markers: (Nb,) int, 1 on the gamma subset, 0 elsewhere.
    projection: optional circle (cx, cy, r) onto which boundary nodes are
        snapped after refinement (disk domains only).
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray
    boundary_markers: np.ndarray
    level: int = 0
    projection: Optional[tuple] = None

    def __post_init__(self):
        for arr in (self.nodes, self.elements, self.boundary, self.boundary_markers):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, nodes={self.num_nodes}, "
                f"elements={self.num_elements}, level={self.level})")


def _make_mesh(dim, nodes, elements, boundary, markers, level=0, projection=None) -> Mesh:
    return Mesh(dim,
                np.ascontiguousarray(nodes, dtype=float),
                np.ascontiguousarray(elements, dtype=np.int64),
                np.ascontiguousarray(boundary, dtype=np.int64),
                np.ascontiguousarray(markers, dtype=np.int64),
                level=level, projection=projection)


def build_mesh(domain: DomainSpec, target_h: float) -> Mesh:
    """Build a conforming mesh with max element diameter <= target_h.

    An infinite target_h gives the initial mesh: one element for an
    interval, the ear-clipped polygon, or the disk's fan of triangles.
    Disks are meshed as inscribed polygons with all boundary nodes on the
    circle; refining a disk mesh keeps projecting new boundary nodes.
    """
    if not target_h > 0:
        raise ArgumentError(f"target_h must be positive, got {target_h}")
    if domain.kind == "interval":
        return _build_interval(domain, target_h)
    if domain.kind == "polygon":
        mesh = _initial_polygon_mesh(domain)
    elif domain.kind == "disk":
        mesh = _initial_disk_mesh(domain)
    else:
        raise GeometryError(f"unknown domain kind {domain.kind!r}")
    # a level at most halves the largest diameter, so at least this many
    # levels are needed; every level adds nodes, so the budget ends the loop
    halvings = math.log2(max(max_element_diameter(mesh) / target_h, 1.0))
    check_refinement(mesh, int(min(halvings, 64.0)))
    while max_element_diameter(mesh) > target_h:
        check_refinement(mesh, 1)
        mesh = refine(mesh)
    return _make_mesh(mesh.dim, mesh.nodes, mesh.elements, mesh.boundary,
                      mesh.boundary_markers, level=0, projection=mesh.projection)


def _build_interval(domain: DomainSpec, target_h: float) -> Mesh:
    a, b = domain.a, domain.b
    count = (b - a) / target_h - 1e-12
    if count + 1 > _MAX_NODES:
        raise ArgumentError(
            f"target_h {target_h} needs about {count:.3g} elements, "
            f"above the budget of {_MAX_NODES} nodes")
    n = max(1, int(math.ceil(count)))
    nodes = np.linspace(a, b, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    boundary = np.array([[0], [n]])
    markers = _side_markers(domain, 2)
    return _make_mesh(1, nodes, elements, boundary, markers)


def _side_markers(domain: DomainSpec, n_sides: int) -> np.ndarray:
    sel = domain.gamma
    if sel.kind == "all":
        return np.full(n_sides, GAMMA)
    if sel.kind == "none":
        return np.full(n_sides, NOT_GAMMA)
    if sel.kind == "sides":
        bad = [i for i in sel.sides if not 0 <= i < n_sides]
        if bad:
            raise ArgumentError(f"gamma side indices out of range: {bad}")
        return np.array([GAMMA if i in sel.sides else NOT_GAMMA for i in range(n_sides)])
    raise ArgumentError(f"selector kind {sel.kind!r} not valid for this domain")


def _arc_markers(domain: DomainSpec, thetas_mid: np.ndarray) -> np.ndarray:
    sel = domain.gamma
    if sel.kind == "all":
        return np.full(len(thetas_mid), GAMMA)
    if sel.kind == "none":
        return np.full(len(thetas_mid), NOT_GAMMA)
    if sel.kind != "arcs":
        raise ArgumentError("disk gamma selector must be all/none/arcs")
    two_pi = 2.0 * math.pi
    t = np.mod(thetas_mid, two_pi)
    markers = np.zeros(len(t), dtype=np.int64)
    for lo, hi in sel.arcs:
        lo, hi = lo % two_pi, hi % two_pi
        if lo <= hi:
            markers |= (t >= lo) & (t <= hi)
        else:  # wrap-around arc
            markers |= (t >= lo) | (t <= hi)
    return markers


def _initial_polygon_mesh(domain: DomainSpec) -> Mesh:
    verts = np.array(domain.vertices, dtype=float)
    n = len(verts)
    tris = _ear_clip(verts)
    boundary = np.array([[i, (i + 1) % n] for i in range(n)])
    markers = _side_markers(domain, n)
    return _make_mesh(2, verts, np.array(tris), boundary, markers)


def _initial_disk_mesh(domain: DomainSpec) -> Mesh:
    cx, cy = domain.center
    r, n = domain.radius, domain.segments
    theta = 2.0 * math.pi * np.arange(n) / n
    ring = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
    nodes = np.vstack([[[cx, cy]], ring])
    elements = np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)])
    boundary = np.array([[1 + i, 1 + (i + 1) % n] for i in range(n)])
    theta_mid = theta + math.pi / n
    markers = _arc_markers(domain, theta_mid)
    return _make_mesh(2, nodes, elements, boundary, markers,
                      projection=(cx, cy, r))


def _point_in_triangle(p, a, b, c, eps) -> bool:
    return (_orient(a, b, p) > eps and _orient(b, c, p) > eps and _orient(c, a, p) > eps)


def _ear_clip(verts: np.ndarray):
    """Triangulate a simple ccw polygon by ear clipping."""
    n = len(verts)
    scale = float(np.max(np.abs(verts))) or 1.0
    eps = 1e-14 * scale * scale
    idx = list(range(n))
    tris = []
    while len(idx) > 3:
        clipped = False
        m = len(idx)
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = verts[i0], verts[i1], verts[i2]
            if _orient(a, b, c) <= eps:  # reflex or collinear corner: not an ear
                continue
            others = (verts[j] for j in idx if j not in (i0, i1, i2))
            if any(_point_in_triangle(p, a, b, c, -eps) for p in others):
                continue
            tris.append((i0, i1, i2))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise GeometryError("ear clipping failed: polygon degenerate or not simple")
    tris.append(tuple(idx))
    return tris


def refine(mesh: Mesh) -> Mesh:
    """Uniform refinement: 1D bisection, 2D red refinement (4 children).

    Boundary markers are inherited by child edges; on disk meshes the new
    boundary midpoints are projected back onto the circle.
    """
    return _refine(mesh)[0]


def refine_with_prolongation(mesh: Mesh) -> Tuple[Mesh, sp.csr_matrix]:
    """(refine(mesh), P): P is the P1 interpolation from the mesh onto the
    refined mesh, a sparse (refined nodes x nodes) matrix: the identity on
    the old nodes and the mean of its edge's two ends at each midpoint.  On
    a disk the boundary midpoints are projected onto the circle, outside
    the coarse mesh; they take the mean too, so there P reproduces
    constants but not linear functions."""
    fine, ends = _refine(mesh)
    nv, ne = mesh.num_nodes, len(ends)
    rows = np.concatenate([np.arange(nv), nv + np.repeat(np.arange(ne), 2)])
    cols = np.concatenate([np.arange(nv), ends.ravel()])
    data = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return fine, sp.csr_matrix((data, (rows, cols)), shape=(fine.num_nodes, nv))


def _refine(mesh: Mesh) -> Tuple[Mesh, np.ndarray]:
    """(refined mesh, ends): the midpoint of edge i is the refined mesh's
    node num_nodes + i, halfway between the nodes ends[i]."""
    if mesh.dim == 1:
        return _refine_1d(mesh)
    return _refine_2d(mesh)


def check_refinement(mesh: Mesh, levels: int) -> None:
    """Raise ArgumentError when refining the mesh `levels` times would give
    more than `_MAX_NODES` nodes.  The count is predicted from the node,
    element and boundary-facet counts, without refining: a 1D level adds
    one node per element; a 2D level adds one per edge, and a conforming
    triangulation has (3 elements + boundary edges) / 2 edges.  A negative
    `levels` is an ArgumentError too."""
    if levels < 0:
        raise ArgumentError(f"refinement levels must be nonnegative, got {levels}")
    nodes, elements, facets = mesh.num_nodes, mesh.num_elements, len(mesh.boundary)
    for _ in range(levels):
        if mesh.dim == 1:
            nodes, elements = nodes + elements, 2 * elements
        else:
            nodes += (3 * elements + facets) // 2
            elements, facets = 4 * elements, 2 * facets
        if nodes > _MAX_NODES:
            raise ArgumentError(
                f"{levels} refinement levels of a mesh with {mesh.num_nodes} nodes "
                f"exceed the budget of {_MAX_NODES} nodes")


def _refine_1d(mesh: Mesh) -> Tuple[Mesh, np.ndarray]:
    """Bisection; the edges are the elements, in their order."""
    nodes = mesh.nodes[:, 0]
    elems = mesh.elements
    mids = 0.5 * (nodes[elems[:, 0]] + nodes[elems[:, 1]])
    mid_idx = mesh.num_nodes + np.arange(len(mids))
    new_nodes = np.concatenate([nodes, mids]).reshape(-1, 1)
    left = np.column_stack([elems[:, 0], mid_idx])
    right = np.column_stack([mid_idx, elems[:, 1]])
    new_elems = np.vstack([left, right])
    return _make_mesh(1, new_nodes, new_elems, mesh.boundary, mesh.boundary_markers,
                      level=mesh.level + 1, projection=mesh.projection), elems


def _refine_2d(mesh: Mesh) -> Tuple[Mesh, np.ndarray]:
    """Red refinement.  Edge midpoints are numbered after the old nodes in
    the order their edges first occur, element by element, along the sides
    (v0, v1), (v1, v2), (v2, v0)."""
    elems = np.asarray(mesh.elements, dtype=np.int64)
    nv = mesh.num_nodes
    sides = elems[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = sides.min(axis=1), sides.max(axis=1)
    keys, first, inverse = np.unique(lo * nv + hi, return_index=True,
                                     return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[by_first] = np.arange(len(keys))
    m01, m12, m20 = (nv + rank[inverse]).reshape(-1, 3).T
    v0, v1, v2 = elems.T
    children = np.stack([np.column_stack([v0, m01, m20]),
                         np.column_stack([v1, m12, m01]),
                         np.column_stack([v2, m20, m12]),
                         np.column_stack([m01, m12, m20])], axis=1).reshape(-1, 3)

    at = first[by_first]
    ends = np.column_stack([lo[at], hi[at]])
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])])

    bdry = np.asarray(mesh.boundary, dtype=np.int64)
    bkeys = bdry.min(axis=1) * nv + bdry.max(axis=1)
    pos = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
    if np.any(keys[pos] != bkeys):
        raise GeometryError("boundary edge is not an element edge")
    mid = nv + rank[pos]
    new_bdry = np.stack([np.column_stack([bdry[:, 0], mid]),
                         np.column_stack([mid, bdry[:, 1]])], axis=1).reshape(-1, 2)
    new_marks = np.repeat(np.asarray(mesh.boundary_markers, dtype=np.int64), 2)

    if mesh.projection is not None:
        cx, cy, r = mesh.projection
        bnodes = np.unique(new_bdry)
        vec = nodes[bnodes] - (cx, cy)
        norm = np.hypot(vec[:, 0], vec[:, 1])
        nodes[bnodes] = (cx, cy) + vec * (r / norm)[:, None]

    return _make_mesh(2, nodes, children, new_bdry, new_marks,
                      level=mesh.level + 1, projection=mesh.projection), ends


# ---------------------------------------------------------------------------
# Geometric functionals
# ---------------------------------------------------------------------------

def element_measures(mesh: Mesh) -> np.ndarray:
    """Signed lengths (1D) or areas (2D) per element; all positive on a valid mesh."""
    if mesh.dim == 1:
        x = mesh.nodes[:, 0]
        return x[mesh.elements[:, 1]] - x[mesh.elements[:, 0]]
    p = mesh.nodes[mesh.elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def max_element_diameter(mesh: Mesh) -> float:
    """Largest element diameter (longest edge in 2D, segment length in 1D)."""
    if mesh.dim == 1:
        return float(np.max(element_measures(mesh)))
    p = mesh.nodes[mesh.elements]
    lengths = [np.linalg.norm(p[:, i] - p[:, j], axis=1)
               for i, j in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(lengths))


def area(mesh: Mesh) -> float:
    """Total volume |Omega|: interval length in 1D, polygon area in 2D."""
    return float(np.sum(element_measures(mesh)))


def boundary_edge_lengths(mesh: Mesh) -> np.ndarray:
    """Surface measure of each boundary facet (1.0 per endpoint in 1D)."""
    if mesh.dim == 1:
        return np.ones(len(mesh.boundary))
    p0 = mesh.nodes[mesh.boundary[:, 0]]
    p1 = mesh.nodes[mesh.boundary[:, 1]]
    return np.linalg.norm(p1 - p0, axis=1)


def gamma_nodes(mesh: Mesh) -> np.ndarray:
    """Sorted node indices incident to gamma-marked boundary facets."""
    marked = mesh.boundary[mesh.boundary_markers == GAMMA]
    return np.unique(marked)


def boundary_nodes(mesh: Mesh) -> np.ndarray:
    return np.unique(mesh.boundary)


# ---------------------------------------------------------------------------
# Convex polygons as half-planes: inradius and distance to the boundary
# ---------------------------------------------------------------------------

def _halfplanes(p0: np.ndarray, p1: np.ndarray):
    """(normals, offsets) of the sides p0[i] -> p1[i] of a convex ccw
    boundary: the unit outward normals n_i and o_i = n_i . p0[i], so that
    the domain side of side i is n_i . x <= o_i.

    On a closed boundary every vertex starts a side, and a simple polygon
    is convex and counterclockwise exactly when all of them lie in every
    side's half-plane.  Raises UnsupportedDomainError when one lies outside
    by more than 1e-12 times the polygon's extent.  The check takes the
    vertices relative to their centroid, so that neither its slack nor its
    rounding depends on where the polygon lies.
    """
    t = p1 - p0
    normals = np.column_stack([t[:, 1], -t[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = np.einsum("ij,ij->i", normals, p0)
    local = p0 - p0.mean(axis=0)
    extent = float(np.ptp(p0, axis=0).max())
    if _margins(normals, np.einsum("ij,ij->i", normals, local), local).min() < -1e-12 * extent:
        raise UnsupportedDomainError(
            "inradius and boundary distance require a convex domain")
    return normals, offsets


def _margins(normals, offsets, x) -> np.ndarray:
    """min_i (o_i - n_i . x) for each row of x: the distance to the nearest
    side line, negative outside.  Sides are taken _SIDE_BLOCK at a time in
    two len(x) x _SIDE_BLOCK buffers, allocated once."""
    out = np.full(len(x), np.inf)
    width = min(len(offsets), _SIDE_BLOCK)
    d_buf, t_buf = np.empty((len(x), width)), np.empty((len(x), width))
    for lo in range(0, len(offsets), _SIDE_BLOCK):
        n, o = normals[lo:lo + _SIDE_BLOCK], offsets[lo:lo + _SIDE_BLOCK]
        d, t = d_buf[:, :len(o)], t_buf[:, :len(o)]
        np.subtract(o, np.multiply(x[:, :1], n[:, 0], out=d), out=d)
        d -= np.multiply(x[:, 1:], n[:, 1], out=t)
        np.minimum(out, d.min(axis=1), out=out)
    return out


def chebyshev_center(domain: DomainSpec) -> Tuple[np.ndarray, float]:
    """Center and radius of the largest inscribed ball of a convex domain.

    For a polygon this is the optimum of the LP max r s.t. n_i . c + r <= o_i
    (Boyd & Vandenberghe, Convex Optimization, 8.5.1), which is attained
    where three side lines are active.  Each triple of sides with a
    nonsingular system n . c + r = o gives the point c equidistant from
    its lines; c scores the distance min_i (o_i - n_i . c) to the nearest
    side line, and the best score is the inradius.  Triples are taken
    _TRIPLE_BLOCK at a time, so no temporary grows beyond _TRIPLE_BLOCK x
    _SIDE_BLOCK.  Where the optimum is not unique (a rectangle), the first
    best triple's point is the center.
    """
    if domain.kind == "interval":
        return np.array([0.5 * (domain.a + domain.b)]), 0.5 * (domain.b - domain.a)
    if domain.kind == "disk":
        return np.array(domain.center, dtype=float), domain.radius
    verts = np.array(domain.vertices, dtype=float)
    normals, offsets = _halfplanes(verts, np.roll(verts, -1, axis=0))
    n = len(verts)
    j, k = np.triu_indices(n, 1)
    best, center = -np.inf, None
    for i in range(n - 2):
        for lo in range(np.searchsorted(j, i + 1), len(j), _TRIPLE_BLOCK):
            # the triples (i, j, k) with i < j < k; subtracting side i's
            # equation leaves the 2x2 system a . c = p, b . c = q
            jk = slice(lo, lo + _TRIPLE_BLOCK)
            a, b = normals[j[jk]] - normals[i], normals[k[jk]] - normals[i]
            p, q = offsets[j[jk]] - offsets[i], offsets[k[jk]] - offsets[i]
            det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            ok = det != 0.0
            if not ok.any():
                continue
            c = np.column_stack([p * b[:, 1] - q * a[:, 1],
                                 q * a[:, 0] - p * b[:, 0]])[ok] / det[ok, None]
            score = _margins(normals, offsets, c)
            m = int(np.argmax(score))
            if score[m] > best:
                best, center = float(score[m]), c[m]
    return center, best


def inradius(domain: DomainSpec) -> float:
    """Inradius of an interval, disk, or convex polygon."""
    return chebyshev_center(domain)[1]


def distances_to_boundary(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the boundary of a convex domain.

    In 2D the mesh's boundary edges must bound a convex polygon
    (_halfplanes raises UnsupportedDomainError otherwise).  The distance is
    then min_i (o_i - n_i . x) over the edges' half-planes, clipped at 0
    for points outside; no array grows beyond points x _SIDE_BLOCK.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dim == 1:
        bx = mesh.nodes[mesh.boundary[:, 0], 0]
        return np.min(np.abs(pts[:, :1] - bx[None, :]), axis=1)
    normals, offsets = _halfplanes(mesh.nodes[mesh.boundary[:, 0]],
                                   mesh.nodes[mesh.boundary[:, 1]])
    return np.maximum(_margins(normals, offsets, pts), 0.0)


# ---------------------------------------------------------------------------
# Boundary traversal (arc-length ordering of gamma nodes)
# ---------------------------------------------------------------------------

def gamma_arclength(mesh: Mesh):
    """Order gamma nodes along the boundary and return (nodes, arclength).

    Walks each connected chain of gamma edges; chains are concatenated in
    the order of their smallest node index, which makes the output
    deterministic for a given mesh.
    """
    if mesh.dim == 1:
        nodes = gamma_nodes(mesh)
        coords = mesh.nodes[nodes, 0]
        order = np.argsort(coords)
        nodes = nodes[order]
        s = coords[order] - (coords[order][0] if len(nodes) else 0.0)
        return nodes, s
    marked = mesh.boundary[mesh.boundary_markers == GAMMA].tolist()
    if len(marked) == 0:
        return np.array([], dtype=np.int64), np.array([])
    adj = {}
    for v0, v1 in marked:
        adj.setdefault(v0, []).append(v1)
        adj.setdefault(v1, []).append(v0)
    # unvisited edges with their multiplicity, and each node's unvisited
    # degree counted as adj counts it, so a chain's endpoints have degree 1
    unvisited = Counter((v0, v1) if v0 < v1 else (v1, v0) for v0, v1 in marked)
    degree = {v: len(nb) for v, nb in adj.items()}
    endpoints = [v for v, d in degree.items() if d == 1]
    heapq.heapify(endpoints)
    by_index = sorted(adj)
    lowest = 0  # by_index[:lowest] have no unvisited edge left
    chains = []
    while unvisited:
        # the smallest endpoint of an open chain, else the smallest node of
        # a closed one; degrees only fall, so stale entries are skipped
        while endpoints and degree[endpoints[0]] != 1:
            heapq.heappop(endpoints)
        if endpoints:
            start = endpoints[0]
        else:
            while degree[by_index[lowest]] == 0:
                lowest += 1
            start = by_index[lowest]
        chain = [start]
        cur = start
        while True:
            for nxt in adj[cur]:
                edge = (cur, nxt) if cur < nxt else (nxt, cur)
                if edge in unvisited:
                    break
            else:
                break
            count = unvisited.pop(edge)
            for v in (cur, nxt):
                degree[v] -= count
                if degree[v] == 1:
                    heapq.heappush(endpoints, v)
            chain.append(nxt)
            cur = nxt
        chains.append(chain)
    chains.sort(key=lambda c: min(c))
    # each node once, where it is first met: a closed chain ends on its start
    ordered = np.array(list(dict.fromkeys(v for c in chains for v in c)), dtype=np.int64)
    pts = mesh.nodes[ordered]
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(steps)])
    return ordered, s


# ---------------------------------------------------------------------------
# Mesh text format
# ---------------------------------------------------------------------------

def write_mesh(mesh: Mesh, path) -> None:
    """Write the mesh in the plain-text format (robinspec-mesh v1)."""
    lines = [f"robinspec-mesh v1 {mesh.dim}",
             f"{mesh.num_nodes} {mesh.num_elements} {len(mesh.boundary)}"]
    for p in mesh.nodes:
        lines.append(" ".join(f"{c:.17g}" for c in p))
    for e in mesh.elements:
        lines.append(" ".join(str(int(v)) for v in e))
    for b, m in zip(mesh.boundary, mesh.boundary_markers):
        lines.append(" ".join(str(int(v)) for v in b) + f" {int(m)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    """Read a mesh in the robinspec-mesh v1 format.  An empty, truncated or
    non-numeric file is an ArgumentError."""
    try:
        with open(path) as fh:
            rows = [ln.split() for ln in fh if ln.strip()]
        if not rows or rows[0][:2] != ["robinspec-mesh", "v1"]:
            raise ValueError("no robinspec-mesh v1 header")
        (dim,) = (int(t) for t in rows[0][2:])
        nv, ne, nb = (int(t) for t in rows[1])
        if dim not in (1, 2) or min(nv, ne, nb) < 1 or len(rows) != 2 + nv + ne + nb:
            raise ValueError("dimension or section sizes do not match the file")
        nodes = np.array(rows[2:2 + nv], dtype=float)
        elements = np.array(rows[2 + nv:2 + nv + ne], dtype=np.int64)
        bdry = np.array(rows[2 + nv + ne:], dtype=np.int64)
        if (nodes.shape[1], elements.shape[1], bdry.shape[1]) != (dim, dim + 1, dim + 1):
            raise ValueError("a row has the wrong number of entries")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("non-finite node coordinate")
        if not (0 <= min(elements.min(), bdry[:, :-1].min())
                and max(elements.max(), bdry[:, :-1].max()) < nv):
            raise ValueError("node index out of range")
    except (IndexError, ValueError) as exc:
        raise ArgumentError(f"malformed robinspec-mesh v1 file {path}: {exc}") from None
    return _make_mesh(dim, nodes, elements, bdry[:, :-1], bdry[:, -1])
