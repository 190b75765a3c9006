"""Shared mesh fixtures, random convex polygons and dense spectral oracles.

Level convention used throughout the tests: a domain's base mesh comes from
build_mesh at a fixed coarse target_h, and "level n" means n uniform
refinements of that base.

The package solves for the lowest eigenpair only; the spectra beyond it
that the bracketing tests need come from a dense generalized eigensolve of
the same pencils.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, strategies as st
from scipy.spatial import ConvexHull, QhullError

from robinspec import assembly, eigensolve, geometry
from robinspec.assembly import SigmaField
from robinspec.geometry import GAMMA


def boundary_length(mesh, subset="all"):
    """Total surface measure of the boundary or of its gamma subset; in 1D
    the counting measure with unit weights."""
    lengths = geometry.boundary_edge_lengths(mesh)
    if subset == "gamma":
        lengths = lengths[mesh.boundary_markers == GAMMA]
    return float(lengths.sum())


def refined(mesh, times):
    for _ in range(times):
        mesh = geometry.refine(mesh)
    return mesh


def square_mesh(level=0, gamma=None):
    base = geometry.build_mesh(geometry.unit_square(gamma=gamma), 0.75)
    return refined(base, level)


def interval_mesh(n_elements, a=0.0, b=1.0, gamma=None):
    dom = geometry.interval(a, b, gamma=gamma)
    return geometry.build_mesh(dom, (b - a) / n_elements)


def disk_mesh(level=0, segments=16, radius=1.0, gamma=None):
    dom = geometry.disk((0.0, 0.0), radius, segments, gamma=gamma)
    base = geometry.build_mesh(dom, radius / 2.0)
    return refined(base, level)


def triangle_mesh(level=0, gamma=None):
    dom = geometry.polygon([(0, 0), (1, 0), (0, 1)], gamma=gamma)
    base = geometry.build_mesh(dom, 1.5)
    return refined(base, level)


@st.composite
def convex_polygons(draw):
    """Convex hull of 3-12 random points in the square [-1, 1]^2, kept when
    no side is shorter than 0.05, no corner turns by less than 1e-3 and the
    area is at least 0.1."""
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12)))
    assume(len(np.unique(pts, axis=0)) >= 3)
    try:
        hull = ConvexHull(pts)
    except QhullError:  # collinear points
        assume(False)
    verts = pts[hull.vertices]  # counterclockwise in 2D
    edges = np.roll(verts, -1, axis=0) - verts
    nxt = np.roll(edges, -1, axis=0)
    turns = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    assume(hull.volume >= 0.1)
    assume(np.linalg.norm(edges, axis=1).min() >= 0.05 and turns.min() >= 1e-3)
    return geometry.polygon(verts.tolist())


def dense_eigenvalues(a, m, k):
    """The k smallest eigenvalues of the pencil (A, M), by scipy.linalg.eigh."""
    return scipy.linalg.eigh(a.toarray(), m.toarray(), eigvals_only=True)[:k]


def robin_spectrum(mesh, sigma, k):
    """The k smallest eigenvalues of (K + B(sigma), M) for a constant sigma."""
    ops = assembly.operators(mesh)
    b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(sigma))
    return dense_eigenvalues(ops.stiffness + b, ops.mass, k)


def dirichlet_spectrum(mesh, k):
    """The k smallest eigenvalues pinned to zero on the whole boundary."""
    _, k_ff, m_ff = assembly.operators(mesh).restrict(geometry.boundary_nodes(mesh))
    return dense_eigenvalues(k_ff, m_ff, k)


@pytest.fixture(scope="session")
def square_l3():
    return square_mesh(3)


@pytest.fixture(scope="session")
def square_l4():
    return square_mesh(4)


@pytest.fixture(scope="session")
def disk_l2():
    return disk_mesh(2)


@pytest.fixture(scope="session")
def triangle_l3():
    return triangle_mesh(3)


@pytest.fixture
def factorizations(monkeypatch):
    """The sizes of the sparse factorizations made through eigensolve's
    module-level splu, in order."""
    sizes = []
    splu = eigensolve.splu

    def counted(a, **kwargs):
        sizes.append(a.shape[0])
        return splu(a, **kwargs)

    monkeypatch.setattr(eigensolve, "splu", counted)
    return sizes
