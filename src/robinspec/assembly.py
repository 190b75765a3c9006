"""P1 finite-element assembly: stiffness, mass, weighted boundary mass.

All element integrals are exact for linear elements (no quadrature error);
boundary-mass entries for nodal coefficient fields use the exact
linear-times-linear edge rule; a weighted mass matrix sums a second-order
rule.

Every mesh has one assembly plan (`_Plan`), built on first use, once, under
a lock, with write-locked int32 arrays: the CSR pattern of a P1 matrix on
the mesh, the diagonal and both entries of each edge (`Mesh.edges`), and
the data slot of each diagonal entry and of each edge's two entries.  A
matrix sums one symmetric block per element or facet in two `np.bincount`
passes, one over the blocks' diagonals into the nodes and one over their
entries on the element sides into the edges, and writes the results into
those slots.  Each edge's one value goes into both of its entries, so every
matrix is exactly symmetric.  A diagonal entry is summed in element (or
facet) order; an off-diagonal one has at most two addends (an edge lies in
two triangles at most), and a sum of two terms does not depend on their
order.  Stiffness, mass and weighted mass fill every slot; the boundary mass
reaches only the slots of its facets' nodes and edges.  Matrices are CSR
with sorted indices and no explicit zeros, never mutated after assembly; a
matrix with no zero entry shares the plan's index arrays.  `operators`
assembles a mesh's stiffness and mass once and shares them between all
callers.

"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, AssemblyError
from .geometry import GAMMA, Edges, Mesh, boundary_edge_lengths, element_measures


# ---------------------------------------------------------------------------
# Boundary coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SigmaField:
    """Nonnegative boundary coefficient.

    kind:
      * ``constant`` — one value on the whole boundary,
      * ``per_edge`` — one value per boundary facet (piecewise constant),
      * ``nodal``    — one value per mesh node (piecewise linear on edges);
        entries at non-boundary nodes are ignored.

    support ``gamma`` restricts integration to gamma-marked facets, so a
    nodal field with nonzero values at gamma/non-gamma junction nodes does
    not leak onto the adjacent unmarked facets.
    """

    kind: str
    value: float = 0.0
    values: Optional[np.ndarray] = None
    support: str = "boundary"

    def __post_init__(self):
        if self.kind == "constant":
            if not np.isfinite(self.value):
                raise ArgumentError(f"sigma must be finite, got {self.value}")
            if self.value < 0:
                raise ArgumentError(f"sigma must be nonnegative, got {self.value}")
        elif self.kind in ("per_edge", "nodal"):
            if self.values is None:
                raise ArgumentError(f"{self.kind} sigma needs a value array")
            if not np.all(np.isfinite(self.values)):
                raise ArgumentError("sigma must be finite everywhere")
            if np.any(np.asarray(self.values) < 0):
                raise ArgumentError("sigma must be nonnegative everywhere")
        else:
            raise ArgumentError(f"unknown sigma kind {self.kind!r}")
        if self.support not in ("boundary", "gamma"):
            raise ArgumentError(f"unknown sigma support {self.support!r}")

    @classmethod
    def constant(cls, value: float) -> "SigmaField":
        return cls("constant", value=float(value))

    @classmethod
    def per_edge(cls, values) -> "SigmaField":
        return cls("per_edge", values=np.asarray(values, dtype=float))

    @classmethod
    def nodal(cls, values, support: str = "boundary") -> "SigmaField":
        return cls("nodal", values=np.asarray(values, dtype=float), support=support)

    @classmethod
    def on_gamma(cls, value: float) -> "SigmaField":
        """Constant on the gamma subset of any mesh's boundary, zero on the
        rest of it."""
        return cls("constant", value=float(value), support="gamma")

    def edge_values(self, mesh: Mesh) -> np.ndarray:
        """Per-facet (value_at_first_node, value_at_second_node) pairs."""
        nb = len(mesh.boundary)
        if self.kind == "constant":
            return np.full((nb, mesh.dim), self.value)
        if self.kind == "per_edge":
            if len(self.values) != nb:
                raise ArgumentError("per_edge sigma length does not match boundary")
            return np.repeat(self.values[:, None], mesh.dim, axis=1)
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != mesh.num_nodes:
            raise ArgumentError("nodal sigma length does not match node count")
        return vals[mesh.boundary]


# ---------------------------------------------------------------------------
# The assembly plan and the matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Plan:
    """One mesh's P1 matrix pattern: the diagonal and both entries of each
    edge (`Mesh.edges`), in CSR with sorted indices, and the data slot of
    each diagonal entry and of each edge's (smaller, larger) and (larger,
    smaller) entries.  Its arrays are int32 and write-locked, and every
    matrix on the mesh that has no zero entry shares its index arrays."""

    edges: Edges
    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def matrix(self, diagonal: np.ndarray, edge: np.ndarray) -> sp.csr_matrix:
        """The symmetric matrix with the given diagonal and, in both entries
        of each edge, the edge's value; entries that are zero are dropped."""
        data = np.empty(len(self.indices))
        data[self.diagonal] = diagonal
        data[self.upper] = edge
        data[self.lower] = edge
        n = len(self.indptr) - 1
        if data.all():
            return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        a = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))
        a.eliminate_zeros()
        return a

    def submatrix(self, slots: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
        """The matrix holding at each of the given data slots the sum of its
        values, added in their order, and nothing elsewhere; entries that
        are zero are dropped."""
        at, which = np.unique(slots, return_inverse=True)
        data = np.bincount(which, weights=values)
        keep = data != 0
        at = at[keep]
        n = len(self.indptr) - 1
        return sp.csr_matrix((data[keep], self.indices[at], np.searchsorted(at, self.indptr)),
                             shape=(n, n))


def _build_plan(mesh: Mesh) -> _Plan:
    edges = mesh.edges
    n, count = mesh.num_nodes, mesh.num_nodes + 2 * len(edges.ends)
    node = np.arange(n, dtype=np.int32)
    lo, hi = edges.ends.T
    # the CSR ordering of the entries, read off by storing each entry's number
    numbered = sp.coo_matrix((np.arange(count, dtype=np.int32),
                              (np.concatenate([node, lo, hi]), np.concatenate([node, hi, lo]))),
                             shape=(n, n)).tocsr()
    slot = np.empty(count, dtype=np.int32)
    slot[numbered.data] = np.arange(count, dtype=np.int32)
    for arr in (numbered.indptr, numbered.indices, slot):
        arr.setflags(write=False)
    return _Plan(edges, numbered.indptr, numbered.indices,
                 slot[:n], slot[n:n + len(lo)], slot[n + len(lo):])


# Keyed weakly by mesh; a plan holds no reference back to its mesh.
_PLANS: weakref.WeakKeyDictionary[Mesh, _Plan] = weakref.WeakKeyDictionary()
_PLANS_LOCK = threading.Lock()


def _plan(mesh: Mesh) -> _Plan:
    with _PLANS_LOCK:
        plan = _PLANS.get(mesh)
        if plan is None:
            plan = _PLANS[mesh] = _build_plan(mesh)
    return plan


def _assemble(plan: _Plan, mesh: Mesh, diagonal: np.ndarray, sides: np.ndarray) -> sp.csr_matrix:
    """The matrix summing each element's symmetric block, given its diagonal
    (Ne, d + 1) and its entries on the element's sides (Ne, 1 or 3), in
    `Edges.of_elements` order."""
    return plan.matrix(
        np.bincount(mesh.elements.ravel(), weights=diagonal.ravel(), minlength=mesh.num_nodes),
        np.bincount(plan.edges.of_elements.ravel(), weights=sides.ravel(),
                    minlength=len(plan.edges.ends)))


def _measures(mesh: Mesh) -> np.ndarray:
    meas = element_measures(mesh)
    if np.any(meas <= 0):
        raise AssemblyError("degenerate element (nonpositive measure)")
    return meas


def _gradients(mesh: Mesh, meas: np.ndarray):
    """(gx, gy), each (Ne, 3): the gradients rot90(e_i) / (2 |T|) of each
    element's barycentric coordinates, with e_i = p_{i+2} - p_{i+1} the side
    opposite node i.  Computed in place, one coordinate at a time, to bound
    the memory."""
    two = (2.0 * meas)[:, None]
    y = mesh.nodes[:, 1][mesh.elements]
    gx = y[:, [1, 2, 0]]
    gx -= y[:, [2, 0, 1]]
    gx /= two
    del y
    x = mesh.nodes[:, 0][mesh.elements]
    gy = x[:, [2, 0, 1]]
    gy -= x[:, [1, 2, 0]]
    gy /= two
    return gx, gy


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix; constants lie in its kernel."""
    meas, plan = _measures(mesh), _plan(mesh)
    if mesh.dim == 1:
        return _assemble(plan, mesh, np.repeat(1.0 / meas, 2), -1.0 / meas)
    # K_ij = |T| g_i . g_j = e_i . e_j / (4 |T|), g_i the gradient of barycentric i
    gx, gy = _gradients(mesh, meas)
    diagonal = gx * gx
    diagonal += gy * gy
    diagonal *= meas[:, None]
    sides = gx[:, [1, 2, 0]]
    sides *= gx
    del gx
    sides += gy * gy[:, [1, 2, 0]]
    sides *= meas[:, None]
    return _assemble(plan, mesh, diagonal, sides)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Exact P1 mass matrix (positive definite)."""
    meas, plan = _measures(mesh), _plan(mesh)
    if mesh.dim == 1:
        return _assemble(plan, mesh, np.repeat(meas / 3.0, 2), meas / 6.0)
    return _assemble(plan, mesh, np.repeat(meas * (2.0 / 12.0), 3),
                     np.repeat(meas * (1.0 / 12.0), 3))


def assemble_boundary_mass(mesh: Mesh, sigma: SigmaField) -> sp.csr_matrix:
    """Boundary mass matrix weighted by sigma, integrated over the facets of
    sigma's support."""
    plan = _plan(mesh)
    keep = mesh.boundary_markers == GAMMA if sigma.support == "gamma" else slice(None)
    vals, bdry = sigma.edge_values(mesh)[keep], mesh.boundary[keep]
    if mesh.dim == 1:
        return plan.submatrix(plan.diagonal[bdry.ravel()], vals.ravel())
    lengths = boundary_edge_lengths(mesh)[keep]
    s0, s1 = vals[:, 0], vals[:, 1]
    diagonal = np.column_stack([lengths * (s0 / 4.0 + s1 / 12.0), lengths * (s0 / 12.0 + s1 / 4.0)])
    edge = lengths * (s0 + s1) / 12.0
    facets = plan.edges.of_facets[keep]
    return plan.submatrix(
        np.concatenate([plan.diagonal[bdry.ravel()], plan.upper[facets], plan.lower[facets]]),
        np.concatenate([diagonal.ravel(), edge, edge]))


# Second-order rules of the weighted mass matrices: the P1 basis values of an
# element's nodes (columns) at its points (rows), two-point Gauss on a segment
# and the edge midpoints of a triangle, each point of weight |element| / rows.
_RULES = {1: 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (0.5 / np.sqrt(3.0)),
          2: np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])}
# an element's sides as (first, second) local nodes, in `Edges.of_elements` order
_SIDES = {1: ([0], [1]), 2: ([0, 1, 2], [1, 2, 0])}


def quadrature_rule(mesh: Mesh):
    """(points, weights) of the rule `assemble_weighted_mass` sums over,
    element by element."""
    values = _RULES[mesh.dim]
    points = np.einsum("qi,tik->tqk", values, mesh.nodes[mesh.elements]).reshape(-1, mesh.dim)
    return points, np.repeat(element_measures(mesh) / len(values), len(values))


def assemble_weighted_mass(mesh: Mesh, weights: np.ndarray) -> sp.csr_matrix:
    """The matrix of u^T H u = sum_q weights_q u(x_q)^2 over the points x_q
    of `quadrature_rule`, one weight per point in its order: with the rule's
    own weights times f(x_q), the P1 form of the integral of f u^2."""
    values = _RULES[mesh.dim]
    first, second = _SIDES[mesh.dim]
    w = np.reshape(weights, (mesh.num_elements, -1))
    # sum_q w_q phi_i(x_q) phi_j(x_q), added up in the order of the points
    diagonal = sum(w[:, q, None] * (values[q] * values[q]) for q in range(len(values)))
    sides = sum(w[:, q, None] * (values[q, first] * values[q, second])
                for q in range(len(values)))
    return _assemble(_plan(mesh), mesh, diagonal, sides)


# ---------------------------------------------------------------------------
# Per-mesh operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Operators:
    """Stiffness, mass, load M 1 and volume 1^T M 1 of one mesh.

    Obtained from `operators`, which builds them once per mesh.  The matrix
    and load arrays are write-locked, like the mesh's own arrays.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    load: np.ndarray
    volume: float

    def restrict(self, fixed):
        """(free, K_ff, M_ff): the free node indices and the matrices with
        the rows/columns of the fixed nodes removed (Dirichlet on them)."""
        if len(fixed) == 0:
            raise ArgumentError("no fixed nodes: nothing to eliminate")
        free = np.setdiff1d(np.arange(self.stiffness.shape[0]), fixed)
        if len(free) == 0:
            raise ArgumentError("every node is fixed: no degrees of freedom left")
        return free, self.stiffness[free][:, free], self.mass[free][:, free]


# Keyed weakly by mesh; an Operators holds no reference back to its mesh, so an
# entry lives exactly as long as the mesh does.
_OPERATORS: weakref.WeakKeyDictionary[Mesh, Operators] = weakref.WeakKeyDictionary()
_OPERATORS_LOCK = threading.Lock()


def operators(mesh: Mesh) -> Operators:
    """The mesh's Operators: built on the first call, shared after.

    Safe to call from several threads at once; the mesh is immutable, so the
    cached matrices cannot go stale.
    """
    with _OPERATORS_LOCK:
        ops = _OPERATORS.get(mesh)
        if ops is None:
            ones = np.ones(mesh.num_nodes)
            k, m = assemble_stiffness(mesh), assemble_mass(mesh)
            load = m @ ones
            for arr in (k.data, k.indices, k.indptr, m.data, m.indices, m.indptr, load):
                arr.setflags(write=False)
            ops = _OPERATORS[mesh] = Operators(k, m, load, float(ones @ load))
    return ops


def hierarchy(mesh: Mesh, free: Optional[np.ndarray] = None) -> list:
    """The levels argument of `eigensolve.shifted_factor` for pencils on
    mesh: on a planar mesh, the prolongation of each coarser level of its
    hierarchy onto the one above it, finest first.  An interval lists no
    coarser level: its tridiagonal LU has no fill to save.

    With free, the sorted free nodes of a pencil pinned on the other nodes
    (`Operators.restrict`), the levels are the pinned pencil's: a coarse
    node is free when it is a free node of the level above, as refinement
    keeps the coarse numbering, and each P is restricted to the free nodes
    of both levels.  The coarse spaces are then exact where the fixed nodes
    are a union of boundary facets' nodes (gamma, the boundary): a coarse
    function that vanishes on them interpolates to one that vanishes on
    them.  No coarse level is assembled."""
    levels = []
    while mesh.dim == 2 and mesh.coarse is not None:
        mesh, prolongation = mesh.coarse
        if free is not None:
            fine_free, free = free, free[:np.searchsorted(free, mesh.num_nodes)]
            prolongation = prolongation[fine_free][:, free]
        levels.append(prolongation)
    return levels
