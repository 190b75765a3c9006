"""P1 finite-element assembly: stiffness, mass, weighted boundary mass.

All element integrals are exact for linear elements (no quadrature error);
boundary-mass entries for nodal coefficient fields use the exact
linear-times-linear edge rule; a weighted mass matrix sums a second-order
rule.  Each matrix sums one symmetric local block per element or facet
(`_scatter`) and is exactly symmetric: on a conforming mesh an off-diagonal
entry has at most two addends (an edge lies in two triangles at most, a node
in two facets), and a sum of two terms does not depend on their order.
Matrices are CSR with sorted indices and no explicit zeros, never mutated
after assembly; `operators` assembles a mesh's stiffness and mass once and
shares them between all callers.

`Operators.order` is the mesh's nested-dissection ordering (George, SIAM J.
Numer. Anal. 1973): a recursive coordinate bisection of the node graph in
which every separator is ordered after both of its halves.  It is computed
at the first factorization of a pencil on the mesh, once, and every
factorization on the mesh uses it; meshes that are only multiplied with,
such as the finer levels of a `converge` chain or the fine mesh of a pencil
preconditioned on its hierarchy (`hierarchy`), are never ordered.  The
graph is the mass matrix's pattern, which holds every edge of the mesh.
The stiffness matrix drops the edges whose cotangent weight vanishes (right
angles opposite them), yet the pencils factored hold those edges through M;
separators found in the thinner graph miss them, and on the triangle at
level 6 the LU had 1.24 times the fill.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, AssemblyError
from .geometry import GAMMA, Mesh, boundary_edge_lengths, element_measures


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
# Matrix assembly
# ---------------------------------------------------------------------------

def _scatter(n: int, cells: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
    """The n x n CSR matrix summing the symmetric block local[t] over the
    nodes cells[t] of each cell t, sorted and without explicit zeros."""
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    a.eliminate_zeros()
    return a


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Exact P1 stiffness matrix; constants lie in its kernel."""
    meas = element_measures(mesh)
    if np.any(meas <= 0):
        raise AssemblyError("degenerate element (nonpositive measure)")
    if mesh.dim == 1:
        local = np.stack([1.0 / meas, -1.0 / meas, -1.0 / meas, 1.0 / meas], axis=1)
        return _scatter(mesh.num_nodes, mesh.elements, local)
    p = mesh.nodes[mesh.elements]  # (Ne, 3, 2)
    # gradient of barycentric i is rot90(edge opposite i) / (2 area)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    grads = np.stack([e0, e1, e2], axis=1)  # (Ne, 3, 2), pre-rotation
    grads = np.stack([-grads[:, :, 1], grads[:, :, 0]], axis=2) / (2.0 * meas)[:, None, None]
    local = np.einsum("tik,tjk->tij", grads, grads) * meas[:, None, None]
    return _scatter(mesh.num_nodes, mesh.elements, local)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Exact P1 mass matrix (positive definite)."""
    meas = element_measures(mesh)
    if np.any(meas <= 0):
        raise AssemblyError("degenerate element (nonpositive measure)")
    if mesh.dim == 1:
        local = np.stack([meas / 3.0, meas / 6.0, meas / 6.0, meas / 3.0], axis=1)
        return _scatter(mesh.num_nodes, mesh.elements, local)
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return _scatter(mesh.num_nodes, mesh.elements, meas[:, None, None] * base[None, :, :])


def assemble_boundary_mass(mesh: Mesh, sigma: SigmaField) -> sp.csr_matrix:
    """Boundary mass matrix weighted by sigma, integrated over the facets of
    sigma's support."""
    vals = sigma.edge_values(mesh)
    bdry = mesh.boundary
    lengths = boundary_edge_lengths(mesh)
    if sigma.support == "gamma":
        keep = mesh.boundary_markers == GAMMA
        vals, bdry, lengths = vals[keep], bdry[keep], lengths[keep]
    if mesh.dim == 1:
        return _scatter(mesh.num_nodes, bdry, vals)
    s0, s1 = vals[:, 0], vals[:, 1]
    b00 = lengths * (s0 / 4.0 + s1 / 12.0)
    b11 = lengths * (s0 / 12.0 + s1 / 4.0)
    b01 = lengths * (s0 + s1) / 12.0
    return _scatter(mesh.num_nodes, bdry, np.stack([b00, b01, b01, b11], axis=1))


# Second-order rules of the weighted mass matrices: the P1 basis values of an
# element's nodes (columns) at its points (rows), two-point Gauss on a segment
# and the edge midpoints of a triangle, each point of weight |element| / rows.
_RULES = {1: 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (0.5 / np.sqrt(3.0)),
          2: np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])}


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
    outer = values[:, :, None] * values[:, None, :]  # symmetric in its last two axes
    local = np.einsum("tq,qij->tij", np.reshape(weights, (mesh.num_elements, -1)), outer)
    return _scatter(mesh.num_nodes, mesh.elements, local)


# ---------------------------------------------------------------------------
# Fill-reducing ordering
# ---------------------------------------------------------------------------

# groups of at most this many nodes are not bisected further
_ND_LEAF = 16


def _nested_dissection(coords: np.ndarray, pattern: sp.spmatrix) -> np.ndarray:
    """Nested-dissection permutation of the graph of a symmetric pattern
    whose vertices sit at coords: order[i] is the vertex eliminated i-th.

    All groups of one depth are bisected at once.  A group of more than
    `_ND_LEAF` vertices is cut at its median vertex along the longest side
    of its box (the root's bounding box, halved at each cut); the endpoints
    of the cut edges on the side that has fewer of them form the separator.
    Each group owns a contiguous range of positions: its first half, then
    its second half, then its separator.  Separators and leaves are ordered
    along their group's axis.
    """
    n, dim = coords.shape
    upper = sp.triu(pattern, k=1, format="coo")
    rows, cols = upper.row.astype(np.int64), upper.col.astype(np.int64)
    # each vertex's rank along each axis, so one integer sort per depth
    # orders every group's vertices along its own axis
    rank = np.empty((dim, n), dtype=np.int64)
    for axis in range(dim):
        rank[axis, np.argsort(coords[:, axis], kind="stable")] = np.arange(n)
    low, high = coords.min(axis=0)[None, :], coords.max(axis=0)[None, :]
    group = np.zeros(n, dtype=np.int64)  # -1 once a vertex has its position
    start = np.zeros(1, dtype=np.int64)  # first position of each group
    position = np.empty(n, dtype=np.int64)
    nodes = np.arange(n)
    while len(nodes):
        g = group[nodes]
        count = len(start)
        size = np.bincount(g, minlength=count)
        first = np.cumsum(size) - size
        axis = np.argmax(high - low, axis=1)
        ranked = np.argsort(g * n + rank[axis[g], nodes])  # by group, then along
        median = coords[nodes[ranked[np.minimum(first + size // 2, len(nodes) - 1)]], axis]
        t = coords[nodes, axis[g]]
        left = t < median[g]
        ties = np.bincount(g, weights=left, minlength=count)[g] == 0
        left[ties] = t[ties] <= median[g][ties]
        n_left = np.bincount(g, weights=left, minlength=count)
        split = (size > _ND_LEAF) & (n_left > 0) & (n_left < size)

        side = np.zeros(n, dtype=np.int8)  # 1 first half, 2 second, 3 separator
        cut_group = split[g]
        side[nodes[cut_group]] = np.where(left[cut_group], 1, 2)
        side_r, side_c = side[rows], side[cols]
        cut = (side_r > 0) & (side_c > 0) & (side_r != side_c)
        first_end = np.zeros(n, dtype=bool)
        second_end = np.zeros(n, dtype=bool)
        first_end[np.where(side_r[cut] == 1, rows[cut], cols[cut])] = True
        second_end[np.where(side_r[cut] == 1, cols[cut], rows[cut])] = True
        use_first = (np.bincount(group[first_end], minlength=count)
                     <= np.bincount(group[second_end], minlength=count))
        s = side[nodes]
        s[np.where(use_first[g], first_end[nodes], second_end[nodes])] = 3

        n1 = np.bincount(g, weights=s == 1, minlength=count).astype(np.int64)
        n2 = np.bincount(g, weights=s == 2, minlength=count).astype(np.int64)
        placed = (s == 0) | (s == 3)
        offset = np.where(split, start + n1 + n2, start)
        # the placed vertices of each group take its range in ranked order
        in_rank = ranked[placed[ranked]]
        placed_groups = g[in_rank]
        position[nodes[in_rank]] = (offset[placed_groups] + np.arange(len(in_rank))
                                    - np.searchsorted(placed_groups, placed_groups))
        group[nodes[placed]] = -1
        halves = ~placed
        child = np.cumsum(split) - 1
        group[nodes[halves]] = 2 * child[g[halves]] + (s[halves] == 2)
        start = np.column_stack([start[split], start[split] + n1[split]]).ravel()
        cuts = np.arange(int(split.sum()))
        low_first, high_first = low[split], high[split].copy()
        high_first[cuts, axis[split]] = median[split]
        low_second = low[split].copy()
        low_second[cuts, axis[split]] = median[split]
        low = np.stack([low_first, low_second], axis=1).reshape(-1, dim)
        high = np.stack([high_first, high[split]], axis=1).reshape(-1, dim)
        nodes = nodes[halves]
        # every cut edge lost its separator end, so no edge joins two groups
        inside = (group[rows] >= 0) & (group[cols] >= 0)
        rows, cols = rows[inside], cols[inside]
    order = np.empty(n, dtype=np.int64)
    order[position] = np.arange(n)
    return order


# ---------------------------------------------------------------------------
# Per-mesh operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Operators:
    """Stiffness, mass, load M 1, volume 1^T M 1 and the nested-dissection
    ordering of one mesh.

    Obtained from `operators`, which builds them once per mesh.  The
    ordering is computed on first access to `order`, once, under a lock, so
    a mesh whose pencils never reach a factorization is never ordered.  The
    matrix, load and ordering arrays are write-locked, like the mesh's own
    arrays.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    load: np.ndarray
    volume: float
    _nodes: np.ndarray = field(repr=False)
    _order: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _order_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                        repr=False)

    @property
    def order(self) -> np.ndarray:
        """The nested-dissection ordering of the mesh's nodes."""
        with self._order_lock:
            if self._order is None:
                order = _nested_dissection(self._nodes, self.mass)
                order.setflags(write=False)
                object.__setattr__(self, "_order", order)
        return self._order

    def restrict(self, fixed):
        """(free, K_ff, M_ff): the free node indices and the matrices with
        the rows/columns of the fixed nodes removed (Dirichlet on them)."""
        if len(fixed) == 0:
            raise ArgumentError("no fixed nodes: nothing to eliminate")
        free = np.setdiff1d(np.arange(self.stiffness.shape[0]), fixed)
        if len(free) == 0:
            raise ArgumentError("every node is fixed: no degrees of freedom left")
        return free, self.stiffness[free][:, free], self.mass[free][:, free]

    def free_order(self, free: np.ndarray) -> np.ndarray:
        """The ordering restricted to the free nodes, in the numbering of
        `restrict`'s matrices; the free nodes keep their relative order."""
        index = np.full(len(self.order), -1, dtype=np.int64)
        index[free] = np.arange(len(free))
        kept = index[self.order]
        return kept[kept >= 0]


# Keyed weakly by mesh; an Operators holds no reference back to its mesh (only
# to its node array), so an entry lives exactly as long as the mesh does.
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
            ops = _OPERATORS[mesh] = Operators(k, m, load, float(ones @ load), mesh.nodes)
    return ops


def hierarchy(mesh: Mesh, free: Optional[np.ndarray] = None) -> list:
    """The order argument of `eigensolve.shifted_factor` for pencils on
    mesh: a function returning mesh's ordering, then, on a planar mesh, one
    (P, function returning the level's ordering) pair for each coarser
    level of its hierarchy, finest first, with P the level's prolongation
    onto the one above it.  An interval lists no coarser level: its
    tridiagonal LU has no fill to save.

    With free, the sorted free nodes of a pencil pinned on the other nodes
    (`Operators.restrict`), the levels are the pinned pencil's: a coarse
    node is free when it is a free node of the level above, as refinement
    keeps the coarse numbering, each P is restricted to the free nodes of
    both levels, and each ordering to its level's free nodes.  The coarse
    spaces are then exact where the fixed nodes are a union of boundary
    facets' nodes (gamma, the boundary): a coarse function that vanishes on
    them interpolates to one that vanishes on them.  Orderings stay lazy,
    so a coarse level's operators are assembled only when it is factored."""
    levels = [_ordering(mesh, free)]
    while mesh.dim == 2 and mesh.coarse is not None:
        mesh, prolongation = mesh.coarse
        if free is not None:
            fine_free, free = free, free[:np.searchsorted(free, mesh.num_nodes)]
            prolongation = prolongation[fine_free][:, free]
        levels.append((prolongation, _ordering(mesh, free)))
    return levels


def _ordering(mesh: Mesh, free: Optional[np.ndarray] = None):
    if free is None:
        return lambda: operators(mesh).order
    return lambda: operators(mesh).free_order(free)
