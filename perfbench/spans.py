"""Span tracing of robinspec's layers from outside the package.

``Tracer.install()`` replaces every public function of the eight layer
modules, the public methods of their classes, ``MixedProblem.__init__``,
``cli._pool_map`` and ``eigensolve.splu`` with wrappers that record one span
per call.  Names a module imported with ``from ... import`` are patched in
the importing module too (e.g. ``robin.smallest_eigs``), found by identity.
``Tracer.uninstall()`` puts every original object back.  Nothing is patched
while no tracer is installed, so untraced runs execute the package as is.

A span records (name, start, end, parent, op id, thread).  Spans opened in
``cli._pool_map`` worker threads take the pool span as parent and inherit
its op id.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "geometry", "assembly", "eigensolve", "robin", "mixed_dn",
          "bounds", "exact1d")

POOL = "cli._pool_map"
POOL_ITEM = "cli._pool_map.item"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "error", "info")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.error = False
        self.info = None
        self.end = None
        self.start = time.perf_counter()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "thread": self.thread, "error": self.error, "info": self.info}


def _splu_info(args, kwargs, lu):
    return {"n": int(lu.shape[0]), "fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _mesh_info(args, kwargs, result):
    return {"mesh": id(args[0]), "nodes": int(args[0].num_nodes)}


def _distances_info(args, kwargs, result):
    return {"points": int(len(result)), "facets": int(len(args[0].boundary))}


def _eigs_info(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# span name -> function(args, kwargs, result) giving the span's info record
_INFO = {
    "eigensolve.splu": _splu_info,
    "eigensolve.smallest_eigs": _eigs_info,
    "assembly.assemble_stiffness": _mesh_info,
    "assembly.assemble_mass": _mesh_info,
    "geometry.distances_to_boundary": _distances_info,
}


class Tracer:
    """Records spans while installed; owns every patch it makes."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._meshes = {}

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None,
                    parent.op if parent is not None else self.op)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _call(self, name, fn, args, kwargs, parent=None):
        span = self._open(name, parent)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)
        info = _INFO.get(name)
        if info is not None:
            span.info = info(args, kwargs, result)
            if "mesh" in span.info:
                # keep the mesh alive so its id stays unique within the pass
                self._meshes[span.info["mesh"]] = args[0]
        return result

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _wrap_pool_map(self, pool_map):
        tracer = self

        @functools.wraps(pool_map)
        def traced_pool_map(fn, items):
            pool_span = tracer._open(POOL)
            try:
                return pool_map(
                    lambda x: tracer._call(POOL_ITEM, fn, (x,), {}, parent=pool_span),
                    items)
            except BaseException:
                pool_span.error = True
                raise
            finally:
                tracer._close(pool_span)

        return traced_pool_map

    def reset(self):
        """Drop recorded spans (between passes)."""
        self.spans = []
        self._meshes = {}

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"robinspec.{name}") for name in LAYERS}
        replaced = {}  # id(original) -> wrapper, for from-imported aliases
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        problem = modules["mixed_dn"].MixedProblem
        self._set(problem, "__init__", self.wrap("mixed_dn.MixedProblem", problem.__init__))
        cli = modules["cli"]
        self._set(cli, "_pool_map", self._wrap_pool_map(cli._pool_map))
        eig = modules["eigensolve"]
        self._set(eig, "splu", self.wrap("eigensolve.splu", eig.splu))
        # from-imported aliases of wrapped functions, in every robinspec module
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "robinspec" or name.startswith("robinspec."))]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _innermost_segments(spans):
    """(start, end, span) pieces of one thread's timeline, each piece owned
    by the innermost open span.  Spans on one thread nest properly."""
    segments = []
    stack = []
    cursor = None
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        while stack and stack[-1].end <= span.start:
            top = stack.pop()
            segments.append((cursor, top.end, top))
            cursor = top.end
        if stack:
            segments.append((cursor, span.start, stack[-1]))
        stack.append(span)
        cursor = span.start
    while stack:
        top = stack.pop()
        segments.append((cursor, top.end, top))
        cursor = top.end
    return [seg for seg in segments if seg[1] > seg[0]]


def self_times(spans):
    """Wall self time per layer.

    Each instant is charged to the innermost span of every thread that is
    busy then, split equally among those threads.  A thread waiting inside
    ``cli._pool_map`` is not busy while a worker runs.  The layer totals
    therefore add up to the wall time the spans cover.
    """
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    timelines = []
    for thread_spans in by_thread.values():
        segs = _innermost_segments(thread_spans)
        timelines.append(([s[0] for s in segs], segs))
    cuts = sorted({t for _, segs in timelines for seg in segs for t in seg[:2]})
    totals = defaultdict(float)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        owners = []
        for starts, segs in timelines:
            i = bisect.bisect_right(starts, mid) - 1
            if i >= 0 and segs[i][0] <= mid < segs[i][1]:
                owners.append(segs[i][2])
        working = [s for s in owners if s.name != POOL]
        owners = working or owners
        for span in owners:
            totals[span.layer] += (hi - lo) / len(owners)
    return {layer: totals.get(layer, 0.0) for layer in LAYERS}


def _assembled(spans):
    return [s for s in spans if s.info and "mesh" in s.info]


def op_dofs(spans):
    """Largest mesh (nodes) each op assembled on."""
    dofs = {}
    for s in _assembled(spans):
        dofs[s.op] = max(dofs.get(s.op, 0), s.info["nodes"])
    return dofs


def layer_metrics(spans):
    """Per-layer counts and busy times of one pass.

    Busy times (``.s``) sum span durations, so calls running in pool
    threads at once add up beyond wall time.  Meshes are told apart by
    identity; the tracer keeps them alive for the pass.
    """
    meshes = len({s.info["mesh"] for s in _assembled(spans)})
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    splu = by_name["eigensolve.splu"]
    eigs = by_name["eigensolve.smallest_eigs"]
    stiffness = calls("assembly.assemble_stiffness")
    factorizations = len(splu)
    pool_wall = busy(POOL)
    dist = by_name["geometry.distances_to_boundary"]
    out = {
        "eigensolve.factorizations": factorizations,
        "eigensolve.factor_s": busy("eigensolve.splu"),
        "eigensolve.fill_nnz": sum(s.info["fill_nnz"] for s in splu),
        "eigensolve.factorizations_per_mesh": factorizations / meshes if meshes else 0.0,
        "eigensolve.smallest_eigs.calls": len(eigs),
        "eigensolve.smallest_eigs.s": busy("eigensolve.smallest_eigs"),
        "eigensolve.opinv_applications": sum(s.info["iterations"] for s in eigs if s.info),
        "eigensolve.dense_calls": sum(1 for s in eigs if s.info and s.info["iterations"] == 0),
        "eigensolve.solve_spd.calls": calls("eigensolve.solve_spd"),
        "eigensolve.solve_spd.s": busy("eigensolve.solve_spd"),
        "eigensolve.failures": sum(1 for s in spans if s.layer == "eigensolve" and s.error),
        "mixed_dn.newton_steps": calls("mixed_dn.MixedProblem.mass_function_with_derivative"),
        "mixed_dn.problems": calls("mixed_dn.MixedProblem"),
        "mixed_dn.optimal_eigenvalue.s": busy("mixed_dn.MixedProblem.optimal_eigenvalue"),
        "robin.lowest_eigenvalue.calls": calls("robin.lowest_eigenvalue"),
        "robin.lowest_eigenvalue.s": busy("robin.lowest_eigenvalue"),
        "assembly.stiffness.calls": stiffness,
        "assembly.mass.calls": calls("assembly.assemble_mass"),
        "assembly.boundary_mass.calls": calls("assembly.assemble_boundary_mass"),
        "assembly.reuse_ratio": meshes / stiffness if stiffness else 0.0,
        "geometry.distances_to_boundary.s": busy("geometry.distances_to_boundary"),
        "geometry.distances_to_boundary.bytes_computed":
            sum(s.info["points"] * s.info["facets"] * 2 * 8 for s in dist if s.info),
        "geometry.refine.calls": calls("geometry.refine"),
        "geometry.refine.s": busy("geometry.refine"),
        "geometry.build_mesh.s": busy("geometry.build_mesh"),
        "geometry.inradius.s": busy("geometry.inradius"),
        "cli.pool.concurrency": busy(POOL_ITEM) / pool_wall if pool_wall else 0.0,
    }
    for layer, seconds in self_times(spans).items():
        out[f"{layer}.self_s"] = seconds
    return out
