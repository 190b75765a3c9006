"""Command-line front end producing reproducible JSON/CSV reports.

Commands: solve, optimal, bounds, scaling, hardy, converge, mesh.  One
parser takes the command and every flag, in any order; flags may be
preloaded from a JSON config file (--config), and explicit flags override
the file.  `main` builds the domain and mesh, runs the command on them and
writes the report it returns.  All floating-point output is printed with 12
significant digits so reruns diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from . import assembly, bounds, eigensolve, exact1d, geometry, mixed_dn, robin
from .assembly import SigmaField
from .errors import (ArgumentError, ConvergenceError, GeometryError, RobinspecError,
                     UnsupportedDomainError)
from .geometry import DomainSpec, build_mesh, gamma_arcs, gamma_all, gamma_none, gamma_sides

# Each worker solves its own pinned problem (a coarse LU and its V-cycle
# above the coarse size, a fine LU at or below it).  The pool adds no speed:
# on 2 cores, `bounds` with four masses on the square at level 7 took
# 0.33 s on it against 0.34 s as four problems in series and 0.21 s as one
# problem (medians of 10), though two threads of CSR products with that
# mesh's stiffness ran 1.6 times as fast as the same products in series.
_MAX_WORKERS = min(4, os.cpu_count() or 1)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _numbers(text, what: str, sep: str = ",", count: Optional[int] = None,
             kind=float) -> list:
    """The sep-separated finite numbers in text; malformed input is an
    ArgumentError."""
    try:
        vals = [kind(t) for t in str(text).split(sep) if t != ""]
    except ValueError:
        vals = None
    if (vals is None or not all(math.isfinite(v) for v in vals)
            or (count is not None and len(vals) != count)):
        raise ArgumentError(f"cannot parse {what} {text!r}")
    return vals


def _parse_grid(text: str) -> List[float]:
    vals = _numbers(text, "parameter grid")
    if not vals:
        raise ArgumentError("empty parameter grid")
    return vals


def _parse_gamma(text: str):
    text = str(text)
    if text == "all":
        return gamma_all()
    if text == "none":
        return gamma_none()
    if text.startswith("edges="):
        return gamma_sides(*_numbers(text[len("edges="):], "gamma sides", kind=int))
    if text.startswith("arc="):
        return gamma_arcs([tuple(_numbers(part, "gamma arc", sep=":", count=2))
                           for part in text[len("arc="):].split(",")])
    raise ArgumentError(f"cannot parse gamma selector {text!r}")


def _domain_from(opts: dict) -> DomainSpec:
    kind = opts["domain"]
    gamma = _parse_gamma(opts["gamma"])
    if kind == "interval":
        return geometry.interval(opts["a"], opts["b"], gamma=gamma)
    if kind == "square":
        return geometry.unit_square(gamma=gamma)
    if kind == "rect":
        return geometry.rectangle(opts["width"], opts["height"], gamma=gamma)
    if kind == "triangle":
        return geometry.polygon([(0, 0), (1, 0), (0, 1)], gamma=gamma)
    if kind == "polygon":
        if not opts.get("vertices"):
            raise ArgumentError("--vertices required for --domain polygon")
        verts = [tuple(_numbers(pair, "polygon vertex", count=2))
                 for pair in str(opts["vertices"]).split(";")]
        return geometry.polygon(verts, gamma=gamma)
    if kind == "disk":
        cx, cy = _numbers(opts["center"], "disk center", count=2)
        return geometry.disk((cx, cy), opts["radius"], int(opts["segments"]), gamma=gamma)
    raise ArgumentError(f"unknown domain {kind!r}")


def _mesh_at_level(domain: DomainSpec, level: int, target_h: Optional[float]):
    """The base mesh of target_h, or the unrefined base mesh without one,
    refined level times; the result carries the hierarchy (`Mesh.coarse`)
    down to the unrefined base mesh."""
    mesh = build_mesh(domain, math.inf if target_h is None else target_h)
    geometry.check_refinement(mesh, level)
    for _ in range(level):
        mesh = geometry.refine(mesh)
    return mesh


def _sigma_from(opts: dict) -> SigmaField:
    """The boundary coefficient the options give, the same on every mesh of
    the domain: --sigma-a/--sigma-b at an interval's ends (its two boundary
    facets, left then right, on every interval mesh), else --sigma on gamma."""
    if opts["domain"] == "interval" and (opts.get("sigma_a") is not None
                                         or opts.get("sigma_b") is not None):
        return SigmaField.per_edge([opts.get("sigma_a") or 0.0, opts.get("sigma_b") or 0.0])
    value = opts.get("sigma")
    if value is None:
        raise ArgumentError("a sigma value is required (--sigma or --sigma-a/--sigma-b)")
    (sigma,) = _numbers(value, "sigma", count=1)
    return SigmaField.on_gamma(sigma)


def _csv(rows: List[List[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _render(report) -> str:
    """A command's report as text: a JSON payload or CSV rows."""
    return json.dumps(report, indent=2) + "\n" if isinstance(report, dict) else _csv(report)


def _pool_map(fn, items):
    if len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(_MAX_WORKERS, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(opts: dict, domain: DomainSpec, mesh) -> dict:
    res = robin.lowest_eigenvalue(mesh, _sigma_from(opts))
    return {
        "lambda1": float(_fmt(res.value)),
        "residual": float(_fmt(res.residual)),
        "level": opts["levels"],
        "h": float(_fmt(geometry.max_element_diameter(mesh))),
        "dofs": mesh.num_nodes,
    }


def cmd_optimal(opts: dict, domain: DomainSpec, mesh) -> dict:
    (mass,) = _numbers(opts["m"], "mass", count=1)
    opt = mixed_dn.MixedProblem(mesh).optimal_sigma(mass)
    nodes, arclen = geometry.gamma_arclength(mesh)
    sigma_vals = np.asarray(opt.sigma.values)
    rows = [["arclength", "sigma_m"]] + [[_fmt(s), _fmt(sigma_vals[node])]
                                         for s, node in zip(arclen, nodes)]
    with open(opts["csv"], "w") as fh:
        fh.write(_csv(rows))
    return {
        "m": float(_fmt(opt.mass)),
        "xi": float(_fmt(opt.value)),
        "E1": float(_fmt(opt.ground.value)),
        "mass_defect": float(_fmt(opt.mass_defect)),
        "lambda_check": float(_fmt(opt.lambda_check)),
        "level": opts["levels"],
        "dofs": mesh.num_nodes,
    }


def cmd_bounds(opts: dict, domain: DomainSpec, mesh) -> List[List[str]]:
    """The optimal-eigenvalue sandwich for each mass of --m, then the Robin
    inradius sandwich for each sigma of --sigma (its m column empty)."""
    m_grid = _parse_grid(opts["m"]) if opts.get("m") else []
    reports = list(zip(map(_fmt, m_grid), _pool_map(
        lambda m: bounds.optimal_eigenvalue_sandwich(mesh, m), m_grid)))
    if opts.get("sigma"):
        reports += [("", bounds.robin_inradius_report(mesh, domain, s))
                    for s in _parse_grid(opts["sigma"])]
    return [["quantity", "m", "lower", "computed", "upper",
             "slack_lower", "slack_upper", "tol", "pass"]] + [
        [rep.quantity, m, _fmt(rep.lower), _fmt(rep.computed), _fmt(rep.upper),
         _fmt(rep.slack_lower), _fmt(rep.slack_upper), _fmt(rep.tol), str(rep.passed).lower()]
        for m, rep in reports]


def cmd_scaling(opts: dict, domain: DomainSpec, mesh) -> List[List[str]]:
    """The scale grid and both limits.  For P1, eps^2 lambda1 <= the expand
    limit holds exactly (the pinned ground state is a test vector on which
    B vanishes), so a row above it is an eigenvalue the family's stop
    accepted unconverged, a ConvergenceError.  Where sigma vanishes the
    limit is 0 and lambda1 is round-off, which is not checked."""
    sigma = _sigma_from(opts)
    table = bounds.scaling_table(mesh, sigma, _parse_grid(opts["eps"]))
    shrink, expand = bounds.scaling_limits(mesh, sigma)
    for row in table:
        if expand > 0 and row.eps2_eigenvalue > expand * (1 + eigensolve.DEFAULT_TOL):
            raise ConvergenceError(
                f"eps^2 lambda1 = {row.eps2_eigenvalue!r} at eps = {row.eps!r} exceeds "
                f"the expand limit {expand!r}: the eigensolve stopped unconverged")
    return [["eps", "lambda1", "eps_lambda1", "eps2_lambda1", "shrink_limit", "expand_limit"]] + [
        [_fmt(row.eps), _fmt(row.eigenvalue), _fmt(row.eps_eigenvalue),
         _fmt(row.eps2_eigenvalue), _fmt(shrink), _fmt(expand)] for row in table]


def cmd_hardy(opts: dict, domain: DomainSpec, mesh) -> List[List[str]]:
    pairs = []
    for s in _parse_grid(opts["sigma"]):
        for tok in str(opts["alpha"]).split(","):
            if tok == "auto" and s <= 0:
                raise ArgumentError("--alpha auto means 1/(2 sigma) and needs sigma > 0")
            pairs.append((s, 0.5 / s if tok == "auto" else _numbers(tok, "alpha", count=1)[0]))
    reports = bounds.hardy_reports(mesh, pairs, trials=opts["trials"], seed=opts["seed"])
    return [["sigma", "alpha", "coefficient", "trials", "violations", "pass"]] + [
        [_fmt(s), _fmt(a), _fmt(rep.coefficient), str(len(rep.trials)),
         str(rep.violations), str(rep.passed).lower()] for (s, a), rep in zip(pairs, reports)]


def cmd_converge(opts: dict, domain: DomainSpec, mesh) -> List[List[str]]:
    """The --levels refinements of the base mesh that `_mesh_at_level`
    built, numbered 1..--levels, each as one level of its hierarchy.  order
    is log2 of the ratio of successive diffs; it is left empty when either
    diff is within `eigensolve.eigenvalue_floor` of its eigenvalue, where
    the difference is round-off rather than discretization error."""
    values, hs, dofs, ops = [], [], [], []
    for level_mesh, res in robin.refinement_levels(mesh, _sigma_from(opts), opts["levels"]):
        values.append(res.value)
        hs.append(geometry.max_element_diameter(level_mesh))
        dofs.append(level_mesh.num_nodes)
        ops.append(assembly.operators(level_mesh))
    rows = [["level", "h", "dofs", "lambda1", "diff", "order"]]
    diffs = [abs(values[i] - values[i + 1]) for i in range(len(values) - 1)]
    resolved = [diffs[i] > eigensolve.eigenvalue_floor(max(abs(values[i]), abs(values[i + 1])),
                                                       ops[i + 1].stiffness, ops[i + 1].mass)
                for i in range(len(diffs))]
    for i, lam in enumerate(values):
        diff = _fmt(diffs[i]) if i < len(diffs) else ""
        order = ""
        if i + 1 < len(diffs) and resolved[i] and resolved[i + 1]:
            order = _fmt(math.log2(diffs[i] / diffs[i + 1]))
        rows.append([str(i + 1), _fmt(hs[i]), str(dofs[i]), _fmt(lam), diff, order])
    return rows


def cmd_mesh(opts: dict, domain: DomainSpec, mesh) -> None:
    if not opts.get("out"):
        raise ArgumentError("mesh export needs --out")
    geometry.write_mesh(mesh, opts["out"])


_COMMANDS = {
    "solve": cmd_solve,
    "optimal": cmd_optimal,
    "bounds": cmd_bounds,
    "scaling": cmd_scaling,
    "hardy": cmd_hardy,
    "converge": cmd_converge,
    "mesh": cmd_mesh,
}

_DEFAULTS = {
    "domain": "square", "gamma": "all",
    "a": 0.0, "b": 1.0, "width": 2.0, "height": 1.0,
    "center": "0,0", "radius": 1.0, "segments": 16,
    "vertices": None,
    "sigma": None, "sigma_a": None, "sigma_b": None,
    "m": "1", "eps": "1", "alpha": "0.5", "trials": 25,
    "levels": 3, "target_h": None,
    "out": None, "csv": "sigma_m.csv", "seed": 42,
    "config": None,
}


# argparse types of the numeric flags; the other flags are strings
_FLAG_TYPES = {
    "a": float, "b": float, "width": float, "height": float, "radius": float,
    "segments": int, "sigma_a": float, "sigma_b": float, "trials": int,
    "levels": int, "target_h": float, "seed": int,
}
_NONNEGATIVE = ("levels", "trials", "seed")
_DOMAINS = ["interval", "square", "rect", "triangle", "polygon", "disk"]


class _Parser(argparse.ArgumentParser):
    """Reports a flag that does not parse as an ArgumentError, which ends
    like every other configuration error."""

    def error(self, message):
        raise ArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robinspec",
        description="Robin eigenvalue solves, optimal boundary coefficients, "
                    "and bound certification tables.")
    parser.add_argument("command", choices=_COMMANDS)
    for key in _DEFAULTS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_FLAG_TYPES.get(key),
                            choices=_DOMAINS if key == "domain" else None)
    return parser


def _check_value(key: str, value) -> None:
    """An option's value must have its flag's type, a number must be finite,
    and the integers of `_NONNEGATIVE` must not be negative; numbers may
    also stand in for the string flags (e.g. "sigma": 1.0)."""
    allowed = {int: (int,), float: (int, float)}.get(_FLAG_TYPES.get(key), (str, int, float))
    if value is not None and (isinstance(value, bool) or not isinstance(value, allowed)):
        raise ArgumentError(f"option {key!r} has a value of the wrong type: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ArgumentError(f"option {key!r} must be finite, got {value!r}")
    if key in _NONNEGATIVE and value is not None and value < 0:
        raise ArgumentError(f"option {key!r} must be nonnegative, got {value!r}")


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ArgumentError("a config file must hold one JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_value(key, value)
        opts.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        _check_value(key, value)
        opts[key] = value
    return opts


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        opts = _merge_options(args)
        domain = _domain_from(opts)
        mesh = _mesh_at_level(domain, opts["levels"], opts.get("target_h"))
        report = _COMMANDS[args.command](opts, domain, mesh)
        if report is not None:
            if opts.get("out"):
                with open(opts["out"], "w") as fh:
                    fh.write(_render(report))
            else:
                sys.stdout.write(_render(report))
        return 0
    except (RobinspecError, OSError, json.JSONDecodeError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(diagnostic) + "\n")
        malformed = (ArgumentError, GeometryError, json.JSONDecodeError, OSError)
        if isinstance(exc, malformed) and not isinstance(exc, UnsupportedDomainError):
            return 2
        return 3


if __name__ == "__main__":
    sys.exit(main())
