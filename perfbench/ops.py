"""The benchmark's workloads: per-pass op lists and their correctness checks.

An op is one CLI invocation (``robinspec.cli.main`` in-process, stdout
captured) or one library call.  Every op builds its own mesh, as a CLI
invocation does.  Each pass draws its inputs (masses, seeds, the
concentration point) from ``(workload seed, pass index)``, so repeated
passes never see the same inputs.  A check that fails raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from robinspec import cli, exact1d, geometry, mixed_dn, robin, schema

WORKLOADS = ("mass-sweep", "coef-family", "convex-geometry")

# Mesh levels per workload family; COARSE serves warm-up and smoke runs.
FULL = {"square": 7, "convex": 6, "interval": 10}
COARSE = {"square": 4, "convex": 3, "interval": 6}

# Acceptance-suite tolerances on the optimal-coefficient cross-checks.
MASS_DEFECT_RTOL = 1e-3
DUAL_GAP_RTOL = 1e-3

# Oracle gates: P1 eigenvalue errors fall like h^2 = 4^-level.  The
# constants sit about 4x (square) and 7x (interval) above the errors seen.
SQUARE_ORACLE_C = 10.0
INTERVAL_ORACLE_C = 1.0

SQUARE_E1 = 2.0 * math.pi ** 2  # Dirichlet ground eigenvalue of the unit square


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


@dataclass
class Op:
    """One unit of work.  ``run`` returns the op's oracle relative error,
    or None when no oracle applies; ``what`` is the command line or call."""

    name: str
    run: Callable[[], Optional[float]]
    what: str = ""


def _cli_what(argv: List[str]) -> str:
    return "robinspec " + " ".join(argv)


class Oracles:
    """Independent reference values, computed once during set-up."""

    def __init__(self):
        self.interval_optimal = exact1d.optimal_eigenvalue_interval(1.0, 1.0)
        self.interval_robin = exact1d.lowest_eigenvalue(
            exact1d.IntervalProblem(0.0, 1.0, 1.0, 1.0))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _oracle(value: float, exact: float, c: float, level: int, what: str) -> float:
    err = _rel_err(value, exact)
    tol = c * 4.0 ** -level
    _require(err <= tol, f"{what}: relative error {err:.3e} above {tol:.3e}")
    return err


def _run_cli(argv: List[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    _require(code == 0, f"exit code {code}")
    return buf.getvalue()


def _csv_rows(text: str, header: List[str], count: int) -> List[dict]:
    reader = csv.DictReader(io.StringIO(text))
    _require(reader.fieldnames == header, f"unexpected CSV header {reader.fieldnames}")
    rows = list(reader)
    _require(len(rows) == count, f"expected {count} CSV rows, got {len(rows)}")
    return rows


def _all_pass(rows: List[dict]) -> None:
    bad = [r for r in rows if r["pass"] != "true"]
    _require(not bad, f"{len(bad)} rows with pass != true")


BOUNDS_HEADER = ["quantity", "m", "lower", "computed", "upper",
                 "slack_lower", "slack_upper", "tol", "pass"]
HARDY_HEADER = ["sigma", "alpha", "coefficient", "trials", "violations", "pass"]
SCALING_HEADER = ["eps", "lambda1", "eps_lambda1", "eps2_lambda1",
                  "shrink_limit", "expand_limit"]
CONVERGE_HEADER = ["level", "h", "dofs", "lambda1", "diff", "order"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def square_mesh(level: int):
    """The CLI's square mesh at a level, built by the CLI's own recipe."""
    return cli._mesh_at_level(geometry.unit_square(), level, None)


# ---------------------------------------------------------------------------
# Op builders
# ---------------------------------------------------------------------------

def bounds_op(name, argv, rows):
    def run():
        _all_pass(_csv_rows(_run_cli(argv), BOUNDS_HEADER, rows))
        return None
    return Op(name, run, _cli_what(argv))


def optimal_op(name, argv, csv_path, oracle):
    """``optimal`` run; oracle(payload) returns the oracle relative error."""
    def run():
        payload = json.loads(_run_cli(argv))
        schema.validate(payload, schema.load_schema("optimal"))
        m, xi = payload["m"], payload["xi"]
        _require(payload["mass_defect"] <= MASS_DEFECT_RTOL * m,
                 f"mass defect {payload['mass_defect']} at m={m}")
        _require(abs(payload["lambda_check"] - xi) <= DUAL_GAP_RTOL * xi,
                 f"lambda_check {payload['lambda_check']} vs xi {xi}")
        with open(csv_path) as fh:
            sigma_rows = list(csv.reader(fh))
        _require(sigma_rows[0] == ["arclength", "sigma_m"] and len(sigma_rows) > 2,
                 "sigma_m CSV missing or empty")
        return oracle(payload)
    return Op(name, run, _cli_what(argv))


def converge_op(name, argv, levels, oracle=None):
    """``converge`` run: second-order convergence, and the finest value
    against oracle(value) when one is given."""
    def run():
        rows = _csv_rows(_run_cli(argv), CONVERGE_HEADER, levels)
        lams = [float(r["lambda1"]) for r in rows]
        _require(all(lam > 0.0 and math.isfinite(lam) for lam in lams),
                 "non-positive eigenvalue")
        orders = [float(r["order"]) for r in rows if r["order"]]
        _require(all(o >= 1.5 for o in orders), f"convergence orders {orders}")
        return oracle(lams[-1]) if oracle else None
    return Op(name, run, _cli_what(argv))


def mass_sweep(rng, levels, oracles, tmpdir) -> List[Op]:
    """Four masses, one log-uniform draw per band of 1e-2..1e4."""
    sq, iv = levels["square"], levels["interval"]
    bands = [(-2.0, -0.5), (-0.5, 1.0), (1.0, 2.5), (2.5, 4.0)]
    masses = ",".join(_fmt(10.0 ** rng.uniform(lo, hi)) for lo, hi in bands)
    seed_sq, seed_iv = _seed(rng), _seed(rng)
    csv_path = os.path.join(tmpdir, "sigma_m.csv")
    return [
        bounds_op("bounds-square",
                  ["bounds", "--domain", "square", "--m", masses, "--levels", str(sq)], 4),
        optimal_op("optimal-square",
                   ["optimal", "--domain", "square", "--m", "1", "--levels", str(sq),
                    "--seed", str(seed_sq), "--csv", csv_path],
                   csv_path,
                   lambda p: _oracle(p["E1"], SQUARE_E1, SQUARE_ORACLE_C, sq,
                                     "pinned square E1")),
        optimal_op("optimal-interval",
                   ["optimal", "--domain", "interval", "--m", "1", "--levels", str(iv),
                    "--seed", str(seed_iv), "--csv", csv_path],
                   csv_path,
                   lambda p: _oracle(p["xi"], oracles.interval_optimal,
                                     INTERVAL_ORACLE_C, iv, "interval optimum")),
    ]


def coef_family(rng, levels, oracles, tmpdir) -> List[Op]:
    """Coefficient families on one square mesh each: maximality trials,
    the scale-factor grid and a shrinking support."""
    sq = levels["square"]
    seed_max, seed_scale, seed_conc = _seed(rng), _seed(rng), _seed(rng)
    side = int(rng.integers(4))
    t = float(rng.uniform(0.3, 0.7))
    point = [(t, 0.0), (1.0, t), (1.0 - t, 1.0), (0.0, 1.0 - t)][side]
    n_max = sq - 1  # smallest support radius 2^-n_max is two edges wide
    eps = ["0.001", "0.01", "0.1", "1", "10", "100", "1000"]
    scaling_argv = ["scaling", "--domain", "square", "--sigma", "1",
                    "--eps", ",".join(eps), "--levels", str(sq),
                    "--seed", str(seed_scale)]

    def maximality():
        rep = mixed_dn.verify_maximality(square_mesh(sq), 1.0, trials=8, seed=seed_max)
        _require(rep.passed and rep.violations == 0 and len(rep.trials) == 8,
                 f"maximality: {rep.violations} violations")
        return None

    def scaling():
        rows = _csv_rows(_run_cli(scaling_argv), SCALING_HEADER, len(eps))
        shrink = float(rows[0]["shrink_limit"])
        expand = float(rows[0]["expand_limit"])
        for r in rows:
            _require(float(r["eps_lambda1"]) <= shrink * (1 + 1e-9), "above shrink limit")
            _require(float(r["eps2_lambda1"]) <= expand * (1 + 1e-9), "above expand limit")
        _require(_rel_err(float(rows[0]["eps_lambda1"]), shrink) <= 0.02,
                 "shrink limit not reached")
        _require(_rel_err(float(rows[-1]["eps2_lambda1"]), expand) <= 0.02,
                 "expand limit not reached")
        return _oracle(expand, SQUARE_E1, SQUARE_ORACLE_C, sq, "pinned square E1")

    def concentration():
        rows = robin.concentration_sweep(square_mesh(sq), 1.0, point, n_max, seed=seed_conc)
        lams = [r.eigenvalue for r in rows]
        _require(len(lams) == n_max and all(lam > 0.0 for lam in lams),
                 "non-positive eigenvalue")
        _require(all(b < a for a, b in zip(lams, lams[1:])),
                 f"eigenvalues not decreasing as the support shrinks: {lams}")
        return None

    return [
        Op("maximality", maximality,
           f"mixed_dn.verify_maximality(square L{sq}, 1.0, trials=8, seed={seed_max})"),
        Op("scaling", scaling, _cli_what(scaling_argv)),
        Op("concentration", concentration,
           f"robin.concentration_sweep(square L{sq}, 1.0, {point}, {n_max}, seed={seed_conc})"),
    ]


def convex_geometry(rng, levels, oracles, tmpdir) -> List[Op]:
    """Convex-domain bounds: Hardy, inradius sandwiches and convergence."""
    cv, iv = levels["convex"], levels["interval"]
    seed_hardy, seed_disk, seed_iv = _seed(rng), _seed(rng), _seed(rng)
    # the interval's Robin eigenvalues come from exact1d
    iv_sigmas = ",".join(_fmt(10.0 ** rng.uniform(lo, hi)) for lo, hi in [(-1, 0), (0, 1)])
    hardy_argv = ["hardy", "--domain", "square", "--sigma", "1,4",
                  "--alpha", "0.25,auto", "--trials", "25", "--levels", str(cv),
                  "--seed", str(seed_hardy)]

    def hardy():
        rows = _csv_rows(_run_cli(hardy_argv), HARDY_HEADER, 4)
        _all_pass(rows)
        # 25 random functions plus the Robin ground state
        _require(all(r["violations"] == "0" and r["trials"] == "26" for r in rows),
                 "hardy violations")
        return None

    return [
        Op("hardy", hardy, _cli_what(hardy_argv)),
        bounds_op("bounds-triangle",
                  ["bounds", "--domain", "triangle", "--m", "1", "--sigma", "0.5,2",
                   "--levels", str(cv)], 3),
        bounds_op("bounds-interval",
                  ["bounds", "--domain", "interval", "--m", "1", "--sigma", iv_sigmas,
                   "--levels", str(iv)], 3),
        converge_op("converge-disk",
                    ["converge", "--domain", "disk", "--sigma", "1", "--levels", str(cv),
                     "--seed", str(seed_disk)], cv),
        converge_op("converge-interval",
                    ["converge", "--domain", "interval", "--sigma-a", "1", "--sigma-b", "1",
                     "--levels", str(iv), "--seed", str(seed_iv)], iv,
                    lambda lam: _oracle(lam, oracles.interval_robin, INTERVAL_ORACLE_C,
                                        iv, "interval Robin eigenvalue")),
    ]


_BUILDERS = {
    "mass-sweep": mass_sweep,
    "coef-family": coef_family,
    "convex-geometry": convex_geometry,
}


def pass_rng(seed: int, index: int):
    """Input generator of pass ``index`` (0 is the warm-up)."""
    return np.random.default_rng([seed, index])


def build(workload: str, seed: int, index: int, coarse: bool,
          oracles: Oracles, tmpdir: str) -> List[Op]:
    """The op list of one pass of a workload."""
    levels = COARSE if coarse else FULL
    return _BUILDERS[workload](pass_rng(seed, index), levels, oracles, tmpdir)
