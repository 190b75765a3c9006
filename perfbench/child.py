"""One workload process: set-up, then timed passes, traced with --trace 1.

run.py starts this script from the checkout root with PYTHONPATH on the
checkout's ``src`` and BLAS threads pinned to 1.  It writes ``ready`` to
--result-fd once set-up (import, oracles, warm-up on coarse meshes) is
done, then one JSON line with its results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional

import ops
import spans

MAX_ERRORS = 5
# Spans of every traced pass, written when a traced run ends (relative to
# the checkout root).
SPANS_FILE = os.path.join(".perfbench_out", "spans-{workload}-seed{seed}.json")


@dataclass
class PassResult:
    wall: float
    cpu: float
    ops_run: int
    errors: List[str]
    oracle_err: Optional[float]


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(op_list, tracer=None) -> PassResult:
    """Run one pass; every op failure is caught, counted and described.

    With a tracer, it is installed around the timed region only."""
    errors = []
    oracle = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        for op in op_list:
            if tracer is not None:
                tracer.op = op.name
            try:
                err = op.run()
            except (Exception, SystemExit) as exc:
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            if err is not None:
                oracle.append(err)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return PassResult(wall, cpu, len(op_list), errors, max(oracle, default=None))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--coarse", action="store_true",
                        help="timed passes on the warm-up meshes (smoke mode)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result-fd", type=int, required=True)
    args = parser.parse_args(argv)

    channel = os.fdopen(args.result_fd, "w", buffering=1)
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        oracles = ops.Oracles()

        def build(index, coarse):
            return ops.build(args.workload, args.seed, index, coarse, oracles, tmpdir)

        warm = run_pass(build(0, coarse=True))
        channel.write("ready\n")
        result = {"ops_run": 0, "errors": []} if args.setup_only else _timed(args, build)
        result["attempted"] = warm.ops_run + result.pop("ops_run")
        errors = warm.errors + result.pop("errors")
        result["failed"] = len(errors)
        result["errors"] = errors[:MAX_ERRORS]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        channel.write(json.dumps(result) + "\n")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        channel.close()
    return 0


def _timed(args, build) -> dict:
    """Passes until --seconds have elapsed, at least one.  With --trace 1
    every pass is traced."""
    tracer = spans.Tracer() if args.trace else None
    passes, layers, described, recorded = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        index = len(passes) + 1
        op_list = build(index, args.coarse)
        res = run_pass(op_list, tracer)
        passes.append(res)
        if tracer is None:
            continue
        per_layer = spans.layer_metrics(tracer.spans)
        per_layer["trace.pass_s"] = res.wall
        per_layer["trace.unattributed_s"] = res.wall - sum(
            per_layer[f"{layer}.self_s"] for layer in spans.LAYERS)
        layers.append(per_layer)
        if not described:
            dofs = spans.op_dofs(tracer.spans)
            described = [{"name": op.name, "what": op.what, "dofs": dofs.get(op.name)}
                         for op in op_list]
        recorded.append({"pass": index, "spans": [s.as_dict() for s in tracer.spans]})
        tracer.reset()
    if tracer is not None:
        os.makedirs(os.path.dirname(SPANS_FILE), exist_ok=True)
        with open(SPANS_FILE.format(workload=args.workload, seed=args.seed), "w") as fh:
            json.dump(recorded, fh)
    oracle = [r.oracle_err for r in passes if r.oracle_err is not None]
    out = {
        "ops_run": sum(r.ops_run for r in passes),
        "errors": [e for r in passes for e in r.errors],
        "pass_s": [r.wall for r in passes],
        "cpu_s": [r.cpu for r in passes],
        "oracle_rel_err": max(oracle, default=None),
    }
    if tracer is not None:
        out["layers"] = layers
        out["ops"] = described
    return out


if __name__ == "__main__":
    sys.exit(main())
