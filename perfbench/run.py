"""robinspec benchmark driver.

    python3 perfbench/run.py --workload mass-sweep --seed 1 --seconds 30 [--trace 0]
    python3 perfbench/run.py --smoke

Run from the repository root (the program is imported from ``src``).  Each
invocation measures one workload in a fresh subprocess (child.py) with the
BLAS thread pools pinned to one thread, so robinspec's own thread pool is
the only parallelism.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``, whose spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  ``--smoke`` runs every workload
once on coarse meshes in both modes and exits non-zero if a metric is
missing or an op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# The largest run_seconds the benchmark format admits; set-up and the last
# pass still fit TIME_LIMIT_S.
MAX_SECONDS = 60
# Per-layer metrics in these units vary run to run and are medians over the
# traced passes; the rest are counts, taken from the first traced pass,
# whose inputs depend on the seed alone.
TIMED_UNITS = ("s", "s/s")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(argv, deadline):
    """Run child.py; return (seconds until it reported ready, its result)."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **BLAS_PIN)
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *argv, "--result-fd", str(write_fd)],
                            cwd=ROOT, env=env, pass_fds=(write_fd,), stdout=sys.stderr)
    os.close(write_fd)
    ready_s, lines, buf = None, [], b""
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                raise BenchError("workload process timed out")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line == b"ready" and ready_s is None:
                    ready_s = time.perf_counter() - t0
                else:
                    lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process did not exit") from exc
    finally:
        os.close(read_fd)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None or not lines:
        raise BenchError(f"workload process failed (exit code {code})")
    return ready_s, json.loads(lines[-1])


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result of the measuring process, setup
    samples, attempted, failed, errors), the last three over every process.

    Untraced, set-up is sampled in SETUP_SAMPLES processes, the last of which
    measures.  Traced, an untraced and a traced process each take half the
    time; both see the same inputs pass by pass, which gives the overhead."""
    deadline = time.monotonic() + TIME_LIMIT_S
    totals = {"attempted": 0, "failed": 0, "errors": []}

    def child(traced, secs, *extra):
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(secs),
                "--trace", str(traced), *(["--coarse"] if smoke else []), *extra]
        ready_s, res = _child(argv, deadline)
        for key in totals:
            totals[key] += res[key]
        return ready_s, res

    if trace:
        _, plain = child(0, seconds / 2)
        _, res = child(1, seconds / 2)
        res["plain_pass_s"] = plain["pass_s"]
        return res, [], totals["attempted"], totals["failed"], totals["errors"]
    setup = [child(0, seconds, "--setup-only")[0]
             for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
    ready_s, res = child(0, seconds)
    setup.append(ready_s)
    return res, setup, totals["attempted"], totals["failed"], totals["errors"]


def end_to_end(res, setup):
    return {
        "pass_s": statistics.median(res["pass_s"]),
        "cpu_s": statistics.median(res["cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup),
        "oracle_rel_err": res["oracle_rel_err"],
    }


def per_layer(res, spec):
    layers = res["layers"]
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            # traced minus untraced wall of the same pass, median over passes
            out[name] = statistics.median(
                t - u for t, u in zip(res["pass_s"], res["plain_pass_s"]))
        elif metric["unit"] in TIMED_UNITS:
            out[name] = statistics.median(l[name] for l in layers)
        else:
            out[name] = layers[0][name]
    return out


def report(workload, seed, seconds, trace, spec, smoke=False):
    """Measure and build the result object; raise BenchError on a gap."""
    res, setup, attempted, failed, errors = measure(workload, seed, seconds, trace, smoke)
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    values = per_layer(res, spec) if trace else end_to_end(res, setup)
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in defs:
        value = values.get(metric["name"])
        if value is None:
            raise BenchError(f"metric {metric['name']} not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    info = {"workload": workload, "passes": res["pass_s"],
            "failed_frac": failed / attempted if attempted else 1.0}
    if trace:
        info["ops"] = res["ops"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def _print_human(result, info):
    passes = " ".join(f"{p:.3f}" for p in info["passes"])
    print(f"workload {info['workload']}: {result['attempted']} ops, "
          f"{result['failed']} failed; pass walls {passes} s")
    print(f"  failed_frac = {info['failed_frac']:.6g} 1")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for op in info.get("ops", []):
        print(f"  op {op['name']} ({op['dofs']} nodes): {op['what']}")


def smoke(spec) -> int:
    """Every workload once on coarse meshes, untraced and traced."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                result, info = report(workload, 1, 0, trace, spec, smoke=True)
            except BenchError as exc:
                print(f"smoke {workload} trace={trace}: {exc}", file=sys.stderr)
                ok = False
                continue
            _print_human(result, info)
            ok = ok and result["correct"]
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="measuring time (run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "robinspec")):
        print("robinspec sources not found under src/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.smoke:
        return smoke(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("--workload must name a workload of BENCHMARK.json")
    if args.seconds is None or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be a whole number from 1 to {MAX_SECONDS}")
    try:
        result, info = report(args.workload, args.seed, args.seconds, args.trace, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _print_human(result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
