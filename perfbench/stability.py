"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/stability.py --seeds 1-10 [--trace]
                                   [--out perfbench/baseline.json]

Runs the driver (run.py) once per seed and workload, with ``run_seconds`` from
BENCHMARK.json, and prints for each end-to-end metric its median and its
quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against the metric's bound.
``--trace`` adds one traced run per workload (first seed).  ``--out`` writes
every run, the summaries and the machine's environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs, defs):
    out = {}
    for metric in defs:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        out[metric["name"]] = {"median": statistics.median(values),
                               "spread": spread(values) if len(values) > 1 else None,
                               "bound": metric.get("bound"), "unit": metric["unit"]}
    return out


def environment():
    import numpy
    import scipy
    llc = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            llc = fh.read().strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "llc": llc, "machine": platform.machine(),
            "cpu": platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    record = {"environment": environment(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, _ = run.report(workload, seed, seconds, 0, spec)
            runs.append(result)
            vals = {k: float(f"{v['value']:.6g}") for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {vals}", flush=True)
        summary = summarize(runs, spec["end_to_end"])
        entry = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            ratio = s["spread"] / s["bound"] if s["spread"] is not None else 0.0
            worst = max(worst, ratio)
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f" (bound {s['bound']}, {ratio:.2f} of it)", flush=True)
        if args.trace:
            # twice on one seed: the counts must repeat exactly
            (traced, info), (again, _) = (run.report(workload, seeds[0], seconds, 1, spec)
                                          for _ in range(2))
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in run.TIMED_UNITS]
            entry["ops"] = info["ops"]
            entry["traced"] = {
                "seed": seeds[0], "correct": traced["correct"] and again["correct"],
                "counts_repeat": all(traced["metrics"][n] == again["metrics"][n] for n in counts),
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"  {workload} traced: {entry['traced']}", flush=True)
        record["workloads"][workload] = entry
    print(f"largest spread/bound: {worst:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
