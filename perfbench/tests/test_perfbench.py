"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from robinspec import cli  # noqa: E402


def _snapshot():
    """Every attribute of every robinspec module and of its classes."""
    snap = {}
    for mod in spans._package_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    snap[(mod.__name__, attr, meth)] = fn
    return snap


def _assert_same(before, after):
    """No attribute was replaced (a pass may import new modules)."""
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_smoke_mode_reports_every_metric_without_failures():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"  {metric['name']} = " in proc.stdout
    assert proc.stdout.count("failed_frac = 0 1") == 2 * len(spec["workloads"])
    with open(os.path.join(ROOT, child.SPANS_FILE.format(workload="mass-sweep", seed=1))) as fh:
        recorded = json.load(fh)
    fields = {"name", "start", "end", "parent", "op", "thread"}
    assert recorded and all(fields <= set(s) for p in recorded for s in p["spans"])


@pytest.mark.parametrize("seconds", ["0", "61", "2.5"])
def test_driver_rejects_run_lengths_outside_the_format(seconds):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "mass-sweep", "--seed", "1", "--seconds", seconds,
                  "--trace", "0"])
    assert exc.value.code == 2


def test_tracer_patches_aliases_and_restores_every_attribute():
    from robinspec import eigensolve, mixed_dn, robin
    before = _snapshot()
    originals = (robin.smallest_eigs, mixed_dn.solve_spd, eigensolve.splu,
                 mixed_dn.MixedProblem.optimal_eigenvalue)
    tracer = spans.Tracer()
    with tracer:
        patched = (robin.smallest_eigs, mixed_dn.solve_spd, eigensolve.splu,
                   mixed_dn.MixedProblem.optimal_eigenvalue)
        assert all(p is not o for p, o in zip(patched, originals))
    _assert_same(before, _snapshot())


def test_untraced_pass_leaves_the_package_untouched():
    before = _snapshot()
    oracles = ops.Oracles()
    res = child.run_pass(ops.build("mass-sweep", 3, 1, True, oracles, _tmp()))
    assert res.errors == []
    _assert_same(before, _snapshot())


def _tmp():
    path = os.path.join(ROOT, ".perfbench_tmp", "tests")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.mark.parametrize("argv", [
    ["bounds", "--domain", "square", "--m", "0.05,1,30,2000", "--levels", "3"],
    ["hardy", "--domain", "square", "--sigma", "1,4", "--alpha", "0.25,auto",
     "--trials", "5", "--levels", "2", "--seed", "7"],
])
def test_tracing_keeps_cli_stdout_byte_identical(argv):
    plain = _cli_stdout(argv)
    with spans.Tracer():
        traced = _cli_stdout(argv)
    assert traced == plain


def test_pool_worker_spans_keep_parent_and_op():
    tracer = spans.Tracer()
    tracer.op = "bounds-op"
    with tracer:
        _cli_stdout(["bounds", "--domain", "square", "--m", "0.05,1,30,2000",
                     "--levels", "3"])
    by_id = {s.id: s for s in tracer.spans}
    pools = [s for s in tracer.spans if s.name == spans.POOL]
    items = [s for s in tracer.spans if s.name == spans.POOL_ITEM]
    assert len(pools) == 1 and len(items) == 4
    assert all(s.parent == pools[0].id for s in items)
    assert all(s.op == "bounds-op" for s in tracer.spans)
    main = threading.get_ident()
    assert any(s.thread != main for s in items)
    # every eigensolve in a worker thread chains up to a pool item
    worker_eigs = [s for s in tracer.spans
                   if s.name == "eigensolve.smallest_eigs" and s.thread != main]
    assert worker_eigs
    for s in worker_eigs:
        while s.name != spans.POOL_ITEM:
            s = by_id[s.parent]
        assert s.parent == pools[0].id
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mixed_dn.problems"] == 4
    assert metrics["eigensolve.factorizations"] >= 4 + metrics["mixed_dn.newton_steps"]
    assert metrics["cli.pool.concurrency"] > 0.0


def _span(name, start, end, thread, sid, parent=None):
    s = spans.Span(sid, name, parent, "op")
    s.start, s.end, s.thread = start, end, thread
    return s


def test_self_times_split_parallel_time_and_sum_to_covered_wall():
    recorded = [
        _span("cli.main", 0.0, 10.0, 1, 1),
        _span("geometry.refine", 1.0, 2.0, 1, 2, 1),
        _span(spans.POOL, 3.0, 9.0, 1, 3, 1),
        _span(spans.POOL_ITEM, 3.0, 9.0, 2, 4, 3),
        _span("eigensolve.splu", 3.0, 9.0, 2, 5, 4),
        _span(spans.POOL_ITEM, 3.0, 6.0, 3, 6, 3),
        _span("mixed_dn.MixedProblem", 3.0, 6.0, 3, 7, 6),
    ]
    self_s = spans.self_times(recorded)
    assert self_s["geometry"] == pytest.approx(1.0)
    assert self_s["mixed_dn"] == pytest.approx(1.5)   # shares 3..6 with splu
    assert self_s["eigensolve"] == pytest.approx(4.5)  # 1.5 shared + 3 alone
    assert self_s["cli"] == pytest.approx(3.0)         # 0..1, 2..3, 9..10
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_layer_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.layer_metrics([])) | {
        "trace.pass_s", "trace.unattributed_s", "trace.overhead_s"}
    assert names == produced


def test_traced_passes_reach_every_layer():
    oracles = ops.Oracles()
    reached = set()
    for workload in ops.WORKLOADS:
        tracer = spans.Tracer()
        res = child.run_pass(ops.build(workload, 3, 1, True, oracles, _tmp()), tracer)
        assert res.errors == []
        reached |= {s.layer for s in tracer.spans}
    assert reached == set(spans.LAYERS)


def test_pass_inputs_depend_on_seed_and_pass_only():
    oracles = ops.Oracles()

    def argvs(seed, index):
        return [op.what for op in ops.build("mass-sweep", seed, index, False, oracles, "t")]

    assert argvs(5, 2) == argvs(5, 2)
    assert argvs(5, 2) != argvs(5, 3)
    assert argvs(5, 2) != argvs(6, 2)


def test_checks_reject_wrong_outputs():
    with pytest.raises(ops.CheckFailed):
        ops._oracle(1.01 * ops.SQUARE_E1, ops.SQUARE_E1, ops.SQUARE_ORACLE_C, 7, "E1")
    assert ops._oracle(ops.SQUARE_E1, ops.SQUARE_E1, ops.SQUARE_ORACLE_C, 7, "E1") == 0.0
    with pytest.raises(ops.CheckFailed):
        ops._all_pass([{"pass": "true"}, {"pass": "false"}])
    with pytest.raises(ops.CheckFailed):
        ops._csv_rows("a,b\n1,2\n", ["a", "b"], 2)


def test_failing_op_is_counted_not_raised():
    def broken():
        raise ops.CheckFailed("wrong answer")

    res = child.run_pass([ops.Op("ok", lambda: 1e-3), ops.Op("bad", broken)])
    assert res.ops_run == 2
    assert res.errors == ["bad: CheckFailed: wrong answer"]
    assert res.oracle_err == 1e-3
