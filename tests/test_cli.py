import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robinspec
from robinspec import cli, exact1d, geometry, schema
from robinspec.errors import ConvergenceError


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_square_json(self, capsys):
        code, out, _ = run_cli(["solve", "--domain", "square", "--gamma", "all",
                                "--sigma", "1.0", "--levels", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "lambda1" in payload
        schema.validate(payload, schema.load_schema("solve"))

    def test_interval_matches_exact(self, capsys):
        code, out, _ = run_cli(["solve", "--domain", "interval", "--a", "0",
                                "--b", "1", "--sigma-a", "1", "--sigma-b", "1",
                                "--levels", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        exact = exact1d.lowest_eigenvalue(exact1d.IntervalProblem(0, 1, 1, 1))
        assert abs(payload["lambda1"] - exact) / exact <= 1e-3

    def test_sigma_zero(self, capsys):
        code, out, _ = run_cli(["solve", "--domain", "square", "--sigma", "0",
                                "--levels", "3"], capsys)
        payload = json.loads(out)
        assert abs(payload["lambda1"]) < 1e-9

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "solve.json"
        code, out, _ = run_cli(["solve", "--domain", "square", "--sigma", "1",
                                "--levels", "2", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        schema.validate(json.loads(path.read_text()), schema.load_schema("solve"))


class TestOptimal:
    def test_json_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sigma.csv"
        code, out, _ = run_cli(["optimal", "--domain", "square", "--m", "1",
                                "--levels", "4", "--csv", str(csv_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        schema.validate(payload, schema.load_schema("optimal"))
        assert payload["mass_defect"] <= 1e-3
        assert abs(payload["lambda_check"] - payload["xi"]) / payload["xi"] <= 1e-3
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "arclength,sigma_m"
        assert len(lines) > 10

    def test_partial_gamma_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sigma_side.csv"
        code, out, _ = run_cli(["optimal", "--domain", "square", "--gamma",
                                "edges=0", "--m", "1", "--levels", "3",
                                "--csv", str(csv_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["mass_defect"] <= 1e-6
        rows = csv_path.read_text().splitlines()[1:]
        arclens = [float(r.split(",")[0]) for r in rows]
        assert arclens == sorted(arclens)
        assert abs(arclens[-1] - 1.0) < 1e-12  # one unit side


class TestTables:
    def test_bounds_all_pass(self, capsys):
        code, out, _ = run_cli(["bounds", "--domain", "square",
                                "--m", "0.1,1,10", "--levels", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "quantity"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 3
        assert all(len(row) == len(header) for row in body)
        assert all(row[-1] == "true" for row in body)

    def test_scaling_columns_and_limits(self, capsys):
        code, out, _ = run_cli(["scaling", "--domain", "square", "--sigma", "1",
                                "--eps", "0.001,1,1000", "--levels", "3"], capsys)
        lines = out.splitlines()
        assert lines[0] == "eps,lambda1,eps_lambda1,eps2_lambda1,shrink_limit,expand_limit"
        rows = [ln.split(",") for ln in lines[1:]]
        shrink = float(rows[0][4])
        expand = float(rows[0][5])
        assert abs(float(rows[0][2]) - shrink) / shrink <= 0.02
        assert abs(float(rows[-1][3]) - expand) / expand <= 0.02

    def test_hardy_table(self, capsys):
        code, out, _ = run_cli(["hardy", "--domain", "square", "--sigma", "0.5,2",
                                "--alpha", "0.25,auto", "--trials", "10",
                                "--levels", "3"], capsys)
        lines = out.splitlines()
        assert lines[0] == "sigma,alpha,coefficient,trials,violations,pass"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4
        assert all(r[-1] == "true" for r in rows)

    def test_converge_order(self, capsys):
        code, out, _ = run_cli(["converge", "--domain", "interval",
                                "--sigma-a", "1", "--sigma-b", "1",
                                "--levels", "6"], capsys)
        lines = out.splitlines()
        orders = [float(r.split(",")[5]) for r in lines[1:] if r.split(",")[5]]
        assert all(1.8 <= p <= 2.2 for p in orders)


class TestMeshExport:
    def test_export_and_read(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        code, _, _ = run_cli(["mesh", "--domain", "disk", "--segments", "16",
                              "--levels", "2", "--out", str(path)], capsys)
        assert code == 0
        mesh = geometry.read_mesh(path)
        assert mesh.dim == 2
        assert abs(geometry.area(mesh) - math.pi) / math.pi <= 0.05


class TestReproducibility:
    def test_byte_identical_runs(self, tmp_path):
        # The children run away from the repo, so a relative PYTHONPATH entry
        # (``PYTHONPATH=src``) would no longer find the package: put the
        # directory holding the imported robinspec first, as an absolute path.
        package_root = str(Path(robinspec.__file__).resolve().parent.parent)
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}
        cmd = [sys.executable, "-m", "robinspec.cli", "solve", "--domain",
               "square", "--sigma", "1", "--levels", "3", "--seed", "42"]
        a = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        b = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
        assert a.stdout
        schema.validate(json.loads(a.stdout), schema.load_schema("solve"))
        assert a.stdout == b.stdout

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": "square", "sigma": 1.0, "levels": 2}))
        code1, out1, _ = run_cli(["solve", "--config", str(cfg)], capsys)
        code2, out2, _ = run_cli(["solve", "--config", str(cfg),
                                  "--levels", "3"], capsys)
        assert code1 == code2 == 0
        assert json.loads(out1)["level"] == 2
        assert json.loads(out2)["level"] == 3


class TestErrors:
    def test_bad_gamma_exit_2(self, capsys):
        code, _, err = run_cli(["solve", "--domain", "square", "--sigma", "1",
                                "--gamma", "sideways", "--levels", "1"], capsys)
        assert code == 2
        assert "error" in json.loads(err)

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        code, _, err = run_cli(["solve", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_sigma_exit_2(self, capsys):
        code, _, err = run_cli(["solve", "--domain", "square", "--levels", "1"],
                               capsys)
        assert code == 2

    def test_solver_failure_exit_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceError("no convergence", {"requested": 1})
        monkeypatch.setattr(cli.robin, "lowest_eigenvalue", boom)
        code, _, err = run_cli(["solve", "--domain", "square", "--sigma", "1",
                                "--levels", "1"], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "ConvergenceError"

    @pytest.mark.parametrize("args", [
        ["bounds", "--m", "1,abc", "--levels", "1"],
        ["solve", "--sigma", "abc", "--levels", "1"],
        ["solve", "--sigma", "1,2", "--levels", "1"],
        ["solve", "--sigma", "1", "--gamma", "edges=x", "--levels", "1"],
        ["solve", "--domain", "disk", "--gamma", "arc=0-1", "--sigma", "1", "--levels", "0"],
        ["solve", "--domain", "disk", "--center", "1", "--sigma", "1", "--levels", "0"],
        ["solve", "--domain", "polygon", "--vertices", "0,0;1,0;0", "--sigma", "1"],
        ["hardy", "--sigma", "0", "--alpha", "auto", "--levels", "1"],
        ["hardy", "--sigma", "1", "--alpha", "0.2,x", "--levels", "1"],
        ["solve", "--config", "{levels_as_text}"],
        ["solve", "--config", "{not_an_object}"],
        ["solve", "--sigma", "nan", "--levels", "1"],
        ["solve", "--domain", "disk", "--center", "inf,0", "--sigma", "1", "--levels", "0"],
        ["solve", "--domain", "disk", "--radius", "nan", "--sigma", "1", "--levels", "0"],
    ], ids=["grid", "sigma", "sigma-grid", "gamma-edges", "gamma-arc", "disk-center",
            "polygon-vertex", "alpha-auto-zero-sigma", "alpha", "config-type",
            "config-list", "sigma-nan", "disk-center-inf", "radius-nan"])
    def test_malformed_input_exit_2(self, args, tmp_path, capsys):
        configs = {"levels_as_text": {"sigma": 1.0, "levels": "2"}, "not_an_object": 5}
        paths = {}
        for name, content in configs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(content))
        code, out, err = run_cli([a.format(**paths) for a in args], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err)["error"] == "ArgumentError"


def wrong_values(kind):
    """JSON values that are not a finite number of the flag's type."""
    other = st.one_of(st.text(max_size=5), st.booleans(),
                      st.lists(st.integers(), max_size=3),
                      st.dictionaries(st.text(max_size=3), st.integers(), min_size=1,
                                      max_size=2),
                      st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind is int:
        return st.one_of(other, st.floats(allow_nan=False, allow_infinity=False))
    return other


@st.composite
def malformed_configs(draw):
    """A cheap valid config plus one to three numeric flags of cli._FLAG_TYPES
    holding values of the wrong type or non-finite numbers."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._FLAG_TYPES)), min_size=1,
                         max_size=3, unique=True))
    config = {"sigma": 1.0, "levels": 0}
    config.update({key: draw(wrong_values(cli._FLAG_TYPES[key])) for key in keys})
    return config


def assert_exit_2_with_one_json_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0]
    assert json.loads(lines[0])["error"] == "ArgumentError"


CLI_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@CLI_SETTINGS
@given(st.sampled_from(sorted(cli._COMMANDS)), malformed_configs())
def test_malformed_config_values_exit_2(tmp_path_factory, command, config):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config))
    assert_exit_2_with_one_json_line([command, "--config", str(path)])


def is_malformed(kind, text):
    try:
        return not math.isfinite(kind(text))
    except ValueError:
        return True


@st.composite
def malformed_flags(draw):
    """(flag, text) for a numeric flag of cli._FLAG_TYPES and a text that
    does not parse as a finite number of its type."""
    key = draw(st.sampled_from(sorted(cli._FLAG_TYPES)))
    kind = cli._FLAG_TYPES[key]
    text = draw(st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e999", "2.5", "", "1,2"]),
                          st.text(max_size=6))
                .filter(lambda t: is_malformed(kind, t)))
    return "--" + key.replace("_", "-"), text


@CLI_SETTINGS
@given(st.sampled_from(sorted(cli._COMMANDS)), malformed_flags())
def test_malformed_flag_values_exit_2(command, flag):
    assert_exit_2_with_one_json_line([command, *flag, "--sigma", "1", "--levels", "0"])


@pytest.mark.parametrize("argv", [
    ["solve", "--sigma", "1", "--levels", "40"],
    ["solve", "--domain", "disk", "--sigma", "1", "--levels", "40"],
    ["solve", "--domain", "interval", "--sigma", "1", "--levels", "40"],
    ["bounds", "--m", "1", "--levels", "1000000000"],
    ["solve", "--sigma", "1", "--target-h", "1e-300", "--levels", "0"],
    ["solve", "--domain", "interval", "--sigma", "1", "--target-h", "1e-300"],
    ["optimal", "--domain", "disk", "--target-h", "1e-12", "--levels", "0"],
], ids=["levels-square", "levels-disk", "levels-interval", "levels-huge",
        "target-h-square", "target-h-interval", "target-h-disk"])
def test_meshes_over_the_node_budget_exit_2(argv):
    assert_exit_2_with_one_json_line(argv)
