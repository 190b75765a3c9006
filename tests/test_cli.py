import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robinspec
from robinspec import assembly, cli, eigensolve, exact1d, geometry, schema
from robinspec.assembly import SigmaField
from robinspec.errors import ConvergenceError
from robinspec.geometry import GAMMA


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


def cli_options(argv):
    """The options `solve` runs with under the given flags."""
    return cli._merge_options(cli.build_parser().parse_args(["solve"] + argv))


def assert_same_boundary_mass(mesh, sigma, reference):
    got = assembly.assemble_boundary_mass(mesh, sigma)
    want = assembly.assemble_boundary_mass(mesh, reference)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMeshFreeSigma:
    """The CLI's boundary coefficients take no mesh, yet assemble the same
    B, entry for entry, as the per-mesh fields built before: a per-facet
    field zero off gamma, and a nodal field at an interval's two ends."""

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("argv", [
        ["--domain", "square", "--gamma", "edges=0,2", "--sigma", "2"],
        ["--domain", "disk", "--gamma", "arc=0:3.14159", "--sigma", "1"],
        ["--domain", "disk", "--gamma", "arc=1:4,5:6", "--sigma", "0.3"],
        ["--domain", "triangle", "--gamma", "edges=1", "--sigma", "5"],
    ], ids=["square-sides", "disk-arc", "disk-arcs", "triangle-side"])
    def test_on_gamma_matches_the_per_facet_field(self, argv, level):
        opts = cli_options(argv)
        mesh = cli._mesh_at_level(cli._domain_from(opts), level, None)
        value = float(opts["sigma"])
        reference = SigmaField.per_edge(np.where(mesh.boundary_markers == GAMMA, value, 0.0))
        assert_same_boundary_mass(mesh, cli._sigma_from(opts), reference)
        assert_same_boundary_mass(mesh, SigmaField.on_gamma(value), reference)

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("domain", ["square", "disk", "triangle", "interval"])
    def test_on_all_of_gamma_matches_the_constant_field(self, domain, level):
        opts = cli_options(["--domain", domain, "--gamma", "all", "--sigma", "1.5"])
        mesh = cli._mesh_at_level(cli._domain_from(opts), level, None)
        assert_same_boundary_mass(mesh, cli._sigma_from(opts), SigmaField.constant(1.5))

    @pytest.mark.parametrize("level, target_h",
                             [(lvl, None) for lvl in range(11)] + [(0, 0.3), (6, 0.3), (3, 0.07)])
    @pytest.mark.parametrize("ends", [["--sigma-a", "1", "--sigma-b", "2"], ["--sigma-a", "3"],
                                      ["--sigma-b", "2"]], ids=["both", "left", "right"])
    def test_interval_ends_match_the_nodal_field(self, ends, level, target_h):
        opts = cli_options(["--domain", "interval", "--a", "-0.5", "--b", "2"] + ends)
        mesh = cli._mesh_at_level(cli._domain_from(opts), level, target_h)
        # the two boundary facets are the left and the right end, in order
        assert mesh.nodes[mesh.boundary[:, 0], 0].tolist() == [-0.5, 2.0]
        vals = np.zeros(mesh.num_nodes)
        vals[mesh.boundary[0, 0]] = opts["sigma_a"] or 0.0
        vals[mesh.boundary[1, 0]] = opts["sigma_b"] or 0.0
        assert_same_boundary_mass(mesh, cli._sigma_from(opts), SigmaField.nodal(vals))


class TestMeshExport:
    def test_export_and_read(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        code, _, _ = run_cli(["mesh", "--domain", "disk", "--segments", "16",
                              "--levels", "2", "--out", str(path)], capsys)
        assert code == 0
        mesh = geometry.read_mesh(path)
        assert mesh.dim == 2
        assert abs(geometry.area(mesh) - math.pi) / math.pi <= 0.05


class TestScalingGuard:
    @pytest.mark.parametrize("levels, eps", [(3, "1e5"), (3, "1e6"), (3, "1e8"), (7, "1e6")])
    def test_large_eps_row_inside_the_expand_limit_exit_0(self, levels, eps, capsys):
        # the family solves eps^2 lambda1 as the lowest eigenvalue of
        # (K + eps B, M), whose stop keeps its scale at large eps; solving
        # (K / eps^2 + B / eps, M) these rows crossed the limit and exited 3
        code, out, _ = run_cli(["scaling", "--domain", "square", "--sigma", "1",
                                "--eps", eps, "--levels", str(levels)], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        mu, expand = float(row[3]), float(row[5])
        assert mu <= expand * (1 + eigensolve.DEFAULT_TOL)
        mesh = cli._mesh_at_level(geometry.unit_square(), levels, None)
        ops = assembly.operators(mesh)
        b = assembly.assemble_boundary_mass(mesh, SigmaField.constant(1.0))
        own = eigensolve.smallest_eigs(ops.stiffness + float(eps) * b, ops.mass).value
        assert abs(mu - own) <= eigensolve.DEFAULT_TOL * own

    @pytest.mark.parametrize("domain", [["--domain", "square", "--levels", "3"],
                                        ["--domain", "interval", "--levels", "5"]],
                             ids=["square", "interval"])
    @pytest.mark.parametrize("sigma", ["0", "1e-12", "1e3"])
    def test_rows_inside_the_limit_exit_0(self, domain, sigma, capsys):
        code, out, _ = run_cli(["scaling", "--sigma", sigma, "--eps", "1e-3,1,1e3", *domain],
                               capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        expand = float(rows[0][5])
        assert (expand == 0.0) == (sigma == "0")
        assert all(float(row[3]) <= expand * (1 + eigensolve.DEFAULT_TOL)
                   for row in rows if expand > 0)

    def test_expand_limit_pins_where_sigma_acts(self, capsys):
        # gamma is the left end, sigma acts at both: the limit pins both ends
        code, out, _ = run_cli(["scaling", "--domain", "interval", "--gamma", "edges=0",
                                "--sigma-a", "1", "--sigma-b", "1", "--eps", "1,100",
                                "--levels", "5"], capsys)
        both = run_cli(["scaling", "--domain", "interval", "--sigma", "1",
                        "--eps", "1", "--levels", "5"], capsys)[1]
        assert code == 0
        assert out.splitlines()[1].split(",")[5] == both.splitlines()[1].split(",")[5]


class TestHardyRightSide:
    @pytest.mark.parametrize("alpha", ["1e-160", "1e-300"])
    def test_non_finite_right_side_exit_2(self, alpha):
        assert_exit_2_with_one_json_line(["hardy", "--domain", "square", "--sigma", "1",
                                          "--alpha", alpha, "--trials", "3", "--levels", "2"])

    def test_small_finite_alpha_still_checked(self, capsys):
        code, out, _ = run_cli(["hardy", "--domain", "square", "--sigma", "1",
                                "--alpha", "1e-150", "--trials", "3", "--levels", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1,1e-150,1e-150,4,4,false"


class TestHugeCoefficients:
    @pytest.mark.parametrize("argv", [
        ["converge", "--domain", "square", "--sigma", "1e200", "--levels", "5"],
        ["solve", "--domain", "square", "--sigma", "1e300", "--levels", "2"],
        ["hardy", "--domain", "square", "--sigma", "1e300", "--alpha", "1", "--levels", "2"],
        # the own run's best residual on its own LU, 1.2e-7 rho, is above the gate
        ["solve", "--domain", "interval", "--sigma", "1e20", "--levels", "3"],
    ], ids=["converge-1e200", "solve-1e300", "hardy-1e300", "interval-1e20"])
    def test_exit_3_with_one_json_line(self, argv, capsys):
        # warnings are errors here, so an overflow warning would end the run
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConvergenceError"

    @staticmethod
    def assert_pinned_limit(domain, sigmas, capsys):
        # exit 0 and lambda at the scaling table's expand limit, the ground
        # state pinned on the boundary, which bounds every P1 Robin eigenvalue
        _, out, _ = run_cli(["scaling", "--domain", domain, "--sigma", "1", "--eps", "1",
                             "--levels", "3"], capsys)
        limit = float(out.splitlines()[1].split(",")[5])
        for sigma in sigmas:
            code, out, _ = run_cli(["solve", "--domain", domain, "--sigma", sigma,
                                    "--levels", "3"], capsys)
            assert code == 0, sigma
            assert limit * (1 - 1e-9) <= json.loads(out)["lambda1"] <= limit * (
                1 + eigensolve.DEFAULT_TOL), sigma

    def test_eigenvalue_stays_below_the_pinned_limit(self, capsys):
        # on the square the limit is 20.5055448977; with a stop relative to
        # the eigenvalue and a shift free of sigma the solve reaches it at
        # every sigma whose B does not overflow
        self.assert_pinned_limit(
            "square", ("1e15", "1e16", "1e17", "1e18", "1e20", "1e50", "1e200"), capsys)

    @pytest.mark.parametrize("domain, sigmas", [("triangle", ("1e15", "1e20", "1e50")),
                                                ("interval", ("1e15", "1e50"))])
    def test_coarse_own_lu_reaches_the_pinned_limit(self, domain, sigmas, capsys):
        # the own run's residual levels off above its stop on these coarse
        # meshes (3.6e-11 rho on the triangle); run to the step cap on its
        # own LU, its best iterate passes the gate at the pinned limit
        self.assert_pinned_limit(domain, sigmas, capsys)


class TestScaleFree:
    """Under x -> t x with the coefficient sigma / t, lambda scales as t^-2.
    Every stop and gate is relative to the eigenvalue, and the shift and
    the round-off floor come from K and M, so exact rescalings of one
    problem give one answer at any width."""

    @pytest.mark.parametrize("width", [1e-4, 1e-3, 1.0, 1e6])
    def test_rescaled_rectangle_keeps_lambda_w2(self, width, capsys):
        code, out, _ = run_cli(["solve", "--domain", "rect", f"--width={width!r}",
                                f"--height={width / 2!r}", f"--sigma={1 / width!r}",
                                "--levels", "5"], capsys)
        assert code == 0
        # the w = 1 value
        assert json.loads(out)["lambda1"] * width ** 2 == pytest.approx(5.39543175246, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["solve", "--domain", "rect", "--width", "1e-4", "--height", "5e-5", "--sigma", "1e4",
         "--levels", "5"],
        ["bounds", "--domain", "rect", "--width", "0.01", "--height", "0.005", "--m", "0.01",
         "--levels", "5"],
    ], ids=["solve", "bounds"])
    def test_small_rectangle_exits_0(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out


class TestHardyBelowTheMeshSize:
    @pytest.mark.xfail(strict=True, reason="the second-order rule samples 1/(d + alpha)^2 at "
                       "boundary edge midpoints, where d = 0, so for alpha well below h the "
                       "right side grows like |T|/alpha while the exact one stays bounded")
    def test_no_false_violations(self, capsys):
        # the bound holds for every u; on the square at level 3 (h about
        # 0.18) the rule reports all 6 of its checks as violations
        code, out, _ = run_cli(["hardy", "--domain", "square", "--sigma", "1", "--alpha", "1e-4",
                                "--trials", "5", "--levels", "3"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[4:] == ["0", "true"]


class TestThinPinnedDomain:
    @pytest.mark.parametrize("command", ["optimal", "bounds"])
    def test_thin_rectangle_exits_0(self, command, tmp_path, capsys):
        # the cluster (lambda_2 / lambda_1 about 1.01) slows LOBPCG: the
        # ground state's own run takes 37 of its 40 applications and
        # lambda_check's 38
        code, _, _ = run_cli([command, "--domain", "rect", "--width", "3", "--height", "0.2",
                              "--m", "1", "--levels", "5", "--csv", str(tmp_path / "s.csv")],
                             capsys)
        assert code == 0


class TestMassBeyondTheMargin:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--domain", "square", "--m", "1e11", "--levels", "2"],
        ["optimal", "--domain", "interval", "--m", "1e10", "--levels", "4"],
        # masses whose lower bound lies below the margin but whose root lies
        # inside it, on an own LU and on the pinned hierarchy
        ["bounds", "--domain", "square", "--m", "1.5e10", "--levels", "3"],
        ["bounds", "--domain", "square", "--m", "1.3e10", "--levels", "6"],
    ], ids=["bounds-square", "optimal-interval", "root-in-margin-lu", "root-in-margin-hierarchy"])
    def test_range_error_names_the_mass(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "RangeError"
        assert diagnostic["message"].startswith(f"mass {float(argv[4]):g} is too large")
        assert "margin 1e-09" in diagnostic["message"] and "E1 = " in diagnostic["message"]

    def test_mass_inside_the_margin_keeps_its_report(self, capsys):
        code, out, _ = run_cli(["bounds", "--domain", "square", "--m", "1e10", "--levels", "2"],
                               capsys)
        assert code == 0
        header, row = out.splitlines()
        fields = row.split(",")
        # slack_upper is a round-off difference of two equal values, and
        # slack_lower's last digits carry xi's round-off
        assert abs(float(fields.pop(6))) <= 1e-12
        assert fields == ["optimal eigenvalue mass=1e+10", "10000000000", "22.8657758845",
                          "22.865775903", "22.865775903", "1.84768609301e-08",
                          "0.457315518059", "true"]


class TestBuiltBase:
    @pytest.mark.parametrize("command", [["solve", "--sigma", "1"], ["optimal", "--m", "1"]],
                             ids=["solve", "optimal"])
    def test_factors_no_fine_level(self, command, factorizations, capsys, tmp_path):
        # --target-h 0.02 builds a 16,641-node base mesh that keeps the
        # hierarchy it was refined through, so it runs on V-cycles
        extra = ["--csv", str(tmp_path / "sigma.csv")] if command[0] == "optimal" else []
        code, _, _ = run_cli([*command, "--domain", "square", "--target-h", "0.02",
                              "--levels", "0", *extra], capsys)
        assert code == 0
        assert factorizations and max(factorizations) <= eigensolve._COARSE_NODES


def run_cli_process(args, cwd, timeout=None):
    """Run the CLI in a child process in `cwd`, with a RuntimeWarning as an
    error, as pytest runs the package in-process.  The child runs away from
    the repo, so a relative PYTHONPATH entry (``PYTHONPATH=src``) would no
    longer find the package: the directory holding the imported robinspec
    goes first, as an absolute path."""
    package_root = str(Path(robinspec.__file__).resolve().parent.parent)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "robinspec.cli",
                           *args], capture_output=True, cwd=cwd, env=env, timeout=timeout)


def readme_cli_examples():
    """The `robinspec ...` lines of the README's `## CLI` code block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.partition("\n## CLI\n")[2].partition("```sh\n")[2].partition("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("robinspec ")]


class TestReadmeExamples:
    def test_block_holds_every_command(self):
        examples = readme_cli_examples()
        assert len(examples) >= 8
        assert {argv[0] for argv in examples} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_example_exits_zero(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0, capsys.readouterr().err


class TestPipeline:
    def test_flags_may_come_before_the_command(self, capsys):
        first = run_cli(["--levels", "2", "solve", "--sigma", "1"], capsys)
        last = run_cli(["solve", "--sigma", "1", "--levels", "2"], capsys)
        assert first == last and first[0] == 0 and first[1]

    def test_parser_registers_each_flag_once(self, monkeypatch):
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *args, **kwargs):
            calls.append(args)
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        cli.build_parser()
        # --help, the command and one flag per option
        assert len(calls) == 2 + len(cli._DEFAULTS) == 25

    def test_domain_and_mesh_built_once_per_invocation(self, monkeypatch, capsys):
        calls = []
        for name in ("_domain_from", "_mesh_at_level"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        assert cli.main(["bounds", "--m", "1,2", "--sigma", "1", "--levels", "1"]) == 0
        assert calls == ["_domain_from", "_mesh_at_level"]

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_stdout_is_the_rendered_report(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        args = cli.build_parser().parse_args(argv)
        opts = cli._merge_options(args)
        domain = cli._domain_from(opts)
        mesh = cli._mesh_at_level(domain, opts["levels"], opts.get("target_h"))
        report = cli._COMMANDS[args.command](opts, domain, mesh)
        assert capsys.readouterr().out == ""
        assert printed == ("" if report is None else cli._render(report))

    def test_csv_report_to_out_file(self, tmp_path, capsys):
        argv = ["converge", "--domain", "interval", "--sigma-a", "1", "--levels", "3"]
        code, printed, _ = run_cli(argv, capsys)
        path = tmp_path / "converge.csv"
        assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
        assert code == 0 and path.read_text() == printed


class TestReproducibility:
    def test_byte_identical_runs(self, tmp_path):
        cmd = ["solve", "--domain", "square", "--sigma", "1", "--levels", "3",
               "--seed", "42"]
        a = run_cli_process(cmd, tmp_path)
        b = run_cli_process(cmd, tmp_path)
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


# the cases of test_malformed_input_exit_2 whose domain cannot be built: they
# end as a GeometryError, every other case as an ArgumentError
UNBUILDABLE_DOMAINS = {"interval-reversed", "rect-negative-width", "disk-four-segments",
                       "polygon-duplicate-vertex"}


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
            raise ConvergenceError("no convergence",
                                   {"iterations": 41, "residual": 1e-3, "bound": 1e-10})
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
        ["solve", "--sigma", "1", "--levels", "-2"],
        ["converge", "--sigma", "1", "--levels", "-1"],
        ["solve", "--config", "{negative_levels}"],
        ["hardy", "--sigma", "1", "--trials", "-3", "--levels", "1"],
        ["hardy", "--sigma", "1", "--seed", "-1", "--levels", "1"],
        ["optimal", "--m", "1,5", "--levels", "1"],
        ["solve", "--domain", "interval", "--gamma", "edges=0,7", "--sigma", "1"],
        ["solve", "--domain", "interval", "--a", "1", "--b", "0", "--sigma", "1"],
        ["solve", "--domain", "rect", "--width", "-1", "--sigma", "1"],
        ["solve", "--domain", "disk", "--segments", "4", "--sigma", "1"],
        ["solve", "--domain", "polygon", "--vertices", "0,0;1,0;1,0;0,1", "--sigma", "1"],
    ], ids=["grid", "sigma", "sigma-grid", "gamma-edges", "gamma-arc", "disk-center",
            "polygon-vertex", "alpha-auto-zero-sigma", "alpha", "config-type",
            "config-list", "sigma-nan", "disk-center-inf", "radius-nan",
            "levels-negative", "converge-levels-negative", "config-levels-negative",
            "trials-negative", "seed-negative", "optimal-mass-grid",
            "interval-gamma-edges", "interval-reversed", "rect-negative-width",
            "disk-four-segments", "polygon-duplicate-vertex"])
    def test_malformed_input_exit_2(self, args, tmp_path, capsys, request):
        configs = {"levels_as_text": {"sigma": 1.0, "levels": "2"}, "not_an_object": 5,
                   "negative_levels": {"sigma": 1.0, "levels": -1}}
        paths = {}
        for name, content in configs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(content))
        code, out, err = run_cli([a.format(**paths) for a in args], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        bad_domain = request.node.callspec.id in UNBUILDABLE_DOMAINS
        assert json.loads(err)["error"] == ("GeometryError" if bad_domain else "ArgumentError")


def test_large_rectangle_inradius_report_finishes(tmp_path):
    # a 2e5 x 1e5 rectangle has an inradius of 5e4, where an absolute 1e-12
    # tolerance on the radius is below one ulp
    run = run_cli_process(["bounds", "--domain", "rect", "--width", "200000",
                           "--height", "100000", "--sigma", "1", "--levels", "2"],
                          tmp_path, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "robin eigenvalue vs inradius sigma=1" in run.stdout.decode()


def wrong_values(key):
    """JSON values that are not a finite number of the flag's type, or,
    for a flag of cli._NONNEGATIVE, negative integers."""
    values = st.one_of(st.text(max_size=5), st.booleans(),
                       st.lists(st.integers(), max_size=3),
                       st.dictionaries(st.text(max_size=3), st.integers(), min_size=1,
                                       max_size=2),
                       st.sampled_from([math.nan, math.inf, -math.inf]))
    if cli._FLAG_TYPES[key] is int:
        values = st.one_of(values, st.floats(allow_nan=False, allow_infinity=False))
    if key in cli._NONNEGATIVE:
        values = st.one_of(values, st.integers(max_value=-1))
    return values


@st.composite
def malformed_configs(draw):
    """A cheap valid config plus one to three numeric flags of cli._FLAG_TYPES
    holding values of the wrong type, non-finite numbers or negative values
    of cli._NONNEGATIVE flags."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._FLAG_TYPES)), min_size=1,
                         max_size=3, unique=True))
    config = {"sigma": 1.0, "levels": 0}
    config.update({key: draw(wrong_values(key)) for key in keys})
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


def is_malformed(key, text):
    try:
        value = cli._FLAG_TYPES[key](text)
    except ValueError:
        return True
    return not math.isfinite(value) or (key in cli._NONNEGATIVE and value < 0)


@st.composite
def malformed_flags(draw):
    """(flag, text) for a numeric flag of cli._FLAG_TYPES and a text that
    does not parse as a finite number of its type, or is negative for a
    flag of cli._NONNEGATIVE."""
    key = draw(st.sampled_from(sorted(cli._FLAG_TYPES)))
    text = draw(st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e999", "2.5", "", "1,2"]),
                          st.integers(max_value=-1).map(str), st.text(max_size=6))
                .filter(lambda t: is_malformed(key, t)))
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
    ["converge", "--sigma", "1", "--levels", "40"],
    ["converge", "--domain", "disk", "--sigma", "1", "--levels", "40"],
    ["converge", "--domain", "interval", "--sigma", "1", "--levels", "40"],
    ["solve", "--domain", "disk", "--segments", "1000000", "--sigma", "1", "--levels", "0"],
], ids=["levels-square", "levels-disk", "levels-interval", "levels-huge",
        "target-h-square", "target-h-interval", "target-h-disk",
        "converge-square", "converge-disk", "converge-interval", "segments-disk"])
def test_meshes_over_the_node_budget_exit_2(argv, monkeypatch):
    factorizations = []
    monkeypatch.setattr(eigensolve, "splu", lambda *args, **kwargs: factorizations.append(1))
    assert_exit_2_with_one_json_line(argv)
    assert factorizations == []
