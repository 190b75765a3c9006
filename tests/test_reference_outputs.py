"""CLI reports at mesh levels <= 3 against recorded reference numbers.

Each command's stdout (and, for ``optimal``, its CSV) is split into fields.
Numeric fields must agree with ``reference_outputs.json`` to 1e-9 relative,
with an absolute floor of 1e-12 for round-off-sized values such as
residuals; every other field must match exactly.  Bytes are not compared, so
a different BLAS build cannot make the test flaky.

The reference file was recorded before the per-mesh operator object
replaced the separate K/M assemblies.  ``bounds-interval`` and
``optimal-square`` were re-recorded when the Newton loop started from the
Lanczos model's root, which puts xi on the round-off root of the mass curve
rather than anywhere inside the 1e-10 stopping band.  ``converge-disk`` was
recorded from per-level shift-invert solves, before ``converge`` became one
refinement chain; disk refinement projects boundary midpoints onto the
circle, so its levels are not nested.  Re-record an entry only
when a change is meant to move its numbers, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from robinspec import cli

REFERENCE = Path(__file__).with_name("reference_outputs.json")
RTOL = 1e-9
ATOL = 1e-12

COMMANDS = {
    "solve-square": "solve --domain square --sigma 1 --levels 3",
    "solve-interval": "solve --domain interval --sigma-a 1 --sigma-b 2 --levels 3",
    "solve-disk-arc": "solve --domain disk --gamma arc=0:3.14159 --sigma 2 --levels 2",
    "optimal-square": "optimal --domain square --m 1 --levels 3 --csv {csv}",
    "optimal-square-side": "optimal --domain square --gamma edges=0 --m 1 --levels 3 --csv {csv}",
    "optimal-interval": "optimal --domain interval --m 2 --levels 3 --csv {csv}",
    "optimal-disk": "optimal --domain disk --m 3 --levels 2 --seed 7 --csv {csv}",
    "bounds-square": "bounds --domain square --m 0.1,1,10 --levels 3",
    "bounds-triangle": "bounds --domain triangle --m 1 --sigma 0.5,2 --levels 3",
    "bounds-interval": "bounds --domain interval --m 1 --sigma 0.5,3 --levels 3",
    "scaling-square": "scaling --domain square --sigma 1 --eps 0.001,1,1000 --levels 3",
    "scaling-sides": "scaling --domain square --gamma edges=0,2 --sigma 2 --eps 0.01,1,100 --levels 3",
    "hardy-square": "hardy --domain square --sigma 0.5,2 --alpha 0.25,auto --trials 10 --levels 3",
    "hardy-triangle": "hardy --domain triangle --sigma 1 --alpha 0.1,auto --trials 5 --levels 3",
    "converge-interval": "converge --domain interval --sigma-a 1 --sigma-b 1 --levels 3",
    "converge-square": "converge --domain square --sigma 1 --levels 3",
    "converge-disk": "converge --domain disk --sigma 1 --levels 3",
}


def run_command(name: str) -> dict:
    """The command's stdout and, when it writes one, its CSV file."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "sigma_m.csv"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(COMMANDS[name].format(csv=csv_path).split())
        assert code == 0, name
        csv_text = csv_path.read_text() if csv_path.exists() else None
    return {"stdout": buf.getvalue(), "csv": csv_text}


def fields(text: str):
    return [t for t in re.split(r'[\s,:{}"]+', text) if t]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def mismatches(got: str, want: str):
    """Fields of ``got`` that differ from ``want`` beyond the tolerance."""
    a, b = fields(got), fields(want)
    if len(a) != len(b):
        return [f"{len(a)} fields, expected {len(b)}"]
    bad = []
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            ok = x == y
        else:
            ok = abs(fx - fy) <= RTOL * max(abs(fx), abs(fy)) + ATOL
        if not ok:
            bad.append(f"{x} != {y}")
    return bad


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_numbers_match_reference(name, reference):
    want = reference[name]
    got = run_command(name)
    assert (got["csv"] is None) == (want["csv"] is None)
    assert mismatches(got["stdout"], want["stdout"]) == []
    if want["csv"] is not None:
        assert mismatches(got["csv"], want["csv"]) == []


def test_reference_covers_every_command(reference):
    assert sorted(reference) == sorted(COMMANDS)


def test_comparison_catches_a_moved_digit():
    assert mismatches("lambda1,3.42189299506", "lambda1,3.42189399506") != []
    assert mismatches("x,1e-13", "x,2e-13") == []
    assert mismatches("pass,true", "pass,false") != []


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps({name: run_command(name) for name in COMMANDS},
                                    indent=1, sort_keys=True) + "\n")
