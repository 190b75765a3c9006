"""The package's settable surface, pinned.

A settable parameter is a keyword parameter with a default, read with
`inspect`, of a public function, a public method, a classmethod or
staticmethod, or an `__init__` (dataclass fields included) defined in one
of the package's modules.  The count is pinned exactly, so a change that
adds or removes a setting has to say so here.
"""

import importlib
import inspect

MODULES = ("assembly", "bounds", "cli", "eigensolve", "errors", "exact1d",
           "geometry", "mixed_dn", "robin", "schema")
SETTABLE = 38


def defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]


def settable_parameters():
    """{qualified name: its defaulted parameters} over the package."""
    found = {}
    for name in MODULES:
        mod = importlib.import_module(f"robinspec.{name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{name}.{attr}"] = defaulted(obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                    if inspect.isfunction(fn):
                        found[f"{name}.{attr}.{meth}"] = defaulted(fn)
    return found


def test_settable_parameter_count_is_pinned():
    found = settable_parameters()
    assert sum(map(len, found.values())) == SETTABLE, {k: v for k, v in found.items() if v}


def test_the_count_sees_dataclass_fields_and_methods():
    found = settable_parameters()
    assert found["geometry.Mesh.__init__"] == ["projection", "coarse"]
    assert found["assembly.SigmaField.nodal"] == ["support"]
    assert found["eigensolve.NearbyPencils.lowest"] == ["prolongation"]
    assert found["eigensolve.smallest_eigs"] == ["factor", "start"]
    assert found["assembly.hierarchy"] == ["free"]
