"""The names the benchmark binds in dualbch exist.

The bench harness wraps and calls package functions by name, so deleting or
renaming one would only surface when the harness installs its tracer.  The
bench files are read with ast, so nothing under bench/ is imported here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def traced_names():
    """(module, qualname) of every entry of tracer.py's TRACED list."""
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("tracer.py defines no TRACED list")


def package_references():
    """(file, dotted name) of every dualbch name the bench files import or load.

    Covers `from dualbch import X`, `dualbch.X`, and `alias.X` where alias is
    a dualbch module imported by name.
    """
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        aliases = {"dualbch": "dualbch"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dualbch":
                for a in node.names:
                    refs.add((path.name, f"dualbch.{a.name}"))
                    aliases[a.asname or a.name] = f"dualbch.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                refs.add((path.name, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(refs)


def resolve(dotted):
    """The object at a dotted name under dualbch, importing submodules as needed."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(".".join(parts[:i + 1]))
        obj = getattr(obj, part)
    return obj


def test_traced_list_is_read():
    names = traced_names()
    assert ("mindist", "certify") in names and ("cli", "emit") in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module,qualname", traced_names())
def test_traced_function_resolves(module, qualname):
    mod = importlib.import_module(f"dualbch.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    # the tracer wraps a class attribute's fget, so it must be a property
    found = inspect.getattr_static(owner, attr)
    if owner_name:
        assert isinstance(found, property), qualname
    else:
        assert callable(found), qualname


def test_package_references_resolve():
    refs = package_references()
    assert ("workloads.py", "dualbch.cli.certify") in refs
    assert ("workloads.py", "dualbch.in_row_space") in refs
    missing = []
    for path, dotted in refs:
        try:
            resolve(dotted)
        except (AttributeError, ImportError):
            missing.append((path, dotted))
    assert not missing
