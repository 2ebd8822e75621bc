"""Every public function of a layer, and every public method and property of
its exported classes, is used by the package itself.

A function that only tests call belongs in the tests; one that nothing calls
belongs nowhere.  The guard reads the source with ast, so a name in a
docstring, a comment or an __all__ string does not count as a use, and the
package's __init__ re-exports do not count either.
"""

import ast
import dataclasses
import importlib
import types
from functools import cached_property
from pathlib import Path

import pytest

import vschro
from vschro import verify

LAYERS = ("mesh", "fields", "operators", "evolve", "spectral", "problems", "verify", "cli")
PACKAGE = Path(vschro.__file__).parent


def used_names() -> set:
    """Names loaded anywhere in the package outside __init__.py, except
    inside the top-level def or class that defines the same name, and the
    check receivers registered in verify.CHECKS, which verify calls by check
    name."""
    used = {fn.__name__ for fn in verify.CHECKS.values()}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return used


def public_functions(layer: str) -> list:
    mod = importlib.import_module(f"vschro.{layer}")
    return [name for name in mod.__all__
            if isinstance(fn := getattr(mod, name), types.FunctionType) and fn.__module__ == mod.__name__]


def public_members(layer: str) -> dict:
    """'Class.member' -> member name, for the public methods and properties
    of the classes a layer exports; dunders and dataclass fields are not
    members."""
    mod = importlib.import_module(f"vschro.{layer}")
    out = {}
    for name in mod.__all__:
        cls = getattr(mod, name)
        if not isinstance(cls, type) or cls.__module__ != mod.__name__:
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for attr, value in vars(cls).items():
            if (not attr.startswith("_") and attr not in fields
                    and isinstance(value, (types.FunctionType, property, cached_property,
                                              staticmethod, classmethod))):
                out[f"{name}.{attr}"] = attr
    return out


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_function_is_used_in_the_package(layer):
    unused = sorted(set(public_functions(layer)) - used_names())
    assert unused == [], f"vschro.{layer} exports functions only tests use: {unused}"


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_member_is_used_in_the_package(layer):
    used = used_names()
    unused = sorted(qual for qual, attr in public_members(layer).items() if attr not in used)
    assert unused == [], f"vschro.{layer} classes have members only tests use: {unused}"


def test_guard_sees_functions():
    assert "heat_step" in public_functions("evolve")
    assert "heat_step" in used_names()


def test_guard_sees_members():
    members = public_members("cli")
    assert members["ReportBundle.all_passed"] == "all_passed"
    assert "ReportBundle.config" not in members  # a dataclass field
    assert "all_passed" in used_names()
