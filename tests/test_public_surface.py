from __future__ import annotations

import ast
import importlib
import pkgutil
import types
import typing
from pathlib import Path

import pytest

import tautorder

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tautorder.__path__))


def test_every_submodule_exports_only_names_it_defines() -> None:
    assert SUBMODULES
    for name in SUBMODULES:
        module = importlib.import_module(f"tautorder.{name}")
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"tautorder.{name}.__all__ names {missing}, which it does not define"


def test_package_exports_exactly_the_union_of_module_all() -> None:
    # tautorder/__init__.py star-imports every submodule but cli, so each module's
    # __all__ is the one list of public names; nothing else may leak into the package
    # (a stray `from __future__ import annotations` binds `annotations`)
    exported = {
        name: value for name, value in vars(tautorder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    union = {}
    for name in SUBMODULES:
        if name != "cli":
            module = importlib.import_module(f"tautorder.{name}")
            union.update((attr, getattr(module, attr)) for attr in module.__all__)
    assert exported == union


def test_version_matches_pyproject() -> None:
    # the version is stated twice, here and in pyproject.toml; tomllib is 3.11+
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(tautorder.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert tautorder.__version__ == project["version"]


def test_every_public_annotation_resolves() -> None:
    # an annotation naming something its module does not import raises NameError here,
    # with no name lent from outside: the modules import fractions only where they build
    # a Fraction, so a Fraction field is annotated object and a Fraction result not at all
    for name in SUBMODULES:
        module = importlib.import_module(f"tautorder.{name}")
        typing.get_type_hints(module)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if callable(obj):
                typing.get_type_hints(obj)
            if isinstance(obj, type):
                for member in vars(obj).values():
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if callable(member):
                        typing.get_type_hints(member)


def _uses(node: ast.AST, enclosing: frozenset = frozenset()):
    # (name, names of the enclosing defs and classes) for every Name and Attribute
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, enclosing)


def test_every_public_name_has_a_caller() -> None:
    # a name in a submodule's __all__ must be read somewhere in src/ or bench/ outside
    # its own def or class; __all__ strings and the package's star imports are no Name
    root = Path(tautorder.__file__).resolve().parent
    files = sorted(root.glob("*.py")) + sorted((root.parents[1] / "bench").glob("*.py"))
    assert len(files) > len(SUBMODULES)
    used = {
        name
        for path in files
        for name, enclosing in _uses(ast.parse(path.read_text(encoding="utf-8")))
        if name not in enclosing
    }
    unused = sorted(
        f"{module}.{name}"
        for module in SUBMODULES
        for name in importlib.import_module(f"tautorder.{module}").__all__
        if name not in used
    )
    assert unused == []
