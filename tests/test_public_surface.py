from __future__ import annotations

import ast
import importlib
import pkgutil
import typing
from fractions import Fraction
from pathlib import Path

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


def test_package_reexports_only_public_names() -> None:
    # every `from .submodule import name` in tautorder/__init__.py must name
    # something in that submodule's __all__
    tree = ast.parse(Path(tautorder.__file__).read_text())
    imports = [
        node for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    ]
    assert imports
    for node in imports:
        public = importlib.import_module(f"tautorder.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert not stray, f"tautorder re-exports {stray}, not in tautorder.{node.module}.__all__"
        for alias in node.names:
            assert hasattr(tautorder, alias.asname or alias.name)


def test_every_public_annotation_resolves() -> None:
    # an annotation naming something its module does not import raises NameError here;
    # Fraction is the one exception, as the modules import it only where they build one
    for name in SUBMODULES:
        module = importlib.import_module(f"tautorder.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if callable(obj):
                typing.get_type_hints(obj, localns={"Fraction": Fraction})
