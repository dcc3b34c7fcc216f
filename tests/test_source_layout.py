"""No line of the package source is longer than 100 characters, so the
line count of src/ cannot fall just by packing lines together; and the package
reads no environment variable, so a call's answer depends on its arguments alone.
The input rules, the int and bool type rules among them, are raised from
exact_arith alone.  The modules a cold call does not need are imported inside the functions
that use them, and argparse, json and csv not at all: the command line has one
parser and writes its json and csv itself.  Products go through exact_arith._product, so math.prod
is not imported, and polynomial terms through exact_arith._render_terms, so no
other module writes a power x^{e}.  The packed term map of GradedPolynomial is
read in chern_symbolics alone."""
from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tautorder"


def test_no_source_line_exceeds_100_characters() -> None:
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_no_source_reads_the_environment() -> None:
    readers = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []


def test_each_refusal_is_raised_in_one_place() -> None:
    # "... must be an int, not ...", "... must be a bool, not ...", "... must be
    # positive", "... must be nonnegative" and "... is not prime" come from the
    # exact_arith helpers alone
    refusal = re.compile(
        r'raise (?:Type|Value)Error\((f?"[^"]*(?:must be an int, not [^"]*|'
        r'must be a bool, not [^"]*|must be positive|must be nonnegative|is not prime)")'
    )
    raised = sorted(
        (path.name, match[1])
        for path in SRC.glob("*.py")
        for match in refusal.finditer(path.read_text(encoding="utf-8"))
    )
    assert raised == [
        ("exact_arith.py", 'f"{name} must be a bool, not {type(value).__name__}"'),
        ("exact_arith.py", 'f"{name} must be an int, not {type(value).__name__}"'),
        ("exact_arith.py", 'f"{name} must be nonnegative"'),
        ("exact_arith.py", 'f"{name} must be positive"'),
        ("exact_arith.py", 'f"{p} is not prime"'),
    ]


def _module_level_imports(node: ast.AST):
    # every import that runs when the module is imported: not inside a def or a lambda
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from _module_level_imports(child)


def test_no_module_level_import_of_what_a_cold_call_avoids() -> None:
    # fractions brings decimal, numbers and re; argparse brings gettext and re
    lazy = {"fractions", "decimal", "argparse", "re"}
    eager = sorted(
        (path.name, module)
        for path in SRC.glob("*.py")
        for module in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] in lazy
    )
    assert eager == []


def test_no_source_imports_argparse() -> None:
    # anywhere, inside functions too; nor json or csv, which bring re and enum
    imports = [
        (path.name, name.split(".")[0])
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""])
    ]
    assert len(imports) > 20
    forbidden = {"argparse", "json", "csv"}
    assert [(path, module) for path, module in imports if module in forbidden] == []


def test_no_source_imports_prod_from_math() -> None:
    # exact_arith._product is the package's one product routine
    imports = [
        (path.name, alias.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
    ]
    assert len(imports) > 5
    assert [(path, name) for path, name in imports if name == "prod"] == []


def test_only_exact_arith_writes_a_power_in_an_f_string() -> None:
    # exact_arith._render_terms is the one term writer of the polynomial records
    writers = sorted(
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.JoinedStr)
        and any(isinstance(part, ast.Constant) and part.value.endswith("^")
                and isinstance(after, ast.FormattedValue)
                for part, after in zip(node.values, node.values[1:]))
    )
    assert writers == ["exact_arith.py"]


def test_only_chern_symbolics_reads_the_packed_term_map() -> None:
    # GradedPolynomial._packed is a private format; every other module reads .terms
    readers = sorted({
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_packed"
    })
    assert readers == ["chern_symbolics.py"]
