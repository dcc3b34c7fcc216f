"""Checked route independence: the two routes of each pair share only allowed names.

Each module-level def and assignment in src/ maps to the names it reads, as
Names or as attributes; a route is the transitive closure of its entry point.
The graph is name-level, so it over-approximates: two functions with the same
name in different modules, or a method and a def of one name, merge into one
node.  A shared name outside the allow-list is then either a real shared
dependency or such a merge, and either way worth a look.
"""
from __future__ import annotations

import ast
from pathlib import Path

import tautorder

# each pair computes one headline value two ways: n_g (the local rule and the gcd
# oracle), and the exterior-power identity (its Chern side and its Todd side)
PAIRS = [("ng_local", "ng_oracle"), ("_lambda_quotient", "_todd_scaled")]
ALLOWED = {
    "_check_positive": "the input rules, raised before either route computes",
    "_check_nonnegative": "the input rules, raised before either route computes",
    "_mul_into": "the class ring's one product kernel; the two sides multiply different series",
    # a sieve that calls 9 prime fails verify oracle-agreement, so the shared sieve
    # cannot hide a fault in one n_g route behind the other
    "_grow_sieve": "the one prime source",
    "_sieve": "the one prime source",
    "_sieve_lock": "the one prime source",
}


def _graph() -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for path in sorted(Path(tautorder.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            reads |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for name in names:
                graph.setdefault(name, set()).update(reads)
    return graph


def _closure(graph: dict[str, set[str]], root: str) -> set[str]:
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in graph and name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_paired_routes_share_only_allowed_names() -> None:
    graph = _graph()
    shared_anywhere = set()
    for a, b in PAIRS:
        assert a in graph and b in graph
        shared = (_closure(graph, a) & _closure(graph, b)) - {a, b}
        assert shared <= set(ALLOWED), f"{a} and {b} also share {sorted(shared - set(ALLOWED))}"
        shared_anywhere |= shared
    # an entry no pair shares any more is stale
    assert shared_anywhere == set(ALLOWED)
