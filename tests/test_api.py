"""Guards on the library's surface: no dead private helper, a public
name list that resolves, and no tolerance-like literal outside a named
module constant."""

import ast
import re
from pathlib import Path

import cstarframes

SRC = Path(cstarframes.__file__).parent


def _private_defs(tree):
    """Module-level functions, constants and class methods whose names
    start with one underscore, as (name, first line, last line)."""
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            nodes.extend(node.body)
    named = []
    for n in nodes:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            named.append((n.name, n))
        elif isinstance(n, (ast.Assign, ast.AnnAssign)) and n in tree.body:
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            named.extend((t.id, n) for t in targets if isinstance(t, ast.Name))
    return [
        (name, n.lineno, n.end_lineno)
        for name, n in named
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def test_private_defs_include_module_constants():
    tree = ast.parse("_USED = 1\n_LEFT: int = 2\n__all__ = []\nclass C:\n    _attr = 3\n")
    assert [name for name, _, _ in _private_defs(tree)] == ["_USED", "_LEFT"]


def test_every_private_helper_is_referenced_outside_its_def():
    sources = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    unused = []
    for path, lines in sources.items():
        for name, first, last in _private_defs(ast.parse("\n".join(lines))):
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            others = (
                line
                for p, ls in sources.items()
                for k, line in enumerate(ls, 1)
                if p != path or not first <= k <= last
            )
            if not any(pattern.search(line) for line in others):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, f"private helpers nothing references: {unused}"


def test_public_names_resolve_once():
    names = cstarframes.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(cstarframes, n)]
    assert not missing, missing


# a number written with a negative exponent, such as 1e-9 or 2.5e-12
EXPONENT_LITERAL = re.compile(r"\d+e-\d+", re.IGNORECASE)


def _names_a_constant(stmt):
    """A module-level assignment to UPPER_CASE names only."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return False
    return all(isinstance(t, ast.Name) and t.id.isupper() for t in targets)


def test_exponent_literals_are_named_module_constants():
    # every decision reads its tolerance from the caller's tol; a literal
    # such as 1e-9 in a comparison would be a second, hidden policy
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        for stmt in ast.parse(source).body:
            if _names_a_constant(stmt):
                continue
            found += [
                f"{path.name}:{node.lineno} {ast.get_source_segment(source, node)}"
                for node in ast.walk(stmt)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float, complex))
                and EXPONENT_LITERAL.search(ast.get_source_segment(source, node) or "")
            ]
    assert not found, f"unnamed exponent literals: {found}"
