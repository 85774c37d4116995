"""Guards on the library's surface: no dead private helper, a public
name list that resolves, no tolerance-like literal outside a named
module constant, no decided residual that bypasses the residual rule,
no LAPACK call outside `_kernels`, and one site that decides range
inclusion."""

import ast
import inspect
import re
from pathlib import Path

import cstarframes
from cstarframes import _kernels

from oracles import KERNELS

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


# the benchmark drives the library from outside it, so its references count
PERFBENCH = SRC.parent.parent / "perfbench"


def _public_defs(tree):
    """Module-level functions and class methods whose names do not start
    with an underscore, as (qualified name, node)."""
    found = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            found += [(f"{c.name}.{m.name}", m) for m in c.body if isinstance(m, ast.FunctionDef)]
    return [(name, n) for name, n in found if not n.name.startswith("_")]


def _references(tree):
    """The line of every name read as an `ast.Name` or an `ast.Attribute`
    in tree, by name; a word in a docstring or a comment is not one."""
    lines = {}
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute)):
            lines.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(n.lineno)
    return lines


def _referenced(name, node, path, references):
    """Whether name is read anywhere in references (path -> `_references`)
    outside node's own lines in path."""
    return any(path != p or not node.lineno <= line <= node.end_lineno
               for p, refs in references.items() for line in refs.get(name, ()))


def test_references_skip_docstrings_and_the_definition():
    tree = ast.parse('"""an inverse"""\ndef inverse(m):\n    return inverse(m)\n'
                     'class C:\n    def norm(self):\n        """pseudo-inverse"""\n'
                     '        return self.norm\n'
                     'def f(c):\n    return c.norm()\n')
    defs = _public_defs(tree)
    assert [name for name, _ in defs] == ["inverse", "f", "C.norm"]
    refs = {"m.py": _references(tree)}
    assert [_referenced(n.name, n, "m.py", refs) for _, n in defs] == [False, False, True]


def test_every_public_definition_is_referenced_or_exported():
    paths = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in paths}
    references = {p: _references(t) for p, t in trees.items()}
    dead = [
        f"{path.name}:{node.lineno} {name}"
        for path in paths if path.parent == SRC
        for name, node in _public_defs(trees[path])
        if name not in cstarframes.__all__ and not _referenced(node.name, node, path, references)
    ]
    assert not dead, f"public definitions nothing references or exports: {dead}"


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


# residuals whose norms are compared with each other rather than decided at
# a tol: conjugation_audit reports which of K S K* and K* S K matches
SPECTRAL_RESIDUALS = {"conjugation_audit": 2}


def _is_difference(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)


def _norms_of_differences(tree):
    """(function, line) of each `.norm()` or `_kernels` spectral norm taken of
    a subtraction, or of a name its function assigns a subtraction to, for
    every function at module or class level (nested functions count toward
    theirs)."""
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)] + [
        m for c in tree.body if isinstance(c, ast.ClassDef)
        for m in c.body if isinstance(m, ast.FunctionDef)
    ]
    found = []
    for fn in functions:
        nodes = list(ast.walk(fn))
        differences = {
            t.id for n in nodes if isinstance(n, ast.Assign) and _is_difference(n.value)
            for t in n.targets if isinstance(t, ast.Name)
        }

        def is_difference(x):
            return _is_difference(x) or isinstance(x, ast.Name) and x.id in differences

        found += [
            (fn.name, n.lineno) for n in nodes
            if isinstance(n, ast.Call) and (
                isinstance(n.func, ast.Attribute) and n.func.attr == "norm" and not n.args
                and is_difference(n.func.value)
                or getattr(n.func, "attr", getattr(n.func, "id", None))
                in ("sigma_max", "singular_values")
                and len(n.args) == 1 and is_difference(n.args[0])
            )
        ]
    return found


def test_norms_of_differences_are_found():
    tree = ast.parse(
        "def f(a, b):\n    r = a - b\n"
        "    return (a - b).norm() + r.norm() + a.norm() + np.linalg.norm(a - b)\n"
        "class C:\n    def g(self):\n        return (self - self).norm()\n"
        "def h(m, c):\n    r = m - c\n"
        "    return _kernels.sigma_max(m - c) + sigma_max(r)"
        " + singular_values(m - c) + sigma_max(m)\n"
    )
    assert _norms_of_differences(tree) == [
        ("f", 3), ("f", 3), ("h", 9), ("h", 9), ("h", 9), ("g", 6)
    ]


def test_decided_residuals_take_the_residual_rule():
    # a residual decided at a tol goes through certify.residual_verdict,
    # which takes an SVD only where the Frobenius bound does not decide;
    # the norm of a difference taken directly is an SVD per block
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, *hit) for hit in _norms_of_differences(ast.parse(path.read_text()))]
    by_function = {}
    for _, name, _ in found:
        by_function[name] = by_function.get(name, 0) + 1
    assert by_function == SPECTRAL_RESIDUALS, found


# np.linalg names allowed outside `_kernels`, in any module (None) or in the
# one given: the Frobenius norm, and the QR `sampling.random_unitary` draws with
LINALG_OUTSIDE_KERNELS = {"norm": None, "qr": "sampling.py"}


def test_lapack_calls_go_through_the_kernels():
    # any other mention of linalg, an import of it too, is one, and so is a
    # 2-norm (ord=2): every spectral norm is `_kernels.sigma_max`
    found = [
        f"{path.name}:{i} {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "_kernels.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        for m in re.finditer(r"linalg\b\.?(\w*)|ord\s*=\s*2\b", line)
        if LINALG_OUTSIDE_KERNELS.get(m[1], path) not in (None, path.name)
    ]
    assert not found, f"LAPACK calls outside _kernels: {found}"
    # `record_kernels` patches exactly the kernels that call LAPACK
    assert {name for name, f in vars(_kernels).items() if inspect.isfunction(f)
            and "np.linalg." in inspect.getsource(f)} == set(KERNELS)
    # the one factorization without eigenvalues is tried where a caller
    # passes a gap's scale, to prove it positive before any eigensolve
    assert _sites("cholesky") == [("_kernels.py", "cholesky"),
                                  ("certify.py", "_cholesky_lower_bound")]


def _sites(attr):
    """(module, function) of every call of the name attr under src/ and of
    every read of an attribute attr, a method call included, one per
    occurrence; a function is a module-level one or a class's method,
    qualified by its class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)] + [
            (f"{c.name}.{m.name}", m) for c in tree.body if isinstance(c, ast.ClassDef)
            for m in c.body if isinstance(m, ast.FunctionDef)
        ]
        found += [
            (path.name, name) for name, fn in functions for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and n.attr == attr
            or isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == attr
        ]
    return sorted(found)


def test_range_inclusion_is_decided_at_one_site():
    # "is R(T) inside R(S) at tol?" has one answer: `douglas._inclusion`
    # decides the one range residual, which only the kept factorization's
    # cokernel basis gives; the pencil, the Douglas audit, the atomic
    # coefficients and the perturbation hypotheses read that verdict, and
    # only the atomic coefficients turn it into an AtomicSystemError
    assert _sites("range_residual") == [("douglas.py", "_inclusion")]
    assert set(_sites("perps")) == {
        ("douglas.py", "_Factorization.__init__"),
        ("douglas.py", "_Factorization.range_residual"),
        ("douglas.py", "_Factorization.cokernel_witness"),
    }
    assert _sites("AtomicSystemError") == [("frames.py", "atomic_coefficients")]
