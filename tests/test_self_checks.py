"""The package's self-checks are real checks: no ``assert`` (removed by
``python -O``) guards a result, and the checks that replace them fire under
``-O``.  That the selftest passes under ``-O``, with its golden output, is
``tests/test_golden.py``'s to check."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((SRC / "valext").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_line_of_the_package_exceeds_100_characters():
    long_lines = []
    for path in sorted((SRC / "valext").glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if len(line) > 100:
                long_lines.append(f"{path.name}:{lineno}")
    assert long_lines == []


# each check is made to fail by breaking the arithmetic under it
_BROKEN_UNDER_O = """
from valext import fields, poly
from valext.errors import DomainError

R = fields.RationalField()
exact = poly._u_divmod
poly._u_divmod = lambda R, a, b: (exact(R, a, b)[0], [R.one])
try:
    poly._bareiss_det(R, [[[R.from_int(3 * i + j + (i == j == 2))] for j in range(3)] for i in range(3)])
except DomainError as exc:
    print(exc)
poly._u_divmod = exact
fields._pth_root_pure = lambda z, prefix_len: z
try:
    fields.pth_root(fields.FieldTower.prime_field(2).extend_algebraic("c", [1, 1, 1]).gen("c"))
except DomainError as exc:
    print(exc)
"""


def test_exact_division_and_pth_root_checks_survive_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_UNDER_O],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "fraction-free elimination: inexact division",
        "computed p-th root c of c does not check",
    ]


def _private_definitions(tree: ast.Module):
    """The (name, node) of every private name (leading ``_``, dunders
    excepted) that a module defines at module or class level."""
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    yield name, node


def test_every_private_helper_is_referenced_elsewhere_in_the_package():
    # a private definition that nothing else in the package names is dead:
    # references inside its own body (recursion) do not count
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "valext").glob("*.py"))
    }

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                yield sub.id, sub
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, sub
            elif isinstance(sub, ast.alias):
                yield sub.name, sub

    uses: dict[str, set[int]] = {}
    for tree in trees.values():
        for name, node in references(tree):
            uses.setdefault(name, set()).add(id(node))
    dead = []
    for filename, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(sub) for sub in ast.walk(node)}
            if not uses.get(name, set()) - own:
                dead.append(f"{filename}:{node.lineno} {name}")
    assert dead == []
