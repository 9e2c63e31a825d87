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
fields._finite_field_size = lambda tower: 2
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
