"""The package's self-checks are real checks: no ``assert`` (removed by
``python -O``) guards a result, and the checks that replace them fire under
``-O``.  That ``valext selftest`` passes under ``-O`` with its golden
output, and fails a planted report fault there, is ``tests/test_golden.py``'s
to check."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

from valext.selftest import GOLDEN_SCENARIOS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


# a planted fault in one function an answer check guards, the golden
# scenario run through `valext extend`, and the exit code and first stderr
# line that check must end it with: the engine's fault, not the file's
_SELF_CHECK_PLANTS = [
    (
        "expand_off_by_one",
        "expand = poly.Factorization.expand\n"
        "poly.Factorization.expand = lambda self: expand(self) + 1",
        "rank1_qi",
        5,
        "internal check failed: factorization does not multiply back to its input",
    ),
    (
        # an inclusion cannot break a relation: tensor_decompose's check of
        # the scenario's k -> F is the engine's
        "verify_refuses_all",
        "fields.TowerHom.verify = lambda self: False",
        "rank1_qi",
        5,
        "internal check failed: the K embedding does not respect relations",
    ),
    (
        "verify_refuses_all_but_inclusions",
        "fields.TowerHom.verify = lambda self: self.is_inclusion()",
        "hensel_route",
        5,
        "internal check failed: recorded generator images violate a defining relation",
    ),
    (
        # the flattening's relations hold by construction: a failed check
        # there is not a tower outside the root chains
        "verify_refuses_the_flattening",
        "fields.TowerHom.verify = lambda self: self.is_inclusion()",
        "char2_trunc",
        5,
        "internal check failed: the flattening of a root-chain tower violates a relation",
    ),
    (
        "gauss_extend_renames_the_residue",
        "gauss = builder.gauss_extend\n"
        "builder.gauss_extend = lambda algebra, name, **kw: gauss(algebra, name + '_', **kw)",
        "rank1_qi",
        5,
        "internal check failed: constructed residue field disagrees with the chosen point",
    ),
    (
        "pth_root_finds_none",
        "builder.pth_root = lambda z: None",
        "char2_trunc",
        5,
        "internal check failed: closure of k does not embed into the closure of F",
    ),
    (
        "pth_root_returns_its_input",
        "builder.pth_root = lambda z: z",
        "char2_trunc",
        5,
        "internal check failed: closure of k does not embed into the closure of F",
    ),
    (
        # the root check inside pth_root, reached while a step of the file
        # is proved irreducible: the engine's fault, not a parse error
        "pth_root_pure_returns_its_input",
        "fields._pth_root_pure = lambda z, prefix_len: z",
        "char2_trunc",
        5,
        "internal check failed: computed p-th root a of a does not check",
    ),
    (
        # a norm that is not f's: its factors divide no factor of f, so the
        # extraction leaves f whole (hensel_route alone reaches the norm route)
        "norm_of_another_polynomial",
        "poly._norm = lambda fs, sub: [-1, 0, 0, 0, 1]",
        "hensel_route",
        5,
        "internal check failed: norm-map factor extraction failed to exhaust the input",
    ),
    (
        # hensel_route lifts two factors modulo p, and poly's _u_xgcd serves
        # hensel_lift alone: a gcd of degree 1 says the parts are not coprime
        "lift_parts_not_coprime",
        "poly._u_xgcd = lambda R, a, b: ([R.one, R.one], [R.one], [R.one])",
        "hensel_route",
        5,
        "internal check failed: factors to lift are not coprime",
    ),
    (
        # the k' image of s shifted by 1 in the decomposition over the
        # closure of k, the one call made without k_hom; shifting every
        # image keeps each relation in characteristic 2: (s + 1)^2 = a + 1
        "closure_kprime_image_shifted",
        "import dataclasses\n"
        "decompose = builder.tensor_decompose\n"
        "shift = lambda pt: dataclasses.replace(\n"
        "    pt, left_images=pt.left_images[:-1] + (pt.left_images[-1] + 1,))\n"
        "builder.tensor_decompose = lambda *args: (\n"
        "    [shift(pt) for pt in decompose(*args)] if len(args) == 3 else decompose(*args))",
        "char2_trunc",
        5,
        "internal check failed: composed k' images violate a relation",
    ),
    (
        # a squarefree polynomial over Q has a good prime within Mahler's
        # bound on its discriminant: hensel_route factors y^2 - 2 to check
        # its step, and no prime passes a squarefree test that always fails
        "no_prime_is_ever_good",
        "poly._u_squarefree = lambda R, f: False",
        "hensel_route",
        5,
        "internal check failed: no good prime for a squarefree polynomial within Mahler's bound",
    ),
    (
        "tensor_decompose_doubles_its_points",
        "decompose = builder.tensor_decompose\n"
        "builder.tensor_decompose = lambda *args: decompose(*args) * 2",
        "char2_trunc",
        5,
        "internal check failed: composed extension with a radicial closure must be unique; "
        "found 2",
    ),
]

# under tests/line_trace.py, which names its report file in the environment,
# the run traces itself and reports what it reached
_RUN_PLANTED = """
import os, sys
if os.environ.get("LINE_TRACE_REPORT"):
    sys.path.insert(0, {tests!r})
    import line_trace
    line_trace.report_to(os.environ["LINE_TRACE_REPORT"])
from valext import builder, cli, fields, poly
{plant}
sys.exit(cli.main(["extend", sys.argv[1]]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize(
    "plant, scenario, code, first_line",
    [row[1:] for row in _SELF_CHECK_PLANTS],
    ids=[row[0] for row in _SELF_CHECK_PLANTS],
)
def test_a_failed_self_check_has_its_own_exit_code(
    tmp_path, flags, plant, scenario, code, first_line
):
    path = tmp_path / f"{scenario}.txt"
    path.write_text(GOLDEN_SCENARIOS[scenario], encoding="utf-8")
    script = _RUN_PLANTED.format(tests=str(TESTS), plant=plant)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[:1] == [first_line]
    assert "Traceback" not in proc.stderr


def test_every_function_the_product_never_calls_is_allow_listed():
    # tests/line_trace.py --product: the functions that no product
    # run calls are exactly its ALLOWED_UNCALLED, and every output is golden
    proc = subprocess.run(
        [sys.executable, str(TESTS / "line_trace.py"), "--product"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    differences = [line for line in proc.stdout.splitlines() if "ALLOWED_UNCALLED" in line]
    assert proc.returncode == 0, differences + proc.stderr.splitlines()


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


def test_the_unchecked_value_constructor_stays_with_the_engine():
    # value_groups._from_steps skips the step check of ValueWithZero, so it
    # is called only where the engine computed the steps: in
    # MonomialValuation.value, never on a path whose steps come from the
    # caller; any other use of the name (another call, passed on, or imported
    # elsewhere) shows here
    sites = set()
    for path in sorted((SRC / "valext").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    enclosing[node] = fn.name  # inner functions come later
        called = {node.func for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name, site = node.id, "call" if node in called else "use"
            elif isinstance(node, ast.Attribute):
                name, site = node.attr, "call" if node in called else "use"
            elif isinstance(node, ast.alias):
                name, site = node.name, "import"
            elif isinstance(node, ast.FunctionDef):
                name, site = node.name, "def"
            else:
                continue
            if name == "_from_steps":
                sites.add((path.name, site, enclosing.get(node)))
    assert sites == {
        ("value_groups.py", "def", "_from_steps"),
        ("valuations.py", "import", None),
        ("valuations.py", "call", "value"),
    }
