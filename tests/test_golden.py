"""The golden reports, byte for byte.

``tests/golden`` holds the ``extend --verify`` report of each extension
scenario in ``selftest.GOLDEN_SCENARIOS`` and the ``decompose`` report of
every scenario, as produced before the univariate core was shared, and the
output of ``valext selftest``, which checks those reports against
``selftest.GOLDEN_DIGESTS``.  The files are fixed: a change that alters one
of them changes what valext prints, and ``GOLDEN_DIGESTS`` must equal their
digests.  On the same paths, every characteristic-0 rep must hold canonical
Q scalars (an int when integral).
"""

import hashlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from valext import cli
from valext.fields import FieldElement, FieldTower
from valext.poly import Polynomial
from valext.selftest import GOLDEN_DIGESTS, GOLDEN_SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
EXTENSIONS = [name for name, text in GOLDEN_SCENARIOS.items() if "[valuation]" in text]


def _run(cmd, tmp_path, name, **kw):
    path = tmp_path / f"{name}.val"
    path.write_text(GOLDEN_SCENARIOS[name])
    out, err = io.StringIO(), io.StringIO()
    code = cmd(str(path), out=out, err=err, **kw)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extend_verify_report_is_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.extend-verify.txt").read_text()
    assert _run(cli.cmd_extend, tmp_path, name, verify=True) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_decompose_report_is_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.decompose.txt").read_text()
    assert _run(cli.cmd_decompose, tmp_path, name) == expected


def test_golden_digests_are_the_digests_of_the_golden_reports():
    # one entry per command and scenario: decompose for all six, extend
    # --verify for the five extension scenarios
    names = [f"{name}.decompose.txt" for name in GOLDEN_SCENARIOS]
    names += [f"{name}.extend-verify.txt" for name in EXTENSIONS]
    digests = {name: hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest() for name in names}
    assert GOLDEN_DIGESTS == digests


@pytest.mark.parametrize("seed", [0, 3])
def test_selftest_output_is_golden(seed):
    # selftest takes no seed: its reports draw from their own seeded
    # generators, so the state of the global random module must not show
    random.seed(seed)
    out, err = io.StringIO(), io.StringIO()
    assert (cli.cmd_selftest(out=out, err=err), err.getvalue()) == (0, "")
    assert out.getvalue() == (GOLDEN / "selftest.txt").read_text()


@pytest.mark.parametrize("hash_seed", ["1", "98765"])
@pytest.mark.parametrize("name", ["rank2_trans", "char2_trunc"])
def test_extend_verify_report_is_golden_under_any_hash_seed(tmp_path, name, hash_seed):
    # a fresh interpreter per hash seed: str hashes, and with them the
    # iteration order of any set of strings, differ between them
    path = tmp_path / f"{name}.val"
    path.write_text(GOLDEN_SCENARIOS[name])
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "valext", "extend", "--verify", str(path)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{name}.extend-verify.txt").read_bytes()


def test_extend_verify_report_is_golden_under_python_O(tmp_path):
    # -O strips assert statements: the report, and the p-th root checks of
    # the truncated perfect closure it runs through, must not depend on them
    path = tmp_path / "char2_trunc.val"
    path.write_text(GOLDEN_SCENARIOS["char2_trunc"])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "valext", "extend", "--verify", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "char2_trunc.extend-verify.txt").read_bytes()


def test_extend_verify_reaches_the_lemma_code(tmp_path):
    # the residue-pair columns of --verify are the compositum's
    # separable-transfer lemma, and the maximal-ideal line is the exact
    # check on the base's variables, whose witnesses monomial() builds: a
    # call recorder over the five golden builds sees them, the point search
    # and the inclusion test reached
    lemma_code = {
        ("compositum.py", "separable_transfer_check"),
        ("compositum.py", "first_point_into"),
        ("fields.py", "TowerHom.is_inclusion"),
        ("builder.py", "_maximal_ideal_failure"),
        ("valuations.py", "MonomialValuation.monomial"),
    }
    reached = set()
    for name in EXTENSIONS:
        reached.update(_calls(lambda: _run(cli.cmd_extend, tmp_path, name, verify=True)))
    assert lemma_code <= reached, lemma_code - reached


def _calls(run) -> list:
    """(file name, qualified name) of every Python call that ``run()`` makes,
    in order."""
    made = []

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            made.append((Path(code.co_filename).name, code.co_qualname))

    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
    return made


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extend_verify_decomposes_at_most_twice(tmp_path, name):
    # the residue pairs of every prime are read from the build's decomposition
    # and one swapped decomposition, both over F, at each residue field of
    # V's prime chain
    made = _calls(lambda: _run(cli.cmd_extend, tmp_path, name, verify=True))
    assert made.count(("compositum.py", "tensor_decompose")) <= 2


def test_extend_verify_factors_the_kprime_polynomial_no_more_than_extend(tmp_path, monkeypatch):
    # a degree-12 k' over Q with a 300-digit coefficient: the parse proves it
    # irreducible, and the spectrum over Q(x) must not factor it again
    from valext import poly

    path = tmp_path / "wide.val"
    nines = "9" * 300
    path.write_text(
        "[base]\nbase: Q\nk-prefix: 0\n\n[valuation]\nvars: x\norder: lex\n\n"
        f"[extension]\nkprime-gens: s: algebraic y^12 + {nines}*y^5 + 3\n"
    )
    degrees = []
    real = poly.factor

    def factor(f):
        degrees.append(f.degree())
        return real(f)

    monkeypatch.setattr(poly, "factor", factor)

    def factored(verify: bool) -> int:
        degrees.clear()
        out, err = io.StringIO(), io.StringIO()
        assert cli.cmd_extend(str(path), verify=verify, out=out, err=err) == 0
        return degrees.count(12)

    assert 1 <= factored(True) <= factored(False)


_SEEDED_SELFTEST = """
import random, runpy, sys
random.seed(int(sys.argv[1]))
sys.argv = ["valext", "selftest"]
runpy.run_module("valext", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("seed", [0, 3])
def test_selftest_output_is_golden_under_python_O_and_another_hash_seed(seed):
    # the selftest's checks must not be assert statements, which -O strips,
    # and its output must not follow the iteration order of a set of strings
    # or the state of the global random module; the module runs as under -m
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SEEDED_SELFTEST, str(seed)],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="98765"),
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "selftest.txt").read_bytes()


_PLANTED_REPORT = """
import sys
from valext import cli
render = cli.render_report
cli.render_report = lambda *args: render(*args) + " "
sys.exit(cli.main(["selftest"]))
"""


def test_selftest_fails_a_planted_report_fault_under_python_O():
    # a trailing space in every extend report: -O must not strip the digest
    # comparison, and each FAIL line names its report
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED_REPORT],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="98765"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (4, "selftest failed: 5 report(s)\n")
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    want = [f"FAIL {name}.extend-verify.txt: report differs" for name in sorted(EXTENSIONS)]
    assert failed == want


# -- the factorization corpus ----------------------------------------------------
#
# ``tests/golden/factor.txt`` holds the factorization (unit, then each monic
# factor with its multiplicity, in the order ``factor`` returns them) and the
# squarefree decomposition of a fixed seeded set of polynomials over every
# kind of domain the factorizer serves, or the error it raises.  It was
# written by ``python tests/test_golden.py`` (with ``src`` on the path) before
# the modular shortcuts of the factor path, and is fixed since.


def _factor_towers():
    from valext.fields import FieldTower

    q = FieldTower.rationals()
    q_i = q.extend_algebraic("i", [1, 0, 1])
    f2_a = FieldTower.prime_field(2).extend_transcendental("a")
    return {
        "Q": q,
        "F2": FieldTower.prime_field(2),
        "F3": FieldTower.prime_field(3),
        "F5": FieldTower.prime_field(5),
        "F7": FieldTower.prime_field(7),
        "Q(i)": q_i,
        "Q(s2)": q.extend_algebraic("s2", [-2, 0, 1]),
        "Q(i)(s2)": q_i.extend_algebraic("s2", [-2, 0, 1]),
        "Q(c)": q.extend_algebraic("c", [-2, 0, 0, 0, 1]),
        "F2(a)": f2_a,
        "F2(a)(r)": f2_a.extend_algebraic("r", [f2_a.gen("a"), f2_a.zero(), f2_a.one()]),
    }


# fixed inputs: many modular factors, cyclotomic products, squares, non-monic
# and non-integral coefficients, and the p-power binomials of characteristic 2
_FIXED_INPUTS = {
    "Q": [
        "y^4 - 10*y^2 + 1",
        "(y^2 + y + 1) * (y^4 + 1) * (y^4 + y^3 + y^2 + y + 1) * (y^2 - y + 1)",
        "y^12 - 1",
        "(y^4 - 10*y^2 + 1) * (y^2 - 3)^2",
        "3/2*y^3 - 1/4*y + 5",
        "-6*y^4 + 6",
        "(2*y - 1)^3 * (3*y + 2)",
        "y^8 - 40*y^6 + 352*y^4 - 960*y^2 + 576",
        "7",
    ],
    "F2": ["y^8 + y", "(y^2 + y + 1)^4 * (y^3 + y + 1)"],
    "F3": ["y^9 - y", "(y^2 + 1)^3 * (y + 2)^2"],
    "F5": ["y^5 - y", "2*y^4 + 3"],
    "F7": ["y^8 - 1", "(y^3 + 2)^2 * (y - 3)"],
    "Q(i)": ["y^4 + 1", "y^4 - 10*y^2 + 1", "(y^2 + 1)^2 * (y - i)", "i*y^2 + 2"],
    "Q(s2)": ["y^4 - 10*y^2 + 1", "(y^2 - 2)^3", "y^8 - 1", "(y^2 - s2)^2 * (y + s2)"],
    "Q(i)(s2)": ["y^4 + 1", "y^4 - 10*y^2 + 1", "(y^2 + 2)^2 * (y^2 - 2)"],
    "Q(c)": ["y^4 - 2", "y^4 + 2", "(y^2 - c)^2 * (y + c)", "y^8 - 4"],
    "F2(a)": [
        "y^2 + a",
        "(y^4 + a + 1)^2",
        "(y^2 + y + 1)^2 * (y^3 + y + 1)",
        "(y^2 + a) * (y + 1)",
        "y^2 + a^2",
        "(y^2 + a)^2 * (y^2 + a^2 + 1)",
    ],
    "F2(a)(r)": ["y^2 + a", "y^2 + r", "(y^4 + a)^2", "y^2 + y + 1", "(y^2 + a) * (y^2 + r)"],
}


def _random_factor(rng, domain, gens, deg):
    """A random factor of degree ``deg`` as text, with small coefficients."""
    terms = []
    for e in range(deg + 1):
        if domain.startswith("F") and not gens:
            c = str(rng.randrange(1 if e == deg else 0, int(domain[1:])))
        else:
            a = rng.randrange(-3, 4)
            if domain == "Q" and rng.random() < 0.2:
                a = f"{a}/{rng.choice([2, 3, 4])}"
            parts = [str(a)] + [f"{rng.randrange(-2, 3)}*{g}" for g in gens if rng.random() < 0.6]
            if e == deg and all(p.startswith("0") for p in parts):
                parts[0] = "1"
            c = f"({' + '.join(parts)})"
        terms.append(f"{c}*y^{e}")
    return " + ".join(terms)


_RANDOM_GENS = {"Q(i)": ["i"], "Q(s2)": ["s2"], "Q(i)(s2)": ["i", "s2"], "Q(c)": ["c"]}
# per domain: how many products, and their largest degree; the extensions
# of higher degree take fewer and smaller products
_RANDOM_SHAPES = {"Q(i)(s2)": (3, 4), "Q(c)": (3, 4)}


def _factor_inputs():
    out = []
    for domain, fixed in _FIXED_INPUTS.items():
        out += [(domain, text) for text in fixed]
        if domain.startswith("F2("):
            continue
        rng = random.Random(f"golden-factor:{domain}")
        count, top = _RANDOM_SHAPES.get(domain, (6, 10))
        for _ in range(count):
            pieces, left = [], rng.randrange(top // 2, top + 1)
            while left > 0:
                deg = rng.randrange(1, min(3, left) + 1)
                mult = rng.choice([1, 1, 2]) if 2 * deg <= left else 1
                pieces.append((_random_factor(rng, domain, _RANDOM_GENS.get(domain, []), deg), mult))
                left -= deg * mult
            out.append((domain, " * ".join(f"({t})^{m}" if m > 1 else f"({t})" for t, m in pieces)))
    return out


def factor_corpus(before_each=lambda: None) -> str:
    """The text of ``factor.txt``; ``before_each()`` runs before each input."""
    from valext.errors import ValextError
    from valext.poly import Polynomial, factor, squarefree_decomposition

    towers = _factor_towers()
    lines = []
    for domain, text in _factor_inputs():
        before_each()
        lines.append(f"{domain} | {text}")
        f = Polynomial.parse(text, towers[domain], ("y",))
        try:
            lines.append(f"  squarefree: {[(str(g), m) for g, m in squarefree_decomposition(f)]}")
        except ValextError as exc:
            lines.append(f"  squarefree: {type(exc).__name__}: {exc}")
        try:
            fac = factor(f)
            lines.append(f"  unit: {fac.unit}")
            lines += [f"  ({g})^{m}" for g, m in fac.factors]
        except ValextError as exc:
            lines.append(f"  factor: {type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def test_factor_corpus_is_golden():
    assert factor_corpus() == (GOLDEN / "factor.txt").read_text()


def test_factor_corpus_does_not_depend_on_the_good_prime_memo():
    # cold: _good_prime's memo cleared before every input; warm: kept across
    # the whole corpus, from the cold run's last input on
    from valext.poly import _good_prime

    cold = factor_corpus(before_each=_good_prime.cache_clear)
    warm = factor_corpus()
    assert cold == warm == (GOLDEN / "factor.txt").read_text()
    assert _good_prime.cache_info().hits > 0



# -- canonical Q scalars ---------------------------------------------------------
#
# Over Q a base scalar is an int when it is integral and a ``Fraction`` only
# when its denominator is > 1.  A ``Fraction`` with denominator 1 would still
# compute and print the same, only slower, so nothing above would notice one;
# this guard watches every element and polynomial made on the golden paths.


def _noncanonical_scalars(rep) -> list:
    """The base scalars of a characteristic-0 rep, nested tuples of them at
    every level, that are neither an int nor a ``Fraction`` with
    denominator > 1."""
    if rep.__class__ is tuple:
        return [s for c in rep for s in _noncanonical_scalars(c)]
    if rep.__class__ is int or (rep.__class__ is Fraction and rep.denominator > 1):
        return []
    return [rep]


@pytest.fixture
def scalar_leaks(monkeypatch):
    """Patches the element and polynomial constructors to record every
    noncanonical characteristic-0 scalar they are given."""
    leaks = []
    element_init, poly_init = FieldElement.__init__, Polynomial.__init__

    def checked_element(self, tower, rep):
        if tower.char == 0:
            leaks.extend(_noncanonical_scalars(rep))
        element_init(self, tower, rep)

    def checked_poly(self, tower, var, reps):
        if tower.char == 0:
            leaks.extend(_noncanonical_scalars(tuple(reps)))
        poly_init(self, tower, var, reps)

    monkeypatch.setattr(FieldElement, "__init__", checked_element)
    monkeypatch.setattr(Polynomial, "__init__", checked_poly)
    return leaks


def test_the_scalar_guard_sees_an_integral_fraction(scalar_leaks):
    q_i = FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    FieldElement(q_i, (Fraction(1, 2), 3))
    assert scalar_leaks == []
    FieldElement(q_i, (Fraction(1, 2), Fraction(3)))
    assert scalar_leaks == [3] and scalar_leaks[0].__class__ is Fraction


def test_golden_paths_make_only_canonical_rational_scalars(tmp_path, scalar_leaks):
    for name in EXTENSIONS:
        assert _run(cli.cmd_extend, tmp_path, name, verify=True) == (
            GOLDEN / f"{name}.extend-verify.txt"
        ).read_text()
    assert _run(cli.cmd_decompose, tmp_path, "decompose_qi") == (
        GOLDEN / "decompose_qi.decompose.txt"
    ).read_text()
    assert factor_corpus() == (GOLDEN / "factor.txt").read_text()
    assert scalar_leaks == []


if __name__ == "__main__":
    sys.stdout.write(factor_corpus())
