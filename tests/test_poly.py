import itertools
import random

import pytest

from valext.config import FACTOR_DEGREE_BOUND
from valext.errors import CapabilityError, DomainError, StructuralError
from valext.fields import FieldTower
from valext.poly import Polynomial, factor, gcd, resultant, squarefree_part


def parse(text, tower):
    return Polynomial.parse(text, tower, ("y",))


# -- gcd -----------------------------------------------------------------------


def test_gcd_examples(rationals, f2_a, f3):
    assert gcd(parse("y^2 - 1", rationals), parse("y - 1", rationals)) == parse(
        "y - 1", rationals
    )
    f = parse("y^2 + a", f2_a)
    # the derivative 2y vanishes in characteristic 2
    assert f.derivative().is_zero
    assert gcd(f, f.derivative()) == f
    assert gcd(parse("y^3 + y", f3), parse("y^2 + 1", f3)) == parse("y^2 + 1", f3)


def test_gcd_euclid_oracle(f3):
    # brute force: the gcd is the highest-degree monic common divisor
    f = parse("y^3 + y", f3)
    g = parse("y^2 + 1", f3)
    best = None
    for deg in range(1, 3):
        for tail in itertools.product(range(3), repeat=deg):
            cand = Polynomial.from_coeffs(f3, "y", [f3.from_int(c) for c in tail] + [f3.one()])
            if (f % cand).is_zero and (g % cand).is_zero:
                best = cand
    assert gcd(f, g) == best


def test_gcd_requires_univariate(rationals):
    f = Polynomial.parse("y*z", rationals, ("y", "z"))
    with pytest.raises(StructuralError):
        gcd(f, f)
    with pytest.raises(DomainError):
        gcd(parse("0", rationals), parse("0", rationals))


# -- squarefree ------------------------------------------------------------------


def test_squarefree_char0(rationals):
    f = parse("(y - 1)^2 * (y + 1)", rationals)
    part, mults = squarefree_part(f)
    assert part == parse("y^2 - 1", rationals)
    assert {(str(g), m) for g, m in mults} == {("y - 1", 2), ("y + 1", 1)}


def test_squarefree_radicial_over_root_field(f2_a_r):
    f = parse("y^2 + a", f2_a_r)
    part, mults = squarefree_part(f)
    assert len(mults) == 1 and mults[0][1] == 2
    # oracle: expand (y + r)^2 back in characteristic 2
    assert part * part == f


def test_squarefree_separable_is_itself(rationals):
    f = parse("y^3 - 2", rationals)
    part, mults = squarefree_part(f)
    assert part == f and all(m == 1 for _, m in mults)


def test_squarefree_mixed_multiplicities_char_p(f5):
    f = parse("(y + 1)^5 * (y + 2)^2 * y", f5)
    part, mults = squarefree_part(f)
    assert {(str(g), m) for g, m in mults} == {("y + 1", 5), ("y + 2", 2), ("y", 1)}
    expanded = Polynomial.constant(f5, ("y",), 1)
    for g, m in mults:
        expanded = expanded * g**m
    assert expanded == f


def test_squarefree_irreducible_binomial_char2(f2_a):
    part, mults = squarefree_part(parse("y^2 + a", f2_a))
    assert mults == [(parse("y^2 + a", f2_a), 1)]


# -- factor ----------------------------------------------------------------------


def test_factor_examples(rationals, q_i, f2):
    fac = factor(parse("y^2 + 1", q_i))
    assert [str(g) for g, _ in fac.factors] == ["y - i", "y + i"]
    assert fac.expand() == parse("y^2 + 1", q_i)
    fac = factor(parse("y^2 + 1", rationals))
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1
    fac = factor(parse("y^4 + 1", f2))
    assert [(str(g), m) for g, m in fac.factors] == [("y + 1", 4)]
    assert fac.expand() == parse("y^4 + 1", f2)


def test_factor_refactoring_property(f5, rationals):
    rng = random.Random(11)
    for tower in (f5, rationals):
        for _ in range(25):
            deg = rng.randrange(1, 7)
            if tower.char == 0:
                coeffs = [tower.from_int(rng.randrange(-4, 5)) for _ in range(deg)]
            else:
                coeffs = [tower.from_int(rng.randrange(5)) for _ in range(deg)]
            coeffs.append(tower.from_int(rng.choice([1, 2, 3])))
            f = Polynomial.from_coeffs(tower, "y", coeffs)
            assert factor(f).expand() == f


def _brute_force_factors_f5(coeffs5):
    """Independent oracle: trial division by monic polynomials of increasing
    degree over F5 with plain integer arithmetic."""

    def divmod5(a, b):
        a = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        inv = pow(b[-1], -1, 5)
        while len(a) >= len(b):
            c = a[-1] * inv % 5
            k = len(a) - len(b)
            q[k] = c
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % 5
            while a and a[-1] == 0:
                a.pop()
        return q, a

    f = [c % 5 for c in coeffs5]
    inv = pow(f[-1], -1, 5)
    f = [c * inv % 5 for c in f]
    out = []
    deg = 1
    while len(f) - 1 > 0 and deg <= len(f) - 1:
        found = False
        for tail in itertools.product(range(5), repeat=deg):
            cand = list(tail) + [1]
            q, r = divmod5(f, cand)
            if not r:
                mult = 0
                while True:
                    q, r = divmod5(f, cand)
                    if r:
                        break
                    f = q
                    mult += 1
                out.append((tuple(cand), mult))
                found = True
                break
        if not found:
            deg += 1
    return sorted(out)


def test_factor_equal_degree_splitting_even_characteristic(f2):
    # same-degree irreducible pairs force the trace-based splitter
    f = parse("(y^3 + y + 1) * (y^3 + y^2 + 1)", f2)
    fac = factor(f)
    assert {str(g) for g, _ in fac.factors} == {"y^3 + y + 1", "y^3 + y^2 + 1"}
    f4 = f2.extend_algebraic("c", [1, 1, 1])
    g = parse("y^2 + y + 1", f4)
    fac = factor(g)
    assert [str(p) for p, _ in fac.factors] == ["y + c", "y + c + 1"]
    h = parse("(y^2 + y + c) * (y^2 + y + c + 1)", f4)
    fac = factor(h)
    assert len(fac.factors) == 2 and fac.expand() == h


def test_factor_brute_force_oracle_f2(f2):
    rng = random.Random(13)

    def divmod2(a, b):
        a = list(a)
        while len(a) >= len(b):
            k = len(a) - len(b)
            if a[-1]:
                for i, x in enumerate(b):
                    a[k + i] ^= x
            if a and a[-1] == 0:
                while a and a[-1] == 0:
                    a.pop()
            else:
                break
        return a

    def brute(coeffs):
        f = list(coeffs)
        out = []
        deg = 1
        while len(f) - 1 > 0 and deg <= (len(f) - 1):
            found = False
            for bits in itertools.product(range(2), repeat=deg):
                cand = list(bits) + [1]
                if not divmod2(f, cand):
                    mult = 0
                    while not divmod2(f, cand):
                        q = []
                        r = list(f)
                        while len(r) >= len(cand):
                            k = len(r) - len(cand)
                            c = r[-1]
                            q.insert(0, c)
                            if c:
                                for i, x in enumerate(cand):
                                    r[k + i] ^= x
                            r.pop()
                        f = q
                        mult += 1
                    out.append((tuple(cand), mult))
                    found = True
                    break
            if not found:
                deg += 1
        return sorted(out)

    for _ in range(30):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(2) for _ in range(deg)] + [1]
        f = Polynomial.from_coeffs(f2, "y", [f2.from_int(c) for c in coeffs])
        fac = factor(f)
        got = sorted(
            (tuple(int(c.rep) for c in g.univariate_coeffs()), m) for g, m in fac.factors
        )
        assert got == brute(coeffs), coeffs


def test_factor_brute_force_oracle_f5(f5):
    rng = random.Random(5)
    for _ in range(40):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(5) for _ in range(deg)] + [1]
        f = Polynomial.from_coeffs(f5, "y", [f5.from_int(c) for c in coeffs])
        fac = factor(f)
        got = sorted(
            (tuple(int(c.rep) for c in g.univariate_coeffs()), m) for g, m in fac.factors
        )
        assert got == _brute_force_factors_f5(coeffs)


def test_factor_zassenhaus_splits(rationals):
    f = parse("(y^3 - 2) * (y^3 - 3)", rationals)
    fac = factor(f)
    assert len(fac.factors) == 2
    assert fac.expand() == f
    f = parse("y^5 - y - 1", rationals)
    assert len(factor(f).factors) == 1


def test_factor_norm_reduction_q_sqrt2(q_sqrt2):
    f = parse("y^2 - 2", q_sqrt2)
    fac = factor(f)
    assert [str(g) for g, _ in fac.factors] == ["y - s2", "y + s2"]


def test_factor_descends_through_transcendentals(rationals, q_i):
    qx = rationals.extend_transcendental("x")
    assert len(factor(parse("y^2 - 2", qx)).factors) == 1
    qix = q_i.extend_transcendental("x")
    assert len(factor(parse("y^2 + 1", qix)).factors) == 2


def test_factor_trager_above_function_field(rationals):
    qxi = rationals.extend_transcendental("x").extend_algebraic("i", [1, 0, 1])
    fac = factor(parse("y^2 + 1", qxi))
    assert len(fac.factors) == 2
    assert fac.expand() == parse("y^2 + 1", qxi)


def test_factor_radicial_binomials(f2_a, f2_a_r):
    assert len(factor(parse("y^2 + a", f2_a)).factors) == 1  # irreducible
    fac = factor(parse("y^2 + a", f2_a_r))  # (y + r)^2
    assert [(str(g), m) for g, m in fac.factors] == [("y + r", 2)]


def test_factor_degree_bound(rationals):
    with pytest.raises(CapabilityError):
        factor(parse("y^13 - 2", rationals))


def test_factor_unsupported_field_is_capability_error(f2_a):
    f2_at = f2_a.extend_transcendental("t")
    # separable quadratic over a rational function field in characteristic 2
    with pytest.raises(CapabilityError):
        factor(parse("y^2 + y + a*t", f2_at))


def test_factor_refactoring_over_algebraic_towers(q_i, f2_a_r):
    rng = random.Random(17)
    # random products of monic factors over Q(i), refactored exactly
    for _ in range(10):
        f = Polynomial.constant(q_i, ("y",), 1)
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 3)
            coeffs = [
                q_i.from_int(rng.randrange(-2, 3)) + q_i.gen("i") * rng.randrange(-1, 2)
                for _ in range(deg)
            ]
            f = f * Polynomial.from_coeffs(q_i, "y", coeffs + [q_i.one()])
        if f.degree() < 1:
            continue
        assert factor(f).expand() == f
    # and over the inseparable char-2 tower: powers of one linear factor,
    # recovered through repeated root extraction
    for _ in range(8):
        c = f2_a_r.gen("r") ** rng.randrange(3) * f2_a_r.gen("a") ** rng.randrange(2)
        e = rng.randrange(1, 4)
        f = Polynomial.from_coeffs(f2_a_r, "y", [c, f2_a_r.one()]) ** (2 * e)
        fac = factor(f)
        assert fac.expand() == f
        assert [(str(g), m) for g, m in fac.factors] == [(f"y + {c}", 2 * e)]


def test_factor_deterministic_order(f5):
    f = parse("y^6 + 2*y^4 + y^2 + 3", f5)
    first = [(str(g), m) for g, m in factor(f).factors]
    for _ in range(3):
        assert [(str(g), m) for g, m in factor(f).factors] == first


def test_multiplicity_one_iff_separable(rationals, f5):
    rng = random.Random(2)
    for tower in (rationals, f5):
        for _ in range(20):
            deg = rng.randrange(1, 6)
            if tower.char == 0:
                coeffs = [tower.from_int(rng.randrange(-3, 4)) for _ in range(deg)]
            else:
                coeffs = [tower.from_int(rng.randrange(5)) for _ in range(deg)]
            f = Polynomial.from_coeffs(tower, "y", coeffs + [tower.one()])
            mults_one = all(m == 1 for _, m in factor(f).factors)
            d = f.derivative()
            sep = (not d.is_zero) and gcd(f, d).degree() == 0
            assert mults_one == sep


def test_resultant_against_definition(rationals):
    # Res(f, g) = lc(g)^deg f * prod f-roots evaluated in g, checked on split cases
    f = parse("(y - 1) * (y - 2)", rationals)
    g = parse("(y - 3) * (y + 1)", rationals)
    val = resultant(f, g)
    want = rationals.one()
    for root in (1, 2):
        want = want * (
            Polynomial.parse("y", rationals, ("y",)) - root
        ).evaluate({"y": rationals.zero()})  # placeholder to keep types simple
    # direct: product of g at the roots of f
    want = (rationals.from_int((1 - 3) * (1 + 1))) * rationals.from_int((2 - 3) * (2 + 1))
    assert val == want


def test_parse_print_round_trip(rationals, f2_a):
    for tower, text in (
        (rationals, "y^2 - 2*y + 3/2"),
        (f2_a, "y^2 + a*y + a"),
        (rationals, "y^4 + 1"),
    ):
        f = parse(text, tower)
        assert parse(str(f), tower) == f


def test_parse_multivariate_syntax(rationals):
    qa = rationals.extend_transcendental("a")
    f = Polynomial.parse("y^2 - a*x + 3/2", qa, ("y", "x"))
    assert f.degree() == 2 and len(f.vars) == 2
    assert Polynomial.parse(str(f), qa, ("y", "x")) == f


# -- differential test against sympy ---------------------------------------------


def _random_factor_text(rng, domain, gen):
    """A random polynomial of degree 1..3 as text, with small coefficients:
    in range(p) over F_p, a + b*gen over Q(gen)."""
    deg = rng.randrange(1, 4)
    terms = []
    for e in range(deg + 1):
        if domain.startswith("F"):
            c = str(rng.randrange(1 if e == deg else 0, int(domain[1:])))
        else:
            a, b = rng.randrange(-3, 4), (rng.randrange(-2, 3) if gen else 0)
            if e == deg and a == 0 and b == 0:
                a = 1
            c = f"({a} + {b}*{gen})" if b else str(a)
        terms.append(f"{c}*y^{e}")
    return " + ".join(terms)


# rational polynomials that split over Q(i) or Q(sqrt 2), and one that does not
_SPLITTERS = ["y^2 + 1", "y^2 - 2", "y^4 + 1", "y^2 + 2", "y^2 - y - 1"]


# sympy warns about its own modular-integer comparisons in factor_list
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize(
    "domain, gen", [("Q", ""), ("F2", ""), ("F3", ""), ("F7", ""), ("Q(i)", "i"), ("Q(s2)", "s2")]
)
def test_factor_matches_sympy(request, domain, gen):
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    names = {"y": y, "i": sympy.I, "s2": sympy.sqrt(2)}
    if domain.startswith("F"):
        tower = FieldTower.prime_field(int(domain[1:]))
        options = {"modulus": int(domain[1:])}
    else:
        fixture = {"Q": "rationals", "Q(i)": "q_i", "Q(s2)": "q_sqrt2"}[domain]
        tower = request.getfixturevalue(fixture)
        options = {"extension": names[gen]} if gen else {}

    def monic_keys(pairs):
        return sorted((str(sympy.Poly(g, y, **options).monic().as_expr()), m) for g, m in pairs)

    rng = random.Random(f"sympy:{domain}")
    for _ in range(6):
        pieces = []
        while sum(p[1] for p in pieces) < 4:
            piece = rng.choice(_SPLITTERS) if rng.random() < 0.3 else None
            piece = piece or _random_factor_text(rng, domain, gen)
            pieces.append((piece, rng.choice([1, 1, 2])))
        text = " * ".join(f"({t})^{m}" for t, m in pieces)
        f = parse(text, tower)
        if f.degree() > FACTOR_DEGREE_BOUND:
            continue
        fac = factor(f)
        assert fac.expand() == f
        expr = sympy.sympify(text.replace("^", "**"), locals=names)
        _, ref = sympy.factor_list(expr, y, **options)
        have = [(sympy.sympify(str(g).replace("^", "**"), locals=names), m) for g, m in fac.factors]
        assert monic_keys(have) == monic_keys(ref), text
