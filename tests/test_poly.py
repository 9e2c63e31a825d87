import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valext import poly as poly_mod
from valext.config import FACTOR_DEGREE_BOUND
from valext.errors import CapabilityError, DomainError, SelfCheckError, StructuralError
from valext.fields import (
    FieldElement,
    FieldTower,
    IntegersMod,
    PrimeField,
    RationalField,
    _key,
    _u_divmod,
    _u_mul,
    _u_squarefree,
)
from valext.norms import random_field_element
from valext.poly import (
    Polynomial,
    _norm,
    factor,
    gcd,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)


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
    # a polynomial has one variable, and gcd needs the same one on both sides
    with pytest.raises(StructuralError):
        Polynomial.parse("y*z", rationals, ("y", "z"))
    with pytest.raises(StructuralError):
        gcd(parse("y", rationals), Polynomial.parse("z", rationals, ("z",)))
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
    assert part * part == f and str(part) == "y + r"


def test_squarefree_separable_is_itself(rationals):
    for text in ("y^3 - 2", "y^2 + 1"):
        f = parse(text, rationals)
        part, mults = squarefree_part(f)
        assert part == f and all(m == 1 for _, m in mults)


def test_squarefree_mixed_multiplicities_char_p(monkeypatch, f5):
    f = parse("(y + 1)^5 * (y + 2)^2 * y", f5)
    calls = []
    decompose = poly_mod.squarefree_decomposition
    monkeypatch.setattr(
        poly_mod, "squarefree_decomposition", lambda g: calls.append(g) or decompose(g)
    )
    part, mults = squarefree_part(f)
    # Yun leaves (y + 1)^5 = g(y^5) with g = y + 1; the coefficient-wise root
    # y + 1 of g's squarefree part is squarefree and is not decomposed again
    assert calls == [f, parse("y + 1", f5)]
    assert {(str(g), m) for g, m in mults} == {("y + 1", 5), ("y + 2", 2), ("y", 1)}
    expanded = Polynomial.from_coeffs(f5, "y", [1])
    for g, m in mults:
        expanded = expanded * g**m
    assert expanded == f


def test_squarefree_irreducible_binomial_char2(f2_a):
    part, mults = squarefree_part(parse("y^2 + a", f2_a))
    assert mults == [(parse("y^2 + a", f2_a), 1)]


def _assert_squarefree_contract(f, parts):
    """The parts are monic of positive degree, squarefree and pairwise
    coprime, and their powers multiply back to f made monic.  A part whose
    derivative leaves a common factor is squarefree when no irreducible
    factor of it divides it twice."""
    product = f._like([f.tower.ring.one])
    for g, m in parts:
        assert g.degree() > 0 and g == g.monic() and m >= 1
        if gcd(g, g.derivative()).degree() > 0:
            assert all(not (g % (q * q)).is_zero for q, _ in factor(g).factors)
        product = product * g**m
    assert product == f.monic()
    for (g, _), (h, _) in itertools.combinations(parts, 2):
        assert gcd(g, h).degree() == 0


def test_squarefree_parts_over_f2_a_may_repeat_a_multiplicity(f2_a):
    # the p-content route splits a part by factoring it and does not merge
    # the pieces, so a multiplicity may repeat; with a vanishing derivative
    # the parts come in that route's order, unsorted
    for text, want in (
        ("(y^2 + a)^2 * (y^2 + a^2 + 1)", [("y^2 + a", 2), ("y + a + 1", 2)]),
        ("y^3 + a*y", [("y", 1), ("y^2 + a", 1)]),
    ):
        f = parse(text, f2_a)
        parts = squarefree_decomposition(f)
        assert [(str(g), m) for g, m in parts] == want
        _assert_squarefree_contract(f, parts)


def test_squarefree_contract_holds_for_every_small_polynomial_over_f2_a(f2_a):
    # every monic f of degree 1..4 in y whose coefficients have degree <= 2
    # in a: 4,680 inputs, of which 44 are refused as a capability and the
    # rest keep the contract; when f' is nonzero the parts are sorted
    a = f2_a.gen("a")
    coeffs = [sum((a**i for i in range(3) if mask >> i & 1), f2_a.zero()) for mask in range(8)]
    decomposed = 0
    for degree in range(1, 5):
        for tail in itertools.product(coeffs, repeat=degree):
            f = Polynomial.from_coeffs(f2_a, "y", [*tail, f2_a.one()])
            try:
                parts = squarefree_decomposition(f)
            except CapabilityError as exc:
                assert "coefficients from the subfield below it" in str(exc)
                continue
            _assert_squarefree_contract(f, parts)
            if not f.derivative().is_zero:
                keys = [g.sort_key() for g, _ in parts]
                assert keys == sorted(keys)
            decomposed += 1
    assert decomposed == 4636


# no golden input reaches the three checks below: each fails only on a fault
# of the engine, so each raises SelfCheckError (exit 5 under `valext extend`)


def test_yun_reports_a_leftover_in_characteristic_zero_as_a_self_check(monkeypatch, rationals):
    # a derivative planted as f itself: gcd(f, f') = f leaves all of f over
    monkeypatch.setattr(Polynomial, "derivative", lambda self: self)
    with pytest.raises(SelfCheckError, match="^unexpected leftover in characteristic zero$"):
        poly_mod.squarefree_decomposition(parse("y^2 - 1", rationals))


def test_a_square_binomial_in_the_squarefree_factorizer_is_a_self_check(f2_a):
    # y^2 + a^2 = (y + a)^2 breaks _factor_squarefree's precondition
    with pytest.raises(SelfCheckError, match="cannot have a rootable base$"):
        poly_mod._factor_squarefree(parse("y^2 + a^2", f2_a), random.Random(0))


def test_an_inexact_bareiss_division_is_a_self_check(monkeypatch):
    # a 3x3 determinant divides by the first pivot (a 2x2 one never divides);
    # the division is planted to leave a remainder
    R = RationalField()
    exact = poly_mod._u_divmod
    monkeypatch.setattr(poly_mod, "_u_divmod", lambda R, a, b: (exact(R, a, b)[0], [R.one]))
    matrix = [[[R.from_int(3 * i + j + (i == j == 2))] for j in range(3)] for i in range(3)]
    with pytest.raises(SelfCheckError, match="^fraction-free elimination: inexact division$"):
        poly_mod._bareiss_det(R, matrix)


def test_bareiss_determinant_with_a_zero_pivot_column():
    # the first column is zero, so no row swap finds a pivot: det = 0
    matrix = [[[], [1]], [[], [2, 1]]]
    assert poly_mod._bareiss_det(PrimeField(5), matrix) == []


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


@pytest.mark.parametrize(
    "text, base, want",
    [
        # neither polynomial has all its coefficients in the level below the
        # top transcendental, yet each factors: the part that does not
        # restrict is linear, or a p-power binomial, so refusing every f
        # that does not restrict would be wrong
        ("(y - a)^2*(y^2 + 1)", "rationals", "(y - a)^2 * (y^2 + 1)"),
        ("(y^2 + a)*(y + 1)", "f2", "(y + 1) * (y^2 + a)"),
    ],
)
def test_factor_over_a_transcendental_top_without_restricting(request, text, base, want):
    k = request.getfixturevalue(base).extend_transcendental("a")
    f = parse(text, k)
    fac = factor(f)
    assert str(fac) == want and fac.expand() == f


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
        f = Polynomial.from_coeffs(q_i, "y", [1])
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


def _sylvester_resultant(f, g):
    """det of the Sylvester matrix of f and g, by Gaussian elimination."""
    tower = f.tower
    m, n = f.degree(), g.degree()
    fc = f.univariate_coeffs()[::-1]
    gc = g.univariate_coeffs()[::-1]
    zero = tower.zero()
    rows = [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]
    det = tower.one()
    for k in range(m + n):
        piv = next((i for i in range(k, m + n) if not rows[i][k].is_zero), None)
        if piv is None:
            return zero
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det = det * rows[k][k]
        inv = rows[k][k].inv()
        for i in range(k + 1, m + n):
            c = rows[i][k] * inv
            rows[i] = [x - c * z for x, z in zip(rows[i], rows[k])]
    return det


def test_resultant_against_definition(rationals, q_i, f5):
    # Res(f, g) = lc(f)^deg g * product of g over the roots of f, on a split case
    f = parse("(y - 1) * (y - 2)", rationals)
    g = parse("(y - 3) * (y + 1)", rationals)
    val = resultant(f, g)
    want = (rationals.from_int((1 - 3) * (1 + 1))) * rationals.from_int((2 - 3) * (2 + 1))
    assert val == want
    assert val == _sylvester_resultant(f, g)
    # and the Sylvester determinant over Q, Q(i) and F_5
    for tower, ftext, gtext in (
        (rationals, "3*y^3 - y + 1/2", "2*y^2 + 5*y - 7"),  # non-monic f
        (rationals, "(y - 1) * (2*y + 3)", "(y - 1) * (y^2 + 1)"),  # shared root
        (rationals, "2*y^3 + y", "7"),  # constant g
        (q_i, "(2 + i)*y^2 + i*y - 3", "y^3 + (1 - i)*y + 2"),
        (q_i, "(y - i) * (3*y + 1)", "(y - i) * (y + 2*i)"),
        (q_i, "i*y^2 + 1", "1 + i"),
        (f5, "3*y^4 + y^2 + 2", "y^3 + 4*y + 1"),
        (f5, "(y + 2) * (2*y^2 + 1)", "(y + 2) * (y + 3)"),
        (f5, "4*y^2 + y", "3"),
        # odd times odd degrees: the sign of each Euclidean step flips
        (rationals, "y - 2", "y^3 + y + 5"),
        (rationals, "y^3 + y + 5", "y - 2"),
        (rationals, "2*y^3 - y + 3", "y^3 + 4*y^2 - 1/3"),
    ):
        f, g = parse(ftext, tower), parse(gtext, tower)
        assert resultant(f, g) == _sylvester_resultant(f, g), (ftext, gtext)
        assert resultant(f, g).is_zero == (gcd(f, g).degree() > 0)
    # Res(y - 2, g) = g(2), and swapping a degree-1 and a degree-3 argument
    # negates it
    f, g = parse("y - 2", rationals), parse("y^3 + y + 5", rationals)
    assert (resultant(f, g), resultant(g, f)) == (rationals.from_int(15), rationals.from_int(-15))


def test_subtraction_from_a_constant(rationals):
    assert 1 - parse("y^2 + 3", rationals) == parse("-y^2 - 2", rationals)


def test_parse_print_round_trip(rationals, f2_a):
    for tower, text in (
        (rationals, "y^2 - 2*y + 3/2"),
        (f2_a, "y^2 + a*y + a"),
        (rationals, "y^4 + 1"),
    ):
        f = parse(text, tower)
        assert parse(str(f), tower) == f


def test_parse_refuses_several_variables(rationals):
    qa = rationals.extend_transcendental("a")
    for names in (("y", "x"), ()):
        with pytest.raises(StructuralError):
            Polynomial.parse("y^2 - a + 3/2", qa, names)
    # a name other than the variable and the generators is unknown
    with pytest.raises(StructuralError):
        Polynomial.parse("y^2 - a*x + 3/2", qa, ("y",))


# -- the norm of the norm route --------------------------------------------------


def _norm_by_resultant(fs, sub):
    """The norm as a resultant over the rational function field sub(Y), the
    generic construction: Res_theta(minpoly, fs) with fs read as a polynomial
    in theta over sub[Y]."""
    tower = fs.tower
    suby = sub.extend_transcendental("__Y")
    theta_coeffs = [suby.zero()] * tower.steps[-1].degree
    for i, c in enumerate(fs.univariate_coeffs()):
        for j, rep in enumerate(c.rep):
            term = suby.gen("__Y") ** i * suby.embed(FieldElement(sub, rep))
            theta_coeffs[j] = theta_coeffs[j] + term
    minpoly = tower.minpoly_coeffs(tower.level - 1)
    a = Polynomial.from_coeffs(suby, "t", [suby.embed(c) for c in minpoly])
    res = resultant(a, Polynomial.from_coeffs(suby, "t", theta_coeffs))
    num, den = res.rep
    assert den == (sub.ring.one,)
    return list(num)


def _q_i():
    return FieldTower.rationals().extend_algebraic("i", [1, 0, 1])


_NORM_TOWERS = {
    "Q(i)": _q_i,
    "Q(s2)": lambda: FieldTower.rationals().extend_algebraic("s2", [-2, 0, 1]),
    "Q(w)": lambda: FieldTower.rationals().extend_algebraic("w", [1, 1, 1]),
    "Q(i)(s2)": lambda: _q_i().extend_algebraic("s2", [-2, 0, 1]),
    "Q(c)": lambda: FieldTower.rationals().extend_algebraic("c", [2, 0, 0, 0, 1]),
    "F2(a)(r)": lambda: FieldTower.prime_field(2).extend_transcendental("a").extend_algebraic(
        "r", [1, 1, 1]
    ),
}


@pytest.mark.parametrize("name", list(_NORM_TOWERS))
def test_norm_matches_resultant_over_rational_function_field(name):
    tower = _NORM_TOWERS[name]()
    sub = tower.prefix(tower.level - 1)
    theta = tower.gen(tower.gen_names[-1])
    d = tower.steps[-1].degree
    rng = random.Random(f"norm:{name}")

    def coeff():
        terms = [tower.embed(random_field_element(sub, rng)) * theta**j for j in range(d)]
        return sum(terms, tower.zero())

    cases = []
    for _ in range(6):
        deg = rng.randrange(1, 4 if d == 2 else 3)  # the oracle swells with the degree
        cases.append(Polynomial.from_coeffs(tower, "y", [coeff() for _ in range(deg + 1)]))
    g = Polynomial.from_coeffs(sub, "y", [random_field_element(sub, rng), sub.one(), sub.one()])
    g_up = g.map_coeffs(tower.embed, tower)
    cases.append(g_up.scale(theta))  # theta^0 coordinate zero: the first pivot needs a swap
    cases.append(g_up)
    for fs in cases:
        assert _norm(fs, sub) == _norm_by_resultant(fs, sub), str(fs)
    # over sub the norm is g^d
    assert _norm(g_up, sub) == (g**d).reps


def test_norm_route_never_leaves_the_polynomial_ring(monkeypatch):
    q_i = _q_i()
    q_c = FieldTower.rationals().extend_algebraic("c", [2, 0, 0, 0, 1])

    def refuse(self, name):
        raise AssertionError(f"the norm route built a rational function field ({name})")

    monkeypatch.setattr(FieldTower, "extend_transcendental", refuse)
    fac = factor(parse("y^4 + 1", q_i))
    assert [str(g) for g, _ in fac.factors] == ["y^2 - i", "y^2 + i"]
    fac = factor(parse("y^4 + 2", q_c))
    assert [str(g) for g, _ in fac.factors] == ["y - c", "y + c", "y^2 + c^2"]
    f = parse("(y^2 - c) * (y^3 + c*y + 1)", q_c)
    assert factor(f).expand() == f


def test_norm_shifts_are_distinct_in_characteristic_p(monkeypatch):
    # over F_2(a)(r), r^2 + r + 1 = 0, the integer shifts 0..9 are only 0 and 1,
    # and a + n repeats a and a + 1; each distinct shift gets one norm.  The
    # input is defined over F_2(a), so 0 is skipped; the shift 1 gives a norm
    # that is not squarefree, and the norm of the shift a has a in its
    # coefficients, which the descent to F_2 refuses (before repeats were
    # skipped, the shift 1 was computed five times before a)
    tower = _NORM_TOWERS["F2(a)(r)"]()
    shifted = []

    def counting_norm(fs, sub):
        shifted.append(str(fs))
        return _norm(fs, sub)

    monkeypatch.setattr(poly_mod, "_norm", counting_norm)
    with pytest.raises(CapabilityError, match="subfield below"):
        factor(parse("y^2 + y + 1", tower))
    # f(y - r) = y^2 + y lies over F_2(a), so its norm is (y^2 + y)^2
    assert shifted == ["y^2 + y", "y^2 + y + a^2*r + a^2 + a*r + 1"]


# -- the dense type against the sparse arithmetic it replaced -------------------


class _Sparse:
    """The sparse univariate arithmetic ``Polynomial`` used to run: a dict
    from exponent tuples to nonzero FieldElement coefficients."""

    def __init__(self, tower, var, terms):
        self.tower = tower
        self.vars = (var,)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero}

    @staticmethod
    def of(f):
        return _Sparse(f.tower, f.var, {(i,): c for i, c in enumerate(f.univariate_coeffs())})

    def _new(self, terms):
        return _Sparse(self.tower, self.vars[0], terms)

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return self._new(out)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        return self._new(out)

    def divmod(self, other):
        """Long division, one leading term at a time."""
        q, r = self._new({}), self
        n = other.degree()
        lead = other.terms[(n,)]
        while r.degree() >= n:
            k = r.degree()
            t = self._new({(k - n,): r.terms[(k,)] / lead})
            q, r = q + t, r - t * other
        return q, r

    def derivative(self):
        out = {}
        for (k,), c in self.terms.items():
            if k:
                out[(k - 1,)] = c * self.tower.from_int(k)
        return self._new(out)

    def substitute(self, value):
        out = self._new({})
        for k in range(self.degree(), -1, -1):
            out = out * value
            if (k,) in self.terms:
                out = out + self._new({(0,): self.terms[(k,)]})
        return out

    def sort_key(self):
        items = sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)
        return (self.degree(), tuple((e, _key(c.tower, c.tower.level, c.rep)) for e, c in items))

    def __hash__(self):
        return hash((self.tower, self.vars, tuple(sorted(self.terms.keys()))))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms.keys(), reverse=True):
            c = self.terms[e]
            mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k > 0)
            cs = str(c)
            if mono:
                if cs == "1":
                    piece = mono
                elif cs == "-1" and self.tower.char == 0:
                    piece = f"-{mono}"
                else:
                    if any(op in cs for op in (" + ", " - ", "/")) or (
                        cs.startswith("-") and cs != "-1"
                    ):
                        cs = f"({cs})"
                    piece = f"{cs}*{mono}"
            else:
                piece = cs
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


@pytest.mark.parametrize("tower_name", ["rationals", "f3", "q_i", "f2_a_r"])
def test_dense_arithmetic_matches_the_sparse_reference(tower_name, request):
    tower = request.getfixturevalue(tower_name)
    rng = random.Random(f"dense:{tower_name}")

    def draw():
        # degrees -1 (zero) and 0 (constants) included; some coefficients zero
        deg = rng.randrange(-1, 5)
        coeffs = [
            tower.zero() if rng.random() < 0.25 else random_field_element(tower, rng, 2)
            for _ in range(deg + 1)
        ]
        return Polynomial.from_coeffs(tower, "y", coeffs)

    def same(dense, sparse):
        assert _Sparse.of(dense).terms == sparse.terms
        assert str(dense) == str(sparse)
        assert dense.sort_key() == sparse.sort_key()
        assert hash(dense) == hash(sparse)

    for _ in range(40):
        f, g = draw(), draw()
        sf, sg = _Sparse.of(f), _Sparse.of(g)
        same(f, sf)
        same(f + g, sf + sg)
        same(f - g, sf - sg)
        same(f * g, sf * sg)
        same(f.derivative(), sf.derivative())
        same(f.compose(g), sf.substitute(sg))
        if not g.is_zero:
            q, r = f.divmod(g)
            sq, sr = sf.divmod(sg)
            same(q, sq)
            same(r, sr)


# -- differential test against sympy ---------------------------------------------


def _random_factor_text(rng, domain, gen):
    """A random polynomial of degree 1..3 as text, with small coefficients:
    in range(p) over F_p, a + b*g + ... over Q(g, ...) (gen lists the g)."""
    deg = rng.randrange(1, 4)
    terms = []
    for e in range(deg + 1):
        if domain.startswith("F"):
            c = str(rng.randrange(1 if e == deg else 0, int(domain[1:])))
        else:
            a = rng.randrange(-3, 4)
            bs = [(rng.randrange(-2, 3), g) for g in gen.split(",") if g]
            if e == deg and a == 0 and not any(b for b, _ in bs):
                a = 1
            c = " + ".join([str(a)] + [f"{b}*{g}" for b, g in bs if b])
            c = f"({c})" if any(b for b, _ in bs) else c
        terms.append(f"{c}*y^{e}")
    return " + ".join(terms)


# rational polynomials that split over Q(i) or Q(sqrt 2), and one that does not
_SPLITTERS = ["y^2 + 1", "y^2 - 2", "y^4 + 1", "y^2 + 2", "y^2 - y - 1"]


# sympy warns about its own modular-integer comparisons in factor_list
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize(
    "domain, gen",
    [
        ("Q", ""),
        ("F2", ""),
        ("F3", ""),
        ("F7", ""),
        ("Q(i)", "i"),
        ("Q(s2)", "s2"),
        ("Q(i)(s2)", "i,s2"),
        ("Q(c)", "c"),
    ],
)
def test_factor_matches_sympy(domain, gen):
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    names = {"y": y, "i": sympy.I, "s2": sympy.sqrt(2), "c": 2 ** sympy.Rational(1, 4)}
    if domain.startswith("F"):
        tower = FieldTower.prime_field(int(domain[1:]))
        options = {"modulus": int(domain[1:])}
    else:
        tower = {
            "Q": FieldTower.rationals(),
            "Q(i)": _q_i(),
            "Q(s2)": _NORM_TOWERS["Q(s2)"](),
            "Q(i)(s2)": _NORM_TOWERS["Q(i)(s2)"](),
            "Q(c)": FieldTower.rationals().extend_algebraic("c", [-2, 0, 0, 0, 1]),
        }[domain]
        extension = [names[g] for g in gen.split(",") if g]
        options = {"extension": extension} if extension else {}

    def monic_keys(pairs):
        return sorted((str(sympy.Poly(g, y, **options).monic().as_expr()), m) for g, m in pairs)

    rng = random.Random(f"sympy:{domain}")
    checked = 0
    # one round over the larger extensions, where sympy alone takes a second or more
    for _ in range(1 if domain in ("Q(i)(s2)", "Q(c)") else 6):
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
        checked += 1
    assert checked


# -- the modular shortcuts of the factor path -------------------------------------

_CERTIFIED_TOWERS = {
    "Q": FieldTower.rationals,
    "Q(i)": _q_i,
    "Q(i)(s2)": _NORM_TOWERS["Q(i)(s2)"],
    "Q(c)": lambda: FieldTower.rationals().extend_algebraic("c", [-2, 0, 0, 0, 1]),
}


def _monomials(tower):
    """The monomials in the generators of a number field tower: a basis over Q."""
    basis = [tower.one()]
    for step in tower.steps:
        basis = [b * tower.gen(step.name) ** k for k in range(step.degree) for b in basis]
    return basis


def _monic_factor(tower, draw):
    """A monic polynomial of degree 1 or 2 with small integral coefficients
    over the tower, drawn by hypothesis."""
    basis = _monomials(tower)
    small = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    coeffs = draw(st.lists(small, min_size=1, max_size=2))
    elems = [sum((n * b for n, b in zip(c, basis)), tower.zero()) for c in coeffs]
    return Polynomial.from_coeffs(tower, "y", elems + [tower.one()])


@pytest.mark.parametrize("name", list(_CERTIFIED_TOWERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_certificate_never_holds_with_a_square(name, data):
    tower = _CERTIFIED_TOWERS[name]()
    g = _monic_factor(tower, data.draw)
    h = _monic_factor(tower, data.draw)
    assert poly_mod._certify(g * g * h) is False


def test_certificate_refuses_a_norm_that_drops_degree():
    # the norm of this non-monic f is (9y^2 + 1)^2 * (y^2 + 2y + 2), which
    # mod 3 is the squarefree y^2 + 2y + 2: only its degree shows the square
    f = parse("(3*y + i)^2 * (y + 1 + i)", _q_i())
    assert poly_mod._certify(f) is False


@pytest.mark.parametrize("name", list(_CERTIFIED_TOWERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_certified_inputs_are_their_own_yun_decomposition(name, data):
    tower = _CERTIFIED_TOWERS[name]()
    f = _monic_factor(tower, data.draw)
    for _ in range(data.draw(st.integers(0, 2))):
        f = f * _monic_factor(tower, data.draw)
    if poly_mod._certify(f):
        assert poly_mod.squarefree_decomposition(f) == [(f, 1)]


@pytest.mark.parametrize("name", list(_CERTIFIED_TOWERS))
def test_certificate_holds_on_squarefree_inputs(name):
    # the first generator enters each input: the number fields of one step
    # take the norm, and over Q(i)(s2) the input restricts to Q(i)
    tower = _CERTIFIED_TOWERS[name]()
    gen = tower.gen_names[0] if tower.gen_names else "1"
    for text in ["y^4 - 10*y^2 + 1", f"(y - {gen}) * (y^2 + {gen}*y + 3)", f"y^3 - {gen} + 5"]:
        assert poly_mod._certify(parse(text, tower)) is True, text


def test_a_norm_first_good_past_the_first_three_primes_is_certified(monkeypatch):
    # the norm of this squarefree f over Q(i) is first good at 11: the
    # certificate searches the whole pool, and Yun's exact gcd never runs
    f = parse("(y^2 + 2*i*y + i) * (y + 1 + 3*i)", _q_i())
    assert poly_mod._certify(f.monic()) is True

    def refused(g):
        raise AssertionError(f"squarefree_decomposition({g})")

    monkeypatch.setattr(poly_mod, "squarefree_decomposition", refused)
    fac = factor(f)
    assert fac.expand() == f and len(fac.factors) == 2


def test_a_squarefree_input_with_no_good_prime_in_the_pool_factors(rationals):
    # every prime of the pool divides M, so y^2 - M*y is y^2 mod each of
    # them: the factorization takes the first good prime above the pool
    big = math.prod(poly_mod._PRIME_POOL)
    f = parse(f"y^2 - {big}*y", rationals)
    assert poly_mod._certify(f) is False
    assert str(factor(f)) == f"(y) * (y - {big})"


def _recombine_unpruned(ints, lifted, modulus):
    """Recombination as it ran before the constant-term test: an exact
    division for every subset."""

    def sym(c):
        c %= modulus
        return c - modulus if c > modulus // 2 else c

    def primitive(cs):
        g = math.gcd(*(abs(c) for c in cs if c != 0))
        cs = [c // g for c in cs]
        return [-c for c in cs] if cs[-1] < 0 else cs

    zm = IntegersMod(modulus)
    remaining = list(range(len(lifted)))
    current = list(ints)
    out = []
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for subset in itertools.combinations(remaining, size):
                prod = [current[-1] % modulus]
                for i in subset:
                    prod = _u_mul(zm, prod, lifted[i])
                cand = primitive([sym(c) for c in prod])
                q, r = _u_divmod(
                    RationalField(), [Fraction(c) for c in current], [Fraction(c) for c in cand]
                )
                if not r and all(c.denominator == 1 for c in q):
                    out.append(cand)
                    current = [int(c) for c in q]
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if len(current) > 1:
        out.append(primitive(current))
    return out


def test_exact_integer_division_matches_division_over_q():
    rng = random.Random("divide-exact")
    outcomes = set()
    for _ in range(300):
        b = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))]
        b.append(rng.choice([1, -1, 2, -2, 3, -3, 6, -6]))
        kind = rng.randrange(4)
        if kind == 0:  # shorter than the divisor
            a = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, len(b)))]
        else:
            q = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))]
            a = _u_mul(RationalField(), [Fraction(c) for c in q], [Fraction(c) for c in b])
            a = [int(c) for c in a]
            if kind == 1:  # a remainder, or a coefficient off by one
                a[rng.randrange(len(a))] += 1
        if rng.randrange(4) == 0:
            (b if len(b) > 1 and rng.randrange(2) else a)[:1] = [0]
        while a and not a[-1]:
            a.pop()
        q, r = _u_divmod(RationalField(), [Fraction(c) for c in a], [Fraction(c) for c in b])
        exact = not r and all(c.denominator == 1 for c in q)
        expected = [int(c) for c in q] if exact else None
        assert poly_mod._divide_exact(a, b) == expected, (a, b)
        outcomes.add("exact" if exact else "inexact")
        if len(a) < len(b):
            outcomes.add("shorter")
        if 0 in a[:1] + b[:1]:
            outcomes.add("zero constant term")
    assert outcomes == {"exact", "inexact", "shorter", "zero constant term"}


@pytest.mark.parametrize(
    "text",
    [
        "y^8 - 40*y^6 + 352*y^4 - 960*y^2 + 576",
        "(y^4 - 10*y^2 + 1) * (y^2 + y + 1) * (y^2 - 3)",
        "(2*y^2 - 1) * (y^4 - 10*y^2 + 1) * (3*y^2 + 5)",
        "(y^2 + y + 1) * (y^4 + 1) * (y^4 + y^3 + y^2 + y + 1) * (y^2 - y + 1)",
        "y * (y^2 + 1) * (y^4 + 1) * (y^2 + y + 1) * (y - 3)",
    ],
)
def test_recombination_matches_the_unpruned_search(monkeypatch, rationals, text):
    calls = []
    recombine = poly_mod._recombine

    def recording(ints, lifted, modulus):
        out = recombine(ints, lifted, modulus)
        calls.append((ints, lifted, modulus, out))
        return out

    monkeypatch.setattr(poly_mod, "_recombine", recording)
    f = parse(text, rationals)
    assert factor(f).expand() == f
    (ints, lifted, modulus, out), = calls
    assert len(lifted) >= 4  # many modular factors, many subsets
    assert out == _recombine_unpruned(ints, lifted, modulus)


def test_norm_extraction_takes_one_gcd_per_piece_but_the_last(monkeypatch, q_i):
    calls = []

    def counting_gcd(f, g):
        calls.append(f.tower)
        return gcd(f, g)

    monkeypatch.setattr(poly_mod, "gcd", counting_gcd)
    f = parse("(y - i - 2) * (y^2 + i*y + 3) * (y^3 + 3*i*y + 3)", q_i)
    fac = factor(f)
    assert fac.expand() == f and len(fac.factors) == 3
    # the certificates leave no gcd to Yun or to the norm's squarefree test,
    # and the last of the three norm pieces takes the remaining factor
    assert calls == [q_i, q_i]


def test_factor_refuses_an_answer_that_does_not_multiply_back(monkeypatch, rationals):
    factor_squarefree = poly_mod._factor_squarefree

    def off_by_one(f, rng, **kw):
        return [g + 1 if k == 0 else g for k, g in enumerate(factor_squarefree(f, rng, **kw))]

    monkeypatch.setattr(poly_mod, "_factor_squarefree", off_by_one)
    with pytest.raises(DomainError, match="multiply back"):
        factor(parse("(y - 1) * (y - 2)", rationals))


_SEARCH_CASES = [
    ("(y^2 - 2) * (y^3 - 3*y + 1)", "Q", 0, 1),
    ("y^4 - 10*y^2 + 1", "Q", 0, 1),
    # the certificate of f over Q(i) takes the exact norm, and the norm
    # route takes it again at shift 0: one search serves both and the
    # factorization of the norm
    ("(y - i - 2) * (y^2 + i*y + 3)", "Q(i)", 1, 1),
    # the norm of f holds (y^2 - 3)^2: the certificate and the route's
    # shift 0 share its failed search, and the norm at shift 1 searches once
    ("(y^2 - 3) * (y^3 + 3*i*y + 3)", "Q(i)", 2, 2),
]


@pytest.mark.parametrize(
    "text, domain, route_norms, searches",
    _SEARCH_CASES,
    ids=[f"{text}-{domain}-{norms}" for text, domain, norms, _ in _SEARCH_CASES],
)
def test_one_good_prime_search_per_polynomial_over_q(
    monkeypatch, text, domain, route_norms, searches
):
    # the good prime that certifies a squarefree f over Q, or a norm over Q,
    # is the prime that factors it: a search is a miss of _good_prime's
    # memo, and each miss fills an entry of its own, so no integer
    # polynomial is searched twice
    f = parse(text, FieldTower.rationals() if domain == "Q" else _q_i())
    normed = []  # the function that took each exact norm
    norm = poly_mod._norm
    monkeypatch.setattr(
        poly_mod,
        "_norm",
        lambda fs, sub: normed.append(sys._getframe(1).f_code.co_name) or norm(fs, sub),
    )
    poly_mod._good_prime.cache_clear()
    assert factor(f).expand() == f
    info = poly_mod._good_prime.cache_info()
    # over Q(i) the certificate takes one norm, the route one per shift
    certificate_norms = 0 if domain == "Q" else 1
    assert normed == ["_certify"] * certificate_norms + ["_factor_norm_reduction"] * route_norms
    assert info.misses == info.currsize == searches


def _random_monic(tower, rng, degree):
    """A monic polynomial over a quadratic number field with coefficients
    a + b*gen, a and b small and sometimes halves."""
    gen = tower.gen(tower.gen_names[-1])

    def coeff():
        a, b = (Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 2])) for _ in range(2))
        return tower.from_fraction(a) + tower.from_fraction(b) * gen

    return Polynomial.from_coeffs(tower, "y", [coeff() for _ in range(degree)] + [tower.one()])


@pytest.mark.parametrize("name", ["Q(i)", "Q(s2)"])
def test_the_certificate_prime_is_a_good_prime_of_the_norm(name):
    # the certificate of f searches its norm's integers, and factoring f
    # finds that prime in the memo: it adds no search
    tower = _NORM_TOWERS[name]()
    sub = tower.prefix(0)
    rng = random.Random(f"hand-off:{name}")
    good_prime = poly_mod._good_prime
    certified = 0
    for _ in range(100):
        f = _random_monic(tower, rng, rng.randrange(1, 4))
        for _ in range(rng.randrange(2)):
            f = f * _random_monic(tower, rng, rng.randrange(1, 3))
        assert poly_mod.squarefree_decomposition(f) == [(f, 1)]
        good_prime.cache_clear()
        proved = poly_mod._certify(f)
        misses = good_prime.cache_info().misses
        ints = tuple(poly_mod._primitive_ints(Polynomial(sub, "y", _norm(f, sub)).reps))
        p = good_prime(ints)
        if p is None:
            continue
        assert proved and good_prime.cache_info().misses == misses
        certified += 1
        assert ints[-1] % p and _u_squarefree(PrimeField(p), [c % p for c in ints])
        assert factor(f).expand() == f
        assert good_prime.cache_info().misses == misses
    assert certified >= 60


def _cyclotomic(n, rationals):
    y = parse("y", rationals)
    out = y**n - 1
    for d in range(1, n):
        if n % d == 0:
            out = out // _cyclotomic(d, rationals)
    return out


_SWINNERTON_DYER_8 = "y^8 - 40*y^6 + 352*y^4 - 960*y^2 + 576"


def _mignotte_inputs(rationals, rng):
    """Seeded inputs over Q of degree at most 12: products of known
    irreducibles, cyclotomic polynomials and random factors with
    coefficients up to 60 and leading coefficients up to 30."""
    y = parse("y", rationals)
    for _ in range(40):
        kind = rng.randrange(4)
        if kind == 0:
            f = parse("y^4 - 10*y^2 + 1", rationals) * (y - rng.randrange(-60, 61))
        elif kind == 1:
            f = parse(_SWINNERTON_DYER_8, rationals)
            if rng.randrange(2):
                f = f * (rng.randrange(1, 31) * y**2 + rng.randrange(-60, 61))
        elif kind == 2:
            f = parse("1", rationals)
            for n in rng.sample(range(1, 19), rng.randrange(2, 5)):
                g = _cyclotomic(n, rationals)
                if f.degree() + g.degree() <= 12:
                    f = f * g
        else:
            f = parse("1", rationals)
            while f.degree() < 6:
                deg = rng.randrange(1, 4)
                g = Polynomial.from_coeffs(
                    rationals,
                    "y",
                    [rng.randrange(-60, 61) for _ in range(deg)] + [rng.randrange(1, 31)],
                )
                # a square now and then, within the degree bound of 12
                square = f.degree() + 2 * deg <= 12 and rng.randrange(3) == 0
                f = f * g * g if square else f * g
        yield f


# sympy warns about its own modular-integer comparisons in factor_list
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_hensel_precision_holds_every_true_factor(monkeypatch, rationals):
    # every factor g of a squarefree part h, scaled as recombination forms
    # it (lc(h)/lc(g) * g), lies below half the lift's modulus p^k
    sympy = pytest.importorskip("sympy")
    lifts, parts = [], []
    hensel_lift, factor_rationals = poly_mod.hensel_lift, poly_mod._factor_rationals

    def lift(p, k, f, modular):
        lifts.append(p**k)
        return hensel_lift(p, k, f, modular)

    def rationals_part(f, rng):
        before = len(lifts)
        out = factor_rationals(f, rng)
        parts.append((f, out, lifts[before:]))
        return out

    monkeypatch.setattr(poly_mod, "hensel_lift", lift)
    monkeypatch.setattr(poly_mod, "_factor_rationals", rationals_part)
    y = sympy.Symbol("y")
    for f in _mignotte_inputs(rationals, random.Random("mignotte")):
        assert f.degree() <= 12
        fac = factor(f)
        expr = sympy.sympify(str(f).replace("^", "**"), locals={"y": y})
        _, ref = sympy.factor_list(expr, y)
        have = sorted((g.degree(), m) for g, m in fac.factors)
        assert have == sorted((sympy.degree(g, y), m) for g, m in ref), str(f)
    assert len(lifts) >= 20
    for h, out, moduli in parts:
        lead = poly_mod._primitive_ints(h.reps)[-1]
        for m, g in itertools.product(moduli, out):
            assert all(2 * abs(lead * c) < m for c in g.reps), (str(h), str(g), m)


def test_no_certificate_above_two_algebraic_steps():
    # an input in s2 over Q(i)(s2) does not restrict to Q(i): Yun decides
    tower = _NORM_TOWERS["Q(i)(s2)"]()
    f = parse("(y - s2 - i) * (y^2 + (s2 + i)*y + 3)", tower)
    assert poly_mod._certify(f) is False
    assert poly_mod.squarefree_decomposition(f) == [(f, 1)]
    assert factor(f).expand() == f


# -- p-power binomials -----------------------------------------------------------


def _binomial_towers():
    """(tower, an element that is not a p-th power, or None in a finite
    field, where every element is one) for each tower of the table."""
    f2, f3 = FieldTower.prime_field(2), FieldTower.prime_field(3)
    f4 = f2.extend_algebraic("w", [1, 1, 1])
    f2_a, f3_a, f4_a = (t.extend_transcendental("a") for t in (f2, f3, f4))
    f2_a_r = f2_a.extend_algebraic("r", [f2_a.gen("a"), 0, 1])
    return {
        "F2": (f2, None),
        "F4": (f4, f4.gen("w")),
        "F3(a)": (f3_a, f3_a.gen("a") + 1),
        "F2(a)": (f2_a, f2_a.gen("a") + 1),
        "F2(a)(r)": (f2_a_r, f2_a_r.gen("r") + 1),
        "F4(a)": (f4_a, f4_a.gen("w") * f4_a.gen("a")),
    }


def _yun_then_factor(f):
    """The route of ``factor`` before binomials were decided first: Yun's
    squarefree parts, each factored."""
    rng = random.Random(0)
    out = []
    for part, m in poly_mod.squarefree_decomposition(f):
        out += [(g, m) for g in poly_mod._factor_squarefree(part, rng)]
    return sorted(out, key=lambda gm: gm[0].sort_key())


@pytest.mark.parametrize("name", list(_binomial_towers()))
def test_binomials_factor_by_pth_roots_as_yun_does(monkeypatch, name):
    tower, b = _binomial_towers()[name]
    p = tower.char
    # c = 0, c not a p-th power, a p-th power and a p^2-th power; in a finite
    # field every c is all three
    b = tower.one() if b is None else b
    cases = [tower.zero(), b, b**p, b ** (p * p)]
    gcds = []
    gcd = poly_mod.gcd
    for k in range(1, 4):
        if p**k > FACTOR_DEGREE_BOUND:
            continue
        for c in cases:
            coeffs = [-c] + [tower.zero()] * (p**k - 1) + [tower.one()]
            f = Polynomial.from_coeffs(tower, "y", coeffs)
            monkeypatch.setattr(poly_mod, "gcd", lambda *args: gcds.append(args) or gcd(*args))
            got = factor(f)
            monkeypatch.setattr(poly_mod, "gcd", gcd)
            assert got.factors == _yun_then_factor(f), (name, k, str(c))
            assert got.expand() == f
    assert gcds == []


def test_binomials_above_a_tower_without_pth_roots():
    f2_a = FieldTower.prime_field(2).extend_transcendental("a")
    tower = f2_a.extend_algebraic("s", [f2_a.gen("a") + 1, 0, 1])
    with pytest.raises(CapabilityError, match="^p-th roots are only supported over finite"):
        factor(parse("y^2 + a", tower))
    # c = 0 needs no root: y^(p^k) is (y)^(p^k) over every field
    assert str(factor(parse("y^2", tower))) == "(y)^2"
    assert str(factor(parse("y^4", tower))) == "(y)^4"
