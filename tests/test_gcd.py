"""The gcd over Q and number fields: the subresultant remainder sequence of
``fields._u_gcd_subresultant`` against Euclid (``fields._u_gcd``), which
stays the gcd of every other ring and is the oracle here."""

import random
from fractions import Fraction

import pytest

from valext import fields
from valext import poly as poly_mod
from valext.fields import (
    FieldTower,
    _leaves,
    _power,
    _subresultant_prs,
    _u_gcd,
    _u_mul,
    _u_trim,
)
from valext.poly import Polynomial, factor, gcd, resultant


def _q():
    return FieldTower.rationals()


def _q_i():
    return _q().extend_algebraic("i", [1, 0, 1])


_TOWERS = {
    "Q": _q,
    "Q(i)": _q_i,
    "Q(s2)": lambda: _q().extend_algebraic("s2", [-2, 0, 1]),
    "Q(w)": lambda: _q().extend_algebraic("w", [1, 1, 1]),
    "Q(c)": lambda: _q().extend_algebraic("c", [-2, 0, 0, 0, 1]),
    "Q(i)(s2)": lambda: _q_i().extend_algebraic("s2", [-2, 0, 1]),
    # a minimal polynomial that is not integral: t^2 = 1/2
    "Q(t)": lambda: _q().extend_algebraic("t", [Fraction(-1, 2), 0, 1]),
}
_INTEGRAL = [name for name in _TOWERS if name != "Q(t)"]


def _basis(tower):
    """The monomials in the generators: a basis of the tower over Q."""
    basis = [tower.one()]
    for step in tower.steps:
        basis = [b * tower.gen(step.name) ** k for k in range(step.degree) for b in basis]
    return basis


def _element(tower, rng, rational):
    """A random element with small integral, or rational, coordinates."""
    out = tower.zero()
    for b in _basis(tower):
        n = rng.randrange(-5, 6)
        out = out + b * (Fraction(n, rng.randrange(1, 4)) if rational else n)
    return out.rep


def _poly(tower, rng, degree, rational=False):
    """Reps of a random polynomial of the given degree, rarely monic."""
    reps = [_element(tower, rng, rational) for _ in range(degree + 1)]
    while tower.ring.is_zero(reps[-1]):
        reps[-1] = _element(tower, rng, rational)
    return reps


def _even(R, reps):
    """p(y^2) for p given by reps: remainder sequences with degree gaps of 2."""
    out = []
    for c in reps:
        out += [c, R.zero]
    return out[:-1]


def _pairs(tower, rng):
    """(name, a, b) over the tower: every shape the gcd meets."""
    R = tower.ring
    for rational in (False, True):
        tag = "rational" if rational else "integral"

        def draw(d):
            return _poly(tower, rng, d, rational)

        yield f"coprime {tag}", draw(5), draw(4)
        yield f"coprime gap {tag}", draw(6), draw(2)
        common = draw(2)
        yield f"common factor {tag}", _u_mul(R, common, draw(3)), _u_mul(R, common, draw(2))
        f = draw(4)
        yield f"equal {tag}", f, list(f)
        yield f"divides {tag}", _u_mul(R, f, draw(2)), f
        yield f"divisor first {tag}", f, _u_mul(R, f, draw(1))
        yield f"zero {tag}", f, []
        yield f"zero first {tag}", [], f
        yield f"constant {tag}", f, draw(0)
        yield f"linear {tag}", f, draw(1)
        common = _even(R, draw(1))
        a = _u_mul(R, common, _even(R, draw(3)))
        yield f"even {tag}", a, _u_mul(R, common, _even(R, draw(2)))
        yield f"even coprime {tag}", _even(R, draw(4)), _even(R, draw(3))


@pytest.mark.parametrize("name", list(_TOWERS))
def test_gcd_matches_euclid(name):
    tower = _TOWERS[name]()
    R = tower.ring
    rng = random.Random(f"gcd:{name}")
    for _ in range(2):
        for shape, a, b in _pairs(tower, rng):
            want = _u_gcd(R, a, b)
            got = gcd(Polynomial(tower, "y", list(a)), Polynomial(tower, "y", list(b)))
            assert got.reps == want, (shape, a, b)
            # the reps are canonical: base scalars are ints when integral
            for c in got.reps:
                for x in _leaves(c):
                    assert x.__class__ is int or x.denominator != 1, shape


@pytest.mark.parametrize("name", list(_TOWERS))
def test_separability_matches_euclid(name):
    tower = _TOWERS[name]()
    R = tower.ring
    rng = random.Random(f"separable:{name}")
    for _ in range(4):
        f = _poly(tower, rng, 3)
        for g in (f, _u_mul(R, f, f), _u_mul(R, f, _poly(tower, rng, 1))):
            p = Polynomial(tower, "y", list(g))
            deriv = p.derivative()
            assert gcd(p, deriv).reps == _u_gcd(R, g, deriv.reps)


# -- the remainders stay integral ------------------------------------------------


def _prs_is_exact(tower, a, b):
    """Whether the subresultant sequence of integral a and b (deg a > deg b,
    a normal sequence ending in a constant) has int base scalars throughout
    and ends in +-Res(a, b): a divisor too large leaves a fraction, one too
    small leaves a multiple of the resultant."""
    R = tower.ring
    seq = list(_subresultant_prs(R, a, b))
    assert [len(r) for r in seq] == list(range(len(b) - 1, 0, -1)), "not a normal sequence"
    integral = all(x.__class__ is int for r in seq for c in r for x in _leaves(c))
    res = resultant(Polynomial(tower, "y", list(a)), Polynomial(tower, "y", list(b))).rep
    return integral and seq[-1][0] in (res, R.neg(res))


def _integral_pairs(tower, rng):
    for da, db in ((5, 4), (6, 4), (4, 3)):
        yield _poly(tower, rng, da), _poly(tower, rng, db)


@pytest.mark.parametrize("name", _INTEGRAL)
def test_subresultant_remainders_stay_integral(name):
    tower = _TOWERS[name]()
    R = tower.ring
    rng = random.Random(f"integral:{name}")
    for a, b in _integral_pairs(tower, rng):
        assert _prs_is_exact(tower, a, b)
    # degree gaps of 2 at every step exercise the update of h
    for _ in range(3):
        seq = _subresultant_prs(R, _even(R, _poly(tower, rng, 4)), _even(R, _poly(tower, rng, 3)))
        assert all(x.__class__ is int for r in seq for c in r for x in _leaves(c))


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_wrong_divisor_fails_the_integrality_guard(monkeypatch, extra):
    # g * h^(delta - 1) divides too little, g * h^(delta + 1) too much; h^-1
    # would only be needed at the first step, where h is 1
    def planted(R, g, h, delta):
        return R.mul(g, _power(h, max(delta + extra, 0), R.mul, R.one))

    tower = _TOWERS["Q(i)"]()
    rng = random.Random("planted")
    pairs = list(_integral_pairs(tower, rng))
    assert all(_prs_is_exact(tower, a, b) for a, b in pairs)
    monkeypatch.setattr(fields, "_prs_divisor", planted)
    assert not any(_prs_is_exact(tower, a, b) for a, b in pairs)
    if extra < 0:
        # too small a divisor still gives the right gcd, only larger numbers
        for a, b in pairs:
            common = _poly(tower, rng, 2)
            a, b = _u_mul(tower.ring, common, a), _u_mul(tower.ring, common, b)
            want = _u_gcd(tower.ring, a, b)
            assert fields._u_gcd_subresultant(tower.ring, a, b) == want


# -- stress pairs, where Euclid's fractions swell ---------------------------------


def _coprime_mod(tower_p, a, b) -> bool:
    """Whether a and b, with int base scalars and leading coefficients that
    stay nonzero mod p, are coprime mod p over the field tower_p (the same
    minimal polynomials mod p): then they are coprime in characteristic 0,
    since a common factor would stay one mod p."""

    def reduce(R, rep):
        if isinstance(R, fields.AlgebraicLevel):
            return tuple(_u_trim(R.k, [reduce(R.k, c) for c in rep]))
        return rep % tower_p.char

    R = tower_p.ring
    a, b = ([reduce(R, c) for c in f] for f in (a, b))
    assert not R.is_zero(a[-1]) and not R.is_zero(b[-1])
    return len(_u_gcd(R, a, b)) == 1


def test_stress_coprime_pair_over_q_i():
    # degree 24 and 23: Euclid over Q(i) takes 0.16-0.22 s on it
    tower = _TOWERS["Q(i)"]()
    rng = random.Random("stress:Q(i)")
    a, b = _poly(tower, rng, 24), _poly(tower, rng, 23)
    # i^2 + 1 is irreducible mod 3, so F_3(i) is a field
    assert _coprime_mod(FieldTower.prime_field(3).extend_algebraic("i", [1, 0, 1]), a, b)
    got = gcd(Polynomial(tower, "y", a), Polynomial(tower, "y", b))
    assert got.reps == [tower.ring.one]


def test_stress_common_factor_over_q_c():
    # degree 20 and 18 with a common factor of degree 5, c^4 = 2: Euclid
    # takes 0.6-0.8 s on it
    tower = _TOWERS["Q(c)"]()
    R = tower.ring
    rng = random.Random("stress:Q(c)")
    h, u, v = _poly(tower, rng, 5), _poly(tower, rng, 15), _poly(tower, rng, 13)
    # c^4 - 2 is irreducible mod 5 (2 has order 4 there)
    assert _coprime_mod(FieldTower.prime_field(5).extend_algebraic("c", [-2, 0, 0, 0, 1]), u, v)
    got = gcd(Polynomial(tower, "y", _u_mul(R, h, u)), Polynomial(tower, "y", _u_mul(R, h, v)))
    assert got == Polynomial(tower, "y", h).monic()


# -- a regression: the norm route over Q(c) ---------------------------------------


def test_norm_route_gcds_over_q_c_match_euclid(monkeypatch):
    # the product of four factors, y^2 - y - 1 among them, that took 1.17 s
    # to factor when these gcds ran Euclid: Yun's gcd(f, f') over Q(c) took
    # 0.12 s, and the gcd of the shift-0 norm (degree 40) with its derivative
    # over Q took 0.71 s
    tower = _TOWERS["Q(c)"]()
    text = (
        "((2 + 2*c) + 2*y + (-1 + 2*c)*y^2 + (-2 + 2*c)*y^3)"
        " * (y^2 - y - 1)"
        " * (2*c + (-1 - c)*y - 2*c*y^2 + y^3)"
        " * ((2 - c) + (-1 - c)*y + (-3 - c)*y^2)"
    )
    f = Polynomial.parse(text, tower, ("y",))
    calls = []

    def recording(a, b):
        g = gcd(a, b)
        calls.append((a.tower, a.degree(), b.degree()))
        assert g.reps == _u_gcd(a.tower.ring, a.reps, b.reps)
        return g

    monkeypatch.setattr(poly_mod, "gcd", recording)
    fac = factor(f)
    assert fac.expand() == f
    assert sorted(g.degree() for g, _ in fac.factors) == [2, 2, 3, 3]
    assert (tower, 10, 9) in calls  # Yun over Q(c)
    assert (tower.prefix(0), 40, 39) in calls  # the shift-0 norm over Q
