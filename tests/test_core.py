"""The univariate core of ``fields`` over every kind of ring it serves, the
Q ring checked against the all-``Fraction`` ring it replaced, and the Hensel
lift of ``poly`` to Z/p^k, checked against the tree lift it replaced."""

import functools
import random
from fractions import Fraction

import pytest

from valext.errors import DomainError
from valext.fields import (
    AlgebraicLevel,
    FieldTower,
    IntegersMod,
    PrimeField,
    RationalField,
    TranscendentalLevel,
    _u_add,
    _u_deriv,
    _u_divmod,
    _u_gcd,
    _u_monic,
    _u_mul,
    _u_neg,
    _u_powmod,
    _u_rem,
    _u_scale,
    _u_trim,
    _u_xgcd,
)
from valext.norms import random_field_element
from valext.poly import hensel_lift


def _tower_ring(tower, fractions=False):
    def draw(rng):
        z = random_field_element(tower, rng, 3)
        if fractions and rng.randrange(2):
            w = random_field_element(tower, rng, 3)
            z = z if w.is_zero else z / w
        return z.rep

    return tower.ring, draw


def _ring(name):
    q = FieldTower.rationals()
    if name == "Q":
        return _tower_ring(q)
    if name == "F5":
        return _tower_ring(FieldTower.prime_field(5))
    if name == "Q(i)":
        return _tower_ring(q.extend_algebraic("i", [1, 0, 1]))
    if name == "F2(a)":
        return _tower_ring(FieldTower.prime_field(2).extend_transcendental("a"), True)
    if name == "Q(x1)(x2)":
        return _tower_ring(q.extend_transcendental("x1").extend_transcendental("x2"))
    if name == "Z/3^4":
        return IntegersMod(81), lambda rng: rng.randrange(81)
    # F3[x]/(x^5): a quotient that is not a field, whose non-units are the
    # multiples of x
    ring = AlgebraicLevel(PrimeField(3), (0,) * 5 + (1,))
    return ring, lambda rng: tuple(_u_trim(ring.k, [rng.randrange(3) for _ in range(5)]))


FIELDS = ["Q", "F5", "Q(i)", "F2(a)", "Q(x1)(x2)"]
RINGS = FIELDS + ["Z/3^4", "F3[x]/(x^5)"]
# Euclid over Q(x1)(x2) swells its coefficients (gcds inside gcds), so that
# ring gets small degrees to keep the test fast
MAX_DEGREE = {"Q(x1)(x2)": 1}


def _unit(R, draw, rng):
    while True:
        c = draw(rng)
        try:
            R.inv(c)
        except DomainError:
            continue
        return c


def _poly(R, draw, rng, degree, lead=None):
    out = [draw(rng) for _ in range(degree)]
    return _u_trim(R, out + [lead if lead is not None else draw(rng)])


@pytest.mark.parametrize("name", RINGS)
def test_divmod_powmod_and_xgcd_identities(name):
    R, draw = _ring(name)
    rng = random.Random(name)
    solved = 0
    top = MAX_DEGREE.get(name, 5)
    for _ in range(25):
        a = _poly(R, draw, rng, rng.randrange(0, top + 1))
        b = _poly(R, draw, rng, rng.randrange(1, min(top, 3) + 1), _unit(R, draw, rng))
        q, r = _u_divmod(R, a, b)
        assert len(r) < len(b)
        assert _u_add(R, _u_mul(R, q, b), r) == a

        n = rng.randrange(0, top + 2)
        repeated = [R.one]
        for _ in range(n):
            repeated = _u_rem(R, _u_mul(R, repeated, a), b)
        assert _u_powmod(R, a, n, b) == repeated

        # Euclid needs a unit leading coefficient at every step, which only
        # a field guarantees
        try:
            g, s, t = _u_xgcd(R, a, b)
        except DomainError:
            assert name not in FIELDS
            continue
        solved += 1
        assert g[-1] == R.one
        assert _u_add(R, _u_mul(R, s, a), _u_mul(R, t, b)) == g
        assert _u_rem(R, a, g) == [] and _u_rem(R, b, g) == []
    assert solved >= 5


@pytest.mark.parametrize("name", ["Z/5^6"])
def test_hensel_lift_finds_the_unique_monic_factors(name):
    p, k = 5, 6
    ring, res = IntegersMod(p**k), PrimeField(p)
    mul = functools.partial(_u_mul, ring)
    rng = random.Random(name)
    lifts = 0
    while lifts < 15:
        factors = [
            _poly(ring, lambda rng: rng.randrange(p**k), rng, rng.randrange(1, 3), 1)
            for _ in range(rng.randrange(2, 5))
        ]
        parts = [_u_trim(res, [c % p for c in g]) for g in factors]
        if any(len(_u_xgcd(res, g, h)[0]) != 1 for i, g in enumerate(parts) for h in parts[:i]):
            continue
        f = functools.reduce(mul, factors)
        lifted = hensel_lift(p, k, f, parts)
        assert functools.reduce(mul, lifted) == f
        assert [_u_trim(res, [c % p for c in g]) for g in lifted] == parts
        assert lifted == factors  # the monic lift is unique
        lifts += 1


def _tree_lift(p, k, f, parts):
    """The Hensel lift as it ran before the one-pass lift: split ``parts`` in
    half, lift the two products as a pair, then recurse into each half."""
    if len(parts) == 1:
        return [f]
    mul = functools.partial(_u_mul, PrimeField(p))
    half = len(parts) // 2
    g, h = _lift_pair(
        p, k, f, functools.reduce(mul, parts[:half]), functools.reduce(mul, parts[half:])
    )
    return _tree_lift(p, k, g, parts[:half]) + _tree_lift(p, k, h, parts[half:])


def _lift_pair(p, k, f, gbar, hbar):
    res, ring = PrimeField(p), IntegersMod(p**k)
    one, s, t = _u_xgcd(res, gbar, hbar)
    if len(one) != 1:
        raise DomainError("factors to lift are not coprime")
    g, h = list(gbar), list(hbar)
    for i in range(1, k):
        pi = p**i
        diff = _u_add(ring, f, _u_neg(ring, _u_mul(ring, g, h)))
        e = _u_trim(res, [c // pi % p for c in diff])
        if not e:
            continue
        q, dg = _u_divmod(res, _u_mul(res, t, e), gbar)
        dh = _u_add(res, _u_mul(res, s, e), _u_mul(res, q, hbar))
        g = _u_add(ring, g, [c * pi for c in dg])
        h = _u_add(ring, h, [c * pi for c in dh])
    return g, h


def _coprime_parts(p, rng, count):
    """Up to ``count`` pairwise coprime monic polynomials over F_p of degree
    1 to 4, y among them half the time."""
    res = PrimeField(p)
    parts = [[0, 1]] if rng.randrange(2) else []
    for _ in range(200):
        if len(parts) == count:
            break
        part = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1]
        if all(len(_u_xgcd(res, part, other)[0]) == 1 for other in parts):
            parts.append(part)
    rng.shuffle(parts)
    return parts


@pytest.mark.parametrize("p", [2, 3, 5, 7, 67])
@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_one_pass_lift_matches_the_tree_lift(p, k):
    m, res = p**k, PrimeField(p)
    rng = random.Random(f"lift:{p}:{k}")
    sizes = set()
    for _ in range(6):
        parts = _coprime_parts(p, rng, rng.randrange(2, 9))
        assert len(parts) >= 2
        sizes.add(len(parts))
        whole = functools.reduce(functools.partial(_u_mul, res), parts)
        # any monic f that is the product of the parts mod p has a lift
        f = [(c + p * rng.randrange(m)) % m for c in whole[:-1]] + [1]
        lifted = hensel_lift(p, k, f, parts)
        assert lifted == _tree_lift(p, k, f, parts)
        assert [_u_trim(res, [c % p for c in g]) for g in lifted] == parts
        assert functools.reduce(functools.partial(_u_mul, IntegersMod(m)), lifted) == f
        twice = parts[:1] + parts
        with pytest.raises(DomainError, match="not coprime"):
            hensel_lift(p, k, functools.reduce(functools.partial(_u_mul, res), twice), twice)
    assert len(sizes) > 1


class _GenericIntegersMod:
    """Z/mZ through the ring interface alone: not an ``IntegersMod``, so the
    core runs its generic loops on it, one reduction per operation."""

    zero = 0
    one = 1

    def __init__(self, m):
        self.ring = IntegersMod(m)

    def __getattr__(self, name):
        return getattr(self.ring, name)


@pytest.mark.parametrize("m, non_unit", [(7, 0), (3**5, 3)])
def test_integers_mod_loops_match_the_generic_loops(m, non_unit):
    fast, generic = IntegersMod(m), _GenericIntegersMod(m)
    rng = random.Random(f"zm:{m}")
    refused = emptied = 0
    for _ in range(200):
        a = [rng.randrange(m) for _ in range(rng.randrange(0, 9))]
        b = [rng.randrange(m) for _ in range(rng.randrange(1, 6))]
        c = rng.randrange(m) if rng.randrange(4) else 0
        # a sum whose top coefficients cancel, down to the constant term or
        # to nothing
        low = rng.randrange(0, len(a) + 1)
        cancel = [rng.randrange(m) for _ in range(low)] + _u_neg(generic, a)[low:]
        for loop in (_u_add, _u_mul):
            assert loop(fast, a, b) == loop(generic, a, b)
            assert loop(fast, b, a) == loop(generic, b, a)
        assert _u_add(fast, a, cancel) == _u_add(generic, a, cancel)
        emptied += a != [] and _u_add(fast, a, cancel) == []
        assert _u_neg(fast, a) == _u_neg(generic, a)
        assert _u_scale(fast, a, c) == _u_scale(generic, a, c)
        assert _u_deriv(fast, a) == _u_deriv(generic, a)
        trimmed = _u_trim(generic, list(a))
        try:
            expected = _u_monic(generic, trimmed)
        except DomainError:
            with pytest.raises(DomainError):
                _u_monic(fast, trimmed)
        else:
            assert _u_monic(fast, trimmed) == expected
        # b is not trimmed: its leading coefficient may be 0, or over Z/3^5
        # a non-unit, which no division may accept
        try:
            expected = _u_divmod(generic, a, b)
        except DomainError:
            with pytest.raises(DomainError):
                _u_divmod(fast, a, b)
            refused += 1
            continue
        assert _u_divmod(fast, a, b) == expected
    assert refused and emptied
    assert _u_scale(fast, [1, 2, 3], 0) == _u_scale(generic, [1, 2, 3], 0) == []
    with pytest.raises(DomainError, match="not a unit"):
        _u_divmod(fast, [1, 2, 3, 4], [1, non_unit])
    if non_unit:
        for ring in (fast, generic):
            with pytest.raises(DomainError, match="not a unit"):
                _u_monic(ring, [1, 2, non_unit])


class _FractionRationals:
    """Q with every scalar a ``Fraction``, integral ones too: the Q ring as
    it was before integral scalars became ints, kept as the oracle for
    ``RationalField``."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return 1 / a

    def is_zero(self, a):
        return a == 0


def _as_fractions(rep):
    """A rep, or a list of reps, with every base scalar a ``Fraction``."""
    if isinstance(rep, (tuple, list)):
        return type(rep)(_as_fractions(c) for c in rep)
    return Fraction(rep)


def _canonical(rep) -> bool:
    """Whether every base scalar of a rep, or of a list of reps, is an int or
    a ``Fraction`` with denominator > 1."""
    if isinstance(rep, (tuple, list)):
        return all(_canonical(c) for c in rep)
    return rep.__class__ is int or (rep.__class__ is Fraction and rep.denominator > 1)


def _q_scalars(rng) -> list:
    """0, +-1, seeded ints and fractions, and partners n - q and n / q of
    some fractions q, whose sum or product with q is the integer n; each
    in canonical form."""
    ints = [0, 1, -1, 2, -7, 10**30] + [rng.randrange(-50, 51) for _ in range(20)]
    fractions = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 10**20)]
    fractions += [Fraction(rng.randrange(-50, 51), rng.randrange(2, 30)) for _ in range(20)]
    proper = [q for q in fractions if q.denominator > 1][:12]
    partners = [rng.randrange(-5, 6) - q for q in proper]
    partners += [rng.randrange(-5, 6) / q for q in proper]
    return [x.numerator if x.denominator == 1 else x for x in ints + fractions + partners]


def test_rational_field_matches_the_fraction_ring():
    R, oracle = RationalField(), _FractionRationals()
    assert (R.zero, R.one, R.from_int(-4)) == (0, 1, -4)
    assert all(x.__class__ is int for x in (R.zero, R.one, R.from_int(-4)))
    assert R.inv(2) == Fraction(1, 2) and R.inv(2).__class__ is Fraction
    assert R.inv(Fraction(-1, 3)).__class__ is int and R.inv(Fraction(-1, 3)) == -3
    with pytest.raises(DomainError):
        R.inv(0)
    pool = _q_scalars(random.Random("q-ring"))
    integral = 0
    for a in pool:
        results = [(R.neg(a), oracle.neg(Fraction(a)))]
        if a != 0:
            results.append((R.inv(a), oracle.inv(Fraction(a))))
        for b in pool:
            results.append((R.add(a, b), oracle.add(Fraction(a), Fraction(b))))
            results.append((R.mul(a, b), oracle.mul(Fraction(a), Fraction(b))))
            integral += a.__class__ is b.__class__ is Fraction and R.add(a, b).__class__ is int
            integral += a.__class__ is b.__class__ is Fraction and R.mul(a, b).__class__ is int
        for got, expected in results:
            assert got == expected
            assert got.__class__ is (int if expected.denominator == 1 else Fraction)
    assert integral >= 12


def _oracle_ring(tower):
    """The ring of the top level of ``tower`` (Q or a tower over it of one
    step) built on ``_FractionRationals``."""
    oracle = _FractionRationals()
    if not tower.level:
        return oracle
    step = tower.steps[0]
    if step.minpoly is None:
        return TranscendentalLevel(oracle)
    return AlgebraicLevel(oracle, _as_fractions(step.minpoly))


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(x1)"])
def test_q_core_loops_match_the_fraction_ring(name):
    q = FieldTower.rationals()
    tower = {
        "Q": q,
        "Q(i)": q.extend_algebraic("i", [1, 0, 1]),
        "Q(x1)": q.extend_transcendental("x1"),
    }[name]
    R, draw = _tower_ring(tower, fractions=True)
    oracle = _oracle_ring(tower)
    rng = random.Random(f"q-core:{name}")
    # Euclid over Q(x1) takes a gcd in Q[x1] at every step and swells its
    # coefficients, so that ring gets degree 2
    top = 2 if name == "Q(x1)" else 4
    for _ in range(30):
        a = _poly(R, draw, rng, rng.randrange(0, top + 1))
        b = _poly(R, draw, rng, rng.randrange(0, top + 1), _unit(R, draw, rng))
        fa, fb = _as_fractions(a), _as_fractions(b)
        assert _canonical(a) and _canonical(b)
        for got, expected in [
            (_u_mul(R, a, b), _u_mul(oracle, fa, fb)),
            (_u_divmod(R, a, b), _u_divmod(oracle, fa, fb)),
            (_u_gcd(R, a, b), _u_gcd(oracle, fa, fb)),
            (_u_xgcd(R, a, b), _u_xgcd(oracle, fa, fb)),
        ]:
            assert got == expected
            assert _canonical(got)
