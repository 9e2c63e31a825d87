"""The univariate core of ``fields`` over every kind of ring it serves, the
Q ring checked against the all-``Fraction`` ring it replaced, the Hensel
lift of ``poly`` to Z/p^k, checked against the tree lift it replaced, and
the products and inverses of ``AlgebraicLevel``, checked against the long
division and the Euclidean algorithm they replaced."""

import collections
import functools
import io
import math
import random
from fractions import Fraction

import pytest

from valext import cli, fields, poly
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
    _u_modulus,
    _u_monic,
    _u_mul,
    _u_mul_ints,
    _u_neg,
    _u_powmod,
    _u_reduce,
    _u_rem,
    _u_scale,
    _u_trim,
    _u_xgcd,
)
from valext.norms import random_field_element
from valext.poly import Polynomial, _norm_rows, factor, hensel_lift
from valext.selftest import GOLDEN_SCENARIOS


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
    # one part lifts to f itself
    f = [(c + p * rng.randrange(m)) % m for c in parts[0][:-1]] + [1]
    assert hensel_lift(p, k, f, parts[:1]) == _tree_lift(p, k, f, parts[:1]) == [f]


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


INT_RINGS = {
    "F2": PrimeField(2),
    "F7": PrimeField(7),
    "F67": PrimeField(67),
    "Z/3^5": IntegersMod(3**5),
}


def _agree(fast_call, generic_call):
    """Both calls raise DomainError, or both return the same value, which is
    returned (None after a refusal)."""
    try:
        expected = generic_call()
    except DomainError:
        with pytest.raises(DomainError):
            fast_call()
        return None
    assert fast_call() == expected
    return expected


def _int_poly(rng, m, degree, lead=None):
    """A trimmed polynomial over Z/mZ of the given degree (-1 for zero) with
    leading coefficient ``lead``, or a random nonzero one."""
    if degree < 0:
        return []
    return [rng.randrange(m) for _ in range(degree)] + [lead or rng.randrange(1, m)]


def _int_unit(rng, m, other_than_one=False):
    while True:
        c = rng.randrange(1, m)
        if math.gcd(c, m) == 1 and not (other_than_one and c == 1 and m > 2):
            return c


@pytest.mark.parametrize("name", list(INT_RINGS))
def test_int_euclid_matches_the_generic_euclid(name):
    # _u_gcd and _u_xgcd over Z/mZ against their generic loops
    fast = INT_RINGS[name]
    m, generic, rng = fast.m, _GenericIntegersMod(fast.m), random.Random(f"euclid:{name}")
    mul = functools.partial(_u_mul, generic)
    seen = collections.Counter()
    for _ in range(60):
        a = _int_poly(rng, m, rng.randrange(1, 6))
        b = _int_poly(rng, m, rng.randrange(1, 5))
        c, d = [rng.randrange(1, m)], [_int_unit(rng, m)]
        g = _int_poly(rng, m, rng.randrange(1, 3), _int_unit(rng, m))
        shared = (mul(g, a), mul(g, b))
        pairs = [([], []), (a, []), ([], a), (a, c), (c, a), (c, d), (a, a), (a, b), shared]
        for x, y in pairs:
            out = _agree(lambda: _u_gcd(fast, x, y), lambda: _u_gcd(generic, x, y))
            if (x, y) == (a, b) and out is not None:
                seen["coprime" if out == [1] else "common"] += 1
            if (x, y) == shared and out is not None:
                seen["shared"] += 1
                assert len(out) >= len(g) or name == "Z/3^5"
            seen["refused"] += out is None
            # the extended loop, quotients and cofactors included
            ext = _agree(lambda: _u_xgcd(fast, x, y), lambda: _u_xgcd(generic, x, y))
            seen["xgcd refused"] += ext is None
            seen["xgcd cofactors"] += ext is not None and len(ext[1]) > 1
    assert _u_gcd(fast, [], []) == [] and _u_xgcd(fast, [], []) == ([], [1], [])
    assert seen["coprime"] and seen["shared"] and seen["xgcd cofactors"]
    assert bool(seen["refused"]) == bool(seen["xgcd refused"]) == (name == "Z/3^5")


@pytest.mark.parametrize("name", list(INT_RINGS))
def test_int_powmod_matches_the_generic_powmod(name):
    fast = INT_RINGS[name]
    m, generic, rng = fast.m, _GenericIntegersMod(fast.m), random.Random(f"powmod:{name}")
    for degree in range(5):
        for _ in range(8):
            # a unit leading coefficient other than 1 wherever there is one
            mod = _int_poly(rng, m, degree, _int_unit(rng, m, other_than_one=True))
            a = _int_poly(rng, m, rng.randrange(-1, 7))
            repeated = _u_rem(generic, [1], mod)
            for n in range(3):
                assert _u_powmod(fast, a, n, mod) == _u_powmod(generic, a, n, mod) == repeated
                repeated = _u_rem(generic, _u_mul(generic, repeated, a), mod)
            half = (m**degree - 1) // 2
            assert _u_powmod(fast, a, half, mod) == _u_powmod(generic, a, half, mod)
        # a^0 is one reduced modulo the modulus: 0 modulo a unit
        assert _u_powmod(fast, [1, 1], 0, [_int_unit(rng, m)]) == []
        assert _u_powmod(fast, [1, 1], 0, _int_poly(rng, m, degree + 1, 1)) == [1]
    if name == "Z/3^5":
        for mod in ([3], [1, 3], [2, 5, 9]):
            for a, n in (([2], 0), ([2], 3), ([1, 1], 2), ([0, 9], 2)):
                _agree(lambda: _u_powmod(fast, a, n, mod), lambda: _u_powmod(generic, a, n, mod))


@pytest.mark.parametrize("name", list(INT_RINGS))
def test_fused_product_matches_the_product_then_the_remainder(name):
    fast = INT_RINGS[name]
    m, generic, rng = fast.m, _GenericIntegersMod(fast.m), random.Random(f"fused:{name}")
    for _ in range(150):
        lead = rng.randrange(m) or 1
        mod = _int_poly(rng, m, rng.randrange(0, 5), lead)
        a = _int_poly(rng, m, rng.randrange(-1, 7))
        b = _int_poly(rng, m, rng.randrange(-1, 7))
        _agree(
            lambda: _u_reduce(m, _u_mul_ints(a, b), _u_modulus(fast, mod)),
            lambda: _u_rem(generic, _u_mul(generic, a, b), mod),
        )
    # over Z/3^5 the product's top coefficients may vanish: 9 * 27 = 0
    if name == "Z/3^5":
        for mod in ([1, 1, 3], [4, 2, 1]):
            a, b = [1, 2, 9], [5, 27]
            _agree(
                lambda: _u_reduce(m, _u_mul_ints(a, b), _u_modulus(fast, mod)),
                lambda: _u_rem(generic, _u_mul(generic, a, b), mod),
            )
    with pytest.raises(DomainError, match="division by zero"):
        _u_modulus(fast, [])


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


# ``AlgebraicLevel`` folds a product down by the minimal polynomial's
# precomputed tail and inverts a constant one level down.  The oracle is the
# level as it was before: the product reduced by long division, every
# inverse by the extended Euclidean algorithm, at every level of the tower.


class _EuclidLevel(AlgebraicLevel):
    """``AlgebraicLevel`` with its former ``mul`` and ``inv``."""

    def mul(self, a, b):
        return tuple(_u_rem(self.k, _u_mul(self.k, a, b), self.minpoly))

    def inv(self, a):
        g, s, _ = _u_xgcd(self.k, a, self.minpoly)
        if len(g) != 1:
            raise DomainError("minimal polynomial is not irreducible (non-unit gcd)")
        return tuple(_u_rem(self.k, s, self.minpoly))


def _euclid_rings(R):
    """R with every algebraic level, R's own and those below it, an
    ``_EuclidLevel``."""
    if isinstance(R, AlgebraicLevel):
        return _EuclidLevel(_euclid_rings(R.k), R.minpoly)
    if isinstance(R, TranscendentalLevel):
        return TranscendentalLevel(_euclid_rings(R.k))
    return R


def _trimmed(R, rep) -> bool:
    """Whether rep is a canonical-shaped rep of R at every level: tuples
    without trailing zeros, reduced below the step degree."""
    if isinstance(R, AlgebraicLevel):
        parts, top = (rep,), len(R.minpoly) - 1
    elif isinstance(R, TranscendentalLevel):
        parts, top = rep, None
    else:
        return True
    return all(
        part.__class__ is tuple
        and (top is None or len(part) <= top)
        and (not part or not R.k.is_zero(part[-1]))
        and all(_trimmed(R.k, c) for c in part)
        for part in parts
    )


def _root_of_a(p):
    """F_p(a)(a^(1/p))."""
    fa = FieldTower.prime_field(p).extend_transcendental("a")
    return fa.extend_algebraic("r", [-fa.gen("a")] + [0] * (p - 1) + [1], check=False)


def _root_chain():
    """F_2(a)(r)(s) with r^2 = a and s^2 = r."""
    fr = _root_of_a(2)
    return fr.extend_algebraic("s", [fr.gen("r"), 0, 1], check=False)


_Q = FieldTower.rationals
LEVEL_TOWERS = {
    "Q(i)": lambda: _Q().extend_algebraic("i", [1, 0, 1]),
    "Q(s2)": lambda: _Q().extend_algebraic("s2", [-2, 0, 1]),
    "Q(w)": lambda: _Q().extend_algebraic("w", [1, 1, 1]),
    "Q(c)": lambda: _Q().extend_algebraic("c", [-2, 0, 0, 0, 1]),
    "Q(t)": lambda: _Q().extend_algebraic("t", [Fraction(-1, 2), 0, 1]),
    "Q(i)(s2)": lambda: _Q().extend_algebraic("i", [1, 0, 1]).extend_algebraic("s2", [-2, 0, 1]),
    "F5(s2)": lambda: FieldTower.prime_field(5).extend_algebraic("s2", [-2, 0, 1]),
    "F2(a)(r)": lambda: _root_of_a(2),
    "F3(a)(r)": lambda: _root_of_a(3),
    "F5(a)(r)": lambda: _root_of_a(5),
    "F2(a)(r)(s)": _root_chain,
    # cubics with a y^2 term: a fold from the top carries into degree d
    "Q(u)": lambda: _Q().extend_algebraic("u", [-1, 0, -1, 1]),
    "F5(v)": lambda: FieldTower.prime_field(5).extend_algebraic("v", [-2, 0, -1, 1]),
}
LEVELS = list(LEVEL_TOWERS) + ["F3[x]/(x^5)"]


def _level(name):
    """(R, draw, powers): the ring of the top level, a draw of reps one level
    down, and the reps of the generator powers g^1 .. g^(2d) of every
    generator (for F3[x]/(x^5), x^1 .. x^4, the nonzero ones)."""
    if name == "F3[x]/(x^5)":
        R = AlgebraicLevel(PrimeField(3), (0,) * 5 + (1,))
        return R, lambda rng: rng.randrange(3), [(0,) * j + (1,) for j in range(1, 5)]
    tower = LEVEL_TOWERS[name]()
    R = tower.ring
    _, draw = _tower_ring(tower.prefix(tower.level - 1), fractions=True)
    d = len(R.minpoly) - 1
    powers = [(tower.gen(g) ** j).rep for g in tower.gen_names for j in range(1, 2 * d + 1)]
    return R, draw, powers


def _operands(R, draw, powers, rng) -> list:
    """Zero, one, constants, generator powers and dense reps of the level."""
    k, d = R.k, len(R.minpoly) - 1
    constants = [R.lift(_unit(k, draw, rng)) for _ in range(4)] + [R.from_int(-1), R.from_int(2)]
    dense = [tuple(_unit(k, draw, rng) for _ in range(d)) for _ in range(6)]
    sparse = [R.add(p, c) for p, c in zip(powers[::3], constants)]
    return [R.zero, R.one] + constants + powers + dense + sparse


@pytest.mark.parametrize("name", LEVELS)
def test_level_mul_and_inv_match_euclid(name):
    R, draw, powers = _level(name)
    oracle = _euclid_rings(R)
    operands = _operands(R, draw, powers, random.Random(f"level:{name}"))
    inverted = refused = 0
    for a in operands:
        for b in operands:
            got = R.mul(a, b)
            assert got == oracle.mul(a, b)
            assert _trimmed(R, got)
        try:
            expected = oracle.inv(a)
        except DomainError:
            with pytest.raises(DomainError):
                R.inv(a)
            refused += 1
            continue
        got = R.inv(a)
        assert got == expected and _trimmed(R, got)
        assert R.mul(a, got) == R.one
        inverted += 1
    # a field refuses zero alone; F3[x]/(x^5) every multiple of x
    zeros = operands.count(R.zero)
    assert refused == zeros if name in LEVEL_TOWERS else refused > zeros
    assert inverted > len(operands) // 2


def _former_norm_rows(tower, reps):
    """``poly._norm_rows`` as it was, negating the minimal polynomial's
    coefficients itself."""
    R, step = tower.rings[-2], tower.steps[-1]
    d = step.degree
    row = [[] for _ in range(d)]
    for i, c in enumerate(reps):
        for j, r in enumerate(c):
            if not R.is_zero(r):
                row[j].extend([R.zero] * (i + 1 - len(row[j])))
                row[j][i] = r
    neg_m = [R.neg(m) for m in step.minpoly[:d]]
    rows = [row]
    for _ in range(d - 1):
        top = row[-1]
        row = [[]] + row[:-1]
        if top:
            row = [
                x if R.is_zero(m) else _u_add(R, x, _u_scale(R, top, m))
                for x, m in zip(row, neg_m)
            ]
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", list(LEVEL_TOWERS))
def test_norm_rows_read_the_level_tail(name):
    tower = LEVEL_TOWERS[name]()
    R, draw, powers = _level(name)
    rng = random.Random(f"norm-rows:{name}")
    for _ in range(10):
        reps = _operands(R, draw, powers, rng)
        reps = [rng.choice(reps) for _ in range(rng.randrange(1, 5))]
        # the same values of the same types: an int stays an int
        assert repr(_norm_rows(tower, reps)) == repr(_former_norm_rows(tower, reps))


NON_UNITS = {
    "F3[x]/(x^5)": [(0, 1), (0, 2, 1), (0, 0, 0, 0, 1), (0, 1, 1, 1, 1)],
    "(Z/9)[x]/(x^2+1)": [(3,), (6,), (3, 3), (0, 3)],
}


@pytest.mark.parametrize("name", LEVELS + ["(Z/9)[x]/(x^2+1)"])
def test_level_inv_refuses_zero_and_non_units_with_domain_error(name):
    if name == "(Z/9)[x]/(x^2+1)":
        R = AlgebraicLevel(IntegersMod(9), (1, 0, 1))
        assert R.inv((2,)) == (5,) and R.inv((1, 1)) == _EuclidLevel(R.k, R.minpoly).inv((1, 1))
    else:
        R = _level(name)[0]
    for a in [R.zero] + NON_UNITS.get(name, []):
        # pytest.raises(DomainError) lets any other exception through
        with pytest.raises(DomainError):
            R.inv(a)


@pytest.fixture
def level_work(monkeypatch):
    """Counts ``AlgebraicLevel.mul`` and ``inv`` calls, and the calls that
    each makes itself (innermost level on the stack, its own ring) of
    ``_u_divmod`` by its minimal polynomial and of ``_u_xgcd``."""
    counts = collections.Counter()
    stack = []
    mul, inv = AlgebraicLevel.mul, AlgebraicLevel.inv
    divmod_, xgcd = fields._u_divmod, fields._u_xgcd

    def counted(kind, method):
        def call(self, *args):
            counts[kind(args)] += 1
            stack.append((kind(args), self))
            try:
                return method(self, *args)
            finally:
                stack.pop()

        return call

    def own(name, R, b=None):
        if stack:
            kind, level = stack[-1]
            if R is level.k and (b is None or tuple(b) == level.minpoly):
                counts[f"{name} in {kind}"] += 1

    def counted_divmod(R, a, b):
        own("_u_divmod", R, b)
        return divmod_(R, a, b)

    def counted_xgcd(R, a, b):
        own("_u_xgcd", R)
        return xgcd(R, a, b)

    monkeypatch.setattr(AlgebraicLevel, "mul", counted(lambda args: "mul", mul))
    monkeypatch.setattr(
        AlgebraicLevel,
        "inv",
        counted(lambda args: "inv constant" if len(args[0]) == 1 else "inv other", inv),
    )
    monkeypatch.setattr(fields, "_u_divmod", counted_divmod)
    monkeypatch.setattr(fields, "_u_xgcd", counted_xgcd)
    return counts


def test_golden_builds_reduce_without_division_and_invert_constants_without_euclid(
    tmp_path, level_work
):
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        path = tmp_path / f"{name}.val"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        assert (cli.cmd_extend(str(path), out=out, err=err, verify=True), err.getvalue()) == (0, "")
    assert level_work["mul"] > 0 and level_work["inv constant"] > 0
    assert level_work["_u_divmod in mul"] == 0
    assert level_work["_u_xgcd in inv constant"] == 0
    assert level_work["_u_xgcd in inv other"] == level_work["inv other"]


@pytest.fixture
def int_core_work(monkeypatch):
    """Counts ``_u_powmod``, ``_u_gcd`` and ``hensel_lift`` calls over Z/mZ,
    and the ``_u_rem`` and ``_u_divmod`` calls made while one of them is the
    innermost call on the stack (a call over another ring hides the ones
    below it)."""
    counts = collections.Counter()
    stack = []

    def entered(name, method):
        def call(*args):
            R = PrimeField(args[0]) if name == "hensel_lift" else args[0]
            over_ints = isinstance(R, IntegersMod)
            counts[name] += over_ints
            stack.append(name if over_ints else None)
            try:
                return method(*args)
            finally:
                stack.pop()

        return call

    def layered(name, method):
        def call(*args):
            if stack and stack[-1]:
                counts[f"{name} in {stack[-1]}"] += 1
            return method(*args)

        return call

    for module in (fields, poly):
        for name in ("_u_powmod", "_u_gcd", "hensel_lift"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, entered(name, getattr(module, name)))
        for name in ("_u_rem", "_u_divmod"):
            monkeypatch.setattr(module, name, layered(name, getattr(module, name)))
    return counts


def test_int_powmod_euclid_and_lift_digits_make_no_division_calls(int_core_work):
    rng = random.Random("layers")
    for p in (2, 7, 67):
        tower = FieldTower.prime_field(p)
        for _ in range(4):
            parts = [[rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1] for _ in range(3)]
            f = functools.reduce(functools.partial(_u_mul, tower.ring), parts)
            assert factor(Polynomial(tower, "y", f)).expand().reps == f
    assert int_core_work["_u_powmod"] > 0 and int_core_work["_u_gcd"] > 0
    # the lift divides to find each part's inverse, once, whatever the precision
    for p, k in ((3, 2), (5, 6), (67, 9)):
        parts = _coprime_parts(p, rng, 4)
        whole = functools.reduce(functools.partial(_u_mul, PrimeField(p)), parts)
        before = int_core_work.copy()
        poly.hensel_lift(p, 1, whole, parts)
        once = int_core_work - before
        before = int_core_work.copy()
        poly.hensel_lift(p, k, whole, parts)
        assert int_core_work - before == once
    assert int_core_work["_u_divmod in hensel_lift"] > 0
    for name in ("_u_powmod", "_u_gcd"):
        assert int_core_work[f"_u_rem in {name}"] == int_core_work[f"_u_divmod in {name}"] == 0
