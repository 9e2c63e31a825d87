import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valext import cli, config, fields
from valext.builder import build_strictly_maximal
from valext.errors import CapabilityError, DomainError, StructuralError
from valext.fields import (
    FieldTower,
    TowerHom,
    TranscendentalLevel,
    _flattening,
    _u_add,
    _u_mul,
    is_radicial,
    perfect_closure_truncated,
    pth_root,
    tower_separable_over,
)
from valext.norms import random_field_element, random_fraction_element
from valext.poly import Polynomial, gcd
from valext.selftest import GOLDEN_SCENARIOS
from valext.valuations import MonomialValuation


def test_defining_relation_q_i(q_i):
    i = q_i.gen("i")
    assert i * i == q_i.from_int(-1)
    assert (i + 1) * (i - 1) == q_i.from_int(-2)


def test_defining_relation_radicial(f2_a_r):
    r = f2_a_r.gen("r")
    a = f2_a_r.gen("a")
    assert r * r == a


def test_fraction_arithmetic(rationals):
    qx = rationals.extend_transcendental("x")
    x = qx.gen("x")
    assert (x + 1) / x + 1 / x == (x + 2) / x
    assert str((x + 1) / x + 1 / x) == "(x + 2)/x"


def test_inverse_of_zero(q_i):
    with pytest.raises(DomainError):
        q_i.zero().inv()


def test_reducible_minpoly_rejected(rationals):
    with pytest.raises(DomainError):
        rationals.extend_algebraic("u", [-1, 0, 1])  # y^2 - 1 = (y-1)(y+1)


def test_extend_algebraic_makes_the_minimal_polynomial_monic(rationals):
    # a leading coefficient other than 1 is divided out, trailing zeros dropped
    for coeffs, text in (([-1, 0, 2], "y^2 - 1/2"), ([-2, 0, 1, 0, 0], "y^2 - 2")):
        tower = rationals.extend_algebraic("u", coeffs)
        assert tower.describe() == f"base=Q; gen u: algebraic {text}"


def test_restrict_and_embed(f2_a_r):
    f2_a = f2_a_r.prefix(1)
    a = f2_a.gen("a")
    lifted = f2_a_r.embed(a)
    assert lifted.restrict(1) == a
    r = f2_a_r.gen("r")
    assert r.restrict(1) is None
    assert (r * r).restrict(1) == a
    # a tower from the public constructor holds no parent: prefix builds it
    assert FieldTower(f2_a_r.base, f2_a_r.steps).prefix(1) == f2_a


def test_describe_round_trip(f2_a_r, q_i):
    assert f2_a_r.describe() == "base=F2; gen a: transcendental; gen r: algebraic y^2 + a"


def test_separable_step_examples(rationals, f2_a, f2):
    for base, text, separable in (
        (rationals, "y^2 + 1", True), (f2_a, "y^2 + a", False), (f2, "y^3 + y + 1", True)
    ):
        f = Polynomial.parse(text, base, ("y",))
        assert base.extend_algebraic("w", f.univariate_coeffs()).steps[-1].separable is separable


@pytest.mark.parametrize(
    "text, field_name, separable",
    [("3", "rationals", True), ("y^2 + 1", "rationals", True), ("y^2", "rationals", False),
     ("y^2 + a", "f2_a", False)],
)
def test_separable_step_is_the_gcd_test(request, text, field_name, separable):
    # a nonzero constant is separable: gcd(3, 0) = 1
    f = Polynomial.parse(text, request.getfixturevalue(field_name), ("y",))
    assert (gcd(f, f.derivative()).degree() == 0) is separable


def test_separable_step_of_zero_is_undefined(rationals):
    zero = Polynomial.parse("0", rationals, ("y",))
    with pytest.raises(DomainError, match=r"gcd\(0, 0\) is undefined"):
        gcd(zero, zero.derivative())


def test_separability_cached_along_towers(q_i, f2_a_r):
    assert q_i.steps[0].separable is True
    assert f2_a_r.steps[1].separable is False
    assert tower_separable_over(q_i, 0)
    assert not tower_separable_over(f2_a_r, 1)


def test_separability_multiplicative_along_towers(q_i, f2_a_r, q_sqrt2):
    # the cached tower flags agree with direct gcd tests step by step, and the
    # tower is separable exactly when every algebraic step is
    deep = q_sqrt2.extend_algebraic("i", [1, 0, 1]).extend_transcendental("x")
    for tower in (q_i, f2_a_r, deep):
        flags = []
        for idx, step in enumerate(tower.steps):
            if not step.is_algebraic:
                continue
            f = Polynomial.from_coeffs(tower.prefix(idx), "y", tower.minpoly_coeffs(idx))
            assert (gcd(f, f.derivative()).degree() == 0) == step.separable
            flags.append(step.separable)
        assert tower_separable_over(tower, 0) == all(flags)


def test_is_radicial_examples(f2_a, f2_a_r, rationals, q_i):
    assert is_radicial(f2_a, f2_a_r) is True
    assert is_radicial(rationals, q_i) is False
    f2_ax = f2_a.extend_transcendental("x")
    assert is_radicial(f2_a, f2_ax) is False
    assert is_radicial(f2_a, f2_a) is True


def _root_chain(base: FieldTower, p: int, depth: int) -> FieldTower:
    """base(b1, ..., b_depth) with b1^p = a and b_j^p = b_(j-1)."""
    tower, prev = base, "a"
    for j in range(1, depth + 1):
        minpoly = [-tower.gen(prev)] + [0] * (p - 1) + [1]
        tower = tower.extend_algebraic(f"b{j}", minpoly, check=False)
        prev = f"b{j}"
    return tower


@pytest.mark.parametrize("depth", [9, 10])
def test_deep_root_chains_are_radicial(f2_a, depth):
    # the top generator reaches F2(a) only at its 2^depth-th power
    assert is_radicial(f2_a, _root_chain(f2_a, 2, depth)) is True
    closure = perfect_closure_truncated(f2_a, depth)
    assert closure.extension_degree(1) == 2**depth
    assert is_radicial(f2_a, closure) is True


def test_is_radicial_refuses_separable_and_transcendental_steps(f2_a):
    chain = _root_chain(f2_a, 2, 3)
    assert is_radicial(f2_a, chain.extend_transcendental("z")) is False
    # Artin-Schreier: y^2 + y + a is separable, so no power of its root lands
    # in F2(a) below the degree bound
    sep = f2_a.extend_algebraic("c", [f2_a.gen("a"), 1, 1], check=False)
    assert is_radicial(f2_a, sep) is False


def test_perfect_closure_refuses_a_degree_beyond_the_cap(f2, f2_a):
    assert config.MAX_CLOSURE_DEGREE == 1024
    with pytest.raises(CapabilityError):
        perfect_closure_truncated(f2_a, 11)  # 2^11
    with pytest.raises(CapabilityError):
        perfect_closure_truncated(f2_a.extend_transcendental("b"), 6)  # 2^(6*2)
    with pytest.raises(CapabilityError):
        perfect_closure_truncated(f2, 10**12)  # refused before 2^N is formed


def test_prime_fields_up_to_two_to_the_64(f2):
    start = time.perf_counter()
    p61 = FieldTower.prime_field(2**61 - 1)
    assert p61.char == 2**61 - 1
    with pytest.raises(StructuralError):
        FieldTower.prime_field(2**61 + 1)  # divisible by 3
    with pytest.raises(StructuralError):
        FieldTower.prime_field(3825123056546413051)  # a strong pseudoprime to bases 2..23
    # Miller-Rabin squares only when 4 divides p - 1, which it does not above; here
    # p - 1 is 119 * 2^23, 16 * odd and 64 * odd, the last two strong
    # pseudoprimes to bases 2..5 and 2..19
    assert FieldTower.prime_field(998244353).char == 998244353
    for n in (25326001, 341550071728321):
        with pytest.raises(StructuralError, match="is not prime"):
            FieldTower.prime_field(n)
    with pytest.raises(CapabilityError):
        FieldTower.prime_field(2**127 - 1)
    assert time.perf_counter() - start < 1


def test_is_radicial_requires_prefix(f2_a, f2):
    other = FieldTower.prime_field(2).extend_transcendental("b")
    with pytest.raises(StructuralError):
        is_radicial(other, f2_a)


def test_pth_root_examples(f2_a, f2_a_r):
    a = f2_a.gen("a")
    assert pth_root(a) is None
    # the numerator a^2 is a square, the denominator a + 1 is not
    assert pth_root(a**2 / (a + 1)) is None
    assert pth_root(f2_a_r.embed(a)) == f2_a_r.gen("r")
    # Artin-Schreier: w^2 + w + a is no root chain, so no flattening
    w = f2_a.extend_algebraic("w", [a, 1, 1], check=False).gen("w")
    with pytest.raises(CapabilityError, match="root-chain towers"):
        pth_root(w)
    # finite fields: Frobenius is onto
    f9 = FieldTower.prime_field(3).extend_algebraic("c", [1, 0, 1])
    z = f9.gen("c") + 1
    root = pth_root(z)
    assert root**3 == z


def test_the_flattening_cache_is_bounded(f2):
    # a long-lived process meets many root-chain towers; each is rebuilt
    # when evicted, and pth_root stays correct
    for j in range(300):
        a = f2.extend_transcendental(f"a{j}")
        k = a.extend_algebraic(f"r{j}", [a.gen(f"a{j}"), a.zero(), a.one()])
        assert pth_root(k.embed(a.gen(f"a{j}"))) == k.gen(f"r{j}")
    assert _flattening.cache_info().currsize <= 256


def test_pth_roots_above_a_finite_prefix_under_a_transcendental_step():
    # F_4 = F_2(c), c^2 = c + 1: the flattening keeps F_4 as its finite part
    f4 = FieldTower.prime_field(2).extend_algebraic("c", [1, 1, 1])
    assert pth_root(f4.gen("c")) == f4.gen("c") + 1
    f4_a = f4.extend_transcendental("a")
    a, c = f4_a.gen("a"), f4_a.gen("c")
    assert pth_root(a) is None
    root = pth_root(c * a**2)
    assert root == c**2 * a and str(root) == "c*a + a"
    f4_a_r = f4_a.extend_algebraic("r", [a, 0, 1])
    assert pth_root(f4_a_r.gen("a")) == f4_a_r.gen("r")
    assert pth_root(f4_a_r.gen("c") * f4_a_r.gen("a")) == (f4_a_r.gen("c") + 1) * f4_a_r.gen("r")
    closure = perfect_closure_truncated(f4_a, 1)
    assert closure.describe() == (
        "base=F2; gen c: algebraic y^2 + y + 1; gen a: transcendental; gen a__p1: algebraic y^2 + a"
    )
    assert pth_root(closure.gen("a")) == closure.gen("a__p1")


def test_pth_root_char_zero_is_domain_error(rationals):
    with pytest.raises(DomainError):
        pth_root(rationals.one())


def test_perfect_closure_perfect_field_fixed(f2):
    assert perfect_closure_truncated(f2, 3) == f2


def test_perfect_closure_single_generator(f2_a):
    c = perfect_closure_truncated(f2_a, 1)
    assert c.extension_degree(1) == 2
    root = pth_root(c.gen("a"))
    assert root is not None and root**2 == c.gen("a")
    # oracle: the adjoined generator squares back to a
    assert c.gen("a__p1") ** 2 == c.gen("a")


def test_perfect_closure_two_generators_degree():
    f3st = FieldTower.prime_field(3).extend_transcendental("s").extend_transcendental("t")
    c = perfect_closure_truncated(f3st, 1)
    # oracle: two cube-root adjunctions, degree 3 * 3 over the base field
    assert c.extension_degree(2) == 9
    assert c.gen("s__p1") ** 3 == c.gen("s")
    assert c.gen("t__p1") ** 3 == c.gen("t")
    assert is_radicial(f3st, c)


def test_perfect_closure_idempotent_for_existing_roots(f2_a_r):
    c = perfect_closure_truncated(f2_a_r, 1)
    # a's square root is already r; only r needs a new root
    assert c.gen_names == ("a", "r", "r__p1")


def test_perfect_closure_wrong_characteristic(rationals):
    with pytest.raises(DomainError):
        perfect_closure_truncated(rationals, 1)


def test_equality_with_a_scalar_outside_the_field_is_false(f3):
    third = Fraction(1, 3)
    f3_x = f3.extend_transcendental("x")
    for z in (f3.one(), f3_x.one(), f3_x.gen("x")):
        assert not z == third
        assert z != third
        with pytest.raises(DomainError):
            z + third
    assert f3.from_int(2) == Fraction(1, 2)


def test_arithmetic_across_a_prefix_embeds_the_smaller_operand(q_i, q_sqrt2):
    q_i_x = q_i.extend_transcendental("x")
    i, x, big_i = q_i.gen("i"), q_i_x.gen("x"), q_i_x.gen("i")
    for z in (i + x, x + i, i * x, x - i):
        assert z.tower == q_i_x
    assert i + x == big_i + x and x - i == x - big_i
    assert big_i == i and i == big_i and i != x
    s2 = q_sqrt2.gen("s2")
    with pytest.raises(StructuralError, match="unrelated towers"):
        i + s2
    assert i != s2 and not big_i == s2
    hom = TowerHom.inclusion(q_i_x, q_i_x.extend_transcendental("y"))
    assert hom.apply(i) == hom.target.gen("i")
    with pytest.raises(StructuralError, match="element not in the hom's source"):
        hom.apply(s2)


def test_tower_hom_verify_and_apply(q_i):
    conj = TowerHom(q_i, q_i, [-q_i.gen("i")])
    assert conj.verify()
    z = q_i.gen("i") + 2
    assert conj.apply(z) == 2 - q_i.gen("i")
    bad = TowerHom(q_i, q_i, [q_i.gen("i") + 1])
    assert not bad.verify()


def test_tower_hom_is_inclusion(rationals, q_i):
    q_i_t = q_i.extend_transcendental("t")
    assert TowerHom.inclusion(q_i, q_i_t).is_inclusion()
    assert TowerHom.inclusion(rationals, q_i).is_inclusion()
    # conjugation: a prefix, but i is not sent to i
    assert not TowerHom(q_i, q_i_t, [-q_i_t.gen("i")]).is_inclusion()
    # the target has no generator named i
    q_j = rationals.extend_algebraic("j", [1, 0, 1])
    assert not TowerHom(q_i, q_j, [q_j.gen("j")]).is_inclusion()
    # i -> i, but Q(i) is no prefix of Q(t)(i)
    q_t_i = rationals.extend_transcendental("t").extend_algebraic("i", [1, 0, 1])
    assert not TowerHom(q_i, q_t_i, [q_t_i.gen("i")]).is_inclusion()


def test_transcendence_cap():
    t = FieldTower.rationals()
    for name in ("t1", "t2", "t3", "t4"):
        t = t.extend_transcendental(name)
    with pytest.raises(CapabilityError):
        t.extend_transcendental("t5")


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def qi_elements(draw):
    q_i = FieldTower.rationals().extend_algebraic("i", [1, 0, 1])
    a, b = draw(small_ints), draw(small_ints)
    return q_i.from_int(a) + q_i.gen("i") * draw(small_ints) + q_i.from_fraction(Fraction(b, 7))


@settings(max_examples=60)
@given(qi_elements(), qi_elements(), qi_elements())
def test_field_axioms_q_i(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero:
        assert a * a.inv() == a.tower.one()


def test_field_axioms_random_char2(f2_a_r):
    rng = random.Random(3)

    def rand():
        out = f2_a_r.zero()
        for _ in range(3):
            t = f2_a_r.from_int(rng.randrange(2))
            for name in f2_a_r.gen_names:
                t = t * f2_a_r.gen(name) ** rng.randrange(2)
            out = out + t
        return out

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inv() == f2_a_r.one()


@pytest.mark.parametrize("tower", ["q_i", "f2_a_r", "q_x"])
def test_field_axioms_on_sampled_elements(request, rationals, tower):
    # over an algebraic, a radicial and a transcendental tower: eight sampled
    # elements of three terms, combined 40 times
    if tower == "q_x":
        tw = rationals.extend_transcendental("x")
    else:
        tw = request.getfixturevalue(tower)
    rng = random.Random(0)
    elems = [random_field_element(tw, rng, 3) for _ in range(8)]
    for _ in range(40):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inv() == tw.one()


def _fraction_product(tw, a, b):
    """Canonical rep of (an*bn)/(ad*bd) at the top, transcendental level."""
    (an, ad), (bn, bd) = a, b
    k = tw.rings[-2]
    num = _u_mul(k, list(an), list(bn))
    den = _u_mul(k, list(ad), list(bd))
    return tw.ring.frac(num, den)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_products_with_monomials_are_canonical(request, field_name, rank):
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(
        field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field_name == "f2_a")
    )
    k = v.function_field
    rng = random.Random(f"{field_name}:{rank}")
    for _ in range(30):
        z, w = random_fraction_element(v, rng), random_fraction_element(v, rng)
        z = rng.choice([z, z * w, z + w])
        exps = [rng.randrange(-3, 4) for _ in range(rank)]
        c = random_field_element(field, rng)
        if c.is_zero:
            c = field.one()
        pos = tuple(max(e, 0) for e in exps)
        neg = tuple(max(-e, 0) for e in exps)
        for m in (v.from_terms({pos: field.one()}, neg), v.from_terms({pos: c}, neg)):
            m_inv = (m.rep[1], m.rep[0])
            assert (z * m).rep == _fraction_product(k, z.rep, m.rep)
            assert (m * z).rep == _fraction_product(k, z.rep, m.rep)
            assert (z / m).rep == _fraction_product(k, z.rep, m_inv)


def _schoolbook(R, a, b) -> list:
    """a * b by the plain double loop, trimmed: the oracle for ``_u_mul``."""
    out = [R.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    while out and R.is_zero(out[-1]):
        out.pop()
    return out


def _oracle_tower(request, field_name):
    if field_name == "q_x1_x2":
        return FieldTower.rationals().extend_transcendental("x1").extend_transcendental("x2")
    return request.getfixturevalue(field_name)


def _rep_pool(tw, rng) -> list:
    """Reps of tw: one, zero, generator sums, quotients of them and, above a
    transcendental step, lifts from below and powers of the generator."""
    pool = [tw.one(), tw.zero(), tw.from_int(2)]
    for _ in range(3):
        z, w = random_field_element(tw, rng, 3), random_field_element(tw, rng, 2)
        pool += [z, z / w if not w.is_zero else w]
    if tw.steps and tw.steps[-1].minpoly is None:
        g = tw.gen(tw.gen_names[-1])
        pool += [g, g**2 + 1, (g + 1).inv(), g.inv() * 3]
    return [x.rep for x in pool]


_ORACLE_FIELDS = ["rationals", "f3", "q_i", "f2_a", "q_x1_x2"]


@pytest.mark.parametrize("field_name", _ORACLE_FIELDS)
def test_products_by_one_match_the_generic_product(request, field_name):
    # every level of the tower, operands with one, zero and untrimmed lists
    tw = _oracle_tower(request, field_name)
    rng = random.Random(f"one:{field_name}")
    for level in range(tw.level + 1):
        sub = tw.prefix(level)
        R = sub.ring
        pool = _rep_pool(sub, rng)
        operands = [[], [R.one], [R.zero], [R.one, R.zero], [R.zero, R.one]]
        for _ in range(12):
            operands.append([rng.choice(pool) for _ in range(rng.randrange(1, 4))])
        for a in operands:
            for b in operands:
                assert _u_mul(R, a, b) == _schoolbook(R, a, b), (level, a, b)


@pytest.mark.parametrize("field_name", _ORACLE_FIELDS)
def test_rational_function_sums_and_products_match_the_generic_fraction(request, field_name):
    tw = _oracle_tower(request, field_name)
    if not tw.steps or tw.steps[-1].minpoly is not None:
        tw = tw.extend_transcendental("t")
    T, k = tw.ring, tw.rings[-2]
    rng = random.Random(f"frac:{field_name}")
    pool = _rep_pool(tw, rng)
    # monomial numerators c * g^i over d prime to g, whose inverse is read
    # off without a gcd: c one, constants other than one, a random quotient
    # of the level below and, over Q(x1)(x2), a fraction in x1; i = 0, 1, 2
    below = tw.prefix(tw.level - 1)
    g = tw.gen(tw.gen_names[-1])
    z, w = random_field_element(below, rng, 3), random_field_element(below, rng, 2)
    cs = [below.from_int(n) for n in (1, -1, 3)] + [z if w.is_zero else z / w]
    if below.steps and below.steps[-1].minpoly is None:
        h = below.gen(below.gen_names[-1])
        cs.append((h + 2) / (h**2 + 3))
    for c in cs:
        if not c.is_zero:
            for i, d in [(0, g**2 + 1), (1, tw.one()), (2, g + 1)]:
                pool.append((tw.embed(c) * g**i / d).rep)
    for a in pool:
        an, ad = a
        if an:
            assert T.inv(a) == T.frac(ad, an), a
        for b in pool:
            bn, bd = b
            num = _u_add(k, _schoolbook(k, an, bd), _schoolbook(k, bn, ad))
            assert T.add(a, b) == T.frac(num, _schoolbook(k, ad, bd)), (a, b)
            want = T.frac(_schoolbook(k, an, bn), _schoolbook(k, ad, bd))
            assert T.mul(a, b) == want, (a, b)


class _CountingRing:
    """Forwards to ``ring`` and counts its products."""

    def __init__(self, ring):
        self._ring = ring
        self.muls = 0

    def __getattr__(self, name):
        return getattr(self._ring, name)

    def mul(self, a, b):
        self.muls += 1
        return self._ring.mul(a, b)


@pytest.mark.parametrize("field_name", ["rationals", "q_i", "f2_a", "q_x1_x2"])
def test_products_by_one_make_no_ring_product(request, field_name, monkeypatch):
    tw = _oracle_tower(request, field_name)
    R = _CountingRing(tw.ring)
    b = _rep_pool(tw, random.Random(f"count:{field_name}"))[2:] + [R.zero, R.zero]
    assert _u_mul(R, [R.one], b) == _u_mul(R, b, [R.one]) == _schoolbook(tw.ring, [R.one], b)
    assert R.muls == 0
    # a sum of polynomials over k (both denominators one) is their plain sum,
    # and a sum with one denominator one needs no gcd
    T = TranscendentalLevel(_CountingRing(tw.ring))
    one = T.one[1]
    p, q, r = ((R.one, R.zero, R.one), one), ((R.zero, R.one), one), ((R.one,), (R.one, R.one))
    k = tw.ring
    want = TranscendentalLevel(k).frac(_u_add(k, _schoolbook(k, p[0], r[1]), r[0]), r[1])
    monkeypatch.setattr(T, "frac", lambda *args: pytest.fail("frac was called"))
    assert T.add(p, q) == ((R.one, R.one, R.one), one)
    assert T.k.muls == 0
    assert T.add(p, r) == T.add(r, p) == want


@pytest.mark.parametrize("field_name", ["rationals", "q_i"])
@pytest.mark.parametrize("den", [(0, 0, 1), (1, 0, 2), (2, 1, 3), (0, 2, 0), (3, 3, 3)])
def test_build_fraction_rep_matches_generic_arithmetic(request, field_name, den):
    # terms share the prefixes x1 and x1*x2^0; the lowest exponents are
    # (1, 0, 2), so the denominators lie below, at and above them
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(field, ["x1", "x2", "x3"])
    k = v.function_field
    g = field.gen("i") if field_name == "q_i" else field.from_int(2)
    terms = [
        ((1, 0, 2), field.from_int(3)),
        ((1, 0, 3), g),
        ((1, 2, 2), field.from_int(-1)),
        ((2, 0, 2), g + 1),
        ((2, 1, 4), field.from_int(5)),
    ]
    xs = [k.gen(name) for name in v.variables]
    num = k.zero()
    for exps, c in terms:
        term = k.embed(c)
        for x, e in zip(xs, exps):
            term = term * x**e
        num = num + term
    mono = k.one()
    for x, e in zip(xs, den):
        mono = mono * x**e
    want = (num / mono).rep
    for order in (terms, terms[::-1]):
        assert v.from_terms(dict(order), den).rep == want
    assert v.from_terms({}, den).rep == k.ring.zero


# The evaluator TowerHom used before it ran Horner on reps: every step goes
# through FieldElement arithmetic.  Kept as the oracle of the rep version.


def _reference_eval(hom, lvl, r):
    tgt = hom.target
    if lvl == 0:
        return tgt.from_fraction(r) if tgt.char == 0 else tgt.from_int(r)
    if hom.source.steps[lvl - 1].is_algebraic:
        return _reference_poly(hom, lvl, r)
    num, den = r
    d = _reference_poly(hom, lvl, den)
    if d.is_zero:
        raise StructuralError("generator images do not define a field map")
    return _reference_poly(hom, lvl, num) / d


def _reference_poly(hom, lvl, coeffs):
    out = hom.target.zero()
    for c in reversed(coeffs):
        out = out * hom.images[lvl - 1] + _reference_eval(hom, lvl - 1, c)
    return out


def _reference_verify(hom) -> bool:
    return all(
        _reference_poly(hom, i + 1, step.minpoly).is_zero
        for i, step in enumerate(hom.source.steps)
        if step.is_algebraic
    )


def _seeded_homs(q_i, f2_a_r):
    x1x2 = FieldTower.rationals().extend_transcendental("x1").extend_transcendental("x2")
    a = f2_a_r.gen("a")
    flat_fwd, flat_back = _flattening(f2_a_r)
    built = build_strictly_maximal(
        cli.parse_scenario(GOLDEN_SCENARIOS["rank2_sqrt2"]).to_extension_scenario()
    )
    return {
        "q_i conjugation": TowerHom(q_i, q_i, [-q_i.gen("i")]),
        "q_i breaks i^2 = -1": TowerHom(q_i, q_i, [1 + q_i.gen("i")]),
        "f2_a_r a -> a^2 + 1": TowerHom(f2_a_r, f2_a_r, [a * a + 1, a + 1]),
        "f2_a_r flattening forward": flat_fwd,
        "f2_a_r flattening back": flat_back,
        "x1 -> x2^2, x2 -> x1 + 1": TowerHom(
            x1x2, x1x2, [x1x2.gen("x2") ** 2, x1x2.gen("x1") + 1]
        ),
        "rank-2 base embedding": built.base_embedding(),
    }


def test_tower_hom_matches_the_element_evaluator(q_i, f2_a_r):
    homs = _seeded_homs(q_i, f2_a_r)
    for name, hom in homs.items():
        assert hom.verify() == _reference_verify(hom), name
        rng = random.Random(name)
        for _ in range(25):
            z = random_field_element(hom.source, rng, 3)
            d = random_field_element(hom.source, rng, 2)
            if not d.is_zero:
                z = z / d
            got = hom.apply(z)
            assert got.tower == hom.target, name
            assert got.rep == _reference_eval(hom, hom.source.level, z.rep).rep, name
    assert [name for name, hom in homs.items() if not hom.verify()] == ["q_i breaks i^2 = -1"]


def test_tower_hom_refuses_a_denominator_that_maps_to_zero(rationals):
    qx = rationals.extend_transcendental("x")
    hom = TowerHom(qx, qx, [qx.zero()])
    z = 1 / qx.gen("x")
    with pytest.raises(StructuralError, match="do not define a field map"):
        _reference_eval(hom, 1, z.rep)
    with pytest.raises(StructuralError, match="do not define a field map"):
        hom.apply(z)


# ---------------------------------------------------------------------------
# The element printer against the path it replaced


def _old_split_fraction(tw, rep, cut=0):
    """Oracle: num/den of a rep as dicts mapping exponent tuples (slot j =
    generator at level cut+1+j) to level-``cut`` reps, every product
    multiplied out with no reduction by a minimal polynomial, as
    ``FieldElement.__str__`` computed them before the direct walk."""
    ring = tw.rings[cut]
    one = ring.one

    def md_mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = ring.add(out[e], ring.mul(ca, cb)) if e in out else ring.mul(ca, cb)
        return {e: c for e, c in out.items() if not ring.is_zero(c)}

    def md_add(a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = ring.add(out[e], c) if e in out else c
        return {e: c for e, c in out.items() if not ring.is_zero(c)}

    def rec(lvl, r):
        if lvl == cut:
            return ({} if ring.is_zero(r) else {(): r}), {(): one}
        if tw.steps[lvl - 1].is_algebraic:
            return combine(lvl, r)
        fn_n, fn_d = combine(lvl, r[0])
        fd_n, fd_d = combine(lvl, r[1])
        return md_mul(fn_n, fd_d), md_mul(fn_d, fd_n)

    def combine(lvl, coeffs):
        acc_n, acc_d = {}, {(0,) * (lvl - cut): one}
        for i, c in enumerate(coeffs):
            cn, cd = rec(lvl - 1, c)
            cn = {e + (i,): v for e, v in cn.items()}
            cd = {e + (0,): v for e, v in cd.items()}
            acc_n = md_add(md_mul(acc_n, cd), md_mul(cn, acc_d))
            acc_d = md_mul(acc_d, cd)
        return acc_n, acc_d

    return rec(tw.level, rep)


def _old_format_terms(terms, tw):
    rendered = []
    for exps in sorted(terms.keys(), reverse=True):
        coeff = terms[exps]
        mono = "*".join(
            f"{tw.gen_names[i]}^{e}" if e > 1 else tw.gen_names[i]
            for i, e in enumerate(exps)
            if e > 0
        )
        c = str(coeff)
        if mono:
            if coeff == tw.base.one:
                piece = mono
            elif tw.char == 0 and coeff == -tw.base.one:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
        else:
            piece = c
        rendered.append(piece)
    if not rendered:
        return "0"
    out = rendered[0]
    for piece in rendered[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _old_element_str(e):
    num, den = _old_split_fraction(e.tower, e.rep)
    n, d = _old_format_terms(num, e.tower), _old_format_terms(den, e.tower)
    if d == "1":
        return n
    if "+" in n or " - " in n or n.startswith("-"):
        n = f"({n})"
    if "+" in d or " - " in d or "*" in d:
        d = f"({d})"
    return f"{n}/{d}"


def _printer_towers():
    q, f2, f3 = FieldTower.rationals(), FieldTower.prime_field(2), FieldTower.prime_field(3)
    f2_a = f2.extend_transcendental("a")
    return {
        "Q(i)": q.extend_algebraic("i", [1, 0, 1]),
        "Q(s2)": q.extend_algebraic("s2", [-2, 0, 1]),
        "Q(w)": q.extend_algebraic("w", [1, 1, 1]),
        "F3(a)": f3.extend_transcendental("a"),
        "F2(a)(r)": f2_a.extend_algebraic("r", [f2_a.gen("a"), 0, 1]),
        "Q(x1)(x2)": q.extend_transcendental("x1").extend_transcendental("x2"),
    }


@pytest.mark.parametrize("name", sorted(_printer_towers()))
def test_element_printer_matches_the_multiplied_out_printer(name):
    tw = _printer_towers()[name]
    rng = random.Random(name)
    scalars = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    # over F_p, the scalars whose denominator is a unit
    scalars = [Fraction(c) for c in scalars if tw.char == 0 or Fraction(c).denominator % tw.char]
    elements = [tw.zero(), tw.one(), -tw.one(), tw.from_fraction(scalars[-1])]
    for n in tw.gen_names:
        g = tw.gen(n)
        elements += [g, -g, g * scalars[-2], g**3 - 1]
    for _ in range(60):
        z = tw.zero()
        for _ in range(rng.randrange(1, 5)):
            term = tw.from_fraction(rng.choice(scalars))
            for n in tw.gen_names:
                term = term * tw.gen(n) ** rng.randrange(3)
            z = z + term
        elements.append(z)
        w = random_field_element(tw, rng, 3)
        elements += [z * w, -z]
        if w:
            elements.append(z / w)
    # over Q negative and fractional coefficients, and over the
    # transcendental towers denominators other than 1, all occur
    if tw.char == 0:
        assert any(" - " in str(e) or str(e).startswith("-") for e in elements)
        assert any("/" in _old_format_terms(_old_split_fraction(e.tower, e.rep)[0], tw) for e in elements)
    if not all(s.is_algebraic for s in tw.steps):
        assert any(_old_split_fraction(e.tower, e.rep)[1] != {(0,) * tw.level: 1} for e in elements)
    for e in elements:
        assert str(e) == _old_element_str(e), e.rep


def _reduced_power_towers():
    q, f2 = FieldTower.rationals(), FieldTower.prime_field(2)
    f2_a = f2.extend_transcendental("a")
    a = f2_a.gen("a")
    f4 = f2.extend_algebraic("c", [1, 1, 1])

    def two_more(tw, u, v):
        return tw.extend_transcendental(u).extend_transcendental(v)

    return {
        "Q(i)(x)(y)": two_more(q.extend_algebraic("i", [1, 0, 1]), "x", "y"),
        "Q(w)(x)(y)": two_more(q.extend_algebraic("w", [1, 1, 1]), "x", "y"),
        "F2(a)(r)(x)(t)": two_more(f2_a.extend_algebraic("r", [a, 0, 1]), "x", "t"),
        "F4(a)(x)": f4.extend_transcendental("a").extend_transcendental("x"),
        # s^2 = 1/a: reducing s^2 brings in a new denominator
        "F2(a)(s)(x)(t)": two_more(f2_a.extend_algebraic("s", [1 / a, 0, 1], check=False), "x", "t"),
    }


def _unreduced_powers(text, tw):
    """The powers g^e in text with e at or above the degree of the
    algebraic generator g."""
    return [
        m.group(0)
        for s in tw.steps
        if s.is_algebraic
        for m in re.finditer(rf"\b{s.name}\^(\d+)", text)
        if int(m.group(1)) >= s.degree
    ]


@pytest.mark.parametrize("name", sorted(_reduced_power_towers()))
def test_a_printed_fraction_shows_no_algebraic_generator_to_a_reducible_power(name):
    tw = _reduced_power_towers()[name]
    rng = random.Random(name)
    algebraic = [tw.gen(s.name) for s in tw.steps if s.is_algebraic]
    transcendental = [tw.gen(s.name) for s in tw.steps if not s.is_algebraic]
    elements = [1 / ((u + g) * (v + g)) for g in algebraic for u in transcendental for v in transcendental]
    for _ in range(60):
        num, den = random_field_element(tw, rng, 3), tw.one()
        for _ in range(rng.randrange(1, 3)):
            d = random_field_element(tw, rng, 2)
            den = den * (d if d else tw.one())
        elements.append(num / den)
    compared = 0
    for z in elements:
        assert _unreduced_powers(str(z), tw) == [], z.rep
        old = _old_element_str(z)
        if not _unreduced_powers(old, tw):
            assert str(z) == old, z.rep
            compared += 1
    assert sum("/" in str(z) for z in elements) > len(elements) // 2
    assert compared > len(elements) // 2


def test_a_denominator_left_after_every_round_is_a_domain_error(monkeypatch, rationals):
    x = rationals.extend_transcendental("x").gen("x")
    assert str(1 / x) == "1/x"
    monkeypatch.setattr(fields, "_denominators", lambda tw, rep: [])
    with pytest.raises(DomainError, match="no polynomial numerator and denominator"):
        str(1 / x)
    assert str(x + 1) == "x + 1"
