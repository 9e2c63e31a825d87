import random
from fractions import Fraction

import pytest

from valext import config, valuations
from valext.errors import CapabilityError, DomainError, SelfCheckError, StructuralError
from test_fields import _old_split_fraction
from valext.fields import FieldElement, FieldTower
from valext.norms import random_field_element, random_fraction_element
from valext.poly import Factorization, Polynomial, factor
from valext.valuations import MonomialValuation, hensel_factor_lift
from valext.value_groups import ValueGroup


@pytest.fixture
def v_f3(f3):
    return MonomialValuation(f3, ["x"])


@pytest.fixture
def v_q2(rationals):
    return MonomialValuation(rationals, ["x1", "x2"])


def test_value_examples(v_f3, v_q2):
    x = v_f3.function_field.gen("x")
    assert v_f3.value(x) == v_f3.group.element([1])
    x1 = v_q2.function_field.gen("x1")
    x2 = v_q2.function_field.gen("x2")
    # oracle: lex minimum of the monomial exponent tuples (2,0) and (1,1)
    assert min([(2, 0), (1, 1)]) == (1, 1)
    assert v_q2.value(x1**2 + x1 * x2) == v_q2.group.element([1, 1])
    assert v_f3.value((x + 1) / x) == v_f3.group.element([-1])
    assert v_f3.value(v_f3.function_field.zero()).is_zero


def test_residue_examples(rationals):
    v = MonomialValuation(rationals, ["x"])
    x = v.function_field.gen("x")
    assert v.residue(3 + x) == rationals.from_int(3)
    assert v.residue((1 + x) / (1 - x)) == rationals.one()
    assert v.residue(x).is_zero
    with pytest.raises(DomainError):
        v.residue(1 / x)


def test_residue_is_ring_morphism(v_q2):
    rng = random.Random(1)
    for _ in range(150):
        z = random_fraction_element(v_q2, rng)
        w = random_fraction_element(v_q2, rng)
        if not (v_q2.in_ring(z) and v_q2.in_ring(w)):
            continue
        assert v_q2.residue(z * w) == v_q2.residue(z) * v_q2.residue(w)
        assert v_q2.residue(z + w) == v_q2.residue(z) + v_q2.residue(w)


def test_ultrametric_and_multiplicativity(v_q2):
    rng = random.Random(2)
    for _ in range(1000):
        z = random_fraction_element(v_q2, rng)
        w = random_fraction_element(v_q2, rng)
        assert v_q2.value(z * w) == v_q2.value(z).mul(v_q2.value(w))
        s = v_q2.value(z + w)
        assert s.additive_ge(v_q2.value(z).additive_min(v_q2.value(w)))
        if v_q2.value(z) != v_q2.value(w):
            assert s == v_q2.value(z).additive_min(v_q2.value(w))


def test_ring_view(v_f3):
    x = v_f3.function_field.gen("x")
    assert v_f3.in_ring(x) and v_f3.in_ring(1 + x)
    assert not v_f3.in_ring(1 / x)
    assert v_f3.value(x).is_positive() and not v_f3.value(1 + x).is_positive()
    assert v_f3.is_unit(1 + x) and not v_f3.is_unit(x)


def test_prime_chain_shapes(rationals, f2_a):
    chain1 = MonomialValuation(rationals, ["x"]).prime_chain()
    assert [kappa.gen_names for kappa in chain1] == [("x",), ()]
    chain2 = MonomialValuation(f2_a, ["x1", "x2"]).prime_chain()
    assert len(chain2) == 3
    # the variable of dominant value dies first; x2 survives in the middle
    assert chain2[0].gen_names == ("a", "x1", "x2")
    assert chain2[1].gen_names == ("a", "x2")
    assert chain2[2].gen_names == ("a",)
    chain3 = MonomialValuation(rationals, ["x1", "x2", "x3"]).prime_chain()
    assert [kappa.gen_names for kappa in chain3] == [
        ("x1", "x2", "x3"),
        ("x2", "x3"),
        ("x3",),
        (),
    ]


def test_denominator_exponent_values(f2_a):
    v = MonomialValuation(f2_a, ["x"], denom_exponent=1)
    x = v.function_field.gen("x")
    assert v.value(x).render() == "(1/2)"
    assert v.value(x**2).render() == "(1)"
    assert v.group.denominator == 2


def test_series_expansion(v_f3, f3):
    x = v_f3.function_field.gen("x")
    series = v_f3.series(1 / (1 - x), 4)
    assert series == [f3.one()] * 4  # geometric series
    series = v_f3.series(x**2 / (1 + x), 5)
    assert [int(c.rep) for c in series] == [0, 0, 1, 2, 1]


def _flattened_min_term(v, z):
    """Oracle: the lex-minimal exponent of the flattened numerator minus that
    of the denominator, and the quotient of their coefficients."""
    field = v.coefficient_field
    num, den = _old_split_fraction(v.function_field, z.rep, field.level)
    en, ed = min(num), min(den)
    coeff = FieldElement(field, num[en]) / FieldElement(field, den[ed])
    return tuple(a - b for a, b in zip(en, ed)), coeff


def _samples(v, rng, count):
    """Random elements, their products and sums, and quotients by c + x_j,
    whose minimal monomials have coefficients other than one."""
    k = v.function_field
    out = []
    for _ in range(count):
        z = random_fraction_element(v, rng)
        w = random_fraction_element(v, rng)
        c = random_field_element(v.coefficient_field, rng) + 1
        out += [z, z * w, z + w, z / (k.embed(c) + k.gen(rng.choice(v.variables)))]
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_value_residue_series_match_flattened_oracle(request, field_name, rank):
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(
        field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field_name == "f2_a")
    )
    d = v.group.denominator
    rng = random.Random(f"{field_name}:{rank}")
    for z in _samples(v, rng, 20):
        if z.is_zero:
            assert v.value(z).is_zero and v.residue(z).is_zero
            continue
        exps, coeff = _flattened_min_term(v, z)
        want = v.group.element(Fraction(e, d) for e in exps)
        assert v.value(z) == want, z
        if not want.is_nonnegative():
            with pytest.raises(DomainError):
                v.residue(z)
        elif want.is_positive():
            assert v.residue(z).is_zero
        else:
            assert v.residue(z) == coeff
        unit = z / v.monomial(want)
        assert v.is_unit(unit) and v.residue(unit) == coeff
        if rank > 1:
            continue
        if not want.is_nonnegative():
            with pytest.raises(DomainError):
                v.series(z, 4)
            continue
        # the series is the unique truncation with z - sum s_k x^k in (x^4)
        k, x = v.function_field, v.function_field.gen(v.variables[0])
        rest = z - sum((k.embed(c) * x**i for i, c in enumerate(v.series(z, 4))), k.zero())
        assert rest.is_zero or _flattened_min_term(v, rest)[0][0] >= 4


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_monomial_matches_from_terms(request, field_name, rank):
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(
        field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field_name == "f2_a")
    )
    d = v.group.denominator
    k = v.function_field
    xs = [k.gen(x) for x in v.variables]
    rng = random.Random(f"monomial:{field_name}:{rank}")
    vectors = [(0,) * rank] + [tuple(rng.randrange(-4, 5) for _ in range(rank)) for _ in range(30)]
    for exps in vectors:
        value = v.group.element(Fraction(e, d) for e in exps)
        m = v.monomial(value)
        # oracle: x^pos / x^neg by field arithmetic, one inverse
        num, den = k.one(), k.one()
        for x, e in zip(xs, exps):
            if e >= 0:
                num = num * x**e
            else:
                den = den * x**-e
        assert m.tower is k and m.rep == (num * den.inv()).rep, exps
        assert v.value(m) == value
    # a value of a finer group that the valuation's group does not contain,
    # the adjoined zero, and a value of another rank
    p = max(v.group.char_exponent, 2)
    finer = ValueGroup(rank, p, v.group.denom_exponent + 1)
    with pytest.raises(DomainError):
        v.monomial(finer.element((Fraction(1, p * d),) * rank))
    with pytest.raises(DomainError):
        v.monomial(v.group.zero_value())
    with pytest.raises(StructuralError):
        v.monomial(ValueGroup(rank % config.MAX_RANK + 1).neutral())


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "q_i", "f3", "f2_a"])
def test_from_terms_matches_build_fraction_rep(request, field_name, rank):
    # from_terms builds its rep level by level with no field arithmetic; on
    # seeded term sets it equals (sum of c * x^e) / x^den computed in the
    # field, with empty sets, zero and cancelling coefficients, int
    # coefficients and every denominator
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(field, [f"x{j}" for j in range(1, rank + 1)])
    k = v.function_field
    xs = [k.gen(name) for name in v.variables]
    rng = random.Random(f"from_terms:{field_name}:{rank}")

    def monomial(exps):
        out = k.one()
        for x, e in zip(xs, exps):
            out = out * x**e
        return out

    def exponents():
        return tuple(rng.randrange(0, 4) for _ in range(rank))

    for trial in range(60):
        terms = {}
        for _ in range(rng.randrange(0, 5)):
            if rng.randrange(4) == 0:
                terms[exponents()] = rng.randrange(-2, 3)
            else:
                terms[exponents()] = random_field_element(field, rng, rng.randrange(0, 3))
        if trial % 3 == 0:
            c = random_field_element(field, rng)
            terms[exponents()] = c - c
        den = exponents()
        num = k.zero()
        for e, c in terms.items():
            num = num + k.embed(field.coerce(c)) * monomial(e)
        want = (num / monomial(den)).rep
        got = v.from_terms(terms, den)
        assert got.tower is k and got.rep == want, (terms, den)
        if not any(den):
            assert v.from_terms(terms).rep == want
    assert v.from_terms({}).rep == k.ring.zero
    assert v.from_terms({(0,) * rank: field.zero()}, (1,) * rank).rep == k.ring.zero


def test_from_terms_refusals(rationals):
    v = MonomialValuation(rationals, ["x1", "x2"])
    for exps in [(0,), (0, 0, 0), (-1, 0), (1, -2)]:
        with pytest.raises(StructuralError, match="bad exponent vector"):
            v.from_terms({exps: 1})
    for den in [(0,), (0, 0, 0), (1, -1), (-1, 0)]:
        for terms in ({(0, 0): 1}, {}):
            with pytest.raises(StructuralError, match="bad denominator exponents"):
                v.from_terms(terms, den)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_value_of_monomial_round_trips(f3, n):
    # integer coordinates past the table of small Fractions included
    v = MonomialValuation(f3.extend_transcendental("a"), ["x1", "x2"], denom_exponent=n)
    d = v.group.denominator
    rng = random.Random(f"round trip:{n}")
    vectors = [(0, 0), (70 * d, -70 * d), (-65, 64), (1, -1)]
    vectors += [tuple(rng.randrange(-3 * d, 3 * d + 1) for _ in range(2)) for _ in range(30)]
    for exps in vectors:
        value = v.group.element(Fraction(e, d) for e in exps)
        assert v.value(v.monomial(value)) == value, exps


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_value_matches_value_group_element(request, field_name, rank):
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(
        field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field_name == "f2_a")
    )
    d = v.group.denominator
    for z in _samples(v, random.Random(f"value:{field_name}:{rank}"), 10):
        if z.is_zero:
            continue
        got = v.value(z)
        # oracle: the checked constructor of the value group
        want = v.group.element(Fraction(e, d) for e in _flattened_min_term(v, z)[0])
        assert got.group is v.group and got.coords == want.coords
        assert all(type(c) is Fraction for c in got.coords) and got.render() == want.render()


# -- hensel lifting ---------------------------------------------------------------


def test_hensel_irreducible_residual_returns_input(v_f3):
    k = v_f3.function_field
    f = Polynomial.from_coeffs(k, "y", [k.one(), k.zero(), k.one()])  # y^2 + 1 over F3
    lift = hensel_factor_lift(v_f3, f)
    assert lift.factors == [f]


def test_hensel_refusal_on_non_squarefree_residual(v_f3):
    k = v_f3.function_field
    x = k.gen("x")
    f = Polynomial.from_coeffs(k, "y", [-x, k.zero(), k.one()])  # y^2 - x
    lift = hensel_factor_lift(v_f3, f)
    assert lift.refused and "not squarefree" in lift.refusal


def test_hensel_rank_and_monic_requirements(rationals, v_f3):
    v2 = MonomialValuation(rationals, ["x1", "x2"])
    k2 = v2.function_field
    # an irreducible residual needs no lift at any rank
    f = Polynomial.from_coeffs(k2, "y", [k2.one(), k2.zero(), k2.one()])
    assert hensel_factor_lift(v2, f).factors == [f]
    # residual (y - 1)(y + 1) under the non-constant coefficient -(1 + x1):
    # the lift is exact or refused, at every rank
    for rank in [1, 2, 3]:
        v = MonomialValuation(rationals, [f"x{j}" for j in range(1, rank + 1)])
        k = v.function_field
        g = Polynomial.from_coeffs(k, "y", [-(1 + k.gen("x1")), k.zero(), k.one()])
        with pytest.raises(CapabilityError, match="non-constant coefficients"):
            hensel_factor_lift(v, g)
    k = v_f3.function_field
    g = Polynomial.from_coeffs(k, "y", [k.one(), k.gen("x")])
    with pytest.raises(DomainError):
        hensel_factor_lift(v_f3, g)


def test_a_lift_that_does_not_multiply_back_is_a_self_check(rationals, monkeypatch):
    # the factorizer is planted to split the residual y^2 - 1 as
    # (y - 1)(y - 2): a fault of the engine, not of the input
    v = MonomialValuation(rationals, ["x"])
    f = Polynomial.parse("y^2 - 1", v.function_field, ("y",))
    wrong = [(Polynomial.parse(t, rationals, ("y",)), 1) for t in ("y - 1", "y - 2")]
    monkeypatch.setattr(
        valuations.poly_mod, "factor", lambda g: Factorization(g.tower.one(), wrong)
    )
    with pytest.raises(SelfCheckError, match="^the embedded residual factors do not multiply to f"):
        hensel_factor_lift(v, f)


# -- the exact lift of constant coefficients ------------------------------------


@pytest.mark.parametrize(
    "field_name, text",
    [("f3", "y * (y - 1) * (y + 1)"), ("q_sqrt2", "(y - s2) * (y + s2) * (y - 1)")],
)
def test_exact_lift_is_the_unique_lift(request, field_name, text):
    # monic factors congruent to the pairwise coprime residual factors, with
    # product f, are unique: these properties fix the lift
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(field, ["x"])
    k = v.function_field
    f = Polynomial.parse(text, k, ("y",))
    lift = hensel_factor_lift(v, f)
    assert lift.precision == 2 * 3 + 2 and len(lift.factors) == 3
    for g, r in zip(lift.factors, lift.residual_factors):
        assert g.coeff(g.degree()) == k.one()
        assert v.residual_polynomial(g) == r
    assert lift.factors[0] * lift.factors[1] * lift.factors[2] == f


@pytest.mark.parametrize("rank", [2, 3])
def test_exact_lift_holds_at_any_rank(q_sqrt2, rank):
    v = MonomialValuation(q_sqrt2, [f"x{j}" for j in range(1, rank + 1)])
    k = v.function_field
    f = Polynomial.parse("y^2 - 2", k, ("y",))
    lift = hensel_factor_lift(v, f)
    assert [str(g) for g in lift.residual_factors] == ["y - s2", "y + s2"]
    assert lift.factors == [Polynomial.parse(t, k, ("y",)) for t in ["y - s2", "y + s2"]]


def test_exact_lift_checks_its_product(q_sqrt2, monkeypatch):
    # an embedding that moves every coefficient by one: the product of the
    # lifted factors is no longer f, and the lift says so
    v = MonomialValuation(q_sqrt2, ["x1", "x2"])
    f = Polynomial.parse("y^2 - 2", v.function_field, ("y",))
    factors = factor(v.residual_polynomial(f)).factors
    embed = FieldTower.embed
    monkeypatch.setattr(FieldTower, "embed", lambda self, e: embed(self, e) + self.one())
    with pytest.raises(DomainError, match="do not multiply to f"):
        hensel_factor_lift(v, f, factors=factors)


def test_hensel_lift_takes_the_residual_factorization(q_sqrt2, monkeypatch):
    v = MonomialValuation(q_sqrt2, ["x"])
    f = Polynomial.parse("y^2 - 2", v.function_field, ("y",))
    want = hensel_factor_lift(v, f)
    # the factorization tensor_decompose holds: other variable, same reps
    given = factor(Polynomial.parse("t^2 - 2", q_sqrt2, ("t",))).factors
    monkeypatch.setattr(valuations.poly_mod, "factor", lambda g: pytest.fail("factor was called"))
    got = hensel_factor_lift(v, f, factors=given)
    assert got.factors == want.factors
    assert got.residual_factors == want.residual_factors
    assert got.precision == want.precision


@pytest.mark.parametrize(
    "given", ["other tower", "one factor", "a multiplicity", "another polynomial"]
)
def test_hensel_lift_factors_a_factorization_that_is_not_the_residual(
    q_sqrt2, q_i, monkeypatch, given
):
    # a factorization of something else is an inconsistency of the caller:
    # it is refused, neither ignored nor replaced by a factorization
    v = MonomialValuation(q_sqrt2, ["x"])
    f = Polynomial.parse("y^2 - 2", v.function_field, ("y",))
    true = factor(v.residual_polynomial(f)).factors
    factors = {
        # (y - i)(y + i): the reps of (y - s2)(y + s2) over another tower
        "other tower": factor(Polynomial.parse("y^2 + 1", q_i, ("y",))).factors,
        "one factor": true[:1],
        "a multiplicity": [(true[0][0], 2), true[1]],
        "another polynomial": factor(Polynomial.parse("y^2 - 1", q_sqrt2, ("y",))).factors,
    }[given]
    monkeypatch.setattr(valuations.poly_mod, "factor", lambda g: pytest.fail("factor was called"))
    with pytest.raises(DomainError, match="not the residual polynomial's factorization"):
        hensel_factor_lift(v, f, factors=factors)
