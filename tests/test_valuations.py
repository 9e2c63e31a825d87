import random
from fractions import Fraction

import pytest

from valext.errors import CapabilityError, DomainError, StructuralError
from valext.fields import FieldElement, _split_fraction
from valext.norms import random_field_element, random_fraction_element
from valext.poly import Polynomial
from valext.valuations import (
    MonomialValuation,
    congruent_mod_precision,
    hensel_factor_lift,
)
from valext.value_groups import ValueWithZero


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
    assert v_f3.in_maximal_ideal(x) and not v_f3.in_maximal_ideal(1 + x)
    assert v_f3.is_unit(1 + x) and not v_f3.is_unit(x)


def test_prime_chain_shapes(rationals, f2_a):
    chain1 = MonomialValuation(rationals, ["x"]).prime_chain()
    assert [p.residue_field.gen_names for p in chain1] == [("x",), ()]
    chain2 = MonomialValuation(f2_a, ["x1", "x2"]).prime_chain()
    assert len(chain2) == 3
    # the variable of dominant value dies first; x2 survives in the middle
    assert chain2[0].residue_field.gen_names == ("a", "x1", "x2")
    assert chain2[1].residue_field.gen_names == ("a", "x2")
    assert chain2[2].residue_field.gen_names == ("a",)
    chain3 = MonomialValuation(rationals, ["x1", "x2", "x3"]).prime_chain()
    assert len(chain3) == 4
    assert [p.dying_vars for p in chain3] == [
        (),
        ("x1",),
        ("x1", "x2"),
        ("x1", "x2", "x3"),
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
    num, den = _split_fraction(v.function_field, z.rep, field.level)
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
        rest = z - v.from_series(v.series(z, 4))
        assert rest.is_zero or _flattened_min_term(v, rest)[0][0] >= 4


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_monomial_matches_from_terms(request, field_name, rank):
    field = request.getfixturevalue(field_name)
    v = MonomialValuation(
        field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field_name == "f2_a")
    )
    d = v.group.denominator
    rng = random.Random(f"monomial:{field_name}:{rank}")
    vectors = [(0,) * rank] + [tuple(rng.randrange(-4, 5) for _ in range(rank)) for _ in range(30)]
    for exps in vectors:
        value = v.group.element(Fraction(e, d) for e in exps)
        pos = tuple(max(e, 0) for e in exps)
        neg = tuple(max(-e, 0) for e in exps)
        m = v.monomial(value)
        # oracle: the generic canonical build of x^pos / x^neg
        assert m.rep == v.from_terms({pos: field.one()}, neg).rep, exps
        assert v.value(m) == value
    with pytest.raises(DomainError):
        v.monomial(ValueWithZero(v.group, (Fraction(1, 2 * d),) * rank))
    with pytest.raises(DomainError):
        v.monomial(v.group.zero_value())
    with pytest.raises(StructuralError):
        v.monomial(ValueWithZero(v.group, (Fraction(0),) * (rank + 1)))


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


def _undetermined_coefficients_root(f3, precision):
    """Oracle: solve u^2 = 1 + x mod x^precision coefficient by coefficient,
    with u = 1 + u1 x + u2 x^2 + ..., over F3 with plain integers."""
    u = [1]
    for k in range(1, precision):
        acc = 0
        for j in range(1, k):
            acc = (acc + u[j] * u[k - j]) % 3
        rhs = (1 if k == 1 else 0) - acc
        u.append(rhs * pow(2 * u[0], -1, 3) % 3)
    return u


def test_hensel_example_against_oracle(v_f3, f3):
    k = v_f3.function_field
    x = k.gen("x")
    f = Polynomial.from_coeffs(k, "y", [-(1 + x), k.zero(), k.one()])
    lift = hensel_factor_lift(v_f3, f, 4)
    assert not lift.refused and len(lift.factors) == 2
    prod = lift.factors[0] * lift.factors[1]
    assert congruent_mod_precision(v_f3, prod, f, 4)
    u = _undetermined_coefficients_root(f3, 4)
    assert u == [1, 2, 1, 1]
    u_elem = v_f3.from_series([f3.from_int(c) for c in u])
    target = Polynomial.from_coeffs(k, "y", [-u_elem, k.one()])
    assert any(congruent_mod_precision(v_f3, g, target, 4) for g in lift.factors)


def test_hensel_irreducible_residual_returns_input(v_f3):
    k = v_f3.function_field
    f = Polynomial.from_coeffs(k, "y", [k.one(), k.zero(), k.one()])  # y^2 + 1 over F3
    lift = hensel_factor_lift(v_f3, f, 4)
    assert lift.factors == [f]


def test_hensel_refusal_on_non_squarefree_residual(v_f3):
    k = v_f3.function_field
    x = k.gen("x")
    f = Polynomial.from_coeffs(k, "y", [-x, k.zero(), k.one()])  # y^2 - x
    lift = hensel_factor_lift(v_f3, f, 4)
    assert lift.refused and "not squarefree" in lift.refusal


def test_hensel_three_way_split(f5):
    v = MonomialValuation(f5, ["x"])
    k = v.function_field
    x = k.gen("x")
    # residual (y-1)(y-2)(y-3), perturbed by x
    f = Polynomial.parse("(y - 1) * (y - 2) * (y - 3)", k, ("y",)) + Polynomial.constant(
        k, ("y",), x
    )
    lift = hensel_factor_lift(v, f, 6)
    assert len(lift.factors) == 3
    prod = lift.factors[0] * lift.factors[1] * lift.factors[2]
    assert congruent_mod_precision(v, prod, f, 6)


def test_hensel_rank_and_monic_requirements(rationals, v_f3):
    v2 = MonomialValuation(rationals, ["x1", "x2"])
    k2 = v2.function_field
    f = Polynomial.from_coeffs(k2, "y", [k2.one(), k2.zero(), k2.one()])
    with pytest.raises(CapabilityError):
        hensel_factor_lift(v2, f, 4)
    k = v_f3.function_field
    g = Polynomial.from_coeffs(k, "y", [k.one(), k.gen("x")])
    with pytest.raises(DomainError):
        hensel_factor_lift(v_f3, g, 4)
