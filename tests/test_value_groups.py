import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valext.errors import DomainError, StructuralError
from valext.fields import FieldTower
from valext.norms import random_fraction_element
from valext.valuations import MonomialValuation
from valext.value_groups import (
    ValueGroup,
    ValueWithZero,
    _points,
    _steps,
    is_p_torsion_quotient,
    parse_value,
)


def test_compare_zero_below_everything():
    g = ValueGroup(1)
    assert g.zero_value().compare(g.element([0])) < 0
    assert g.element([0]).compare(g.zero_value()) > 0
    assert g.zero_value().compare(g.zero_value()) == 0


def test_compare_lexicographic():
    g = ValueGroup(2)
    assert g.element([1, 0]).compare(g.element([0, 5])) > 0
    assert g.element([0, 5]).compare(g.element([1, 0])) < 0
    assert g.element([1, 2]).compare(g.element([1, 2])) == 0


def test_compare_fractional_coordinates():
    g = ValueGroup(1, 2, 1)
    assert g.element([Fraction(1, 2)]).compare(g.element([1])) < 0


def test_compare_mismatched_groups_is_structural_error():
    a = ValueGroup(1).element([1])
    b = ValueGroup(2).element([1, 0])
    with pytest.raises(StructuralError):
        a.compare(b)


def test_mul_examples():
    g = ValueGroup(1)
    assert g.element([1]).mul(g.element([2])) == g.element([3])
    assert g.zero_value().mul(g.element([7])).is_zero
    g2 = ValueGroup(2)
    assert g2.element([1, -2]).inv() == g2.element([-1, 2])


def test_inv_of_zero_is_domain_error():
    with pytest.raises(DomainError):
        ValueGroup(1).zero_value().inv()


def test_element_denominator_validation():
    g = ValueGroup(1, 2, 1)
    g.element([Fraction(3, 2)])
    with pytest.raises(DomainError):
        g.element([Fraction(1, 3)])
    with pytest.raises(StructuralError):
        ValueGroup(1, 1, 2)  # denominators need a prime


def test_rank_bound():
    with pytest.raises(StructuralError):
        ValueGroup(9)


def test_p_torsion_examples():
    assert is_p_torsion_quotient(ValueGroup(1, 2, 0), ValueGroup(1, 2, 1), 2) is True
    assert is_p_torsion_quotient(ValueGroup(1, 2, 0), ValueGroup(1, 2, 0), 2) is True
    # oracle: no m <= 20 makes 2^m a multiple of 3
    assert all(2**m % 3 != 0 for m in range(21))
    assert is_p_torsion_quotient(ValueGroup(1, 3, 0), ValueGroup(1, 3, 1), 2) is False


def test_p_torsion_non_embeddable_pairs():
    with pytest.raises(StructuralError):
        is_p_torsion_quotient(ValueGroup(2, 2, 0), ValueGroup(1, 2, 0), 2)
    with pytest.raises(StructuralError):
        is_p_torsion_quotient(ValueGroup(1, 2, 1), ValueGroup(1, 2, 0), 2)


coords2 = st.tuples(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
)


@st.composite
def values(draw):
    g = ValueGroup(2, 2, 1)
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return g.zero_value()
    c = draw(coords2)
    return g.element([Fraction(c[0], 2), Fraction(c[1], 2)])


@given(values(), values())
def test_total_order_trichotomy(a, b):
    assert (a.compare(b) < 0) + (a.compare(b) == 0) + (a.compare(b) > 0) == 1
    assert a.compare(b) == -b.compare(a)


@given(values(), values(), values())
def test_order_transitive_and_compatible(a, b, c):
    if a.compare(b) <= 0 and b.compare(c) <= 0:
        assert a.compare(c) <= 0
    if not (a.is_zero or b.is_zero or c.is_zero) and a.compare(b) <= 0:
        assert a.mul(c).compare(b.mul(c)) <= 0


@given(values())
def test_zero_absorbs_and_is_minimum(a):
    g = a.group
    assert g.zero_value().mul(a).is_zero
    assert g.zero_value().compare(a) <= 0


@given(values())
def test_render_parse_round_trip(a):
    assert parse_value(a.render(), a.group) == a


def test_refinement_embedding_preserves_order():
    coarse = ValueGroup(2, 2, 0)
    fine = ValueGroup(2, 2, 2)
    rng = random.Random(0)
    for _ in range(100):
        a = coarse.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        b = coarse.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        assert a.compare(b) == a.in_group(fine).compare(b.in_group(fine))


# (char exponent, denominator exponent) of the groups with D = 1, 2, 4, 9, 25
_DENOMINATORS = [(1, 0), (2, 1), (2, 2), (3, 2), (5, 2)]


@given(
    st.sampled_from(_DENOMINATORS),
    st.lists(st.fractions(max_denominator=60), min_size=2, max_size=2),
)
def test_element_and_contains_accept_exactly_the_lattice(spec, coords):
    g = ValueGroup(2, *spec)
    inside = all((c * g.denominator).denominator == 1 for c in coords)
    assert g.contains(ValueWithZero(g, tuple(coords))) is inside
    if inside:
        assert g.element(coords).coords == tuple(coords)
        ints = [c.numerator if c.denominator == 1 else c for c in coords]
        assert g.element(ints).coords == tuple(coords)
    else:
        with pytest.raises(DomainError):
            g.element(coords)


# ---------------------------------------------------------------------------
# A value carries its lattice steps k, with coords = k/D


# (rank, char exponent, denominator exponent): Z^1..3 and (1/p^N)Z^r
_STEP_GROUPS = [(1, 1, 0), (2, 1, 0), (3, 1, 0), (1, 2, 1), (2, 3, 2), (3, 5, 1)]


def _step_valuation(rank, p, n):
    field = FieldTower.rationals() if p == 1 else FieldTower.prime_field(p)
    return MonomialValuation(field, [f"x{j}" for j in range(1, rank + 1)], n)


def _seeded_values(v, rng):
    """Values from ``value``, ``element``, ``neutral``, ``mul``, ``inv`` and
    ``in_group``, the last into the group itself."""
    g = v.group
    out = [g.neutral(), g.neutral().in_group(g)]
    for _ in range(25):
        a = v.value(random_fraction_element(v, rng))
        b = g.element(Fraction(rng.randrange(-80, 81), g.denominator) for _ in range(g.rank))
        out += [a, b, a.mul(b), a.inv(), b.inv(), a.mul(b.inv()), a.in_group(g)]
    return out


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
def test_values_carry_the_steps_of_their_coordinates(rank, p, n):
    v = _step_valuation(rank, p, n)
    g = v.group
    for x in _seeded_values(v, random.Random(f"steps:{rank}:{p}:{n}")):
        assert x.steps is not None and x.steps == _steps(g, x.coords)
        assert x.steps.__class__ is tuple
        # rebuilt from fresh Fractions, with the steps derived, and from the
        # steps: equal values, equal hashes
        fresh = ValueWithZero(g, tuple(Fraction(c.numerator, c.denominator) for c in x.coords))
        given_steps = ValueWithZero(g, _points(g, x.steps), x.steps)
        for y in (fresh, given_steps):
            assert y == x and hash(y) == hash(x) and y.steps == x.steps
        assert {x, fresh, given_steps} == {x}
    assert g.zero_value().steps is None


@pytest.mark.parametrize("rank,p,n", [spec for spec in _STEP_GROUPS if spec[1] > 1])
def test_in_group_rereads_the_steps_in_the_refinement(rank, p, n):
    v = _step_valuation(rank, p, n)
    fine = ValueGroup(rank, p, n + 1)
    for x in _seeded_values(v, random.Random(f"refine:{rank}:{p}:{n}")):
        y = x.in_group(fine)
        assert y.coords == x.coords and y.steps == tuple(p * k for k in x.steps)
        assert y.steps == _steps(fine, y.coords)
        # monomial counts steps in its own group, not in the value's
        assert v.monomial(y) == v.monomial(x)
        half = fine.element(y.coords[:-1] + (y.coords[-1] + Fraction(1, fine.denominator),))
        with pytest.raises(DomainError):
            v.monomial(half)


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
def test_values_off_the_lattice_have_no_steps(rank, p, n):
    v = _step_valuation(rank, p, n)
    g = v.group
    # a p-th of a lattice step (a half over Z) is off the lattice
    off_step = Fraction(1, max(p, 2) * g.denominator)
    for x in _seeded_values(v, random.Random(f"off:{rank}:{p}:{n}"))[:40]:
        off = ValueWithZero(g, x.coords[:-1] + (x.coords[-1] + off_step,))
        assert off.steps is None
        assert not g.contains(off)
        with pytest.raises(DomainError):
            v.monomial(off)
        with pytest.raises(DomainError):
            g.element(off.coords)
        # order and arithmetic still read the coordinates
        assert off > x and off.is_positive() == (off.coords > g.zero_coords)
        assert off.is_nonnegative() == (off.coords >= g.zero_coords)
        assert off.inv().coords == tuple(-c for c in off.coords) and off.inv().steps is None
        back = off.mul(ValueWithZero(g, tuple(-c for c in off.coords)))
        assert back == g.neutral() and back.steps == (0,) * rank


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
def test_sign_read_from_steps_matches_the_coordinates(rank, p, n):
    v = _step_valuation(rank, p, n)
    g = v.group
    for x in _seeded_values(v, random.Random(f"sign:{rank}:{p}:{n}")):
        assert x.is_positive() == (x.coords > g.zero_coords)
        assert x.is_nonnegative() == (x.coords >= g.zero_coords)
