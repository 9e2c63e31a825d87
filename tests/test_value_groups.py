import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valext.errors import DomainError, StructuralError
from valext.value_groups import ValueGroup, ValueWithZero, is_p_torsion_quotient, parse_value


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
