import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valext import config
from valext.errors import DomainError, StructuralError
from valext.fields import FieldTower
from valext.norms import random_fraction_element
from valext.valuations import MonomialValuation
from valext.value_groups import (
    ValueGroup,
    ValueWithZero,
    is_p_torsion_quotient,
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


@pytest.mark.parametrize("coord", ["1e999", "7", 0.5, 1.0])
def test_element_refuses_text_and_floats(coord):
    # only ints and Fractions are coordinates: "1e999" is never expanded
    with pytest.raises(StructuralError) as exc:
        ValueGroup(1, 2, 1).element([coord])
    assert repr(coord)[:20] in str(exc.value)
    assert len(str(exc.value)) < 80


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


def test_refinement_embedding_preserves_order():
    coarse = ValueGroup(2, 2, 0)
    fine = ValueGroup(2, 2, 2)
    rng = random.Random(0)
    for _ in range(100):
        a = coarse.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        b = coarse.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        assert a.compare(b) == fine.element(a.coords).compare(fine.element(b.coords))


# (char exponent, denominator exponent) of the groups with D = 1, 2, 4, 9, 25
_DENOMINATORS = [(1, 0), (2, 1), (2, 2), (3, 2), (5, 2)]


def _on_lattice(coords, group):
    """Whether every Fraction in ``coords`` is a multiple of 1/D."""
    return all((c * group.denominator).denominator == 1 for c in coords)


@given(
    st.sampled_from(_DENOMINATORS),
    st.sampled_from(_DENOMINATORS),
    st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
    st.lists(st.fractions(max_denominator=60), min_size=2, max_size=2),
)
def test_element_and_contains_accept_exactly_the_lattice(spec, other, steps, coords):
    g = ValueGroup(2, *spec)
    # a value of another group is contained exactly when its coordinates are
    # multiples of 1/D
    x = ValueWithZero(ValueGroup(2, *other), steps)
    assert g.contains(x) is _on_lattice(x.coords, g)
    if _on_lattice(coords, g):
        assert g.element(coords).coords == tuple(coords)
        ints = [c.numerator if c.denominator == 1 else c for c in coords]
        assert g.element(ints).coords == tuple(coords)
    else:
        with pytest.raises(DomainError):
            g.element(coords)


# ---------------------------------------------------------------------------
# A value is its lattice steps k, with coordinates k/D: the step arithmetic
# against an oracle on Fraction coordinates


# (rank, char exponent, denominator exponent): Z^1..3 and (1/p^N)Z^r
_STEP_GROUPS = [(1, 1, 0), (2, 1, 0), (3, 1, 0), (1, 2, 1), (2, 3, 2), (3, 5, 1)]


@functools.cache
def _step_valuation(rank, p, n):
    field = FieldTower.rationals() if p == 1 else FieldTower.prime_field(p)
    return MonomialValuation(field, [f"x{j}" for j in range(1, rank + 1)], n)


def _refinement(g: ValueGroup) -> ValueGroup:
    """A group with one more factor p in its denominator (p = 2 over Z)."""
    p = max(g.char_exponent, 2)
    return ValueGroup(g.rank, p, g.denom_exponent + 1)


def _drawn(group, draw):
    """A value of ``group`` drawn by hypothesis: the zero or any steps."""
    if draw(st.integers(0, 7)) == 0:
        return group.zero_value()
    return ValueWithZero(group, draw(st.tuples(*[st.integers(-40, 40)] * group.rank)))


def _fractions(x):
    """The oracle's reading of x: its coordinates as Fractions, or None."""
    if x.is_zero:
        return None
    return tuple(Fraction(k, x.group.denominator) for k in x.steps)


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
@given(draw=st.data())
def test_values_carry_the_steps_of_their_coordinates(rank, p, n, draw):
    g = _step_valuation(rank, p, n).group
    x, y = _drawn(g, draw.draw), _drawn(g, draw.draw)
    assert x.coords == _fractions(x)
    assert (x == y) is (_fractions(x) == _fractions(y))
    if x == y:
        assert hash(x) == hash(y)
    assert x.render() == ("0" if x.is_zero else "(" + ", ".join(map(str, _fractions(x))) + ")")
    if x.is_zero:
        return
    assert g.element(x.coords) == x and hash(g.element(x.coords)) == hash(x)
    ints = [c.numerator if c.denominator == 1 else c for c in x.coords]
    assert g.element(ints) == x
    # the second field is steps: Fractions, another length or a list are
    # refused, never read as steps
    for bad in (x.coords, x.steps + (0,), x.steps[1:], list(x.steps), (1.0,) * rank):
        with pytest.raises(StructuralError):
            ValueWithZero(g, bad)


def _seeded_values(v, rng):
    """Values from ``value``, ``element``, ``neutral``, ``mul`` and ``inv``,
    and ``element`` of their own coordinates."""
    g = v.group
    out = [g.neutral(), g.element(g.neutral().coords)]
    for _ in range(25):
        a = v.value(random_fraction_element(v, rng))
        b = g.element(Fraction(rng.randrange(-80, 81), g.denominator) for _ in range(g.rank))
        out += [a, b, a.mul(b), a.inv(), b.inv(), a.mul(b.inv()), g.element(a.coords)]
    return out


@pytest.mark.parametrize("rank,p,n", [spec for spec in _STEP_GROUPS if spec[1] > 1])
def test_in_group_rereads_the_steps_in_the_refinement(rank, p, n):
    v = _step_valuation(rank, p, n)
    fine = ValueGroup(rank, p, n + 1)
    for x in _seeded_values(v, random.Random(f"refine:{rank}:{p}:{n}")):
        y = fine.element(x.coords)
        assert y.coords == x.coords and y.steps == tuple(p * k for k in x.steps)
        # monomial counts steps in its own group, not in the value's
        assert v.monomial(y) == v.monomial(x)
        half = fine.element(y.coords[:-1] + (y.coords[-1] + Fraction(1, fine.denominator),))
        with pytest.raises(DomainError):
            v.monomial(half)


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
@given(draw=st.data())
def test_values_off_the_lattice_have_no_steps(rank, p, n, draw):
    # a value of a refinement, or of another rank, that is off the lattice
    # of g has no steps in g: g does not contain it, and element and
    # monomial refuse it
    v = _step_valuation(rank, p, n)
    g, fine = v.group, _refinement(v.group)
    x, y = _drawn(g, draw.draw), _drawn(fine, draw.draw)
    assert fine.contains(x)
    if not x.is_zero:
        ratio = fine.denominator // g.denominator
        assert fine.element(x.coords).steps == tuple(ratio * k for k in x.steps)
    if y.is_zero:
        assert g.contains(y)
        return
    inside = _on_lattice(_fractions(y), g)
    assert g.contains(y) is inside
    if inside:
        assert v.monomial(y) == v.monomial(g.element(y.coords))
    else:
        with pytest.raises(DomainError):
            g.element(y.coords)
        with pytest.raises(DomainError):
            v.monomial(y)
    other = ValueGroup(rank % config.MAX_RANK + 1, g.char_exponent, g.denom_exponent)
    assert not g.contains(other.neutral())
    with pytest.raises(StructuralError):
        v.monomial(other.neutral())


@pytest.mark.parametrize("rank,p,n", _STEP_GROUPS)
@given(draw=st.data())
def test_sign_read_from_steps_matches_the_coordinates(rank, p, n, draw):
    # order, group law and sign against the same operations on Fractions,
    # where the adjoined zero is below every element (compare) or +infinity
    # (the additive helpers)
    g = _step_valuation(rank, p, n).group
    x, y = _drawn(g, draw.draw), _drawn(g, draw.draw)
    fx, fy = _fractions(x), _fractions(y)
    want = 0 if fx == fy else -1 if fx is None else 1 if fy is None else (fx > fy) - (fx < fy)
    assert x.compare(y) == want
    assert x.additive_ge(y) is (fx is None or (fy is not None and fx >= fy))
    assert x.additive_min(y) == (y if fx is None else x if fy is None or fx <= fy else y)
    origin = (Fraction(0),) * rank
    assert x.is_positive() is (fx is None or fx > origin)
    assert x.is_nonnegative() is (fx is None or fx >= origin)
    if fx is None or fy is None:
        assert x.mul(y).is_zero
        return
    assert _fractions(x.mul(y)) == tuple(map(add, fx, fy)) == _fractions(x * y)
    assert _fractions(x.inv()) == tuple(-c for c in fx)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field, n", [("rationals", 0), ("f3", 0), ("q_i", 0), ("f2_a", 1)])
def test_engine_values_are_their_checked_construction(request, field, n, rank):
    # value, mul, inv and neutral build their values unchecked: each must be
    # the value that ValueWithZero(group, steps) checks and builds
    base = request.getfixturevalue(field)
    v = MonomialValuation(base, [f"x{j}" for j in range(1, rank + 1)], n)
    g = v.group
    rng = random.Random(f"unchecked:{field}:{rank}")
    out = [g.neutral()]
    for _ in range(30):
        a = v.value(random_fraction_element(v, rng))
        b = v.value(random_fraction_element(v, rng))
        out += [a, a.mul(b), a * b.inv(), a.inv().mul(a)]
    for x in out:
        assert x.steps.__class__ is tuple and len(x.steps) == rank
        assert all(k.__class__ is int for k in x.steps)
        y = ValueWithZero(g, x.steps)
        assert x == y and y == x and hash(x) == hash(y)
        assert x.render() == y.render() and x.group is g
    assert out[-1] == g.neutral()


_REFUSED_STEPS = """
from fractions import Fraction
from valext.errors import StructuralError
from valext.value_groups import ValueGroup, ValueWithZero

g = ValueGroup(2, 2, 1)
for bad in ([1, 2], (1,), (1, 2, 3), (True, 0), (0, Fraction(1, 2)), (0, Fraction(2))):
    try:
        ValueWithZero(g, bad)
    except StructuralError:
        print("refused", bad)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_the_checked_constructor_refuses_what_is_not_steps(flags):
    # a list, another length, a bool and a Fraction (even an integral one)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _REFUSED_STEPS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "refused [1, 2]",
        "refused (1,)",
        "refused (1, 2, 3)",
        "refused (True, 0)",
        "refused (0, Fraction(1, 2))",
        "refused (0, Fraction(2, 1))",
    ]
