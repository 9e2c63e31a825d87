"""Totally ordered value groups Z^n (lexicographic) with p-power denominators.

Conventions
-----------
The literature states valuation axioms multiplicatively: |zw| = |z||w|,
|z| <= 1 means z is integral, and |0| = 0 is the absorbing minimum of the
monoid that adjoins 0 to the group.  Internally we work additively: a value
is a vector of rationals, the value of a product is the *sum* of values, and
"|z| <= 1" reads "value(z) >= 0".  The two dictionaries meet in exactly one
delicate spot: the adjoined element.  ``ValueGroup.zero_value()`` plays the
multiplicative 0, so ``compare`` places it strictly below every group
element; in additive formulas (the ultrametric inequality, ring membership)
it plays plus infinity, and the ``additive_ge``/``additive_min`` helpers
below encode that reading.  This is the only place the translation is done;
every other module states its contracts additively.

The group (1/D)Z^n, D = p^N for the group's char exponent p and denominator
exponent N, is ordered lexicographically with the first coordinate most
significant.  A value is its lattice steps: the integers k of its
coordinates k/D.  The group law, the order, equality and hashing read them;
``coords`` derives the rationals for rendering.  ``ValueWithZero(group,
steps)`` is the checked entry from steps and ``ValueGroup.element`` the
checked entry from rationals.  ``MonomialValuation.value`` alone skips the
check, through ``_from_steps``: its steps are the exponent differences of a
minimal monomial, one int per variable, so the check cannot fail there, and
``--verify`` would pay it on every sample.  The group law and the neutral
element take the checked entry: the sampling does not call them.

Groups and values are immutable; they are safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg
from typing import Iterable

from . import config
from .errors import DomainError, StructuralError
from .fields import _is_prime


@dataclass(frozen=True)
class ValueGroup:
    """The group (1/p^N) Z^rank under lexicographic order.

    ``char_exponent`` is a prime p, or 1 in the equal-characteristic-zero
    setting (in which case no denominators are allowed and N must be 0).
    """

    rank: int
    char_exponent: int = 1
    denom_exponent: int = 0

    def __post_init__(self):
        if not 1 <= self.rank <= config.MAX_RANK:
            raise StructuralError(f"rank must be in 1..{config.MAX_RANK}, got {self.rank}")
        if self.char_exponent != 1 and not _is_prime(self.char_exponent):
            raise StructuralError(f"char exponent must be 1 or prime, got {self.char_exponent}")
        if self.denom_exponent < 0:
            raise StructuralError("denominator exponent must be nonnegative")
        if self.char_exponent == 1 and self.denom_exponent != 0:
            raise StructuralError("denominators require a prime char exponent")

    @functools.cached_property
    def denominator(self) -> int:
        return self.char_exponent ** self.denom_exponent

    def element(self, coords: Iterable[int | Fraction]) -> "ValueWithZero":
        """The group element of the given rational coordinates, each an int
        or a Fraction; StructuralError for a coordinate of any other type and
        DomainError for one off the lattice (1/D)Z."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise StructuralError(f"expected {self.rank} coordinates, got {len(coords)}")
        d = self.denominator
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise StructuralError(f"a coordinate is an int or a Fraction, got {repr(c)[:20]}")
            if d % c.denominator:
                raise DomainError(f"coordinate {c} is not a multiple of 1/{d}")
        return ValueWithZero(self, tuple(c.numerator * (d // c.denominator) for c in coords))

    def zero_value(self) -> "ValueWithZero":
        """The adjoined absorbing element (the value of the field element 0)."""
        return ValueWithZero(self, None)

    def neutral(self) -> "ValueWithZero":
        """The identity element, i.e. the value of any unit."""
        return ValueWithZero(self, (0,) * self.rank)

    def _rescale(self, value: "ValueWithZero") -> tuple[int, ...] | None:
        """The steps over this group's denominator of a group element of
        this rank, or None when it lies off this group's lattice."""
        if value.group is self:
            return value.steps
        d, e = self.denominator, value.group.denominator
        out = []
        for k in value.steps:
            j, r = divmod(k * d, e)
            if r:
                return None
            out.append(j)
        return tuple(out)

    def contains(self, value: "ValueWithZero") -> bool:
        """Whether ``value`` lies in this group's lattice."""
        if value.group is self or value.is_zero:
            return True
        return value.group.rank == self.rank and self._rescale(value) is not None

    def describe(self) -> str:
        head = "Z" if self.denom_exponent == 0 else f"(1/{self.denominator})Z"
        return f"{head}^{self.rank} lex"


@dataclass(frozen=True)
class ValueWithZero:
    """A group element, or the adjoined zero (``steps is None``).

    ``steps`` are the ints k of the coordinates k/D, D the group's
    denominator, one per coordinate.  A tuple of another length or with an
    entry that is not an int is refused: rationals enter through
    ``ValueGroup.element``."""

    group: ValueGroup
    steps: tuple[int, ...] | None

    def __post_init__(self):
        steps = self.steps
        if steps is None:
            return
        if steps.__class__ is not tuple or len(steps) != self.group.rank:
            raise StructuralError(f"expected {self.group.rank} lattice steps, got {steps!r}")
        for k in steps:
            if k.__class__ is not int:
                raise StructuralError(f"lattice steps are ints, got {k!r}")

    @property
    def is_zero(self) -> bool:
        return self.steps is None

    @property
    def coords(self) -> tuple[Fraction, ...] | None:
        """The rational coordinates k/D, or None for the adjoined zero."""
        if self.steps is None:
            return None
        d = self.group.denominator
        return tuple(Fraction(k, d) for k in self.steps)

    def _check_same_group(self, other: "ValueWithZero") -> None:
        if self.group is not other.group and self.group != other.group:
            raise StructuralError(f"values from different groups: {self.group} vs {other.group}")

    def compare(self, other: "ValueWithZero") -> int:
        """Lexicographic total order with the adjoined zero strictly smallest.

        This is the order of the value *monoid* as usually written
        multiplicatively; see the module docstring for the additive reading.
        """
        self._check_same_group(other)
        a, b = self.steps, other.steps
        if a is None or b is None:
            return (a is not None) - (b is not None)
        return (a > b) - (a < b)

    def mul(self, other: "ValueWithZero") -> "ValueWithZero":
        """Group law (coordinatewise addition); the adjoined zero absorbs."""
        self._check_same_group(other)
        if self.is_zero or other.is_zero:
            return ValueWithZero(self.group, None)
        return ValueWithZero(self.group, tuple(map(add, self.steps, other.steps)))

    __mul__ = mul

    def inv(self) -> "ValueWithZero":
        if self.is_zero:
            raise DomainError("the adjoined zero has no inverse")
        return ValueWithZero(self.group, tuple(map(neg, self.steps)))

    # Additive-dictionary helpers.  Here the adjoined zero acts as +infinity:
    # it is the value of the field element 0, which belongs to every ideal.

    def additive_ge(self, other: "ValueWithZero") -> bool:
        """self >= other in the additive reading (zero counts as +infinity)."""
        self._check_same_group(other)
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return self.steps >= other.steps

    def additive_min(self, other: "ValueWithZero") -> "ValueWithZero":
        """min in the additive reading (zero counts as +infinity)."""
        self._check_same_group(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self if self.steps <= other.steps else other

    def is_nonnegative(self) -> bool:
        """Additive value >= 0, i.e. multiplicative |z| <= 1."""
        a = self.steps
        return a is None or a >= (0,) * len(a)

    def is_positive(self) -> bool:
        """Additive value > 0, i.e. multiplicative |z| < 1 (maximal ideal)."""
        a = self.steps
        return a is None or a > (0,) * len(a)

    def render(self) -> str:
        """Text form, e.g. ``(1, -1/2)``; the adjoined zero renders as ``0``."""
        if self.is_zero:
            return "0"
        return "(" + ", ".join(map(str, self.coords)) + ")"

    def __str__(self):
        return self.render()


def _from_steps(group: ValueGroup, steps: tuple[int, ...]) -> ValueWithZero:
    """The group element of ``steps`` without ``__post_init__``'s check, for
    steps the engine computed as a tuple of ``group.rank`` ints; equal,
    equally hashed and as frozen as ``ValueWithZero(group, steps)``."""
    value = object.__new__(ValueWithZero)
    fields = value.__dict__
    fields["group"] = group
    fields["steps"] = steps
    return value


def is_p_torsion_quotient(sub: ValueGroup, sup: ValueGroup, p: int) -> bool:
    """Whether sup/sub is p-torsion, for sub embedded in sup.

    The embedding requires equal ranks and the denominator of ``sub`` to
    divide that of ``sup``; anything else is a structural error.  The
    quotient is then (Z/(D_sup/D_sub))^rank, which is p-torsion exactly when
    D_sup/D_sub is a power of p.
    """
    if not _is_prime(p):
        raise StructuralError(f"p must be prime, got {p}")
    if sub.rank != sup.rank:
        raise StructuralError("groups of different rank do not embed")
    if sup.denominator % sub.denominator != 0:
        raise StructuralError(
            f"denominator {sub.denominator} does not divide {sup.denominator}: no embedding"
        )
    t = sup.denominator // sub.denominator
    while t % p == 0:
        t //= p
    return t == 1
