"""Totally ordered value groups Z^n (lexicographic) with p-power denominators.

Conventions
-----------
The literature states valuation axioms multiplicatively: |zw| = |z||w|,
|z| <= 1 means z is integral, and |0| = 0 is the absorbing minimum of the
monoid that adjoins 0 to the group.  Internally we work additively: a value
is a vector of rationals, the value of a product is the *sum* of values, and
"|z| <= 1" reads "value(z) >= 0".  The two dictionaries meet in exactly one
delicate spot: the adjoined element.  ``ValueWithZero.zero`` plays the
multiplicative 0, so ``compare`` places it strictly below every group
element; in additive formulas (the ultrametric inequality, ring membership)
it plays plus infinity, and the ``additive_ge``/``additive_min`` helpers
below encode that reading.  This is the only place the translation is done;
every other module states its contracts additively.

Elements are tuples of exact rationals whose denominators divide p^N for the
group's char exponent p and denominator exponent N, ordered lexicographically
with the first coordinate most significant.  A value also keeps its lattice
steps, the integers k of its coordinates k/p^N: the group law, the sign and
``MonomialValuation.monomial`` read them, while rendering, comparisons,
equality and hashing read the coordinates.

Groups and values are immutable; they are safe to share between threads.  A
value's steps are fixed when it is made.  A group's one mutable part is its
memo of shared coordinate Fractions, where a race can only build one Fraction
twice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Sequence

from . import config
from .errors import DomainError, StructuralError
from .fields import _is_prime

# Lattice points k/D with |k| <= _SHARED are one shared Fraction per group,
# made on first use: a Fraction is immutable, and building one costs more
# than the arithmetic of a value, which runs on the integers k
_SHARED = 64


def _points(group: "ValueGroup", steps: Sequence[int]) -> tuple[Fraction, ...]:
    """The coordinates k/D of the lattice steps k of ``group``."""
    table = group._lattice
    try:
        return tuple(map(table.__getitem__, steps))
    except KeyError:
        out = []
        for k in steps:
            c = table.get(k)
            if c is None:
                c = Fraction(k, group.denominator)
                if -_SHARED <= k <= _SHARED:
                    table[k] = c
            out.append(c)
        return tuple(out)


def _steps(group: "ValueGroup", coords: Iterable[Fraction]) -> tuple[int, ...] | None:
    """The lattice steps k of coordinates k/D of ``group``, or None when one
    is off the lattice.  A reduced c is k/D exactly when its denominator
    divides D."""
    d = group.denominator
    out = []
    for c in coords:
        k, q = c.as_integer_ratio()
        if d % q:
            return None
        out.append(k * (d // q))
    return tuple(out)


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

    @functools.cached_property
    def _lattice(self) -> dict[int, Fraction]:
        """The shared coordinates k/D by lattice step k, filled by ``_points``."""
        return {}

    @functools.cached_property
    def zero_coords(self) -> tuple[Fraction, ...]:
        """The coordinates of the neutral element."""
        return _points(self, [0] * self.rank)

    def element(self, coords: Iterable[int | Fraction]) -> "ValueWithZero":
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise StructuralError(f"expected {self.rank} coordinates, got {len(coords)}")
        for c in coords:
            if c.__class__ is not Fraction:
                coords = tuple(map(Fraction, coords))
                break
        value = ValueWithZero(self, coords)
        if value.steps is None:
            d = self.denominator
            bad = next(c for c in coords if d % c.denominator)
            raise DomainError(f"coordinate {bad} is not a multiple of 1/{d}")
        return value

    def zero_value(self) -> "ValueWithZero":
        """The adjoined absorbing element (the value of the field element 0)."""
        return ValueWithZero(self, None)

    def neutral(self) -> "ValueWithZero":
        """The identity element, i.e. the value of any unit."""
        return ValueWithZero(self, self.zero_coords, (0,) * self.rank)

    def contains(self, value: "ValueWithZero") -> bool:
        """Whether the coordinates of ``value`` lie in this group's lattice."""
        if value.is_zero:
            return True
        if value.group.rank != self.rank:
            return False
        d = self.denominator
        for c in value.coords:
            if d % c.denominator:
                return False
        return True

    def describe(self) -> str:
        head = "Z" if self.denom_exponent == 0 else f"(1/{self.denominator})Z"
        return f"{head}^{self.rank} lex"


@dataclass(frozen=True, init=False)
class ValueWithZero:
    """A group element, or the adjoined zero (``coords is None``).

    ``steps`` are the integers k with ``coords`` = k/D, D the group's
    denominator; they are None for the adjoined zero and for coordinates off
    the lattice.  Code that already holds them hands them in, and they are
    derived from ``coords`` otherwise, once per value.  Equality and hash
    read (group, coords) only."""

    group: ValueGroup
    coords: tuple[Fraction, ...] | None
    steps: tuple[int, ...] | None = field(compare=False, repr=False)

    def __init__(self, group: ValueGroup, coords, steps: tuple[int, ...] | None = None):
        if steps is None and coords is not None:
            steps = _steps(group, coords)
        put = object.__setattr__
        put(self, "group", group)
        put(self, "coords", coords)
        put(self, "steps", steps)

    @property
    def is_zero(self) -> bool:
        return self.coords is None

    def _check_same_group(self, other: "ValueWithZero") -> None:
        if self.group is not other.group and self.group != other.group:
            raise StructuralError(f"values from different groups: {self.group} vs {other.group}")

    def compare(self, other: "ValueWithZero") -> int:
        """Lexicographic total order with the adjoined zero strictly smallest.

        This is the order of the value *monoid* as usually written
        multiplicatively; see the module docstring for the additive reading.
        """
        self._check_same_group(other)
        if self.is_zero and other.is_zero:
            return 0
        if self.is_zero:
            return -1
        if other.is_zero:
            return 1
        if self.coords < other.coords:
            return -1
        if self.coords > other.coords:
            return 1
        return 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def mul(self, other: "ValueWithZero") -> "ValueWithZero":
        """Group law (coordinatewise addition); the adjoined zero absorbs."""
        self._check_same_group(other)
        group = self.group
        if self.is_zero or other.is_zero:
            return ValueWithZero(group, None)
        a, b = self.steps, other.steps
        if a is None or b is None:
            return ValueWithZero(group, tuple(map(add, self.coords, other.coords)))
        k = tuple(map(add, a, b))
        return ValueWithZero(group, _points(group, k), k)

    __mul__ = mul

    def inv(self) -> "ValueWithZero":
        if self.is_zero:
            raise DomainError("the adjoined zero has no inverse")
        group = self.group
        if self.steps is None:
            return ValueWithZero(group, tuple(map(neg, self.coords)))
        k = tuple(map(neg, self.steps))
        return ValueWithZero(group, _points(group, k), k)

    def pow(self, n: int) -> "ValueWithZero":
        if self.is_zero:
            if n <= 0:
                raise DomainError("zero value cannot be raised to a nonpositive power")
            return self
        return ValueWithZero(self.group, tuple(n * c for c in self.coords))

    # Additive-dictionary helpers.  Here the adjoined zero acts as +infinity:
    # it is the value of the field element 0, which belongs to every ideal.

    def additive_ge(self, other: "ValueWithZero") -> bool:
        """self >= other in the additive reading (zero counts as +infinity)."""
        self._check_same_group(other)
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return self.coords >= other.coords

    def additive_min(self, other: "ValueWithZero") -> "ValueWithZero":
        """min in the additive reading (zero counts as +infinity)."""
        self._check_same_group(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self if self.coords <= other.coords else other

    def _sign(self) -> int:
        """-1, 0 or 1 as this group element lies below, at or above the
        neutral one, read from the steps where there are any."""
        a = self.steps
        if a is None:
            a, b = self.coords, self.group.zero_coords
        else:
            b = (0,) * len(a)
        return (a > b) - (a < b)

    def is_nonnegative(self) -> bool:
        """Additive value >= 0, i.e. multiplicative |z| <= 1."""
        return self.is_zero or self._sign() >= 0

    def is_positive(self) -> bool:
        """Additive value > 0, i.e. multiplicative |z| < 1 (maximal ideal)."""
        return self.is_zero or self._sign() > 0

    def in_group(self, group: ValueGroup) -> "ValueWithZero":
        """Re-express this value inside a refinement of its group."""
        if self.is_zero:
            return group.zero_value()
        return group.element(self.coords)

    def render(self) -> str:
        """Text form, e.g. ``(1, -1/2)``; the adjoined zero renders as ``0``."""
        if self.is_zero:
            return "0"
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __str__(self):
        return self.render()


def parse_value(text: str, group: ValueGroup) -> ValueWithZero:
    """Parse the output of :meth:`ValueWithZero.render` back, bit-exactly."""
    text = text.strip()
    if text == "0":
        return group.zero_value()
    if not (text.startswith("(") and text.endswith(")")):
        raise DomainError(f"cannot parse value {text!r}")
    body = text[1:-1].strip()
    parts = [p.strip() for p in body.split(",")] if body else []
    try:
        coords = [Fraction(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"cannot parse value {text!r}: {exc}") from None
    return group.element(coords)


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
