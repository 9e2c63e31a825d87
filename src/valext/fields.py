"""Exact towers of fields over Q or F_p.

A tower is a base field (Q or F_p) extended by a sequence of simple steps,
each either transcendental or algebraic with a monic irreducible minimal
polynomial over everything below it.  Elements are kept in a canonical
normal form: at an algebraic step, polynomials of degree less than the step
degree; at a transcendental step, reduced fractions with a monic
denominator.  Equality of elements is therefore structural, and membership
in a prefix subtower is decidable by inspection.

Each level has one ring object that does the arithmetic of its reps
(``FieldTower.rings``): the base field at level 0, ``AlgebraicLevel``
(products folded down by the minimal polynomial's precomputed tail, a
constant inverted one level down, other inverses by the extended Euclidean
algorithm) and ``TranscendentalLevel`` (canonical fractions).  Every ring has
precomputed ``zero`` and ``one`` and the methods ``is_zero``, ``add``,
``neg``, ``mul``, ``inv`` and ``from_int`` (above level 0 also ``lift`` from
the level below), so the dense univariate arithmetic (``_u_*``: add, mul,
divmod, monic, gcd, xgcd, powmod) is written once over that interface.  It
serves every level, the factorization code in ``poly`` and the integers
modulo m (``IntegersMod``, which includes ``PrimeField``); over those, every
``_u_*`` loop runs on plain ints, reducing each coefficient once.  There a
modulus is prepared once (``_u_modulus``: degree, negated nonzero tail,
inverse of the leading coefficient) and one long-division loop reduces
against it (``_u_reduce``): in ``_u_divmod`` and ``_u_rem``, in the products
of ``_u_powmod`` and of ``poly.hensel_lift``'s corrections, each reduced in
the same pass as it is multiplied, and in ``_u_gcd``, which runs Euclid on
plain ints with no quotient.  Over Q a
scalar is an int when it is integral and a ``Fraction`` only otherwise
(``_rational``), so integral Q arithmetic is int arithmetic too.  The gcd
over Q and number fields (``_u_gcd_subresultant``) keeps its coefficients
integral: a subresultant remainder sequence, divided exactly by a scalar
at each step; ``_u_gcd`` is Euclid, the gcd of every other ring.

The characteristic-p utilities (p-th roots, truncated perfect closure,
radiciality) rely on towers whose algebraic steps adjoin p-power roots of
earlier generators; such towers are isomorphic to rational function fields
over their finite-field part (``_flattening``; a finite field is its own),
which is what makes exact root extraction possible.

Towers and elements are immutable after construction, with one exception:
``FieldTower.term_reps`` is a dict that the samplers of ``norms`` fill on
use, through ``norms._term_rep``, each entry the rep of one fixed term.
Extension methods return new towers, each holding the tower it extends as
its one-step-shorter prefix, so ``prefix`` returns one object per prefix,
with its ``rings`` and hash.

Each step's text is rendered once: ``FieldTower.describe`` and ``step_text``
take it from ``_step_text``, a bounded ``functools`` memo keyed by the tower
that ends with that step, so equal towers share it.
``FieldElement.__str__`` reads the terms of an element that is a polynomial
in the generators (every element of a tower without transcendental steps,
and most others) straight off the nested rep (``_polynomial_terms``); any
other z prints as (z*d)/d, d the product of its denominators
(``_denominators``), both read off the tower's own products, so no
algebraic generator shows to a power at or above its degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import config
from .errors import CapabilityError, DomainError, StructuralError


# ---------------------------------------------------------------------------
# Base fields


# Miller-Rabin with the first twelve primes as bases decides primality of
# every n below 3.3 * 10^24 (Sorenson and Webster 2015), so of every n < 2^64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 1 << 64


def _is_prime(n: int) -> bool:
    """Whether n is prime, decided for n < 2^64; larger n raise
    CapabilityError."""
    if n >= _PRIME_BOUND:
        raise CapabilityError(f"primality is only decided below 2^64, got {n}")
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n < _PRIME_BASES[-1] ** 2:
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(q):
    """The canonical Q scalar equal to the int or ``Fraction`` q: an int when
    q is integral, else a ``Fraction`` with denominator > 1."""
    return q if q.__class__ is int or q.denominator != 1 else q.numerator


@dataclass(frozen=True)
class RationalField:
    """The field Q; a scalar is an int when it is integral, else a
    ``fractions.Fraction`` with denominator > 1 (``_rational``).  Equal
    values have equal hashes and text either way, so the int form only
    spares the gcd that every ``Fraction`` operation runs."""

    char = 0
    zero = 0
    one = 1

    def from_int(self, n: int):
        return n

    def add(self, a, b):
        return _rational(a + b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return _rational(Fraction(a.denominator, a.numerator))

    def is_zero(self, a) -> bool:
        return a == 0

    def describe(self) -> str:
        return "Q"


class IntegersMod:
    """The ring Z/mZ; scalars are ints in [0, m)."""

    zero = 0
    one = 1

    def __init__(self, m: int):
        self.m = m

    def from_int(self, n: int):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise DomainError(f"{a} is not a unit modulo {self.m}") from None

    def is_zero(self, a) -> bool:
        return a % self.m == 0


@dataclass(frozen=True)
class PrimeField(IntegersMod):
    """The field F_p = Z/pZ."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise StructuralError(f"{self.p} is not prime")
        object.__setattr__(self, "m", self.p)

    @property
    def char(self) -> int:
        return self.p

    def describe(self) -> str:
        return f"F{self.p}"


BaseField = RationalField | PrimeField


# ---------------------------------------------------------------------------
# Tower structure
#
# Internal element representation, by level (level i sits above step i-1):
#   level 0                  base scalar: in char 0 an int when integral,
#                            else a Fraction with denominator > 1; in
#                            char p an int in [0, p)
#   algebraic step, degree d tuple of level-(i-1) reps, trimmed, len < d+1
#   transcendental step      (num, den): tuples of level-(i-1) reps, den
#                            monic and coprime to num; () is the zero poly
# Reps are canonical, so structural equality is element equality.


def _is_name(text: str) -> bool:
    """Whether ``poly._tokenize`` reads ``text`` as one name."""
    return (text[:1].isalpha() or text[:1] == "_") and all(c.isalnum() or c == "_" for c in text)


@dataclass(frozen=True)
class Step:
    """One simple extension step; ``minpoly`` is None for transcendental steps.

    ``minpoly`` is the monic minimal polynomial over the tower below this
    step, stored as a tuple of internal reps (constant term first).  It is
    irreducible over that tower: ``FieldTower.extend_algebraic`` proves it or
    its caller vouches for it.  ``separable`` records gcd(f, f') = 1, which
    for an irreducible f is f' != 0; it is None for transcendental steps.
    """

    name: str
    minpoly: tuple | None
    separable: bool | None

    @property
    def is_algebraic(self) -> bool:
        return self.minpoly is not None

    @property
    def degree(self) -> int | None:
        return None if self.minpoly is None else len(self.minpoly) - 1


@dataclass(frozen=True, eq=False)
class FieldTower:
    base: BaseField
    steps: tuple[Step, ...] = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return self.base == other.base and self.steps == other.steps

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.base, self.steps))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- construction -------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldTower":
        return FieldTower(RationalField())

    @staticmethod
    def prime_field(p: int) -> "FieldTower":
        return FieldTower(PrimeField(p))

    @property
    def char(self) -> int:
        return self.base.char

    @property
    def char_exponent(self) -> int:
        return self.base.char if self.base.char > 0 else 1

    @functools.cached_property
    def level(self) -> int:
        return len(self.steps)

    @functools.cached_property
    def rings(self) -> tuple:
        """The ring of reps at each level, the base field first."""
        rings = [self.base]
        for step in self.steps:
            below = rings[-1]
            if step.is_algebraic:
                rings.append(AlgebraicLevel(below, step.minpoly))
            else:
                rings.append(TranscendentalLevel(below))
        return tuple(rings)

    @functools.cached_property
    def ring(self):
        """The ring of reps of the elements of this tower."""
        return self.rings[-1]

    @functools.cached_property
    def term_reps(self) -> dict:
        """Reps of c * (product of the generators in a bit mask), keyed by
        ``(c, mask)`` and filled on use by ``norms._term_rep``."""
        return {}

    @functools.cached_property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps)

    def fresh_name(self, base: str) -> str:
        """``base``, or ``base_k`` with the least k >= 1, whichever is not yet
        a generator name."""
        k = 0
        name = base
        while name in self.gen_names:
            k += 1
            name = f"{base}_{k}"
        return name

    def _check_fresh(self, name: str) -> None:
        if not _is_name(name):
            raise StructuralError(f"bad generator name {name!r}")
        if name in self.gen_names:
            raise StructuralError(f"generator name {name!r} already used")

    def extend_transcendental(self, name: str) -> "FieldTower":
        self._check_fresh(name)
        count = sum(1 for s in self.steps if not s.is_algebraic)
        if count + 1 > config.MAX_TRANSCENDENTALS:
            raise CapabilityError(
                f"at most {config.MAX_TRANSCENDENTALS} transcendental generators supported"
            )
        return self._extended(Step(name, None, None))

    def extend_algebraic(
        self,
        name: str,
        minpoly: Sequence["FieldElement"],
        *,
        check: bool = True,
        proven: set | None = None,
    ) -> "FieldTower":
        """Adjoin a root of the given polynomial (coefficients over self).

        ``minpoly`` lists coefficients, constant term first.  It is
        normalized to be monic.  With ``check`` the polynomial is verified
        irreducible; callers that pass check=False hold a proof of their
        own: a factor ``poly.factor`` returned, or a binomial y^p - c whose c
        ``pth_root`` found to have no p-th root.  So every algebraic step's
        minimal polynomial is irreducible over its prefix, gcd(f, f') is 1 or
        f, and f is separable exactly when f' != 0.  ``proven``, when given,
        is a set of (tower, monic reps) pairs already verified: a pair in it
        is not verified again, and a pair verified here is added to it.
        """
        self._check_fresh(name)
        coeffs = [self.coerce(c) for c in minpoly]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if len(coeffs) < 3:
            raise DomainError("algebraic step needs a minimal polynomial of degree >= 2")
        lc = coeffs[-1]
        if lc.rep != self.ring.one:
            inv = lc.inv()
            coeffs = [c * inv for c in coeffs]
        reps = tuple(c.rep for c in coeffs)
        if check and (proven is None or (self, reps) not in proven):
            self._check_irreducible(coeffs)
            if proven is not None:
                proven.add((self, reps))
        separable = bool(_u_deriv(self.ring, reps))
        return self._extended(Step(name, reps, separable))

    def _check_irreducible(self, coeffs: list["FieldElement"]) -> None:
        from . import poly

        f = poly.Polynomial.from_coeffs(self, "y", coeffs)
        fac = poly.factor(f)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            pieces = ", ".join(f"({p})^{m}" for p, m in fac.factors)
            raise DomainError(f"minimal polynomial is reducible: {pieces}")

    def _extended(self, step: Step) -> "FieldTower":
        """This tower extended by ``step``, with this tower as its parent."""
        tower = FieldTower(self.base, self.steps + (step,))
        tower.__dict__["_parent"] = self  # the value of the cached property
        return tower

    @functools.cached_property
    def _parent(self) -> "FieldTower":
        """The prefix one step shorter: the tower an extension method
        extended, else built once."""
        return FieldTower(self.base, self.steps[:-1])

    def prefix(self, length: int) -> "FieldTower":
        """The subtower of the first ``length`` steps.  Each tower holds its
        prefixes, so repeated calls return one object with its ``rings``."""
        if not 0 <= length <= self.level:
            raise StructuralError(f"prefix length {length} out of range")
        tower = self
        for _ in range(self.level - length):
            tower = tower._parent
        return tower

    def is_prefix_of(self, other: "FieldTower") -> bool:
        return self.base == other.base and self.steps == other.steps[: self.level]

    def extension_degree(self, prefix_len: int = 0) -> int | None:
        """Degree over the prefix subtower; None if transcendental steps occur."""
        deg = 1
        for s in self.steps[prefix_len:]:
            if not s.is_algebraic:
                return None
            deg *= s.degree
        return deg

    # -- elements -----------------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.ring.zero)

    def one(self) -> "FieldElement":
        return FieldElement(self, self.ring.one)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self.ring.from_int(n))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        q = Fraction(q)
        if self.char == 0:
            return FieldElement(self, _lift(self, _rational(q), 0, self.level))
        num = self.from_int(q.numerator)
        den = self.from_int(q.denominator)
        return num * den.inv()

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.tower == self:
                return x
            if x.tower.is_prefix_of(self):
                return self.embed(x)
            raise StructuralError("element belongs to a different tower")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise StructuralError(f"cannot coerce {x!r} into the tower")

    def gen(self, name: str) -> "FieldElement":
        for i, s in enumerate(self.steps):
            if s.name == name:
                below = self.rings[i]
                rep = (below.zero, below.one)
                if not s.is_algebraic:
                    rep = (rep, (below.one,))
                return FieldElement(self, _lift(self, rep, i + 1, self.level))
        raise StructuralError(f"no generator named {name!r}")

    def embed(self, elem: "FieldElement") -> "FieldElement":
        if not elem.tower.is_prefix_of(self):
            raise StructuralError("embed requires a prefix subtower element")
        return FieldElement(self, _lift(self, elem.rep, elem.tower.level, self.level))

    def minpoly_coeffs(self, level: int) -> list["FieldElement"]:
        """The minimal polynomial of step ``level`` as elements of its prefix."""
        step = self.steps[level]
        if not step.is_algebraic:
            raise StructuralError(f"step {step.name} is transcendental")
        sub = self.prefix(level)
        return [FieldElement(sub, r) for r in step.minpoly]

    # -- description text ---------------------------------------------------

    def step_text(self, i: int) -> str:
        """Step ``i`` as ``name: transcendental`` or ``name: algebraic <poly in y>``."""
        return _step_text(self.prefix(i + 1))

    def extend_step(self, text: str, proven: set | None = None) -> "FieldTower":
        """Extend by one step written as ``step_text`` renders it;
        ``proven`` is passed to ``extend_algebraic``."""
        from . import poly

        head, sep, kind = text.partition(":")
        if not sep:
            raise StructuralError(f"malformed tower step {text!r}")
        name = head.strip()
        if name == "y":
            raise StructuralError("generator name 'y' is the variable of step polynomials")
        kind = kind.strip()
        if kind == "transcendental":
            return self.extend_transcendental(name)
        if kind.startswith("algebraic"):
            f = poly.Polynomial.parse(kind[len("algebraic") :].strip(), self, ("y",))
            return self.extend_algebraic(name, f.univariate_coeffs(), proven=proven)
        raise StructuralError(f"unknown step kind in {text!r}")

    def describe(self) -> str:
        """Text form: ``base=F2; gen a: transcendental; gen r: algebraic y^2 + a``."""
        parts = []
        tower = self
        while tower.level:
            parts.append(f"gen {_step_text(tower)}")
            tower = tower._parent
        parts.append(f"base={self.base.describe()}")
        return "; ".join(reversed(parts))

    def __str__(self):
        return self.describe()


@functools.lru_cache(maxsize=256)
def _step_text(tower: FieldTower) -> str:
    """The text of the top step of ``tower``, rendered once per equal tower
    while it stays among the 256 most recent."""
    from . import poly

    s = tower.steps[-1]
    if not s.is_algebraic:
        return f"{s.name}: transcendental"
    f = poly.Polynomial(tower.prefix(tower.level - 1), "y", list(s.minpoly))
    return f"{s.name}: algebraic {f}"


class FieldElement:
    """An element of a FieldTower, in canonical normal form."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower: FieldTower, rep):
        self.tower = tower
        self.rep = rep

    # -- ring structure -----------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if not isinstance(other, FieldElement):
            other = self.tower.coerce(other)
        elif other.tower != self.tower:
            if other.tower.is_prefix_of(self.tower):
                other = self.tower.embed(other)
            elif self.tower.is_prefix_of(other.tower):
                return other.tower.embed(self), other
            else:
                raise StructuralError("elements of unrelated towers")
        return self, other

    def __add__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.tower, a.tower.ring.add(a.rep, b.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, self.tower.ring.neg(self.rep))

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return b + (-a)

    def __mul__(self, other):
        if other.__class__ is FieldElement and other.tower is self.tower:
            return FieldElement(self.tower, self.tower.ring.mul(self.rep, other.rep))
        a, b = self._pair(other)
        return FieldElement(a.tower, a.tower.ring.mul(a.rep, b.rep))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero:
            raise DomainError("inverse of zero")
        return FieldElement(self.tower, self.tower.ring.inv(self.rep))

    def __truediv__(self, other):
        if other.__class__ is FieldElement and other.tower is self.tower:
            return FieldElement(self.tower, self.tower.ring.mul(self.rep, other.inv().rep))
        a, b = self._pair(other)
        return a * b.inv()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return b * a.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        ring = self.tower.ring
        return FieldElement(self.tower, _power(self.rep, n, ring.mul, ring.one))

    @property
    def is_zero(self) -> bool:
        return self.tower.ring.is_zero(self.rep)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.tower.coerce(other)
            except DomainError:  # a Fraction whose denominator is 0 mod p
                return False
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.tower != self.tower:
            try:
                a, b = self._pair(other)
            except StructuralError:
                return False
            return a.rep == b.rep
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.tower, self.rep))

    # -- structure ----------------------------------------------------------

    def restrict(self, prefix_len: int) -> "FieldElement | None":
        """This element as a member of the prefix subtower, or None."""
        rep = self.rep
        tw = self.tower
        for lvl in range(tw.level, prefix_len, -1):
            step = tw.steps[lvl - 1]
            below = tw.rings[lvl - 1]
            if not step.is_algebraic:
                num, den = rep
                if den != (below.one,):
                    return None
                rep = num
            if len(rep) > 1:
                return None
            rep = rep[0] if rep else below.zero
        return FieldElement(tw.prefix(prefix_len), rep)

    def sort_key(self):
        """A deterministic total-order key; only meaningful within one tower."""
        return _key(self.tower, self.tower.level, self.rep)

    def __str__(self):
        tw = self.tower
        terms = _polynomial_terms(tw, self.rep)
        if terms is not None:
            return _format_terms(terms, tw)
        # reducing by a minimal polynomial with fractions can leave new ones
        num, den = self, tw.one()
        for _ in range(tw.level):
            for d in _denominators(tw, num.rep) + _denominators(tw, den.rep):
                num, den = num * d, den * d
            num_terms, den_terms = _polynomial_terms(tw, num.rep), _polynomial_terms(tw, den.rep)
            if num_terms is not None and den_terms is not None:
                break
        else:
            raise DomainError(f"no polynomial numerator and denominator for {self.rep!r}")
        n, d = _format_terms(num_terms, tw), _format_terms(den_terms, tw)
        if "+" in n or " - " in n or n.startswith("-"):
            n = f"({n})"
        if "+" in d or " - " in d or "*" in d:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# The rings above level 0


class AlgebraicLevel:
    """k[y]/(minpoly) for the ring k of the level below: reps are trimmed
    tuples of k reps, reduced modulo the monic minimal polynomial of degree
    ``d``.  ``low`` holds (i, -m_i) for each nonzero coefficient m_i of the
    minimal polynomial below its leading one, so y^d = sum of -m_i * y^i:
    ``mul`` folds a product down by it and ``poly._norm_rows`` builds its
    matrix from it.  A constant is inverted one level down, any other rep by
    the extended Euclidean algorithm."""

    zero = ()

    def __init__(self, k, minpoly: tuple):
        self.k = k
        self.minpoly = minpoly
        self.one = (k.one,)
        self.d = len(minpoly) - 1
        self.low = [(i, k.neg(m)) for i, m in enumerate(minpoly[:-1]) if not k.is_zero(m)]

    def is_zero(self, a) -> bool:
        return not a

    def lift(self, c):
        return () if self.k.is_zero(c) else (c,)

    def from_int(self, n: int):
        return self.lift(self.k.from_int(n))

    def add(self, a, b):
        return tuple(_u_add(self.k, a, b))

    def neg(self, a):
        return tuple(_u_neg(self.k, a))

    def mul(self, a, b):
        """a * b, each coefficient of degree >= d folded down by ``low``
        from the top: the minimal polynomial is monic, so no quotient and
        no inverse."""
        k, d, low = self.k, self.d, self.low
        r = _u_mul(k, a, b)
        if len(r) <= d:
            return tuple(r)
        add, mul, is_zero = k.add, k.mul, k.is_zero
        for top in range(len(r) - 1, d - 1, -1):
            c = r[top]
            if not is_zero(c):
                s = top - d
                for i, x in low:
                    r[s + i] = add(r[s + i], mul(c, x))
        del r[d:]
        return tuple(_u_trim(k, r))

    def inv(self, a):
        if len(a) == 1:
            return (self.k.inv(a[0]),)
        if not a:
            raise DomainError("inverse of zero")
        g, s, _ = _u_xgcd(self.k, a, self.minpoly)
        if len(g) != 1:
            raise DomainError("minimal polynomial is not irreducible (non-unit gcd)")
        return tuple(_u_rem(self.k, s, self.minpoly))


class TranscendentalLevel:
    """k(g) for the ring k of the level below: reps are canonical fractions
    (num, den) of tuples of k reps, coprime with den monic; () is the zero
    polynomial."""

    def __init__(self, k):
        self.k = k
        self.zero = ((), (k.one,))
        self.one = ((k.one,), (k.one,))

    def is_zero(self, a) -> bool:
        return not a[0]

    def lift(self, c):
        return self.zero if self.k.is_zero(c) else ((c,), (self.k.one,))

    def from_int(self, n: int):
        return self.lift(self.k.from_int(n))

    def add(self, a, b):
        """a + b, without cross products or a gcd when a denominator is one.
        If ad = 1, then gcd(an*bd + bn, bd) = gcd(bn, bd) = 1, since b is
        canonical, so (an*bd + bn, bd) is already canonical; bd = 1 is the
        same with the roles swapped, and when both are 1 the sum is
        (an + bn, 1)."""
        k = self.k
        (an, ad), (bn, bd) = a, b
        one = self.one[1]
        if ad == one:
            return (tuple(_u_add(k, _u_mul(k, an, bd), bn)), bd)
        if bd == one:
            return (tuple(_u_add(k, an, _u_mul(k, bn, ad))), ad)
        num = _u_add(k, _u_mul(k, an, bd), _u_mul(k, bn, ad))
        return self.frac(num, _u_mul(k, ad, bd))

    def neg(self, a):
        num, den = a
        return (tuple(_u_neg(self.k, num)), den)

    def mul(self, a, b):
        term = self._monomial_term(b)
        if term is not None:
            return self._shift_mul(a, *term)
        term = self._monomial_term(a)
        if term is not None:
            return self._shift_mul(b, *term)
        (an, ad), (bn, bd) = a, b
        return self.frac(_u_mul(self.k, an, bn), _u_mul(self.k, ad, bd))

    def inv(self, a):
        """1/a; the inverse of c*g^i / d is (d/c) / g^i, canonical as it
        stands: g^i is monic, and d, being prime to c*g^i, is prime to it."""
        num, den = a
        if len(num) == 0:
            raise DomainError("inverse of zero")
        ring = self.k
        is_zero = ring.is_zero
        for c in num[:-1]:
            if not is_zero(c):
                return self.frac(den, num)
        c = num[-1]
        if c != ring.one:
            c = ring.inv(c)
            den = tuple([x if is_zero(x) else ring.mul(x, c) for x in den])
        return (den, (ring.zero,) * (len(num) - 1) + (ring.one,))

    def _monomial_term(self, r):
        """(c, i, k) when r is c*g^i / g^k, else None."""
        num, den = r
        if not num:
            return None
        is_zero = self.k.is_zero
        for part in (num, den):
            for c in part[:-1]:
                if not is_zero(c):
                    return None
        return num[-1], len(num) - 1, len(den) - 1

    def _shift_mul(self, r, c, i, k):
        """r * c*g^i / g^k in canonical form, without a gcd: c is a unit, so the
        numerator and denominator of r stay coprime after scaling by c, and the
        only common factor the shift can bring is a power of g, read off from
        the trailing zeros."""
        num, den = r
        if not num:
            return r
        ring = self.k
        zero = ring.zero
        if c != ring.one:
            # x * c: a product looks for a monomial factor in its second
            # operand first, and c, the coefficient of a monomial, is often a
            # monomial one level down
            num = [x if ring.is_zero(x) else ring.mul(x, c) for x in num]
        num = [zero] * i + list(num)
        den = [zero] * k + list(den)
        s = 0
        while ring.is_zero(num[s]) and ring.is_zero(den[s]):
            s += 1
        return (tuple(num[s:]), tuple(den[s:]))

    def frac(self, num, den):
        """Canonical fraction num/den: reduced, monic denominator."""
        ring = self.k
        num = _u_trim(ring, list(num))
        den = _u_trim(ring, list(den))
        if not den:
            raise DomainError("zero denominator")
        if not num:
            return self.zero
        one = ring.one
        # monomial denominator fast path: the only possible common factor is a
        # power of the generator, read off from the trailing zeros of num
        if all(ring.is_zero(c) for c in den[:-1]):
            k = len(den) - 1
            t = 0
            while t < len(num) and ring.is_zero(num[t]):
                t += 1
            s = min(t, k)
            if s:
                num = num[s:]
                k -= s
            lc = den[-1]
            if lc != one:
                c = ring.inv(lc)
                num = [ring.mul(c, x) for x in num]
            return (tuple(num), tuple([ring.zero] * k + [one]))
        g = _u_gcd(ring, num, den)
        if len(g) > 1:
            num, _ = _u_divmod(ring, num, g)
            den, _ = _u_divmod(ring, den, g)
        lc = den[-1]
        if lc != one:
            c = ring.inv(lc)
            num = [ring.mul(c, x) for x in num]
            den = [ring.mul(c, x) for x in den]
        return (tuple(num), tuple(den))


def _lift(tw: FieldTower, rep, from_lvl: int, to_lvl: int):
    """A level-``from_lvl`` rep as a level-``to_lvl`` rep."""
    for ring in tw.rings[from_lvl + 1 : to_lvl + 1]:
        rep = ring.lift(rep)
    return rep


def _power(x, n: int, mul, one):
    """x^n for n >= 0 by square-and-multiply."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# Dense univariate polynomials over a ring R: lists of R elements, constant
# term first, trimmed of zero leading coefficients.  Division needs a unit
# leading coefficient in the divisor, so over Z/mZ it is division by monic
# polynomials.


def _u_trim(R, a: list) -> list:
    while a and R.is_zero(a[-1]):
        a.pop()
    return a


def _u_trim_ints(a: list) -> list:
    """``_u_trim`` over Z/mZ of reduced coefficients: zero is 0."""
    while a and not a[-1]:
        a.pop()
    return a


def _u_add(R, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    if isinstance(R, IntegersMod):
        m = R.m
        out = [(x + y) % m for x, y in zip(a, b)]
        out += a[len(b) :]
        return _u_trim_ints(out)
    out = list(a)
    add = R.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _u_trim(R, out)


def _u_neg(R, a) -> list:
    if isinstance(R, IntegersMod):
        m = R.m
        return [-c % m for c in a]
    return [R.neg(c) for c in a]


def _u_mul(R, a, b) -> list:
    if not a or not b:
        return []
    if isinstance(R, IntegersMod):
        # plain int sums, each output coefficient reduced once
        m = R.m
        return _u_trim_ints([c % m for c in _u_mul_ints(a, b)])
    # a product by one is a copy of the other operand, trimmed as the loop's
    # result is; reps are canonical, so == tests for one
    one = R.one
    if len(a) == 1 and a[0] == one:
        return _u_trim(R, list(b))
    if len(b) == 1 and b[0] == one:
        return _u_trim(R, list(a))
    add, mul, is_zero = R.add, R.mul, R.is_zero
    out = [R.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return _u_trim(R, out)


def _u_mul_ints(a, b) -> list:
    """The product of two int lists as unreduced, untrimmed int sums."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    return acc


def _u_scale(R, a, c) -> list:
    if isinstance(R, IntegersMod):
        m = R.m
        return _u_trim_ints([c * x % m for x in a])
    return _u_trim(R, [R.mul(c, x) for x in a])


def _u_divmod(R, a, b) -> tuple[list, list]:
    if not b:
        raise DomainError("polynomial division by zero")
    r = _u_trim(R, list(a))
    n = len(b) - 1
    if len(r) <= n:
        return [], r
    if isinstance(R, IntegersMod):
        rem = _u_reduce(R.m, r, _u_modulus(R, b))
        return _u_trim_ints(r[n:]), rem
    add, mul, is_zero = R.add, R.mul, R.is_zero
    inv = None if b[-1] == R.one else R.inv(b[-1])
    low = [(i, R.neg(x)) for i, x in enumerate(b[:-1]) if not is_zero(x)]
    q = [R.zero] * (len(r) - n)
    while len(r) > n:
        c = r.pop()
        if inv is not None:
            c = mul(c, inv)
        k = len(r) - n
        q[k] = c
        for i, x in low:
            r[k + i] = add(r[k + i], mul(c, x))
        _u_trim(R, r)
    return _u_trim(R, q), r


def _u_modulus(R, b) -> tuple:
    """b over Z/mZ prepared once for ``_u_reduce``: (deg b, (i, -b_i) for
    each nonzero b_i below the leading coefficient, the inverse of that
    coefficient, or 0 when it is not a unit)."""
    if not b:
        raise DomainError("polynomial division by zero")
    lead, m = b[-1], R.m
    inv = 1 if lead == 1 else pow(lead, -1, m) if math.gcd(lead, m) == 1 else 0
    return len(b) - 1, [(i, -x) for i, x in enumerate(b[:-1]) if x % m], inv


def _u_reduce(m: int, r: list, mod: tuple) -> list:
    """The remainder of the int list r modulo the prepared modulus ``mod``
    (``_u_modulus``) over Z/mZ, reduced and trimmed: long division on plain
    ints, each coefficient reduced once, when it is the leading one or at the
    end.  r may hold unreduced ints; it is overwritten, its top holding the
    quotient from index deg b on.  A leading coefficient that is not a unit
    raises DomainError only when there is something to divide, as in the
    generic loop of ``_u_divmod``; when there is not, the quotient is 0."""
    n, low, inv = mod
    if not inv and any(c % m for c in r[n:]):
        raise DomainError(f"the leading coefficient is not a unit modulo {m}")
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] * inv % m
        r[k + n] = c
        if c:
            for i, x in low:
                r[k + i] += c * x
    return _u_trim_ints([c % m for c in r[:n]])


def _u_rem(R, a, b) -> list:
    if isinstance(R, IntegersMod):
        return _u_reduce(R.m, list(a), _u_modulus(R, b))
    return _u_divmod(R, a, b)[1]


def _u_monic(R, a: list) -> list:
    if not a or a[-1] == R.one:
        return a
    return _u_scale(R, a, R.inv(a[-1]))


def _u_gcd(R, a, b) -> list:
    """The monic gcd by Euclid; gcd(a, 0) is a made monic.  Over Z/mZ each
    remainder is a ``_u_reduce`` on plain ints, with no quotient kept."""
    a, b = list(a), list(b)
    if isinstance(R, IntegersMod):
        # the first remainder of a shorter a is a itself
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _u_reduce(R.m, a, _u_modulus(R, b))
        return _u_monic(R, a)
    while b:
        a, b = b, _u_rem(R, a, b)
    return _u_monic(R, a)


def _u_prem(R, a, b) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, by ring
    operations alone (no inverse): deg a >= deg b >= 0."""
    add, mul, is_zero = R.add, R.mul, R.is_zero
    lead = b[-1]
    monic = lead == R.one
    low = [(i, R.neg(x)) for i, x in enumerate(b[:-1]) if not is_zero(x)]
    r = list(a)
    n = len(b) - 1
    e = len(r) - n
    while len(r) > n:
        c = r.pop()
        if not monic:
            r = [mul(lead, x) for x in r]
        k = len(r) - n
        for i, x in low:
            r[k + i] = add(r[k + i], mul(c, x))
        _u_trim(R, r)
        e -= 1
    if e and r and not monic:
        r = _u_scale(R, r, _power(lead, e, mul, R.one))
    return r


def _leaves(rep) -> list:
    """The base scalars of a rep of a tower whose steps are all algebraic."""
    if rep.__class__ is not tuple:
        return [rep]
    return [x for c in rep for x in _leaves(c)]


def _map_leaves(rep, fn):
    """The rep with fn applied to each base scalar; fn keeps nonzero ones
    nonzero, so the rep stays trimmed."""
    if rep.__class__ is not tuple:
        return fn(rep)
    return tuple([_map_leaves(c, fn) for c in rep])


def _leaf_quotient(x, n: int):
    """x / n for a Q scalar x and an int n > 0: ``//`` when it is exact."""
    if x.__class__ is int:
        q, r = divmod(x, n)
        if not r:
            return q
    return _rational(Fraction(x, n))


def _integral_primitive(a: list) -> list:
    """The rational multiple of the nonzero polynomial a (reps over Q or a
    number field) whose base scalars are coprime ints."""
    leaves = [x for c in a for x in _leaves(c)]
    den = math.lcm(*(x.denominator for x in leaves))
    content = math.gcd(*(x.numerator * (den // x.denominator) for x in leaves))
    return [
        _map_leaves(c, lambda x: x.numerator * (den // x.denominator) // content) for c in a
    ]


def _prs_divisor(R, g, h, delta: int):
    """g * h^delta, which divides the pseudo-remainder of a subresultant
    step exactly (Brown and Traub 1971)."""
    return R.mul(g, _power(h, delta, R.mul, R.one))


def _integral_inverse(R, s):
    """(v, n) with s * v = n for a nonzero s over Q or a number field: the
    inverse of s as v / n, n a positive int and v integral wherever s and
    the minimal polynomials are.  A quadratic level, y^2 + p*y + q, takes
    the conjugate, (a + b*y) * (a - b*p - b*y) = a*(a - b*p) + b^2*q one
    level down, and a constant is inverted one level down; other levels
    clear the denominators of ``R.inv``."""
    if R.__class__ is RationalField:
        n, d = s.numerator, s.denominator
        return (d, n) if n > 0 else (-d, -n)
    k = R.k
    if len(s) == 1:
        v, n = _integral_inverse(k, s[0])
        return (v,), n
    if len(R.minpoly) == 3:
        q, p = R.minpoly[0], R.minpoly[1]
        a, b = s
        conj = k.add(a, k.neg(k.mul(b, p)))
        v, n = _integral_inverse(k, k.add(k.mul(a, conj), k.mul(k.mul(b, b), q)))
        return tuple(_u_scale(k, [conj, k.neg(b)], v)), n
    inv = R.inv(s)
    n = math.lcm(*(x.denominator for x in _leaves(inv)))
    return _map_leaves(inv, lambda x: x.numerator * (n // x.denominator)), n


def _scalar_quotient(R, a: list, s) -> list:
    """a / s coefficientwise over Q or a number field, s nonzero: the
    inverse of s as v / n (``_integral_inverse``), then products by v and
    quotients by n, which stay ints wherever s divides in the ring of
    integral reps."""
    if s == R.one:
        return a
    v, n = _integral_inverse(R, s)
    if n == 1:
        return [R.mul(c, v) for c in a]
    return [_map_leaves(R.mul(c, v), lambda x: _leaf_quotient(x, n)) for c in a]


def _subresultant_prs(R, a: list, b: list):
    """Yield the remainders of the subresultant polynomial remainder sequence
    of a and b, deg a >= deg b >= 1 (Collins 1967; Brown and Traub 1971;
    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.1),
    up to the last nonzero one.  Each pseudo-remainder is divided by
    g * h^delta, which the subresultant theorem proves exact, so remainders
    of inputs with coefficients in an integral domain D stay in D: in
    Z[theta1..thetar] when every minimal polynomial is integral."""
    g = h = R.one
    while True:
        delta = len(a) - len(b)
        r = _u_prem(R, a, b)
        if not r:
            return
        r = _scalar_quotient(R, r, _prs_divisor(R, g, h, delta))
        yield r
        if len(r) == 1:
            return
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            # g^delta / h^(delta-1), exact as well
            gd = _power(g, delta, R.mul, R.one)
            h = _scalar_quotient(R, [gd], _power(h, delta - 1, R.mul, R.one))[0]


def _u_gcd_subresultant(R, a, b) -> list:
    """The monic gcd over Q or a number field (R the ring of a tower whose
    steps are all algebraic over Q), equal to ``_u_gcd``'s: the inputs are
    made integral and primitive over Z, the subresultant PRS runs on them,
    and its last nonzero remainder is made monic.  The only inverses are of
    scalars (``_scalar_quotient``): one per step, one more where the degree
    drops by 2 or more, and the final one; a non-integral minimal polynomial
    costs ``Fraction`` scalars, not correctness."""
    a, b = _u_trim(R, list(a)), _u_trim(R, list(b))
    if not a or not b:
        return _u_monic(R, a or b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [R.one]
    last = _integral_primitive(b)
    for last in _subresultant_prs(R, _integral_primitive(a), last):
        pass
    return _scalar_quotient(R, last, last[-1])


def _u_xgcd(R, a, b) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, the monic gcd of a and b.  Over Z/mZ
    the loop runs on plain ints: each remainder is a ``_u_reduce``, whose
    overwritten top is the quotient, and each cofactor update one unreduced
    product reduced once; a leading coefficient that is not a unit is
    refused where the generic loop refuses it."""
    r0, r1 = list(a), list(b)
    s0, s1 = [R.one], []
    t0, t1 = [], [R.one]
    if isinstance(R, IntegersMod):
        m = R.m

        def step(x, q, y):  # x - q*y
            acc = [-c for c in _u_mul_ints(q, y)]
            acc += [0] * (len(x) - len(acc))
            for i, c in enumerate(x):
                acc[i] += c
            return _u_trim_ints([c % m for c in acc])

        while r1:
            n = len(r1) - 1
            r = _u_reduce(m, r0, _u_modulus(R, r1))
            q = _u_trim_ints(r0[n:])
            r0, r1 = r1, r
            s0, s1 = s1, step(s0, q, s1)
            t0, t1 = t1, step(t0, q, t1)
    # over Z/mZ the loop above has left r1 empty
    while r1:
        q, r = _u_divmod(R, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _u_add(R, s0, _u_neg(R, _u_mul(R, q, s1)))
        t0, t1 = t1, _u_add(R, t0, _u_neg(R, _u_mul(R, q, t1)))
    if r0 and r0[-1] != R.one:
        c = R.inv(r0[-1])
        r0, s0, t0 = (_u_scale(R, x, c) for x in (r0, s0, t0))
    return r0, s0, t0


def _u_powmod(R, a, n: int, m) -> list:
    """a^n modulo m by square-and-multiply (``_power``); a^0 is one reduced
    modulo m, so 0 when m is a unit.  Over Z/mZ, m is prepared once
    (``_u_modulus``) and each product goes unreduced into ``_u_reduce``, a
    multiply and reduce in one pass."""
    if isinstance(R, IntegersMod):
        mod, q = _u_modulus(R, m), R.m
        one, x = _u_reduce(q, [1], mod), _u_reduce(q, list(a), mod)
        return _power(x, n, lambda x, y: _u_reduce(q, _u_mul_ints(x, y), mod), one)
    one = _u_rem(R, [R.one], m)
    return _power(_u_rem(R, a, m), n, lambda x, y: _u_rem(R, _u_mul(R, x, y), m), one)


def _u_deriv(R, a) -> list:
    if isinstance(R, IntegersMod):
        m = R.m
        return _u_trim_ints([i * a[i] % m for i in range(1, len(a))])
    return _u_trim(R, [R.mul(R.from_int(i), a[i]) for i in range(1, len(a))])


def _u_squarefree(R, a) -> bool:
    """a' != 0 and gcd(a, a') is a unit: over a field, a has no repeated
    factor and is separable."""
    deriv = _u_deriv(R, a)
    return bool(deriv) and len(_u_gcd(R, a, deriv)) == 1


def _p_power_binomial(R, reps, p: int) -> int | None:
    """k >= 1 when the monic rep list ``reps`` is y^(p^k) + c, else None."""
    d, k = len(reps) - 1, 0
    while d > 1 and d % p == 0:
        d //= p
        k += 1
    if d != 1 or k == 0 or any(not R.is_zero(r) for r in reps[1:-1]):
        return None
    return k


def _key(tw, lvl, r):
    if lvl == 0:
        return (0, r)
    if tw.steps[lvl - 1].is_algebraic:
        return (1, len(r), tuple(_key(tw, lvl - 1, c) for c in r))
    num, den = r
    return (
        2,
        len(num),
        tuple(_key(tw, lvl - 1, c) for c in num),
        len(den),
        tuple(_key(tw, lvl - 1, c) for c in den),
    )


# ---------------------------------------------------------------------------
# Flattening an element into a fraction of multivariate polynomials


def _polynomial_terms(tw: FieldTower, rep) -> dict | None:
    """The terms of a level-``tw.level`` rep, exponent tuples (slot j =
    generator j+1) mapped to base scalars, read straight off the nested rep;
    None when a transcendental level has a denominator other than 1.  Over
    a polynomial element the exponent tuples are distinct, so nothing is
    summed."""
    steps = tw.steps
    terms: dict = {}

    def walk(lvl: int, r, exps: tuple) -> bool:
        if lvl == 0:
            if r:  # canonical base scalars, ints or Fractions, are falsy only at 0
                terms[exps] = r
            return True
        if steps[lvl - 1].minpoly is None:
            num, den = r
            if len(den) > 1:  # monic, so a constant denominator is 1
                return False
            r = num
        for i, c in enumerate(r):
            if not walk(lvl - 1, c, (i,) + exps):
                return False
        return True

    return terms if walk(tw.level, rep, ()) else None


def _denominators(tw: FieldTower, rep) -> list["FieldElement"]:
    """The denominators other than 1 in a rep of ``tw``, a tower with at
    least one step, those inside other denominators too, each as an element
    of ``tw``."""
    out = []

    def walk(lvl: int, r) -> None:
        if tw.steps[lvl - 1].minpoly is None:
            num, den = r
            if len(den) > 1:
                one = tw.rings[lvl - 1].one
                out.append(FieldElement(tw, _lift(tw, (den, (one,)), lvl, tw.level)))
            r = num + den
        if lvl > 1:
            for c in r:
                walk(lvl - 1, c)

    walk(tw.level, rep)
    return out


def _format_terms(terms: dict, tw: FieldTower) -> str:
    """A dict of terms, keyed as ``_polynomial_terms`` keys them, as text:
    highest exponent tuple first, a coefficient 1 (and -1 over Q) left out."""
    names = tw.gen_names
    signed = tw.char == 0
    rendered = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        mono = "*".join(
            [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exps) if e]
        )
        if not mono:
            piece = str(coeff)
        elif coeff == 1:
            piece = mono
        elif signed and coeff == -1:
            piece = f"-{mono}"
        else:
            piece = f"{coeff}*{mono}"
        rendered.append(piece)
    return _join_terms(rendered)


def _join_terms(pieces: list[str]) -> str:
    """The sum of rendered terms, with " - " before a piece that starts with
    "-"; "0" when there are none."""
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _fraction_level(rings: tuple, cut: int, lvl: int, terms: list, den: tuple):
    """Canonical level-``lvl`` rep, ``lvl > cut``, of (sum of terms) /
    (monomial), for a nonempty list of (exponent tuple, level-``cut`` rep)
    pairs (slot j = generator at level cut+1+j) with nonzero reps and
    distinct tuples, and ``den`` the denominator monomial.  The caller
    checks all of this, and that every generator above ``cut`` is
    transcendental.

    Nothing cancels: distinct tuples are distinct monomials, so the
    coefficient of each power of a generator is a sum of monomials with
    nonzero coefficients, and is nonzero.  The only possible common factor
    of such a sum with a monomial denominator is a generator power; at each
    level it is g^min(lowest exponent present, denominator exponent), which
    is stripped exactly, so the result is canonical by construction.  One
    pass groups the terms by the exponent of the level-``lvl`` generator,
    and each group is the coefficient of that power.  Just above ``cut``
    each group is one term, whose rep is placed as it stands.
    """
    below = rings[lvl - 1]
    j = lvl - cut - 1
    groups: dict[int, list] = {}
    for term in terms:
        e = term[0][j]
        if e in groups:
            groups[e].append(term)
        else:
            groups[e] = [term]
    strip = min(min(groups), den[j])
    coeffs = [below.zero] * (max(groups) - strip + 1)
    for e, group in groups.items():
        coeffs[e - strip] = (
            group[0][1] if j == 0 else _fraction_level(rings, cut, lvl - 1, group, den)
        )
    return tuple(coeffs), (below.zero,) * (den[j] - strip) + (below.one,)


# ---------------------------------------------------------------------------
# Tower homomorphisms


class TowerHom:
    """A field map determined by generator images; injective automatically."""

    def __init__(self, source: FieldTower, target: FieldTower, images: Sequence[FieldElement]):
        if source.base != target.base:
            raise StructuralError("tower hom requires identical base fields")
        if len(images) != source.level:
            raise StructuralError("one image per source generator is required")
        self.source = source
        self.target = target
        self.images = tuple(target.coerce(im) for im in images)

    @staticmethod
    def inclusion(sub: FieldTower, sup: FieldTower) -> "TowerHom":
        if not sub.is_prefix_of(sup):
            raise StructuralError("inclusion requires a prefix subtower")
        return TowerHom(sub, sup, [sup.gen(n) for n in sub.gen_names])

    def is_inclusion(self) -> bool:
        """Whether this map is ``inclusion(source, target)``: the source is a
        prefix of the target and each generator goes to its namesake.  False
        when the target lacks a source generator's name."""
        return self.source.is_prefix_of(self.target) and self.images == tuple(
            self.target.gen(n) for n in self.source.gen_names
        )

    def apply(self, elem: FieldElement) -> FieldElement:
        if elem.tower != self.source:
            if elem.tower.is_prefix_of(self.source):
                elem = self.source.embed(elem)
            else:
                raise StructuralError("element not in the hom's source")
        return FieldElement(self.target, self._eval(self.source.level, elem.rep))

    def _eval(self, lvl: int, r):
        """The target rep of the image of the level-``lvl`` source rep r."""
        tgt = self.target
        if lvl == 0:
            return _lift(tgt, r, 0, tgt.level)
        if self.source.steps[lvl - 1].is_algebraic:
            return self._eval_poly(lvl, r)
        num, den = r
        d = self._eval_poly(lvl, den)
        if tgt.ring.is_zero(d):
            raise StructuralError("generator images do not define a field map")
        # an element division: bench/tracing.py requires factor_mix to reach
        # fields.inv, and the p-th root maps over F_2(a) reach it only here
        return (FieldElement(tgt, self._eval_poly(lvl, num)) / FieldElement(tgt, d)).rep

    def _eval_poly(self, lvl: int, coeffs):
        """The target rep of sum c_j g^j, g the image of generator ``lvl``,
        by Horner on reps."""
        ring = self.target.ring
        if not coeffs:
            return ring.zero
        img = self.images[lvl - 1].rep
        out = self._eval(lvl - 1, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out = ring.add(ring.mul(out, img), self._eval(lvl - 1, c))
        return out

    def verify(self) -> bool:
        """Check every algebraic relation maps to zero."""
        ring = self.target.ring
        return all(
            ring.is_zero(self._eval_poly(i + 1, step.minpoly))
            for i, step in enumerate(self.source.steps)
            if step.is_algebraic
        )


# ---------------------------------------------------------------------------
# Characteristic-p structure: p-th roots, perfect closures, radiciality


@dataclass(frozen=True)
class _Flattening:
    pure: FieldTower
    fwd: TowerHom
    back: TowerHom


@functools.lru_cache(maxsize=256)
def _flattening(tw: FieldTower) -> _Flattening | None:
    """An isomorphism with C(u_1..u_r), C the finite-field part, when the
    algebraic steps above the finite prefix are p-power-root chains of
    generators (the identity of a finite tw); tw has positive
    characteristic, as ``pth_root`` requires."""
    p = tw.char
    prefix_len = 0
    while prefix_len < tw.level and tw.steps[prefix_len].is_algebraic:
        prefix_len += 1
    # depth of each post-prefix generator inside its root chain
    depth: dict[str, int] = {}
    head: dict[str, str] = {}
    for i in range(prefix_len, tw.level):
        step = tw.steps[i]
        if not step.is_algebraic:
            depth[step.name] = 0
            head[step.name] = step.name
            continue
        k = _p_power_binomial(tw.rings[i], step.minpoly, p)
        if k is None:
            return None
        sub = tw.prefix(i)
        base_elt = -FieldElement(sub, step.minpoly[0])
        base_name = None
        for j in range(prefix_len, i):
            if sub.gen(tw.steps[j].name) == base_elt:
                base_name = tw.steps[j].name
                break
        if base_name is None:
            return None
        depth[step.name] = depth[base_name] + k
        head[step.name] = head[base_name]
    chain_depth: dict[str, int] = {}
    deepest: dict[str, str] = {}
    for name, h in head.items():
        if depth[name] >= chain_depth.get(h, -1):
            chain_depth[h] = depth[name]
            deepest[h] = name
    pure = tw.prefix(prefix_len)
    heads = [s.name for s in tw.steps[prefix_len:] if not s.is_algebraic]
    for h in heads:
        pure = pure.extend_transcendental(h)
    fwd_images = [pure.gen(n) for n in tw.gen_names[:prefix_len]]
    for i in range(prefix_len, tw.level):
        name = tw.steps[i].name
        h = head[name]
        fwd_images.append(pure.gen(h) ** (p ** (chain_depth[h] - depth[name])))
    back_images = [tw.gen(n) for n in tw.gen_names[:prefix_len]]
    back_images += [tw.gen(deepest[h]) for h in heads]
    fwd = TowerHom(tw, pure, fwd_images)
    back = TowerHom(pure, tw, back_images)
    if not fwd.verify():
        return None
    for name in tw.gen_names:
        if back.apply(fwd.apply(tw.gen(name))) != tw.gen(name):
            return None
    return _Flattening(pure, fwd, back)


def _pth_root_pure(elem: FieldElement, prefix_len: int) -> FieldElement | None:
    """p-th root in a tower that is purely transcendental above a finite
    prefix; None when the element is not a p-th power."""
    tw = elem.tower
    p = tw.char
    # the prefix has q = p^e elements, so x^(q/p) is the p-th root of x there
    q_over_p = p ** (tw.prefix(prefix_len).extension_degree() - 1)
    finite = tw.rings[prefix_len]

    def rec(lvl: int, r):
        if lvl == prefix_len:
            return _power(r, q_over_p, finite.mul, finite.one)
        num, den = r
        rn = rec_poly(lvl, num)
        if rn is None:
            return None
        rd = rec_poly(lvl, den)
        if rd is None:
            return None
        return (tuple(rn), tuple(rd))

    def rec_poly(lvl: int, coeffs):
        below = tw.rings[lvl - 1]
        out = [below.zero] * ((len(coeffs) + p - 1) // p if coeffs else 0)
        for j, c in enumerate(coeffs):
            if below.is_zero(c):
                continue
            if j % p != 0:
                return None
            root = rec(lvl - 1, c)
            if root is None:
                return None
            out[j // p] = root
        return _u_trim(below, out)

    r = rec(tw.level, elem.rep)
    return None if r is None else FieldElement(tw, r)


def pth_root(elem: FieldElement) -> FieldElement | None:
    """The unique p-th root of ``elem`` in its tower, or None if there is none.

    Supported towers: those whose algebraic steps above the finite-field
    part adjoin p-power roots of earlier generators.  A finite field is its
    own flattening.  Other shapes raise CapabilityError.
    """
    tw = elem.tower
    if tw.char == 0:
        raise DomainError("p-th roots require positive characteristic")
    fl = _flattening(tw)
    if fl is None:
        raise CapabilityError(
            "p-th roots are only supported over finite fields and root-chain towers"
        )
    prefix_len = sum(1 for s in fl.pure.steps if s.is_algebraic)
    r = _pth_root_pure(fl.fwd.apply(elem), prefix_len)
    if r is None:
        return None
    root = fl.back.apply(r)
    if root**tw.char != elem:
        raise DomainError(f"computed p-th root {root} of {elem} does not check")
    return root


def check_closure_degree(p: int, n_trunc: int, t: int) -> None:
    """Refuse, with CapabilityError, truncated perfect closures at exponent N
    over t transcendental generators past ``config.MAX_CLOSURE_DEGREE``.

    The closure has degree p^(N*t); with t = 0 it is the tower itself, and
    p^N still bounds the root chains and the value group a general build
    rereads at exponent N, so t counts as 1.  A large exponent is refused
    before the power is formed."""
    t = max(1, t)
    cap = config.MAX_CLOSURE_DEGREE
    if n_trunc * t > cap.bit_length() or p ** (n_trunc * t) > cap:
        raise CapabilityError(
            f"truncated perfect closures are supported up to degree {cap}, "
            f"got p^(N*t) = {p}^({n_trunc}*{t})"
        )


def perfect_closure_truncated(tower: FieldTower, p: int, n_trunc: int) -> FieldTower:
    """Adjoin p^N-th roots of every tower generator (chains of p-th roots).

    Idempotent for generators whose roots already exist; the result contains
    the original tower as a prefix.
    """
    if tower.char == 0 or tower.char != p:
        raise DomainError(f"perfect closure needs characteristic {p}, tower has {tower.char}")
    if n_trunc < 0:
        raise DomainError("truncation exponent must be nonnegative")
    check_closure_degree(p, n_trunc, sum(1 for s in tower.steps if not s.is_algebraic))
    out = tower
    for gen_name in tower.gen_names:
        current = out.gen(gen_name)
        for j in range(1, n_trunc + 1):
            current = out.coerce(current)
            root = pth_root(current)
            if root is not None:
                current = root
                continue
            new_name = f"{gen_name}__p{j}"
            minpoly = [-current] + [out.zero()] * (p - 1) + [out.one()]
            out = out.extend_algebraic(new_name, minpoly, check=False)
            current = out.gen(new_name)
    return out


def is_radicial(sub: FieldTower, sup: FieldTower, p: int) -> bool:
    """Whether ``sup`` is radicial over its prefix subtower ``sub``: every
    generator of ``sup`` above ``sub`` has a p-power inside ``sub``.

    A transcendental step above ``sub`` makes the answer False.  Otherwise
    the test is exact: a purely inseparable z has degree p^e over ``sub``,
    with z^(p^e) in ``sub`` and p^e dividing [sup:sub], so the powers
    z^(p^m) with p^m <= [sup:sub] are all that need trying.
    """
    if not sub.is_prefix_of(sup):
        raise StructuralError("sub must be a prefix subtower of sup")
    proper_gens = sup.steps[sub.level :]
    if sup.char == 0 or p == 1:
        return len(proper_gens) == 0
    if sup.char != p:
        raise DomainError(f"radiciality with p={p} needs characteristic {p}")
    degree = sup.extension_degree(sub.level)
    if degree is None:
        return False
    for step in proper_gens:
        z = sup.gen(step.name)
        q = 1
        while z.restrict(sub.level) is None:
            q *= p
            if q > degree:
                return False
            z = z**p
    return True


def tower_separable_over(sup: FieldTower, prefix_len: int) -> bool:
    """All algebraic steps above the prefix are separable (cached flags)."""
    return all(s.separable for s in sup.steps[prefix_len:] if s.is_algebraic)
