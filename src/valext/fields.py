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
(reduction modulo the minimal polynomial, inverses by the extended Euclidean
algorithm) and ``TranscendentalLevel`` (canonical fractions).  Every ring has
precomputed ``zero`` and ``one`` and the methods ``is_zero``, ``add``,
``neg``, ``mul``, ``inv`` and ``from_int`` (above level 0 also ``lift`` from
the level below), so the dense univariate arithmetic (``_u_*``: add, mul,
divmod, monic, gcd, xgcd, powmod) is written once over that interface.  It
serves every level, the factorization code in ``poly`` and the integers
modulo m (``IntegersMod``).

The characteristic-p utilities (p-th roots, truncated perfect closure,
radiciality) rely on towers whose algebraic steps adjoin p-power roots of
earlier generators; such towers are isomorphic to rational function fields
over their finite-field part, which is what makes exact root extraction
possible.

Towers and elements are immutable after construction and safe to share
across threads; extension methods return new towers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import config
from .errors import CapabilityError, DomainError, StructuralError


# ---------------------------------------------------------------------------
# Base fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RationalField:
    """The field Q; scalars are ``fractions.Fraction``."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int):
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
#   level 0                  base scalar (Fraction or int)
#   algebraic step, degree d tuple of level-(i-1) reps, trimmed, len < d+1
#   transcendental step      (num, den): tuples of level-(i-1) reps, den
#                            monic and coprime to num; () is the zero poly
# Reps are canonical, so structural equality is element equality.


@dataclass(frozen=True)
class Step:
    """One simple extension step; ``minpoly`` is None for transcendental steps.

    ``minpoly`` is the monic minimal polynomial over the tower below this
    step, stored as a tuple of internal reps (constant term first).
    ``separable`` caches gcd(f, f') = 1 and is None for transcendental steps.
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

    @property
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
        ``(c, mask)`` and filled on use by ``norms.random_field_element``."""
        return {}

    @property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps)

    def _check_fresh(self, name: str) -> None:
        if not name or not all(c.isalnum() or c == "_" for c in name):
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
        return FieldTower(self.base, self.steps + (Step(name, None, None),))

    def extend_algebraic(
        self,
        name: str,
        minpoly: Sequence["FieldElement"],
        *,
        check: bool = True,
    ) -> "FieldTower":
        """Adjoin a root of the given polynomial (coefficients over self).

        ``minpoly`` lists coefficients, constant term first.  It is
        normalized to be monic.  With ``check`` the polynomial is verified
        irreducible (internal callers that just produced an irreducible
        factor pass check=False).
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
        separable = self._step_separable(reps)
        if check:
            self._check_irreducible(coeffs)
        return FieldTower(self.base, self.steps + (Step(name, reps, separable),))

    def _step_separable(self, minpoly_reps: tuple) -> bool:
        deriv = _u_deriv(self.ring, minpoly_reps)
        if not deriv:
            return False
        return len(_u_gcd(self.ring, minpoly_reps, deriv)) == 1

    def _check_irreducible(self, coeffs: list["FieldElement"]) -> None:
        from . import poly

        f = poly.Polynomial.from_coeffs(self, "y", coeffs)
        fac = poly.factor(f)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            pieces = ", ".join(f"({p})^{m}" for p, m in fac.factors)
            raise DomainError(f"minimal polynomial is reducible: {pieces}")

    def prefix(self, length: int) -> "FieldTower":
        if not 0 <= length <= self.level:
            raise StructuralError(f"prefix length {length} out of range")
        return FieldTower(self.base, self.steps[:length])

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
            return FieldElement(self, _lift(self, q, 0, self.level))
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

    def gens(self) -> list["FieldElement"]:
        return [self.gen(s.name) for s in self.steps]

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
        from . import poly

        s = self.steps[i]
        if not s.is_algebraic:
            return f"{s.name}: transcendental"
        f = poly.Polynomial.from_coeffs(self.prefix(i), "y", self.minpoly_coeffs(i))
        return f"{s.name}: algebraic {f}"

    def extend_step(self, text: str) -> "FieldTower":
        """Extend by one step written as ``step_text`` renders it."""
        from . import poly

        head, sep, kind = text.partition(":")
        if not sep:
            raise StructuralError(f"malformed tower step {text!r}")
        name = head.strip()
        kind = kind.strip()
        if kind == "transcendental":
            return self.extend_transcendental(name)
        if kind.startswith("algebraic"):
            f = poly.Polynomial.parse(kind[len("algebraic") :].strip(), self, ("y",))
            return self.extend_algebraic(name, f.univariate_coeffs())
        raise StructuralError(f"unknown step kind in {text!r}")

    def describe(self) -> str:
        """Text form: ``base=F2; gen a: transcendental; gen r: algebraic y^2 - a``."""
        parts = [f"base={self.base.describe()}"]
        parts += [f"gen {self.step_text(i)}" for i in range(self.level)]
        return "; ".join(parts)

    @staticmethod
    def from_description(text: str) -> "FieldTower":
        parts = [p.strip() for p in text.split(";") if p.strip()]
        if not parts or not parts[0].startswith("base="):
            raise StructuralError("tower description must start with base=...")
        base = parts[0][len("base=") :].strip()
        if base == "Q":
            tower = FieldTower.rationals()
        elif base.startswith("F"):
            tower = FieldTower.prime_field(int(base[1:]))
        else:
            raise StructuralError(f"unknown base field {base!r}")
        for part in parts[1:]:
            if not part.startswith("gen "):
                raise StructuralError(f"expected 'gen ...', got {part!r}")
            tower = tower.extend_step(part[4:])
        return tower

    def __str__(self):
        return self.describe()


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
        a, b = self._pair(other)
        return FieldElement(a.tower, a.tower.ring.mul(a.rep, b.rep))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero:
            raise DomainError("inverse of zero")
        return FieldElement(self.tower, self.tower.ring.inv(self.rep))

    def __truediv__(self, other):
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
            other = self.tower.coerce(other)
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

    def as_fraction_strings(self) -> tuple[str, str]:
        num, den = _split_fraction(self.tower, self.rep, 0)
        names = self.tower.gen_names
        return _format_terms(num, names, self.tower), _format_terms(den, names, self.tower)

    def __str__(self):
        n, d = self.as_fraction_strings()
        if d == "1":
            return n
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
    tuples of k reps, reduced modulo the monic minimal polynomial."""

    zero = ()

    def __init__(self, k, minpoly: tuple):
        self.k = k
        self.minpoly = minpoly
        self.one = (k.one,)

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
        return tuple(_u_rem(self.k, _u_mul(self.k, a, b), self.minpoly))

    def inv(self, a):
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
        k = self.k
        (an, ad), (bn, bd) = a, b
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
        num, den = a
        if len(num) == 0:
            raise DomainError("inverse of zero")
        return self.frac(den, num)

    def _monomial_term(self, r):
        """(c, i, k) when r is c*g^i / g^k, else None."""
        num, den = r
        if not num:
            return None
        for part in (num, den):
            for c in part[:-1]:
                if not self.k.is_zero(c):
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
            num = [x if ring.is_zero(x) else ring.mul(c, x) for x in num]
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


def _u_add(R, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = R.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _u_trim(R, out)


def _u_neg(R, a) -> list:
    return [R.neg(c) for c in a]


def _u_mul(R, a, b) -> list:
    if not a or not b:
        return []
    add, mul, is_zero = R.add, R.mul, R.is_zero
    out = [R.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return _u_trim(R, out)


def _u_scale(R, a, c) -> list:
    return _u_trim(R, [R.mul(c, x) for x in a])


def _u_divmod(R, a, b) -> tuple[list, list]:
    if not b:
        raise DomainError("polynomial division by zero")
    r = _u_trim(R, list(a))
    n = len(b) - 1
    if len(r) <= n:
        return [], r
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


def _u_rem(R, a, b) -> list:
    return _u_divmod(R, a, b)[1]


def _u_monic(R, a: list) -> list:
    if not a or a[-1] == R.one:
        return a
    return _u_scale(R, a, R.inv(a[-1]))


def _u_gcd(R, a, b) -> list:
    """The monic gcd; gcd(a, 0) is a made monic."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _u_rem(R, a, b)
    return _u_monic(R, a)


def _u_xgcd(R, a, b) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, the monic gcd of a and b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [R.one], []
    t0, t1 = [], [R.one]
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
    """a^n modulo m."""
    return _power(_u_rem(R, a, m), n, lambda x, y: _u_rem(R, _u_mul(R, x, y), m), [R.one])


def _u_deriv(R, a) -> list:
    return _u_trim(R, [R.mul(R.from_int(i), a[i]) for i in range(1, len(a))])


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


def _split_fraction(tw: FieldTower, rep, cut: int):
    """Write a level-``tw.level`` rep as num/den, polynomials in the
    generators above level ``cut`` with level-``cut`` coefficients.

    Returns two dicts mapping exponent tuples (slot j = generator at level
    cut+1+j) to nonzero level-``cut`` reps.  No common-factor reduction is
    performed.  For display only (``FieldElement.as_fraction_strings``): the
    products it multiplies out are far too slow for arithmetic, so valuations
    read values from the nested rep instead.
    """

    ring = tw.rings[cut]
    one = ring.one

    def md_mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ring.mul(ca, cb)
                if e in out:
                    c = ring.add(out[e], c)
                out[e] = c
        return {e: c for e, c in out.items() if not ring.is_zero(c)}

    def md_add(a: dict, b: dict) -> dict:
        out = dict(a)
        for e, c in b.items():
            if e in out:
                c = ring.add(out[e], c)
            out[e] = c
        return {e: c for e, c in out.items() if not ring.is_zero(c)}

    def unit(lvl: int) -> dict:
        return {(0,) * (lvl - cut): one}

    def rec(lvl: int, r):
        if lvl == cut:
            if ring.is_zero(r):
                return {}, {(): one}
            return {(): r}, {(): one}
        step = tw.steps[lvl - 1]
        if step.is_algebraic:
            return combine(lvl, r)
        num, den = r
        fn_n, fn_d = combine(lvl, num)
        fd_n, fd_d = combine(lvl, den)
        return md_mul(fn_n, fd_d), md_mul(fn_d, fd_n)

    def combine(lvl: int, coeffs):
        # sum over i of coeff_i * g_lvl^i, accumulating a common denominator
        acc_n: dict = {}
        acc_d = unit(lvl)
        for i, c in enumerate(coeffs):
            cn, cd = rec(lvl - 1, c)
            cn = {e + (i,): v for e, v in cn.items()}
            cd = {e + (0,): v for e, v in cd.items()}
            acc_n = md_add(md_mul(acc_n, cd), md_mul(cn, acc_d))
            acc_d = md_mul(acc_d, cd)
        return acc_n, acc_d

    return rec(tw.level, rep)


def _format_terms(terms: dict, names: tuple[str, ...], tw: FieldTower) -> str:
    if not terms:
        return "0"
    rendered = []
    for exps in sorted(terms.keys(), reverse=True):
        coeff = terms[exps]
        mono = "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exps) if e > 0
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
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


def build_fraction_rep(tw: FieldTower, cut: int, terms: dict, den_exps) -> object:
    """Canonical rep of (sum of terms) / (monomial), over the top levels.

    ``terms`` maps exponent tuples (slot j = generator at level cut+1+j) to
    level-``cut`` reps; ``den_exps`` gives the denominator monomial.  All
    generators above ``cut`` must be transcendental.  Canonical by
    construction: the only possible common factor with a monomial
    denominator is a generator power, which is stripped exactly.
    """
    n = tw.level - cut
    den_exps = tuple(den_exps)
    if len(den_exps) != n or any(e < 0 for e in den_exps):
        raise StructuralError("bad denominator exponents")
    for lvl in range(cut, tw.level):
        if tw.steps[lvl].is_algebraic:
            raise StructuralError("direct fraction reps need transcendental top levels")
    terms = {e: c for e, c in terms.items() if not tw.rings[cut].is_zero(c)}

    def rec(lvl: int, sub_terms: dict, den: tuple):
        if lvl == cut:
            if not sub_terms:
                return tw.rings[cut].zero
            return sub_terms[()]
        below = tw.rings[lvl - 1]
        j = lvl - cut - 1
        dj = den[j]
        groups: dict[int, dict] = {}
        for exps, c in sub_terms.items():
            groups.setdefault(exps[j], {})[exps[:j]] = c
        if not groups:
            return ((), (below.one,))
        top = max(groups)
        coeffs = []
        for e in range(top + 1):
            if e in groups:
                coeffs.append(rec(lvl - 1, groups[e], den[:j]))
            else:
                coeffs.append(below.zero)
        lead_zeros = 0
        while lead_zeros < len(coeffs) and below.is_zero(coeffs[lead_zeros]):
            lead_zeros += 1
        strip = min(lead_zeros, dj)
        coeffs = coeffs[strip:]
        dj -= strip
        den_poly = tuple([below.zero] * dj + [below.one])
        return (tuple(coeffs), den_poly)

    return rec(tw.level, terms, den_exps)


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

    def apply(self, elem: FieldElement) -> FieldElement:
        if elem.tower != self.source:
            if elem.tower.is_prefix_of(self.source):
                elem = self.source.embed(elem)
            else:
                raise StructuralError("element not in the hom's source")
        return self._eval(self.source.level, elem.rep)

    def _eval(self, lvl: int, r) -> FieldElement:
        tgt = self.target
        if lvl == 0:
            if tgt.char == 0:
                return tgt.from_fraction(r)
            return tgt.from_int(r)
        if self.source.steps[lvl - 1].is_algebraic:
            return self._eval_poly(lvl, r)
        num, den = r
        d = self._eval_poly(lvl, den)
        if d.is_zero:
            raise StructuralError("generator images do not define a field map")
        return self._eval_poly(lvl, num) / d

    def _eval_poly(self, lvl: int, coeffs) -> FieldElement:
        tgt = self.target
        img = self.images[lvl - 1]
        out = tgt.zero()
        for c in reversed(coeffs):
            out = out * img + self._eval(lvl - 1, c)
        return out

    def verify(self) -> bool:
        """Check every algebraic relation maps to zero."""
        for i, step in enumerate(self.source.steps):
            if not step.is_algebraic:
                continue
            img = self.images[i]
            acc = self.target.zero()
            for c in reversed(step.minpoly):
                acc = acc * img + self._eval(i, c)
            if not acc.is_zero:
                return False
        return True

    def compose(self, inner: "TowerHom") -> "TowerHom":
        """self after inner."""
        if inner.target != self.source:
            raise StructuralError("homs do not compose")
        return TowerHom(inner.source, self.target, [self.apply(im) for im in inner.images])


# ---------------------------------------------------------------------------
# Characteristic-p structure: p-th roots, perfect closures, radiciality


@dataclass(frozen=True)
class _Flattening:
    pure: FieldTower
    fwd: TowerHom
    back: TowerHom


def _binomial_root_base(tw: FieldTower, lvl: int) -> tuple[FieldElement, int] | None:
    """If step ``lvl`` has minpoly y^(p^k) - b, return (b, k); else None."""
    step = tw.steps[lvl]
    if not step.is_algebraic:
        return None
    p = tw.char
    d = step.degree
    k = 0
    m = d
    while m % p == 0:
        m //= p
        k += 1
    if m != 1 or k == 0:
        return None
    sub = tw.prefix(lvl)
    coeffs = [FieldElement(sub, r) for r in step.minpoly]
    if any(not c.is_zero for c in coeffs[1:-1]):
        return None
    return -coeffs[0], k


@functools.lru_cache(maxsize=None)
def _flattening(tw: FieldTower) -> _Flattening | None:
    """An isomorphism with C(u_1..u_r), C the finite-field part, when the
    algebraic steps above the finite prefix are p-power-root chains of
    generators."""
    p = tw.char
    if p == 0:
        return None
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
        info = _binomial_root_base(tw, i)
        if info is None:
            return None
        base_elt, k = info
        base_name = None
        for j in range(prefix_len, i):
            if tw.prefix(i).gen(tw.steps[j].name) == base_elt:
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


def _finite_field_size(tw: FieldTower) -> int | None:
    if tw.char == 0:
        return None
    deg = tw.extension_degree()
    return None if deg is None else tw.char**deg


def _pth_root_pure(elem: FieldElement, prefix_len: int) -> FieldElement | None:
    """p-th root in a tower that is purely transcendental above a finite
    prefix; None when the element is not a p-th power."""
    tw = elem.tower
    p = tw.char

    def rec(lvl: int, r):
        if lvl <= prefix_len:
            q = p ** _prefix_degree(tw, lvl)
            return _power(r, q // p, tw.rings[lvl].mul, tw.rings[lvl].one)
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


def _prefix_degree(tw: FieldTower, lvl: int) -> int:
    deg = 1
    for s in tw.steps[:lvl]:
        deg *= s.degree
    return deg


def pth_root(elem: FieldElement) -> FieldElement | None:
    """The unique p-th root of ``elem`` in its tower, or None if there is none.

    Supported towers: finite fields (any algebraic steps over F_p) and
    towers whose algebraic steps above the finite-field part adjoin p-power
    roots of earlier generators.  Other shapes raise CapabilityError.
    """
    tw = elem.tower
    p = tw.char
    if p == 0:
        raise DomainError("p-th roots require positive characteristic")
    q = _finite_field_size(tw)
    if q is not None:
        root = elem ** (q // p)
        _check_pth_root(root, elem)
        return root
    fl = _flattening(tw)
    if fl is None:
        raise CapabilityError(
            "p-th roots are only supported over finite fields and root-chain towers"
        )
    z = fl.fwd.apply(elem)
    prefix_len = sum(1 for s in fl.pure.steps if s.is_algebraic)
    r = _pth_root_pure(z, prefix_len)
    if r is None:
        return None
    root = fl.back.apply(r)
    _check_pth_root(root, elem)
    return root


def _check_pth_root(root: FieldElement, elem: FieldElement) -> None:
    if root ** elem.tower.char != elem:
        raise DomainError(f"computed p-th root {root} of {elem} does not check")


def perfect_closure_truncated(tower: FieldTower, p: int, n_trunc: int) -> FieldTower:
    """Adjoin p^N-th roots of every tower generator (chains of p-th roots).

    Idempotent for generators whose roots already exist; the result contains
    the original tower as a prefix.
    """
    if tower.char == 0 or tower.char != p:
        raise DomainError(f"perfect closure needs characteristic {p}, tower has {tower.char}")
    if n_trunc < 0:
        raise DomainError("truncation exponent must be nonnegative")
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
    """Whether every generator of ``sup`` has a p-power inside the marked
    prefix subtower ``sub`` (exponent bounded by the configured budget)."""
    if not sub.is_prefix_of(sup):
        raise StructuralError("sub must be a prefix subtower of sup")
    proper_gens = sup.steps[sub.level :]
    if sup.char == 0 or p == 1:
        return len(proper_gens) == 0
    if sup.char != p:
        raise DomainError(f"radiciality with p={p} needs characteristic {p}")
    for step in proper_gens:
        z = sup.gen(step.name)
        for _ in range(config.RADICIAL_EXPONENT_BUDGET + 1):
            if z.restrict(sub.level) is not None:
                break
            z = z**p
        else:
            return False
    return True


def is_separable_step(f) -> bool:
    """gcd(f, f') = 1 for a univariate polynomial over a tower field."""
    from . import poly

    g = poly.gcd(f, f.derivative())
    return g.degree() == 0


def tower_separable_over(sup: FieldTower, prefix_len: int) -> bool:
    """All algebraic steps above the prefix are separable (cached flags)."""
    return all(s.separable for s in sup.steps[prefix_len:] if s.is_algebraic)
