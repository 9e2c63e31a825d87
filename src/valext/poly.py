"""Univariate polynomial arithmetic and factorization.

A polynomial in one variable y over a tower field holds the dense list of
its coefficient reps over the tower's ring.  Its gcd, squarefree
decomposition and factorization are the computational engine behind minimal
prime decomposition of tensor products; everything is exact and the
factorizer raises CapabilityError instead of ever returning an unverified
answer.

Supported factorization domains:

* finite fields (any tower of algebraic steps over F_p): distinct-degree
  plus seeded equal-degree splitting;
* Q: reduction mod a good prime, Hensel lifting, subset recombination, in
  which a subset is divided out only when the constant term of its product
  divides that of the cofactor left, by exact long division in Z[y];
* algebraic extensions: norm-map reduction to the subfield (Trager), the
  norm taken as a fraction-free (Bareiss) determinant over sub[y], the last
  factor taken as what the others leave;
* purely transcendental extensions: descent to the coefficient subfield;
* p-power binomials y^(p^e) - c in characteristic p: exact p-th roots.

In characteristic 0 ``factor`` decides squarefreeness by a prime where it
can: a squarefree certificate (``_certify``) looks for a good prime of f
over Q, and of the exact norm of f to Q over Q(theta), in the whole prime
pool.  When it holds, f is its own squarefree part and Yun's exact gcd(f,
f') (``squarefree_decomposition``) is skipped; the norm route certifies each
shifted norm the same way and falls back to the exact gcd.  The search is
memoized (``_good_prime``), so the certificate, the norm route and the
factorization over Q search once for each integer polynomial of an
operation.
``factor`` checks that the unit times the product of its factors is its
input before it returns.

The dense univariate arithmetic behind all of them and behind ``Polynomial``
itself (add, mul, divmod, gcd, xgcd, powmod, derivative) is the one core of
``fields``, run on coefficient reps over the tower's ring
(``FieldTower.ring``), over Z/mZ or over Q.  Over Q and number fields
``gcd`` runs the subresultant remainder sequence on integral coefficients
(``fields._u_gcd_subresultant``), elsewhere Euclid.  Linear Hensel lifting
(``hensel_lift``) lifts all mod-p factors to Z/p^k together, one p-adic
digit per step, for factoring over Q, to the precision that Mignotte's
bound asks of a factor.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import config
from .errors import CapabilityError, DomainError, SelfCheckError, StructuralError
from .fields import (
    FieldElement,
    FieldTower,
    IntegersMod,
    PrimeField,
    _is_prime,
    _join_terms,
    _key,
    _p_power_binomial,
    _power,
    _u_add,
    _u_deriv,
    _u_divmod,
    _u_gcd,
    _u_gcd_subresultant,
    _u_monic,
    _u_modulus,
    _u_mul,
    _u_mul_ints,
    _u_neg,
    _u_powmod,
    _u_reduce,
    _u_rem,
    _u_scale,
    _u_squarefree,
    _u_trim,
    _u_xgcd,
    pth_root,
)


class Polynomial:
    """A univariate polynomial over a tower field: the name of its variable
    and the trimmed list of its coefficient reps over ``tower.ring``,
    constant term first.  The constructor keeps the list it is given and
    trims it in place."""

    __slots__ = ("tower", "var", "reps")

    def __init__(self, tower: FieldTower, var: str, reps: list):
        self.tower = tower
        self.var = var
        self.reps = _u_trim(tower.ring, reps)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_coeffs(tower: FieldTower, var: str, coeffs: Sequence) -> "Polynomial":
        """The polynomial with the given coefficients, constant term first."""
        return Polynomial(tower, var, [tower.coerce(c).rep for c in coeffs])

    def _like(self, reps: list) -> "Polynomial":
        return Polynomial(self.tower, self.var, reps)

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.reps

    def degree(self) -> int:
        """The degree; -1 for the zero polynomial."""
        return len(self.reps) - 1

    def coeff(self, i: int) -> FieldElement:
        rep = self.reps[i] if i < len(self.reps) else self.tower.ring.zero
        return FieldElement(self.tower, rep)

    def univariate_coeffs(self) -> list[FieldElement]:
        return [FieldElement(self.tower, r) for r in self.reps]

    def leading_coeff(self) -> FieldElement:
        return self.coeff(max(self.degree(), 0))

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.tower != other.tower or self.var != other.var:
            raise StructuralError("polynomials over different rings")

    # -- arithmetic ----------------------------------------------------------

    def _other(self, other) -> list:
        """The reps of a compatible polynomial, or of a constant."""
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return other.reps
        return _u_trim(self.tower.ring, [self.tower.coerce(other).rep])

    def __add__(self, other):
        return self._like(_u_add(self.tower.ring, self.reps, self._other(other)))

    __radd__ = __add__

    def __neg__(self):
        return self._like(_u_neg(self.tower.ring, self.reps))

    def __sub__(self, other):
        R = self.tower.ring
        return self._like(_u_add(R, self.reps, _u_neg(R, self._other(other))))

    def __rsub__(self, other):
        R = self.tower.ring
        return self._like(_u_add(R, _u_neg(R, self.reps), self._other(other)))

    def __mul__(self, other):
        return self._like(_u_mul(self.tower.ring, self.reps, self._other(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        R = self.tower.ring
        return self._like(_power(self.reps, n, functools.partial(_u_mul, R), [R.one]))

    def scale(self, c) -> "Polynomial":
        return self._like(_u_scale(self.tower.ring, self.reps, self.tower.coerce(c).rep))

    def monic(self) -> "Polynomial":
        return self._like(_u_monic(self.tower.ring, self.reps))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.tower == other.tower and self.var == other.var and self.reps == other.reps

    def __hash__(self):
        R = self.tower.ring
        support = tuple((i,) for i, r in enumerate(self.reps) if not R.is_zero(r))
        return hash((self.tower, (self.var,), support))

    def divmod(self, other) -> tuple["Polynomial", "Polynomial"]:
        q, r = _u_divmod(self.tower.ring, self.reps, self._other(other))
        return self._like(q), self._like(r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return self._like(_u_deriv(self.tower.ring, self.reps))

    def compose(self, g: "Polynomial") -> "Polynomial":
        """f(g), by Horner's rule."""
        self._check_compatible(g)
        R = self.tower.ring
        out: list = []
        for c in reversed(self.reps):
            out = _u_add(R, _u_mul(R, out, g.reps), [c])
        return self._like(out)

    def map_coeffs(self, fn, tower: FieldTower) -> "Polynomial":
        """The polynomial over ``tower`` with coefficients fn(c)."""
        return Polynomial(tower, self.var, [fn(c).rep for c in self.univariate_coeffs()])

    # -- ordering and text ---------------------------------------------------

    def _support(self):
        """(i, rep) for the nonzero coefficients, highest degree first."""
        R = self.tower.ring
        for i in range(len(self.reps) - 1, -1, -1):
            if not R.is_zero(self.reps[i]):
                yield i, self.reps[i]

    def sort_key(self):
        # the key of each coefficient is ``fields._key`` of its rep
        tw = self.tower
        return (self.degree(), tuple(((i,), _key(tw, tw.level, r)) for i, r in self._support()))

    def __str__(self):
        pieces = []
        for i, r in self._support():
            mono = "" if i == 0 else self.var if i == 1 else f"{self.var}^{i}"
            cs = str(FieldElement(self.tower, r))
            if mono:
                if cs == "1":
                    piece = mono
                elif cs == "-1" and self.tower.char == 0:
                    piece = f"-{mono}"
                else:
                    if any(op in cs for op in (" + ", " - ", "/")) or (
                        cs.startswith("-") and cs != "-1"
                    ):
                        cs = f"({cs})"
                    piece = f"{cs}*{mono}"
            else:
                piece = cs
            pieces.append(piece)
        return _join_terms(pieces)

    def __repr__(self):
        return f"<poly {self}>"

    # -- parsing -------------------------------------------------------------

    @staticmethod
    def parse(text: str, tower: FieldTower, vars: Sequence[str]) -> "Polynomial":
        """The polynomial ``text`` over ``tower`` in the one variable that
        ``vars`` names."""
        vars = tuple(vars)
        if len(vars) != 1:
            raise StructuralError(f"a polynomial has exactly one variable, got {vars}")
        try:
            return _parse_polynomial(text, tower, vars[0])
        except RecursionError:
            # the parser descends once per parenthesis and per unary minus
            raise StructuralError("polynomial nests too deeply") from None


# ---------------------------------------------------------------------------
# Parser


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("num", int(text[i:j])))
            except ValueError:
                # isdigit also accepts digits int refuses, such as "²", and
                # int refuses runs longer than the interpreter's digit limit
                shown = text[i:j][:20]
                raise StructuralError(f"unreadable number {shown!r} in polynomial") from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise StructuralError(f"unexpected character {ch!r} in polynomial")
    return tokens


def _parse_polynomial(text: str, tower: FieldTower, var: str) -> Polynomial:
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise StructuralError("unexpected end of polynomial")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise StructuralError(f"expected {kind}, got {tok[1]!r}")
        pos += 1
        return tok

    def parse_expr() -> Polynomial:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Polynomial:
        node = parse_unary()
        while peek() == "*":
            take()
            node = node * parse_unary()
        return node

    def parse_unary() -> Polynomial:
        if peek() == "-":
            take()
            return -parse_unary()
        return parse_power()

    def parse_power() -> Polynomial:
        base = parse_atom()
        if peek() == "^":
            take()
            kind, value = take("num")
            # bound the degree and the exponent before expanding: the
            # factorizer refuses a larger degree anyway, and the expansion
            # itself can be huge, also of a base of degree 0 such as (a+1)
            bound = config.FACTOR_DEGREE_BOUND
            if base.degree() * value > bound:
                raise CapabilityError(
                    f"degree {base.degree() * value} exceeds the factorization bound {bound}"
                )
            if value > bound:
                raise CapabilityError(f"exponent {value} exceeds the factorization bound {bound}")
            return base**value
        return base

    def parse_atom() -> Polynomial:
        kind = peek()
        if kind == "num":
            _, n = take()
            if peek() == "/":
                take()
                _, d = take("num")
                if d == 0:
                    raise StructuralError(f"zero denominator in {n}/{d}")
                return Polynomial.from_coeffs(tower, var, [Fraction(n, d)])
            return Polynomial.from_coeffs(tower, var, [n])
        if kind == "name":
            _, name = take()
            if name == var:
                return Polynomial(tower, var, [tower.ring.zero, tower.ring.one])
            if name in tower.gen_names:
                return Polynomial.from_coeffs(tower, var, [tower.gen(name)])
            raise StructuralError(f"unknown symbol {name!r}")
        if kind == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        raise StructuralError("malformed polynomial")

    node = parse_expr()
    if pos != len(tokens):
        raise StructuralError(f"trailing input after polynomial: {tokens[pos][1]!r}")
    return node


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd; gcd(f, 0) is the monic normalization of f.  Over Q and
    number fields by the subresultant PRS (``fields._u_gcd_subresultant``),
    elsewhere by Euclid (``fields._u_gcd``)."""
    f._check_compatible(g)
    if f.is_zero and g.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    tower = f.tower
    if tower.char == 0 and tower.extension_degree() is not None:
        return f._like(_u_gcd_subresultant(tower.ring, f.reps, g.reps))
    return f._like(_u_gcd(tower.ring, f.reps, g.reps))


def resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """The resultant via the Euclidean product formula."""
    g._check_compatible(f)
    tower = f.tower
    R = tower.ring
    a, b = f.reps, g.reps
    if not a or not b:
        return tower.zero()
    res = R.one
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return FieldElement(tower, R.mul(res, _power(b[0], da, R.mul, R.one)))
        r = _u_rem(R, a, b)
        if not r:
            return tower.zero()
        dr = len(r) - 1
        if (da * db) % 2 == 1:
            res = R.neg(res)
        res = R.mul(res, _power(b[-1], da - dr, R.mul, R.one))
        a, b = b, r


# ---------------------------------------------------------------------------
# Squarefree decomposition


def _desubstitute(f: Polynomial, p: int) -> Polynomial:
    """g with g(y^p) = f; requires every exponent divisible by p."""
    R = f.tower.ring
    if any(i % p and not R.is_zero(r) for i, r in enumerate(f.reps)):
        raise StructuralError("exponents not all divisible by p")
    return f._like(f.reps[::p])


def _substitute_power(f: Polynomial, p: int) -> Polynomial:
    """f(y^p)."""
    out = [f.tower.ring.zero] * (p * f.degree() + 1)
    out[::p] = f.reps
    return f._like(out)


def _root_coeff_poly(f: Polynomial) -> Polynomial | None:
    """Coefficient-wise p-th root, or None if some coefficient has none."""
    roots = []
    for c in f.univariate_coeffs():
        r = c if c.is_zero else pth_root(c)
        if r is None:
            return None
        roots.append(r.rep)
    return f._like(roots)


def squarefree_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """The squarefree decomposition of f by Yun's algorithm: pairs (g, m) of
    a monic part g of positive degree and its multiplicity m.

    The parts are squarefree and pairwise coprime, and the product of the
    g^m is f made monic.  Exact over every supported tower, including
    non-perfect coefficient fields, where a vanishing derivative does not
    imply a repeated factor.  There a part h(y^p) goes through the p-content
    route, which splits h by factoring it when its coefficients have no p-th
    roots, and the pieces are not merged: a multiplicity may repeat, as in
    y^3 + a*y -> [(y, 1), (y^2 + a, 1)] over F_2(a).  When f' is nonzero the
    parts are sorted by ``Polynomial.sort_key`` (degree first); when f' is
    zero they come in the p-content route's order, which is fixed but not
    sorted.
    """
    if f.is_zero:
        raise DomainError("squarefree decomposition of 0")
    f = f.monic()
    if f.degree() == 0:
        return []
    p = f.tower.char
    deriv = f.derivative()
    if p > 0 and deriv.is_zero:
        return _squarefree_p_content(f, p)
    out: list[tuple[Polynomial, int]] = []
    c = gcd(f, deriv)
    w = (f // c).monic()
    i = 1
    while w.degree() > 0:
        y = gcd(w, c)
        z = (w // y).monic()
        if z.degree() > 0:
            out.append((z, i))
        w = y
        c = (c // y).monic()
        i += 1
    if c.degree() > 0:
        if p == 0:
            raise SelfCheckError("unexpected leftover in characteristic zero")
        out.extend(_squarefree_p_content(c, p))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def _certify(f: Polynomial) -> bool:
    """True when a cheap test proves the monic f squarefree; False proves
    nothing.

    Over Q the test is modular: f has a good prime in the pool
    (``_good_prime``).  In characteristic 0, an f with coefficients in the
    subfield below the top step is certified there.  Over Q(theta)
    otherwise, the exact norm N(f) to Q is certified the same way, since a
    square factor of f gives one of N(f).  The norm route factors that same
    norm at shift 0, and its certificate and its factorization find the
    prime in ``_good_prime``'s memo.  Above two or more algebraic steps
    nothing is certified.
    """
    tower = f.tower
    if tower.char != 0:
        return False
    if tower.level == 0:
        return _good_prime(tuple(_primitive_ints(f.reps))) is not None
    restricted = _restrict_poly(f, tower.level - 1)
    if restricted is not None:
        return _certify(restricted)
    if tower.level > 1 or tower.extension_degree() is None:
        return False
    sub = tower.prefix(0)
    return _certify(Polynomial(sub, f.var, _norm(f, sub)))


def _squarefree_p_content(f: Polynomial, p: int) -> list[tuple[Polynomial, int]]:
    """Decompose f = g(y^p); f monic with vanishing derivative."""
    g = _desubstitute(f, p)
    out: list[tuple[Polynomial, int]] = []
    for h, m in squarefree_decomposition(g):
        hh = _root_coeff_poly(h)
        if hh is not None:
            # h(y^p) = hh(y)^p, and hh is squarefree: the coefficient-wise
            # p-th power is a ring map taking hh to h, so a square factor of
            # hh would give one of h
            out.append((hh, p * m))
            continue
        # h is squarefree but may mix coefficient-root-extractable irreducible
        # factors with others; resolve by full factorization.
        rng = random.Random(config.DEFAULT_SEED)
        for q in _factor_squarefree(h, rng):
            qq = _root_coeff_poly(q)
            if qq is not None:
                out.append((qq, p * m))
            else:
                out.append((_substitute_power(q, p), m))
    return out


def squarefree_part(f: Polynomial) -> tuple[Polynomial, list[tuple[Polynomial, int]]]:
    """The product of the distinct irreducible factors, plus the full report."""
    decomp = squarefree_decomposition(f)
    part = f._like([f.tower.ring.one])
    for g, _ in decomp:
        part = part * g
    return part, decomp


# ---------------------------------------------------------------------------
# Factorization


@dataclass
class Factorization:
    unit: FieldElement
    factors: list[tuple[Polynomial, int]]

    def expand(self) -> Polynomial:
        first = self.factors[0][0] if self.factors else None
        if first is None:
            raise DomainError("empty factorization has no carrier ring")
        out = first._like([self.unit.rep])
        for g, m in self.factors:
            out = out * g**m
        return out

    def __str__(self):
        pieces = [f"({g})^{m}" if m > 1 else f"({g})" for g, m in self.factors]
        head = "" if self.unit == 1 else f"{self.unit} * "
        return head + " * ".join(pieces)


def factor(f: Polynomial) -> Factorization:
    """Factor a polynomial into monic irreducibles.

    Output is deterministic: factors are sorted by a canonical key.  The
    equal-degree splitting draws from ``config.DEFAULT_SEED``; another seed
    could change only how long the splitting takes, never the factors.  A
    p-power binomial is decided first, by p-th roots alone
    (``_binomial_factors``), before any squarefree step.
    """
    if f.is_zero:
        raise DomainError("factorization of 0")
    if f.degree() > config.FACTOR_DEGREE_BOUND:
        raise CapabilityError(
            f"degree {f.degree()} exceeds the factorization bound {config.FACTOR_DEGREE_BOUND}"
        )
    unit = f.leading_coeff()
    if f.degree() == 0:
        return Factorization(unit, [])
    monic = f.monic()
    out = _binomial_factors(monic)
    if out is None:
        rng = random.Random(config.DEFAULT_SEED)
        out = []
        for part, mult in [(monic, 1)] if _certify(monic) else squarefree_decomposition(monic):
            for irr in _factor_squarefree(part, rng):
                out.append((irr, mult))
        out.sort(key=lambda fm: fm[0].sort_key())
    fac = Factorization(unit, out)
    # the shortcuts of the factor path are checked here, on every answer
    if fac.expand() != f:
        raise SelfCheckError("factorization does not multiply back to its input")
    return fac


def _factor_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Monic squarefree polynomial into monic irreducibles."""
    tower = f.tower
    if f.degree() == 1:
        return [f]
    # p-power binomials first: they are decided by root extraction wherever
    # p-th roots are available, independently of the tower shape.
    binomial = _binomial_factors(f)
    if binomial is not None:
        if binomial[0][1] > 1:
            raise SelfCheckError("squarefree p-power binomial cannot have a rootable base")
        return [f]
    if tower.char > 0 and tower.extension_degree() is not None:
        return _factor_finite(f, rng)
    if tower.char == 0 and tower.extension_degree() is not None:
        if tower.level == 0:
            return _factor_rationals(f, rng)
        return _factor_norm_reduction(f, rng)
    top = tower.steps[-1]
    if not top.is_algebraic:
        restricted = _restrict_poly(f, tower.level - 1)
        if restricted is not None:
            lifted = []
            for g in _factor_squarefree(restricted, rng):
                lifted.append(g.map_coeffs(tower.embed, tower))
            return lifted
        raise CapabilityError(
            "factorization over a transcendental extension needs coefficients "
            "from the subfield below it"
        )
    if top.separable:
        return _factor_norm_reduction(f, rng)
    raise CapabilityError(
        "factorization over an inseparable non-binomial extension is not supported"
    )


def _binomial_factors(f: Polynomial) -> list[tuple[Polynomial, int]] | None:
    """The factorization of a monic p-power binomial y^(p^k) - c in
    characteristic p, None for any other f.  With r = c^(1/p^j), j <= k as
    large as p-th roots of c allow, it is (y^(p^(k-j)) - r)^(p^j):
    y^(p^m) - r is irreducible when r is not a p-th power."""
    p, R = f.tower.char, f.tower.ring
    k = _p_power_binomial(R, f.reps, p) if p else None
    if k is None:
        return None
    r, j = -f.coeff(0), 0
    while j < k:
        root = r if r.is_zero else pth_root(r)
        if root is None:
            break
        r, j = root, j + 1
    return [(f._like([R.neg(r.rep)] + [R.zero] * (p ** (k - j) - 1) + [R.one]), p**j)]


def _restrict_poly(f: Polynomial, prefix_len: int) -> Polynomial | None:
    out = []
    for c in f.univariate_coeffs():
        rc = c.restrict(prefix_len)
        if rc is None:
            return None
        out.append(rc.rep)
    return Polynomial(f.tower.prefix(prefix_len), f.var, out)


# -- finite fields -----------------------------------------------------------


def _factor_finite(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    tower = f.tower
    R = tower.ring
    q = tower.char ** tower.extension_degree()
    blocks: list[tuple[list, int]] = []
    v = f.reps
    h = [R.zero, R.one]  # the polynomial y
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            blocks.append((v, len(v) - 1))
            break
        h = _u_powmod(R, h, q, v)
        g = _u_gcd(R, _u_add(R, h, [R.zero, R.neg(R.one)]), v)
        if len(g) > 1:
            blocks.append((g, d))
            v = _u_divmod(R, v, g)[0]
            h = _u_rem(R, h, v)
    out = []
    for block, d in blocks:
        out.extend(_equal_degree_split(tower, block, d, q, rng))
    return [f._like(cs) for cs in out]


def _equal_degree_split(tower, block: list, d: int, q: int, rng: random.Random) -> list[list]:
    R = tower.ring
    out = []
    stack = [block]
    while stack:
        u = stack.pop()
        if len(u) - 1 == d:
            out.append(_u_monic(R, u))
            continue
        g = None
        while g is None:
            r = [_random_field_element(tower, rng).rep for _ in range(len(u) - 1)]
            r = _u_trim(R, r)
            if q % 2 == 1:
                w = _u_powmod(R, r, (q**d - 1) // 2, u)
                w = _u_add(R, w, [R.neg(R.one)])
            else:
                k = q.bit_length() - 1
                w = list(r)
                acc = list(r)
                for _ in range(k * d - 1):
                    acc = _u_powmod(R, acc, 2, u)
                    w = _u_add(R, w, acc)
            cand = _u_gcd(R, w, u)
            if 0 < len(cand) - 1 < len(u) - 1:
                g = cand
        stack.append(g)
        stack.append(_u_monic(R, _u_divmod(R, u, g)[0]))
    return out


def _random_field_element(tower: FieldTower, rng: random.Random) -> FieldElement:
    p = tower.char
    out = tower.zero()
    basis = [tower.one()]
    for s in tower.steps:
        basis = [b * tower.gen(s.name) ** i for b in list(basis) for i in range(s.degree)]
    for b in basis:
        out = out + b * tower.from_int(rng.randrange(p))
    return out


# -- rationals ---------------------------------------------------------------

_PRIME_POOL = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def _factor_rationals(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Monic squarefree polynomial over Q: mod-p factorization at a good
    prime, Hensel lifting and subset recombination.

    The prime is the first good one of the pool (``_good_prime``), else the
    first good one above it.  Only primes dividing lc * disc fail a
    squarefree f, and |lc * disc| <= |lc| * n^n * |f|_2^(2n-2) < 2^b by
    Mahler's bound (K. Mahler, "An inequality for the discriminant of a
    polynomial", Michigan Math. J. 11, 1964); each prime above the pool
    exceeds 2^6, so at most b // 6 of them fail, and one of the first
    b // 6 + 1 is good.

    The lift runs to the least p^k > 2 * C(n-1, (n-1)//2) * (isqrt(|f|_2^2)
    + 1) * |lc f| for f = ints of degree n, by Mignotte's bound (M. Mignotte,
    "An inequality about factors of polynomials", Math. Comp. 28, 1974).  A
    factor g of f in Z[y] of degree d <= n - 1 has |g_i| <= C(d, i) * M(g)
    <= C(d, i) * M(f) <= C(d, i) * |f|_2, M the Mahler measure, and every
    candidate ``_recombine`` forms is lc(current)/lc(g) * g, with |lc(current)|
    <= |lc f|.  So each coefficient of a true candidate lies below p^k/2 in
    absolute value and is read off its symmetric residue exactly.
    """
    ints = tuple(_primitive_ints(f.reps))
    n = len(ints) - 1
    lead = ints[-1]
    prime = _good_prime(ints)
    if prime is None:
        bits = (abs(lead) * n**n * sum(c * c for c in ints) ** (n - 1)).bit_length()
        above = (p for p in itertools.count(_PRIME_POOL[-1] + 2, 2) if _is_prime(p))
        good = (p for p in itertools.islice(above, bits // 6 + 1) if _is_good_prime(ints, p))
        prime = next(good, None)
        if prime is None:
            raise SelfCheckError("no good prime for a squarefree polynomial within Mahler's bound")
    modular = _factor_mod_p(ints, prime, rng)
    if len(modular) == 1:
        return [f.monic()]
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    bound = math.comb(n - 1, (n - 1) // 2) * norm2 * abs(lead)
    k = 1
    while prime**k <= 2 * bound:
        k += 1
    m = prime**k
    inv_lead = pow(lead, -1, m)
    lifted = hensel_lift(prime, k, [c * inv_lead % m for c in ints], modular)
    factors_z = _recombine(ints, lifted, m)
    return [f._like(cz).monic() for cz in factors_z]


def _primitive_ints(reps: list) -> list[int]:
    """The primitive integer multiple, with a positive leading coefficient,
    of a nonzero polynomial over Q."""
    denom = math.lcm(*(c.denominator for c in reps))
    ints = [c.numerator * (denom // c.denominator) for c in reps]
    content = math.gcd(*ints)
    return [c // content for c in ints] if ints[-1] > 0 else [-c // content for c in ints]


@functools.lru_cache(maxsize=64)
def _good_prime(ints: tuple[int, ...]) -> int | None:
    """The first good prime (``_is_good_prime``) of ints in the pool, or
    None.  It proves ints squarefree over Q; an input with a square factor
    has no good prime at all, so the certificate searches the pool alone.
    The search is memoized: the certificate of f or of its norm, the norm
    route's check of that norm and its factorization search once for each
    integer polynomial while it stays among the 64 most recent."""
    return next((p for p in _PRIME_POOL if _is_good_prime(ints, p)), None)


def _is_good_prime(ints: Sequence[int], p: int) -> bool:
    """Whether p divides neither the leading coefficient nor the
    discriminant of ints: a square factor would stay one mod p."""
    # p does not divide the leading coefficient: nothing to trim
    return ints[-1] % p != 0 and _u_squarefree(PrimeField(p), [c % p for c in ints])


def _factor_mod_p(ints: Sequence[int], p: int, rng: random.Random) -> list[list[int]]:
    f = Polynomial(FieldTower.prime_field(p), "y", [c % p for c in ints]).monic()
    parts = _factor_finite(f, rng)
    parts.sort(key=lambda g: g.sort_key())
    return [g.reps for g in parts]


# -- Hensel lifting to Z/p^k ----------------------------------------------------


def hensel_lift(p: int, k: int, f: list[int], parts: list[list[int]]) -> list[list[int]]:
    """Lift a factorization of a monic f from F_p to Z/p^k.

    ``f`` holds ints in [0, p^k); ``parts`` are pairwise coprime monic
    polynomials f_j over F_p whose product F is f mod p.  The result holds,
    in the order of ``parts``, monic factors g_j of f mod p^k, each congruent
    to its part mod p; they are unique.

    All factors are lifted together, one p-adic digit per step (the
    multifactor linear lift).  With s_j = (F/f_j)^-1 mod f_j, taken once over
    F_p, and e digit i of f - prod g_j, adding p^i*(s_j*e mod f_j) to every
    g_j makes the product agree with f mod p^(i+1): the sum h of
    (s_j*e mod f_j)*F/f_j is e mod p, since h - e is divisible by every f_j,
    so by F, and has degree below that of F.  The lifts hold ints in
    [0, p^i), so digit i is read off their exact int product
    (``fields._u_mul_ints``), which agrees with f mod p^i.  Each f_j is
    prepared once per lift (``fields._u_modulus``), and each s_j*e goes
    unreduced into ``fields._u_reduce``, a multiply and reduce in one pass.
    """
    res = PrimeField(p)
    whole = functools.reduce(functools.partial(_u_mul, res), parts)
    inverses = []
    for part in parts:
        cofactor = _u_divmod(res, whole, part)[0]
        one, s, _ = _u_xgcd(res, _u_rem(res, cofactor, part), part)
        if len(one) != 1:
            raise SelfCheckError("factors to lift are not coprime")
        inverses.append(s)
    mods = [_u_modulus(res, part) for part in parts]
    lifts = [list(part) for part in parts]
    for i in range(1, k):
        pi = p**i
        prod = functools.reduce(_u_mul_ints, lifts)
        e = _u_trim(res, [(c - d) // pi % p for c, d in zip(f, prod)])
        for g, s, mod in zip(lifts, inverses, mods):
            # digits below p times p^i stay below p^(i+1): no reduction needed
            for j, c in enumerate(_u_reduce(p, _u_mul_ints(s, e), mod)):
                g[j] += c * pi
    return lifts


def _divide_exact(a: list[int], b: list[int]) -> list[int] | None:
    """The quotient a / b in Z[y] of integer polynomials, b nonzero and
    trimmed, or None when b does not divide a in Z[y]: the long division
    stops at the first leading coefficient that the leading coefficient of b
    does not divide, and a nonzero remainder refuses too."""
    r = list(a)
    n = len(b) - 1
    lead, low = b[-1], b[:-1]
    q = [0] * (len(r) - n)
    while len(r) > n:
        c, rest = divmod(r.pop(), lead)
        if rest:
            return None
        if c:
            k = len(r) - n
            q[k] = c
            for i, x in enumerate(low):
                r[k + i] -= c * x
    return None if any(r) else q


def _recombine(ints: Sequence[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    """Search subsets of lifted factors for true integer factors."""

    def sym(c: int) -> int:
        c %= modulus
        return c - modulus if c > modulus // 2 else c

    zm = IntegersMod(modulus)
    remaining = list(range(len(lifted)))
    current = list(ints)
    out: list[list[int]] = []
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for subset in itertools.combinations(remaining, size):
                prod = [current[-1] % modulus]
                for i in subset:
                    prod = _u_mul(zm, prod, lifted[i])
                cand = _primitive_ints([sym(c) for c in prod])
                # a factor's constant term divides that of current; 0 only 0
                if current[0] % cand[0] if cand[0] else current[0]:
                    continue
                q = _divide_exact(current, cand)
                if q is not None:
                    out.append(cand)
                    current = q
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if len(current) > 1:
        out.append(_primitive_ints(current))
    return out


# -- algebraic extensions (norm-map reduction) --------------------------------


def _shift_candidates(sub: FieldTower):
    """Distinct shifts n and g + n for the generators g of sub; in
    characteristic p the integers repeat, and a repeat is skipped."""
    tried = set()
    shifts = itertools.chain(
        (sub.from_int(n) for n in range(10)),
        (sub.gen(name) + sub.from_int(n) for name in sub.gen_names for n in range(5)),
    )
    for s in shifts:
        if s.rep not in tried:
            tried.add(s.rep)
            yield s


def _factor_norm_reduction(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Factor over sub(theta) by factoring a squarefree norm over sub."""
    tower = f.tower
    R = tower.ring
    sub = tower.prefix(tower.level - 1)
    theta = tower.gen(tower.steps[-1].name)
    degree = tower.steps[-1].degree
    # over sub the unshifted norm is f^d, never squarefree
    over_sub = _restrict_poly(f, sub.level) is not None
    tries = 0
    for s_elem in _shift_candidates(sub):
        if over_sub and s_elem.is_zero:
            continue
        tries += 1
        if tries > 24:
            break
        st = (tower.embed(s_elem) * theta).rep
        fs = f if s_elem.is_zero else f.compose(f._like([R.neg(st), R.one]))  # f(y - s*theta)
        norm = Polynomial(sub, f.var, _norm(fs, sub)).monic()
        # the exact gcd decides when no modular certificate does
        if not _certify(norm):
            d = norm.derivative()
            if d.is_zero or gcd(norm, d).degree() != 0:
                continue
        pieces = _factor_squarefree(norm, rng)
        if len(pieces) == 1:
            return [f.monic()]
        out = []
        rem = f.monic()
        for k, piece in enumerate(pieces):
            if k == len(pieces) - 1 and rem.degree() * degree == piece.degree():
                # the pieces before took the other factors: rem is the last
                g = rem
            else:
                lifted = piece.map_coeffs(tower.embed, tower)
                if not s_elem.is_zero:
                    lifted = lifted.compose(f._like([st, R.one]))  # N_j(y + s*theta)
                g = gcd(rem, lifted)
            if g.degree() > 0:
                out.append(g.monic())
                rem = (rem // g).monic()
        if rem.degree() != 0 or not out:
            raise SelfCheckError("norm-map factor extraction failed to exhaust the input")
        out.sort(key=lambda g: g.sort_key())
        return out
    raise CapabilityError("no squarefree norm found for the algebraic extension")


def _norm(fs: Polynomial, sub: FieldTower) -> list:
    """The norm of fs from sub(theta)[y] to sub[y], as coefficient reps.

    Write fs = sum_j b_j(y) theta^j with b_j in sub[y].  Row j of the d x d
    matrix holds the coordinates of theta^j * fs modulo the monic minimal
    polynomial m of theta, so its determinant is the product of fs over the
    conjugates of theta, that is Res_theta(m, fs).  The determinant is taken
    by fraction-free elimination, so no entry ever leaves sub[y].
    """
    return _bareiss_det(sub.ring, _norm_rows(fs.tower, fs.reps))


def _norm_rows(tower: FieldTower, reps: list) -> list[list[list]]:
    """The matrix of ``_norm`` for the polynomial with coefficient reps over
    tower, over the ring one level down."""
    R = tower.rings[-2]
    level = tower.ring
    d = level.d
    row: list[list] = [[] for _ in range(d)]
    for i, c in enumerate(reps):
        for j, r in enumerate(c):
            if not R.is_zero(r):
                b = row[j]
                b.extend([R.zero] * (i + 1 - len(b)))
                b[i] = r
    # theta^d = -(m_0 + ... + m_{d-1} theta^{d-1}): a shift, then top * -m_i
    # for each nonzero m_i (``AlgebraicLevel.low``)
    rows = [row]
    for _ in range(d - 1):
        top = row[-1]
        row = [[]] + row[:-1]
        if top:
            for i, m in level.low:
                row[i] = _u_add(R, row[i], _u_scale(R, top, m))
        rows.append(row)
    return rows


def _bareiss_det(R, M: list[list[list]]) -> list:
    """The determinant of a square matrix over R[y], R a field, by Bareiss
    elimination: every entry it computes is a minor of M, and so is the
    previous pivot it divides by, so each division is exact (Sylvester's
    identity).  M is overwritten."""
    n = len(M)
    negate = False
    prev = None
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    negate = not negate
                    break
            else:
                return []
        pivot = M[k][k]
        for i in range(k + 1, n):
            row, lead = M[i], M[i][k]
            for j in range(k + 1, n):
                num = _u_mul(R, row[j], pivot)
                if lead:
                    num = _u_add(R, num, _u_neg(R, _u_mul(R, lead, M[k][j])))
                if prev is not None:
                    num, r = _u_divmod(R, num, prev)
                    if r:
                        raise SelfCheckError("fraction-free elimination: inexact division")
                row[j] = num
        prev = pivot
    det = M[n - 1][n - 1]
    return _u_neg(R, det) if negate else det
