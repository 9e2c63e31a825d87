"""Sparse multivariate polynomial arithmetic and univariate factorization.

Polynomials are dicts from exponent tuples to nonzero FieldElement
coefficients over a tower field.  The univariate layer (gcd, squarefree
decomposition, factorization) is the computational engine behind minimal
prime decomposition of tensor products; everything is exact and the
factorizer raises CapabilityError instead of ever returning an unverified
answer.

Supported factorization domains:

* finite fields (any tower of algebraic steps over F_p): distinct-degree
  plus seeded equal-degree splitting;
* Q: reduction mod a good prime, Hensel lifting, subset recombination;
* algebraic extensions of Q: norm-map reduction to the subfield;
* purely transcendental extensions: descent to the coefficient subfield;
* p-power binomials y^(p^e) - c in characteristic p: exact p-th roots.

The dense univariate arithmetic behind all of them (divmod, gcd, xgcd,
powmod) is the one core of ``fields``, run on coefficient reps over the
tower's ring (``FieldTower.ring``), over Z/mZ or over Q.  Linear Hensel
lifting is written once (``hensel_lift``) over a ring mod pi^k; it lifts
mod-p factors to Z/p^k here (``_PadicIntegers``) and residual factors to
F[x]/(x^n) in ``valuations.hensel_factor_lift`` (``TruncatedSeries``).

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import config
from .errors import CapabilityError, DomainError, StructuralError
from .fields import (
    AlgebraicLevel,
    FieldElement,
    FieldTower,
    IntegersMod,
    PrimeField,
    RationalField,
    _power,
    _u_add,
    _u_divmod,
    _u_gcd,
    _u_monic,
    _u_mul,
    _u_neg,
    _u_powmod,
    _u_rem,
    _u_trim,
    _u_xgcd,
    pth_root,
)


class Polynomial:
    """A sparse polynomial over a tower field in named variables."""

    __slots__ = ("tower", "vars", "terms")

    def __init__(self, tower: FieldTower, vars: Sequence[str], terms: dict):
        self.tower = tower
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(tower: FieldTower, vars: Sequence[str]) -> "Polynomial":
        return Polynomial(tower, vars, {})

    @staticmethod
    def constant(tower: FieldTower, vars: Sequence[str], value) -> "Polynomial":
        value = tower.coerce(value)
        return Polynomial(tower, vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(tower: FieldTower, vars: Sequence[str], name: str) -> "Polynomial":
        vars = tuple(vars)
        if name not in vars:
            raise StructuralError(f"{name!r} is not among the declared variables")
        e = tuple(1 if v == name else 0 for v in vars)
        return Polynomial(tower, vars, {e: tower.one()})

    @staticmethod
    def from_coeffs(tower: FieldTower, var: str, coeffs: Sequence) -> "Polynomial":
        """Univariate polynomial from a coefficient list, constant term first."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = tower.coerce(c)
            if not c.is_zero:
                terms[(i,)] = c
        return Polynomial(tower, (var,), terms)

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_univariate(self) -> bool:
        return len(self.vars) == 1

    def _require_univariate(self, what: str) -> None:
        if not self.is_univariate():
            raise StructuralError(f"{what} requires a univariate polynomial")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeff(self, i: int) -> FieldElement:
        self._require_univariate("coefficient access")
        return self.terms.get((i,), self.tower.zero())

    def univariate_coeffs(self) -> list[FieldElement]:
        self._require_univariate("coefficient extraction")
        return [self.coeff(i) for i in range(self.degree() + 1)]

    def leading_coeff(self) -> FieldElement:
        self._require_univariate("leading coefficient")
        if self.is_zero:
            return self.tower.zero()
        return self.coeff(self.degree())

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.tower != other.tower or self.vars != other.vars:
            raise StructuralError("polynomials over different rings")

    # -- arithmetic ----------------------------------------------------------

    def _coerce_other(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return other
        return Polynomial.constant(self.tower, self.vars, other)

    def __add__(self, other):
        other = self._coerce_other(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return Polynomial(self.tower, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.tower, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        other = self._coerce_other(other)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        return Polynomial(self.tower, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        return _power(self, n, operator.mul, Polynomial.constant(self.tower, self.vars, 1))

    def scale(self, c) -> "Polynomial":
        c = self.tower.coerce(c)
        return Polynomial(self.tower, self.vars, {e: c * v for e, v in self.terms.items()})

    def monic(self) -> "Polynomial":
        self._require_univariate("monic normalization")
        if self.is_zero:
            return self
        return self.scale(self.leading_coeff().inv())

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.tower == other.tower and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.tower, self.vars, tuple(sorted(self.terms.keys()))))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._require_univariate("division")
        other = self._coerce_other(other)
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        q, r = _u_divmod(self.tower.ring, _reps(self), _reps(other))
        return _from_reps(self.tower, self.vars[0], q), _from_reps(self.tower, self.vars[0], r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self, var: str | None = None) -> "Polynomial":
        if var is None:
            self._require_univariate("derivative")
            var = self.vars[0]
        idx = self.vars.index(var)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            ne = e[:idx] + (k - 1,) + e[idx + 1 :]
            nc = c * self.tower.from_int(k)
            if nc.is_zero:
                continue
            out[ne] = out[ne] + nc if ne in out else nc
        return Polynomial(self.tower, self.vars, out)

    def substitute(self, var: str, value: "Polynomial") -> "Polynomial":
        """Replace one variable by a polynomial (Horner in that variable)."""
        idx = self.vars.index(var)
        by_power: dict[int, Polynomial] = {}
        for e, c in self.terms.items():
            k = e[idx]
            rest = e[:idx] + (0,) + e[idx + 1 :]
            piece = Polynomial(self.tower, self.vars, {rest: c})
            by_power[k] = by_power[k] + piece if k in by_power else piece
        out = Polynomial.zero(self.tower, self.vars)
        top = max(by_power) if by_power else 0
        for k in range(top, -1, -1):
            out = out * value
            if k in by_power:
                out = out + by_power[k]
        return out

    def evaluate(self, assignment: dict[str, FieldElement]) -> FieldElement:
        """Full evaluation; every variable must be assigned."""
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise StructuralError(f"unassigned variables {missing}")
        total = self.tower.zero()
        for e, c in self.terms.items():
            term = c
            for v, k in zip(self.vars, e):
                if k:
                    term = term * (self.tower.coerce(assignment[v]) ** k)
            total = total + term
        return total

    def map_coeffs(self, fn, tower: FieldTower) -> "Polynomial":
        out: dict = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not nc.is_zero:
                out[e] = nc
        return Polynomial(tower, self.vars, out)

    # -- ordering and text ---------------------------------------------------

    def sort_key(self):
        items = sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)
        return (
            self.degree(),
            tuple((e, c.sort_key()) for e, c in items),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms.keys(), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k > 0
            )
            cs = str(c)
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
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __repr__(self):
        return f"<poly {self}>"

    # -- parsing -------------------------------------------------------------

    @staticmethod
    def parse(text: str, tower: FieldTower, vars: Sequence[str]) -> "Polynomial":
        return _parse_polynomial(text, tower, tuple(vars))


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
            tokens.append(("num", int(text[i:j])))
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


def _parse_polynomial(text: str, tower: FieldTower, vars: tuple[str, ...]) -> Polynomial:
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
                return Polynomial.constant(tower, vars, Fraction(n, d))
            return Polynomial.constant(tower, vars, n)
        if kind == "name":
            _, name = take()
            if name in vars:
                return Polynomial.variable(tower, vars, name)
            if name in tower.gen_names:
                return Polynomial.constant(tower, vars, tower.gen(name))
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


# ---------------------------------------------------------------------------
# Dense univariate coefficient reps, for the core in ``fields``


def _reps(f: Polynomial) -> list:
    """The coefficient reps of a univariate f, constant term first."""
    return [c.rep for c in f.univariate_coeffs()]


def _from_reps(tower: FieldTower, var: str, reps) -> Polynomial:
    return Polynomial.from_coeffs(tower, var, [FieldElement(tower, r) for r in reps])


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic univariate gcd; gcd(f, 0) is the monic normalization of f."""
    f._require_univariate("gcd")
    g._require_univariate("gcd")
    f._check_compatible(g)
    if f.is_zero and g.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    return _from_reps(f.tower, f.vars[0], _u_gcd(f.tower.ring, _reps(f), _reps(g)))


def resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """Univariate resultant via the Euclidean product formula."""
    f._require_univariate("resultant")
    g._check_compatible(f)
    tower = f.tower
    R = tower.ring
    a, b = _reps(f), _reps(g)
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
    coeffs = f.univariate_coeffs()
    out = [f.tower.zero()] * ((len(coeffs) + p - 1) // p)
    for i, c in enumerate(coeffs):
        if c.is_zero:
            continue
        if i % p != 0:
            raise StructuralError("exponents not all divisible by p")
        out[i // p] = c
    return Polynomial.from_coeffs(f.tower, f.vars[0], out)


def _substitute_power(f: Polynomial, p: int) -> Polynomial:
    """f(y^p), for univariate f."""
    return Polynomial(f.tower, f.vars, {(i * p,): c for (i,), c in f.terms.items()})


def _root_coeff_poly(f: Polynomial) -> Polynomial | None:
    """Coefficient-wise p-th root, or None if some coefficient has none."""
    roots = []
    for c in f.univariate_coeffs():
        if c.is_zero:
            roots.append(c)
            continue
        r = pth_root(c)
        if r is None:
            return None
        roots.append(r)
    return Polynomial.from_coeffs(f.tower, f.vars[0], roots)


def squarefree_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Distinct monic irreducible-free parts with multiplicities.

    Exact over every supported tower, including non-perfect coefficient
    fields, where a vanishing derivative does not imply a repeated factor.
    """
    f._require_univariate("squarefree decomposition")
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
            raise DomainError("unexpected leftover in characteristic zero")
        out.extend(_squarefree_p_content(c, p))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def _squarefree_p_content(f: Polynomial, p: int) -> list[tuple[Polynomial, int]]:
    """Decompose f = g(y^p); f monic with vanishing derivative."""
    g = _desubstitute(f, p)
    out: list[tuple[Polynomial, int]] = []
    for h, m in squarefree_decomposition(g):
        hh = _root_coeff_poly(h)
        if hh is not None:
            # h(y^p) = hh(y)^p
            for h2, m2 in squarefree_decomposition(hh):
                out.append((h2, p * m * m2))
            continue
        if h.degree() == 1:
            # y^p - c with c not a p-th power: irreducible, hence squarefree
            out.append((_substitute_power(h, p), m))
            continue
        # h is squarefree but mixes coefficient-root-extractable irreducible
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
    part = Polynomial.constant(f.tower, f.vars, 1)
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
        out = Polynomial.constant(first.tower, first.vars, self.unit)
        for g, m in self.factors:
            out = out * g**m
        return out

    def __str__(self):
        pieces = [f"({g})^{m}" if m > 1 else f"({g})" for g, m in self.factors]
        head = "" if self.unit == 1 else f"{self.unit} * "
        return head + " * ".join(pieces)


def factor(f: Polynomial, seed: int | None = None) -> Factorization:
    """Factor a univariate polynomial into monic irreducibles.

    Output is deterministic: factors are sorted by a canonical key, and the
    equal-degree splitting randomness is drawn from the given seed.
    """
    f._require_univariate("factorization")
    if f.is_zero:
        raise DomainError("factorization of 0")
    if f.degree() > config.FACTOR_DEGREE_BOUND:
        raise CapabilityError(
            f"degree {f.degree()} exceeds the factorization bound {config.FACTOR_DEGREE_BOUND}"
        )
    unit = f.leading_coeff()
    if f.degree() == 0:
        return Factorization(unit, [])
    rng = random.Random(config.DEFAULT_SEED if seed is None else seed)
    out: list[tuple[Polynomial, int]] = []
    for part, mult in squarefree_decomposition(f.monic()):
        for irr in _factor_squarefree(part, rng):
            out.append((irr, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(unit, out)


def _factor_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Monic squarefree univariate polynomial into monic irreducibles."""
    tower = f.tower
    if f.degree() == 1:
        return [f]
    p = tower.char
    # p-power binomials first: they are decided by root extraction wherever
    # p-th roots are available, independently of the tower shape.
    if p > 0:
        binom = _binomial_exponent(f, p)
        if binom is not None:
            c = -f.coeff(0)
            if pth_root(c) is None:
                return [f]
            raise DomainError("squarefree p-power binomial cannot have a rootable base")
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


def _binomial_exponent(f: Polynomial, p: int) -> int | None:
    d = f.degree()
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    if d != 1 or e == 0:
        return None
    coeffs = f.univariate_coeffs()
    if any(not c.is_zero for c in coeffs[1:-1]):
        return None
    return e


def _restrict_poly(f: Polynomial, prefix_len: int) -> Polynomial | None:
    sub = f.tower.prefix(prefix_len)
    out = {}
    for e, c in f.terms.items():
        rc = c.restrict(prefix_len)
        if rc is None:
            return None
        out[e] = rc
    return Polynomial(sub, f.vars, out)


# -- finite fields -----------------------------------------------------------


def _factor_finite(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    tower = f.tower
    R = tower.ring
    q = tower.char ** tower.extension_degree()
    blocks: list[tuple[list, int]] = []
    v = _reps(f)
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
    return [_from_reps(tower, f.vars[0], cs) for cs in out]


def _equal_degree_split(tower, block: list, d: int, q: int, rng: random.Random) -> list[list]:
    R = tower.ring
    if len(block) - 1 == d:
        return [_u_monic(R, block)]
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
            if len(r) <= 0:
                continue
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
    """Monic squarefree polynomial over Q: mod-p factorization, Hensel
    lifting and subset recombination."""
    tower = f.tower
    var = f.vars[0]
    fractions = [Fraction(c.rep) for c in f.univariate_coeffs()]
    denom = math.lcm(*(fr.denominator for fr in fractions))
    ints = [int(fr * denom) for fr in fractions]
    content = math.gcd(*(abs(c) for c in ints if c != 0))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    n = len(ints) - 1
    if n == 1:
        return [f.monic()]
    lead = ints[-1]
    prime = None
    for p in _PRIME_POOL:
        if lead % p == 0:
            continue
        if _mod_p_squarefree(ints, p):
            prime = p
            break
    if prime is None:
        raise CapabilityError("no suitable prime found for rational factorization")
    modular = _factor_mod_p(ints, prime, rng)
    if len(modular) == 1:
        return [f.monic()]
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    bound = 2 ** (n + 1) * norm2 * abs(lead)
    k = 1
    while prime**k <= 2 * bound:
        k += 1
    ring = _PadicIntegers(prime, k)
    inv_lead = ring.inv(lead)
    lifted = hensel_lift(ring, [ring.mul(c, inv_lead) for c in ints], modular)
    factors_z = _recombine(ints, lifted, ring.m)
    out = []
    for cz in factors_z:
        poly = Polynomial.from_coeffs(tower, var, [Fraction(c) for c in cz])
        out.append(poly.monic())
    return out


def _mod_p_squarefree(ints: list[int], p: int) -> bool:
    tower = FieldTower.prime_field(p)
    f = Polynomial.from_coeffs(tower, "y", [tower.from_int(c) for c in ints])
    if f.degree() != len(ints) - 1:
        return False
    d = f.derivative()
    if d.is_zero:
        return False
    return gcd(f, d).degree() == 0


def _factor_mod_p(ints: list[int], p: int, rng: random.Random) -> list[list[int]]:
    tower = FieldTower.prime_field(p)
    f = Polynomial.from_coeffs(tower, "y", [tower.from_int(c) for c in ints]).monic()
    parts = _factor_finite(f, rng)
    parts.sort(key=lambda g: g.sort_key())
    return [[c.rep for c in g.univariate_coeffs()] for g in parts]


# -- Hensel lifting over a ring mod pi^k ---------------------------------------


def hensel_lift(ring, f: list, parts: list[list]) -> list[list]:
    """Lift a factorization of a monic f from the residue ring to ``ring``.

    ``ring`` is a ring mod pi^k: it has a ``residue`` ring, a ``precision``
    k, ``digit(a, i)``, the residue coefficient of pi^i in a, and
    ``shift(c, i)``, the element c*pi^i for a residue c.  ``parts`` are
    pairwise coprime monic polynomials over the residue ring whose product is
    f mod pi.  The result holds, in the order of ``parts``, monic factors of
    f mod pi^k, each congruent to its part mod pi; they are unique.
    """
    if len(parts) == 1:
        return [f]
    mul = functools.partial(_u_mul, ring.residue)
    half = len(parts) // 2
    g, h = _lift_pair(
        ring, f, functools.reduce(mul, parts[:half]), functools.reduce(mul, parts[half:])
    )
    return hensel_lift(ring, g, parts[:half]) + hensel_lift(ring, h, parts[half:])


def _lift_pair(ring, f: list, gbar: list, hbar: list) -> tuple[list, list]:
    """The linear lift, one pi-adic digit per step: with e the next digit of
    f - g*h, adding pi^i*(dg, dh) for dg = t*e mod gbar and dh = s*e + q*hbar
    (s*gbar + t*hbar = 1, t*e = q*gbar + dg) makes g*h agree with f there."""
    res = ring.residue
    one, s, t = _u_xgcd(res, gbar, hbar)
    if len(one) != 1:
        raise DomainError("factors to lift are not coprime")
    g = [ring.shift(c, 0) for c in gbar]
    h = [ring.shift(c, 0) for c in hbar]
    for i in range(1, ring.precision):
        diff = _u_add(ring, f, _u_neg(ring, _u_mul(ring, g, h)))
        e = _u_trim(res, [ring.digit(c, i) for c in diff])
        if not e:
            continue
        q, dg = _u_divmod(res, _u_mul(res, t, e), gbar)
        dh = _u_add(res, _u_mul(res, s, e), _u_mul(res, q, hbar))
        g = _u_add(ring, g, [ring.shift(c, i) for c in dg])
        h = _u_add(ring, h, [ring.shift(c, i) for c in dh])
    return g, h


class _PadicIntegers(IntegersMod):
    """Z/p^k as a ring mod pi^k with pi = p, over the residue field F_p."""

    def __init__(self, p: int, k: int):
        super().__init__(p**k)
        self.p = p
        self.precision = k
        self.residue = PrimeField(p)

    def digit(self, a: int, i: int) -> int:
        return a // self.p**i % self.p

    def shift(self, c: int, i: int) -> int:
        return c * self.p**i % self.m


class TruncatedSeries(AlgebraicLevel):
    """F[x]/(x^n) as a ring mod pi^n with pi = x, over the residue ring F:
    elements are trimmed tuples of F reps, x^0 first."""

    def __init__(self, residue, n: int):
        super().__init__(residue, (residue.zero,) * n + (residue.one,))
        self.residue = residue
        self.precision = n

    def mul(self, a, b):
        return tuple(_u_trim(self.k, _u_mul(self.k, a, b)[: self.precision]))

    def digit(self, a, i: int):
        return a[i] if i < len(a) else self.residue.zero

    def shift(self, c, i: int):
        return () if self.residue.is_zero(c) else (self.residue.zero,) * i + (c,)


def _recombine(ints: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    """Search subsets of lifted factors for true integer factors."""

    def sym(c: int) -> int:
        c %= modulus
        return c - modulus if c > modulus // 2 else c

    def primitive(cs: list[int]) -> list[int]:
        g = math.gcd(*(abs(c) for c in cs if c != 0))
        cs = [c // g for c in cs]
        if cs[-1] < 0:
            cs = [-c for c in cs]
        return cs

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
                cand = primitive([sym(c) for c in prod])
                q, r = _u_divmod(
                    RationalField(), [Fraction(c) for c in current], [Fraction(c) for c in cand]
                )
                if not r and all(c.denominator == 1 for c in q):
                    out.append(cand)
                    current = [int(c) for c in q]
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if len(current) > 1:
        out.append(primitive(current))
    return out


# -- algebraic extensions (norm-map reduction) --------------------------------


def _shift_candidates(sub: FieldTower):
    for n in range(10):
        yield sub.from_int(n)
    for name in sub.gen_names:
        g = sub.gen(name)
        for n in range(5):
            yield g + sub.from_int(n)


def _factor_norm_reduction(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Factor over sub(theta) by factoring a squarefree norm over sub."""
    tower = f.tower
    var = f.vars[0]
    sub = tower.prefix(tower.level - 1)
    top = tower.steps[-1]
    theta = tower.gen(top.name)
    theta_poly = Polynomial.constant(tower, (var,), theta)
    y = Polynomial.variable(tower, (var,), var)
    tries = 0
    for s_elem in _shift_candidates(sub):
        tries += 1
        if tries > 24:
            break
        s = tower.embed(s_elem)
        fs = f.substitute(var, y - theta_poly.scale(s))
        norm = _norm_via_resultant(fs, tower, sub, var)
        if norm is None:
            continue
        d = norm.derivative()
        if d.is_zero or gcd(norm, d).degree() != 0:
            continue
        pieces = _factor_squarefree(norm.monic(), rng)
        if len(pieces) == 1:
            return [f.monic()]
        out = []
        rem = f.monic()
        for piece in pieces:
            lifted = piece.map_coeffs(tower.embed, tower)
            shifted = lifted.substitute(var, y + theta_poly.scale(s))
            g = gcd(rem, shifted)
            if g.degree() > 0:
                out.append(g.monic())
                rem = (rem // g).monic()
        if rem.degree() != 0 or not out:
            raise DomainError("norm-map factor extraction failed to exhaust the input")
        out.sort(key=lambda g: g.sort_key())
        return out
    raise CapabilityError("no squarefree norm found for the algebraic extension")


def _norm_via_resultant(
    fs: Polynomial, tower: FieldTower, sub: FieldTower, var: str
) -> Polynomial | None:
    """Res_theta(minpoly(theta), fs) as a polynomial over sub."""
    suby = sub.extend_transcendental("__Y")
    top_level = tower.level
    step = tower.steps[-1]
    d = step.degree
    # fs as a polynomial in theta with coefficients in sub[y]
    theta_coeffs: list[FieldElement] = [suby.zero() for _ in range(d)]
    for (i,), c in fs.terms.items():
        reps = list(c.rep) if step.is_algebraic else None
        for j, rep in enumerate(reps):
            piece = FieldElement(sub, rep)
            mono = suby.gen("__Y") ** i * suby.embed(piece)
            theta_coeffs[j] = theta_coeffs[j] + mono
    a = Polynomial.from_coeffs(
        suby, "t", [suby.embed(c) for c in tower.minpoly_coeffs(top_level - 1)]
    )
    b = Polynomial.from_coeffs(suby, "t", theta_coeffs)
    if b.is_zero:
        return None
    res = resultant(a, b)
    if res.is_zero:
        return None
    # res lives in sub(__Y) and must be polynomial in __Y
    num, den = res.rep
    if len(den) != 1:
        raise DomainError("norm resultant acquired a denominator")
    inv = FieldElement(sub, den[0]).inv()
    coeffs = [FieldElement(sub, r) * inv for r in num]
    return Polynomial.from_coeffs(sub, var, coeffs)
