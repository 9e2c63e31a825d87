"""Rank-n monomial (generalized Gauss) valuations on F(x_1..x_n).

The value of a monomial prod x_i^(e_i) is the vector (e_1..e_n), compared
lexicographically with the first coordinate most significant, and the value
of a polynomial is the minimum over its monomials (additive convention; see
value_groups).  The valuation ring is {value >= 0}, the residue field is F,
and the residue map keeps the unique minimal monomial of a unit.

Value and residue are read from that minimal monomial by recursion over the
nested rep, with no expansion into multivariate polynomials.  In a sum
c_0 + c_1 x_j + c_2 x_j^2 + ... with c_i free of x_j..x_n, the terms differ
in coordinate j, so exactly one of them reaches the minimum and nothing can
cancel it: the minimal monomial of a fraction is that of its numerator over
that of its denominator.

For truncated perfect-closure constructions the same machinery runs with a
denominator exponent N: the variables are then read as p^N-th roots, each of
value (1/p^N) e_i.

A monic polynomial with constant coefficients and a squarefree residual
factorization has its factors lifted exactly, at any rank; a residual that
splits under a non-constant coefficient is refused with CapabilityError.

Valuation descriptors are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from . import poly as poly_mod
from .errors import CapabilityError, DomainError, SelfCheckError, StructuralError
from .fields import FieldElement, FieldTower, _fraction_level
from .poly import Polynomial
from .value_groups import ValueGroup, ValueWithZero, _from_steps


def _min_term(rings: tuple, cut: int, lvl: int, rep) -> tuple[tuple[int, ...], object]:
    """Exponents (slot j = generator at level cut+1+j) of the unique minimal
    monomial of a nonzero level-``lvl`` rep, ``lvl > cut``, whose levels
    above ``cut`` are transcendental, and its level-``cut`` coefficient."""
    num, den = rep
    ring = rings[cut]
    if lvl - 1 == cut:
        # constant coefficients: the lowest power is minimal
        is_zero = ring.is_zero
        i = 0
        while is_zero(num[i]):
            i += 1
        j = 0
        while is_zero(den[j]):
            j += 1
        exps, cn, cd = (i - j,), num[i], den[j]
    else:
        en, cn = _min_poly_term(rings, cut, lvl, num)
        ed, cd = _min_poly_term(rings, cut, lvl, den)
        exps = tuple(map(sub, en, ed))
    if cd is not ring.one and cd != ring.one:
        cn = ring.mul(cn, ring.inv(cd))
    return exps, cn


def _min_poly_term(rings: tuple, cut: int, lvl: int, coeffs):
    """The minimal monomial of sum coeffs[i] * g^i, g the level-``lvl``
    generator, ``lvl - 1 > cut``, whose exponent is the last, least
    significant slot."""
    below = rings[lvl - 1]
    is_zero, one = below.is_zero, below.one
    # a coefficient equal to one, such as the leading coefficient of the
    # denominators that from_terms, monomial and inverses build, has the
    # minimal monomial 1
    ones = ((0,) * (lvl - 1 - cut), rings[cut].one)
    best = None
    for i, c in enumerate(coeffs):
        if is_zero(c):
            continue
        exps, term = ones if c == one else _min_term(rings, cut, lvl - 1, c)
        if best is None or exps < best:
            best, best_coeff, best_i = exps, term, i
    return best + (best_i,), best_coeff


class MonomialValuation:
    """The monomial valuation on F(x_1..x_n) with value group (1/q^N) Z^n."""

    def __init__(
        self,
        coefficient_field: FieldTower,
        variables: Sequence[str],
        denom_exponent: int = 0,
    ):
        variables = tuple(variables)
        if not variables:
            raise StructuralError("a monomial valuation needs at least one variable")
        if len(set(variables)) != len(variables):
            raise StructuralError("variable names must be distinct")
        self.coefficient_field = coefficient_field
        self.variables = variables
        self.rank = len(variables)
        self.denom_exponent = denom_exponent
        q = coefficient_field.char_exponent
        if denom_exponent > 0 and q == 1:
            raise StructuralError("fractional values require positive characteristic")
        self.group = ValueGroup(len(variables), q, denom_exponent)
        k = coefficient_field
        for v in variables:
            k = k.extend_transcendental(v)
        self.function_field = k

    # -- identities -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MonomialValuation)
            and self.coefficient_field == other.coefficient_field
            and self.variables == other.variables
            and self.denom_exponent == other.denom_exponent
        )

    def __hash__(self):
        return hash((self.coefficient_field, self.variables, self.denom_exponent))

    # -- values ---------------------------------------------------------------

    def coerce(self, z) -> FieldElement:
        return self.function_field.coerce(z)

    def value(self, z) -> ValueWithZero:
        if z.__class__ is not FieldElement or z.tower is not self.function_field:
            z = self.coerce(z)
        rep = z.rep
        # the top level is a variable, so rep is (num, den) and () is zero
        if not rep[0]:
            return self.group.zero_value()
        k = self.function_field
        # integers over the group's own denominator, one per variable: the
        # value's lattice steps, unchecked (see value_groups)
        exps = _min_term(k.rings, self.coefficient_field.level, k.level, rep)[0]
        return _from_steps(self.group, exps)

    def in_ring(self, z) -> bool:
        return self.value(z).is_nonnegative()

    def is_unit(self, z) -> bool:
        v = self.value(z)
        return not v.is_zero and v == self.group.neutral()

    def residue(self, z) -> FieldElement:
        """The image of z in the residue field F, for z in the valuation ring."""
        z = self.coerce(z)
        field = self.coefficient_field
        if z.is_zero:
            return field.zero()
        k = self.function_field
        exps, coeff = _min_term(k.rings, field.level, k.level, z.rep)
        v = ValueWithZero(self.group, exps)
        if not v.is_nonnegative():
            raise DomainError(f"residue of an element of value {v} < 0")
        if v.is_positive():
            return field.zero()
        return FieldElement(field, coeff)

    def from_terms(self, terms: dict, den_exps=None) -> FieldElement:
        """Build (sum of terms)/(monomial) directly in canonical form.

        ``terms`` maps variable-exponent tuples to coefficient-field
        elements; ``den_exps`` is the denominator monomial (default 1).
        Both come from callers (``monomial`` and the public API) and are
        checked here.  The levels above the coefficient field are the
        variables, transcendental by construction, so
        ``fields._fraction_level`` builds the rep with no scan of the levels.
        """
        field = self.coefficient_field
        is_zero = field.ring.is_zero
        rank = self.rank
        pairs = []
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != rank or min(exps) < 0:
                raise StructuralError(f"bad exponent vector {exps}")
            if c.__class__ is not FieldElement or c.tower is not field:
                c = field.coerce(c)
            if not is_zero(c.rep):
                pairs.append((exps, c.rep))
        den = (0,) * rank if den_exps is None else tuple(den_exps)
        if len(den) != rank or min(den) < 0:
            raise StructuralError("bad denominator exponents")
        k = self.function_field
        if not pairs:
            return FieldElement(k, k.ring.zero)
        return FieldElement(k, _fraction_level(k.rings, field.level, k.level, pairs, den))

    def monomial(self, value: ValueWithZero) -> FieldElement:
        """x^pos / x^neg, the field element whose value is the given group
        element, built by ``from_terms``."""
        if value.is_zero:
            raise DomainError("no monomial has the adjoined zero value")
        if value.group.rank != self.rank:
            raise StructuralError(f"{value} does not have rank {self.rank}")
        # the steps a value carries count its own group's 1/D
        steps = self.group._rescale(value)
        if steps is None:
            raise DomainError(f"{value} is not in the value group")
        pos = tuple(max(e, 0) for e in steps)
        return self.from_terms({pos: self.coefficient_field.one()}, [max(-e, 0) for e in steps])

    # -- residual structure -----------------------------------------------------

    def residual_polynomial(self, f: Polynomial) -> Polynomial:
        """Coefficient-wise residue of a polynomial with ring coefficients."""
        return f.map_coeffs(self.residue, self.coefficient_field)

    def prime_chain(self) -> list[FieldTower]:
        """The residue fields of the n+1 primes of a rank-n monomial
        valuation ring, ascending.  Going up the chain kills the variables of
        dominant value first: the prime at position j contains x_1..x_j, and
        its residue field is F(x_{j+1}..x_n)."""
        out = []
        for j in range(self.rank + 1):
            kappa = self.coefficient_field
            for v in self.variables[j:]:
                kappa = kappa.extend_transcendental(v)
            out.append(kappa)
        return out

    # -- rank-1 series ----------------------------------------------------------

    def series(self, z, precision: int) -> list[FieldElement]:
        """Coefficients of z as a power series in the variable, rank 1 only."""
        if self.rank != 1:
            raise CapabilityError("series expansion is a rank-1 operation")
        z = self.coerce(z)
        field = self.coefficient_field
        zero = field.zero()
        if z.is_zero:
            return [zero] * precision
        # canonical num and den are coprime, so z is in the ring exactly
        # when x does not divide den
        num, den = z.rep
        if field.ring.is_zero(den[0]):
            raise DomainError("series expansion needs a ring element")
        nn = [FieldElement(field, r) for r in num[:precision]]
        nn += [zero] * (precision - len(nn))
        dd = [FieldElement(field, r) for r in den[:precision]]
        dd += [zero] * (precision - len(dd))
        inv0 = dd[0].inv()
        inv = [zero] * precision
        inv[0] = inv0
        for k in range(1, precision):
            acc = zero
            for j in range(1, k + 1):
                acc = acc + dd[j] * inv[k - j]
            inv[k] = -inv0 * acc
        prod = [zero] * precision
        for i in range(precision):
            if nn[i].is_zero:
                continue
            for j in range(precision - i):
                prod[i + j] = prod[i + j] + nn[i] * inv[j]
        return prod


# ---------------------------------------------------------------------------
# Factor lifting


@dataclass
class HenselLift:
    """Outcome of a factor lift: either lifted factors or a refusal.

    A refusal is not an error: it reports that the residual factorization is
    not squarefree, so the coprimality hypothesis of the lift fails.
    ``precision`` is fixed at 2·deg + 2, which the build report names; the
    exact lift meets every precision.
    """

    factors: list[Polynomial] | None
    residual_factors: list[Polynomial]
    precision: int
    refusal: str | None = None

    @property
    def refused(self) -> bool:
        return self.refusal is not None


def hensel_factor_lift(
    valuation: MonomialValuation,
    f: Polynomial,
    *,
    factors: Sequence[tuple[Polynomial, int]] | None = None,
) -> HenselLift:
    """Lift the residual factorization of a monic f, exactly or not at all.

    When the residual polynomial is irreducible the input is returned
    unchanged.  When it splits, every coefficient of f must lie in the
    coefficient field F, and the lift is exact at any rank: F is
    algebraically closed in F(x_1..x_n), so the residual factors embedded in
    the function field are the factors of f, and their product is checked to
    be f.  A split under a coefficient outside F raises CapabilityError.

    The residual polynomial is factored unless it is handed its
    factorization: ``factors``, (factor, multiplicity) pairs over the
    residual's tower whose product is exactly the residual polynomial, such
    as the factorization ``compositum.tensor_decompose`` chose a branch
    from.  Any other ``factors`` is a proof of something else and raises
    DomainError.
    """
    if f.tower != valuation.function_field:
        raise StructuralError("polynomial is not over the valuation's field")
    deg = f.degree()
    if deg < 1:
        raise DomainError("factor lifting needs degree >= 1")
    if not (f.coeff(deg) == valuation.function_field.one()):
        raise DomainError("factor lifting needs a monic polynomial")
    level = valuation.coefficient_field.level
    constant = True
    for c in f.univariate_coeffs():
        if c.restrict(level) is None:
            constant = False
            if not valuation.in_ring(c):
                raise DomainError("coefficients must lie in the valuation ring")
    precision = 2 * deg + 2
    residual = valuation.residual_polynomial(f)
    if factors is None:
        factors = poly_mod.factor(residual).factors
    elif not _factors_of(factors, residual):
        raise DomainError("the given factors are not the residual polynomial's factorization")
    residual_factors = [Polynomial(residual.tower, residual.var, g.reps) for g, _ in factors]
    repeated = [(g, m) for g, (_, m) in zip(residual_factors, factors) if m > 1]
    if repeated:
        g, m = repeated[0]
        return HenselLift(
            None,
            residual_factors,
            precision,
            refusal=f"residual polynomial is not squarefree: ({g})^{m}",
        )
    if len(residual_factors) == 1:
        return HenselLift([f], residual_factors, precision)
    if not constant:
        raise CapabilityError("factor lifting of non-constant coefficients is not implemented")
    k = valuation.function_field
    out = [g.map_coeffs(k.embed, k) for g in residual_factors]
    if math.prod(out) != f:
        raise SelfCheckError("the embedded residual factors do not multiply to f")
    return HenselLift(out, residual_factors, precision)


def _factors_of(factors: Sequence[tuple[Polynomial, int]], g: Polynomial) -> bool:
    """True when ``factors`` lie over g's tower and their product is g."""
    if not factors or any(h.tower != g.tower for h, _ in factors):
        return False
    return math.prod(Polynomial(g.tower, g.var, h.reps) ** m for h, m in factors) == g
