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

Rank-1 valuations additionally support finite-precision series expansion and
Hensel factor lifting of monic polynomials with squarefree residual
factorization.

Valuation descriptors are immutable and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import poly as poly_mod
from .errors import CapabilityError, DomainError, StructuralError
from .fields import FieldElement, FieldTower, _u_trim, build_fraction_rep
from .poly import Polynomial, TruncatedSeries, hensel_lift
from .value_groups import ValueGroup, ValueWithZero


@dataclass(frozen=True)
class PrimeIdealInfo:
    """One prime of the valuation ring, with its residue field.

    Going up the chain kills the variables of dominant value first: the
    prime of index j contains x_1..x_j, and its residue field is the
    rational function field in the surviving variables x_{j+1}..x_n.
    """

    index: int
    dying_vars: tuple[str, ...]
    residue_field: FieldTower

    def describe(self) -> str:
        dead = ",".join(self.dying_vars) if self.dying_vars else "0"
        return f"prime[{self.index}] = ({dead})"


def _min_term(tw: FieldTower, cut: int, lvl: int, rep) -> tuple[tuple[int, ...], object]:
    """Exponents (slot j = generator at level cut+1+j) and level-``cut``
    coefficient of the unique minimal monomial of a nonzero level-``lvl``
    rep whose levels above ``cut`` are transcendental."""
    if lvl == cut:
        return (), rep
    num, den = rep
    en, cn = _min_poly_term(tw, cut, lvl, num)
    ed, cd = _min_poly_term(tw, cut, lvl, den)
    ring = tw.rings[cut]
    if cd != ring.one:
        cn = ring.mul(cn, ring.inv(cd))
    return tuple(a - b for a, b in zip(en, ed)), cn


def _min_poly_term(tw: FieldTower, cut: int, lvl: int, coeffs):
    """The minimal monomial of sum coeffs[i] * g^i, g the level-``lvl``
    generator, whose exponent is the last, least significant slot."""
    best = None
    for i, c in enumerate(coeffs):
        if tw.rings[lvl - 1].is_zero(c):
            continue
        exps, coeff = _min_term(tw, cut, lvl - 1, c)
        key = exps + (i,)
        if best is None or key < best[0]:
            best = key, coeff
        if lvl - 1 == cut:  # constant coefficients: the lowest power is minimal
            break
    return best


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

    @property
    def rank(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialValuation)
            and self.coefficient_field == other.coefficient_field
            and self.variables == other.variables
            and self.denom_exponent == other.denom_exponent
        )

    def __hash__(self):
        return hash((self.coefficient_field, self.variables, self.denom_exponent))

    def describe(self) -> str:
        return (
            f"monomial valuation on ({self.coefficient_field.describe()})"
            f"({', '.join(self.variables)}), group {self.group.describe()}"
        )

    # -- values ---------------------------------------------------------------

    def coerce(self, z) -> FieldElement:
        return self.function_field.coerce(z)

    def _min_monomial(self, z: FieldElement) -> tuple[ValueWithZero, object]:
        """The value of z != 0 and the coefficient rep of its minimal monomial."""
        k = self.function_field
        exps, coeff = _min_term(k, self.coefficient_field.level, k.level, z.rep)
        # integers over the group's own denominator: in the group by construction
        d = self.group.denominator
        if d == 1:
            coords = tuple(Fraction(e) for e in exps)
        else:
            coords = tuple(Fraction(e, d) for e in exps)
        return ValueWithZero(self.group, coords), coeff

    def value(self, z) -> ValueWithZero:
        z = self.coerce(z)
        if z.is_zero:
            return self.group.zero_value()
        return self._min_monomial(z)[0]

    def in_ring(self, z) -> bool:
        return self.value(z).is_nonnegative()

    def in_maximal_ideal(self, z) -> bool:
        return self.value(z).is_positive()

    def is_unit(self, z) -> bool:
        v = self.value(z)
        return not v.is_zero and v == self.group.neutral()

    def residue(self, z) -> FieldElement:
        """The image of z in the residue field F, for z in the valuation ring."""
        z = self.coerce(z)
        field = self.coefficient_field
        if z.is_zero:
            return field.zero()
        v, coeff = self._min_monomial(z)
        if not v.is_nonnegative():
            raise DomainError(f"residue of an element of value {v} < 0")
        if v.is_positive():
            return field.zero()
        return FieldElement(field, coeff)

    def from_terms(self, terms: dict, den_exps=None) -> FieldElement:
        """Build (sum of terms)/(monomial) directly in canonical form.

        ``terms`` maps variable-exponent tuples to coefficient-field
        elements; ``den_exps`` is the denominator monomial (default 1).
        """
        field = self.coefficient_field
        cut = field.level
        if den_exps is None:
            den_exps = (0,) * self.rank
        reps = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.rank or any(e < 0 for e in exps):
                raise StructuralError(f"bad exponent vector {exps}")
            c = field.coerce(c)
            reps[exps] = c.rep
        rep = build_fraction_rep(self.function_field, cut, reps, den_exps)
        return FieldElement(self.function_field, rep)

    def monomial(self, value: ValueWithZero) -> FieldElement:
        """A field element whose value is the given group element."""
        if value.is_zero:
            raise DomainError("no monomial has the adjoined zero value")
        if len(value.coords) != self.rank:
            raise StructuralError(f"{value} does not have rank {self.rank}")
        # x^pos / x^neg level by level: ((0, ..., 0, r), (1,)) or
        # ((r,), (0, ..., 0, 1)) over the rep r built so far, canonical by
        # construction
        k = self.function_field
        cut = self.coefficient_field.level
        rep = k.rings[cut].one
        for j, c in enumerate(value.coords):
            e = c * self.group.denominator
            if e.denominator != 1:
                raise DomainError(f"{value} is not in the value group")
            e = int(e)
            below = k.rings[cut + j]
            if e >= 0:
                rep = ((below.zero,) * e + (rep,), (below.one,))
            else:
                rep = ((rep,), (below.zero,) * -e + (below.one,))
        return FieldElement(k, rep)

    # -- residual structure -----------------------------------------------------

    def residual_polynomial(self, f: Polynomial) -> Polynomial:
        """Coefficient-wise residue of a polynomial with ring coefficients."""
        field = self.coefficient_field
        out = {}
        for e, c in f.terms.items():
            rc = self.residue(c)
            if not rc.is_zero:
                out[e] = rc
        return Polynomial(field, f.vars, out)

    def prime_chain(self) -> list[PrimeIdealInfo]:
        """The n+1 primes of a rank-n monomial valuation ring, ascending."""
        out = []
        for j in range(self.rank + 1):
            kappa = self.coefficient_field
            for v in self.variables[j:]:
                kappa = kappa.extend_transcendental(v)
            out.append(PrimeIdealInfo(j, self.variables[:j], kappa))
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

    def from_series(self, coeffs: Sequence[FieldElement]) -> FieldElement:
        """The polynomial sum coeffs[k] * x^k as a function-field element."""
        k = self.function_field
        x = k.gen(self.variables[0])
        out = k.zero()
        for i, c in enumerate(coeffs):
            out = out + k.embed(self.coefficient_field.coerce(c)) * x**i
        return out


# ---------------------------------------------------------------------------
# Hensel factor lifting (rank 1, finite precision)


@dataclass
class HenselLift:
    """Outcome of a factor lift: either lifted factors or a refusal.

    A refusal is not an error: it reports that the residual factorization is
    not squarefree, so the coprimality hypothesis of the lift fails.
    """

    factors: list[Polynomial] | None
    residual_factors: list[Polynomial]
    precision: int
    refusal: str | None = None

    @property
    def refused(self) -> bool:
        return self.refusal is not None


def hensel_factor_lift(
    valuation: MonomialValuation, f: Polynomial, precision: int | None = None
) -> HenselLift:
    """Lift the residual factorization of a monic f to finite precision.

    The returned factors are monic, congruent to the residual factors, and
    multiply to f modulo x^precision.  When the residual polynomial is
    irreducible the input is returned unchanged (exactly, not truncated).
    """
    if valuation.rank != 1:
        raise CapabilityError("factor lifting is implemented for rank-1 valuations only")
    f._require_univariate("factor lifting")
    if f.tower != valuation.function_field:
        raise StructuralError("polynomial is not over the valuation's field")
    deg = f.degree()
    if deg < 1:
        raise DomainError("factor lifting needs degree >= 1")
    if not (f.coeff(deg) == valuation.function_field.one()):
        raise DomainError("factor lifting needs a monic polynomial")
    for c in f.univariate_coeffs():
        if not c.is_zero and not valuation.in_ring(c):
            raise DomainError("coefficients must lie in the valuation ring")
    if precision is None:
        precision = 2 * deg + 2
    residual = valuation.residual_polynomial(f)
    fac = poly_mod.factor(residual)
    residual_factors = [g for g, _ in fac.factors]
    if any(m > 1 for _, m in fac.factors):
        worst = next((g, m) for g, m in fac.factors if m > 1)
        return HenselLift(
            None,
            residual_factors,
            precision,
            refusal=f"residual polynomial is not squarefree: ({worst[0]})^{worst[1]}",
        )
    if len(residual_factors) == 1:
        return HenselLift([f], residual_factors, precision)

    field = valuation.coefficient_field
    ring = TruncatedSeries(field.ring, precision)
    target = [
        tuple(_u_trim(field.ring, [s.rep for s in valuation.series(c, precision)]))
        for c in f.univariate_coeffs()
    ]
    parts = [[c.rep for c in g.univariate_coeffs()] for g in residual_factors]
    out = []
    for series_poly in hensel_lift(ring, target, parts):
        coeffs = [valuation.from_series([FieldElement(field, r) for r in cs]) for cs in series_poly]
        out.append(Polynomial.from_coeffs(valuation.function_field, f.vars[0], coeffs))
    return HenselLift(out, residual_factors, precision)


def congruent_mod_precision(
    valuation: MonomialValuation, a: Polynomial, b: Polynomial, precision: int
) -> bool:
    """Coefficient-wise congruence modulo x^precision (rank 1)."""
    diff = a - b
    for c in diff.terms.values():
        series = valuation.series(c, precision)
        if any(not s.is_zero for s in series):
            return False
    return True
