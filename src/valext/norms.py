"""The canonical norm on free modules and algebras over a valuation ring.

For a free module E over the ring V of a monomial valuation, with basis
(e_i), the norm of z = sum z_i e_i is the maximum of |z_i| in the
multiplicative convention, i.e. the additive minimum of the coefficient
values.  The supported free algebras are the carriers the extension
construction needs: polynomial algebras V[y] and finite-rank quotients
V[y]/(f) with f monic over V.  A free module of rank n is the quotient
``FreeAlgebra.quotient(v, e^n)``, free over V on 1, e, ..., e^(n-1), so the
norm and the unit-part factorization are the algebra's, written once.

An algebra element is a ``Polynomial`` in the algebra's indeterminate:
it inherits all arithmetic and printing, and each result is reduced
modulo the modulus of a quotient algebra.

When the residual algebra is a domain, the norm is multiplicative and
extends to a valuation of the fraction field with the same value group and
residue field Frac(A/mA); ``gauss_extend`` packages that extension.

All operations are pure over immutable algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import poly as poly_mod
from .errors import DomainError, PreconditionError, StructuralError
from .fields import FieldElement, FieldTower, _u_rem
from .poly import Polynomial
from .valuations import MonomialValuation
from .value_groups import ValueWithZero


# ---------------------------------------------------------------------------
# Free algebras


class FreeAlgebra:
    """V[y], or V[y]/(f) with f monic over V.

    Elements are polynomials in the one indeterminate y, a name that no
    generator of the fraction field takes, with fraction-field coefficients;
    the algebra itself consists of those with coefficients in V.  The
    quotient flavor has finite rank deg(f), and its elements are kept
    reduced modulo f.
    """

    def __init__(self, valuation: MonomialValuation, name: str, modulus):
        if name in valuation.function_field.gen_names:
            raise StructuralError(f"indeterminate {name!r} clashes with a field generator")
        self.valuation = valuation
        self.name = name
        self.modulus = modulus  # None, or a monic Polynomial over the fraction field
        if modulus is not None:
            for c in modulus.univariate_coeffs():
                if not c.is_zero and not valuation.in_ring(c):
                    raise DomainError("the quotient modulus must have ring coefficients")
            if not modulus.leading_coeff() == valuation.function_field.one():
                raise DomainError("the quotient modulus must be monic")

    @staticmethod
    def polynomial(valuation: MonomialValuation, name: str) -> "FreeAlgebra":
        return FreeAlgebra(valuation, name, None)

    @staticmethod
    def quotient(valuation: MonomialValuation, f: Polynomial) -> "FreeAlgebra":
        if f.tower != valuation.function_field:
            raise StructuralError("modulus must live over the valuation's fraction field")
        if f.degree() < 1:
            raise DomainError("quotient modulus must have degree >= 1")
        return FreeAlgebra(valuation, f.var, f)

    @property
    def is_quotient(self) -> bool:
        return self.modulus is not None

    @property
    def rank(self) -> int | None:
        return self.modulus.degree() if self.is_quotient else None

    def describe(self) -> str:
        head = f"V[{self.name}]"
        if self.is_quotient:
            head += f"/({self.modulus})"
        return head

    # -- elements -------------------------------------------------------------

    def element(self, terms: dict) -> "AlgebraElement":
        """The sum of c * y^e over the items e: c of ``terms``, each exponent
        e a nonnegative int."""
        R = self.valuation.function_field.ring
        reps: list = []
        for e, c in terms.items():
            if not isinstance(e, int) or e < 0:
                raise StructuralError(f"bad exponent {e}")
            reps.extend([R.zero] * (e + 1 - len(reps)))
            reps[e] = R.add(reps[e], self.valuation.coerce(c).rep)
        return AlgebraElement(self, reps)

    def zero(self) -> "AlgebraElement":
        return self.element({})

    def one(self) -> "AlgebraElement":
        return self.element({0: 1})

    def scalar(self, alpha) -> "AlgebraElement":
        return self.element({0: alpha})

    def gen(self, name: str) -> "AlgebraElement":
        if name != self.name:
            raise StructuralError(f"no indeterminate named {name!r}")
        return self.element({1: 1})

    # -- the norm ---------------------------------------------------------------

    def norm(self, z: "AlgebraElement") -> ValueWithZero:
        """The additive minimum of the coefficient values of z."""
        v = self.valuation
        out = v.group.zero_value()
        for c in z.univariate_coeffs():
            out = out.additive_min(v.value(c))
        return out

    def unit_part_factor(self, z: "AlgebraElement"):
        """z = alpha * z1 with norm(z1) neutral and |alpha| = norm(z): alpha
        is the coefficient of lowest degree whose value is the norm."""
        if z.is_zero:
            raise DomainError("the zero element has no unit-part factorization")
        minval = self.norm(z)
        for alpha in z.univariate_coeffs():
            if self.valuation.value(alpha) == minval:
                return alpha, z.scale(alpha.inv())
        raise DomainError(f"no coefficient has the norm's value {minval}")

    # -- residual algebra ---------------------------------------------------------

    def residual_minpoly(self) -> Polynomial:
        """The modulus modulo the maximal ideal, of the same degree."""
        if not self.is_quotient:
            raise StructuralError("polynomial algebras have no quotient modulus")
        rbar = self.valuation.residual_polynomial(self.modulus)
        if rbar.degree() != self.rank:
            raise DomainError("modulus degenerates modulo the maximal ideal")
        return rbar


class AlgebraElement(Polynomial):
    """A polynomial in the algebra's indeterminate, reduced modulo the
    modulus of a quotient algebra.  Every ``Polynomial`` operation builds
    its result through ``_like``, so it stays in the algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: FreeAlgebra, reps: list):
        field = algebra.valuation.function_field
        if algebra.modulus is not None:
            reps = _u_rem(field.ring, reps, algebra.modulus.reps)
        super().__init__(field, algebra.name, reps)
        self.algebra = algebra

    def _like(self, reps: list) -> "AlgebraElement":
        return AlgebraElement(self.algebra, reps)

    def _other(self, other) -> list:
        if isinstance(other, AlgebraElement) and other.algebra is not self.algebra:
            raise StructuralError("elements of different algebras")
        return super()._other(other)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = self.algebra.scalar(other)
            except StructuralError:
                return NotImplemented
            except DomainError:  # a Fraction whose denominator is 0 mod p
                return False
        return super().__eq__(other)


# ---------------------------------------------------------------------------
# Randomized norm verification


@dataclass
class NormCheckReport:
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


# Entries kept per tower in ``FieldTower.term_reps``; over a large F_p the
# keys are many, and terms past the limit are built without being kept.
TERM_TABLE_LIMIT = 4096


def randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, with ``getrandbits = rng.getrandbits``:
    the same draw from the same bits, n.bit_length() of them, redrawn while
    the result is n or more, so the stream and the final state of ``rng``
    are those of randrange's, at a fraction of its call cost.  An n below 1
    raises DomainError, as randrange refuses an empty range (``getrandbits(0)``
    is 0, so the redraw loop would never end)."""
    if n < 1:
        raise DomainError(f"no integer is drawn below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _term_rep(tower: FieldTower, c: int, mask: int) -> object:
    """The rep of c * (product of the generators in the bit ``mask``), looked
    up in ``tower.term_reps``, and built and kept there on a miss."""
    table = tower.term_reps
    term = table.get((c, mask))
    if term is None:
        ring = tower.ring
        term = ring.from_int(c)
        for i, name in enumerate(tower.gen_names):
            if mask >> i & 1:
                term = ring.mul(term, tower.gen(name).rep)
        if len(table) < TERM_TABLE_LIMIT:
            table[c, mask] = term
    return term


def _coefficient_range(tower: FieldTower) -> tuple[int, int]:
    """(n, offset): a term's coefficient is offset + ``rng.randrange(n)``,
    ``rng.randrange(-3, 4)`` over Q and ``rng.randrange(p)`` in
    characteristic p."""
    return (tower.char, 0) if tower.char else (7, -3)


def random_field_element(tower: FieldTower, rng: random.Random, size: int = 2) -> FieldElement:
    """A small random tower element: the sum of ``size`` terms c * (product
    of the generators in a bit mask).  Each term draws c (see
    ``_coefficient_range``), then one bit per generator as
    ``rng.randrange(2)``, both through ``randbelow``."""
    ring = tower.ring
    bits = rng.getrandbits
    n, offset = _coefficient_range(tower)
    out = None
    for _ in range(size):
        c = randbelow(bits, n)
        mask = 0
        for i in range(tower.level):
            mask |= randbelow(bits, 2) << i
        term = _term_rep(tower, c + offset, mask)
        out = term if out is None else ring.add(out, term)
    return FieldElement(tower, ring.zero if out is None else out)


def random_fraction_element(valuation: MonomialValuation, rng: random.Random) -> FieldElement:
    """A random element of the fraction field: three terms over a monomial
    denominator, every exponent in 0..2 (drawn as ``rng.randrange(3)``), so
    values spread around 0.  Each coefficient is one term of
    ``random_field_element``, drawn after its exponents; a later draw of the
    same exponents replaces an earlier one.  The draws are ``randbelow``'s
    rejection loops written out, so the stream and the final state of
    ``rng`` are randrange's.  A draw that cancels to zero gives one, so the
    result is never zero."""
    rank = valuation.rank
    field = valuation.coefficient_field
    bits = rng.getrandbits
    n, offset = _coefficient_range(field)
    k = n.bit_length()
    level = field.level
    terms = {}
    for t in range(4):
        exps = []
        for _ in range(rank):
            e = bits(2)
            while e == 3:
                e = bits(2)
            exps.append(e)
        if t == 3:  # the fourth exponent tuple is the denominator's
            break
        c = bits(k)
        while c >= n:
            c = bits(k)
        mask = 0
        for i in range(level):
            b = bits(2)
            while b > 1:
                b = bits(2)
            mask |= b << i
        terms[tuple(exps)] = FieldElement(field, _term_rep(field, c + offset, mask))
    out = valuation.from_terms(terms, exps)
    if out.is_zero:
        return valuation.function_field.one()
    return out


def check_algebra_norm(algebra: FreeAlgebra, samples: int = 40) -> NormCheckReport:
    """Randomized verification of the algebra-norm laws, on samples drawn
    from seed 0.

    Checks, with witnesses on failure: the norm of a scalar is the value of
    the scalar; the norm of a product is bounded by the sum of norms
    (additive form); sampled units of the algebra have neutral norm.
    """
    rng = random.Random(0)
    v = algebra.valuation
    report = NormCheckReport()

    def sample():
        terms = {}
        width = algebra.rank if algebra.is_quotient else 3
        for _ in range(2):
            terms[rng.randrange(0, max(2, width))] = random_fraction_element(v, rng)
        return algebra.element(terms)

    neutral = v.group.neutral()
    for _ in range(samples):
        alpha = random_fraction_element(v, rng)
        report.checks += 1
        if not algebra.norm(algebra.scalar(alpha)) == v.value(alpha):
            report.violations.append(f"scalar norm mismatch at alpha={alpha}")
        z = sample()
        w = sample()
        report.checks += 1
        lhs = algebra.norm(z * w)
        rhs = algebra.norm(z).mul(algebra.norm(w))
        if not lhs.additive_ge(rhs):
            report.violations.append(f"submultiplicativity fails: z={z}, w={w}")
        # scalar units always exist; quotient generators are units when the
        # modulus has unit constant term
        alpha_unit = random_fraction_element(v, rng)
        if v.is_unit(alpha_unit):
            u = algebra.scalar(alpha_unit)
            report.checks += 1
            if not algebra.norm(u) == neutral:
                report.violations.append(f"unit with non-neutral norm: {u}")
    if algebra.is_quotient:
        f0 = algebra.modulus.coeff(0)
        if v.is_unit(f0):
            theta = algebra.gen(algebra.name)
            # f = f0 + y * g, so theta * g = -f0 in the algebra
            theta_inv = AlgebraElement(algebra, algebra.modulus.reps[1:]).scale(-f0.inv())
            report.checks += 1
            if not (theta * theta_inv) == algebra.one():
                report.violations.append("generator inverse construction failed")
            report.checks += 1
            if not algebra.norm(theta) == neutral:
                report.violations.append("unit generator with non-neutral norm")
    return report


# ---------------------------------------------------------------------------
# Reducedness lifting


@dataclass
class ReducedLift:
    reduced: bool
    certificate: str
    nilpotent_residue: Polynomial | None = None


def is_reduced_lift(algebra: FreeAlgebra) -> ReducedLift:
    """Decide reducedness of A/mA; a reduced residual algebra certifies A
    reduced, a non-reduced one comes with an explicit nilpotent witness."""
    if not algebra.is_quotient:
        return ReducedLift(
            True, "residual algebra is a polynomial ring over a field, hence a domain"
        )
    rbar = algebra.residual_minpoly()
    part, decomp = poly_mod.squarefree_part(rbar)
    if all(m == 1 for _, m in decomp):
        return ReducedLift(True, "residual modulus is squarefree, so the lift is reduced")
    maxm = max(m for _, m in decomp)
    witness = part % rbar.monic()
    power = part**maxm % rbar.monic()
    if witness.is_zero or not power.is_zero:
        raise DomainError("nilpotent witness construction failed")
    worst = next((g, m) for g, m in decomp if m > 1)
    return ReducedLift(
        False,
        f"residual modulus has repeated factor ({worst[0]})^{worst[1]}",
        nilpotent_residue=witness,
    )


# ---------------------------------------------------------------------------
# Gauss extension


@dataclass
class GaussExtension:
    """The extension of the valuation to Frac(A), for A with integral A/mA.

    The value of z/u is norm(z) - norm(u) additively; the group is the base
    group unchanged; the residue field is Frac(A/mA), presented as a new
    tower step on top of the base residue field.
    """

    valuation: MonomialValuation
    algebra: FreeAlgebra
    residue_field: FieldTower
    residue_gen_name: str | None  # the adjoined generator, None when A/mA = F

    @property
    def group(self):
        return self.valuation.group

    def value(self, z: AlgebraElement) -> ValueWithZero:
        return self.algebra.norm(z)

    def value_fraction(self, num: AlgebraElement, den: AlgebraElement) -> ValueWithZero:
        if den.is_zero:
            raise DomainError("zero denominator")
        if num.is_zero:
            return self.group.zero_value()
        return self.algebra.norm(num).mul(self.algebra.norm(den).inv())

    def in_ring(self, num: AlgebraElement, den: AlgebraElement) -> bool:
        return self.value_fraction(num, den).is_nonnegative()


def gauss_extend(
    valuation: MonomialValuation,
    algebra: FreeAlgebra,
    residue_gen_name: str | None = None,
    *,
    factor: Polynomial | None = None,
) -> GaussExtension:
    """Extend the valuation through the norm of a free algebra.

    The residue field is F with the residue of the indeterminate adjoined as
    ``residue_gen_name`` (by default the indeterminate's name and ``_res``);
    nothing is adjoined, and the result's name is None, when the residual
    modulus is linear.

    Requires the residual algebra A/mA to be integral: automatic for
    polynomial algebras, and equivalent to irreducibility of the residual
    modulus for quotients.  That is decided by factorization (unsupported
    coefficient fields surface as capability errors rather than guesses)
    unless it is handed the irreducible factor that proves it: ``factor``
    over the same tower and with the same reps as the residual modulus, such
    as the factor ``poly.factor`` returned for a strictly maximal point.  The
    caller vouches for its irreducibility; any other ``factor`` is a proof
    of something else and raises DomainError.
    """
    if algebra.valuation != valuation:
        raise StructuralError("algebra is not over the given valuation")
    field = valuation.coefficient_field
    if residue_gen_name is None:
        residue_gen_name = f"{algebra.name}_res"
    if not algebra.is_quotient:
        tower = field.extend_transcendental(residue_gen_name)
        return GaussExtension(valuation, algebra, tower, residue_gen_name)
    rbar = algebra.residual_minpoly()
    if rbar.degree() == 1:
        # A/mA is F itself; nothing to adjoin
        return GaussExtension(valuation, algebra, field, None)
    if factor is None:
        fac = poly_mod.factor(rbar)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            pieces = " * ".join(f"({g})^{m}" for g, m in fac.factors)
            raise PreconditionError(
                f"residual algebra is not integral: modulus factors as {pieces}"
            )
    elif factor.tower != rbar.tower or factor.reps != rbar.reps:
        raise DomainError("the given factor is not the residual modulus")
    tower = field.extend_algebraic(residue_gen_name, rbar.univariate_coeffs(), check=False)
    return GaussExtension(valuation, algebra, tower, residue_gen_name)
