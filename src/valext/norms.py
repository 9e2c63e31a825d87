"""The canonical norm on free modules and algebras over a valuation ring.

For a free module E over the ring V of a monomial valuation, with basis
(e_i), the norm of z = sum z_i e_i is the maximum of |z_i| in the
multiplicative convention, i.e. the additive minimum of the coefficient
values.  The supported free algebras are the carriers the extension
construction needs: polynomial algebras V[y_1..y_m] and finite-rank
quotients V[y]/(f) with f monic over V.

When the residual algebra is a domain, the norm is multiplicative and
extends to a valuation of the fraction field with the same value group and
residue field Frac(A/mA); ``gauss_extend`` packages that extension.

All operations are pure over immutable modules and algebras.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import poly as poly_mod
from .errors import DomainError, PreconditionError, StructuralError
from .fields import FieldElement, FieldTower, _power, _u_rem
from .poly import Polynomial
from .valuations import MonomialValuation
from .value_groups import ValueWithZero


# ---------------------------------------------------------------------------
# Free modules


class FreeModule:
    """A free V-module with a finite ordered basis of labels."""

    def __init__(self, valuation: MonomialValuation, basis: Sequence[str]):
        basis = tuple(basis)
        if not basis or len(set(basis)) != len(basis):
            raise StructuralError("basis labels must be nonempty and distinct")
        self.valuation = valuation
        self.basis = basis

    def element(self, coeffs: dict) -> "ModuleElement":
        clean = {}
        for label, c in coeffs.items():
            if label not in self.basis:
                raise StructuralError(f"unknown basis label {label!r}")
            c = self.valuation.coerce(c)
            if not c.is_zero:
                clean[label] = c
        return ModuleElement(self, clean)

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def norm(self, z: "ModuleElement") -> ValueWithZero:
        """Additive minimum over coefficient values (multiplicative maximum)."""
        v = self.valuation
        out = v.group.zero_value()
        for c in z.coeffs.values():
            out = out.additive_min(v.value(c))
        return out

    def unit_part_factor(self, z: "ModuleElement"):
        """Write z = alpha * z1 with norm(z1) the neutral value.

        alpha is a coefficient of minimal value (first such basis label), so
        |alpha| equals the norm of z exactly.
        """
        if not z.coeffs:
            raise DomainError("the zero element has no unit-part factorization")
        v = self.valuation
        # the first basis label achieving the minimal value, deterministically
        minval = self.norm(z)
        alpha = None
        for label in self.basis:
            if label in z.coeffs and v.value(z.coeffs[label]) == minval:
                alpha = z.coeffs[label]
                break
        inv = alpha.inv()
        z1 = ModuleElement(self, {l: c * inv for l, c in z.coeffs.items()})
        return alpha, z1

    def in_module(self, z: "ModuleElement") -> bool:
        return all(self.valuation.in_ring(c) for c in z.coeffs.values())

    def in_maximal_submodule(self, z: "ModuleElement") -> bool:
        return all(self.valuation.in_maximal_ideal(c) for c in z.coeffs.values())


@dataclass
class ModuleElement:
    module: FreeModule
    coeffs: dict

    def _check(self, other):
        if other.module is not self.module and other.module.basis != self.module.basis:
            raise StructuralError("elements of different modules")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            s = out.get(l)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(l, None)
            else:
                out[l] = s
        return ModuleElement(self.module, out)

    def __neg__(self):
        return ModuleElement(self.module, {l: -c for l, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, alpha) -> "ModuleElement":
        alpha = self.module.valuation.coerce(alpha)
        if alpha.is_zero:
            return self.module.zero()
        return ModuleElement(self.module, {l: alpha * c for l, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, ModuleElement) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[l]})*{l}" for l in self.module.basis if l in self.coeffs)


# ---------------------------------------------------------------------------
# Free algebras


class FreeAlgebra:
    """V[y_1..y_m], or V[y]/(f) with f monic over V.

    Elements are finitely supported maps from monomial exponents to
    fraction-field coefficients; the algebra itself consists of those with
    coefficients in V.  The quotient flavor has finite rank deg(f), with the
    reduction table of y^k for k >= deg(f) carrying the structure constants.
    """

    def __init__(self, valuation: MonomialValuation, names: tuple[str, ...], modulus):
        self.valuation = valuation
        self.names = names
        self.modulus = modulus  # None, or a monic Polynomial over the fraction field
        if modulus is not None:
            for c in modulus.univariate_coeffs():
                if not c.is_zero and not valuation.in_ring(c):
                    raise DomainError("the quotient modulus must have ring coefficients")
            if not modulus.leading_coeff() == valuation.function_field.one():
                raise DomainError("the quotient modulus must be monic")

    @staticmethod
    def polynomial(valuation: MonomialValuation, names: Sequence[str]) -> "FreeAlgebra":
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise StructuralError("indeterminate names must be nonempty and distinct")
        clash = set(names) & set(valuation.function_field.gen_names)
        if clash:
            raise StructuralError(f"indeterminates clash with field generators: {clash}")
        return FreeAlgebra(valuation, names, None)

    @staticmethod
    def quotient(valuation: MonomialValuation, f: Polynomial) -> "FreeAlgebra":
        f._require_univariate("quotient algebra")
        if f.tower != valuation.function_field:
            raise StructuralError("modulus must live over the valuation's fraction field")
        if f.degree() < 1:
            raise DomainError("quotient modulus must have degree >= 1")
        return FreeAlgebra(valuation, f.vars, f)

    @property
    def is_quotient(self) -> bool:
        return self.modulus is not None

    @property
    def rank(self) -> int | None:
        return self.modulus.degree() if self.is_quotient else None

    def describe(self) -> str:
        head = f"V[{', '.join(self.names)}]"
        if self.is_quotient:
            head += f"/({self.modulus})"
        return head

    # -- elements -------------------------------------------------------------

    def element(self, terms: dict) -> "AlgebraElement":
        clean = {}
        for exps, c in terms.items():
            if isinstance(exps, int):
                exps = (exps,)
            exps = tuple(exps)
            if len(exps) != len(self.names) or any(e < 0 for e in exps):
                raise StructuralError(f"bad exponent vector {exps}")
            c = self.valuation.coerce(c)
            if not c.is_zero:
                clean[exps] = clean.get(exps, self.valuation.function_field.zero()) + c
        clean = {e: c for e, c in clean.items() if not c.is_zero}
        out = AlgebraElement(self, clean)
        return out._reduce() if self.is_quotient else out

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.element({(0,) * len(self.names): 1})

    def scalar(self, alpha) -> "AlgebraElement":
        return self.element({(0,) * len(self.names): alpha})

    def gen(self, name: str) -> "AlgebraElement":
        i = self.names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return self.element({e: 1})

    def from_polynomial(self, f: Polynomial) -> "AlgebraElement":
        if f.vars != self.names or f.tower != self.valuation.function_field:
            raise StructuralError("polynomial does not match the algebra's presentation")
        return self.element(dict(f.terms))

    # -- the norm ---------------------------------------------------------------

    def norm(self, z: "AlgebraElement") -> ValueWithZero:
        v = self.valuation
        out = v.group.zero_value()
        for c in z.terms.values():
            out = out.additive_min(v.value(c))
        return out

    def unit_part_factor(self, z: "AlgebraElement"):
        """z = alpha * z1 with norm(z1) neutral and |alpha| = norm(z)."""
        if not z.terms:
            raise DomainError("the zero element has no unit-part factorization")
        v = self.valuation
        minval = self.norm(z)
        alpha = None
        for exps in sorted(z.terms.keys()):
            if v.value(z.terms[exps]) == minval:
                alpha = z.terms[exps]
                break
        inv = alpha.inv()
        z1 = AlgebraElement(self, {e: c * inv for e, c in z.terms.items()})
        return alpha, z1

    def in_algebra(self, z: "AlgebraElement") -> bool:
        return all(self.valuation.in_ring(c) for c in z.terms.values())

    # -- residual algebra ---------------------------------------------------------

    def residual_minpoly(self) -> Polynomial:
        if not self.is_quotient:
            raise StructuralError("polynomial algebras have no quotient modulus")
        return self.valuation.residual_polynomial(self.modulus)

    def residue_of(self, z: "AlgebraElement") -> Polynomial:
        """The image of an algebra element in A/mA, as a polynomial over F."""
        if not self.in_algebra(z):
            raise DomainError("residue requires an element of the algebra")
        v = self.valuation
        out = {}
        for e, c in z.terms.items():
            rc = v.residue(c)
            if not rc.is_zero:
                out[e] = rc
        return Polynomial(v.coefficient_field, self.names, out)


class AlgebraElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _reduce(self) -> "AlgebraElement":
        """The remainder modulo the monic modulus (quotient algebras)."""
        mod = self.algebra.modulus
        ring = mod.tower.ring
        dense = [ring.zero] * (1 + max((e for (e,) in self.terms), default=-1))
        for (e,), c in self.terms.items():
            dense[e] = c.rep
        r = _u_rem(ring, dense, [c.rep for c in mod.univariate_coeffs()])
        terms = {(e,): FieldElement(mod.tower, c) for e, c in enumerate(r) if not ring.is_zero(c)}
        return AlgebraElement(self.algebra, terms)

    def _check(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise StructuralError("elements of different algebras")
            return other
        return self.algebra.scalar(other)

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return AlgebraElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        z = AlgebraElement(self.algebra, {e: c for e, c in out.items() if not c.is_zero})
        return z._reduce() if self.algebra.is_quotient else z

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, operator.mul, self.algebra.one())

    def scale(self, alpha) -> "AlgebraElement":
        alpha = self.algebra.valuation.coerce(alpha)
        if alpha.is_zero:
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {e: alpha * c for e, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            try:
                other = self._check(other)
            except StructuralError:
                return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms.keys(), reverse=True):
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n for n, k in zip(self.algebra.names, e) if k
            )
            c = str(self.terms[e])
            if any(op in c for op in (" + ", " - ", "/")):
                c = f"({c})"
            pieces.append(f"{c}*{mono}" if mono else c)
        return " + ".join(pieces)


# ---------------------------------------------------------------------------
# Randomized norm verification


@dataclass
class NormCheckReport:
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render_lines(self) -> list[str]:
        out = [f"norm checks: {self.checks} run, {len(self.violations)} violations"]
        out.extend(f"  violation: {v}" for v in self.violations)
        return out


# Entries kept per tower in ``FieldTower.term_reps``; over a large F_p the
# keys are many, and terms past the limit are built without being kept.
TERM_TABLE_LIMIT = 4096


def random_field_element(tower: FieldTower, rng: random.Random, size: int = 2) -> FieldElement:
    """A small random tower element (sum of generator monomials).

    Each term c * (product of the chosen generators) is drawn as c, then one
    bit per generator, and its rep is looked up in ``tower.term_reps``."""
    ring = tower.ring
    table = tower.term_reps
    out = None
    for _ in range(size):
        c = rng.randrange(-3, 4) if tower.char == 0 else rng.randrange(tower.char)
        mask = 0
        for i in range(tower.level):
            mask |= rng.randrange(0, 2) << i
        term = table.get((c, mask))
        if term is None:
            term = ring.from_int(c)
            for i, name in enumerate(tower.gen_names):
                if mask >> i & 1:
                    term = ring.mul(term, tower.gen(name).rep)
            if len(table) < TERM_TABLE_LIMIT:
                table[c, mask] = term
        out = term if out is None else ring.add(out, term)
    return FieldElement(tower, ring.zero if out is None else out)


def random_fraction_element(
    valuation: MonomialValuation, rng: random.Random, spread: int = 2
) -> FieldElement:
    """A random element of the fraction field with values spread around 0."""
    n = valuation.rank
    terms = {}
    for _ in range(3):
        exps = tuple(rng.randrange(0, spread + 1) for _ in range(n))
        terms[exps] = random_field_element(valuation.coefficient_field, rng, 1)
    den = tuple(rng.randrange(0, spread + 1) for _ in range(n))
    out = valuation.from_terms(terms, den)
    if out.is_zero:
        return valuation.function_field.one()
    return out


def check_algebra_norm(
    algebra: FreeAlgebra,
    rng: random.Random | None = None,
    samples: int = 40,
    sampler: Callable[[random.Random], AlgebraElement] | None = None,
) -> NormCheckReport:
    """Randomized verification of the algebra-norm laws.

    Checks, with witnesses on failure: the norm of a scalar is the value of
    the scalar; the norm of a product is bounded by the sum of norms
    (additive form); sampled units of the algebra have neutral norm.
    """
    rng = rng or random.Random(0)
    v = algebra.valuation
    report = NormCheckReport()

    def sample(r):
        if sampler is not None:
            return sampler(r)
        terms = {}
        width = algebra.rank if algebra.is_quotient else 3
        for _ in range(2):
            exps = tuple(rng.randrange(0, max(2, width)) for _ in algebra.names)
            terms[exps] = random_fraction_element(v, r)
        return algebra.element(terms)

    neutral = v.group.neutral()
    for _ in range(samples):
        alpha = random_fraction_element(v, rng)
        report.checks += 1
        if not algebra.norm(algebra.scalar(alpha)) == v.value(alpha):
            report.violations.append(f"scalar norm mismatch at alpha={alpha}")
        z = sample(rng)
        w = sample(rng)
        report.checks += 1
        lhs = algebra.norm(z * w)
        rhs = algebra.norm(z).mul(algebra.norm(w))
        if not lhs.additive_ge(rhs):
            report.violations.append(f"submultiplicativity fails: z={z}, w={w}")
        # scalar units always exist; quotient generators are units when the
        # modulus has unit constant term
        u = None
        alpha_unit = random_fraction_element(v, rng)
        if not alpha_unit.is_zero and v.is_unit(alpha_unit):
            u = algebra.scalar(alpha_unit)
        if u is not None:
            report.checks += 1
            if not algebra.norm(u) == neutral:
                report.violations.append(f"unit with non-neutral norm: {u}")
    if algebra.is_quotient:
        f0 = algebra.modulus.coeff(0)
        if not f0.is_zero and v.is_unit(f0):
            theta = algebra.gen(algebra.names[0])
            d = algebra.rank
            cof = algebra.zero()
            for i in range(1, d + 1):
                c = algebra.modulus.coeff(i)
                if not c.is_zero:
                    cof = cof + theta ** (i - 1) * algebra.scalar(c)
            theta_inv = cof.scale(-f0.inv())
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

    def render_lines(self) -> list[str]:
        out = [f"reduced: {self.reduced}", f"  {self.certificate}"]
        if self.nilpotent_residue is not None:
            out.append(f"  nilpotent witness in residual algebra: {self.nilpotent_residue}")
        return out


def is_reduced_lift(algebra: FreeAlgebra) -> ReducedLift:
    """Decide reducedness of A/mA; a reduced residual algebra certifies A
    reduced, a non-reduced one comes with an explicit nilpotent witness."""
    if not algebra.is_quotient:
        return ReducedLift(
            True, "residual algebra is a polynomial ring over a field, hence a domain"
        )
    rbar = algebra.residual_minpoly()
    if rbar.degree() != algebra.rank:
        raise DomainError("modulus degenerates modulo the maximal ideal")
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
    residue_gen_names: tuple[str, ...]

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
    residue_gen_names: Sequence[str] | None = None,
) -> GaussExtension:
    """Extend the valuation through the norm of a free algebra.

    Requires the residual algebra A/mA to be integral: automatic for
    polynomial algebras, and equivalent to irreducibility of the residual
    modulus for quotients (decided by factorization; unsupported coefficient
    fields surface as capability errors rather than guesses).
    """
    if algebra.valuation != valuation:
        raise StructuralError("algebra is not over the given valuation")
    field = valuation.coefficient_field
    if residue_gen_names is None:
        residue_gen_names = tuple(f"{n}_res" for n in algebra.names)
    else:
        residue_gen_names = tuple(residue_gen_names)
        if len(residue_gen_names) != len(algebra.names):
            raise StructuralError("one residue generator name per indeterminate")
    if not algebra.is_quotient:
        tower = field
        for name in residue_gen_names:
            tower = tower.extend_transcendental(name)
        return GaussExtension(valuation, algebra, tower, residue_gen_names)
    rbar = algebra.residual_minpoly()
    if rbar.degree() != algebra.rank:
        raise DomainError("modulus degenerates modulo the maximal ideal")
    if rbar.degree() == 1:
        # A/mA is F itself; nothing to adjoin
        return GaussExtension(valuation, algebra, field, ())
    fac = poly_mod.factor(rbar)
    if len(fac.factors) != 1 or fac.factors[0][1] != 1:
        pieces = " * ".join(f"({g})^{m}" for g, m in fac.factors)
        raise PreconditionError(
            f"residual algebra is not integral: modulus factors as {pieces}"
        )
    tower = field.extend_algebraic(
        residue_gen_names[0], rbar.univariate_coeffs(), check=False
    )
    return GaussExtension(valuation, algebra, tower, residue_gen_names)
