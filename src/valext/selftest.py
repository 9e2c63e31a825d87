"""Embedded golden corpus and randomized property suites.

``valext selftest`` runs every golden case (fixed expected values, seed
independent) and the property suites (randomized, driven by one seed).  The
pytest suite exercises the same material in more depth; this module is the
self-contained harness the CLI ships with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import poly as poly_mod
from .builder import (
    ExtensionScenario,
    build_general,
    build_strictly_maximal,
    spectrum_correspondence,
    verify_weakly_unramified,
)
from .cli import parse_scenario
from .compositum import (
    base_change_maximality_check,
    degree_bookkeeping,
    separable_transfer_check,
    subfield_maximality_check,
    tensor_decompose,
)
from .errors import CapabilityError
from .fields import (
    FieldTower,
    is_radicial,
    perfect_closure_truncated,
    pth_root,
)
from .norms import (
    FreeAlgebra,
    check_algebra_norm,
    gauss_extend,
    is_reduced_lift,
    random_field_element,
    random_fraction_element,
)
from .valuations import MonomialValuation, hensel_factor_lift
from .value_groups import ValueGroup, is_p_torsion_quotient


def _check(cond, msg="golden value mismatch"):
    if not cond:
        raise AssertionError(msg)


# -- shared fixtures ---------------------------------------------------------


def _rationals():
    return FieldTower.rationals()


def _q_i():
    q = _rationals()
    return q.extend_algebraic("i", [1, 0, 1])


def _f2_a_r():
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    return f2a.extend_algebraic("r", [f2a.gen("a"), f2a.zero(), f2a.one()])


# -- golden cases -------------------------------------------------------------


def _case_value_group():
    g = ValueGroup(2, 1, 0)
    zero = g.zero_value()
    a = g.element([1, 0])
    b = g.element([0, 5])
    _check(zero.compare(g.element([0, 0])) < 0)
    _check(a.compare(b) > 0)
    g1 = ValueGroup(1, 2, 1)
    _check(g1.element([Fraction(1, 2)]).compare(g1.element([1])) < 0)
    gz = ValueGroup(1, 1, 0)
    _check(gz.element([1]).mul(gz.element([2])) == gz.element([3]))
    _check(gz.zero_value().mul(gz.element([7])).is_zero)
    _check(g.element([1, -2]).inv() == g.element([-1, 2]))
    _check(ValueGroup(2, 2, 1).element([1, Fraction(-1, 2)]).render() == "(1, -1/2)")


def _case_p_torsion():
    z = ValueGroup(1, 2, 0)
    half = ValueGroup(1, 2, 1)
    third = ValueGroup(1, 3, 1)
    _check(is_p_torsion_quotient(z, half, 2) is True)
    _check(is_p_torsion_quotient(z, z, 2) is True)
    _check(is_p_torsion_quotient(ValueGroup(1, 3, 0), third, 2) is False)


def _case_field_arithmetic():
    qi = _q_i()
    i = qi.gen("i")
    _check(i * i == qi.from_int(-1))
    f2ar = _f2_a_r()
    _check(f2ar.gen("r") ** 2 == f2ar.embed(f2ar.prefix(1).gen("a")))
    qx = _rationals().extend_transcendental("x")
    x = qx.gen("x")
    _check((x + 1) / x + 1 / x == (x + 2) / x)


def _case_separability():
    # the flag that extend_algebraic sets on each new step
    for base, text, separable in (
        (_rationals(), "y^2 + 1", True),
        (FieldTower.prime_field(2).extend_transcendental("a"), "y^2 + a", False),
        (FieldTower.prime_field(2), "y^3 + y + 1", True),
    ):
        f = poly_mod.Polynomial.parse(text, base, ("y",))
        _check(base.extend_algebraic("w", f.univariate_coeffs()).steps[-1].separable is separable)


def _case_radiciality():
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    f2ar = _f2_a_r()
    _check(is_radicial(f2a, f2ar) is True)
    q = _rationals()
    _check(is_radicial(q, _q_i()) is False)
    f2ax = f2a.extend_transcendental("x")
    _check(is_radicial(f2a, f2ax) is False)


def _case_perfect_closure():
    f2 = FieldTower.prime_field(2)
    _check(perfect_closure_truncated(f2, 3) == f2)
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    c = perfect_closure_truncated(f2a, 1)
    _check(c.extension_degree(1) == 2)
    _check(pth_root(c.gen("a")) is not None)
    f3st = FieldTower.prime_field(3).extend_transcendental("s").extend_transcendental("t")
    c2 = perfect_closure_truncated(f3st, 1)
    _check(c2.extension_degree(2) == 9)
    _check(is_radicial(f3st, c2) is True)


def _case_gcd():
    q = _rationals()
    f = poly_mod.Polynomial.parse("y^2 - 1", q, ("y",))
    g = poly_mod.Polynomial.parse("y - 1", q, ("y",))
    _check(poly_mod.gcd(f, g) == g)
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    f = poly_mod.Polynomial.parse("y^2 + a", f2a, ("y",))
    _check(poly_mod.gcd(f, f.derivative()) == f.monic())
    f3 = FieldTower.prime_field(3)
    f = poly_mod.Polynomial.parse("y^3 + y", f3, ("y",))
    g = poly_mod.Polynomial.parse("y^2 + 1", f3, ("y",))
    _check(poly_mod.gcd(f, g) == g)


def _case_squarefree():
    q = _rationals()
    f = poly_mod.Polynomial.parse("(y - 1)^2 * (y + 1)", q, ("y",))
    part, mults = poly_mod.squarefree_part(f)
    _check(part == poly_mod.Polynomial.parse("y^2 - 1", q, ("y",)))
    _check(sorted(m for _, m in mults) == [1, 2])
    f2ar = _f2_a_r()
    f = poly_mod.Polynomial.parse("y^2 + a", f2ar, ("y",))
    part, mults = poly_mod.squarefree_part(f)
    _check(len(mults) == 1 and mults[0][1] == 2)
    _check(str(part) == "y + r")
    f = poly_mod.Polynomial.parse("y^2 + 1", q, ("y",))
    part, mults = poly_mod.squarefree_part(f)
    _check(part == f and all(m == 1 for _, m in mults))


def _case_factor():
    qi = _q_i()
    fac = poly_mod.factor(poly_mod.Polynomial.parse("y^2 + 1", qi, ("y",)))
    _check([str(g) for g, _ in fac.factors] == ["y - i", "y + i"])
    _check(fac.expand() == poly_mod.Polynomial.parse("y^2 + 1", qi, ("y",)))
    q = _rationals()
    fac = poly_mod.factor(poly_mod.Polynomial.parse("y^2 + 1", q, ("y",)))
    _check(len(fac.factors) == 1 and fac.factors[0][1] == 1)
    f2 = FieldTower.prime_field(2)
    fac = poly_mod.factor(poly_mod.Polynomial.parse("y^4 + 1", f2, ("y",)))
    _check(len(fac.factors) == 1 and fac.factors[0][1] == 4)
    _check(str(fac.factors[0][0]) == "y + 1")


def _case_values():
    f3 = FieldTower.prime_field(3)
    v = MonomialValuation(f3, ["x"])
    x = v.function_field.gen("x")
    _check(v.value(x).render() == "(1)")
    q = _rationals()
    v2 = MonomialValuation(q, ["x1", "x2"])
    x1, x2 = v2.function_field.gen("x1"), v2.function_field.gen("x2")
    _check(v2.value(x1**2 + x1 * x2).render() == "(1, 1)")
    _check(v.value((x + 1) / x).render() == "(-1)")


def _case_residues():
    q = _rationals()
    v = MonomialValuation(q, ["x"])
    x = v.function_field.gen("x")
    _check(v.residue(3 + x) == q.from_int(3))
    _check(v.residue((1 + x) / (1 - x)) == q.one())
    _check(v.residue(x).is_zero)


def _case_prime_chain():
    q = _rationals()
    chain = MonomialValuation(q, ["x"]).prime_chain()
    _check(len(chain) == 2)
    _check(chain[0].gen_names == ("x",))
    _check(chain[1] == q)
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    chain = MonomialValuation(f2a, ["x1", "x2"]).prime_chain()
    _check(len(chain) == 3)
    _check(chain[1].gen_names == ("a", "x2"))
    chain = MonomialValuation(q, ["x1", "x2", "x3"]).prime_chain()
    _check(len(chain) == 4)


def _case_hensel():
    q_s2 = _rationals().extend_algebraic("s2", [-2, 0, 1])
    v = MonomialValuation(q_s2, ["x1", "x2"])
    k = v.function_field
    f = poly_mod.Polynomial.parse("(y - s2) * (y + s2) * (y - 1)", k, ("y",))
    lift = hensel_factor_lift(v, f)
    _check(not lift.refused and lift.factors[0] * lift.factors[1] * lift.factors[2] == f)
    _check(sorted(str(g) for g in lift.factors) == ["y + s2", "y - 1", "y - s2"])
    v = MonomialValuation(FieldTower.prime_field(3), ["x"])
    k = v.function_field
    x = k.gen("x")
    f_irr = poly_mod.Polynomial.from_coeffs(k, "y", [k.one(), k.zero(), k.one()])
    _check(hensel_factor_lift(v, f_irr).factors == [f_irr])
    f_bad = poly_mod.Polynomial.from_coeffs(k, "y", [-x, k.zero(), k.one()])
    _check(hensel_factor_lift(v, f_bad).refused)
    # residual y^2 - 1 splits, but the constant term -(1 + x) is not in F3
    f_open = poly_mod.Polynomial.from_coeffs(k, "y", [-(1 + x), k.zero(), k.one()])
    try:
        hensel_factor_lift(v, f_open)
    except CapabilityError:
        pass
    else:
        raise AssertionError("a split under a non-constant coefficient was lifted")


def _module(v: MonomialValuation, rank: int) -> FreeAlgebra:
    """The free V-module of the given rank, as V[e]/(e^rank)."""
    e_rank = poly_mod.Polynomial.from_coeffs(v.function_field, "e", [0] * rank + [1])
    return FreeAlgebra.quotient(v, e_rank)


def _in_module(v: MonomialValuation, z) -> bool:
    """Membership read off the coefficients, not through the norm."""
    return all(v.in_ring(c) for c in z.univariate_coeffs())


def _case_module_norm():
    f3 = FieldTower.prime_field(3)
    v = MonomialValuation(f3, ["x"])
    x = v.function_field.gen("x")
    e = _module(v, 2)
    _check(e.norm(e.zero()).is_zero)
    _check(e.norm(e.element({0: x**2, 1: x.inv()})) == v.group.element([-1]))
    z = e.element({0: 1, 1: x})
    _check(e.norm(z) == v.group.neutral() and _in_module(v, z))


def _case_unit_part():
    f3 = FieldTower.prime_field(3)
    v = MonomialValuation(f3, ["x"])
    x = v.function_field.gen("x")
    e = _module(v, 2)
    a, z1 = e.unit_part_factor(e.element({0: x**2, 1: x**3}))
    _check(a == x**2 and z1 == e.element({0: 1, 1: x}))
    a, z1 = e.unit_part_factor(e.element({0: 1}))
    _check(a == v.function_field.one())
    a, z1 = e.unit_part_factor(e.element({0: x.inv(), 1: 1}))
    _check(a == x.inv() and z1 == e.element({0: 1, 1: x}))


def _case_algebra_norm():
    f2 = FieldTower.prime_field(2)
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    report = check_algebra_norm(a, samples=20)
    _check(report.passed, "; ".join(report.violations))
    x = v.function_field.gen("x")
    _check(a.norm(a.scalar(x**3)) == v.value(x**3))


def _case_reduced_lift():
    q = _rationals()
    v = MonomialValuation(q, ["x"])
    k = v.function_field
    a = FreeAlgebra.quotient(v, poly_mod.Polynomial.from_coeffs(k, "y", [1, 0, 1]))
    _check(is_reduced_lift(a).reduced)
    f = _f2_a_r()
    vf = MonomialValuation(f, ["x"])
    kf = vf.function_field
    aw = FreeAlgebra.quotient(
        vf, poly_mod.Polynomial.from_coeffs(kf, "w", [-kf.gen("a"), kf.zero(), kf.one()])
    )
    lift = is_reduced_lift(aw)
    _check(not lift.reduced and str(lift.nilpotent_residue) == "w + r")
    apoly = FreeAlgebra.polynomial(vf, "y")
    _check(is_reduced_lift(apoly).reduced)


def _case_gauss_extend():
    f2 = FieldTower.prime_field(2)
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    x = v.function_field.gen("x")
    z = a.element({2: x, 1: 1, 0: x**3})
    _check(a.norm(z) == v.group.neutral())
    h1 = a.element({1: 1, 0: x})
    h2 = a.element({1: 1, 0: x**2})
    _check(a.norm(h1 * h2) == a.norm(h1).mul(a.norm(h2)))
    ext = gauss_extend(a, "ybar")
    _check(ext.group == v.group)
    _check(ext.residue_field.gen_names == ("ybar",))


def _case_compositum_points():
    qi = _q_i()
    pts = tensor_decompose(qi, qi, 0)
    _check(len(pts) == 2 and all(p.strictly_maximal for p in pts))
    _check(degree_bookkeeping(pts) == (2, 2))
    f2ar = _f2_a_r()
    pts = tensor_decompose(f2ar, f2ar, 1)
    _check(len(pts) == 1 and pts[0].multiplicity == 2)
    _check(not pts[0].strictly_maximal)
    q = _rationals()
    pts = tensor_decompose(q.extend_transcendental("x"), _q_i(), 0)
    _check(len(pts) == 1 and pts[0].strictly_maximal)


def _case_separable_transfer():
    q = _rationals()
    ls = q.extend_algebraic("s2", [-2, 0, 1])
    mx = q.extend_transcendental("x")
    pts = tensor_decompose(ls, mx, 0)
    rep = separable_transfer_check(pts[0])
    _check(rep.passed)


def _case_remark_witness():
    # K = F2(a), L = K(x), M = K(t) with t playing x + a^(1/2),
    # E = K(a^(1/2))(x); L/K separable, E/M inseparable of degree 2
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    l_tower = f2a.extend_transcendental("x")
    _check(all(not s.is_algebraic for s in l_tower.steps[1:]))  # L/K separable
    m_tower = f2a.extend_transcendental("t")
    e_over_m = m_tower.extend_algebraic(
        "rt", [m_tower.gen("a"), m_tower.zero(), m_tower.one()]
    )
    _check(e_over_m.extension_degree(m_tower.level) == 2)
    _check(e_over_m.steps[-1].separable is False)
    # the realized tensor point is a different, strictly maximal one
    pts = tensor_decompose(l_tower, m_tower, 1)
    _check(len(pts) == 1 and pts[0].strictly_maximal)
    _check(pts[0].degree_over_right() is None)


def _case_subfield_maximality():
    q = _rationals()
    ls = q.extend_algebraic("s2", [-2, 0, 1]).extend_transcendental("x")
    m = q.extend_algebraic("s2", [-2, 0, 1])
    pts = tensor_decompose(ls, m, 0)
    rep = subfield_maximality_check(pts[0], 1)
    _check(rep.passed)
    rep0 = subfield_maximality_check(pts[0], 0)
    _check(rep0.passed and rep0.restricted_field == m)


def _case_base_change():
    qi = _q_i()
    l = qi.extend_transcendental("x")
    m = qi.extend_transcendental("t")
    pts = tensor_decompose(l, m, 1)
    rep = base_change_maximality_check(pts[0], 0)
    _check(rep.passed)
    f2ar = _f2_a_r()
    l2 = f2ar.extend_transcendental("x")
    m2 = f2ar.extend_transcendental("t")
    pts2 = tensor_decompose(l2, m2, 2)
    rep2 = base_change_maximality_check(pts2[0], 1)
    _check(rep2.passed and rep2.multiplicity_over_k0 == 2)


def _golden_scenario(name: str) -> ExtensionScenario:
    return parse_scenario(GOLDEN_SCENARIOS[name]).to_extension_scenario()


def _case_builder_rank1():
    built = build_strictly_maximal(_golden_scenario("rank1_qi"))
    _check(built.group_delta == built.group_gamma)
    _check(built.residue_field.extension_degree() == 2)
    spec = spectrum_correspondence(built)
    _check(spec.passed and len(spec.chain_base) == 2 == len(spec.chain_ext))
    _check(spec.separable_over_base and spec.separable_over_kprime)
    _check(verify_weakly_unramified(built, samples=40).passed)


def _case_builder_identity():
    q = _rationals()
    v = MonomialValuation(q, ["x"])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=q))
    _check(built.valuation_w == v and built.residue_field == q)


def _case_builder_rank2():
    built = build_strictly_maximal(_golden_scenario("rank2_sqrt2"))
    spec = spectrum_correspondence(built)
    _check(spec.passed and len(spec.chain_base) == 3 == len(spec.chain_ext))
    _check(spec.separable_over_kprime)
    built_t = build_strictly_maximal(_golden_scenario("rank2_trans"))
    _check(built_t.residue_field.gen_names == ("t",))
    _check(built_t.group_delta == built_t.group_gamma)


def _case_builder_general():
    built = build_general(_golden_scenario("char2_trunc"))
    _check(built.group_delta.denominator == 2)
    _check(built.p_torsion_ok is True and built.radicial_ok is True)
    _check(len(built.scenario.valuation.prime_chain()) == 2 == len(built.valuation_w.prime_chain()))
    _check(not built.weakly_unramified_over_input)
    _check(verify_weakly_unramified(built, samples=30).passed)


GOLDEN_CASES: list[tuple[str, Callable[[], None]]] = [
    ("value-group-laws", _case_value_group),
    ("p-torsion-quotients", _case_p_torsion),
    ("field-arithmetic", _case_field_arithmetic),
    ("separability-steps", _case_separability),
    ("radiciality", _case_radiciality),
    ("perfect-closure", _case_perfect_closure),
    ("gcd", _case_gcd),
    ("squarefree", _case_squarefree),
    ("factor", _case_factor),
    ("monomial-values", _case_values),
    ("residues", _case_residues),
    ("prime-chain", _case_prime_chain),
    ("hensel-lift", _case_hensel),
    ("module-norm", _case_module_norm),
    ("unit-part", _case_unit_part),
    ("algebra-norm", _case_algebra_norm),
    ("reduced-lift", _case_reduced_lift),
    ("gauss-extension", _case_gauss_extend),
    ("compositum-points", _case_compositum_points),
    ("separable-transfer", _case_separable_transfer),
    ("inseparable-compositum-witness", _case_remark_witness),
    ("subfield-maximality", _case_subfield_maximality),
    ("base-change-maximality", _case_base_change),
    ("builder-rank1", _case_builder_rank1),
    ("builder-identity", _case_builder_identity),
    ("builder-rank2", _case_builder_rank2),
    ("builder-general", _case_builder_general),
]


# -- property suites -----------------------------------------------------------


def _suite_value_group_order(rng: random.Random):
    g = ValueGroup(2, 2, 1)
    vals = [g.zero_value()] + [
        g.element([Fraction(rng.randrange(-8, 9), 2), Fraction(rng.randrange(-8, 9), 2)])
        for _ in range(60)
    ]
    for _ in range(200):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        _check((a.compare(b) < 0) + (a.compare(b) == 0) + (a.compare(b) > 0) == 1)
        if a.compare(b) <= 0 and b.compare(c) <= 0:
            _check(a.compare(c) <= 0)
        if not (a.is_zero or b.is_zero or c.is_zero):
            if a.compare(b) <= 0:
                _check(a.mul(c).compare(b.mul(c)) <= 0)
        _check(g.zero_value().mul(a).is_zero)


def _suite_field_axioms(rng: random.Random):
    towers = [
        _q_i(),
        _f2_a_r(),
        _rationals().extend_transcendental("x"),
    ]
    for tower in towers:
        elems = [random_field_element(tower, rng, 3) for _ in range(8)]
        for _ in range(40):
            a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            _check((a + b) + c == a + (b + c))
            _check(a * (b + c) == a * b + a * c)
            _check(a * b == b * a)
            if not a.is_zero:
                _check(a * a.inv() == tower.one())


def _suite_norm_axioms(rng: random.Random):
    f5 = FieldTower.prime_field(5)
    v = MonomialValuation(f5, ["x"])
    e = _module(v, 3)
    for _ in range(120):
        z = e.element({i: random_fraction_element(v, rng) for i in range(3)})
        w = e.element({i: random_fraction_element(v, rng) for i in range(3)})
        _check(e.norm(z + w).additive_ge(e.norm(z).additive_min(e.norm(w))))
        _check(e.norm(z).is_zero == (z == e.zero()))
        _check(e.norm(z).is_nonnegative() == _in_module(v, z))
        alpha = random_fraction_element(v, rng)
        _check(e.norm(z.scale(alpha)) == v.value(alpha).mul(e.norm(z)))


def _suite_gauss_multiplicativity(rng: random.Random):
    f5 = FieldTower.prime_field(5)
    v = MonomialValuation(f5, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    for _ in range(100):
        z = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        w = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        _check(a.norm(z * w) == a.norm(z).mul(a.norm(w)))


def _suite_valuation_axioms(rng: random.Random):
    q = _rationals()
    v = MonomialValuation(q, ["x1", "x2"])
    for _ in range(100):
        z = random_fraction_element(v, rng)
        w = random_fraction_element(v, rng)
        _check(v.value(z * w) == v.value(z).mul(v.value(w)))
        _check(v.value(z + w).additive_ge(v.value(z).additive_min(v.value(w))))
        if v.value(z) != v.value(w):
            _check(v.value(z + w) == v.value(z).additive_min(v.value(w)))
        if v.in_ring(z) and v.in_ring(w):
            _check(v.residue(z * w) == v.residue(z) * v.residue(w))


PROPERTY_SUITES: list[tuple[str, Callable[[random.Random], None]]] = [
    ("value-group-total-order", _suite_value_group_order),
    ("field-axioms", _suite_field_axioms),
    ("module-norm-axioms", _suite_norm_axioms),
    ("gauss-norm-multiplicativity", _suite_gauss_multiplicativity),
    ("valuation-axioms", _suite_valuation_axioms),
]


# -- golden CLI scenarios --------------------------------------------------------

GOLDEN_SCENARIOS: dict[str, str] = {
    "rank1_qi": """\
[base]
base: Q
k-prefix: 0

[valuation]
vars: x
order: lex

[extension]
kprime-gens: i: algebraic y^2 + 1
""",
    "rank2_sqrt2": """\
[base]
base: Q
k-prefix: 0

[valuation]
vars: x1, x2
order: lex

[extension]
kprime-gens: s2: algebraic y^2 - 2
""",
    "rank2_trans": """\
[base]
base: Q
k-prefix: 0

[valuation]
vars: x1, x2
order: lex

[extension]
kprime-gens: t: transcendental
""",
    "char2_trunc": """\
[base]
base: F2
gens: a: transcendental; r: algebraic y^2 + a
k-prefix: 1

[valuation]
vars: x
order: lex

[extension]
kprime-gens: s: algebraic y^2 + a

[options]
truncation-N: 1
""",
    "hensel_route": """\
[base]
base: Q
gens: s2: algebraic y^2 - 2
k-prefix: 0

[valuation]
vars: x
order: lex

[extension]
kprime-gens: c: algebraic y^2 - 2
""",
    "decompose_qi": """\
[base]
base: Q
gens: i: algebraic y^2 + 1
k-prefix: 0

[extension]
kprime-gens: j: algebraic y^2 + 1
""",
}


# -- runner -----------------------------------------------------------------------


@dataclass
class SelftestResult:
    passed: list[str] = field(default_factory=list)
    failed: list[tuple[str, str]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def run_selftest(seed: int = 0) -> SelftestResult:
    result = SelftestResult()
    for name, fn in GOLDEN_CASES:
        try:
            fn()
        except Exception as exc:  # report and continue; the harness decides
            result.failed.append((name, str(exc)))
            result.lines.append(f"FAIL golden {name}: {exc}")
        else:
            result.passed.append(name)
            result.lines.append(f"ok   golden {name}")
    for name, fn in PROPERTY_SUITES:
        try:
            fn(random.Random(seed))
        except Exception as exc:
            result.failed.append((name, str(exc)))
            result.lines.append(f"FAIL suite  {name} (seed {seed}): {exc}")
        else:
            result.passed.append(name)
            result.lines.append(f"ok   suite  {name} (seed {seed})")
    result.lines.append(
        f"{len(result.passed)} passed, {len(result.failed)} failed"
    )
    return result
