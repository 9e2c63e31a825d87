"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (no tolerances): the arithmetic is rational or modular
throughout, so equality is the only assertion used.
"""

import io
import itertools
import random

from valext import cli
from valext.builder import (
    ExtensionScenario,
    build_general,
    build_strictly_maximal,
    spectrum_correspondence,
    verify_weakly_unramified,
)
from valext.compositum import degree_bookkeeping, tensor_decompose
from valext.fields import FieldTower, is_radicial
from valext.norms import FreeAlgebra, gauss_extend, is_reduced_lift, random_fraction_element
from valext.poly import Polynomial, factor
from valext.selftest import GOLDEN_SCENARIOS
from valext.valuations import MonomialValuation, hensel_factor_lift


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed"


def test_criterion_1_norm_axiom_suite():
    violations = 0
    checks = 0
    rings = [
        MonomialValuation(FieldTower.prime_field(5), ["x"]),
        MonomialValuation(FieldTower.rationals(), ["x1", "x2"]),
    ]
    for v in rings:
        # the free module V^3, as V[e]/(e^3); membership is read off the
        # coefficients, independently of the norm
        e = FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "e", [0, 0, 0, 1]))
        rng = random.Random(0)
        for _ in range(1000):
            z = e.element({i: random_fraction_element(v, rng) for i in range(3)})
            w = e.element({i: random_fraction_element(v, rng) for i in range(3)})
            alpha = random_fraction_element(v, rng)
            coeffs = z.univariate_coeffs()
            checks += 5
            # (i) ultrametric
            if not e.norm(z + w).additive_ge(e.norm(z).additive_min(e.norm(w))):
                violations += 1
            # (ii) zero element iff zero norm
            if e.norm(z).is_zero != (z == e.zero()):
                violations += 1
            # (iii) unit ball is the module
            if e.norm(z).is_nonnegative() != all(v.in_ring(c) for c in coeffs):
                violations += 1
            # (iv) open ball is the maximal submodule
            in_maximal = all(v.value(c).is_positive() for c in coeffs)
            if z != e.zero() and e.norm(z).is_positive() != in_maximal:
                violations += 1
            # (v) homogeneity
            if not alpha.is_zero and e.norm(z.scale(alpha)) != v.value(alpha).mul(e.norm(z)):
                violations += 1
    _report(
        1,
        f"norm axioms, {checks} exact checks over F5(x)-adic and rank-2 Q rings, "
        f"{violations} violations",
        violations == 0,
    )


def test_criterion_2_gauss_multiplicativity():
    v = MonomialValuation(FieldTower.prime_field(5), ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    ext = gauss_extend(a, "ybar")
    group_ok = ext.group == v.group
    rng = random.Random(1)
    bad = 0
    done = 0
    while done < 1000:
        z = a.element({rng.randrange(4): random_fraction_element(v, rng) for _ in range(2)})
        u = a.element({rng.randrange(4): random_fraction_element(v, rng) for _ in range(2)})
        if z.is_zero or u.is_zero:
            continue
        done += 1
        if a.norm(z * u) != a.norm(z).mul(a.norm(u)):
            bad += 1
    _report(
        2,
        f"Gauss extension multiplicativity on {done} random pairs in V[y], "
        f"group preserved: {group_ok}",
        bad == 0 and group_ok,
    )


def test_criterion_3_reducedness_lift():
    q = FieldTower.rationals()
    vq = MonomialValuation(q, ["x"])
    kq = vq.function_field
    a_red = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [1, 0, 1]))
    reduced_ok = is_reduced_lift(a_red).reduced
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    f = f2a.extend_algebraic("r", [f2a.gen("a"), f2a.zero(), f2a.one()])
    vf = MonomialValuation(f, ["x"])
    kf = vf.function_field
    a_bad = FreeAlgebra.quotient(
        vf, Polynomial.from_coeffs(kf, "w", [-kf.gen("a"), kf.zero(), kf.one()])
    )
    lift = is_reduced_lift(a_bad)
    witness = lift.nilpotent_residue
    rbar = a_bad.residual_minpoly().monic()
    nilpotent_ok = (
        not lift.reduced
        and witness is not None
        and str(witness) == "w + r"
        and not (witness % rbar).is_zero
        and ((witness**2) % rbar).is_zero
    )
    _report(
        3,
        "reduced lift certified for V[y]/(y^2+1) over Q; nilpotent witness "
        f"({witness}) exhibited in the radicial char-2 case",
        reduced_ok and nilpotent_ok,
    )


def test_criterion_4_inseparable_compositum_reproduction():
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    l_tower = f2a.extend_transcendental("x")
    l_separable = all(
        (not s.is_algebraic) or s.separable for s in l_tower.steps[1:]
    )
    m_tower = f2a.extend_transcendental("t")
    e_tower = m_tower.extend_algebraic(
        "rt", [m_tower.gen("a"), m_tower.zero(), m_tower.one()]
    )
    e_over_m_separable = e_tower.steps[-1].separable
    degree = e_tower.extension_degree(m_tower.level)
    _report(
        4,
        f"separable L/K: {l_separable}; E = M(a^(1/2)) with [E:M] = {degree} and "
        f"E/M separable: {e_over_m_separable}",
        l_separable and e_over_m_separable is False and degree == 2,
    )


def test_criterion_5_rank1_instance():
    q = FieldTower.rationals()
    v = MonomialValuation(q, ["x"])
    kprime = q.extend_algebraic("i", [1, 0, 1])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kprime))
    delta_ok = built.group_delta == built.group_gamma and built.group_delta.rank == 1
    f1_ok = (
        built.residue_field.extension_degree() == 2
        and built.kprime_hom().verify()
        and built.residue_field == kprime
    )
    spec = spectrum_correspondence(built)
    pairs_ok = (
        len(spec.chain_base) == 2
        and len(spec.chain_ext) == 2
        and spec.strictly_maximal
        and spec.iso_verified
        and spec.separable_over_base
    )
    weak_ok = verify_weakly_unramified(built, samples=200).passed
    _report(
        5,
        "k=Q, V x-adic on Q(x), k'=Q(i): delta = Z, F1 = Q(i), 2 <-> 2 primes, "
        "strictly maximal separable residue pairs",
        delta_ok and f1_ok and pairs_ok and weak_ok,
    )


def test_criterion_6_rank2_instance():
    q = FieldTower.rationals()
    v = MonomialValuation(q, ["x1", "x2"])
    kprime = q.extend_algebraic("s2", [-2, 0, 1])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kprime))
    delta_ok = built.group_delta == built.group_gamma and built.group_delta.rank == 2
    spec = spectrum_correspondence(built)
    pairs_ok = (
        len(spec.chain_base) == 3
        and len(spec.chain_ext) == 3
        and spec.strictly_maximal
        and spec.iso_verified
        and spec.separable_over_kprime
    )
    _report(
        6,
        "k'=Q(sqrt2), rank-2 V: delta = Z^2 lex, 3 <-> 3 primes, residue "
        "separability over k' at every prime",
        delta_ok and pairs_ok,
    )


def test_criterion_7_truncated_closure_instance():
    f2a = FieldTower.prime_field(2).extend_transcendental("a")
    f = f2a.extend_algebraic("r", [f2a.gen("a"), f2a.zero(), f2a.one()])
    v = MonomialValuation(f, ["x"])
    kprime = f2a.extend_algebraic("s", [f2a.gen("a"), f2a.zero(), f2a.one()])
    scn = ExtensionScenario(valuation=v, k_len=1, kprime=kprime, truncation=1)
    built = build_general(scn)
    torsion_ok = built.p_torsion_ok is True
    counts = (len(v.prime_chain()), len(built.valuation_w.prime_chain()))
    radicial_ok = built.radicial_ok is True and is_radicial(f, built.residue_field)
    weak_ok = verify_weakly_unramified(built, samples=100).passed
    _report(
        7,
        f"char-2 non-reduced case at N=1: delta/gamma 2-torsion {torsion_ok}, "
        f"primes {counts[0]} <-> {counts[1]}, F1 radicial over k'F {radicial_ok}",
        torsion_ok and counts == (2, 2) and radicial_ok and weak_ok,
    )


def _brute_force_factors_f5(coeffs5):
    """Independent oracle: trial division by monic divisors over F5, plain ints."""

    def divmod5(a, b):
        a = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        inv = pow(b[-1], -1, 5)
        while len(a) >= len(b):
            c = a[-1] * inv % 5
            k = len(a) - len(b)
            q[k] = c
            for i, x in enumerate(b):
                a[k + i] = (a[k + i] - c * x) % 5
            while a and a[-1] == 0:
                a.pop()
        return q, a

    f = [c % 5 for c in coeffs5]
    inv = pow(f[-1], -1, 5)
    f = [c * inv % 5 for c in f]
    out = []
    deg = 1
    while len(f) - 1 > 0 and deg <= len(f) - 1:
        found = False
        for tail in itertools.product(range(5), repeat=deg):
            cand = list(tail) + [1]
            q, r = divmod5(f, cand)
            if not r:
                mult = 0
                while True:
                    q, r = divmod5(f, cand)
                    if r:
                        break
                    f = q
                    mult += 1
                out.append((tuple(cand), mult))
                found = True
                break
        if not found:
            deg += 1
    return sorted(out)


def test_criterion_8_factorization_oracle():
    f5 = FieldTower.prime_field(5)
    rng = random.Random(8)
    mismatches = 0
    for _ in range(200):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(5) for _ in range(deg)] + [1]
        f = Polynomial.from_coeffs(f5, "y", [f5.from_int(c) for c in coeffs])
        fac = factor(f)
        got = sorted(
            (tuple(int(c.rep) for c in g.univariate_coeffs()), m) for g, m in fac.factors
        )
        if got != _brute_force_factors_f5(coeffs):
            mismatches += 1
    # compositum bookkeeping: point counts match factor counts, degrees add up
    bookkeeping_ok = True
    for _ in range(10):
        while True:
            deg = rng.randrange(2, 4)
            coeffs = [f5.from_int(rng.randrange(5)) for _ in range(deg)] + [f5.one()]
            f = Polynomial.from_coeffs(f5, "y", coeffs)
            fac = factor(f)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1:
                break
        l_tower = f5.extend_algebraic("u", f.univariate_coeffs())
        pts = tensor_decompose(l_tower, l_tower, 0)
        f_over_l = Polynomial.from_coeffs(
            l_tower, "y", [l_tower.embed(c) for c in f.univariate_coeffs()]
        )
        if len(pts) != len(factor(f_over_l).factors):
            bookkeeping_ok = False
        if degree_bookkeeping(pts) != (f.degree(), f.degree()):
            bookkeeping_ok = False
    _report(
        8,
        f"200 random monic polynomials over F5 match brute-force divisor "
        f"enumeration ({mismatches} mismatches); compositum degree bookkeeping exact",
        mismatches == 0 and bookkeeping_ok,
    )


def test_criterion_9_hensel_lift():
    q_s2 = FieldTower.rationals().extend_algebraic("s2", [-2, 0, 1])
    ok = True
    for rank in [2, 3]:
        v = MonomialValuation(q_s2, [f"x{j}" for j in range(1, rank + 1)])
        k = v.function_field
        f = Polynomial.parse("(y^2 - 2) * (y - 1)", k, ("y",))
        lift = hensel_factor_lift(v, f)
        # by hand: y^2 - 2 = (y - s2)(y + s2) over Q(s2)
        want = [Polynomial.parse(t, k, ("y",)) for t in ["y - s2", "y + s2", "y - 1"]]
        ok = (
            ok
            and not lift.refused
            and len(lift.factors) == 3
            and all(g in lift.factors for g in want)
            and lift.factors[0] * lift.factors[1] * lift.factors[2] == f
        )
    _report(
        9,
        "factor lift of (y^2 - 2)(y - 1) over Q(s2)(x1..xn) at ranks 2 and 3 is exact: "
        "the factors y - s2, y + s2, y - 1, product f",
        ok,
    )


def test_criterion_10_determinism(tmp_path):
    all_same = True
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        path = tmp_path / f"{name}.val"
        path.write_text(text)
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli.cmd_extend(str(path), verify=True, out=out, err=err)
            runs.append((code, out.getvalue(), err.getvalue()))
        if runs[0] != runs[1] or runs[0][0] != 0:
            all_same = False
    _report(
        10,
        f"extend byte-identical across two runs on "
        f"{sum('[valuation]' in t for t in GOLDEN_SCENARIOS.values())} golden scenarios",
        all_same,
    )
