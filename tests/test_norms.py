import random
import signal
from fractions import Fraction
from functools import cmp_to_key

import pytest

from valext import norms
from valext.errors import DomainError, PreconditionError, SelfCheckError, StructuralError
from valext.fields import FieldTower
from valext.norms import (
    AlgebraElement,
    FreeAlgebra,
    check_algebra_norm,
    gauss_extend,
    is_reduced_lift,
    random_field_element,
    random_fraction_element,
)
from valext.poly import Polynomial
from valext.valuations import MonomialValuation
from valext.value_groups import ValueWithZero


@pytest.fixture
def v_f5(f5):
    return MonomialValuation(f5, ["x"])


def _module(v, rank):
    """The free V-module of the given rank, as V[e]/(e^rank)."""
    return FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "e", [0] * rank + [1]))


@pytest.fixture
def module(v_f5):
    return _module(v_f5, 3)


def test_norm_examples(f3):
    v = MonomialValuation(f3, ["x"])
    e = _module(v, 2)
    x = v.function_field.gen("x")
    assert e.norm(e.zero()).is_zero
    assert e.norm(e.element({0: x**2, 1: 1 / x})) == v.group.element([-1])
    z = e.element({0: 1, 1: x})
    assert e.norm(z) == v.group.neutral() and all(v.in_ring(c) for c in z.univariate_coeffs())


def test_norm_axiom_suite(module, v_f5):
    rng = random.Random(0)
    e = module
    v = v_f5
    for _ in range(250):
        z = e.element({i: random_fraction_element(v, rng) for i in range(3)})
        w = e.element({i: random_fraction_element(v, rng) for i in range(3)})
        # membership is read off the coefficients, not through the norm
        assert e.norm(z + w).additive_ge(e.norm(z).additive_min(e.norm(w)))
        assert e.norm(z).is_zero == (z == e.zero())
        assert e.norm(z).is_nonnegative() == all(v.in_ring(c) for c in z.univariate_coeffs())
        assert (not e.norm(z).is_zero and e.norm(z).is_positive()) == (
            z != e.zero() and all(v.value(c).is_positive() for c in z.univariate_coeffs())
        )
        alpha = random_fraction_element(v, rng)
        if not alpha.is_zero:
            assert e.norm(z.scale(alpha)) == v.value(alpha).mul(e.norm(z))


def _random_unimodular(v, size, rng):
    """A product of elementary transvections and unit scalings over V."""
    k = v.function_field
    mat = [[k.one() if i == j else k.zero() for j in range(size)] for i in range(size)]

    def matmul(a, b):
        return [
            [sum((a[i][t] * b[t][j] for t in range(size)), k.zero()) for j in range(size)]
            for i in range(size)
        ]

    for _ in range(6):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        t = [[k.one() if p == q else k.zero() for q in range(size)] for p in range(size)]
        entry = random_fraction_element(v, rng)
        if not v.in_ring(entry):
            entry = entry * v.monomial(v.value(entry).inv())
        t[i][j] = entry
        mat = matmul(mat, t)
    u = [[k.one() if p == q else k.zero() for q in range(size)] for p in range(size)]
    for d in range(size):
        c = random_fraction_element(v, rng)
        if not c.is_zero and not v.in_ring(c):
            c = c * v.monomial(v.value(c).inv())
        # 1 + x*c is always a unit of V for c in V
        u[d][d] = k.one() + v.monomial(v.group.element([1])) * c
    return matmul(mat, u)


def test_norm_basis_independence(module, v_f5):
    rng = random.Random(7)
    e, v = module, v_f5
    size = e.rank
    for _ in range(15):
        mat = _random_unimodular(v, size, rng)
        z = [random_fraction_element(v, rng) for _ in range(size)]
        moved = [
            sum((mat[i][j] * z[j] for j in range(size)), v.function_field.zero())
            for i in range(size)
        ]
        before = e.norm(e.element(dict(enumerate(z))))
        after = e.norm(e.element(dict(enumerate(moved))))
        assert before == after


def test_unit_part_factor_examples(f3):
    v = MonomialValuation(f3, ["x"])
    e = _module(v, 2)
    x = v.function_field.gen("x")
    alpha, z1 = e.unit_part_factor(e.element({0: x**2, 1: x**3}))
    assert alpha == x**2 and z1 == e.element({0: 1, 1: x})
    alpha, z1 = e.unit_part_factor(e.element({0: 1}))
    assert alpha == v.function_field.one() and z1 == e.element({0: 1})
    alpha, z1 = e.unit_part_factor(e.element({0: 1 / x, 1: 1}))
    assert alpha == 1 / x and z1 == e.element({0: 1, 1: x})
    with pytest.raises(DomainError):
        e.unit_part_factor(e.zero())


def test_unit_part_factor_is_a_self_check_of_the_norm(f3, monkeypatch):
    # a norm that no coefficient has is the engine's fault, not the input's
    v = MonomialValuation(f3, ["x"])
    e = _module(v, 2)
    x = v.function_field.gen("x")
    monkeypatch.setattr(FreeAlgebra, "norm", lambda self, z: v.group.neutral())
    with pytest.raises(SelfCheckError, match="no coefficient has the norm's value"):
        e.unit_part_factor(e.element({0: x, 1: x**2}))


def test_unit_part_reconstructs(module, v_f5):
    rng = random.Random(9)
    for _ in range(40):
        z = module.element({i: random_fraction_element(v_f5, rng) for i in range(3)})
        if z == module.zero():
            continue
        alpha, z1 = module.unit_part_factor(z)
        assert module.norm(z1) == v_f5.group.neutral()
        assert z1.scale(alpha) == z
        assert v_f5.value(alpha) == module.norm(z)


@pytest.mark.parametrize("modulus", [None, "y^2 + 1", "(y - 1)^2"])
def test_algebra_elements_are_polynomials_reduced_mod_the_modulus(rationals, modulus):
    # each operation in the algebra is the same Polynomial operation followed
    # by % modulus, over V[y], a domain V[y]/(y^2 + 1) and a non-reduced quotient
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    if modulus is None:
        a = FreeAlgebra.polynomial(v, "y")
    else:
        a = FreeAlgebra.quotient(v, Polynomial.parse(modulus, k, ("y",)))

    def reduce(p):
        return p if modulus is None else p % a.modulus

    def draw():
        terms = {rng.randrange(4): random_fraction_element(v, rng) for _ in range(3)}
        p = Polynomial(k, "y", [k.ring.zero] * 4)
        for e, c in terms.items():
            p = p + Polynomial(k, "y", [k.ring.zero] * e + [c.rep])
        return a.element(terms), p

    def same(got, want):
        assert isinstance(got, AlgebraElement) and got.algebra is a
        assert got.reps == reduce(want).reps and str(got) == str(reduce(want))

    rng = random.Random(3)
    for _ in range(60):
        (z, p), (w, q) = draw(), draw()
        alpha = random_fraction_element(v, rng)
        same(z, p)
        same(z + w, p + q)
        same(z - w, p - q)
        same(-z, -p)
        same(z * w, p * q)
        same(z**3, p**3)
        same(z.scale(alpha), p.scale(alpha))
        same(z + alpha, p + alpha)
        if z.is_zero:
            continue
        r = reduce(p)
        values = [v.value(c) for c in r.univariate_coeffs() if not c.is_zero]
        minval = min(values, key=cmp_to_key(ValueWithZero.compare))
        want_alpha = next(c for c in r.univariate_coeffs() if v.value(c) == minval)
        got_alpha, z1 = a.unit_part_factor(z)
        assert got_alpha == want_alpha and a.norm(z) == minval
        same(z1, r.scale(want_alpha.inv()))
    assert a.element({0: 1}) == 1 and not a.element({0: 1}) == 2


def test_an_algebra_element_is_unequal_to_a_scalar_outside_the_field(f3):
    # 1/3 is no element of F_3(x); comparing is False, arithmetic refuses
    a = FreeAlgebra.polynomial(MonomialValuation(f3, ["x"]), "y")
    third = Fraction(1, 3)
    one, y = a.element({0: 1}), a.element({1: 1})
    assert not one == third and one != third and not y == third
    assert a.scalar(2) == Fraction(1, 2)
    with pytest.raises(DomainError):
        one + third


def test_mixing_two_algebras_or_two_modules_is_refused(rationals):
    v = MonomialValuation(rationals, ["x"])
    a, b = FreeAlgebra.polynomial(v, "y"), FreeAlgebra.polynomial(v, "y")
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        with pytest.raises(StructuralError):
            op(a.element({1: 1}), b.element({1: 1}))
    # two modules of equal rank are two modules
    m, n = _module(v, 2), _module(v, 2)
    with pytest.raises(StructuralError):
        m.element({0: 1}) + n.element({0: 1})


def test_an_indeterminate_named_after_a_field_generator_is_refused(rationals):
    # both kinds of algebra refuse it; a quotient in x over Q(x) would
    # otherwise describe itself as V[x]/(x^2 + x) and read its x as two things
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    with pytest.raises(StructuralError, match="clashes with a field generator"):
        FreeAlgebra.polynomial(v, "x")
    with pytest.raises(StructuralError, match="clashes with a field generator"):
        FreeAlgebra.quotient(v, Polynomial.from_coeffs(k, "x", [0, 1, 1]))
    assert FreeAlgebra.quotient(v, Polynomial.from_coeffs(k, "e", [0, 1, 1])).describe() == (
        "V[e]/(e^2 + e)"
    )


def test_check_algebra_norm_polynomial_and_quotient(f2, rationals):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    report = check_algebra_norm(a, samples=30)
    assert report.passed, report.violations
    x = v.function_field.gen("x")
    assert a.norm(a.scalar(x**3)) == v.value(x**3)
    assert a.norm(a.scalar(1 + x)) == v.group.neutral()  # a sampled unit of V
    vq = MonomialValuation(rationals, ["x"])
    kq = vq.function_field
    aq = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [1, 0, 1]))
    report = check_algebra_norm(aq, samples=30)
    assert report.passed, report.violations


_PRODUCT, _NORM = AlgebraElement.__mul__, FreeAlgebra.norm

# one planted fault per law that check_algebra_norm checks, keyed by the
# message of that law: (modulus of the algebra or None, class, attribute, plant)
_PLANTS = {
    "submultiplicativity fails": (
        None, AlgebraElement, "__mul__", lambda z, w: _PRODUCT(z, w).scale(1 / z.tower.gen("x"))
    ),
    "unit with non-neutral norm": (None, MonomialValuation, "is_unit", lambda v, z: True),
    # y * g = -f0 = -1 for f = y^2 + y + 1, so an unscaled g is no inverse
    "generator inverse construction failed": ([1, 1, 1], AlgebraElement, "scale", lambda z, c: z),
    "unit generator with non-neutral norm": (
        [1, 1, 1],
        FreeAlgebra,
        "norm",
        lambda a, z: _NORM(a, z).mul(a.valuation.group.element([1]))
        if z == a.element({1: 1})
        else _NORM(a, z),
    ),
}


@pytest.mark.parametrize("message", sorted(_PLANTS))
def test_check_algebra_norm_reports_each_planted_fault(rationals, monkeypatch, message):
    modulus, cls, name, plant = _PLANTS[message]
    v = MonomialValuation(rationals, ["x"])
    if modulus is None:
        algebra = FreeAlgebra.polynomial(v, "y")
    else:
        algebra = FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "y", modulus))
    assert check_algebra_norm(algebra, samples=30).passed
    monkeypatch.setattr(cls, name, plant)
    violations = check_algebra_norm(algebra, samples=30).violations
    assert message in {text.split(":")[0] for text in violations}


def test_bilinear_multiplication_bound(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    rng = random.Random(4)
    for _ in range(150):
        z = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        w = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        assert a.norm(z * w).additive_ge(a.norm(z).mul(a.norm(w)))


def test_is_reduced_lift_examples(rationals, f2_a_r):
    vq = MonomialValuation(rationals, ["x"])
    kq = vq.function_field
    aq = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [1, 0, 1]))
    assert is_reduced_lift(aq).reduced
    vf = MonomialValuation(f2_a_r, ["x"])
    kf = vf.function_field
    aw = FreeAlgebra.quotient(
        vf, Polynomial.from_coeffs(kf, "w", [-kf.gen("a"), kf.zero(), kf.one()])
    )
    lift = is_reduced_lift(aw)
    assert not lift.reduced
    assert str(lift.nilpotent_residue) == "w + r"
    # witness really is nilpotent and nonzero in the residual algebra
    rbar = aw.residual_minpoly().monic()
    assert not (lift.nilpotent_residue % rbar).is_zero
    assert ((lift.nilpotent_residue ** 2) % rbar).is_zero
    ap = FreeAlgebra.polynomial(vf, "y")
    assert is_reduced_lift(ap).reduced
    # rank-1 quotient: the algebra is V itself
    a1 = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [0, 1]))
    assert a1.rank == 1 and is_reduced_lift(a1).reduced


def test_a_failed_nilpotent_witness_is_a_self_check(rationals, monkeypatch):
    # the squarefree decomposition is planted to call the irreducible
    # modulus y^2 + 1 its own square, so the witness built from it is 0
    v = MonomialValuation(rationals, ["x"])
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "y", [1, 0, 1]))
    monkeypatch.setattr(norms.poly_mod, "squarefree_part", lambda r: (r, [(r, 2)]))
    with pytest.raises(SelfCheckError, match="^nilpotent witness construction failed$"):
        is_reduced_lift(a)


def test_reduced_lift_contrapositive(rationals):
    # a constructed nilpotent upstairs forces a non-reduced residual algebra
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    f = Polynomial.parse("(y - 1)^2", k, ("y",))
    a = FreeAlgebra.quotient(v, f)
    n = a.element({1: 1}) - a.element({0: 1})
    assert not n.is_zero and (n * n).is_zero  # nilpotent in A
    assert not is_reduced_lift(a).reduced


def test_gauss_extend_examples(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    x = v.function_field.gen("x")
    z = a.element({2: x, 1: 1, 0: x**3})  # x y^2 + y + x^3
    assert a.norm(z) == v.group.neutral()
    h1 = a.element({1: 1, 0: x})
    h2 = a.element({1: 1, 0: x**2})
    assert a.norm(h1 * h2) == a.norm(h1).mul(a.norm(h2))
    ext = gauss_extend(a, "ybar")
    assert ext.group == v.group  # same group
    assert ext.residue_field.gen_names == ("ybar",)
    assert ext.residue_field.steps[-1].minpoly is None  # transcendental residue


def test_gauss_extend_multiplicativity_random(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, "y")
    rng = random.Random(12)
    for _ in range(200):
        z = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        w = a.element({rng.randrange(3): random_fraction_element(v, rng) for _ in range(2)})
        if z.is_zero or w.is_zero:
            continue
        assert a.norm(z * w) == a.norm(z).mul(a.norm(w))


def test_gauss_extend_fraction_values_and_ring(rationals):
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(k, "y", [1, 0, 1]))
    ext = gauss_extend(a, "i")
    assert ext.residue_field.extension_degree() == 2
    x = k.gen("x")
    num = a.element({1: x, 0: 1})
    den = a.element({0: x})
    assert ext.value_fraction(num, den) == v.group.element([-1])
    assert not ext.in_ring(num, den)
    assert ext.in_ring(den, num)
    # agreement with the localization: value >= 0 elements rewrite with a
    # norm-neutral denominator
    alpha, u1 = a.unit_part_factor(num)
    assert ext.value(u1) == v.group.neutral()


def test_gauss_extend_requires_integral_residual(rationals):
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(k, "y", [-1, 0, 1]))
    with pytest.raises(PreconditionError) as exc:
        gauss_extend(a)
    assert "factors" in str(exc.value)


def test_gauss_extend_takes_the_proving_factor(rationals, monkeypatch):
    v = MonomialValuation(rationals, ["x"])
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "y", [1, 0, 1]))
    want = gauss_extend(a)
    rbar = Polynomial.from_coeffs(rationals, "t", [1, 0, 1])
    monkeypatch.setattr(norms.poly_mod, "factor", lambda f: pytest.fail("factor was called"))
    got = gauss_extend(a, factor=rbar)
    assert got.residue_field == want.residue_field
    assert got.residue_gen_name == want.residue_gen_name


@pytest.mark.parametrize("factor_of", ["none", "F2", "a factor", "another irreducible"])
def test_gauss_extend_checks_a_factor_that_is_not_the_residual_modulus(
    rationals, f2, monkeypatch, factor_of
):
    # the residual modulus y^2 + y = y(y + 1) is reducible; only a factor with
    # its tower and its reps may stand in for the factorization, and any other
    # is an inconsistency of the caller, not of the modulus
    v = MonomialValuation(rationals, ["x"])
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(v.function_field, "y", [0, 1, 1]))
    factor = {
        "none": None,
        "F2": Polynomial.from_coeffs(f2, "y", [0, 1, 1]),  # equal reps, other tower
        "a factor": Polynomial.from_coeffs(rationals, "y", [1, 1]),
        "another irreducible": Polynomial.from_coeffs(rationals, "y", [1, 0, 1]),
    }[factor_of]
    if factor is None:
        with pytest.raises(PreconditionError, match="factors as"):
            gauss_extend(a)
    else:
        monkeypatch.setattr(norms.poly_mod, "factor", lambda f: pytest.fail("factor was called"))
        with pytest.raises(DomainError, match="not the residual modulus"):
            gauss_extend(a, factor=factor)


def _generic_field_element(tower, rng, size):
    """Oracle: the sampler's draws, each term built as from_int(c) times the
    chosen generators by generic field arithmetic and summed from zero."""
    out = tower.zero()
    for _ in range(size):
        if tower.char == 0:
            term = tower.from_int(rng.randrange(-3, 4))
        else:
            term = tower.from_int(rng.randrange(tower.char))
        for name in tower.gen_names:
            if rng.randrange(0, 2):
                term = term * tower.gen(name)
        out = out + term
    return out


def _sampler_field(request, field_name):
    """A fixture's tower, or one of these: F_7 and Q(i)(s2), s2^2 = 2, and
    F_5(a)(b), whose terms draw two generator bits."""
    if field_name == "f7":
        return FieldTower.prime_field(7)
    if field_name == "q_i_s2":
        return request.getfixturevalue("q_i").extend_algebraic("s2", [-2, 0, 1])
    if field_name == "f5_a_b":
        return request.getfixturevalue("f5").extend_transcendental("a").extend_transcendental("b")
    return request.getfixturevalue(field_name)


# a coefficient is drawn from 3 bits, redrawn on 5..7 over F_5 and on 7
# over F_7; a generator bit is drawn from 2 bits, redrawn on 2 and 3
@pytest.mark.parametrize(
    "field_name", ["rationals", "f3", "f5", "f7", "q_i", "q_i_s2", "f2_a_r", "f5_a_b"]
)
def test_sampler_matches_generic_build(request, field_name, monkeypatch):
    field = _sampler_field(request, field_name)
    fast, slow = random.Random(field_name), random.Random(field_name)
    for size in [1, 2, 3] * 40:
        z = random_field_element(field, fast, size)
        want = _generic_field_element(field, slow, size)
        assert z.tower is field and z.rep == want.rep
    # the same draws, in the same order
    assert fast.getstate() == slow.getstate()
    # past the table's limit, terms are built and not kept; an equal tower
    # built anew starts with an empty table
    monkeypatch.setattr(norms, "TERM_TABLE_LIMIT", 3)
    field = FieldTower(field.base, field.steps)
    assert field.term_reps == {}
    for _ in range(40):
        assert random_field_element(field, fast).rep == _generic_field_element(field, slow, 2).rep
    assert len(field.term_reps) == 3


def _generic_fraction_element(v, rng):
    """Oracle: the fraction sampler's draws, the sum of c * x^e over x^den
    built by generic field arithmetic (later draws of an exponent replace
    earlier ones, as in a dict), and 1 for a zero sum."""
    k = v.function_field
    xs = [k.gen(name) for name in v.variables]
    terms = {}
    for _ in range(3):
        exps = tuple(rng.randrange(0, 3) for _ in range(v.rank))
        terms[exps] = _generic_field_element(v.coefficient_field, rng, 1)
    den = tuple(rng.randrange(0, 3) for _ in range(v.rank))
    num = k.zero()
    for exps, c in terms.items():
        term = k.embed(c)
        for x, e in zip(xs, exps):
            term = term * x**e
        num = num + term
    mono = k.one()
    for x, e in zip(xs, den):
        mono = mono * x**e
    out = num / mono
    return k.one() if out.is_zero else out


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field_name", ["rationals", "q_i", "f3", "f5", "f7", "f2_a"])
def test_fraction_sampler_matches_generic_build(request, field_name, rank):
    field = _sampler_field(request, field_name)
    v = MonomialValuation(field, [f"x{j}" for j in range(1, rank + 1)])
    fast, slow = random.Random(f"{field_name}:{rank}"), random.Random(f"{field_name}:{rank}")
    for _ in range(60):
        z = random_fraction_element(v, fast)
        want = _generic_fraction_element(v, slow)
        assert z.tower is v.function_field and z.rep == want.rep
    # the same draws, in the same order
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("field_name", ["rationals", "q_i", "f5", "f2_a"])
def test_samplers_draw_what_randrange_draws(request, field_name):
    # the determinism README promises: the samplers make the draws that
    # random.Random(seed).randrange would make, and the oracles draw with
    # rng.randrange only; the final states agree after each batch
    field = _sampler_field(request, field_name)
    fast, slow = random.Random(field_name), random.Random(field_name)
    for size in (1, 2, 3):
        for _ in range(200):
            z = random_field_element(field, fast, size)
            assert z.rep == _generic_field_element(field, slow, size).rep
        assert fast.getstate() == slow.getstate()
    for rank in (1, 2, 3):
        v = MonomialValuation(field, [f"x{j}" for j in range(1, rank + 1)])
        for _ in range(200):
            z = random_fraction_element(v, fast)
            assert z.rep == _generic_fraction_element(v, slow).rep
        assert fast.getstate() == slow.getstate()
    # the forced-target draws of verification go through randbelow
    for n in list(range(1, 40)) + [2**31 - 1, 2**32, 3**40]:
        assert norms.randbelow(fast.getrandbits, n) == slow.randrange(n)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "f2_a"])
def test_fraction_sampler_matches_from_terms(request, field_name):
    # the sampler places its terms without from_terms' checks; replayed
    # through randrange on a twin generator, each draw is from_terms of the
    # same terms (a later exponent tuple replacing an earlier one, one for a
    # zero sum), away from the golden builds and with denominator exponent 1
    # where the characteristic allows it
    field = request.getfixturevalue(field_name)
    fast, slow = random.Random(f"terms:{field_name}"), random.Random(f"terms:{field_name}")
    cancelled = 0
    for rank in (1, 2, 3):
        v = MonomialValuation(
            field, [f"x{j}" for j in range(1, rank + 1)], denom_exponent=int(field.char > 0)
        )
        k = v.function_field
        for _ in range(200):
            z = random_fraction_element(v, fast)
            terms = {}
            for _ in range(3):
                exps = tuple(slow.randrange(3) for _ in range(rank))
                terms[exps] = _generic_field_element(field, slow, 1)
            want = v.from_terms(terms, [slow.randrange(3) for _ in range(rank)])
            if want.is_zero:
                cancelled += 1
                want = k.one()
            assert z.tower is k and z.rep == want.rep, terms
        assert fast.getstate() == slow.getstate()
    assert cancelled > 0


def test_randbelow_refuses_an_empty_range():
    # getrandbits(0) is 0, so without the check n < 1 would redraw forever;
    # the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("randbelow did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for n in (0, -1, -7):
            with pytest.raises(DomainError, match="no integer is drawn below"):
                norms.randbelow(random.Random(0).getrandbits, n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
