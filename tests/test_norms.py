import random

import pytest

from valext import norms
from valext.errors import DomainError, PreconditionError
from valext.norms import (
    FreeAlgebra,
    FreeModule,
    check_algebra_norm,
    gauss_extend,
    is_reduced_lift,
    random_field_element,
    random_fraction_element,
)
from valext.poly import Polynomial
from valext.valuations import MonomialValuation


@pytest.fixture
def v_f5(f5):
    return MonomialValuation(f5, ["x"])


@pytest.fixture
def module(v_f5):
    return FreeModule(v_f5, ["e1", "e2", "e3"])


def test_norm_examples(f3):
    v = MonomialValuation(f3, ["x"])
    e = FreeModule(v, ["e1", "e2"])
    x = v.function_field.gen("x")
    assert e.norm(e.zero()).is_zero
    assert e.norm(e.element({"e1": x**2, "e2": 1 / x})) == v.group.element([-1])
    z = e.element({"e1": 1, "e2": x})
    assert e.norm(z) == v.group.neutral() and e.in_module(z)


def test_norm_axiom_suite(module, v_f5):
    rng = random.Random(0)
    e = module
    v = v_f5
    for _ in range(250):
        z = e.element({l: random_fraction_element(v, rng) for l in e.basis})
        w = e.element({l: random_fraction_element(v, rng) for l in e.basis})
        assert e.norm(z + w).additive_ge(e.norm(z).additive_min(e.norm(w)))
        assert e.norm(z).is_zero == (z == e.zero())
        assert e.norm(z).is_nonnegative() == e.in_module(z)
        assert (not e.norm(z).is_zero and e.norm(z).is_positive()) == (
            z != e.zero() and e.in_maximal_submodule(z)
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
    size = len(e.basis)
    for _ in range(15):
        mat = _random_unimodular(v, size, rng)
        z = [random_fraction_element(v, rng) for _ in range(size)]
        moved = [
            sum((mat[i][j] * z[j] for j in range(size)), v.function_field.zero())
            for i in range(size)
        ]
        before = e.norm(e.element(dict(zip(e.basis, z))))
        after = e.norm(e.element(dict(zip(e.basis, moved))))
        assert before == after


def test_unit_part_factor_examples(f3):
    v = MonomialValuation(f3, ["x"])
    e = FreeModule(v, ["e1", "e2"])
    x = v.function_field.gen("x")
    alpha, z1 = e.unit_part_factor(e.element({"e1": x**2, "e2": x**3}))
    assert alpha == x**2 and z1 == e.element({"e1": 1, "e2": x})
    alpha, z1 = e.unit_part_factor(e.element({"e1": 1}))
    assert alpha == v.function_field.one() and z1 == e.element({"e1": 1})
    alpha, z1 = e.unit_part_factor(e.element({"e1": 1 / x, "e2": 1}))
    assert alpha == 1 / x and z1 == e.element({"e1": 1, "e2": x})
    with pytest.raises(DomainError):
        e.unit_part_factor(e.zero())


def test_unit_part_reconstructs(module, v_f5):
    rng = random.Random(9)
    for _ in range(40):
        z = module.element({l: random_fraction_element(v_f5, rng) for l in module.basis})
        if z == module.zero():
            continue
        alpha, z1 = module.unit_part_factor(z)
        assert module.norm(z1) == v_f5.group.neutral()
        assert z1.scale(alpha) == z
        assert v_f5.value(alpha) == module.norm(z)


def test_check_algebra_norm_polynomial_and_quotient(f2, rationals):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, ["y"])
    report = check_algebra_norm(a, random.Random(0), samples=30)
    assert report.passed, report.violations
    x = v.function_field.gen("x")
    assert a.norm(a.scalar(x**3)) == v.value(x**3)
    assert a.norm(a.scalar(1 + x)) == v.group.neutral()  # a sampled unit of V
    vq = MonomialValuation(rationals, ["x"])
    kq = vq.function_field
    aq = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [1, 0, 1]))
    report = check_algebra_norm(aq, random.Random(0), samples=30)
    assert report.passed, report.violations


def test_bilinear_multiplication_bound(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, ["y"])
    rng = random.Random(4)
    for _ in range(150):
        z = a.element({(rng.randrange(3),): random_fraction_element(v, rng) for _ in range(2)})
        w = a.element({(rng.randrange(3),): random_fraction_element(v, rng) for _ in range(2)})
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
    ap = FreeAlgebra.polynomial(vf, ["y"])
    assert is_reduced_lift(ap).reduced
    # rank-1 quotient: the algebra is V itself
    a1 = FreeAlgebra.quotient(vq, Polynomial.from_coeffs(kq, "y", [0, 1]))
    assert a1.rank == 1 and is_reduced_lift(a1).reduced


def test_reduced_lift_contrapositive(rationals):
    # a constructed nilpotent upstairs forces a non-reduced residual algebra
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    f = Polynomial.parse("(y - 1)^2", k, ("y",))
    a = FreeAlgebra.quotient(v, f)
    n = a.gen("y") - a.one()
    assert not n.is_zero and (n * n).is_zero  # nilpotent in A
    assert not is_reduced_lift(a).reduced


def test_gauss_extend_examples(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, ["y"])
    x = v.function_field.gen("x")
    z = a.element({2: x, 1: 1, 0: x**3})  # x y^2 + y + x^3
    assert a.norm(z) == v.group.neutral()
    h1 = a.element({1: 1, 0: x})
    h2 = a.element({1: 1, 0: x**2})
    assert a.norm(h1 * h2) == a.norm(h1).mul(a.norm(h2))
    ext = gauss_extend(v, a, ["ybar"])
    assert ext.group == v.group  # same group
    assert ext.residue_field.gen_names == ("ybar",)
    assert ext.residue_field.steps[-1].minpoly is None  # transcendental residue


def test_gauss_extend_multiplicativity_random(f2):
    v = MonomialValuation(f2, ["x"])
    a = FreeAlgebra.polynomial(v, ["y"])
    rng = random.Random(12)
    for _ in range(200):
        z = a.element({(rng.randrange(3),): random_fraction_element(v, rng) for _ in range(2)})
        w = a.element({(rng.randrange(3),): random_fraction_element(v, rng) for _ in range(2)})
        if z.is_zero or w.is_zero:
            continue
        assert a.norm(z * w) == a.norm(z).mul(a.norm(w))


def test_gauss_extend_fraction_values_and_ring(rationals):
    v = MonomialValuation(rationals, ["x"])
    k = v.function_field
    a = FreeAlgebra.quotient(v, Polynomial.from_coeffs(k, "y", [1, 0, 1]))
    ext = gauss_extend(v, a, ["i"])
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
        gauss_extend(v, a)
    assert "factors" in str(exc.value)


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


@pytest.mark.parametrize("field_name", ["rationals", "f3", "q_i", "q_i_s2", "f2_a_r"])
def test_sampler_matches_generic_build(request, field_name, monkeypatch):
    if field_name == "q_i_s2":
        field = request.getfixturevalue("q_i").extend_algebraic("s2", [-2, 0, 1])
    else:
        field = request.getfixturevalue(field_name)
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
    field = field.prefix(field.level)
    assert field.term_reps == {}
    for _ in range(40):
        assert random_field_element(field, fast).rep == _generic_field_element(field, slow, 2).rep
    assert len(field.term_reps) == 3
