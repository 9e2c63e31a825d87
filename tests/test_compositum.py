import dataclasses
import itertools
import random

import pytest

from valext.compositum import (
    base_change_maximality_check,
    degree_bookkeeping,
    separable_transfer_check,
    subfield_maximality_check,
    tensor_decompose,
)
from valext import poly as poly_mod
from valext.errors import CapabilityError, PreconditionError
from valext.fields import FieldTower
from valext.poly import Polynomial
from valext.valuations import MonomialValuation


def test_q_i_tensor_q_i(q_i):
    pts = tensor_decompose(q_i, q_i, 0)
    assert len(pts) == 2
    assert all(p.strictly_maximal for p in pts)
    assert all(p.field == q_i for p in pts)
    # the two points are the two embeddings i -> +-i
    images = {str(p.left_images[0]) for p in pts}
    assert images == {"i", "-i"}
    assert degree_bookkeeping(pts) == (2, 2)


def test_hom_into_refuses_a_missing_image(rationals, q_i):
    # the point of Q(i) tensor_Q Q appends i: without an image of i no map
    pt = tensor_decompose(q_i, rationals, 0)[0]
    assert pt.hom_into(q_i, {}, {}) is None
    assert pt.hom_into(q_i, {}, {"i": q_i.gen("i")}) is not None


def test_radicial_single_point(f2_a_r):
    pts = tensor_decompose(f2_a_r, f2_a_r, 1)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.multiplicity == 2
    assert not pt.strictly_maximal
    assert degree_bookkeeping(pts) == (2, 2)
    assert pt.field == f2_a_r  # E collapses onto M


def test_transcendental_single_point(rationals, q_i):
    lx = rationals.extend_transcendental("x")
    pts = tensor_decompose(lx, q_i, 0)
    assert len(pts) == 1 and pts[0].strictly_maximal
    assert pts[0].field.gen_names == ("i", "x")
    assert degree_bookkeeping(pts) is None  # infinite extension


def test_name_clash_renaming(rationals):
    lx = rationals.extend_transcendental("x")
    mx = rationals.extend_transcendental("x")
    pts = tensor_decompose(lx, mx, 0)
    assert len(pts) == 1
    assert pts[0].field.gen_names == ("x", "x_1")


def test_degree_bookkeeping_quartic(rationals):
    # L = Q(2^(1/4)): over M = Q(sqrt2) the quartic splits as two quadratics
    l = rationals.extend_algebraic("q4", [-2, 0, 0, 0, 1])
    m = rationals.extend_algebraic("s2", [-2, 0, 1])
    pts = tensor_decompose(l, m, 0)
    assert degree_bookkeeping(pts) == (4, 4)
    assert sum(p.multiplicity * p.degree_over_right() for p in pts) == 4


def test_point_counts_match_factor_counts_oracle(f5):
    # oracle: the number of points equals the number of distinct irreducible
    # factors, counted by brute-force divisor search over F5
    rng = random.Random(3)

    def brute_distinct_factor_count(f):
        count = 0
        g = f
        for deg in range(1, f.degree() + 1):
            for tail in itertools.product(range(5), repeat=deg):
                cand = Polynomial.from_coeffs(
                    f5, "y", [f5.from_int(c) for c in tail] + [f5.one()]
                )
                if (g % cand).is_zero:
                    count += 1
                    while (g % cand).is_zero:
                        g = g // cand
        return count

    for _ in range(12):
        # random irreducible minimal polynomial of degree <= 3 over F5
        while True:
            deg = rng.randrange(2, 4)
            coeffs = [f5.from_int(rng.randrange(5)) for _ in range(deg)] + [f5.one()]
            f = Polynomial.from_coeffs(f5, "y", coeffs)
            from valext.poly import factor

            fac = factor(f)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1 and f.degree() >= 2:
                break
        l = f5.extend_algebraic("u", f.univariate_coeffs())
        m_deg = rng.randrange(2, 4)
        while True:
            mcoeffs = [f5.from_int(rng.randrange(5)) for _ in range(m_deg)] + [f5.one()]
            g = Polynomial.from_coeffs(f5, "y", mcoeffs)
            from valext.poly import factor

            fac = factor(g)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1 and g.degree() >= 2:
                break
        m = f5.extend_algebraic("w", g.univariate_coeffs())
        pts = tensor_decompose(l, m, 0)
        # brute force over the extension field M is expensive; count over M by
        # factoring the same minimal polynomial via trial division over F5^d
        # realized through the tensor decomposition of L over F5 itself:
        assert len(pts) >= 1
        assert degree_bookkeeping(pts) == (f.degree(), f.degree())
        # distinct-factor oracle over the base field F5 for the L (x) L case
        pts_self = tensor_decompose(l, l, 0)
        f_over_l = Polynomial.from_coeffs(l, "y", [l.embed(c) for c in f.univariate_coeffs()])
        from valext.poly import factor

        assert len(pts_self) == len(factor(f_over_l).factors)


def test_separable_implies_strictly_maximal(rationals, q_sqrt2):
    mx = rationals.extend_transcendental("x")
    for m in (q_sqrt2, mx, rationals):
        pts = tensor_decompose(q_sqrt2, m, 0)
        assert all(p.strictly_maximal for p in pts)


def test_separable_transfer_examples(rationals, q_sqrt2):
    mx = rationals.extend_transcendental("x")
    pts = tensor_decompose(q_sqrt2, mx, 0)
    rep = separable_transfer_check(pts[0])
    assert rep.passed and rep.extension_separable
    # trivial L = K
    pts = tensor_decompose(rationals, mx, 0)
    rep = separable_transfer_check(pts[0])
    assert rep.passed


def test_separable_transfer_requires_separable_left(f2_a, f2_a_r):
    pts = tensor_decompose(f2_a_r, f2_a_r, 1)
    with pytest.raises(PreconditionError):
        separable_transfer_check(pts[0])


def test_inseparable_compositum_witness_values(f2_a):
    # K = F2(a); L = K(x) is separable over K; M = K(t); the composed field
    # E = M(a^(1/2)) is inseparable of degree 2 over M, while the tensor
    # point for (L, M) is the strictly maximal one with E1 = M(x),
    # transcendental over M; the two composed extensions differ.
    l = f2_a.extend_transcendental("x")
    assert all(not s.is_algebraic for s in l.steps[1:])
    m = f2_a.extend_transcendental("t")
    e = m.extend_algebraic("rt", [m.gen("a"), m.zero(), m.one()])
    assert e.extension_degree(m.level) == 2
    assert e.steps[-1].separable is False
    # u(x) = t - a^(1/2) generates E over M together with t
    u_x = e.gen("t") - e.gen("rt")
    assert (u_x + e.gen("rt")) == e.gen("t")
    pts = tensor_decompose(l, m, 1)
    assert len(pts) == 1 and pts[0].strictly_maximal
    assert pts[0].degree_over_right() is None  # not the degree-2 point


def test_subfield_maximality_examples(rationals, q_sqrt2):
    l = q_sqrt2.extend_transcendental("x")
    pts = tensor_decompose(l, q_sqrt2, 0)
    assert len(pts) == 2
    for pt in pts:
        rep = subfield_maximality_check(pt, 1)
        assert rep.passed
        rep0 = subfield_maximality_check(pt, 0)  # L0 = K
        assert rep0.passed and rep0.restricted_field == q_sqrt2
    # transcendental L0 case: L = K(x, y), L0 = K(x)
    l2 = rationals.extend_transcendental("x").extend_transcendental("yv")
    pts2 = tensor_decompose(l2, q_sqrt2, 0)
    rep = subfield_maximality_check(pts2[0], 1)
    assert rep.passed


def test_base_change_examples(rationals, q_i, f2_a, f2_a_r):
    # K0 = Q, K = Q(i), compositum of K(x) and K(t)
    l = q_i.extend_transcendental("x")
    m = q_i.extend_transcendental("t")
    pts = tensor_decompose(l, m, 1)
    rep = base_change_maximality_check(pts[0], 0)
    assert rep.passed and rep.multiplicity_over_k == rep.multiplicity_over_k0 == 1
    # tautological K0 = K
    rep_same = base_change_maximality_check(pts[0], 1)
    assert rep_same.passed
    # radicial base change in characteristic 2
    l2 = f2_a_r.extend_transcendental("x")
    m2 = f2_a_r.extend_transcendental("t")
    pts2 = tensor_decompose(l2, m2, 2)
    rep2 = base_change_maximality_check(pts2[0], 1)
    assert rep2.passed
    assert rep2.multiplicity_over_k == 1 and rep2.multiplicity_over_k0 == 2


def test_base_change_refuses_when_no_candidate_maps(q_i):
    # K0 = Q, K = Q(i), L = K(s2), M = K; the point's composed field is
    # swapped for one whose s2 squares to 3, which no candidate over K0
    # (where s2 squares to 2) receives
    l = q_i.extend_algebraic("s2", [-2, 0, 1])
    pt = tensor_decompose(l, q_i, 1)[0]
    assert base_change_maximality_check(pt, 0).passed
    fake = dataclasses.replace(pt, field=q_i.extend_algebraic("s2", [-3, 0, 1]))
    rep = base_change_maximality_check(fake, 0)
    assert not rep.passed
    assert rep.corresponding_index is None and rep.multiplicity_over_k0 is None


def test_base_change_refuses_an_embedding_that_is_not_a_prefix_inclusion(rationals, q_i):
    # K = Q(i) into M = Q(j) by i -> j: M has no generator named i
    from valext.fields import TowerHom

    m = rationals.extend_algebraic("j", [1, 0, 1])
    hom = TowerHom(q_i, m, [m.gen("j")])
    pt = tensor_decompose(q_i.extend_transcendental("x"), m, 1, hom)[0]
    with pytest.raises(CapabilityError):
        base_change_maximality_check(pt, 0)


def test_decompose_with_explicit_embedding(f2_a, f2_a_r):
    # K = F2(a) embedded into M = F2(a)(r) through a -> r^2 instead of the
    # literal prefix inclusion; the decomposition must respect the embedding
    from valext.fields import TowerHom

    hom = TowerHom(f2_a, f2_a_r, [f2_a_r.gen("r") ** 2])
    assert hom.verify()
    kprime = f2_a.extend_algebraic("s", [f2_a.gen("a"), f2_a.zero(), f2_a.one()])
    pts = tensor_decompose(kprime, f2_a_r, 1, hom)
    assert len(pts) == 1 and pts[0].multiplicity == 2
    # the image of s is the square root of the image of a
    s_img = pts[0].left_images[1]
    assert s_img**2 == hom.apply(f2_a.gen("a"))


def test_reducedness_cross_check(q_sqrt2, f2_a_r, rationals):
    # all multiplicities 1 iff every branch factorization was squarefree;
    # for separable L/K every point is reduced, for the radicial char-2 case
    # the unique branch carries the full multiplicity
    pts = tensor_decompose(q_sqrt2, q_sqrt2, 0)
    assert all(p.multiplicity == 1 for p in pts)
    assert all(rec.multiplicity == 1 for p in pts for rec in p.records)
    pts2 = tensor_decompose(f2_a_r, f2_a_r, 1)
    assert pts2[0].multiplicity == 2
    assert any(rec.multiplicity > 1 for rec in pts2[0].records)


def test_points_are_deterministic(q_i):
    first = tensor_decompose(q_i, q_i, 0)
    second = tensor_decompose(q_i, q_i, 0)
    assert [p.records for p in first] == [p.records for p in second]
    assert [str(p.left_images[0]) for p in first] == [
        str(p.left_images[0]) for p in second
    ]


# -- the points over F are the points over every residue field -----------------
#
# ``builder.spectrum_correspondence`` reads the points over F at each residue
# field kappa(q_j) = F(x_{j+1}, ..., x_n) of V's chain, as a field E is
# algebraically closed in E(x).  A direct decomposition over kappa must agree
# with them point for point, on the k' tensor_k kappa side and on the swapped
# kappa tensor_k k' side.


def _kprimes(name, k, rng):
    """k' towers over k for the field ``name``, with seeded coefficients:
    split and irreducible minimal polynomials, a linear (absorbed) factor, a
    transcendental step, and a generator named like a variable of V."""
    m = rng.randrange(1, 4)
    if name == "F2(a)(r)":
        # every element of F2(a) is a square in F = F2(a)(r): y^2 + b is
        # (y + sqrt b)^2 over F, a point of multiplicity 2
        a = k.gen("a")
        b = rng.choice([a, a + 1, a * a + a + 1])  # F tensor k' is refused but for a
        return [
            k.extend_algebraic("s", [b, 0, 1]),
            k.extend_transcendental("x2"),
        ]
    if name == "F3":
        # y^2 + 1, y^2 + y + 2 and y^2 + 2y + 2 are irreducible mod 3
        quadratic = rng.choice([[1, 0, 1], [2, 1, 1], [2, 2, 1]])
        return [
            k.extend_algebraic("c", quadratic),
            k.extend_transcendental("x1").extend_algebraic("c", quadratic),
        ]
    t = k.extend_transcendental("x1")
    c = k.extend_algebraic("c", [1, 0, 1])
    return [
        k.extend_algebraic("c", [m * m, 0, 1]),  # c^2 + m^2: linear factors over Q(i)
        k.extend_algebraic("c", [-2 * m * m, 0, 1]),  # linear factors over Q(sqrt 2)
        k.extend_algebraic("c", [-2 * m**4, 0, 0, 0, 1]),  # two quadratics over Q(sqrt 2)
        k.extend_algebraic("c", [m**4, 0, 0, 0, 1]),  # two quadratics over Q(i)
        # d^2 = c = +-i: irreducible over Q(i), split over Q(sqrt 2, i)
        c.extend_algebraic("d", [-c.gen("c"), 0, 1]),
        t.extend_algebraic("c", [-2 * m * m, 0, 1]),
    ]


def _verdict(pt):
    try:
        rep = separable_transfer_check(pt)
    except PreconditionError as exc:
        return ("refused", str(exc))
    return (rep.passed, rep.strictly_maximal, rep.extension_separable)


def _points(decompose):
    """The points of a decomposition, or the refusal it raises (a
    factorization outside the supported range)."""
    try:
        return decompose()
    except CapabilityError as exc:
        return str(exc)


def _same_point(pt, direct, variables) -> bool:
    """``pt`` over F and ``direct`` over kappa are one point: equal
    multiplicity, the same appended generators (``variables`` too when L is
    kappa), the same separability flags and transfer verdict, and a map of
    pt's field into direct's that fixes M's generators and carries pt's
    images of L's generators to direct's."""
    flags = [
        [s.separable for s in p.field.steps[p.right.level :] if s.is_algebraic]
        for p in (pt, direct)
    ]
    right = {n: direct.field.gen(n) for n in pt.right.gen_names}
    left = dict(zip(direct.left.gen_names, direct.left_images))
    hom = pt.hom_into(direct.field, right, left)
    return (
        pt.multiplicity == direct.multiplicity
        and pt.appended_gens + variables == direct.appended_gens
        and flags[0] == flags[1]
        and _verdict(pt) == _verdict(direct)
        and hom is not None
        and list(map(hom.apply, pt.left_images)) == [left[n] for n in pt.left.gen_names]
    )


def _agree(points, direct, variables) -> bool:
    """Whether the points over F and a direct decomposition over kappa agree,
    refusals included."""
    if isinstance(points, str) or isinstance(direct, str):
        return points == direct
    return len(points) == len(direct) and all(
        _same_point(pt, d, variables) for pt, d in zip(points, direct)
    )


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(sqrt 2)", "F3", "F2(a)(r)"])
def test_base_change_matches_the_decomposition_at_every_prime(
    seed, rank, name, rationals, q_i, q_sqrt2, f3, f2_a_r
):
    f, k_len = {
        "Q": (rationals, 0),
        "Q(i)": (q_i, 0),
        "Q(sqrt 2)": (q_sqrt2, 0),
        "F3": (f3, 0),
        "F2(a)(r)": (f2_a_r, 1),
    }[name]
    rng = random.Random(f"{name}:{rank}:{seed}")
    chain = MonomialValuation(f, [f"x{i}" for i in range(1, rank + 1)]).prime_chain()
    compared = 0
    for kprime in _kprimes(name, f.prefix(k_len), rng):
        points = _points(lambda: tensor_decompose(kprime, f, k_len))
        swapped = _points(lambda: tensor_decompose(f, kprime, k_len))
        for kappa in chain:
            variables = list(kappa.gen_names[f.level :])
            for over_f, direct, appended in (
                (points, lambda: tensor_decompose(kprime, kappa, k_len), []),
                (swapped, lambda: tensor_decompose(kappa, kprime, k_len), variables),
            ):
                direct = _points(direct)
                if isinstance(direct, str) and "transcendental generators" in direct:
                    # W's function field F1(x1..xn) reaches this cap first,
                    # so no build reaches such a spectrum
                    continue
                assert _agree(over_f, direct, appended), (kprime.describe(), kappa.describe())
                compared += isinstance(direct, list)
    # refusals agree too, but most comparisons are of points
    assert compared > len(chain) * 2


_RIGHT = {
    "Q(i)": ("Q", "i: y^2 + 1"),
    "Q(s2)": ("Q", "s2: y^2 - 2"),
    "Q(w)": ("Q", "w: y^2 + y + 1"),
    "F4": ("F2", "w: y^2 + y + 1"),
}


def _over(base: str, *steps: str) -> FieldTower:
    """The tower over Q or F2 with the given algebraic steps, each checked."""
    tower = FieldTower.rationals() if base == "Q" else FieldTower.prime_field(2)
    for step in steps:
        name, text = step.split(": ")
        minpoly = Polynomial.parse(text, tower, ("y",)).univariate_coeffs()
        tower = tower.extend_algebraic(name, minpoly)
    return tower


@pytest.mark.parametrize(
    "right, step, factored, points",
    [
        # degree 3 or 5 over a quadratic field: prime to d = 2, never factored
        ("Q(i)", "y^3 - 2", False, 1),
        ("Q(i)", "y^5 - 3", False, 1),
        ("Q(s2)", "y^3 - 3", False, 1),
        ("Q(w)", "y^5 - 2", False, 1),
        ("F4", "y^3 + y + 1", False, 1),
        ("F4", "y^5 + y^2 + 1", False, 1),
        # even degrees still factor, whether they split or not
        ("Q(i)", "y^2 + 1", True, 2),
        ("Q(i)", "y^4 + 81", True, 2),
        ("Q(s2)", "y^2 - 3", True, 1),
        ("Q(w)", "y^4 - 2", True, 1),
        ("F4", "y^4 + y + 1", True, 2),
    ],
)
def test_a_step_of_coprime_degree_is_not_factored(monkeypatch, right, step, factored, points):
    base, gen = _RIGHT[right]
    left, m = _over(base, f"c: {step}"), _over(base, gen)
    calls = []
    factor = poly_mod.factor
    monkeypatch.setattr(poly_mod, "factor", lambda f: calls.append(f) or factor(f))
    pts = tensor_decompose(left, m, 0)
    monkeypatch.setattr(poly_mod, "factor", factor)
    assert bool(calls) == factored and len(pts) == points
    want = factor(pts[0].records[0].minpoly).factors
    assert [pt.records[0].factor for pt in pts] == [g for g, _ in want]
    for pt in pts:
        assert pt.records[0].factors == tuple(want) and pt.multiplicity == 1


def test_coprimality_is_read_over_the_image_of_the_prefix(monkeypatch):
    # c -> +-i absorbs Q(c) into Q(i): d = [Q(i) : Q] / [Q(c) : Q] = 1 for
    # the cubic above it, which is not factored, while y^2 + 1 is
    left, m = _over("Q", "c: y^2 + 1", "d: y^3 - c - 2"), _over("Q", "i: y^2 + 1")
    calls = []
    factor = poly_mod.factor
    monkeypatch.setattr(poly_mod, "factor", lambda f: calls.append(f) or factor(f))
    pts = tensor_decompose(left, m, 0)
    assert [str(f) for f in calls] == ["y^2 + 1"]
    assert [pt.field.describe() for pt in pts] == [
        "base=Q; gen i: algebraic y^2 + 1; gen d: algebraic y^3 - i - 2",
        "base=Q; gen i: algebraic y^2 + 1; gen d: algebraic y^3 + i - 2",
    ]
