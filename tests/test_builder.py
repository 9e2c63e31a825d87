import collections
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from valext import cli, config, fields
from valext.builder import (
    ExtensionScenario,
    _certify_radicial,
    build_general,
    build_strictly_maximal,
    render_report,
    spectrum_correspondence,
    verify_weakly_unramified,
)
from valext.compositum import first_point_into, separable_transfer_check, tensor_decompose
from valext.errors import CapabilityError, DomainError, PreconditionError, StructuralError
from valext.fields import (
    FieldTower,
    TowerHom,
    TranscendentalLevel,
    _u_squarefree,
    is_radicial,
    perfect_closure_truncated,
    pth_root,
    tower_separable_over,
)
from valext.norms import random_fraction_element
from valext.valuations import MonomialValuation
from valext.selftest import GOLDEN_SCENARIOS
from valext.value_groups import ValueGroup, ValueWithZero, is_p_torsion_quotient


@pytest.fixture
def scn_qi(rationals, q_i):
    v = MonomialValuation(rationals, ["x"])
    return ExtensionScenario(valuation=v, k_len=0, kprime=q_i)


@pytest.fixture
def scn_char2(f2_a, f2_a_r):
    v = MonomialValuation(f2_a_r, ["x"])
    kprime = f2_a.extend_algebraic("s", [f2_a.gen("a"), f2_a.zero(), f2_a.one()])
    return ExtensionScenario(valuation=v, k_len=1, kprime=kprime, truncation=1)


def test_rank1_qi_instance(scn_qi, q_i):
    built = build_strictly_maximal(scn_qi)
    assert built.group_delta == built.group_gamma
    assert built.residue_field == q_i
    assert built.kprime_hom().verify()
    spec = spectrum_correspondence(built)
    assert spec.passed
    assert len(spec.chain_base) == 2 and len(spec.chain_ext) == 2
    assert spec.strictly_maximal and spec.iso_verified
    assert spec.separable_over_base
    assert spec.separable_over_kprime
    weak = verify_weakly_unramified(built, samples=60)
    assert weak.passed


def test_spectrum_refuses_an_image_that_is_not_a_root(scn_qi, golden_builds):
    # i -> 1 + i and c -> s2 + 1 respect no relation: neither the residue-pair
    # map nor the swapped decomposition's map may verify.  Over F = Q(s2) the
    # step c^2 = 2 is absorbed and appends no generator, so the image of c
    # itself must be compared
    built = build_strictly_maximal(scn_qi)
    hensel = golden_builds["hensel_route"]
    s2 = hensel.residue_field.gen("s2")
    for b, image in ((built, 1 + built.residue_field.gen("i")), (hensel, s2 + 1)):
        spec = spectrum_correspondence(dataclasses.replace(b, kprime_images=(image,)))
        assert not spec.passed
        assert not (spec.iso_verified or spec.strictly_maximal)
        assert spec.separable_over_kprime is None
    # both roots of c^2 - 2 are genuine images
    for image in (s2, -s2):
        spec = spectrum_correspondence(dataclasses.replace(hensel, kprime_images=(image,)))
        assert spec.passed and spec.separable_over_kprime


def test_identity_scenario(rationals):
    v = MonomialValuation(rationals, ["x"])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=rationals))
    assert built.valuation_w == v
    assert built.residue_field == rationals
    assert verify_weakly_unramified(built, samples=20).passed
    spec = spectrum_correspondence(built)
    assert spec.passed


def test_rank2_sqrt2_instance(rationals, q_sqrt2):
    v = MonomialValuation(rationals, ["x1", "x2"])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=q_sqrt2))
    assert built.group_delta.rank == 2
    assert built.group_delta == built.group_gamma
    spec = spectrum_correspondence(built)
    assert spec.passed
    assert len(spec.chain_base) == 3 and len(spec.chain_ext) == 3
    # separability of every residue pair over k' (residue field of V separable over k)
    assert spec.separable_over_kprime
    assert verify_weakly_unramified(built, samples=40).passed


def test_rank2_transcendental_kprime(rationals):
    v = MonomialValuation(rationals, ["x1", "x2"])
    kt = rationals.extend_transcendental("t")
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kt))
    assert built.group_delta == built.group_gamma
    assert built.residue_field.gen_names == ("t",)
    assert built.residue_field.steps[0].minpoly is None
    weak = verify_weakly_unramified(built, samples=30)
    assert weak.passed


def test_hensel_routed_step(rationals, q_sqrt2):
    v = MonomialValuation(q_sqrt2, ["x"])
    kp = rationals.extend_algebraic("c", [-2, 0, 1])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kp))
    assert built.residue_field == q_sqrt2  # the image is absorbed
    assert any("factor lift" in line for line in built.provenance)
    assert built.kprime_hom().verify()
    spec = spectrum_correspondence(built)
    assert spec.passed
    # the other point gives the conjugate embedding
    built1 = build_strictly_maximal(
        ExtensionScenario(valuation=v, k_len=0, kprime=kp, point_index=1)
    )
    assert built1.kprime_images != built.kprime_images


def test_spectrum_carries_points_the_factorizer_cannot_reach(rationals):
    # c^2 = t + 1 over Q(t): over kappa = Q(x)(t) the factorizer refuses
    # y^2 - t - 1, whose coefficients involve the top generator, but the
    # build's point carries over, Q(t) being algebraically closed in Q(t)(x)
    t = rationals.extend_transcendental("t")
    kprime = t.extend_algebraic("c", [-t.gen("t") - 1, 0, 1], check=False)  # degree 1 in t
    v = MonomialValuation(rationals, ["x"])
    built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kprime))
    with pytest.raises(CapabilityError):
        tensor_decompose(kprime, v.prime_chain()[0], 0)
    assert spectrum_correspondence(built).passed


def test_non_strictly_maximal_refuses(scn_char2):
    with pytest.raises(PreconditionError) as exc:
        build_strictly_maximal(scn_char2)
    assert "general construction" in str(exc.value)


def test_general_char2_instance(scn_char2, f2_a_r):
    built = build_general(scn_char2)
    assert built.path == "general"
    assert built.group_delta.denominator == 2
    assert built.group_gamma.denominator == 1
    assert built.p_torsion_ok is True
    assert is_p_torsion_quotient(built.group_gamma, built.group_delta, 2)
    assert built.radicial_ok is True
    assert is_radicial(f2_a_r, built.residue_field)
    assert len(built.scenario.valuation.prime_chain()) == 2
    assert len(built.valuation_w.prime_chain()) == 2
    assert not built.weakly_unramified_over_input
    weak = verify_weakly_unramified(built, samples=40)
    assert weak.passed  # relative to the truncated base
    assert built.kprime_hom().verify()
    # k' image of s is the existing square root r
    assert str(dict(zip(scn_char2.kprime.gen_names, built.kprime_images))["s"]) == "r"


def test_general_rank2_variables_rooted(f2_a, f2_a_r):
    v = MonomialValuation(f2_a_r, ["x1", "x2"])
    kprime = f2_a.extend_algebraic("s", [f2_a.gen("a"), f2_a.zero(), f2_a.one()])
    scn = ExtensionScenario(valuation=v, k_len=1, kprime=kprime, truncation=1)
    built = build_general(scn)
    assert built.group_delta.rank == 2 and built.group_delta.denominator == 2
    assert built.p_torsion_ok and built.radicial_ok
    assert len(scn.valuation.prime_chain()) == 3 == len(built.valuation_w.prime_chain())
    w = built.valuation_w
    x1 = w.function_field.gen("x1")
    assert w.value(x1).render() == "(1/2, 0)"  # x1 reread as a square root
    assert verify_weakly_unramified(built, samples=30).passed


def test_general_truncation_depth_two(f2_a, f2_a_r):
    v = MonomialValuation(f2_a_r, ["x"])
    kprime = f2_a.extend_algebraic("s", [f2_a.gen("a"), f2_a.zero(), f2_a.one()])
    scn = ExtensionScenario(valuation=v, k_len=1, kprime=kprime, truncation=2)
    built = build_general(scn)
    assert built.group_delta.denominator == 4
    # closure chain: r gets a square root, then a fourth root
    names = built.residue_field.gen_names
    assert names[:2] == ("a", "r") and len(names) == 4
    assert built.p_torsion_ok and built.radicial_ok
    assert verify_weakly_unramified(built, samples=30).passed


def test_radicial_certificate_refuses_a_missing_witness_or_image(f2_a):
    # over F_2(a), with a k' image outside F so the structural certificate runs
    sep = f2_a.extend_algebraic("r", [1, 1, 1])  # r^2 + r + 1: no p-power witness
    assert _certify_radicial(f2_a, sep, sep, (sep.gen("r"),)) == (
        False,
        "closure chain generators lack p-power witnesses",
    )
    f_dag = f2_a.extend_algebraic("b", [f2_a.gen("a"), 0, 1])  # b^2 = a
    f1 = f_dag.extend_transcendental("s")
    assert _certify_radicial(f2_a, f_dag, f1, (f_dag.gen("b"),)) == (
        False,
        "generators ['s'] are not k' images",
    )


def test_general_char0_delegates(scn_qi):
    built = build_general(scn_qi)
    assert built.path == "strictly-maximal"


def test_general_reduced_matches_strict(f2):
    v = MonomialValuation(f2, ["x"])
    kp = f2.extend_algebraic("c", [1, 1, 1])
    scn = ExtensionScenario(valuation=v, k_len=0, kprime=kp)
    bs = build_strictly_maximal(scn)
    bg = build_general(scn)
    assert bg.residue_field == bs.residue_field
    assert bg.group_delta == bs.group_delta
    assert bg.p_torsion_ok is True and bg.radicial_ok is True


def test_domination_on_samples(scn_qi):
    built = build_strictly_maximal(scn_qi)
    v = scn_qi.valuation
    w = built.valuation_w
    emb = built.base_embedding()
    rng = random.Random(0)
    for _ in range(200):
        z = random_fraction_element(v, rng)
        if z.is_zero:
            continue
        assert w.value(emb.apply(z)).coords == v.value(z).coords


def test_domination_general_path(scn_char2):
    built = build_general(scn_char2)
    v = scn_char2.valuation
    w = built.valuation_w
    emb = built.base_embedding()
    rng = random.Random(1)
    for _ in range(120):
        z = random_fraction_element(v, rng)
        if z.is_zero:
            continue
        assert w.value(emb.apply(z)).coords == v.value(z).coords
    # and the maximal ideal of V lands inside the maximal ideal of W
    x = v.function_field.gen("x")
    assert w.value(emb.apply(x)).is_positive()


def test_point_choice_override(rationals, q_i):
    v = MonomialValuation(q_i, ["x"])
    kp = rationals.extend_algebraic("j", [1, 0, 1])
    built0 = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kp))
    built1 = build_strictly_maximal(
        ExtensionScenario(valuation=v, k_len=0, kprime=kp, point_index=1)
    )
    imgs = {str(built0.kprime_images[0]), str(built1.kprime_images[0])}
    assert imgs == {"i", "-i"}
    with pytest.raises(PreconditionError):
        build_strictly_maximal(
            ExtensionScenario(valuation=v, k_len=0, kprime=kp, point_index=5)
        )


def test_provenance_replay_reproduces_reports(scn_qi, scn_char2):
    a = render_report(build_strictly_maximal(scn_qi))
    b = render_report(build_strictly_maximal(scn_qi))
    assert a == b
    c = render_report(build_general(scn_char2))
    d = render_report(build_general(scn_char2))
    assert c == d


def test_spectrum_requires_strict_path(scn_char2):
    built = build_general(scn_char2)
    with pytest.raises(PreconditionError):
        spectrum_correspondence(built)


@pytest.mark.parametrize("target", ["Q(j)", "Q(t)(i)"])
def test_spectrum_of_a_k_embedding_that_is_not_a_prefix_inclusion(rationals, q_i, target):
    # k = Q(i) goes into F as i -> j, or as i -> i with Q(i) no prefix of F:
    # the swapped decomposition over k' needs the inclusion of a prefix, so
    # its column reads n/a instead of raising
    if target == "Q(j)":
        f_tower = rationals.extend_algebraic("j", [1, 0, 1])
        image = f_tower.gen("j")
    else:
        f_tower = rationals.extend_transcendental("t").extend_algebraic("i", [1, 0, 1])
        image = f_tower.gen("i")
    hom = TowerHom(q_i, f_tower, [image])
    kprime = q_i.extend_algebraic("s", [-2, 0, 1])
    v = MonomialValuation(f_tower, ["x1"])
    built = build_strictly_maximal(
        ExtensionScenario(valuation=v, k_len=1, kprime=kprime, k_hom=hom)
    )
    spec = spectrum_correspondence(built)
    assert spec.passed
    assert len(spec.chain_base) == 2
    assert spec.separable_over_base is True and spec.separable_over_kprime is None
    assert all("separable over k': n/a" in line for line in spec.render_lines()[4::4])


def test_randomized_strictly_maximal_builds(rationals):
    # seeded fuzz over random irreducible k' and residue fields: every build
    # must preserve the group, verify its images, and pass the certificates
    from valext.poly import Polynomial, factor

    rng = random.Random(42)
    built_count = 0
    while built_count < 6:
        d = rng.choice([2, 2, 3])
        coeffs = [rationals.from_int(rng.randrange(-4, 5)) for _ in range(d)]
        f = Polynomial.from_coeffs(rationals, "y", coeffs + [rationals.one()])
        fac = factor(f)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            continue
        if rng.randrange(2):
            f_field = rationals
        else:
            f_field = rationals.extend_algebraic("d2", [-rng.choice([2, 3, 5]), 0, 1])
        kprime = rationals.extend_algebraic("g", f.univariate_coeffs())
        v = MonomialValuation(f_field, ["x"])
        built = build_strictly_maximal(ExtensionScenario(valuation=v, k_len=0, kprime=kprime))
        assert built.group_delta == built.group_gamma
        assert built.kprime_hom().verify()
        assert verify_weakly_unramified(built, samples=25).passed
        spec = spectrum_correspondence(built)
        assert spec.passed, (str(f), f_field.describe())
        built_count += 1


# ---------------------------------------------------------------------------
# Verification catches planted faults


def _parse_and_build(text: str):
    scn = cli.parse_scenario(text)
    ext = scn.to_extension_scenario()
    return (build_general if scn.truncation is not None else build_strictly_maximal)(ext)


def _golden_builds():
    """The builds of the five extension scenarios of the golden corpus."""
    return {
        name: _parse_and_build(text)
        for name, text in GOLDEN_SCENARIOS.items()
        if "[valuation]" in text
    }


@pytest.fixture(scope="module")
def golden_builds():
    out = _golden_builds()
    assert len(out) == 5
    return out


def test_render_report_is_the_text_extend_prints(golden_builds):
    # with --verify's reports, render_report gives the golden text of
    # `valext extend --verify`, the general path's prime counts included
    golden = Path(__file__).parent / "golden"
    for name, built in golden_builds.items():
        weak = verify_weakly_unramified(built)
        strict = built.path == "strictly-maximal"
        spectrum = spectrum_correspondence(built) if strict else None
        expected = (golden / f"{name}.extend-verify.txt").read_text()
        assert render_report(built, weak, spectrum) == expected, name
        assert ("PRIME COUNTS" in expected) == (not strict)


def test_builder_gauss_steps_reuse_the_chosen_factor(monkeypatch):
    # every Gauss step of a golden build is handed the factor tensor_decompose
    # chose, so gauss_extend factors nothing again
    from valext import builder, poly

    real_factor, real_gauss = poly.factor, builder.gauss_extend
    inside = [False]
    counts = {"quotient steps": 0, "factor calls inside": 0}

    def factor(*args, **kwargs):
        counts["factor calls inside"] += inside[0]
        return real_factor(*args, **kwargs)

    def gauss_extend(algebra, *args, **kwargs):
        counts["quotient steps"] += algebra.is_quotient and algebra.rank > 1
        inside[0] = True
        try:
            return real_gauss(algebra, *args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(poly, "factor", factor)
    monkeypatch.setattr(builder, "gauss_extend", gauss_extend)
    for text in GOLDEN_SCENARIOS.values():
        if "[valuation]" in text:
            _parse_and_build(text)
    assert counts["quotient steps"] > 0
    assert counts["factor calls inside"] == 0


# ---------------------------------------------------------------------------
# The build relies on what the parse proved


def test_every_step_flag_is_the_squarefree_test(monkeypatch, f2_a):
    # the flag is read off f' != 0, which equals the gcd test for the
    # irreducible minimal polynomial of every step the builds create: at the
    # parse, in tensor_decompose, gauss_extend and the truncated closure
    real = FieldTower.extend_algebraic
    made = []

    def extend_algebraic(self, *args, **kwargs):
        tower = real(self, *args, **kwargs)
        made.append((sys._getframe(1).f_code.co_name, tower))
        return tower

    monkeypatch.setattr(FieldTower, "extend_algebraic", extend_algebraic)
    for text in GOLDEN_SCENARIOS.values():
        if "[valuation]" in text:
            _parse_and_build(text)
    # y^2 + y + a is irreducible over F_2(a): for a root t, t^2 + t has a
    # pole of even order at infinity or none, and a has a simple one; factor
    # does not reach this field, so no check
    artin_schreier = f2_a.extend_algebraic("b", [f2_a.gen("a"), 1, 1], check=False)
    root_chain = perfect_closure_truncated(f2_a, 2)
    assert {"extend_step", "rec", "gauss_extend", "perfect_closure_truncated"} <= {
        caller for caller, _ in made
    }
    for caller, tower in made:
        step = tower.steps[-1]
        assert step.separable == _u_squarefree(tower.rings[-2], step.minpoly), caller
    assert artin_schreier.steps[-1].separable is True
    assert [s.separable for s in root_chain.steps[1:]] == [False, False]


def test_tensor_decompose_does_not_refactor_a_parsed_step(monkeypatch):
    # factor calls keyed by (tower, polynomial) per golden build: the steps
    # tensor_decompose meets over their own prefix were proved irreducible
    # at the parse and are not factored again
    from valext import poly

    real_factor = poly.factor
    calls = []

    def factor(f, *args, **kwargs):
        callers = set()
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(((f.tower, tuple(f.reps)), callers))
        return real_factor(f, *args, **kwargs)

    monkeypatch.setattr(poly, "factor", factor)
    parsed_steps = 0
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        calls.clear()
        _parse_and_build(text)
        parsed = {key for key, callers in calls if "_check_irreducible" in callers}
        decomposed = {key for key, callers in calls if "tensor_decompose" in callers}
        assert not parsed & decomposed, name
        parsed_steps += len(parsed)
    # one (tower, polynomial) pair per scenario with algebraic steps: r and
    # s of char2_trunc share y^2 + a over F_2(a), s2 and c of hensel_route
    # share y^2 - 2 over Q
    assert parsed_steps == 4


def test_a_step_that_splits_is_still_factored():
    # c's step is decomposed over Q(s2), not over its own prefix Q, so
    # y^2 - 2 is factored there and splits into two points
    scn = cli.parse_scenario(GOLDEN_SCENARIOS["hensel_route"]).to_extension_scenario()
    points = tensor_decompose(scn.kprime, scn.valuation.coefficient_field, scn.k_len)
    assert len(points) == 2
    assert [pt.multiplicity for pt in points] == [1, 1]


def test_each_build_factors_each_polynomial_once(monkeypatch):
    # factor calls keyed by (tower, polynomial) over each golden parse and
    # build: the parse proves y^2 - 2 over Q irreducible once for s2 and c of
    # hensel_route (and y^2 + a over F_2(a) once for r and s of char2_trunc),
    # and the split step of hensel_route hands the factorization
    # tensor_decompose made to the lift instead of factoring w^2 - 2 again
    from valext import poly

    real_factor = poly.factor
    calls = []

    def factor(f, *args, **kwargs):
        calls.append((f.tower, tuple(f.reps)))
        return real_factor(f, *args, **kwargs)

    monkeypatch.setattr(poly, "factor", factor)
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        calls.clear()
        scn = cli.parse_scenario(text)
        parsed = len(calls)
        ext = scn.to_extension_scenario()
        (build_general if scn.truncation is not None else build_strictly_maximal)(ext)
        assert len(calls) == len(set(calls)), name
        if name in ("hensel_route", "char2_trunc"):
            assert parsed == 1, name
        if name == "hensel_route":
            assert len(calls) == 2


def test_no_tower_step_is_rendered_twice_per_operation(monkeypatch, tmp_path):
    # step renders keyed by (tower, step index) over each golden
    # extend --verify, the memo emptied first, as between two operations of a
    # long-lived process: every tower text the report and the provenance
    # print is made of steps rendered once
    render = fields._step_text.__wrapped__
    keys = []

    def step_text(tower):
        keys.append((tower, tower.level - 1))
        return render(tower)

    maxsize = fields._step_text.cache_parameters()["maxsize"]
    monkeypatch.setattr(fields, "_step_text", functools.lru_cache(maxsize)(step_text))
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        path = tmp_path / f"{name}.val"
        path.write_text(text)
        fields._step_text.cache_clear()
        keys.clear()
        assert cli.cmd_extend(str(path), verify=True, out=io.StringIO(), err=io.StringIO()) == 0
        assert keys and len(keys) == len(set(keys)), name


# ---------------------------------------------------------------------------
# Each check of a build is made once, and each can fire


def test_no_embedding_is_verified_twice(monkeypatch):
    # verify calls keyed by object identity over each golden build; every
    # verified map is held, so no id is reused within the run
    real = TowerHom.verify
    verified = []

    def verify(self):
        verified.append(self)
        return real(self)

    monkeypatch.setattr(TowerHom, "verify", verify)
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        start = len(verified)
        _parse_and_build(text)
        ids = [id(hom) for hom in verified[start:]]
        assert ids and len(ids) == len(set(ids)), name


@pytest.mark.parametrize("build", [build_strictly_maximal, build_general])
@pytest.mark.parametrize("field", ["Q(i)", "F_2(a)(r)"])
def test_a_k_embedding_that_breaks_a_relation_is_refused(q_i, f2_a_r, build, field):
    # i -> i + 1 and r -> r + 1 break i^2 + 1 = 0 and r^2 = a; the scenario
    # is accepted as given, and the build's decomposition refuses the map
    k = q_i if field == "Q(i)" else f2_a_r
    last = k.gen_names[-1]
    images = [k.gen(n) + (n == last) for n in k.gen_names]
    scn = ExtensionScenario(
        valuation=MonomialValuation(k, ["x"]),
        k_len=k.level,
        kprime=k.extend_transcendental("t"),
        k_hom=TowerHom(k, k, images),
        truncation=1,
    )
    with pytest.raises(StructuralError, match="does not respect relations"):
        build(scn)


def _golden_scenario(name: str) -> ExtensionScenario:
    return cli.parse_scenario(GOLDEN_SCENARIOS[name]).to_extension_scenario()


def _planted_points(monkeypatch, plant):
    """Make the builder's decomposition hand over ``plant(point)`` for each
    point."""
    from valext import builder

    real = builder.tensor_decompose
    monkeypatch.setattr(
        builder, "tensor_decompose", lambda *a: [plant(pt) for pt in real(*a)]
    )


def test_split_step_refuses_a_lift_without_the_chosen_factor(monkeypatch):
    from valext import builder

    scn = _golden_scenario("hensel_route")
    pt = tensor_decompose(scn.kprime, scn.valuation.coefficient_field, scn.k_len)[0]
    chosen = pt.records[0].factor
    real = builder.hensel_factor_lift

    def without_the_chosen(*args, **kwargs):
        lift = real(*args, **kwargs)
        pairs = zip(lift.factors, lift.residual_factors)
        kept = [g for g, r in pairs if r.reps != chosen.reps]
        assert len(kept) == len(lift.factors) - 1
        return dataclasses.replace(lift, factors=kept)

    monkeypatch.setattr(builder, "hensel_factor_lift", without_the_chosen)
    with pytest.raises(DomainError, match="lifted factors do not include the chosen branch"):
        build_strictly_maximal(scn)


@pytest.mark.parametrize("name", ["rank1_qi", "rank2_sqrt2", "hensel_route"])
def test_a_shifted_kprime_image_is_refused(monkeypatch, name):
    # the loop builds from the records alone; the final check of the images
    # against the relations of k' is what catches the shift
    def shifted(pt):
        return dataclasses.replace(pt, left_images=pt.left_images[:-1] + (pt.left_images[-1] + 1,))

    _planted_points(monkeypatch, shifted)
    with pytest.raises(DomainError, match="recorded generator images violate a defining relation"):
        build_strictly_maximal(_golden_scenario(name))


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "name, message",
    [
        # y^2 - 2 splits over Q(s2): the recorded factors (y - s2)(y + s2)
        # are not a factorization of the lift's residual y^2 - 2 + delta
        ("hensel_route", "not the residual polynomial's factorization"),
        # y^2 - 2 is irreducible over Q: the chosen factor is not the
        # modulus y^2 - 2 + delta it would prove irreducible
        ("rank2_sqrt2", "not the residual modulus"),
    ],
    ids=["hensel_route", "rank2_sqrt2"],
)
def test_a_minpoly_the_chosen_factor_does_not_divide_is_refused(
    monkeypatch, name, message, delta
):
    # an inconsistent record is an internal fault, never blamed on the input
    def planted(pt):
        records = tuple(
            dataclasses.replace(rec, minpoly=rec.minpoly + delta) if rec.minpoly else rec
            for rec in pt.records
        )
        return dataclasses.replace(pt, records=records)

    _planted_points(monkeypatch, planted)
    with pytest.raises(DomainError, match=message):
        build_strictly_maximal(_golden_scenario(name))


def _verify_all(golden_builds):
    return {name: verify_weakly_unramified(b, samples=40) for name, b in golden_builds.items()}


def _pairs_decomposed_at_each_prime(built) -> list:
    """(strictly maximal, separable over kappa, separable over k') of each
    residue pair, from Spec(k' tensor_k kappa(q)) and Spec(kappa(q) tensor_k
    k') decomposed at that prime: the definition the spectrum reads off the
    points over F."""
    scn = built.scenario
    k = scn.kprime.prefix(scn.k_len)
    images = dict(zip(scn.kprime.gen_names, built.kprime_images))
    kprime_sep = tower_separable_over(scn.kprime, scn.k_len)
    f_sep = tower_separable_over(scn.valuation.coefficient_field, scn.k_len)
    swap = scn.k_hom.is_inclusion() and f_sep
    rows = []
    for kappa, kappa_ext in zip(scn.valuation.prime_chain(), built.valuation_w.prime_chain()):
        same = {n: kappa_ext.gen(n) for n in kappa_ext.gen_names}
        hom = TowerHom(k, kappa, scn.k_hom.images)
        match = first_point_into(
            tensor_decompose(scn.kprime, kappa, scn.k_len, hom), kappa_ext, same, images
        )
        sep_base = sep_kprime = None
        if kprime_sep and match is not None:
            sep_base = separable_transfer_check(match).extension_separable
        if swap:
            swapped = first_point_into(
                tensor_decompose(kappa, scn.kprime, scn.k_len), kappa_ext, images, same
            )
            if swapped is not None:
                sep_kprime = separable_transfer_check(swapped).extension_separable
        rows.append((match is not None and match.strictly_maximal, sep_base, sep_kprime))
    return rows


def _seeded_kprimes(f: FieldTower, rng: random.Random) -> list:
    """k' towers over the prime field of ``f``, with seeded coefficients:
    split and irreducible minimal polynomials and a transcendental step."""
    k = f.prefix(0)
    if f.char == 3:
        # y^2 + 1, y^2 + y + 2 and y^2 + 2y + 2 are irreducible mod 3
        quadratic = rng.choice([[1, 0, 1], [2, 1, 1], [2, 2, 1]])
        return [
            k.extend_algebraic("c", quadratic),
            k.extend_transcendental("t").extend_algebraic("c", quadratic),
        ]
    m = rng.randrange(1, 4)
    return [
        k.extend_algebraic("c", [m * m, 0, 1]),  # c^2 + m^2
        k.extend_algebraic("c", [-2 * m * m, 0, 1]),  # c^2 - 2m^2
        k.extend_algebraic("c", [-2 * m**4, 0, 0, 0, 1]),  # c^4 - 2m^4
        k.extend_transcendental("t").extend_algebraic("c", [m**4, 0, 0, 0, 1]),
    ]


@pytest.mark.parametrize("seed", [1, 7919])
def test_spectrum_is_the_decomposition_over_each_kappa(
    golden_builds, seed, rationals, q_i, q_sqrt2, f3, f2_a, f2_a_r
):
    # each residue pair read from the points over F is the one that
    # decompositions made at its own prime give
    builds = [b for b in golden_builds.values() if b.path == "strictly-maximal"]
    assert len(builds) == 4
    rng = random.Random(seed)
    for f in (rationals, q_i, q_sqrt2, f3):
        for rank in (1, 2, 3):
            v = MonomialValuation(f, [f"x{i}" for i in range(1, rank + 1)])
            for kprime in _seeded_kprimes(f, rng):
                for index in range(len(tensor_decompose(kprime, f, 0))):
                    scn = ExtensionScenario(v, 0, kprime, point_index=index, seed=seed)
                    try:
                        builds.append(build_strictly_maximal(scn))
                    except PreconditionError:  # not strictly maximal
                        pass
    assert len(builds) > 12
    # and columns that read n/a: F/k inseparable, k'/k inseparable, and k
    # embedded into F other than as a prefix
    q_j = rationals.extend_algebraic("j", [1, 0, 1])
    a = f2_a.gen("a")
    for f, kprime, k_hom in (
        (f2_a_r, f2_a.extend_transcendental("t"), None),
        (f2_a, f2_a.extend_algebraic("s", [a, 0, 1]), None),
        (q_j, q_i.extend_algebraic("s", [-2, 0, 1]), TowerHom(q_i, q_j, [q_j.gen("j")])),
    ):
        v = MonomialValuation(f, ["x1", "x2"])
        builds.append(build_strictly_maximal(ExtensionScenario(v, 1, kprime, k_hom, seed=seed)))
    for built in builds:
        spec = spectrum_correspondence(built)
        row = (spec.strictly_maximal, spec.separable_over_base, spec.separable_over_kprime)
        got = [row] * len(spec.chain_base)
        assert got == _pairs_decomposed_at_each_prime(built), built.scenario.kprime.describe()


def test_verification_passes_without_a_fault(golden_builds):
    for name, weak in _verify_all(golden_builds).items():
        assert weak.structural_equal and weak.passed, name


@pytest.mark.parametrize("delta", [1, -1])
def test_verification_catches_a_monomial_off_by_one(golden_builds, monkeypatch, delta):
    # the exponent of the last variable is off by one: the witness of some
    # variable x_i, built by monomial() from its unit step, is x_i * x_n^(+-1),
    # whose value in W is not that unit step
    monomial = MonomialValuation.monomial

    def shifted(self, value):
        step = [0] * (self.rank - 1) + [Fraction(delta, self.group.denominator)]
        return monomial(self, value.mul(self.group.element(step)))

    monkeypatch.setattr(MonomialValuation, "monomial", shifted)
    for name, weak in _verify_all(golden_builds).items():
        assert weak.value_samples_ok, name
        assert not weak.maximal_ideal_ok, name


def test_verification_catches_a_group_that_contains_nothing(golden_builds, monkeypatch):
    monkeypatch.setattr(ValueGroup, "contains", lambda self, value: False)
    for name, weak in _verify_all(golden_builds).items():
        assert not weak.value_samples_ok, name


def _off_lattice(g: ValueGroup, v: ValueWithZero) -> ValueWithZero:
    """A nonzero v moved off the group g: one more 1/(pD) in the last
    coordinate of a finer group in characteristic p, a value of another rank
    in characteristic 0."""
    if g.char_exponent > 1:
        fine = ValueGroup(g.rank, g.char_exponent, g.denom_exponent + 1)
        k = fine.element(v.coords).steps
        return ValueWithZero(fine, k[:-1] + (k[-1] + 1,))
    other = ValueGroup(g.rank % config.MAX_RANK + 1)
    return ValueWithZero(other, (v.steps + (0,) * config.MAX_RANK)[: other.rank])


def test_verification_reports_values_off_the_lattice(golden_builds, monkeypatch):
    # value() hands over a value W's group does not contain.  Both lines turn
    # False: the sampled-values line with a detail line that prints the
    # sampled fraction, and the maximal-ideal line with one that names the
    # first variable and the value W gave it
    value = MonomialValuation.value

    def off_lattice(self, z):
        v = value(self, z)
        return v if v.is_zero else _off_lattice(self.group, v)

    monkeypatch.setattr(MonomialValuation, "value", off_lattice)
    for name, weak in _verify_all(golden_builds).items():
        assert not weak.value_samples_ok and not weak.maximal_ideal_ok, name
        escaped = [d for d in weak.details if "escapes the group" in d]
        assert len(escaped) == 1, name
        # "value v of z escapes the group": z over a variable monomial
        assert "/" in escaped[0].split(" of ", 1)[1], name
        x = golden_builds[name].valuation_w.variables[0]
        assert sum(d.startswith(f"variable {x} has value ") for d in weak.details) == 1, name


def test_verification_reports_a_witness_value_off_the_lattice(golden_builds, monkeypatch):
    # every sampled element keeps its value, and the witness of each
    # variable gets one off the group: the maximal-ideal line alone turns
    # False, with one detail line
    from valext import builder

    value, sample = MonomialValuation.value, builder.random_fraction_element
    sampled = []

    def recorded(v, rng):
        sampled.append(sample(v, rng))
        return sampled[-1]

    def witness_off_lattice(self, z):
        v = value(self, z)
        return v if any(z is s for s in sampled) else _off_lattice(self.group, v)

    monkeypatch.setattr(builder, "random_fraction_element", recorded)
    monkeypatch.setattr(MonomialValuation, "value", witness_off_lattice)
    for name, weak in _verify_all(golden_builds).items():
        assert weak.value_samples_ok and not weak.maximal_ideal_ok, name
        assert not any("escapes the group" in d for d in weak.details), name
        assert sum(d.startswith("variable ") for d in weak.details) == 1, name


def _one_step_up(monkeypatch):
    """Plant a ``value`` one lattice step up in the last coordinate."""
    value = MonomialValuation.value

    def shifted(self, z):
        v = value(self, z)
        return v if v.is_zero else ValueWithZero(v.group, v.steps[:-1] + (v.steps[-1] + 1,))

    monkeypatch.setattr(MonomialValuation, "value", shifted)


def test_verification_catches_a_value_one_step_up(golden_builds, monkeypatch):
    # every value stays in W's group, so the sampled-values line holds; the
    # value of a variable is not the unit step that defines it
    _one_step_up(monkeypatch)
    for name, weak in _verify_all(golden_builds).items():
        assert weak.value_samples_ok and not weak.maximal_ideal_ok, name
        assert not weak.passed, name
        assert sum(d.startswith("variable ") for d in weak.details) == 1, name


@pytest.mark.parametrize("name", sorted(n for n, t in GOLDEN_SCENARIOS.items() if "[valuation]" in t))
def test_extend_verify_exits_6_on_a_value_one_step_up(tmp_path, monkeypatch, name):
    # the whole report is printed with the failed line, and the exit code and
    # stderr name the FLAGS section
    _one_step_up(monkeypatch)
    path = tmp_path / f"{name}.val"
    path.write_text(GOLDEN_SCENARIOS[name])
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_extend(str(path), verify=True, out=out, err=err) == 6
    assert err.getvalue() == "verification failed: FLAGS\n"
    assert "maximal ideal generated by the base ideal: False" in out.getvalue()
    assert out.getvalue().startswith("GROUP\n") and "PROVENANCE" in out.getvalue()


def test_verification_catches_a_base_map_that_violates_a_relation(golden_builds, monkeypatch):
    # the builds are made; from here on no relation check holds
    monkeypatch.setattr(TowerHom, "verify", lambda self: False)
    for name, weak in _verify_all(golden_builds).items():
        assert weak.value_samples_ok and not weak.maximal_ideal_ok, name
        assert weak.details[-1] == (
            "the base's generators, mapped by name into W, violate a relation"
        ), name


# ---------------------------------------------------------------------------
# What --verify samples is a fixed function of the scenario's seed


def _verification_stream(build, monkeypatch):
    """The elements ``verify_weakly_unramified`` samples at the 200 samples
    of ``--verify``, as printed, each on a line ``z <element>``.  A line
    ``t <value>`` once recorded each forced target of the sampled
    maximal-ideal check, which the exact check replaced; none is drawn."""
    from valext import builder

    lines = []
    real_sample = builder.random_fraction_element

    def sample(v, rng):
        z = real_sample(v, rng)
        lines.append(f"z {z}")
        return z

    with monkeypatch.context() as m:
        m.setattr(builder, "random_fraction_element", sample)
        verify_weakly_unramified(build)
    return lines


# (sampled elements, forced targets, sha256 prefix of the lines) per golden
# build.  Each digest is that of the first 200 samples of the stream recorded,
# with 200 more samples and 200 forced targets, before the sampler read its
# draws from getrandbits: the exact check took the second loop's place and
# left the first loop's draws as they were
VERIFICATION_STREAMS = {
    "char2_trunc": (200, 0, "ed3e00884be891c3"),
    "hensel_route": (200, 0, "8d968c644488b809"),
    "rank1_qi": (200, 0, "a65e65da385cca50"),
    "rank2_sqrt2": (200, 0, "fa8b0e45c84639d0"),
    "rank2_trans": (200, 0, "62e12d56335526a6"),
}


def _stream_digests(builds, monkeypatch):
    """(sampled elements, forced targets, digest) of each build's stream."""
    got = {}
    for name, build in sorted(builds.items()):
        lines = _verification_stream(build, monkeypatch)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        got[name] = (
            sum(line.startswith("z ") for line in lines),
            sum(line.startswith("t ") for line in lines),
            digest,
        )
    return got


def test_the_verification_stream_is_pinned(golden_builds, monkeypatch):
    assert _stream_digests(golden_builds, monkeypatch) == VERIFICATION_STREAMS


_PRINT_STREAMS = """
import json
import pytest
import test_builder as t
with pytest.MonkeyPatch.context() as m:
    print(json.dumps(t._stream_digests(t._golden_builds(), m)))
"""


def test_the_verification_stream_is_pinned_under_python_O_and_another_hash_seed():
    # a fresh interpreter: -O strips asserts, and the hash seed changes the
    # iteration order of every set of strings, so neither the samples nor
    # where their terms are placed may depend on either
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PRINT_STREAMS],
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]),
            PYTHONHASHSEED="98765",
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = {name: tuple(row) for name, row in json.loads(proc.stdout).items()}
    assert got == VERIFICATION_STREAMS


def test_a_passing_verification_reads_no_coordinates(golden_builds, monkeypatch):
    # a value is its lattice steps: sampling, forcing and the witnesses read
    # and form steps only, and Fraction coordinates are made for rendering
    reads = []
    coords = ValueWithZero.coords

    def counted(self):
        reads.append(self)
        return coords.fget(self)

    monkeypatch.setattr(ValueWithZero, "coords", property(counted))
    for name, build in sorted(golden_builds.items()):
        assert verify_weakly_unramified(build).passed, name
    assert reads == []


def test_verification_takes_no_gcd(golden_builds, monkeypatch):
    # verification divides only by monomials, and the inverse of c * g^i / d
    # at each transcendental level is (d/c) / g^i, canonical as it stands:
    # no fraction is reduced and no gcd is taken
    calls = []
    frac, gcd = TranscendentalLevel.frac, fields._u_gcd

    def counted_frac(self, num, den):
        calls.append("frac")
        return frac(self, num, den)

    def counted_gcd(R, a, b):
        calls.append("_u_gcd")
        return gcd(R, a, b)

    monkeypatch.setattr(TranscendentalLevel, "frac", counted_frac)
    monkeypatch.setattr(fields, "_u_gcd", counted_gcd)
    for name, build in sorted(golden_builds.items()):
        weak = verify_weakly_unramified(build)
        assert weak.passed and calls == [], name


def test_verification_draws_and_walks_without_per_draw_or_per_level_calls(
    golden_builds, monkeypatch
):
    # the samplers read their bits from getrandbits themselves; at rank 1 a
    # sample places its terms with one _fraction_level call (none when every
    # drawn coefficient is zero), and a value reads the minimal monomial
    # without a _min_poly_term call.  No value is checked or hashed per
    # sample: the only checked constructions are the exact check's, the unit
    # step of each variable once for its witness, which alone is handed to
    # monomial, and once as the value expected
    from valext import builder, norms, valuations
    from valext.value_groups import ValueWithZero

    counts = collections.Counter()
    per_sample = collections.Counter()
    checked = []
    monomials = []

    def post_init(value):
        checked.append(value.steps)
        real_post_init(value)

    def hashed(value):
        counts["__hash__"] += 1
        return real_hash(value)

    def monomial(v, value):
        monomials.append(value.steps)
        return real_monomial(v, value)

    real_post_init, real_hash = ValueWithZero.__post_init__, ValueWithZero.__hash__
    real_monomial = valuations.MonomialValuation.monomial
    monkeypatch.setattr(ValueWithZero, "__post_init__", post_init)
    monkeypatch.setattr(ValueWithZero, "__hash__", hashed)
    monkeypatch.setattr(valuations.MonomialValuation, "monomial", monomial)

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)

        return call

    def sample(v, rng):
        before = counts["_fraction_level"]
        z = real_sample(v, rng)
        per_sample[counts["_fraction_level"] - before] += 1
        return z

    real_sample = builder.random_fraction_element
    monkeypatch.setattr(builder, "random_fraction_element", sample)
    for module, name in [
        (norms, "randbelow"),
        (norms, "_fraction_level"),
        (fields, "_fraction_level"),
        (valuations, "_fraction_level"),
        (valuations, "_min_poly_term"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name, build in sorted(golden_builds.items()):
        counts.clear()
        per_sample.clear()
        checked.clear()
        monomials.clear()
        assert verify_weakly_unramified(build).passed, name
        assert sum(per_sample.values()) == 200 and counts["randbelow"] == 0, name
        assert counts["__hash__"] == 0, name
        rank = build.valuation_w.rank
        units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
        assert checked == [u for u in units for _ in range(2)], name
        assert monomials == units, name
        if build.valuation_w.rank == 1:
            assert per_sample[1] > 0 and set(per_sample) <= {0, 1}, name
            assert counts["_min_poly_term"] == 0, name


@pytest.mark.parametrize("p, n_trunc", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_the_closure_of_k_equal_to_f_is_embedded_without_a_root(monkeypatch, p, n_trunc):
    # the fpa_trunc shapes of the benchmark: k = F = F_p(a), s^p = a^2 + a
    f = FieldTower.prime_field(p).extend_transcendental("a")
    a = f.gen("a")
    kprime = f.extend_algebraic("s", [-(a**2 + a)] + [0] * (p - 1) + [1])
    scn = ExtensionScenario(MonomialValuation(f, ["x"]), 1, kprime, truncation=n_trunc)

    def no_root(z):
        raise AssertionError(f"a p-th root of {z} was derived")

    monkeypatch.setattr("valext.builder.pth_root", no_root)
    built = build_general(scn)
    monkeypatch.undo()
    assert built.path == "general" and built.kprime_hom().verify()
    # the identity is the only extension: each closure generator is the
    # unique p-th root of its base
    f_dag = perfect_closure_truncated(f, n_trunc)
    assert f_dag.level == 1 + n_trunc
    for j in range(f.level, f_dag.level):
        base = f_dag.embed(-f_dag.minpoly_coeffs(j)[0])
        assert pth_root(base) == f_dag.gen(f_dag.gen_names[j])
