"""Construction of valuation rings dominating V and containing a prescribed
extension k' of a marked subfield k of V.

The strictly maximal path requires the chosen minimal prime of the residual
tensor algebra to have multiplicity one.  It realizes the extension by
iterating the steps of k' over V, each from the record that
``compositum.tensor_decompose`` kept of it, and every step is one Gauss
extension: through the Gauss norm on V[w] for a transcendental step, on
V[w]/(g) for an algebraic one.  There g is the chosen residual factor of the
step's minimal polynomial f, carried into the running field
(``StepRecord.minpoly``).  The coefficients of f are constants, so g = f
when g has f's degree; otherwise the step splits, and the exact factor lift
of f (at any rank) checks that the factorization multiplies back to f and
that g is one of the lifted factors.  The recorded k' images are checked
against every relation of k' at the end.  The value group never moves, which
is the whole point.

The general path first adjoins truncated p-power roots: the coefficient
field and the variables each receive p^N-th roots, the value group becomes
(1/p^N) Z^n, and k' is replaced by its unique composed extension with the
truncated perfect closure of k; the strictly maximal path then applies.  The
quotient of the two groups is p-torsion and the final residue field is
radicial over the subfield generated by k' and the original residue field.

A build is sequential (the provenance log orders its steps); independent
scenarios can run in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .compositum import (
    CompositumPoint,
    first_point_into,
    separable_transfer_check,
    tensor_decompose,
)
from .errors import CapabilityError, PreconditionError, SelfCheckError, StructuralError
from .fields import (
    FieldElement,
    FieldTower,
    TowerHom,
    check_closure_degree,
    is_radicial,
    perfect_closure_truncated,
    pth_root,
    tower_separable_over,
)
from .norms import FreeAlgebra, gauss_extend, random_fraction_element
from .poly import Polynomial
from .valuations import MonomialValuation, hensel_factor_lift
from .value_groups import ValueGroup, ValueWithZero, is_p_torsion_quotient


@dataclass
class ExtensionScenario:
    """Input data: V (a monomial valuation), the marked subfield k of its
    coefficient field, and the extension k' given as a tower over k."""

    valuation: MonomialValuation
    k_len: int
    kprime: FieldTower
    k_hom: TowerHom | None = None
    point_index: int = 0
    truncation: int | None = None
    seed: int = 0

    def __post_init__(self):
        f_tower = self.valuation.coefficient_field
        if not 0 <= self.k_len <= self.kprime.level:
            raise StructuralError("k must be a prefix of k'")
        k = self.kprime.prefix(self.k_len)
        if self.k_hom is None:
            if not k.is_prefix_of(f_tower):
                raise StructuralError("k must be a prefix of the coefficient field")
            self.k_hom = TowerHom.inclusion(k, f_tower)
        else:
            # its relations are checked once, by the build's tensor_decompose
            if self.k_hom.source != k or self.k_hom.target != f_tower:
                raise StructuralError("k embedding must map k into the coefficient field")


@dataclass
class BuiltExtension:
    """The realized extension W with its provenance.

    W is itself a monomial valuation over the enlarged coefficient field
    F1; domination of V and containment of k' are witnessed by the recorded
    generator images and checked relations.  ``truncated_valuation`` is the
    general path's truncated base (V read at the truncation exponent N), and
    None on the strictly maximal path; the path and N are read off it.
    """

    scenario: ExtensionScenario
    valuation_w: MonomialValuation
    points: tuple[CompositumPoint, ...]  # the residual decomposition
    kprime_images: tuple[FieldElement, ...]
    provenance: tuple[str, ...]
    truncated_valuation: MonomialValuation | None = None
    p_torsion_ok: bool | None = None
    radicial_ok: bool | None = None

    @property
    def path(self) -> str:
        return "strictly-maximal" if self.truncated_valuation is None else "general"

    @property
    def truncation(self) -> int | None:
        """N, the denominator exponent of the truncated base."""
        v = self.truncated_valuation
        return None if v is None else v.denom_exponent

    @property
    def point(self) -> CompositumPoint:
        """The residual point the build went through."""
        return self.points[self.scenario.point_index]

    @property
    def group_gamma(self) -> ValueGroup:
        """The value group of V."""
        return self.scenario.valuation.group

    @property
    def group_delta(self) -> ValueGroup:
        """The value group of W."""
        return self.valuation_w.group

    @property
    def residue_field(self) -> FieldTower:
        """F1, the coefficient field of W."""
        return self.valuation_w.coefficient_field

    @property
    def weakly_unramified_over_input(self) -> bool:
        return self.group_delta == self.group_gamma

    def kprime_hom(self) -> TowerHom:
        return TowerHom(self.scenario.kprime, self.residue_field, self.kprime_images)

    def base_embedding(self) -> TowerHom:
        """V's fraction field into W's.

        Coefficient generators keep their names (F is a prefix of F1); on the
        general path each variable maps to the p^N-th power of its reread
        root, so values restrict exactly.
        """
        v0 = self.scenario.valuation
        kw = self.valuation_w.function_field
        power = self.group_delta.denominator // self.group_gamma.denominator
        imgs = [kw.gen(n) for n in v0.coefficient_field.gen_names]
        imgs += [kw.gen(n) ** power for n in v0.variables]
        return TowerHom(v0.function_field, kw, imgs)



def build_strictly_maximal(scn: ExtensionScenario) -> BuiltExtension:
    """Extend V through a strictly maximal residual point; the value group
    is preserved exactly.  A scenario whose V is read at its own truncation
    exponent N (denominator exponent N) is the inner build of
    ``build_general``, so its refusal of a multiple point advises a larger N."""
    v0 = scn.valuation
    f_tower = v0.coefficient_field
    points = tensor_decompose(scn.kprime, f_tower, scn.k_len, scn.k_hom)
    if not 0 <= scn.point_index < len(points):
        raise PreconditionError(
            f"point index {scn.point_index} out of range ({len(points)} points)"
        )
    pt = points[scn.point_index]
    if not pt.strictly_maximal:
        where, advice = "", "use the general construction with a truncation exponent"
        if scn.truncation == v0.denom_exponent:
            where, advice = f" at truncation {scn.truncation}", "try a larger truncation exponent"
        raise PreconditionError(
            f"chosen residual point has multiplicity {pt.multiplicity} > 1{where}; {advice}"
        )
    prov: list[str] = [
        f"residual tensor decomposition: {len(points)} point(s), chose index {pt.index}"
    ]
    v_cur = v0
    for rec in pt.records:
        k_cur = v_cur.function_field
        ind = k_cur.fresh_name("w")
        if rec.minpoly is None:
            algebra = FreeAlgebra.polynomial(v_cur, ind)
            what = (
                f"transcendental; extended through the Gauss norm on {algebra.describe()}, "
                f"residue gains {rec.appended}"
            )
        elif rec.factor.degree() == rec.minpoly.degree():
            algebra = FreeAlgebra.quotient(v_cur, _carried(rec.minpoly, k_cur, ind))
            what = (
                "residual minimal polynomial irreducible; extended through the Gauss "
                f"norm on {algebra.describe()}"
            )
        else:
            lift = hensel_factor_lift(v_cur, _carried(rec.minpoly, k_cur, ind), factors=rec.factors)
            if lift.refused:
                raise CapabilityError(f"factor lift refused at step {rec.gen}: {lift.refusal}")
            modulus = _carried(rec.factor, k_cur, ind)
            if modulus not in lift.factors:
                raise SelfCheckError("lifted factors do not include the chosen branch")
            algebra = FreeAlgebra.quotient(v_cur, modulus)
            what = (
                "residual splits as "
                + " * ".join(f"({g})" for g in lift.residual_factors)
                + f"; factor lift at precision {lift.precision} routes to ({rec.factor}),"
                f" lifted factor ({modulus})"
            )
        ext = gauss_extend(algebra, rec.appended, factor=rec.factor)
        v_cur = MonomialValuation(ext.residue_field, v0.variables, v0.denom_exponent)
        prov.append(f"step {rec.gen}: {what}")
    if v_cur.coefficient_field != pt.field:
        raise SelfCheckError("constructed residue field disagrees with the chosen point")
    k_hom_check = TowerHom(scn.kprime, pt.field, pt.left_images)
    if not k_hom_check.verify():
        raise SelfCheckError("recorded generator images violate a defining relation")
    prov.append(
        "k' images verified against their defining relations: "
        + ", ".join(
            f"{n} -> {im}" for n, im in zip(scn.kprime.gen_names, pt.left_images)
        )
    )
    return BuiltExtension(
        scenario=scn,
        valuation_w=v_cur,
        points=tuple(points),
        kprime_images=pt.left_images,
        provenance=tuple(prov),
    )


def _carried(g: Polynomial, k: FieldTower, var: str) -> Polynomial:
    """g, a polynomial over the coefficient field of ``k``, as a polynomial
    over ``k`` in ``var``."""
    return Polynomial.from_coeffs(k, var, [k.embed(c) for c in g.univariate_coeffs()])


def build_general(scn: ExtensionScenario) -> BuiltExtension:
    """The truncated-perfect-closure route at the scenario's truncation
    exponent N (None reads as 0); works without any reducedness hypothesis on
    the residual tensor algebra.

    In characteristic zero (or at truncation 0 with a reduced residual
    algebra) this is the strictly maximal construction.  Otherwise p^N-th
    roots of the variables and of the coefficient-field generators are
    adjoined first; the group quotient is then p-torsion and the residue
    field is radicial over the subfield generated by k' and F.
    """
    n_trunc = scn.truncation or 0
    if scn.valuation.denom_exponent != 0:
        raise StructuralError("the general construction starts from a denominator-free V")
    p = scn.valuation.coefficient_field.char
    if p == 0:
        built = build_strictly_maximal(scn)
        built.provenance = built.provenance + (
            "characteristic zero: the strictly maximal construction applies directly",
        )
        return built
    v0 = scn.valuation
    f_tower = v0.coefficient_field
    # the build closes F, and the composed extension of k' with the closure
    # of k carries k''s transcendental steps above k: all are charged
    steps = f_tower.steps + scn.kprime.steps[scn.k_len :]
    check_closure_degree(p, n_trunc, sum(1 for s in steps if not s.is_algebraic))
    prov: list[str] = []
    f_dag = perfect_closure_truncated(f_tower, n_trunc)
    new_gens = f_dag.gen_names[f_tower.level :]
    prov.append(
        f"coefficient field closure at exponent {n_trunc}: adjoined "
        + (", ".join(new_gens) if new_gens else "nothing (already closed)")
    )
    v_dag = MonomialValuation(f_dag, v0.variables, n_trunc)
    prov.append(
        f"variables reread as p^{n_trunc}-th roots: value group {v_dag.group.describe()}"
    )
    k = scn.kprime.prefix(scn.k_len)
    # k is often F itself, whose closure is built above
    k_dag = f_dag if k == f_tower else perfect_closure_truncated(k, n_trunc)
    if k == f_tower and scn.k_hom.is_inclusion():
        # k = F: p-th roots are unique, so the identity of F extends to the
        # closures in one way only, as the identity, and no root is derived
        imgs = [f_dag.gen(n) for n in f_dag.gen_names]
    else:
        imgs = [f_dag.embed(scn.k_hom.apply(k.gen(n))) for n in k.gen_names]
    for j in range(len(imgs), k_dag.level):
        base = -k_dag.minpoly_coeffs(j)[0]
        b_img = TowerHom(k_dag.prefix(j), f_dag, imgs).apply(base)
        root = pth_root(b_img)
        if root is None or root**p != b_img:
            raise SelfCheckError("closure of k does not embed into the closure of F")
        imgs.append(root)
    # the inner build's tensor_decompose checks its relations, and with them
    # those of scn.k_hom, which it extends
    k_dag_hom = TowerHom(k_dag, f_dag, imgs)
    prov.append(f"closure of k embedded into closure of F: {k_dag.describe()}")
    kk_points = tensor_decompose(scn.kprime, k_dag, scn.k_len)
    if len(kk_points) != 1:
        raise SelfCheckError(
            "composed extension with a radicial closure must be unique; "
            f"found {len(kk_points)}"
        )
    kk = kk_points[0]
    prov.append(
        f"unique composed extension of k' with the closure: {kk.field.describe()} "
        f"(multiplicity {kk.multiplicity})"
    )
    inner = ExtensionScenario(
        valuation=v_dag,
        k_len=k_dag.level,
        kprime=kk.field,
        k_hom=k_dag_hom,
        point_index=scn.point_index,
        truncation=n_trunc,
        seed=scn.seed,
    )
    built_inner = build_strictly_maximal(inner)
    f1 = built_inner.residue_field
    kk_hom = built_inner.kprime_hom()
    kprime_images = tuple(kk_hom.apply(im) for im in kk.left_images)  # k' -> k'' -> F1
    if not TowerHom(scn.kprime, f1, kprime_images).verify():
        raise SelfCheckError("composed k' images violate a relation")
    torsion = is_p_torsion_quotient(v0.group, built_inner.group_delta, p)
    radicial_ok, radicial_note = _certify_radicial(f_tower, f_dag, f1, kprime_images)
    prov.extend(built_inner.provenance)
    prov.append(f"group quotient p-torsion: {torsion}")
    prov.append(f"residue field radicial over the k'F subfield: {radicial_ok} ({radicial_note})")
    return BuiltExtension(
        scenario=scn,
        valuation_w=built_inner.valuation_w,
        points=built_inner.points,
        kprime_images=kprime_images,
        provenance=tuple(prov),
        truncated_valuation=v_dag,
        p_torsion_ok=torsion,
        radicial_ok=radicial_ok,
    )


def _certify_radicial(
    f_tower: FieldTower,
    f_dag: FieldTower,
    f1: FieldTower,
    kprime_images: tuple[FieldElement, ...],
) -> tuple[bool, str]:
    """F1 radicial over the subfield generated by k' and F.

    When every k' image already lies in the F prefix the subfield is that
    prefix and the direct radiciality test applies.  Otherwise the
    certificate is structural: chain generators have p-power witnesses in F
    and the remaining generators are k' images, so they generate the
    subfield together with F.
    """
    if all(im.restrict(f_tower.level) is not None for im in kprime_images):
        ok = is_radicial(f_tower, f1)
        return ok, "k'F = F as a prefix; direct test"
    if not is_radicial(f_tower, f_dag):
        return False, "closure chain generators lack p-power witnesses"
    uncovered = set(f1.gen_names[f_dag.level :]) - _generators_hit(f1, kprime_images)
    if uncovered:
        return False, f"generators {sorted(uncovered)} are not k' images"
    return True, "chain generators have p-power witnesses in F; the rest are k' images"


def _generators_hit(tower: FieldTower, images) -> set[str]:
    """The names of the generators of ``tower`` that equal one of the
    ``images`` (elements of prefixes of ``tower``)."""
    elems = [tower.embed(im) for im in images]
    return {name for name in tower.gen_names if tower.gen(name) in elems}


# ---------------------------------------------------------------------------
# Verification reports


@dataclass
class WeakUnramReport:
    structural_equal: bool
    relative_to: str
    value_samples_ok: bool
    maximal_ideal_ok: bool
    samples: int
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.structural_equal and self.value_samples_ok and self.maximal_ideal_ok

    def render_lines(self) -> list[str]:
        return [
            f"verification against {self.relative_to}: groups equal = {self.structural_equal}",
            f"  sampled values inside the claimed group: {self.value_samples_ok}"
            f" ({self.samples} samples)",
            f"  maximal ideal generated by the base ideal: {self.maximal_ideal_ok}",
        ] + [f"  {d}" for d in self.details]


def verify_weakly_unramified(built: BuiltExtension, samples: int = 200) -> WeakUnramReport:
    """Certification that W extends the base weakly unramified: the groups
    agree structurally, sampled values land in the claimed group, and the
    maximal ideal of W is generated by that of the base, which
    ``_maximal_ideal_failure`` checks exactly when the groups agree.  The
    base is V, or the truncated base on the general path.

    A failed check sets its line to False with a detail line.  The samples
    are drawn from the scenario's seed."""
    rng = random.Random(built.scenario.seed)
    w = built.valuation_w
    base, relative, details = built.truncated_valuation, "the truncated base", []
    if base is None:
        base, relative = built.scenario.valuation, "V"
    else:
        details.append(
            f"over V itself: group {built.group_delta.describe()} vs "
            f"{built.group_gamma.describe()}, weakly unramified: "
            f"{built.weakly_unramified_over_input}"
        )
    structural = w.group == base.group
    ok_values = True
    for _ in range(samples):
        z = random_fraction_element(w, rng)
        val = w.value(z)
        if not w.group.contains(val):
            ok_values = False
            details.append(f"value {val} of {z} escapes the group")
            break
    failure = _maximal_ideal_failure(base, w) if structural else None
    if failure is not None:
        details.append(failure)
    ok_ideal = structural and failure is None
    return WeakUnramReport(structural, relative, ok_values, ok_ideal, samples, details)


def _maximal_ideal_failure(base: MonomialValuation, w: MonomialValuation) -> str | None:
    """Why m_base W = m_W is not certified, or None when it is; ``base`` and
    ``w`` have the same value group.

    phi maps the base's function field into W's by generator names.  Two
    finite facts make w restrict to the base's valuation along phi, and then
    every positive value of W, an element of the common group, is the value
    of a base monomial: phi is a field map (``TowerHom.verify``), and
    w(phi(x_i)) is the unit step e_i that defines the base's value of each
    variable x_i.  The expected value is read off that definition, never
    from ``base.value``, which shares W's code; the witness x_i is
    ``base.monomial`` of the unit step."""
    kw = w.function_field
    phi = TowerHom(base.function_field, kw, [kw.gen(n) for n in base.function_field.gen_names])
    if not phi.verify():
        return "the base's generators, mapped by name into W, violate a relation"
    for i, x in enumerate(base.variables):
        unit = tuple(int(j == i) for j in range(base.rank))
        got = w.value(phi.apply(base.monomial(ValueWithZero(base.group, unit))))
        expected = ValueWithZero(w.group, unit)
        if got != expected:
            return f"variable {x} has value {got} in W, not its unit step {expected}"
    return None


@dataclass
class SpectrumReport:
    """The prime chains of V and W, as residue fields, and the one
    residue-pair row that every pair of the chains prints."""

    chain_base: list[FieldTower]
    chain_ext: list[FieldTower]
    strictly_maximal: bool
    separable_over_base: bool | None
    separable_over_kprime: bool | None
    iso_verified: bool

    @property
    def passed(self) -> bool:
        return (
            len(self.chain_base) == len(self.chain_ext)
            and self.iso_verified
            and self.strictly_maximal
        )

    def render_lines(self) -> list[str]:
        sep1 = "n/a" if self.separable_over_base is None else str(self.separable_over_base)
        sep2 = "n/a" if self.separable_over_kprime is None else str(self.separable_over_kprime)
        out = [f"primes: {len(self.chain_ext)} <-> {len(self.chain_base)}"]
        for j, (kappa, kappa_ext) in enumerate(zip(self.chain_base, self.chain_ext)):
            out += [
                f"pair {j}: kappa = {kappa.describe()}",
                f"  kappa' = {kappa_ext.describe()}",
                f"  strictly maximal composed extension: {self.strictly_maximal} "
                f"(iso verified: {self.iso_verified})",
                f"  separable over kappa: {sep1}; separable over k': {sep2}",
            ]
        return out


def spectrum_correspondence(built: BuiltExtension) -> SpectrumReport:
    """Pair the prime chains of W and V and certify each residue pair.

    For every prime q of V with image q' of W: kappa(q') is a strictly
    maximal composed extension of k' and kappa(q), the point of
    Spec(k' tensor_k kappa(q)) that maps onto it.  The separability columns
    are ``separable_transfer_check`` on that point when k'/k is separable,
    and on the matching point of Spec(kappa(q) tensor_k k') when F/k is
    separable and k is a prefix of F by inclusion; otherwise n/a.  Requires
    the strictly maximal path (the general path certifies the prime-count
    bijection and radiciality instead).

    Nothing is decomposed or mapped per prime, by the lemma: a field E is
    algebraically closed in E(x), x transcendental, as the coefficients of a
    monic factor over E(x) of a polynomial over E are algebraic over E.
    kappa(q) is F with variables appended, so the points over it are those
    over F with the variables appended, with the same flags, and a point
    maps into kappa(q') exactly when its base change does, hitting the same
    generators.  So the row read at the closed point (kappa = F, kappa' =
    F1), from the build's points and one Spec(F tensor_k k'), is every
    prime's row, and the report keeps that one row with the two chains.
    """
    if built.path != "strictly-maximal":
        raise PreconditionError(
            "the residue-pair correspondence is a strictly-maximal-path check"
        )
    scn = built.scenario
    f_tower, f1 = scn.valuation.coefficient_field, built.residue_field
    kprime_images = dict(zip(scn.kprime.gen_names, built.kprime_images))
    same_names = {n: f1.gen(n) for n in f1.gen_names}
    match = first_point_into(built.points, f1, same_names, kprime_images)
    # the map hits the F generators and every recorded k' image, so it is
    # onto when those cover all generators of F1
    iso_ok = match is not None and (
        set(f_tower.gen_names) | _generators_hit(f1, built.kprime_images)
    ).issuperset(f1.gen_names)
    sep_over_base = sep_over_kprime = None
    if match is not None and tower_separable_over(scn.kprime, scn.k_len):
        sep_over_base = separable_transfer_check(match).extension_separable
    if scn.k_hom.is_inclusion() and tower_separable_over(f_tower, scn.k_len):
        swapped_points = tensor_decompose(f_tower, scn.kprime, scn.k_len)
        swapped = first_point_into(swapped_points, f1, kprime_images, same_names)
        if swapped is not None:
            sep_over_kprime = separable_transfer_check(swapped).extension_separable
    strict = match is not None and match.strictly_maximal
    chains = scn.valuation.prime_chain(), built.valuation_w.prime_chain()
    return SpectrumReport(*chains, strict, sep_over_base, sep_over_kprime, iso_ok)


# ---------------------------------------------------------------------------
# Report rendering


def render_report(
    built: BuiltExtension,
    weak: WeakUnramReport | None = None,
    spectrum: SpectrumReport | None = None,
) -> str:
    """The text ``valext extend`` prints: with ``--verify`` it gets ``weak``,
    and ``spectrum`` on the strictly maximal path, whose row it prints for
    every pair of primes; the general path prints the lengths of the two
    prime chains instead."""
    scn = built.scenario
    lines = ["GROUP"]
    lines.append(f"  gamma: {built.group_gamma.describe()}")
    lines.append(f"  delta: {built.group_delta.describe()}")
    lines.append(f"  equal: {built.weakly_unramified_over_input}")
    if built.p_torsion_ok is not None:
        lines.append(f"  delta/gamma p-torsion: {built.p_torsion_ok}")
    lines.append("RESIDUE")
    lines.append(f"  F: {scn.valuation.coefficient_field.describe()}")
    lines.append(f"  F1: {built.residue_field.describe()}")
    lines.append(f"  point index: {built.point.index}")
    lines.append(f"  multiplicity: {built.point.multiplicity}")
    for n, im in zip(scn.kprime.gen_names, built.kprime_images):
        lines.append(f"  image {n} -> {im}")
    lines.append("SPEC")
    if spectrum is None:
        lines.append("  skipped (run with --verify)")
    else:
        lines.extend(f"  {l}" for l in spectrum.render_lines())
    lines.append("FLAGS")
    lines.append(f"  path: {built.path}")
    lines.append(f"  weakly unramified over V: {built.weakly_unramified_over_input}")
    if built.truncation is not None:
        lines.append(f"  truncation: {built.truncation}")
    if built.radicial_ok is not None:
        lines.append(f"  residue field radicial over k'F: {built.radicial_ok}")
    if weak is not None:
        lines.extend(f"  {l}" for l in weak.render_lines())
    lines.append("PROVENANCE")
    lines.extend(f"  {p}" for p in built.provenance)
    if weak is not None and spectrum is None:
        nv, nw = len(scn.valuation.prime_chain()), len(built.valuation_w.prime_chain())
        lines += ["PRIME COUNTS", f"  V: {nv} <-> W: {nw}"]
    return "\n".join(lines) + "\n"
