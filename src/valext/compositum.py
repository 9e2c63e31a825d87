"""Decomposition of Spec(L tensor_K M) into composed field extensions.

L is processed stepwise over M: a transcendental step contributes a single
point and a fresh transcendental generator; an algebraic step branches over
the irreducible factors of its minimal polynomial over the running field,
each factor contributing its multiplicity.  A step of degree n prime to
d = [E : image of its prefix] = [E : P] / [prefix : P], P the prime field
and both degrees finite, is not factored: for a root a, n divides
[E(a) : image] = [E(a) : E] * d, so [E(a) : E] = n.  The identity map is
d = 1.  Every point emitted this way is a minimal prime (each step is flat
over the previous stage), and a point is strictly maximal exactly when its
accumulated multiplicity is 1, i.e. the local ring is a field.

Points come out in a deterministic order: factors are taken smallest first
in the canonical polynomial order at every branch.  Decompositions of
independent triples are pure and may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import poly as poly_mod
from .errors import CapabilityError, DomainError, PreconditionError, SelfCheckError, StructuralError
from .fields import FieldElement, FieldTower, TowerHom, tower_separable_over
from .poly import Polynomial


@dataclass(frozen=True)
class StepRecord:
    """What happened when one step of L was processed over the running field.

    ``minpoly`` is the polynomial an algebraic step factored: the step's
    minimal polynomial with its coefficients carried into the running field
    E by the images of the earlier generators, in the variable y.  ``factor``
    and every entry of ``factors`` lie over the same field.  A transcendental
    step has no ``minpoly``.
    """

    gen: str
    appended: str | None  # generator added to E, None if the factor was linear
    factor: Polynomial | None  # chosen irreducible factor (algebraic steps)
    multiplicity: int
    # the whole factorization the branch was chosen from (algebraic steps)
    factors: tuple[tuple[Polynomial, int], ...] = ()
    minpoly: Polynomial | None = None  # the polynomial factored (algebraic steps)

    def describe(self) -> str:
        if self.minpoly is None:
            return f"gen {self.gen}: transcendental, appended {self.appended}"
        where = f"appended {self.appended}" if self.appended else "absorbed (linear factor)"
        return (
            f"gen {self.gen}: algebraic, factor ({self.factor}) "
            f"multiplicity {self.multiplicity}, {where}"
        )


@dataclass
class CompositumPoint:
    """A point of Spec(L tensor_K M) with its composed extension field.

    The composed field E extends M as a tower prefix; the right embedding is
    that inclusion and the left embedding is recorded through generator
    images.  E is generated by the two images: every E generator is either
    an M generator or was appended for an L generator.
    """

    left: FieldTower
    k_hom: TowerHom
    field: FieldTower
    left_images: tuple[FieldElement, ...]
    records: tuple[StepRecord, ...]
    index: int

    @property
    def right(self) -> FieldTower:
        """M, the target of ``k_hom``."""
        return self.k_hom.target

    @property
    def k_len(self) -> int:
        """The length of K, the prefix of L that ``k_hom`` embeds into M."""
        return self.k_hom.source.level

    @property
    def multiplicity(self) -> int:
        """The product of the multiplicities of the steps' chosen factors."""
        return math.prod(rec.multiplicity for rec in self.records)

    @property
    def strictly_maximal(self) -> bool:
        return self.multiplicity == 1

    @property
    def appended_gens(self) -> list[str]:
        """The L generators whose step appended a generator to E, in the
        order of the appended generators."""
        return [rec.gen for rec in self.records if rec.appended is not None]

    def hom_into(
        self,
        target: FieldTower,
        right_images: Mapping[str, FieldElement],
        left_images: Mapping[str, FieldElement],
    ) -> TowerHom | None:
        """The field map from E into ``target`` that sends each M generator
        to its entry of ``right_images`` and each appended generator to the
        entry of its L generator in ``left_images``; None when an image is
        missing or lies outside ``target``, the map breaks a relation, or it
        sends the image in E of some L generator elsewhere than that
        generator's entry (an absorbed step appends no generator)."""
        try:
            imgs = [right_images[n] for n in self.right.gen_names]
            imgs += [left_images[n] for n in self.appended_gens]
            hom = TowerHom(self.field, target, imgs)
            wanted = [left_images[n] for n in self.left.gen_names]
        except (KeyError, StructuralError):
            return None
        ok = hom.verify() and all(hom.apply(a) == b for a, b in zip(self.left_images, wanted))
        return hom if ok else None

    def degree_over_right(self) -> int | None:
        return self.field.extension_degree(self.right.level)

    def describe_lines(self) -> list[str]:
        # every point is maximal: the stepwise construction only reaches
        # minimal primes
        out = [
            f"point {self.index}: multiplicity {self.multiplicity}, "
            f"maximal=True, strictly_maximal={self.strictly_maximal}",
            f"  composed field: {self.field.describe()}",
        ]
        for name, img in zip(self.left.gen_names, self.left_images):
            out.append(f"  image {name} -> {img}")
        for rec in self.records:
            out.append(f"  step {rec.describe()}")
        return out


def tensor_decompose(
    left: FieldTower,
    right: FieldTower,
    k_len: int,
    k_hom: TowerHom | None = None,
) -> list[CompositumPoint]:
    """All points of Spec(L tensor_K M), K the length-``k_len`` prefix of L.

    ``k_hom`` embeds K into M; by default K must literally be a prefix of M
    and the inclusion is used.  Algebraic steps of L must be factorable over
    the running composed field, otherwise a capability error surfaces.
    """
    K = left.prefix(k_len)
    if k_hom is None:
        if not K.is_prefix_of(right):
            raise StructuralError("K must be a prefix of M (or pass an explicit embedding)")
        k_hom = TowerHom.inclusion(K, right)
    else:
        if k_hom.source != K or k_hom.target != right:
            raise StructuralError("embedding must map the K prefix into M")
        # the one relation check of an explicit embedding: the builders
        # leave it to this call.  An inclusion cannot break a relation, so
        # there the failure is the engine's
        if not k_hom.verify():
            error = SelfCheckError if k_hom.is_inclusion() else StructuralError
            raise error("the K embedding does not respect relations")

    points: list[CompositumPoint] = []

    def rec(step_idx: int, e_tower: FieldTower, images: list, records: tuple):
        if step_idx == left.level:
            points.append(
                CompositumPoint(left, k_hom, e_tower, tuple(images), records, len(points))
            )
            return
        step = left.steps[step_idx]
        # each fork is (field, image of the L generator, record)
        if not step.is_algebraic:
            name = e_tower.fresh_name(step.name)
            e2 = e_tower.extend_transcendental(name)
            forks = [(e2, e2.gen(name), StepRecord(step.name, name, None, 1))]
        else:
            sub = left.prefix(step_idx)
            coeffs = left.minpoly_coeffs(step_idx)
            identity = e_tower == sub and images == list(map(sub.gen, sub.gen_names))
            if not identity:
                hom = TowerHom(sub, e_tower, images)
                coeffs = [hom.apply(c) for c in coeffs]
            minpoly = Polynomial.from_coeffs(e_tower, "y", coeffs)
            # a step's minimal polynomial is irreducible over its own prefix
            # (see ``fields.Step``), so the identity map needs no factoring;
            # nor does a degree prime to d = [E : image of the prefix]
            e_deg, sub_deg = e_tower.extension_degree(), sub.extension_degree()
            coprime = None not in (e_deg, sub_deg) and math.gcd(step.degree, e_deg // sub_deg) == 1
            if identity or coprime:
                factors = ((minpoly, 1),)
            else:
                factors = tuple(poly_mod.factor(minpoly).factors)
            forks = []
            for h, m in factors:
                if h.degree() == 1:
                    name, e2, root = None, e_tower, -h.coeff(0)
                else:
                    name = e_tower.fresh_name(step.name)
                    e2 = e_tower.extend_algebraic(name, h.univariate_coeffs(), check=False)
                    root = e2.gen(name)
                forks.append((e2, root, StepRecord(step.name, name, h, m, factors, minpoly)))
        for e2, image, record in forks:
            images2 = [e2.embed(im) for im in images] + [image]
            rec(step_idx + 1, e2, images2, records + (record,))

    rec(k_len, right, list(k_hom.images), ())
    return points


def first_point_into(
    points: Sequence[CompositumPoint],
    target: FieldTower,
    right_images: Mapping[str, FieldElement],
    left_images: Mapping[str, FieldElement],
) -> CompositumPoint | None:
    """The first of ``points`` whose composed field maps into ``target``
    under these images (see ``CompositumPoint.hom_into``), or None."""
    for pt in points:
        if pt.hom_into(target, right_images, left_images) is not None:
            return pt
    return None


def degree_bookkeeping(points: Sequence[CompositumPoint]) -> tuple[int, int] | None:
    """(sum of multiplicity * [E:M], [L:K]) when L/K is finite, else None."""
    if not points:
        raise DomainError("no points to account for")
    left = points[0].left
    k_len = points[0].k_len
    total_deg = left.extension_degree(k_len)
    if total_deg is None:
        return None
    # L/K is finite, so every appended step is algebraic and [E:M] finite
    return sum(pt.multiplicity * pt.degree_over_right() for pt in points), total_deg


# ---------------------------------------------------------------------------
# Transfer checks


@dataclass
class TransferReport:
    passed: bool
    strictly_maximal: bool
    extension_separable: bool
    details: list[str]


def separable_transfer_check(pt: CompositumPoint) -> TransferReport:
    """For separable L/K: the point must be strictly maximal and E/M
    separable in its step presentation (gcd test on every appended minimal
    polynomial)."""
    left, k_len = pt.left, pt.k_len
    if not tower_separable_over(left, k_len):
        raise PreconditionError("the left extension is not separable over K")
    strict = pt.strictly_maximal
    details = [f"point multiplicity {pt.multiplicity} (strictly maximal: {strict})"]
    sep = tower_separable_over(pt.field, pt.right.level)
    for step in pt.field.steps[pt.right.level :]:
        kind = f"separable={step.separable}" if step.is_algebraic else "transcendental"
        details.append(f"appended step {step.name}: {kind}")
    return TransferReport(strict and sep, strict, sep, details)


@dataclass
class SubfieldReport:
    passed: bool
    restricted_field: FieldTower
    details: list[str]


def subfield_maximality_check(pt: CompositumPoint, l0_len: int) -> SubfieldReport:
    """The restriction of a maximal point to a subtower L0 of L is again an
    emitted (hence maximal) point of Spec(L0 tensor_K M)."""
    if not pt.k_len <= l0_len <= pt.left.level:
        raise StructuralError("L0 must sit between K and L")
    head = pt.records[: l0_len - pt.k_len]
    mult = math.prod(rec.multiplicity for rec in head)
    l0_gens = pt.left.gen_names[:l0_len]
    e0 = pt.field.prefix(pt.right.level + sum(g in l0_gens for g in pt.appended_gens))
    sub_points = tensor_decompose(pt.left.prefix(l0_len), pt.right, pt.k_len, pt.k_hom)
    match = next((cand for cand in sub_points if cand.records == head), None)
    details = [
        f"restricted field: {e0.describe()}",
        f"restricted multiplicity: {mult}",
        f"restriction found among Spec(L0 tensor M) points: {match is not None}",
    ]
    passed = match is not None and match.field == e0
    return SubfieldReport(passed, e0, details)


@dataclass
class BaseChangeReport:
    passed: bool
    corresponding_index: int | None
    multiplicity_over_k: int
    multiplicity_over_k0: int | None
    details: list[str]


def base_change_maximality_check(pt: CompositumPoint, k0_len: int) -> BaseChangeReport:
    """A point of Spec(L tensor_K M) has a corresponding point of
    Spec(L tensor_K0 M) for a subfield K0 with K/K0 algebraic.

    The corresponding point is identified by a field map from pt's composed
    field that respects both embeddings; the check passes when a candidate
    admits one.  Both points are maximal, as every emitted point is.
    """
    left, right = pt.left, pt.right
    if not 0 <= k0_len <= pt.k_len:
        raise StructuralError("K0 must be a prefix of K")
    for step in left.steps[k0_len : pt.k_len]:
        if not step.is_algebraic:
            raise PreconditionError("K must be algebraic over K0")
    if not pt.k_hom.is_inclusion():
        raise CapabilityError("base change is supported for prefix-inclusion embeddings")
    match = None
    for cand in tensor_decompose(left, right, k0_len):
        # E(pt) -> E(cand) over M, each appended generator to the image of
        # its L generator in cand
        m_gens = {n: cand.field.gen(n) for n in right.gen_names}
        l_images = dict(zip(left.gen_names, cand.left_images))
        if pt.hom_into(cand.field, m_gens, l_images) is not None:
            match = cand
            break
    if match is None:
        details = ["no corresponding point found"]
        return BaseChangeReport(False, None, pt.multiplicity, None, details)
    details = [
        f"corresponding point over K0: index {match.index}",
        f"multiplicity over K: {pt.multiplicity}, over K0: {match.multiplicity}",
    ]
    return BaseChangeReport(True, match.index, pt.multiplicity, match.multiplicity, details)
