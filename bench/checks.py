"""Correctness checks, made apart from valext and outside the timed process.

Each check returns None when the output is right and a one-line reason when
it is wrong; ``run.py`` counts every wrong output as a failed operation.

* factor_mix: valext's factors and multiplicities must equal those of
  ``sympy.factor_list`` (``modulus=p``, ``extension=I`` or ``sqrt(2)``), and
  the product must equal the input.  sympy does not factor over F_2(a); there
  the expected factorization comes from how the input was built.
* extend_*: the report must have the properties the paper's theorem gives:
  equal groups on the strictly maximal path, a p-torsion group quotient and a
  radicial residue field on the general path, rank + 1 primes on both sides,
  and for F over Q a degree [F1 : F] equal to that of a factor sympy finds of
  the minimal polynomial of k' over F.  With verification every verification
  line must read True.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

import sympy

# sympy 1.13+ warns about its own modular-integer comparisons inside
# factor_list(modulus=p); the warning is not about this code
warnings.filterwarnings("ignore", category=DeprecationWarning, module="sympy")

Y, A = sympy.symbols("y a")
OMEGA = (-1 + sympy.sqrt(-3)) / 2
NAMES = {"y": Y, "a": A, "i": sympy.I, "s2": sympy.sqrt(2), "w": OMEGA}
EXTENSION = {"Q(i)": sympy.I, "Q(s2)": sympy.sqrt(2), "Q(w)": sympy.sqrt(-3)}
FIELD_OF_GEN = {"": "Q", "i": "Q(i)", "s2": "Q(s2)", "w": "Q(w)"}


def to_sympy(text: str):
    """valext's polynomial syntax (``^`` powers, explicit ``*``) as sympy."""
    return sympy.sympify(text.replace("^", "**"), locals=NAMES)


def _poly(expr, domain: str, gens=(Y,)):
    if domain.startswith("F") and domain[1:].isdigit():
        return sympy.Poly(expr, *gens, modulus=int(domain[1:]))
    if domain == "F2(a)":
        return sympy.Poly(expr, *gens, modulus=2)
    if domain in EXTENSION:
        return sympy.Poly(expr, *gens, extension=EXTENSION[domain])
    return sympy.Poly(expr, *gens, domain="QQ")


def _monic_key(expr, domain: str) -> str:
    return str(_poly(expr, domain).monic().as_expr())


def check_factor(inp: dict, output: dict) -> str | None:
    domain = inp["domain"]
    target = to_sympy(inp["text"])
    got = [(to_sympy(g), m) for g, m in output["factors"]]
    gens = (Y, A) if domain == "F2(a)" else (Y,)
    product = to_sympy(output["unit"])
    for g, m in got:
        product = product * g**m
    if not _poly(sympy.expand(product - target), domain, gens).is_zero:
        return "the product of the factors differs from the input"
    if domain == "F2(a)":
        want = [(_poly(to_sympy(g), domain, gens), m) for g, m in inp["expect"]]
        have = [(_poly(g, domain, gens), m) for g, m in got]
        if sorted(map(str, want)) != sorted(map(str, have)):
            return f"factors {output['factors']} differ from the constructed {inp['expect']}"
        return None
    if domain.startswith("F"):
        _, ref = sympy.factor_list(target, Y, modulus=int(domain[1:]))
    elif domain in EXTENSION:
        _, ref = sympy.factor_list(target, Y, extension=EXTENSION[domain])
    else:
        _, ref = sympy.factor_list(target, Y)
    want = sorted((_monic_key(f, domain), m) for f, m in ref)
    have = sorted((_monic_key(g, domain), m) for g, m in got)
    if want != have:
        return f"factors {have} differ from sympy's {want}"
    return None


# ---------------------------------------------------------------------------
# extension reports


def _scenario_fields(text: str) -> dict:
    kv = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith("["):
            kv.setdefault(key.strip(), value.strip())
    return kv


def _steps(desc: str) -> list[tuple[str, str]]:
    """'base=Q; gen c: algebraic y^2 - 2' -> [('c', 'y^2 - 2')]; a
    transcendental step has the text 'transcendental'."""
    out = []
    for part in desc.split(";")[1:]:
        m = re.match(r"\s*gen (\w+): (algebraic (.*)|transcendental)$", part)
        if m is None:
            raise ValueError(f"unreadable tower step {part!r}")
        out.append((m.group(1), m.group(3) or "transcendental"))
    return out


def _line(report: str, prefix: str) -> str | None:
    for line in report.splitlines():
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix) :].strip()
    return None


def check_extend(inp: dict, report: str, verify: bool) -> str | None:
    scn = _scenario_fields(inp["text"])
    rank = len([v for v in scn["vars"].split(",") if v.strip()])
    base = scn["base"]
    p = 0 if base == "Q" else int(base[1:])
    trunc = int(scn["truncation-N"]) if "truncation-N" in scn else None
    if not report.startswith("exit 0\n"):
        return f"valext exited with {report.splitlines()[0]!r}"
    gamma, delta = _line(report, "gamma:"), _line(report, "delta:")
    if gamma != f"Z^{rank} lex":
        return f"gamma {gamma!r} is not Z^{rank}"
    path = _line(report, "path:")
    if p and trunc is not None:
        if path != "general":
            return f"path {path!r}, expected general"
        if delta != f"(1/{p**trunc})Z^{rank} lex":
            return f"delta {delta!r} is not (1/{p**trunc})Z^{rank}"
        if _line(report, "delta/gamma p-torsion:") != "True":
            return "delta/gamma is not p-torsion"
        if _line(report, "residue field radicial over k'F:") != "True":
            return "residue field not radicial over k'F"
    else:
        if path != "strictly-maximal":
            return f"path {path!r}, expected strictly-maximal"
        if delta != gamma or _line(report, "equal:") != "True":
            return f"groups differ on the strictly maximal path: {gamma!r} vs {delta!r}"
        if _line(report, "weakly unramified over V:") != "True":
            return "not weakly unramified on the strictly maximal path"
    if verify:
        reason = _check_verification(report, rank, path)
        if reason:
            return reason
    if p == 0:
        return _check_degree(scn, report)
    return None


def _check_verification(report: str, rank: int, path: str) -> str | None:
    for prefix in (
        "verification against",
        "sampled values inside the claimed group:",
        "maximal ideal generated by the base ideal:",
    ):
        value = _line(report, prefix)
        if value is None or not (value.startswith("True") or value.endswith("= True")):
            return f"verification line {prefix!r} reads {value!r}"
    if path == "general":
        m = re.search(r"PRIME COUNTS\n  V: (\d+) <-> W: (\d+)", report)
    else:
        m = re.search(r"primes: (\d+) <-> (\d+)", report)
    if m is None or {int(m.group(1)), int(m.group(2))} != {rank + 1}:
        return f"prime counts {m and m.groups()} are not {rank + 1}"
    if path != "general":
        pairs = re.findall(r"strictly maximal composed extension: (\w+) \(iso verified: (\w+)\)", report)
        if len(pairs) != rank + 1 or any(pair != ("True", "True") for pair in pairs):
            return f"residue pairs {pairs} are not all certified"
        seps = re.findall(r"separable over kappa: (\S+); separable over k': (\S+)", report)
        if any(s != ("True", "True") for s in seps):
            return f"separability lines {seps} are not all True in characteristic 0"
    return None


def _check_degree(scn: dict, report: str) -> str | None:
    """[F1 : F] against sympy's factorization of k''s minimal polynomial
    over F, for one algebraic step over k = Q."""
    kp = re.match(r"(\w+): algebraic (.*)$", scn["kprime-gens"])
    if kp is None or scn.get("k-prefix") != "0":
        return None
    f_steps = _steps(_line(report, "F:"))
    f1_steps = _steps(_line(report, "F1:"))
    if f1_steps[: len(f_steps)] != f_steps:
        return "F1 does not extend F"
    gen = f_steps[0][0] if f_steps else ""
    field = FIELD_OF_GEN.get(gen)
    if field is None or len(f_steps) > 1:
        return None
    minpoly = to_sympy(kp.group(2))
    if field == "Q":
        _, ref = sympy.factor_list(minpoly, Y)
    else:
        _, ref = sympy.factor_list(minpoly, Y, extension=EXTENSION[field])
    dom = "QQ" if field == "Q" else field
    refs = {_monic_key(f, dom) for f, _ in ref}
    points = re.search(r"residual tensor decomposition: (\d+) point", report)
    if points is None or int(points.group(1)) != len(ref):
        return f"{points and points.group(1)} residual points, sympy finds {len(ref)} factors"
    appended = f1_steps[len(f_steps) :]
    if len(appended) > 1:
        return f"F1 appends {len(appended)} steps for one algebraic step of k'"
    if appended:
        if _monic_key(to_sympy(appended[0][1]), dom) not in refs:
            return f"F1 step {appended[0][1]!r} is not a factor of {kp.group(2)!r} over {field}"
        return None
    image = _line(report, f"image {kp.group(1)} ->")
    if image is None or sympy.expand(minpoly.subs(Y, to_sympy(image))) != 0:
        return f"[F1:F] = 1 but the image {image!r} is not a root of {kp.group(2)!r}"
    return None


# ---------------------------------------------------------------------------
# MonomialValuation.value against the lex-minimum exponent


def check_values(valext, seed: int, per_valuation: int = 40) -> list[str]:
    """Build elements from terms the benchmark chooses and compare
    ``value`` with min_lex(exponents of the numerator) - denominator."""
    import random

    rng = random.Random(f"values:{seed}")
    q = valext.FieldTower.rationals()
    towers = [
        (q, 1),
        (q, 2),
        (q, 3),
        (valext.FieldTower.prime_field(3), 2),
        (q.extend_algebraic("i", [1, 0, 1]), 2),
    ]
    wrong = []
    for tower, rank in towers:
        v = valext.MonomialValuation(tower, [f"x{j}" for j in range(rank)])
        for _ in range(per_valuation):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = tuple(rng.randrange(0, 4) for _ in range(rank))
                c = rng.randrange(1, 3 if tower.char == 3 else 6)
                terms[exps] = terms.get(exps, 0) + c
            terms = {e: c for e, c in terms.items() if tower.from_int(c) != 0}
            if not terms:
                continue
            den = tuple(rng.randrange(0, 4) for _ in range(rank))
            z = v.from_terms({e: tower.from_int(c) for e, c in terms.items()}, den)
            lead = min(terms)
            want = tuple(Fraction(e - d) for e, d in zip(lead, den))
            got = tuple(v.value(z).coords)
            if got != want:
                wrong.append(f"value of {terms}/x^{den} over {tower.describe()} is {got}, not {want}")
    return wrong
