"""Seeded inputs of the three workloads.

Every generator is pure Python and imports nothing from valext: it maps a
seed to plain data (scenario texts and polynomial texts), so the same seed
gives the same inputs in every process and valext receives only the
generated inputs.

Each workload draws a fixed number of inputs from each of its classes; the
seed varies coefficients inside a class, never the class sizes.  The cost
profile of a run therefore depends little on the seed, and the tail
percentile falls inside a class of similar costs, not on the edge between two.
"""

from __future__ import annotations

import math
import random

# The five extension scenarios of valext's embedded golden corpus, as
# (base, gens, k-prefix, vars, kprime-gens, truncation).  They are copied so
# that an edit of the corpus does not silently change what is measured.
GOLDEN = {
    "rank1_qi": ("Q", "", 0, "x", "i: algebraic y^2 + 1", None),
    "rank2_sqrt2": ("Q", "", 0, "x1, x2", "s2: algebraic y^2 - 2", None),
    "rank2_trans": ("Q", "", 0, "x1, x2", "t: transcendental", None),
    "char2_trunc": ("F2", "a: transcendental; r: algebraic y^2 + a", 1, "x", "s: algebraic y^2 + a", 1),
    "hensel_route": ("Q", "s2: algebraic y^2 - 2", 0, "x", "c: algebraic y^2 - 2", None),
}

# Coefficient fields F of the characteristic-zero families, as tower steps.
NUMBER_FIELDS = {
    "Q": "",
    "Q(s2)": "s2: algebraic y^2 - 2",
    "Q(i)": "i: algebraic y^2 + 1",
    "Q(w)": "w: algebraic y^2 + y + 1",
}

VARS = {1: "x", 2: "x1, x2", 3: "x1, x2, x3"}

# k' over Q that is irreducible over Q and splits over F, scaled by m.
SPLIT_QUADRATICS = (
    ("Q(s2)", lambda m: f"y^2 - {2 * m * m}"),
    ("Q(i)", lambda m: f"y^2 + {m * m}"),
)
SPLIT_BUILDS = (
    ("Q(s2)", lambda m: f"y^4 - {2 * m**4}"),
    ("Q(i)", lambda m: f"y^4 + {m**4}"),
    ("Q(w)", lambda m: f"y^2 + {3 * m * m}"),
    ("Q(s2)", lambda m: f"y^2 - {2 * m * m}"),
)

# extend_build: (p, truncation N, rank) of the F_p(a) scenarios.
TRUNCATED = ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 2, 2), (5, 1, 1))

# Each pass draws every class of the workload once more.
BUILD_PASSES = 6
FACTOR_PASSES = 8

# factor_mix: degrees of the factors over Q (total 6..8) and over F_p, and
# (j, k) of the binomials (y^(2^j) + b)^(2^k) over F_2(a), two per pass.
Q_DEGREES = ((2, 3, 1), (3, 4), (2, 2, 3), (1, 4, 3), (2, 5), (3, 3, 2))
FP_DEGREES = ((2, 3, 4), (1, 3, 5), (2, 2, 6), (3, 2, 4))
BINOMIAL_SHAPES = ((0, 2), (1, 1), (1, 2), (2, 1))


def scenario_text(base, gens, k_prefix, variables, kprime, truncation=None, seed=None) -> str:
    """An extension scenario in valext's scenario-file grammar."""
    lines = ["[base]", f"base: {base}"]
    if gens:
        lines.append(f"gens: {gens}")
    lines += [f"k-prefix: {k_prefix}", "", "[valuation]", f"vars: {variables}", "order: lex"]
    lines += ["", "[extension]", f"kprime-gens: {kprime}"]
    opts = []
    if truncation is not None:
        opts.append(f"truncation-N: {truncation}")
    if seed is not None:
        opts.append(f"seed: {seed}")
    if opts:
        lines += ["", "[options]"] + opts
    return "\n".join(lines) + "\n"


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _poly_text(coeffs: list, var: str = "y") -> str:
    """Dense coefficients (constant first) as text; a coefficient is an int
    or an already parenthesised string."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        if isinstance(c, str):
            sign, body = "+", (f"{c}*{mono}" if mono else c)
        elif mono and abs(c) == 1:
            sign, body = ("-" if c < 0 else "+"), mono
        else:
            sign, body = ("-" if c < 0 else "+"), (f"{abs(c)}*{mono}" if mono else str(abs(c)))
        terms.append((sign, body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:])


def _root_in(d: int, field: str) -> bool:
    """Whether y^2 - d has a root in the number field."""
    if _is_square(d):
        return True
    if field == "Q(s2)":
        return d % 2 == 0 and _is_square(d // 2)
    if field == "Q(i)":
        return _is_square(-d)
    if field == "Q(w)":
        return d % 3 == 0 and _is_square(-d // 3)
    return False


def _quadratic(rng: random.Random, field: str) -> str:
    """y^2 + 2b*y + (b^2 - d), irreducible over Q and over the field."""
    d = rng.randrange(-12, 13)
    while _root_in(d, field):
        d = rng.randrange(-12, 13)
    b = rng.randrange(-3, 4)
    return _poly_text([b * b - d, 2 * b, 1])


def _eisenstein(rng: random.Random, degree: int, primes: tuple[int, ...]) -> list[int]:
    """A monic integer polynomial, Eisenstein at a prime from primes, so
    irreducible over Q."""
    p = rng.choice(primes)
    return [p * rng.choice((1, -1))] + [p * rng.randrange(-1, 2) for _ in range(degree - 1)] + [1]


def _fp_symmetric(coeffs: list[int], p: int) -> list[int]:
    return [c - p if c > p // 2 else c for c in coeffs]


def _irreducible_quadratic_mod(rng: random.Random, p: int) -> list[int]:
    """A random monic quadratic over F_p without a root."""
    while True:
        coeffs = [rng.randrange(p), rng.randrange(p), 1]
        if all((coeffs[0] + coeffs[1] * x + x * x) % p for x in range(p)):
            return _fp_symmetric(coeffs, p)


def _not_pth_power(rng: random.Random, p: int, max_deg: int = 3) -> str:
    """A polynomial in a over F_p that is not a p-th power (a nonzero
    coefficient at an exponent prime to p), as text."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(max_deg + 1)]
        if any(c and e % p for e, c in enumerate(coeffs)):
            return _poly_text(_fp_symmetric(coeffs, p), "a")


# ---------------------------------------------------------------------------
# extend_verify: the golden scenarios plus a rank-1/rank-2 family


def extend_verify_inputs(seed: int) -> list[dict]:
    rng = _rng("extend_verify", seed)
    out = [{"name": n, "cls": "golden", "text": scenario_text(*spec)} for n, spec in GOLDEN.items()]

    def add(cls, base, gens, rank, kprime, trunc=None, k_prefix=0):
        # a seed option of its own varies the sampled verification elements
        text = scenario_text(base, gens, k_prefix, VARS[rank], kprime, trunc, rng.randrange(1, 1000))
        out.append({"name": f"{cls}_{len(out)}", "cls": cls, "text": text})

    for rank in (1, 1, 1, 1, 2):
        add(f"q_r{rank}", "Q", "", rank, f"c: algebraic {_quadratic(rng, 'Q')}")
    # k' splitting over F = Q(sqrt 2) or Q(i): the factor-lift route
    for field, pattern in SPLIT_QUADRATICS * 2:
        add("split_r1", "Q", NUMBER_FIELDS[field], 1, f"c: algebraic {pattern(rng.randrange(1, 4))}")
    for p, rank in ((3, 1), (5, 1)) * 4 + ((3, 2), (5, 2)) * 3:
        add(f"fp_r{rank}", f"F{p}", "", rank, f"c: algebraic {_poly_text(_irreducible_quadratic_mod(rng, p))}")
    for _ in range(2):
        kprime = f"s: algebraic y^2 + {_not_pth_power(rng, 2)}"
        add("f2a_trunc", "F2", "a: transcendental", 1, kprime, trunc=1, k_prefix=1)
    return out


# ---------------------------------------------------------------------------
# extend_build: heavier builds without verification


def extend_build_inputs(seed: int) -> list[dict]:
    rng = _rng("extend_build", seed)
    out = []

    def add(cls, base, gens, rank, kprime, trunc=None, k_prefix=0):
        text = scenario_text(base, gens, k_prefix, VARS[rank], kprime, trunc)
        out.append({"name": f"{cls}_{len(out)}", "cls": cls, "text": text})

    for _ in range(BUILD_PASSES):
        # k' = Q(c), c of degree 2..6 over F = Q and 2..4 over the quadratic
        # fields (some split there and take the factor-lift route); rank 1
        for field, gens in NUMBER_FIELDS.items():
            for n in (2, 3, 4, 5, 6) if field == "Q" else (2, 3, 4):
                kprime = f"c: algebraic {_poly_text(_eisenstein(rng, n, (2, 3, 5, 7)))}"
                add("eisenstein", "Q", gens, 1, kprime)
        for field, pattern in SPLIT_BUILDS:
            add("split", "Q", NUMBER_FIELDS[field], 1, f"c: algebraic {pattern(rng.choice((1, 2, 3)))}")
        for p, n_trunc, rank in TRUNCATED:
            kprime = f"s: algebraic y^{p} - ({_not_pth_power(rng, p)})"
            add("fpa_trunc", f"F{p}", "a: transcendental", rank, kprime, trunc=n_trunc, k_prefix=1)
    return out


# ---------------------------------------------------------------------------
# factor_mix: univariate factorization by domain


def _eisenstein_at_3(rng: random.Random, degree: int, gen: str) -> list:
    """A monic polynomial over Z[gen] (gen = i or s2), Eisenstein at 3, which
    is prime in both rings, so irreducible over Q(gen)."""

    def element(a: int, b: int):
        if b == 0:
            return a
        return f"({a} + {b}*{gen})" if a else f"({b}*{gen})"

    u = (0, 0)
    while u[0] % 3 == 0 and u[1] % 3 == 0:  # constant 3u with 3 not dividing u
        u = (rng.randrange(-2, 3), rng.randrange(-2, 3))
    middle = [element(3 * rng.randrange(-1, 2), 3 * rng.randrange(-1, 2)) for _ in range(degree - 1)]
    return [element(3 * u[0], 3 * u[1])] + middle + [1]


def _product_text(factors: list[tuple[list, int]]) -> str:
    return " * ".join(f"({_poly_text(c)})^{m}" if m > 1 else f"({_poly_text(c)})" for c, m in factors)


def factor_inputs(seed: int) -> list[dict]:
    rng = _rng("factor_mix", seed)
    out = []

    def add(cls, domain, factors, expect=None):
        inp = {"name": f"{cls}_{len(out)}", "cls": cls, "domain": domain, "text": _product_text(factors)}
        if expect is not None:
            inp["expect"] = expect
        out.append(inp)

    for pass_no in range(FACTOR_PASSES):
        # over Q every factor is linear or Eisenstein, hence irreducible: the
        # number of factors, which sets much of the cost, does not vary
        for degs in Q_DEGREES:
            factors = [[rng.randrange(-5, 6), 1] if d == 1 else _eisenstein(rng, d, (2, 3, 5)) for d in degs]
            add("q", "Q", [(f, 1) for f in factors])
        # over F_p: three random monic factors, the first squared; degree <= 12
        for p in (2, 3, 5, 7):
            degs = rng.choice(FP_DEGREES)
            factors = [_fp_symmetric([rng.randrange(p) for _ in range(d)], p) + [1] for d in degs]
            add("fp", f"F{p}", [(factors[0], 2)] + [(f, 1) for f in factors[1:]])
        # y^(2^j) + b with b not a square is irreducible over F_2(a), so the
        # factorization is known in advance (sympy does not factor over F_2(a))
        for j, k in BINOMIAL_SHAPES[2 * (pass_no % 2) : 2 * (pass_no % 2) + 2]:
            base = [f"({_not_pth_power(rng, 2)})"] + [0] * (2**j - 1) + [1]
            add("binomial", "F2(a)", [(base, 2**k)], expect=[[_poly_text(base), 2**k]])
        # the norm-reduction route: a quadratic times a cubic over Q(i), Q(sqrt 2)
        for domain, gen in (("Q(i)", "i"), ("Q(s2)", "s2")) * 3:
            add("norm", domain, [(_eisenstein_at_3(rng, 2, gen), 1), (_eisenstein_at_3(rng, 3, gen), 1)])
    return out


WORKLOADS = {
    "extend_verify": extend_verify_inputs,
    "extend_build": extend_build_inputs,
    "factor_mix": factor_inputs,
}
