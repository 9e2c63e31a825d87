"""The embedded golden corpus that ``valext selftest`` checks.

``GOLDEN_SCENARIOS`` holds six scenario files: five extension scenarios
and one compositum triple.  ``GOLDEN_DIGESTS`` holds the SHA-256 digest of
each report that ``tests/golden`` keeps for them: the ``decompose`` report
of every scenario and the ``extend --verify`` report of every extension
scenario.  ``valext selftest`` runs those commands on the scenarios and
compares each report's digest with the table, so an installed copy proves
that it prints the golden bytes.  ``tests/test_golden.py`` keeps the table
equal to the files.
"""

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


# the SHA-256 of each report in tests/golden, keyed by its file name
GOLDEN_DIGESTS: dict[str, str] = {
    "char2_trunc.decompose.txt":
        "f30db85b6428ecfe514e752e57096566d715d48cfe2f9914666b5f9c3ae9cbb2",
    "char2_trunc.extend-verify.txt":
        "67ea0b354589b62873ad12e2f6734c0549b58dafe3f82f7eca914e36a514c73c",
    "decompose_qi.decompose.txt":
        "ac0994cf491f414c4ff1f6b15fdfc7c76de07e78d69898b8b2afd35f3039a8f8",
    "hensel_route.decompose.txt":
        "4f99ec41dab5cc7dad271ec29365e414b49b06579486f6f178fa5aa4ebf997c1",
    "hensel_route.extend-verify.txt":
        "2beda40bf2256bac2a0dd5665255386e39bdce2d4c62da5cd736c9359be77469",
    "rank1_qi.decompose.txt":
        "4167e62a871bcb426c05469cc851ba59eb2b4d2d529c3186718bead233b195f2",
    "rank1_qi.extend-verify.txt":
        "0b63464f23408b445ddb827a27ecd9be1e66971d375e56c8678d2afdda20d08b",
    "rank2_sqrt2.decompose.txt":
        "7adc423ef2af141095be3f3c5a2568c4d1bb5173d384bd18f9ab58464e4d92c2",
    "rank2_sqrt2.extend-verify.txt":
        "54e849a2fe9eff4dfb903784ca03d6fac1a2745725fa721c6be57577871c30a5",
    "rank2_trans.decompose.txt":
        "b7b892fc7690154fe944fac7eddcb1df21eaa271645794dd35c885eb08817f91",
    "rank2_trans.extend-verify.txt":
        "9c2e890cda61f23b500d2709077476f036d2c4dc79c99e187da9e0d1d53ac846",
}
