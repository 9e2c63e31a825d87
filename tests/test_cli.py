import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from valext import cli, fields
from valext.norms import FreeAlgebra
from valext.selftest import GOLDEN_SCENARIOS, run_selftest


def run_extend(tmp_path, text, name="s", **kw):
    path = tmp_path / f"{name}.val"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = cli.cmd_extend(str(path), out=out, err=err, **kw)
    return code, out.getvalue(), err.getvalue()


def run_decompose(tmp_path, text, name="d"):
    path = tmp_path / f"{name}.val"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = cli.cmd_decompose(str(path), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def render_scenario(s: cli.ScenarioFile) -> str:
    """Canonical text form; parse(render(s)) reproduces s exactly."""

    def steps_text(tower: fields.FieldTower, start: int) -> str:
        return "; ".join(fields._step_text(tower.prefix(i + 1)) for i in range(start, tower.level))

    lines = ["[base]", f"base: {s.f_tower.base.describe()}"]
    gens = steps_text(s.f_tower, 0)
    if gens:
        lines.append(f"gens: {gens}")
    lines.append(f"k-prefix: {s.k_len}")
    if s.variables is not None:
        lines.append("")
        lines.append("[valuation]")
        lines.append(f"vars: {', '.join(s.variables)}")
        lines.append("order: lex")
    kp = steps_text(s.kprime, s.k_len)
    if kp:
        lines.append("")
        lines.append("[extension]")
        lines.append(f"kprime-gens: {kp}")
    opts = []
    if s.truncation is not None:
        opts.append(f"truncation-N: {s.truncation}")
    if s.point_index != 0:
        opts.append(f"point-index: {s.point_index}")
    if s.seed != 0:
        opts.append(f"seed: {s.seed}")
    if opts:
        lines.append("")
        lines.append("[options]")
        lines.extend(opts)
    return "\n".join(lines) + "\n"


def test_parse_render_round_trip():
    for name, text in GOLDEN_SCENARIOS.items():
        parsed = cli.parse_scenario(text)
        rendered = render_scenario(parsed)
        assert cli.parse_scenario(rendered) == parsed, name


def test_parse_render_round_trip_with_options():
    # a scenario with a point index and a seed renders both, and reads back
    text = GOLDEN_SCENARIOS["rank1_qi"] + "\n[options]\npoint-index: 1\nseed: 5\n"
    parsed = cli.parse_scenario(text)
    rendered = render_scenario(parsed)
    assert "point-index: 1\nseed: 5\n" in rendered
    assert cli.parse_scenario(rendered) == parsed


def test_parse_skips_an_empty_step():
    # a trailing ";" leaves an empty part, which names no step
    parsed = cli.parse_scenario("[base]\nbase: F2\ngens: a: transcendental;\nk-prefix: 1\n")
    assert parsed.f_tower.describe() == "base=F2; gen a: transcendental"


def test_extend_rank1(tmp_path):
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["rank1_qi"], verify=True)
    assert code == 0, err
    assert "delta: Z^1 lex" in out
    assert "F1: base=Q; gen i: algebraic y^2 + 1" in out
    assert "primes: 2 <-> 2" in out
    assert "PROVENANCE" in out


def test_extend_char2_truncation(tmp_path):
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["char2_trunc"], verify=True)
    assert code == 0, err
    assert "delta: (1/2)Z^1 lex" in out
    assert "delta/gamma p-torsion: True" in out
    assert "residue field radicial over k'F: True" in out
    assert "PRIME COUNTS" in out and "V: 2 <-> W: 2" in out


def test_extend_is_byte_deterministic(tmp_path):
    # plain runs here; the acceptance suite repeats this with --verify
    for name, text in GOLDEN_SCENARIOS.items():
        if "[valuation]" not in text:
            continue
        first = run_extend(tmp_path, text, name=name)
        second = run_extend(tmp_path, text, name=name)
        assert first == second, name


def test_decompose_output(tmp_path):
    code, out, err = run_decompose(tmp_path, GOLDEN_SCENARIOS["decompose_qi"])
    assert code == 0
    assert out.startswith("2 point(s)")
    assert "image j -> i" in out and "image j -> -i" in out


def test_decompose_on_extension_scenario_works(tmp_path):
    # the compositum triple of an extension file is (k, k', F)
    code, out, err = run_decompose(tmp_path, GOLDEN_SCENARIOS["char2_trunc"])
    assert code == 0
    assert "multiplicity 2" in out


def test_parse_error_exit_code(tmp_path):
    bad = GOLDEN_SCENARIOS["rank1_qi"].replace("k-prefix", "k-prefox")
    code, out, err = run_extend(tmp_path, bad)
    assert code == 1
    assert "line" in err


def test_valuation_section_requires_vars(tmp_path):
    text = "[base]\nbase: Q\nk-prefix: 0\n\n[valuation]\norder: lex\n"
    path = tmp_path / "novars.val"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_extend(str(path), out=out, err=err) == 1
    assert "vars" in err.getvalue()


_RANK1 = GOLDEN_SCENARIOS["rank1_qi"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[base]\nbase: Q\n[bogus]\n", "line 3: unknown section [bogus]"),
        ("base: Q\n[base]\n", "line 1: content before the first section"),
        ("[base]\nbase: Q\nbase: Q\n", "line 3: duplicate key 'base'"),
        # a key missing from a section cites that section's header
        ("# no base key\n[base]\nk-prefix: 0\n", "line 2: missing base field ([base] base: ...)"),
        ("[options]\nseed: 0\n", "missing base field ([base] base: ...)"),
        ("[base]\nbase: R\n", "line 2: unknown base field 'R'"),
        ("[base]\nbase: F4\n", "line 2: 4 is not prime"),
        ("[base]\nbase: Q\nk-prefix: 1\n", "line 3: k-prefix 1 out of range"),
        (_RANK1.replace("vars: x\n", "vars: ,\n"), "line 6: empty variable list"),
        (_RANK1.replace("vars: x\n", ""), "line 5: the [valuation] section needs a vars key"),
        (_RANK1.replace("order: lex\n", ""), "line 6: missing order key in [valuation]"),
        (_RANK1.replace("order: lex", "order: grlex"), "line 7: unsupported order 'grlex'"),
        (GOLDEN_SCENARIOS["decompose_qi"], "extend needs a [valuation] section"),
    ],
    ids=[
        "unknown-section", "content-first", "duplicate-key", "missing-base",
        "missing-base-section", "unknown-base", "base-F4", "k-prefix-range", "empty-vars",
        "valuation-without-vars", "missing-order", "unsupported-order", "no-valuation",
    ],
)
def test_scenario_refusals_print_their_message_and_line(tmp_path, text, message):
    assert run_extend(tmp_path, text) == (1, "", f"parse error: {message}\n")


def test_parse_error_reports_line_number(tmp_path):
    text = "[base]\nbase: Q\nnot a key value line\n"
    path = tmp_path / "x.val"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_decompose(str(path), out=out, err=err) == 1
    assert "line 3" in err.getvalue()


def test_capability_exit_code(tmp_path):
    big = """[base]
base: Q
k-prefix: 0

[extension]
kprime-gens: t: algebraic y^13 - 2
"""
    code, out, err = run_decompose(tmp_path, big)
    assert code == 2
    assert "capability" in err


def test_precondition_exit_code(tmp_path):
    nored = GOLDEN_SCENARIOS["char2_trunc"].replace(
        "\n[options]\ntruncation-N: 1\n", ""
    )
    code, out, err = run_extend(tmp_path, nored)
    assert code == 3
    assert "general construction" in err


# F = F2(a)(r) and k' = F2(a)(s) with r^4 = s^4 = a: the residual point
# stays multiple at truncation 1 and is strictly maximal at truncation 2
_FOURTH_ROOTS = GOLDEN_SCENARIOS["char2_trunc"].replace("y^2 + a", "y^4 + a")


@pytest.mark.parametrize(
    "text, point, message",
    [
        (GOLDEN_SCENARIOS["char2_trunc"], 3, "point index 3 out of range (1 points)"),
        (
            _FOURTH_ROOTS,
            None,
            "chosen residual point has multiplicity 2 > 1 at truncation 1; "
            "try a larger truncation exponent",
        ),
    ],
    ids=["point index", "multiplicity"],
)
def test_general_path_refusals_name_their_cause(tmp_path, text, point, message):
    # the inner build's refusal passes through unprefixed; a multiple point
    # names the truncation and advises only a larger one, which builds
    code, out, err = run_extend(tmp_path, text, point=point)
    assert (code, out, err) == (3, "", f"precondition error: {message}\n")
    if point is None:
        code, out, err = run_extend(tmp_path, text, truncate=2)
        assert (code, err) == (0, "") and "truncation: 2" in out


def test_point_and_truncate_overrides(tmp_path):
    code0, out0, _ = run_extend(tmp_path, GOLDEN_SCENARIOS["hensel_route"], point=0)
    code1, out1, _ = run_extend(tmp_path, GOLDEN_SCENARIOS["hensel_route"], point=1)
    assert code0 == code1 == 0
    assert out0 != out1  # conjugate embeddings
    nored = GOLDEN_SCENARIOS["char2_trunc"].replace(
        "\n[options]\ntruncation-N: 1\n", ""
    )
    code, out, err = run_extend(tmp_path, nored, truncate=1)
    assert code == 0 and "truncation: 1" in out


@pytest.mark.parametrize("variables", ["x1, x2", "x1, x2, x3"])
def test_split_step_builds_at_rank_2_and_3(tmp_path, variables):
    # the residual y^2 - 2 splits over Q(s2) at every rank; the lift of its
    # constant coefficients is exact, so no rank is refused
    text = GOLDEN_SCENARIOS["hensel_route"].replace("vars: x\n", f"vars: {variables}\n")
    code, out, err = run_extend(tmp_path, text, verify=True)
    assert (code, err) == (0, "")
    rank = variables.count(",") + 1
    assert f"delta: Z^{rank} lex" in out and f"primes: {rank + 1} <-> {rank + 1}" in out
    assert "factor lift at precision 6 routes to (y - s2), lifted factor (w - s2)" in out
    # every verification line reads True
    assert "maximal ideal generated by the base ideal: True" in out and "False" not in out


def test_a_failed_verification_exits_6_with_the_whole_report(tmp_path, monkeypatch):
    # no point of the residual decomposition maps into F1: both residue-pair
    # lines of rank1_qi read False, stdout still holds every section, and
    # stderr names the failed one
    from valext.compositum import CompositumPoint

    monkeypatch.setattr(CompositumPoint, "hom_into", lambda self, *args: None)
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["rank1_qi"], verify=True)
    assert (code, err) == (6, "verification failed: SPEC\n")
    assert out.count("strictly maximal composed extension: False (iso verified: False)") == 2
    assert "maximal ideal generated by the base ideal: True" in out
    for section in ("GROUP", "RESIDUE", "SPEC", "FLAGS", "PROVENANCE"):
        assert f"{section}\n" in out, section
    # the same plant fails nothing that a build without --verify prints
    assert run_extend(tmp_path, GOLDEN_SCENARIOS["rank1_qi"])[0] == 0


def test_facts_of_the_build_are_not_verification_failures(tmp_path):
    # on the general path the group grows by design: equal: False and
    # weakly unramified over V: False, with every check passing, exit 0
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["char2_trunc"], verify=True)
    assert (code, err) == (0, "")
    assert "  equal: False\n" in out and "weakly unramified over V: False" in out


def test_selftest_green_and_seed_stability():
    result = run_selftest(seed=0)
    assert not result.failed
    golden0 = [n for n in result.passed if not n.startswith("suite")]
    result5 = run_selftest(seed=5)
    assert not result5.failed
    golden5 = [n for n in result5.passed if not n.startswith("suite")]
    assert golden0 == golden5  # golden cases do not move with the seed


def test_selftest_reports_injected_failure(monkeypatch):
    from valext import selftest as st

    def boom():
        raise AssertionError("expected 1, got 2")

    monkeypatch.setattr(st, "GOLDEN_CASES", st.GOLDEN_CASES + [("mutated-case", boom)])
    result = run_selftest(seed=0)
    assert [name for name, _ in result.failed] == ["mutated-case"]
    assert any("FAIL golden mutated-case" in line for line in result.lines)


def _failed_lines(result):
    return {line.split(":")[0] for line in result.lines if line.startswith("FAIL")}


def test_selftest_module_norm_entries_fail_on_a_neutral_norm(monkeypatch):
    # the goldens print only entry names, so each entry's own checks must
    # see a norm that is always the neutral value
    monkeypatch.setattr(FreeAlgebra, "norm", lambda self, z: self.valuation.group.neutral())
    result = run_selftest(seed=0)
    assert _failed_lines(result) >= {
        "FAIL golden module-norm",
        "FAIL golden unit-part",
        "FAIL suite  module-norm-axioms (seed 0)",
    }
    # unit_part_factor finds no coefficient of the planted value, and says so
    assert dict(result.failed)["unit-part"] != ""


def test_selftest_separability_entry_fails_when_no_derivative_vanishes(monkeypatch):
    # y^2 + a over F2(a) is then recorded as separable
    exact = fields._u_deriv
    monkeypatch.setattr(fields, "_u_deriv", lambda R, a: exact(R, a) or [R.one])
    assert "FAIL golden separability-steps" in _failed_lines(run_selftest(seed=0))


def test_selftest_exit_codes(capsys):
    assert cli.cmd_selftest(seed=0) == 0
    capsys.readouterr()


def test_selftest_exit_code_on_corpus_failure(monkeypatch, capsys):
    from valext import selftest as st

    def boom():
        raise AssertionError("mutated expected value")

    monkeypatch.setattr(st, "GOLDEN_CASES", st.GOLDEN_CASES[:2] + [("mutant", boom)])
    monkeypatch.setattr(st, "PROPERTY_SUITES", st.PROPERTY_SUITES[:1])
    assert cli.cmd_selftest(seed=0) == 4
    captured = capsys.readouterr()
    assert "FAIL golden mutant" in captured.out


def test_main_dispatch(tmp_path, capsys):
    path = tmp_path / "m.val"
    path.write_text(GOLDEN_SCENARIOS["rank1_qi"])
    assert cli.main(["extend", str(path)]) == 0
    captured = capsys.readouterr()
    assert "GROUP" in captured.out


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python_m_valext(argv: list[str], unbuffered: bool, **kw) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "valext", *argv], env=env, stderr=subprocess.PIPE, timeout=120, **kw
    )


def _argv_for(command: str, tmp_path) -> list[str]:
    if command in ("selftest", "--help"):
        return [command]
    path = tmp_path / "s.val"
    path.write_text(GOLDEN_SCENARIOS["rank1_qi"])
    return ["extend", str(path)]


# buffered, the write fails at the last flush; unbuffered, at the first print
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["selftest", "extend", "--help"])
def test_closed_pipe_ends_quietly_with_141(tmp_path, command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader leaves before the first write
    try:
        proc = _python_m_valext(_argv_for(command, tmp_path), unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


def test_stdout_closed_at_start_up_is_not_an_error(tmp_path):
    # with fd 1 closed the interpreter sets sys.stdout to None and print
    # writes nothing; the final flush must not trip over that
    argv = _argv_for("extend", tmp_path)
    script = 'PYTHONPATH="$1" exec "$0" -m valext "$2" "$3" >&-'
    proc = subprocess.run(
        ["sh", "-c", script, sys.executable, _SRC, *argv], stderr=subprocess.PIPE, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


_ONE_STEP = """\
[base]
base: Q
k-prefix: 0

[valuation]
vars: x
order: lex

[extension]
kprime-gens: c: algebraic {}
"""


def test_reducible_step_is_a_parse_error_with_line(tmp_path):
    code, out, err = run_extend(tmp_path, _ONE_STEP.format("y^2 - 1"))
    assert code == 1 and out == ""
    assert err.startswith("parse error: line 10:") and "reducible" in err


def test_zero_denominator_is_a_parse_error_with_line(tmp_path):
    code, out, err = run_extend(tmp_path, _ONE_STEP.format("y^2 + 1/0"))
    assert code == 1 and out == ""
    assert err.startswith("parse error: line 10:") and "zero denominator" in err


_NAMED_GEN = """\
[base]
base: Q
gens: {}: transcendental
k-prefix: 1

[valuation]
vars: x
order: lex

[extension]
kprime-gens: s: algebraic {}
"""


@pytest.mark.parametrize(
    "text, line, why",
    [
        # step text reads y as its variable and 2 as an integer, so either
        # name would silently change what a later step polynomial means
        (_NAMED_GEN.format("y", "y^3 - y - 1"), 3, "generator name 'y' is the variable"),
        (_NAMED_GEN.format("2", "y^2 - 2"), 3, "bad generator name '2'"),
        (_ONE_STEP.format("y^2 + 1").replace("vars: x", "vars: 2"), 6, "bad variable name '2'"),
    ],
)
def test_names_step_text_cannot_read_are_parse_errors(tmp_path, text, line, why):
    code, out, err = run_extend(tmp_path, text)
    assert code == 1 and out == ""
    assert err.startswith(f"parse error: line {line}: ") and why in err
    assert "Traceback" not in err


_SUPERSCRIPT_BASE = _ONE_STEP.format("y^2 - 2").replace("base: Q", "base: F²")
_LONG_BASE = _ONE_STEP.format("y^2 - 2").replace("base: Q", "base: F" + "1" * 5000)


@pytest.mark.parametrize(
    "run, text, line, message",
    [
        # str.isdigit accepts "²" and digit runs past int's 4300-digit limit
        (run_extend, _ONE_STEP.format("y^² - 2"), 10, "unreadable number"),
        (run_extend, _ONE_STEP.format("y^2 - " + "1" * 5000), 10, "unreadable number"),
        (run_extend, _ONE_STEP.format("y^2 - " + "(" * 300 + "2" + ")" * 300), 10, "nests"),
        (run_extend, _ONE_STEP.format("y^2 - " + "-" * 3000 + "2"), 10, "nests"),
        (run_decompose, _SUPERSCRIPT_BASE, 2, "must be an integer"),
        (run_decompose, _LONG_BASE, 2, "must be an integer"),
    ],
    ids=[
        "superscript", "5000-digits", "300-parens", "3000-minus",
        "base-superscript", "base-5000-digits",
    ],
)
def test_unreadable_numbers_and_deep_nesting_are_parse_errors_with_line(
    tmp_path, run, text, line, message
):
    start = time.perf_counter()
    code, out, err = run(tmp_path, text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith(f"parse error: line {line}:") and message in err


@pytest.mark.parametrize("key", ["base", "k-prefix", "truncation-N", "point-index", "seed"])
def test_a_long_unreadable_integer_is_quoted_short(tmp_path, key):
    # int refuses a run of 5000 digits; the message quotes its first 20
    digits = "1" * 5000
    if key == "base":
        text = _ONE_STEP.format("y^2 - 2").replace("base: Q", f"base: F{digits}")
        line = 2
    elif key == "k-prefix":
        text = _ONE_STEP.format("y^2 - 2").replace("k-prefix: 0", f"k-prefix: {digits}")
        line = 3
    else:
        text = _ONE_STEP.format("y^2 - 2") + f"\n[options]\n{key}: {digits}\n"
        line = 13
    code, out, err = run_extend(tmp_path, text)
    assert code == 1 and out == ""
    assert err.startswith(f"parse error: line {line}:")
    assert f"must be an integer, got '{digits[:20]}'" in err
    assert len(err) < 120


def test_power_beyond_the_degree_bound_is_refused_before_expansion(tmp_path):
    start = time.perf_counter()
    code, out, err = run_extend(tmp_path, _ONE_STEP.format("(y+1)^3000"))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "capability error: degree 3000 exceeds the factorization bound 12\n"


def test_power_of_a_degree_0_base_is_refused_before_expansion(tmp_path):
    # the degree in y is 0, so only the exponent bound stops the expansion
    over_f2_a = _ONE_STEP.replace(
        "base: Q\nk-prefix: 0", "base: F2\ngens: a: transcendental\nk-prefix: 1"
    )
    for text, exponent in [
        (over_f2_a.format("y^2 - (a+1)^3000"), 3000),
        (_ONE_STEP.format("y^2 - 3^200000000"), 200000000),
    ]:
        start = time.perf_counter()
        code, out, err = run_extend(tmp_path, text)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"capability error: exponent {exponent} exceeds the factorization bound 12\n"


def test_bad_vars_lines_are_parse_errors_on_the_vars_line(tmp_path):
    # each of these once escaped as a StructuralError traceback: from the
    # valuation (a repeated name, rank 4) or from the build (a variable named
    # like a generator of k', which joins the residue field of W)
    for vars_line, message in [
        ("x, x", "variable names must be distinct"),
        ("x1, x2, x3, x4", "rank must be in 1..3, got 4"),
        ("x, i", "variable name 'i' is a generator name"),
    ]:
        text = GOLDEN_SCENARIOS["rank1_qi"].replace("vars: x\n", f"vars: {vars_line}\n")
        code, out, err = run_extend(tmp_path, text)
        assert (code, out) == (1, ""), vars_line
        assert err == f"parse error: line 6: {message}\n"


# k' steps above a nonempty k-prefix, or more than one algebraic k' step: the
# images of the earlier generators live in the point's composed field, and
# the strictly maximal build maps them into the residue field built so far
_STEPS_ABOVE_PREFIX = {
    # a k' step named like a generator of F above k is renamed to i_1
    "renamed": (
        "a: transcendental; i: algebraic y^2 + 1",
        1,
        "i: algebraic y^2 + 3",
        ["image a -> a", "image i -> i_1"],
    ),
    "two_steps": ("", 0, "c: algebraic y^2 + 1; d: algebraic y^2 - 2", ["image d -> d"]),
    # the first step splits over F (the factor-lift route), the second does not
    "split_then_irreducible": (
        "a: transcendental; s: algebraic y^2 - 2",
        1,
        "c: algebraic y^2 - 2; d: algebraic y^2 - 3*c - 2",
        ["image c -> s", "image d -> d"],
    ),
}


@pytest.mark.parametrize("name", sorted(_STEPS_ABOVE_PREFIX))
def test_extend_builds_kprime_steps_above_a_prefix(tmp_path, name):
    gens, k_prefix, kprime, images = _STEPS_ABOVE_PREFIX[name]
    text = "[base]\nbase: Q\n" + (f"gens: {gens}\n" if gens else "")
    text += f"k-prefix: {k_prefix}\n\n[valuation]\nvars: x\norder: lex\n\n"
    text += f"[extension]\nkprime-gens: {kprime}\n"
    code, out, err = run_extend(tmp_path, text, verify=True)
    assert (code, err) == (0, "")
    for line in images:
        assert f"  {line}\n" in out
    assert "  path: strictly-maximal\n" in out
    assert "  weakly unramified over V: True\n" in out
    assert "False" not in out


def test_missing_scenario_file_is_a_parse_error(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_extend(str(tmp_path / "absent.val"), out=out, err=err) == 1
    assert err.getvalue().startswith("parse error: cannot read")


def test_directory_as_scenario_file_is_a_parse_error(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_decompose(str(tmp_path), out=out, err=err) == 1
    assert err.getvalue().startswith("parse error: cannot read")


def test_non_utf8_scenario_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.val"
    path.write_bytes("[base]\nbase: Q\n# caf\xe9\n".encode("latin-1"))
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_extend(str(path), out=out, err=err) == 1
    assert err.getvalue().startswith("parse error:") and "UTF-8" in err.getvalue()


def test_negative_truncation_is_a_parse_error(tmp_path):
    text = GOLDEN_SCENARIOS["char2_trunc"].replace("truncation-N: 1", "truncation-N: -1")
    code, out, err = run_extend(tmp_path, text)
    assert code == 1 and "line" in err and "nonnegative" in err
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["char2_trunc"], truncate=-1)
    assert code == 1 and "--truncate" in err


def test_oversized_truncation_is_a_capability_error(tmp_path):
    text = GOLDEN_SCENARIOS["char2_trunc"]
    start = time.perf_counter()
    for n in (11, 10**12):
        code, out, err = run_extend(tmp_path, text, truncate=n)
        assert code == 2 and err.startswith("capability error:"), err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "kprime, code",
    [
        ("s: algebraic y^2 + a", 0),  # t = 1: 2^10 is the cap itself
        # t, a transcendental step of k', makes t = 2: 2^(10*2)
        ("s: algebraic y^2 + a; t: transcendental; u: algebraic y^2 + t", 2),
    ],
    ids=["algebraic", "transcendental"],
)
def test_closure_degree_charges_the_transcendental_steps_of_kprime(tmp_path, kprime, code):
    text = GOLDEN_SCENARIOS["char2_trunc"].replace("s: algebraic y^2 + a", kprime)
    text = text.replace("truncation-N: 1", "truncation-N: 10")
    assert kprime in text and "truncation-N: 10" in text
    got, out, err = run_extend(tmp_path, text, verify=True)
    assert got == code, err
    if code:
        assert err.startswith("capability error:") and "2^(10*2)" in err, err


def test_truncation_nine_reports_a_radicial_residue_field(tmp_path):
    code, out, err = run_extend(tmp_path, GOLDEN_SCENARIOS["char2_trunc"], truncate=9)
    assert code == 0, err
    assert "residue field radicial over k'F: True" in out


def test_prime_field_bound_on_the_command_line(tmp_path):
    text = "[base]\nbase: F{}\nk-prefix: 0\n\n[extension]\nkprime-gens: s: algebraic y^2 - 3\n"
    start = time.perf_counter()
    code, out, err = run_decompose(tmp_path, text.format(2**61 - 1))
    assert code == 0 and out.startswith("1 point(s)"), err
    code, out, err = run_decompose(tmp_path, text.format(2**127 - 1))
    assert code == 2 and err.startswith("capability error:")
    assert time.perf_counter() - start < 2
