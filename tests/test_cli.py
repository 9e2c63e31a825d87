import io
import time

from valext import cli
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


def test_parse_render_round_trip():
    for name, text in GOLDEN_SCENARIOS.items():
        parsed = cli.parse_scenario(text)
        rendered = cli.render_scenario(parsed)
        assert cli.parse_scenario(rendered) == parsed, name


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


def test_selftest_green_and_seed_stability():
    result = run_selftest(seed=0)
    assert not result.failed
    golden0 = [n for n in result.passed if not n.startswith("suite")]
    result5 = run_selftest(seed=5)
    assert not result5.failed
    golden5 = [n for n in result5.passed if not n.startswith("suite")]
    assert golden0 == golden5  # golden cases do not move with the seed


def test_selftest_reports_injected_failure():
    def boom():
        raise AssertionError("expected 1, got 2")

    result = run_selftest(seed=0, extra_cases=[("mutated-case", boom)])
    assert [name for name, _ in result.failed] == ["mutated-case"]
    assert any("FAIL golden mutated-case" in line for line in result.lines)


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
