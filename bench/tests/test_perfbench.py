"""Fast tests of the benchmark's own parts: input generators, correctness
checks, the tail-percentile rule and the per-layer metric list.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import collections
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

checks = pytest.importorskip("checks", reason="the correctness checks need sympy")

# sympy warns about its own modular-integer comparisons in factor_list
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    gen = workloads.WORKLOADS[workload]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_class_sizes_do_not_depend_on_the_seed(workload):
    gen = workloads.WORKLOADS[workload]
    sizes = {seed: collections.Counter(x["cls"] for x in gen(seed)) for seed in (1, 2, 3)}
    assert sizes[1] == sizes[2] == sizes[3]


@pytest.mark.parametrize(
    "n, p",
    [(1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert measure.tail_percentile(n) == p


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 90.0) == 90.0
    assert measure.percentile(values, 99.9) == 100.0
    assert measure.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()


# -- factor_mix checks ----------------------------------------------------------


def _fac(*factors, unit="1"):
    return {"unit": unit, "factors": [list(f) for f in factors]}


def test_factor_check_accepts_the_right_answer():
    inp = {"domain": "Q", "text": "(y - 1)^2 * (y^2 + 1)"}
    assert checks.check_factor(inp, _fac(("y - 1", 2), ("y^2 + 1", 1))) is None
    inp = {"domain": "Q(i)", "text": "(y^2 + 1) * (y + 2)"}
    assert checks.check_factor(inp, _fac(("y + 2", 1), ("y - i", 1), ("y + i", 1))) is None
    inp = {"domain": "F5", "text": "(y^2 + 1)"}
    assert checks.check_factor(inp, _fac(("y + 2", 1), ("y + 3", 1))) is None


def test_factor_check_rejects_an_altered_factor():
    inp = {"domain": "Q", "text": "(y - 1)^2 * (y^2 + 1)"}
    assert checks.check_factor(inp, _fac(("y + 1", 2), ("y^2 + 1", 1))) is not None
    assert checks.check_factor(inp, _fac(("y - 1", 1), ("y^2 + 1", 1))) is not None


def test_factor_check_rejects_an_incomplete_factorization():
    # right product, but y^2 + 1 splits over Q(i)
    inp = {"domain": "Q(i)", "text": "(y^2 + 1) * (y + 2)"}
    assert checks.check_factor(inp, _fac(("y + 2", 1), ("y^2 + 1", 1))) is not None
    inp = {"domain": "Q(s2)", "text": "(y^2 - 2)"}
    assert checks.check_factor(inp, _fac(("y^2 - 2", 1))) is not None


def test_factor_check_rejects_a_wrong_binomial_factorization():
    inp = {"domain": "F2(a)", "text": "(y^2 + (a))^2", "expect": [["y^2 + a", 2]]}
    assert checks.check_factor(inp, _fac(("y^2 + a", 2))) is None
    assert checks.check_factor(inp, _fac(("y^4 + a^2", 1))) is not None
    assert checks.check_factor(inp, _fac(("y^2 + a + 1", 2))) is not None


# -- extension report checks ----------------------------------------------------


def _report(name: str, verify: bool, tmp_path) -> tuple[dict, str]:
    from valext import cli

    inp = next(x for x in workloads.extend_verify_inputs(1) if x["name"] == name)
    path = tmp_path / f"{name}.val"
    path.write_text(inp["text"], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    rc = cli.cmd_extend(str(path), verify=verify, out=out, err=err)
    return inp, f"exit {rc}\n{out.getvalue()}{err.getvalue()}"


def test_extend_check_accepts_and_rejects_strictly_maximal_reports(tmp_path):
    inp, report = _report("rank1_qi", True, tmp_path)
    assert checks.check_extend(inp, report, verify=True) is None
    for good, bad in (
        ("equal: True", "equal: False"),
        ("delta: Z^1 lex", "delta: Z^2 lex"),
        ("primes: 2 <-> 2", "primes: 2 <-> 3"),
        ("sampled values inside the claimed group: True", "sampled values inside the claimed group: False"),
        ("(iso verified: True)", "(iso verified: False)"),
        ("F1: base=Q; gen i: algebraic y^2 + 1", "F1: base=Q; gen i: algebraic y^2 + 2"),
    ):
        assert good in report
        assert checks.check_extend(inp, report.replace(good, bad, 1), verify=True) is not None, bad


def test_extend_check_accepts_and_rejects_general_path_reports(tmp_path):
    inp, report = _report("char2_trunc", False, tmp_path)
    assert checks.check_extend(inp, report, verify=False) is None
    for good, bad in (
        ("delta/gamma p-torsion: True", "delta/gamma p-torsion: False"),
        ("residue field radicial over k'F: True", "residue field radicial over k'F: False"),
        ("delta: (1/2)Z^1 lex", "delta: Z^1 lex"),
        ("path: general", "path: strictly-maximal"),
    ):
        assert good in report
        assert checks.check_extend(inp, report.replace(good, bad, 1), verify=False) is not None, bad
    assert checks.check_extend(inp, "exit 2\ncapability error: x\n", verify=False) is not None


def test_extend_check_rejects_a_wrong_root_image(tmp_path):
    inp, report = _report("hensel_route", False, tmp_path)
    assert checks.check_extend(inp, report, verify=False) is None
    assert "image c -> s2" in report
    assert checks.check_extend(inp, report.replace("image c -> s2", "image c -> s2 + 1"), verify=False) is not None


def test_value_check_agrees_with_valext():
    import valext

    assert checks.check_values(valext, seed=3, per_valuation=5) == []
