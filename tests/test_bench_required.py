"""Every function the benchmark requires of a workload is still reached.

``bench/tracing.py`` lists in ``REQUIRED`` the wrapped functions that each
workload must call; a traced benchmark run is refused when one of them
records no call.  A change that routes around such a function fails here
first: the five golden scenarios of ``bench/workloads.py`` run through
``cli.cmd_extend`` with recording on, with ``--verify`` and without it, and
so does the first ``extend_build`` input of each class (eisenstein, split
and fpa_trunc), without it.  ``poly.factor`` runs on the first
``factor_mix`` input of each class (Q, F_p, the F_2(a) binomial and the
norm route).
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import io, os, sys, tempfile
sys.path[:0] = sys.argv[1:3]
from valext import cli
import tracing, workloads
rec = tracing.Recorder()
tracing.install(rec)
verify = sys.argv[3] == "extend_verify"
if sys.argv[4] == "golden":
    texts = {name: workloads.scenario_text(*spec) for name, spec in workloads.GOLDEN.items()}
else:
    texts = {}
    for inp in workloads.extend_build_inputs(1):
        texts.setdefault(inp["cls"], inp["text"])
    assert sorted(texts) == ["eisenstein", "fpa_trunc", "split"], sorted(texts)
with tempfile.TemporaryDirectory() as tmp:
    for name, text in texts.items():
        path = os.path.join(tmp, name + ".val")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        rec.active = True
        code = cli.cmd_extend(path, verify=verify, out=io.StringIO(), err=io.StringIO())
        rec.active = False
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
reached = {rec.names[fid] for fid in rec.fid}
print(" ".join(name for name in tracing.REQUIRED[sys.argv[3]] if name not in reached))
"""


FACTOR_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
from valext import cli, fields, poly  # install wraps cli and builder too
import tracing, workloads
rec = tracing.Recorder()
tracing.install(rec)
q = fields.FieldTower.rationals()
towers = {
    "Q": q,
    "Q(i)": q.extend_algebraic("i", [1, 0, 1]),
    "Q(s2)": q.extend_algebraic("s2", [-2, 0, 1]),
    "F2(a)": fields.FieldTower.prime_field(2).extend_transcendental("a"),
}
first = {}
for inp in workloads.factor_inputs(1):
    first.setdefault(inp["cls"], inp)
assert sorted(first) == ["binomial", "fp", "norm", "q"], sorted(first)
for inp in first.values():
    dom = inp["domain"]
    tower = towers.get(dom) or fields.FieldTower.prime_field(int(dom[1:]))
    f = poly.Polynomial.parse(inp["text"], tower, ("y",))
    rec.active = True
    poly.factor(f)
    rec.active = False
reached = {rec.names[fid] for fid in rec.fid}
print(" ".join(name for name in tracing.REQUIRED["factor_mix"] if name not in reached))
"""


def _unreached(script: str, workload: str, *args: str) -> list[str]:
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            script,
            os.path.join(ROOT, "src"),
            os.path.join(ROOT, "bench"),
            workload,
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("workload", ["extend_verify", "extend_build"])
def test_golden_scenarios_reach_every_required_function(workload):
    assert _unreached(SCRIPT, workload, "golden") == []


def test_build_inputs_reach_every_required_function():
    # the first input of each class, as the benchmark draws them at seed 1
    assert _unreached(SCRIPT, "extend_build", "first") == []


def test_factor_inputs_reach_every_required_function():
    # fields.inv is reached only through the division in the p-th root
    # maps over F_2(a), which the binomial input exercises
    assert _unreached(FACTOR_SCRIPT, "factor_mix") == []
