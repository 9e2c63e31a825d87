"""Every function the benchmark requires of a workload is still reached.

``bench/tracing.py`` lists in ``REQUIRED`` the wrapped functions that the
``extend_verify`` and ``extend_build`` workloads must call; a traced
benchmark run is refused when one of them records no call.  A change that
routes around such a function fails here first: the five golden scenarios of
``bench/workloads.py`` run through ``cli.cmd_extend`` with recording on, with
``--verify`` and without it.
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
with tempfile.TemporaryDirectory() as tmp:
    for name, spec in workloads.GOLDEN.items():
        path = os.path.join(tmp, name + ".val")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.scenario_text(*spec))
        rec.active = True
        code = cli.cmd_extend(path, verify=verify, out=io.StringIO(), err=io.StringIO())
        rec.active = False
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
reached = {rec.names[fid] for fid in rec.fid}
print(" ".join(name for name in tracing.REQUIRED[sys.argv[3]] if name not in reached))
"""


@pytest.mark.parametrize("workload", ["extend_verify", "extend_build"])
def test_golden_scenarios_reach_every_required_function(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            os.path.join(ROOT, "src"),
            os.path.join(ROOT, "bench"),
            workload,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"not reached: {proc.stdout}"
