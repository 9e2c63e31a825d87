"""The benchmark's tracing wrappers (``bench/tracing.py``) still bind.

``tracing.install`` wraps every function its ``WRAPPED`` table names and
raises when one of them is gone, so a deletion in valext that removes a
wrapped name fails here rather than in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import valext
from valext import cli, fields, poly
import tracing
tracing.install(tracing.Recorder())
print(len(tracing.WRAPPED))
"""


def test_bench_tracing_wrappers_bind():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
