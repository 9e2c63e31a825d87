"""The package's self-checks are real checks: no ``assert`` (removed by
``python -O``) guards a result, and the selftest passes under ``-O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((SRC / "valext").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_selftest_passes_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "valext", "selftest"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout
