"""The golden reports, byte for byte.

``tests/golden`` holds the ``extend --verify`` report of each extension
scenario in ``selftest.GOLDEN_SCENARIOS`` and the ``decompose`` report of
every scenario, as produced before the univariate core was shared.  The files
are fixed: a change that alters one of them changes what valext prints.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from valext import cli
from valext.selftest import GOLDEN_SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
EXTENSIONS = [name for name, text in GOLDEN_SCENARIOS.items() if "[valuation]" in text]


def _run(cmd, tmp_path, name, **kw):
    path = tmp_path / f"{name}.val"
    path.write_text(GOLDEN_SCENARIOS[name])
    out, err = io.StringIO(), io.StringIO()
    code = cmd(str(path), out=out, err=err, **kw)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extend_verify_report_is_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.extend-verify.txt").read_text()
    assert _run(cli.cmd_extend, tmp_path, name, verify=True) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_decompose_report_is_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.decompose.txt").read_text()
    assert _run(cli.cmd_decompose, tmp_path, name) == expected


@pytest.mark.parametrize("hash_seed", ["1", "98765"])
@pytest.mark.parametrize("name", ["rank2_trans", "char2_trunc"])
def test_extend_verify_report_is_golden_under_any_hash_seed(tmp_path, name, hash_seed):
    # a fresh interpreter per hash seed: str hashes, and with them the
    # iteration order of any set of strings, differ between them
    path = tmp_path / f"{name}.val"
    path.write_text(GOLDEN_SCENARIOS[name])
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "valext", "extend", "--verify", str(path)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{name}.extend-verify.txt").read_bytes()


def test_extend_verify_report_is_golden_under_python_O(tmp_path):
    # -O strips assert statements: the report, and the p-th root checks of
    # the truncated perfect closure it runs through, must not depend on them
    path = tmp_path / "char2_trunc.val"
    path.write_text(GOLDEN_SCENARIOS["char2_trunc"])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "valext", "extend", "--verify", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "char2_trunc.extend-verify.txt").read_bytes()
