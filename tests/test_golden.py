"""The golden reports, byte for byte.

``tests/golden`` holds the ``extend --verify`` report of each extension
scenario in ``selftest.GOLDEN_SCENARIOS`` and the ``decompose`` report of
every scenario, as produced before the univariate core was shared.  The files
are fixed: a change that alters one of them changes what valext prints.
"""

import io
from pathlib import Path

import pytest

from valext import cli
from valext.selftest import GOLDEN_SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
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
