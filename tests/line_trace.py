"""Print every line of ``src/valext`` that the tier-1 tests never execute.

Run from the repository root, with the tier-1 environment:

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The tests run in this process under a ``sys.settrace`` tracer that records
the lines of frames whose code lives in ``src/valext`` and ignores all other
frames.  Hypothesis replaces the trace function partway through a run, so
the tracer is installed again before each test's setup and call.  Once
every line of a function has run, its calls go untraced, which keeps the
run within a few times the untraced one.  A line counts as executable when some code object compiled from the file maps an
instruction to it.  Code that tests run in a subprocess (the CLI and the
``python -O`` checks) is not traced, so a line reached only there is
listed.  pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "valext"


def _own_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


def _code_lines(code) -> set[int]:
    lines = _own_lines(code)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


class LineTrace:
    """The lines of the package that ran, keyed by real path; also a pytest
    plugin that installs the tracer again before each test."""

    def __init__(self):
        self.executed: dict[str, set[int]] = {}
        # co_filename -> its set in ``executed``, or None outside the package
        self._files: dict[str, set[int] | None] = {}
        # code object -> its own lines; every line of a code object in
        # ``_done`` has run, so its calls go untraced
        self._lines_of: dict = {}
        self._done: set = set()

    def trace(self, frame, event, arg):
        code = frame.f_code
        if code in self._done:
            return None
        path = code.co_filename
        if path not in self._files:
            real = Path(os.path.realpath(path))
            self._files[path] = (
                self.executed.setdefault(str(real), set()) if real.parent == PACKAGE else None
            )
        lines = self._files[path]
        if lines is None:
            return None
        if code not in self._lines_of:
            self._lines_of[code] = _own_lines(code)
        own, done = self._lines_of[code], self._done
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            if event == "return" and own <= lines:
                done.add(code)
            return local

        return local

    def install(self) -> None:
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    tracer = LineTrace()
    tracer.install()
    status = pytest.main(args, plugins=[tracer])
    sys.settrace(None)
    threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = tracer.executed.get(str(path), set())
        for line in sorted(_code_lines(compile(source, str(path), "exec")) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/valext never executed (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
