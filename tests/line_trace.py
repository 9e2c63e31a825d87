"""Print every line of ``src/valext`` that the tier-1 tests never execute.

Run from the repository root, with the tier-1 environment:

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]
    PYTHONPATH=src python tests/line_trace.py --product

With ``--product`` no test runs: the traced runs are what the product
prints, each checked against its golden file: ``extend --verify`` of every
golden extension scenario, ``decompose`` of every golden scenario, the
``tests/golden/factor.txt`` corpus and ``selftest`` at seeds 0 and 3.  In
both modes the lines never reached are listed, and then the functions and
methods never called.

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

import contextlib
import inspect
import io
import os
import sys
import tempfile
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

    def traced_code(self):
        """The code objects of the package whose frames ran."""
        return self._lines_of.keys()

    def install(self) -> None:
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()


def _product_runs() -> int:
    """Make the runs of ``--product`` and return the number whose output
    differs from its golden file (each is named on stderr)."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_golden as golden
    from valext import cli
    from valext.selftest import GOLDEN_SCENARIOS

    def stdout_of(*argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
        return out.getvalue()

    outputs = []  # (golden file name, output)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GOLDEN_SCENARIOS):
            path = Path(tmp) / f"{name}.val"
            path.write_text(GOLDEN_SCENARIOS[name], encoding="utf-8")
            outputs.append((f"{name}.decompose.txt", stdout_of("decompose", str(path))))
            if name in golden.EXTENSIONS:
                text = stdout_of("extend", "--verify", str(path))
                outputs.append((f"{name}.extend-verify.txt", text))
    for seed in (0, 3):
        outputs.append((f"selftest.seed{seed}.txt", stdout_of("selftest", "--seed", str(seed))))
    outputs.append(("factor.txt", golden.factor_corpus()))
    differ = [name for name, text in outputs if (golden.GOLDEN / name).read_text() != text]
    for name in differ:
        print(f"output differs from tests/golden/{name}", file=sys.stderr)
    return len(differ)


def _uncalled(code, called: set, prefix: str):
    """The functions and methods under ``code`` (a module or class body)
    whose (first line, qualified name) is not in ``called``, and those
    under the ones that are; lambdas and comprehensions are left out."""
    for const in code.co_consts:
        if not isinstance(const, type(code)) or const.co_name.startswith("<"):
            continue
        if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
            yield from _uncalled(const, called, prefix)
        elif (const.co_firstlineno, const.co_qualname) not in called:
            yield f"{prefix}:{const.co_firstlineno}: {const.co_qualname}"
        else:
            yield from _uncalled(const, called, prefix)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    product = argv == ["--product"]
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    tracer = LineTrace()
    tracer.install()
    status = _product_runs() if product else pytest.main(args, plugins=[tracer])
    sys.settrace(None)
    threading.settrace(None)
    missed = 0
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = tracer.executed.get(str(path), set())
        module = compile(source, str(path), "exec")
        for line in sorted(_code_lines(module) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
        called = {
            (code.co_firstlineno, code.co_qualname)
            for code in tracer.traced_code()
            if os.path.realpath(code.co_filename) == str(path)
        }
        uncalled += _uncalled(module, called, str(path.relative_to(ROOT)))
    print("\n".join(uncalled))
    what = "by the product runs" if product else f"(pytest exit status {int(status)})"
    print(f"{missed} lines and {len(uncalled)} functions of src/valext never executed {what}")
    return int(status != 0) if product else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
