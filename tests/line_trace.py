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

``--product`` also holds the product's reach: every function that no
product run calls must be on ``ALLOWED_UNCALLED`` below, keyed by
``file:qualname`` with the reason it stays, and every entry there must name
a function that exists and is still never called.  The mode exits 1 when
either fails, or when an output differs from its golden file.  A function
that no product run needs is deleted or moved into the tests; one that
stays gets an entry, and the change that puts it on a product path removes
the entry.

The tests run in this process under a ``sys.settrace`` tracer that records
the lines of frames whose code lives in ``src/valext`` and ignores all other
frames.  Hypothesis replaces the trace function partway through a run, so
the tracer is installed again before each test's setup and call.  Once
every line of a function has run, its calls go untraced, which keeps the
run within a few times the untraced one.  A line counts as executable when
some code object compiled from the file maps an instruction to it.  The
planted-fault runs of ``tests/test_self_checks.py`` trace themselves
(``report_to``) when ``LINE_TRACE_REPORT`` in the environment names a
report file, and their lines and calls are credited.  Other code that tests run in a
subprocess (the CLI and the ``python -O`` checks) is not traced, so a line
reached only there is listed.  pytest does not collect this file: its name
does not start with ``test_``.
"""

from __future__ import annotations

import atexit
import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "valext"
# the environment variable that names the report file of traced subprocesses
REPORT = "LINE_TRACE_REPORT"

# The functions the product runs never call, keyed by file:qualname, each
# with the reason it stays.
ALLOWED_UNCALLED = {
    "builder.py:BuiltExtension.base_embedding": "V -> W with p^N-th powers, for the domination tests",
    "cli.py:_Parser.print_help": "argparse's help text, printed by -h",
    "errors.py:ScenarioParseError.__init__": "the error of a malformed scenario file",
    "fields.py:FieldTower._parent": "the prefix of a tower built by the public constructor",
    "fields.py:FieldTower.__str__": "protocol method of the public API",
    "fields.py:FieldElement.__sub__": "protocol method of the public API",
    "fields.py:FieldElement.__bool__": "protocol method of the public API",
    "fields.py:FieldElement.__hash__": "protocol method of the public API",
    "fields.py:FieldElement.__repr__": "protocol method of the public API",
    "fields.py:_denominators": "prints the sampled fraction of a failed --verify line",
    "norms.py:GaussExtension.value": "the Gauss valuation on E; ROADMAP item 1 stage B",
    "norms.py:GaussExtension.value_fraction": "the Gauss valuation on E; ROADMAP item 1 stage B",
    "norms.py:GaussExtension.in_ring": "the Gauss valuation on E; ROADMAP item 1 stage B",
    "poly.py:Polynomial.__rsub__": "protocol method of the public API",
    "poly.py:Polynomial.__hash__": "protocol method of the public API",
    "poly.py:Polynomial.__repr__": "protocol method of the public API",
    "poly.py:resultant": "a bench-wrapped function; ROADMAP item 2b",
    "poly.py:Factorization.__str__": "protocol method of the public API",
    "valuations.py:MonomialValuation.__hash__": "protocol method of the public API",
    "valuations.py:MonomialValuation.series": "a bench-wrapped function; ROADMAP item 2b",
    "value_groups.py:ValueWithZero.__str__": "protocol method of the public API",
}


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


def report_to(path: str) -> None:
    """Trace this process and, at its exit, append to ``path`` one JSON
    line of what it ran: the package lines by real path, and the calls as
    (real path, first line, qualified name)."""
    tracer = LineTrace()
    tracer.install()

    def write():
        sys.settrace(None)
        called = [
            [os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname]
            for code in tracer.traced_code()
        ]
        executed = {real: sorted(lines) for real, lines in tracer.executed.items()}
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps({"executed": executed, "called": called}) + "\n")

    atexit.register(write)


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


def _uncalled(code, called: set):
    """The (first line, qualified name) of the functions and methods under
    ``code`` (a module or class body) not in ``called``, and of those under
    the ones that are; lambdas and comprehensions are left out."""
    for const in code.co_consts:
        if not isinstance(const, type(code)) or const.co_name.startswith("<"):
            continue
        if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
            yield from _uncalled(const, called)
        elif (const.co_firstlineno, const.co_qualname) not in called:
            yield const.co_firstlineno, const.co_qualname
        else:
            yield from _uncalled(const, called)


def _check(uncalled: list[str]) -> int:
    """Print how the uncalled functions (``file:qualname``) differ from
    ``ALLOWED_UNCALLED`` and return the number of differences."""
    found = set(uncalled)
    unlisted = sorted(found - ALLOWED_UNCALLED.keys())
    stale = sorted(ALLOWED_UNCALLED.keys() - found)
    for key in unlisted:
        print(f"never called and not on ALLOWED_UNCALLED: {key}")
    for key in stale:
        print(f"on ALLOWED_UNCALLED but called or gone: {key}")
    return len(unlisted) + len(stale)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    product = argv == ["--product"]
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    tracer = LineTrace()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.jsonl"
        os.environ[REPORT] = str(report)
        tracer.install()
        status = _product_runs() if product else pytest.main(args, plugins=[tracer])
        sys.settrace(None)
        threading.settrace(None)
        runs = report.read_text().splitlines() if report.exists() else []
    called = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)
        for code in tracer.traced_code()
    }
    for run in map(json.loads, runs):
        called.update(map(tuple, run["called"]))
        for path, lines in run["executed"].items():
            tracer.executed.setdefault(path, set()).update(lines)
    missed = 0
    uncalled = []  # (file:line: qualname, file:qualname)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = tracer.executed.get(str(path), set())
        module = compile(source, str(path), "exec")
        for line in sorted(_code_lines(module) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
        mine = {(first, name) for real, first, name in called if real == str(path)}
        for first, name in _uncalled(module, mine):
            uncalled.append((f"{path.relative_to(ROOT)}:{first}: {name}", f"{path.name}:{name}"))
    print("\n".join(where for where, _ in uncalled))
    what = "by the product runs" if product else f"(pytest exit status {int(status)})"
    print(f"{missed} lines and {len(uncalled)} functions of src/valext never executed {what}")
    if product:
        status += _check([key for _, key in uncalled])
    return int(status != 0) if product else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
