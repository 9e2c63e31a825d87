"""Scenario-file driver.

Scenario grammar (line oriented; blank lines and lines starting with ``#``
are ignored; unknown sections or keys are rejected)::

    [base]
    base: Q | F<p>                     # base field of the coefficient tower
    gens: a: transcendental; r: algebraic y^2 + a
    k-prefix: 1                        # how many gens belong to the subfield k

    [valuation]                        # present only for extension scenarios
    vars: x1, x2                       # monomial valuation variables
    order: lex

    [extension]
    kprime-gens: s: algebraic y^2 + a  # steps of k' over k

    [options]
    truncation-N: 1
    point-index: 0
    seed: 0

Tower steps use the polynomial syntax ``y^2 - a*x + 3/2`` with ``y`` the
step variable.  A file without a ``[valuation]`` section describes a
compositum triple: M is the ``[base]`` tower, K its ``k-prefix``, and L is K
extended by ``kprime-gens``.

Commands::

    valext decompose <file>
    valext extend <file> [--verify] [--point <i>] [--truncate <N>]
    valext selftest

``selftest`` is an install check: it runs ``decompose`` and ``extend
--verify`` on the embedded golden scenarios and compares the digest of each
report with the digest of its file in ``tests/golden``.

Exit codes: 0 success, 1 parse error (also an unreadable scenario file or a
negative truncation exponent), 2 capability error, 3 precondition error,
4 selftest failure (an embedded golden report differs), 5 internal check
failed (a check of the engine's own answer), 6 verification failed
(``extend --verify`` printed its whole report, and a check in it failed),
141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from dataclasses import dataclass

from . import config
from .builder import (
    ExtensionScenario,
    build_general,
    build_strictly_maximal,
    render_report,
    spectrum_correspondence,
    verify_weakly_unramified,
)
from .compositum import tensor_decompose
from .errors import (
    CapabilityError,
    DomainError,
    PreconditionError,
    ScenarioParseError,
    SelfCheckError,
    StructuralError,
)
from .fields import FieldTower, _is_name
from .selftest import GOLDEN_DIGESTS, GOLDEN_SCENARIOS
from .valuations import MonomialValuation

_SECTIONS = {"base", "valuation", "extension", "options"}
_KEYS = {
    "base": {"base", "gens", "k-prefix"},
    "valuation": {"vars", "order"},
    "extension": {"kprime-gens"},
    "options": {"truncation-N", "point-index", "seed"},
}


@dataclass
class ScenarioFile:
    """Parsed scenario: either an extension scenario or a compositum triple."""

    f_tower: FieldTower
    k_len: int
    kprime: FieldTower
    variables: tuple[str, ...] | None  # None: compositum triple
    truncation: int | None = None
    point_index: int = 0
    seed: int = 0

    @property
    def is_extension(self) -> bool:
        return self.variables is not None

    def to_extension_scenario(self) -> ExtensionScenario:
        if not self.is_extension:
            raise ScenarioParseError("extend needs a [valuation] section")
        v = MonomialValuation(self.f_tower, self.variables)
        return ExtensionScenario(
            valuation=v,
            k_len=self.k_len,
            kprime=self.kprime,
            point_index=self.point_index,
            truncation=self.truncation,
            seed=self.seed,
        )


def _parse_steps(tower: FieldTower, text: str, line: int, proven: set) -> FieldTower:
    """Extend ``tower`` by the steps of one line; ``proven`` holds the
    (tower, minimal polynomial) pairs this parse has proven irreducible."""
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            tower = tower.extend_step(part, proven)
        except SelfCheckError:
            raise
        except (StructuralError, DomainError) as exc:
            raise ScenarioParseError(str(exc), line) from None
    return tower


def parse_scenario(text: str) -> ScenarioFile:
    section = None
    headers: dict[str, int] = {}  # the line of each section's first header
    values: dict[tuple[str, str], tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioParseError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ScenarioParseError("content before the first section", lineno)
        key, sep, value = line.partition(":")
        if not sep:
            raise ScenarioParseError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        if key not in _KEYS[section]:
            raise ScenarioParseError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in values:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        values[(section, key)] = (value.strip(), lineno)

    def get(section: str, key: str):
        return values.get((section, key), (None, 0))

    base_text, base_line = get("base", "base")
    if base_text is None:
        raise ScenarioParseError("missing base field ([base] base: ...)", headers.get("base"))
    if base_text == "Q":
        tower = FieldTower.rationals()
    elif base_text.startswith("F") and base_text[1:].isdigit():
        p = _parse_int(base_text[1:], base_line, "the characteristic of the base field")
        try:
            tower = FieldTower.prime_field(p)
        except StructuralError as exc:
            raise ScenarioParseError(str(exc), base_line) from None
    else:
        raise ScenarioParseError(f"unknown base field {base_text!r}", base_line)

    proven: set = set()
    gens_text, gens_line = get("base", "gens")
    if gens_text:
        tower = _parse_steps(tower, gens_text, gens_line, proven)

    k_text, k_line = get("base", "k-prefix")
    k_len = tower.level if k_text is None else _parse_int(k_text, k_line, "k-prefix")
    if not 0 <= k_len <= tower.level:
        raise ScenarioParseError(f"k-prefix {k_len} out of range", k_line)

    kprime = tower.prefix(k_len)
    kp_text, kp_line = get("extension", "kprime-gens")
    if kp_text:
        kprime = _parse_steps(kprime, kp_text, kp_line, proven)

    variables = None
    vars_text, vars_line = get("valuation", "vars")
    if "valuation" in headers and vars_text is None:
        raise ScenarioParseError("the [valuation] section needs a vars key", headers["valuation"])
    if vars_text is not None:
        variables = tuple(v.strip() for v in vars_text.split(",") if v.strip())
        if not variables:
            raise ScenarioParseError("empty variable list", vars_line)
        # refused here rather than by the build: a malformed name, a name of
        # a generator of F or k' (W's residue field holds both), a repeated
        # name and a rank beyond the value groups'
        taken = set(tower.gen_names) | set(kprime.gen_names)
        for v in variables:
            if not _is_name(v):
                raise ScenarioParseError(f"bad variable name {v!r}", vars_line)
            if v in taken:
                raise ScenarioParseError(f"variable name {v!r} is a generator name", vars_line)
        if len(set(variables)) != len(variables):
            raise ScenarioParseError("variable names must be distinct", vars_line)
        if len(variables) > config.MAX_RANK:
            raise ScenarioParseError(
                f"rank must be in 1..{config.MAX_RANK}, got {len(variables)}", vars_line
            )
        order_text, order_line = get("valuation", "order")
        if order_text is None:
            raise ScenarioParseError("missing order key in [valuation]", vars_line)
        if order_text != "lex":
            raise ScenarioParseError(f"unsupported order {order_text!r}", order_line)

    trunc_text, trunc_line = get("options", "truncation-N")
    truncation = None if trunc_text is None else _parse_int(trunc_text, trunc_line, "truncation-N")
    if truncation is not None and truncation < 0:
        raise ScenarioParseError(f"truncation-N must be nonnegative, got {truncation}", trunc_line)
    pi_text, pi_line = get("options", "point-index")
    point_index = 0 if pi_text is None else _parse_int(pi_text, pi_line, "point-index")
    seed_text, seed_line = get("options", "seed")
    seed = 0 if seed_text is None else _parse_int(seed_text, seed_line, "seed")

    return ScenarioFile(
        f_tower=tower,
        k_len=k_len,
        kprime=kprime,
        variables=variables,
        truncation=truncation,
        point_index=point_index,
        seed=seed,
    )


def _parse_int(text: str, line: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        # the first 20 characters, as the polynomial tokenizer quotes
        raise ScenarioParseError(f"{what} must be an integer, got {text[:20]!r}", line) from None


# ---------------------------------------------------------------------------
# Commands


# the exit code and the stderr label of each error a command reports
_EXIT_CODES = {
    ScenarioParseError: (1, "parse error"),
    CapabilityError: (2, "capability error"),
    PreconditionError: (3, "precondition error"),
    SelfCheckError: (5, "internal check failed"),
}


def _run(report, out, err) -> int:
    """Print the text ``report()`` returns, or the error it raises with the
    exit code of that error."""
    try:
        text = report()
    except tuple(_EXIT_CODES) as exc:
        code, label = _EXIT_CODES[type(exc)]
        print(f"{label}: {exc}", file=err or sys.stderr)
        return code
    print(text, end="", file=out or sys.stdout)
    return 0


def cmd_decompose(path: str, out=None, err=None) -> int:
    def report() -> str:
        scenario = parse_scenario(_read(path))
        points = tensor_decompose(scenario.kprime, scenario.f_tower, scenario.k_len)
        lines = [f"{len(points)} point(s)"]
        for pt in points:
            lines += pt.describe_lines()
        return "\n".join(lines) + "\n"

    return _run(report, out, err)


def cmd_extend(
    path: str,
    verify: bool = False,
    point: int | None = None,
    truncate: int | None = None,
    out=None,
    err=None,
) -> int:
    failed: list[str] = []  # the report sections whose verification failed

    def report() -> str:
        scn = parse_scenario(_read(path)).to_extension_scenario()
        if point is not None:
            scn.point_index = point
        if truncate is not None:
            if truncate < 0:
                raise ScenarioParseError(f"--truncate must be nonnegative, got {truncate}")
            scn.truncation = truncate
        if scn.truncation is not None:
            built = build_general(scn)
        else:
            built = build_strictly_maximal(scn)
        weak = spectrum = None
        if verify:
            weak = verify_weakly_unramified(built)
            if built.path == "strictly-maximal":
                spectrum = spectrum_correspondence(built)
            failed.extend(
                section
                for section, check in (("SPEC", spectrum), ("FLAGS", weak))
                if check is not None and not check.passed
            )
        return render_report(built, weak, spectrum)

    code = _run(report, out, err)
    if code == 0 and failed:
        print(f"verification failed: {', '.join(failed)}", file=err or sys.stderr)
        return 6
    return code


def cmd_selftest(out=None, err=None) -> int:
    """Run ``decompose`` and ``extend --verify`` on the embedded golden
    scenarios and compare the SHA-256 digest of each report with
    ``GOLDEN_DIGESTS``: one ``ok`` or ``FAIL`` line per report, then the
    counts.  Any failed report gives exit code 4."""
    import hashlib  # here: it loads OpenSSL, which no other command needs

    out = out or sys.stdout
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for report, digest in GOLDEN_DIGESTS.items():
            name, command, _ = report.split(".")
            path = os.path.join(tmp, f"{name}.val")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(GOLDEN_SCENARIOS[name])
            text, msg = io.StringIO(), io.StringIO()
            if command == "decompose":
                code = cmd_decompose(path, out=text, err=msg)
            else:
                code = cmd_extend(path, verify=True, out=text, err=msg)
            if code == 0 and hashlib.sha256(text.getvalue().encode()).hexdigest() == digest:
                print(f"ok   {report}", file=out)
                continue
            failed += 1
            why = f"exit {code} ({msg.getvalue().strip()})" if code else "report differs"
            print(f"FAIL {report}: {why}", file=out)
    print(f"{len(GOLDEN_DIGESTS) - failed} passed, {failed} failed", file=out)
    if failed:
        print(f"selftest failed: {failed} report(s)", file=err or sys.stderr)
        return 4
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops a failed write of its help text; a closed stdout
        # must raise BrokenPipeError here as it does everywhere else
        file = file or sys.stdout
        if file is not None:
            file.write(self.format_help())


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="valext", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dec = sub.add_parser("decompose", help="decompose a tensor product of fields")
    p_dec.add_argument("file")
    p_ext = sub.add_parser("extend", help="build the valuation ring extension")
    p_ext.add_argument("file")
    p_ext.add_argument("--verify", action="store_true")
    p_ext.add_argument("--point", type=int, default=None)
    p_ext.add_argument("--truncate", type=int, default=None)
    sub.add_parser("selftest", help="check the reports against the embedded golden digests")
    try:
        try:
            # --help prints and raises SystemExit here, so its flush too
            # belongs under this guard
            args = parser.parse_args(argv)
            if args.command == "decompose":
                code = cmd_decompose(args.file)
            elif args.command == "extend":
                code = cmd_extend(args.file, args.verify, args.point, args.truncate)
            else:
                code = cmd_selftest()
        finally:
            if sys.stdout is not None:  # None when fd 1 was closed at start-up
                sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: point stdout at devnull so that the interpreter's
        # final flush stays silent, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
