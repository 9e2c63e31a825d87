"""The timed process: one thread, one closed-loop caller.

Started by ``run.py`` as a fresh interpreter.  It imports valext from the
checkout's ``src``, builds the workload's inputs from the seed, warms up with
one operation, then runs whole rounds (every input once per round) and times
each operation, sampling the reference kernel between operations.  It never
imports sympy: the correctness checks run in the parent after this process
has ended.  The result is one JSON object on stdout.

    python3 bench/worker.py --workload factor_mix --seed 1 --rounds 3 [--trace PATH]
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time

T_START = time.perf_counter()

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_valext():
    """Import valext from this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import valext
    from valext import cli, fields, poly

    here = os.path.dirname(os.path.abspath(valext.__file__))
    if here != os.path.join(src, "valext"):
        raise SystemExit(f"valext imported from {here}, not from {src}")
    return cli, fields, poly


def valext_caches() -> list:
    """Every functools cache held at module or class level in valext.  They
    are the only program state that outlives an operation."""
    caches = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("valext"):
            continue
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for v in members:
                if callable(getattr(v, "cache_clear", None)):
                    caches[id(v)] = v
    return list(caches.values())


def vm_hwm_mb() -> float:
    """Peak resident set of this process in MB (VmHWM, which exec resets,
    unlike ru_maxrss)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def prepare(workload: str, seed: int, cli, poly, fields):
    """Inputs as valext arguments, the operation that consumes one, how its
    result is rendered for the checks, and the warm-up operation (a build
    without verification for the extend workloads, so that set-up stays
    short)."""
    inputs = workloads.WORKLOADS[workload](seed)
    if workload == "factor_mix":
        towers = {
            "Q": fields.FieldTower.rationals(),
            "Q(i)": fields.FieldTower.rationals().extend_algebraic("i", [1, 0, 1]),
            "Q(s2)": fields.FieldTower.rationals().extend_algebraic("s2", [-2, 0, 1]),
            "F2(a)": fields.FieldTower.prime_field(2).extend_transcendental("a"),
        }
        args = []
        for inp in inputs:
            dom = inp["domain"]
            tower = towers.get(dom) or fields.FieldTower.prime_field(int(dom[1:]))
            args.append(poly.Polynomial.parse(inp["text"], tower, ("y",)))

        def render(fac) -> str:
            return json.dumps(
                {"unit": str(fac.unit), "factors": [[str(g), m] for g, m in fac.factors]}
            )

        def factor(f):
            # looked up at call time, so a traced run reaches the wrapper
            return poly.factor(f)

        return inputs, args, factor, render, factor

    verify = workload == "extend_verify"
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"inputs-{workload}-{seed}-", dir=OUT)
    atexit.register(shutil.rmtree, run_dir, True)
    args = []
    for inp in inputs:
        path = os.path.join(run_dir, f"{inp['name']}.val")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp["text"])
        args.append(path)

    def op(path):
        out, err = io.StringIO(), io.StringIO()
        rc = cli.cmd_extend(path, verify=verify, out=out, err=err)
        return rc, out.getvalue(), err.getvalue()

    def render(res) -> str:
        rc, out, err = res
        return f"exit {rc}\n{out}{err}"

    def build_only(path):
        return cli.cmd_extend(path, out=io.StringIO(), err=io.StringIO())

    return inputs, args, op, render, build_only


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", metavar="PATH", help="record spans and write them to PATH")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()

    cli, fields, poly = import_valext()
    inputs, args, op, render, warm_up = prepare(a.workload, a.seed, cli, poly, fields)
    caches = valext_caches()
    rec = None
    if a.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    for c in caches:
        c.cache_clear()
    warm_up(args[0])
    for c in caches:
        c.cache_clear()
    t_setup_end = time.perf_counter()
    result = {"t_start": T_START, "t_setup_end": t_setup_end, "inputs": len(args)}
    kernel = [(time.perf_counter(), measure.kernel_sample())]
    if a.setup_only:
        result.update(kernel_after_setup=kernel[0][1], peak_rss_mb=vm_hwm_mb())
        print(json.dumps(result))
        return 0

    ops = []  # (input, round, raw seconds, index of the kernel sample before)
    outputs: list[str] = []  # of the first round
    digests: list[list[str]] = [[] for _ in args]
    for r in range(a.rounds):
        for i, x in enumerate(args):
            if rec is not None:
                rec.current_op = len(ops)
                rec.active = True
            t0 = time.perf_counter()
            try:
                res, failure = op(x), None
            except Exception as exc:  # an operation that raises counts as failed
                res, failure = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if rec is not None:
                rec.active = False
            ops.append((i, r, t1 - t0, len(kernel) - 1))
            text = failure or render(res)
            if r == 0:
                outputs.append(text)
            digests[i].append(hashlib.sha256(text.encode()).hexdigest())
            for c in caches:
                c.cache_clear()
            if time.perf_counter() - kernel[-1][0] >= measure.KERNEL_INTERVAL_S:
                kernel.append((time.perf_counter(), measure.kernel_sample()))
    if ops[-1][3] == len(kernel) - 1:
        kernel.append((time.perf_counter(), measure.kernel_sample()))
    ks = [k for _, k in kernel]
    scales = [measure.scale_factor(ks[j], ks[j + 1]) for _, _, _, j in ops]
    result.update(
        kernel_after_setup=ks[0],
        kernel=ks,
        ops=[[i, r, raw, s] for (i, r, raw, _), s in zip(ops, scales)],
        outputs=outputs,
        digests=digests,
        peak_rss_mb=vm_hwm_mb(),
    )
    if rec is not None:
        result["layers"] = rec.summary(scales)
        rec.write(a.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
