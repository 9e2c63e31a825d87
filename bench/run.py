"""valext benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload extend_verify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: the timed worker process runs
whole rounds of the workload's inputs, and further workers are started only
to time set-up again.  ``--trace 1`` runs one untraced round and two traced
rounds in separate workers and reports the per-layer metrics of the first
traced one; the two traced rounds must give equal call counts.  In both
modes every output is checked after the workers have ended (sympy is never
imported into a timed process) and each wrong output is a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the raw
(unscaled) figures, the tail percentile with its sample count, and in traced
runs the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A run makes max(MIN_ROUNDS, round(seconds / ROUND_SECONDS)) rounds: a
# number that does not depend on the speed of the host, so neither do the
# sample count and the tail percentile.  At --seconds 30 that is 2, 3 and 6
# rounds, about 29, 20 and 17 s of busy time on the reference host.
ROUND_SECONDS = {"extend_verify": 15.0, "extend_build": 10.0, "factor_mix": 5.0}
MIN_ROUNDS = 2

# Set-up is timed in this many worker processes per run (the timed one among
# them); the median counts.
SETUP_RUNS = 9

WORKER_TIMEOUT_S = 150

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def spawn(workload: str, seed: int, rounds: int = 1, *flags: str) -> tuple[dict, float]:
    """Run one worker; returns its result and its set-up time in seconds
    scaled by the kernel timed just before the start and just after set-up."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--rounds", str(rounds), *flags]
    # bytecode is cached in the benchmark's own directory, whatever the
    # environment says, so that every worker after the first in a checkout
    # imports valext the way an installed copy does
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    k_before = measure.kernel_sample()
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = res["t_setup_end"] - t_spawn
    res["setup_raw_s"] = raw
    return res, raw * measure.scale_factor(k_before, res["kernel_after_setup"])


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Scaled metrics and their raw counterparts from one timed worker."""
    n_inputs = res["inputs"]
    scaled = [raw * s for _, _, raw, s in res["ops"]]
    raw = [raw for _, _, raw, _ in res["ops"]]

    def figures(times: list[float], setup: float) -> dict:
        per_input = [[] for _ in range(n_inputs)]
        for (i, _, _, _), t in zip(res["ops"], times):
            per_input[i].append(t)
        p = measure.tail_percentile(len(times))
        return {
            "ops_per_s": n_inputs / sum(statistics.median(ts) for ts in per_input),
            "latency_p50_ms": statistics.median(times) * 1000,
            "latency_tail_ms": measure.percentile(times, p) * 1000,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup,
        }

    return (
        figures(scaled, statistics.median(s for _, s in setups)),
        figures(raw, statistics.median(r for r, _ in setups)),
    )


def check_outputs(checks, workload: str, inputs: list[dict], res: dict) -> tuple[int, list[str]]:
    """Failed operations of one worker, and one reason per failing input.
    An input fails in every round when its output is wrong, or when two
    rounds gave different outputs."""
    failed = 0
    reasons = []
    for i, inp in enumerate(inputs):
        reason = _check_one(checks, workload, inp, res["outputs"][i])
        digests = res["digests"][i]
        if reason is None and len(set(digests)) > 1:
            reason = "two calls on the same input gave different outputs"
        if reason is not None:
            failed += len(digests)
            reasons.append(f"{inp['name']}: {reason}")
    return failed, reasons


def _check_one(checks, workload: str, inp: dict, text: str) -> str | None:
    if text.startswith("raised "):
        return text
    if workload == "factor_mix":
        return checks.check_factor(inp, json.loads(text))
    return checks.check_extend(inp, text, verify=workload == "extend_verify")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "valext", "__init__.py")):
        print(f"no valext sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    inputs = workloads.WORKLOADS[a.workload](a.seed)
    info: dict = {"workload": a.workload, "seed": a.seed, "inputs": len(inputs)}

    if a.trace == 0:
        rounds = rounds_for(a.workload, a.seconds)

        def setup_only() -> tuple[float, float]:
            extra, setup = spawn(a.workload, a.seed, 1, "--setup-only")
            return extra["setup_raw_s"], setup

        # set-up workers before and after the timed one, so the median of the
        # set-up times spans the whole run rather than one moment of it
        setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
        res, setup = spawn(a.workload, a.seed, rounds)
        setups.append((res["setup_raw_s"], setup))
        setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))]
        metrics, raw = end_to_end(res, setups)
        n = len(res["ops"])
        info.update(
            rounds=rounds,
            samples=n,
            tail_percentile=measure.tail_percentile(n),
            busy_s=sum(r * s for _, _, r, s in res["ops"]),
            busy_raw_s=sum(r for _, _, r, _ in res["ops"]),
            kernel_median_ms=statistics.median(res["kernel"]) * 1000,
            raw={k: v for k, v in raw.items() if k != "peak_rss_mb"},
        )
        results = []
        units = UNITS
        extra_failures: list[str] = []
    else:
        base, _ = spawn(a.workload, a.seed, 1)
        traced = []
        for tag in ("a", "b"):
            path = os.path.join(OUT, f"trace-{a.workload}-{a.seed}-{tag}.json")
            res, _ = spawn(a.workload, a.seed, 1, "--trace", path)
            traced.append(res)
        metrics = traced[0]["layers"]
        units = {name: "ms" if name.endswith("_ms") else "count" for name in metrics}
        extra_failures = []
        counts = [{k: v for k, v in t["layers"].items() if k.endswith(".calls")} for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            extra_failures.append(f"call counts differ between two traced runs: {diff}")
        unreached = [f for f in tracing.REQUIRED[a.workload] if metrics[f"{f}.calls"] == 0]
        if unreached:
            extra_failures.append(f"wrapped functions never called: {unreached}")
        untraced_s = sum(r for _, _, r, _ in base["ops"])
        traced_s = sum(r for _, _, r, _ in traced[0]["ops"])
        info.update(
            untraced_wall_s=untraced_s,
            traced_wall_s=traced_s,
            tracing_overhead_s=traced_s - untraced_s,
            tracing_overhead_pct=100 * (traced_s - untraced_s) / untraced_s,
            traced_peak_rss_mb=traced[0]["peak_rss_mb"],
        )
        res = traced[0]
        results = [base, traced[1]]

    import checks  # imports sympy: only now, after every worker has ended
    import valext  # from this checkout's src, for the value check

    failed, reasons = check_outputs(checks, a.workload, inputs, res)
    if any(other["digests"] != res["digests"] for other in results):
        extra_failures.append("outputs differ between worker processes")
    if a.workload == "extend_verify":
        extra_failures += checks.check_values(valext, a.seed)
    for line in reasons + extra_failures:
        print(f"WRONG: {line}")
    info["checks_failed"] = len(extra_failures)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not extra_failures,
                "attempted": len(res["ops"]),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
