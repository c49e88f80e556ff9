"""ghzpurify benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0

Every workload, untraced and then traced twice, with the cross-run checks
(traced outputs equal untraced ones, count metrics repeat exactly):

    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the repository root or anywhere else; the program is imported from
`src/` next to this directory. Workload processes run one at a time, each
single-threaded apart from BLAS, which is pinned to BLAS_THREADS before numpy
is imported. Human-readable lines go to stdout first; the last stdout line is
the JSON result. Exit codes: 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
BLAS_THREADS = "1"
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # every set-up compiles from source alike, and the checkout stays clean
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def op_tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]
    return None


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Set the workload up SETUPS times, measure once, and gather the result."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    records = [_spawn(base + ["--role", "setup"], deadline) for _ in range(SETUPS - 1)]
    rec = _spawn(base + ["--role", "measure"], deadline)
    records.append(rec)

    failures = list(rec["failures"])
    for k, r in enumerate(records):
        problems = list(r["warm_problems"])
        if r["warm_digest"] != records[0]["warm_digest"]:
            problems.append("warm-up output differs between processes")
        if problems:
            failures.append([f"warm-up {k}", problems])
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "setups_s": [r["setup_s"] for r in records],
        "failures": failures,
        "digests": rec["digests"],
        "environment": rec["environment"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "shots_per_op": rec["shots_per_op"],
        "working_set": rec["working_set"],
    }
    if trace:
        result["attempted"] = rec["attempted"] + SETUPS
        result["traced_ops"] = rec["traced_ops"]
        result["metrics"] = rec["layer_metrics"]
        return result
    durations = rec["durations_s"]
    result["attempted"] = len(durations) + SETUPS
    result["ops"] = len(durations)
    result["tail"] = op_tail(durations)
    # printed, not gated: see "Run-to-run noise" in NOTES.md
    result["op_p50_s"] = statistics.median(durations)
    result["metrics"] = {
        "setup_s": statistics.median(result["setups_s"]),
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, spec_metrics: list[dict]) -> list[str]:
    """Human-readable lines: every metric by name and unit, then the extras."""
    name = result["workload"]
    lines = [f"# {name} seed {result['seed']} trace {result['trace']}"]
    for m in spec_metrics:
        lines.append(f"{name} {m['name']} {_fmt(result['metrics'][m['name']])} {m['unit']}")
    failed = len(result["failures"])
    lines.append(
        f"{name} fail_ratio {_fmt(failed / result['attempted'])} ratio"
        f" ({failed}/{result['attempted']}, warm-ups included)"
    )
    if result["trace"]:
        lines.append(f"{name} traced_ops {result['traced_ops']} count")
    else:
        lines.append(f"{name} op_p50_s {_fmt(result['op_p50_s'])} s")
        tail = result["tail"]
        if tail is None:
            lines.append(f"{name} op_tail_s omitted ({result['ops']} ops; a tail needs"
                         f" {TAIL_BEYOND} ops beyond it)")
        else:
            lines.append(
                f"{name} op_tail_s {_fmt(tail[1])} s (p{tail[0]:g} of {result['ops']} ops)"
            )
        if result["shots_per_op"]:
            shots = result["shots_per_op"] * result["metrics"]["ops_per_s"]
            lines.append(f"{name} shots_per_s {_fmt(shots)} 1/s")
    lines.append(f"{name} setups_s {' '.join(_fmt(s) for s in result['setups_s'])}")
    env = result["environment"]
    array, state = result["working_set"]
    lines.append(
        f"{name} working_set largest array {array / 2**20:g} MiB, working state"
        f" {state / 2**20:g} MiB, against caches {env['caches']} (computed from widths)"
    )
    lines.append(
        f"{name} environment python {env['python']}, numpy {env['numpy']}, {env['blas']},"
        f" BLAS threads {BLAS_THREADS}, nproc {env['nproc']}, MemTotal {env['mem_total']}"
    )
    for idx, problems in result["failures"]:
        for problem in problems:
            lines.append(f"{name} FAILED op {idx}: {problem.strip()}")
    return lines


def driver_line(result: dict, spec_metrics: list[dict]) -> str:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(result["metrics"]):
        raise BenchError(
            f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(names)}"
        )
    failed = len(result["failures"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    })


def _spec_metrics(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def count_metrics(spec: dict) -> list[str]:
    """Per-layer metrics that count work rather than time it."""
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] not in ("ms", "ns") and m["name"] != "trace.overhead_ratio"]


def run_all(spec: dict, seed: int, seconds: int) -> int:
    """Every workload untraced, then traced twice; cross-run checks on top."""
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        plain = run_workload(name, seed, seconds, 0)
        traced = [run_workload(name, seed, seconds, 1) for _ in range(2)]
        for result in (plain, traced[0]):
            print("\n".join(report(result, _spec_metrics(spec, result["trace"]))))
            ok &= not result["failures"]
        ok &= not traced[1]["failures"]
        shared = min(len(plain["digests"]), len(traced[0]["digests"]))
        same_outputs = plain["digests"][:shared] == traced[0]["digests"][:shared]
        moved = [m for m in count_metrics(spec)
                 if traced[0]["metrics"][m] != traced[1]["metrics"][m]]
        print(f"{name} traced outputs equal untraced ones ({shared} ops): {same_outputs}")
        print(f"{name} count metrics repeat exactly: {not moved} {moved or ''}".rstrip())
        ok &= same_outputs and not moved
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", help="one of the workloads named in BENCHMARK.json")
    ap.add_argument("--all", action="store_true", help="run every workload with cross-run checks")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if not (ROOT / "src" / "ghzpurify" / "__init__.py").is_file():
            raise BenchError(f"no ghzpurify sources under {ROOT / 'src'}")
        spec = _spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.all:
            return run_all(spec, args.seed, seconds)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        metrics = _spec_metrics(spec, args.trace)
        result = run_workload(args.workload, args.seed, seconds, args.trace)
        line = driver_line(result, metrics)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(result, metrics)))
    print(line)
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
