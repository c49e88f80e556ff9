"""One benchmark process: set a workload up, then time or trace its ops.

run.py starts this script, once per set-up sample and once for the measured
run, and passes the monotonic clock reading taken just before the spawn, so
the set-up time covers interpreter start, `import ghzpurify`, input
generation and the untimed warm-up. The last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402


def _attempt(wl: Workload, inp: dict, call) -> tuple[int, Outcome]:
    """Run one op through `call`; an exception is a failed op, not a crash."""
    t0 = time.perf_counter_ns()
    try:
        out = call(wl.run, inp)
    except Exception:  # a failing op is counted, and the run goes on
        elapsed = time.perf_counter_ns() - t0
        return elapsed, Outcome("", [traceback.format_exc(limit=4)])
    elapsed = time.perf_counter_ns() - t0
    try:
        return elapsed, wl.inspect(inp, out)
    except Exception:
        return elapsed, Outcome("", [traceback.format_exc(limit=4)])


def _plain(fn, inp):
    return fn(inp)


def _whole_cycles(wl: Workload, done: int, start: float, seconds: int) -> bool:
    """True once the run has measured `seconds` and ended a cycle of op kinds."""
    return done > 0 and done % len(wl.kinds) == 0 and time.monotonic() - start >= seconds


def timed_run(wl: Workload, seed: int, seconds: int, warm: Outcome) -> dict:
    durations, digests, failures = [], [], []
    start = time.monotonic()
    i = 0
    while not _whole_cycles(wl, i, start, seconds):
        ns, outcome = _attempt(wl, wl.op_input(seed, i), _plain)
        problems = list(outcome.problems)
        if i == 0 and wl.warm_n is None and outcome.digest != warm.digest:
            problems.append("op 0 differs from the identical warm-up op")
        durations.append(ns / 1e9)
        digests.append(outcome.digest)
        if problems:
            failures.append([i, problems])
        i += 1
    return {"durations_s": durations, "digests": digests, "failures": failures}


def traced_run(wl: Workload, seed: int, seconds: int) -> dict:
    """Alternate an untraced and a traced pass over one cycle of ops.

    Both passes run the same inputs, so their outputs must be identical and
    every traced pass makes the same calls; the pass times give the tracing
    overhead.
    """
    tracer = Tracer()
    cycle = [wl.op_input(seed, i) for i in range(len(wl.kinds))]
    plain_ns = traced_ns = 0
    passes = 0
    failures = []
    digests: list[str] = []
    start = time.monotonic()
    while not _whole_cycles(wl, passes * len(cycle), start, seconds):
        plain = []
        for inp in cycle:
            ns, outcome = _attempt(wl, inp, _plain)
            plain_ns += ns
            plain.append(outcome)
        traced = []
        tracer.install()
        try:
            for i, inp in enumerate(cycle):
                op = passes * len(cycle) + i
                call = functools.partial(tracer.root, op, f"bench.{wl.name}")
                ns, outcome = _attempt(wl, inp, call)
                traced_ns += ns
                traced.append(outcome)
        finally:
            tracer.uninstall()
        for i, (a, b) in enumerate(zip(plain, traced)):
            problems = a.problems + b.problems
            if a.digest != b.digest:
                problems.append("traced output differs from untraced output")
            if problems:
                failures.append([passes * len(cycle) + i, problems])
        digests = [o.digest for o in traced]
        passes += 1
    tracer.write_jsonl(ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.jsonl")
    ops = passes * len(cycle)
    return {
        "attempted": 2 * ops,
        "failures": failures,
        "digests": digests,
        "traced_ops": ops,
        "layer_metrics": tracer.layer_metrics(ops, traced_ns / plain_ns - 1.0),
    }


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def environment() -> dict:
    """Machine and library facts, read from files only."""
    status = dict(
        line.split(":", 1) for line in _read("/proc/self/status").splitlines() if ":" in line
    )
    cpus = 0
    for part in status["Cpus_allowed_list"].strip().split(","):
        lo, _, hi = part.partition("-")
        cpus += int(hi or lo) - int(lo) + 1
    meminfo = dict(
        line.split(":", 1) for line in _read("/proc/meminfo").splitlines() if ":" in line
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        level = (index / "level").read_text().strip()
        caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": cpus,
        "mem_total": meminfo["MemTotal"].strip(),
        "caches": caches,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    warm_input = wl.warm_input(args.seed)
    _, warm = _attempt(wl, warm_input, _plain)
    record = {
        "setup_s": (time.monotonic_ns() - args.spawned_ns) / 1e9,
        "warm_digest": warm.digest,
        "warm_problems": warm.problems,
    }
    if args.role == "measure":
        if args.trace:
            record.update(traced_run(wl, args.seed, args.seconds))
        else:
            record.update(timed_run(wl, args.seed, args.seconds, warm))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["environment"] = environment()
        record["shots_per_op"] = wl.shots_per_op
        record["working_set"] = wl.working_set
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
