"""Benchmark of the knormal package: four closed-loop workloads, one client.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from the
checkout's src/ directory and nowhere else.  A run sets up, then runs
whole rounds of operations one after another until --seconds have passed
and the workload's minimum number of rounds is done, then checks every
output.  Set-up is also timed in five fresh processes, three before the
measurement and two after it.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of tracing.py with --trace 1.  perfbench/README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
OUT_DIR = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Op:
    inp: object
    out: object
    seconds: float
    error: str | None
    round: int = 0


def load_workloads():
    """The workload table, after making sure knormal comes from this checkout."""
    import workloads
    import knormal

    if Path(knormal.__file__).resolve().parent != ROOT / "src" / "knormal":
        raise SystemExit(f"knormal imported from {knormal.__file__}, not from {ROOT / 'src'}")
    return workloads.WORKLOADS


def measure(workload, seed: int, seconds: float, rounds: int | None = None) -> list[Op]:
    """Whole rounds until `seconds` have passed and min_rounds are done, or
    exactly `rounds` rounds.  Equal outputs are kept as one object."""
    ops: list[Op] = []
    memo: dict = {}
    start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None:
            if r == rounds:
                break
        elif r >= workload.min_rounds and time.perf_counter() - start >= seconds:
            break
        for inp in workload.round(seed, r):
            t0 = time.perf_counter()
            try:
                out, error = workload.run(inp), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            ops.append(Op(inp, memo.setdefault(out, out), dt, error, r))
        r += 1
    return ops


def judge(workload, ops: list[Op]) -> tuple[list[Op], int, bool]:
    """(operations with correct output, failures, correct).

    correct is false when an operation fails that is not one of the
    workload's known faults."""
    verdicts: dict = {}
    good: list[Op] = []
    failed = 0
    unexpected = 0
    for op in ops:
        ok = False
        if op.error is None:
            key = (op.inp, op.out)
            if key not in verdicts:
                verdicts[key] = workload.check(op.inp, op.out)
            ok = verdicts[key]
        if ok:
            good.append(op)
            continue
        failed += 1
        if op.inp not in workload.known_faults:
            unexpected += 1
            print(f"FAILED {workload.name} {op.inp!r}: {op.error or 'output rejected'}", file=sys.stderr)
    return good, failed, unexpected == 0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def round_throughput(ops: list[Op], good: list[Op]) -> float:
    """Median over rounds of the round's correct operations per second of
    its time in the package.  Every round is the same mix, so each is one
    sample of the throughput; the median leaves out rounds that a pause of
    the machine or a run of unlucky retries slowed."""
    busy: dict[int, float] = {}
    done: dict[int, int] = {}
    for op in ops:
        busy[op.round] = busy.get(op.round, 0.0) + op.seconds
    for op in good:
        done[op.round] = done.get(op.round, 0) + 1
    return statistics.median(done.get(r, 0) / s for r, s in busy.items())


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of `count` fresh processes: import plus workload setup."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(workload, seed: int, seconds: float) -> dict:
    # Set-up samples before and after the measurement, so that their
    # median does not rest on the speed of the machine at a single moment.
    early = setup_samples(workload.name, seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    workload.setup(seed)
    ops = measure(workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(early + setup_samples(workload.name, seed, SETUP_SAMPLES // 2))
    good, failed, correct = judge(workload, ops)
    latencies = [op.seconds for op in good]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (round_throughput(ops, good), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3 if good else 0.0, "ms"),
        "op_tail_ms": (percentile(latencies, workload.tail_pct) * 1e3 if good else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    busy = sum(op.seconds for op in ops)
    rounds = ops[-1].round + 1
    print(f"{workload.name}: {len(ops)} ops in {rounds} rounds, {failed} failed, tail = p{workload.tail_pct}, busy {busy:.2f} s")
    return {"correct": correct and bool(good), "attempted": len(ops), "failed": failed, "metrics": metrics}


def traced(workload, seed: int) -> dict:
    """Per-layer metrics from three passes over the same rounds: untraced,
    with spans, and with counters."""
    import tracing

    workload.setup(seed)
    tracer = tracing.Tracer()
    passes = []
    for install in (None, tracer.install_spans, tracer.install_counters):
        if install is not None:
            install()
        try:
            passes.append(measure(workload, seed, 0, rounds=workload.trace_rounds))
        finally:
            tracer.uninstall()
    plain_s, spanned_s = (sum(op.seconds for op in ops) for ops in passes[:2])
    overhead_pct = 100 * (spanned_s / plain_s - 1)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.npz"
    tracer.write(path)
    print(tracer.table())
    print(f"untraced {plain_s:.3f} s, with spans {spanned_s:.3f} s, overhead {overhead_pct:.1f} %; spans in {path}")
    ops = [op for ops in passes for op in ops]
    _, failed, correct = judge(workload, ops)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used by the run itself)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    table = load_workloads()
    if args.workload not in table:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    workload = table[args.workload]()
    if args.setup_only:
        workload.setup(args.seed)
        print(time.perf_counter() - t0)
        return 0
    result = traced(workload, args.seed) if args.trace else end_to_end(workload, args.seed, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
