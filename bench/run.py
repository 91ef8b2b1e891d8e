"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cli-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and the same metrics as a table.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced window and writes its spans to ``.bench_out/``.  The exit status is 0
only when every op passed the correctness gate.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
MIN_P90_OPS = 100

UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def p90(values: list[float]) -> float:
    """90th percentile; refused below 100 samples (fewer than ten beyond it)."""
    if len(values) < MIN_P90_OPS:
        raise ValueError(f"latency_p90_ms needs at least {MIN_P90_OPS} ops, got {len(values)}")
    return statistics.quantiles(values, n=10)[8]


def import_beliefkit():
    """Import beliefkit and beliefkit.cli afresh, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "beliefkit" or m.startswith("beliefkit.")]:
        del sys.modules[name]
    bk = importlib.import_module("beliefkit")
    importlib.import_module("beliefkit.cli")
    return bk


def set_up(plan):
    """Import and build the inputs SETUP_REPEATS times; keep the last copy.

    Each set-up starts from a collected heap, so the copies before it are
    freed and the collections it triggers do the same work every time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = perf_counter()
        bk = import_beliefkit()
        cycle = plan.build(bk)
        times.append(perf_counter() - started)
    return bk, cycle, statistics.median(times)


class Failures:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, op: str, detail: str) -> None:
        self.items.append(f"{op}: {detail}")
        print(f"FAILED {op}: {detail}", file=sys.stderr)


def run_op(op, failures: Failures, call=None):
    """Time one call of `op` (or of `call` standing in for it).

    Returns the canonical output, or None when the call raised, and the
    call's duration.  An unexpected exception counts as a failure.
    """
    started = perf_counter()
    try:
        raw = (call or op.call)()
    except Exception:  # the loop must go on and report every failing op
        failures.add(op.name, traceback.format_exc().strip().splitlines()[-1])
        return None, perf_counter() - started
    took = perf_counter() - started
    return op.canon(raw), took


def gate(cycle, failures: Failures) -> dict[str, object]:
    """Run each distinct op once against its oracle; return the outputs."""
    first: dict[str, object] = {}
    for op in cycle:
        if op.name in first:
            continue
        out, _ = run_op(op, failures)
        first[op.name] = out
        problem = out is not None and op.check(out)
        if problem:
            failures.add(op.name, problem)
    return first


def window(cycle, first, seconds: float, min_ops: int, failures: Failures, tracer=None):
    """Closed loop, one client: whole cycles until `seconds` of op time and
    `min_ops` ops; every output must equal the gate's byte for byte.

    Returns the latencies as measured and each op's best (fastest) time.
    Both take a few bytes per op, so the benchmark's own memory hardly
    grows with the number of ops a run gets through.
    """
    measured = array("d")
    best: dict[str, float] = {}
    spent = 0.0
    while spent < seconds or len(measured) < min_ops:
        for op in cycle:
            call = None
            if tracer is not None:
                tracer.op = len(measured)
                call = tracer.wrap(spans.OP, op.call)
            out, took = run_op(op, failures, call)
            measured.append(took)
            best[op.name] = min(took, best.get(op.name, took))
            spent += took
            if out is not None and out != first[op.name]:
                failures.add(op.name, "output differs from its first run")
    return measured, best


def best_times(cycle, best: dict[str, float], ops: int) -> list[float]:
    """The latencies of `ops` timed ops (whole cycles), each op at its best.

    The host's speed swings by up to 1.5x for seconds to minutes at a time,
    alike for every op; an op's fastest repeat, its repeats being spread
    over the whole window, is what the program costs when the host is
    fast.  The result keeps the cycle's mix of ops, so its quantiles and
    sum are those of the mix at each op's best time.
    """
    return [best[op.name] for op in cycle] * (ops // len(cycle))


def environment() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            models = [ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")]
    except OSError:
        models = []
    cpu = models[0] if models else platform.machine()
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "beliefkit" / "__init__.py").is_file():
        print(f"error: no beliefkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    print(f"environment: {environment()}")
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, work, src / "beliefkit" / "data")
        # Keep the benchmark's own data (inputs, expected outputs) out of the
        # collections that set-ups and ops trigger, so they cost what they
        # would in the program alone.
        gc.collect()
        gc.freeze()
        bk, cycle, setup_s = set_up(plan)
        failures = Failures()
        first = gate(cycle, failures)
        attempted = len(first)
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, timed = traced_metrics(args, bk, cycle, first, failures)
        else:
            measured, best = window(cycle, first, args.seconds, MIN_P90_OPS, failures)
            metrics, timed = end_to_end_metrics(cycle, measured, best, setup_s), len(measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += timed
    failed = len(failures.items)
    print(f"workload {args.workload}, seed {args.seed}: {len(cycle)} ops per cycle, "
          f"{attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.6f}")
    for name, (value, note) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit_of(name):6s} {note}")
    values = {name: {"value": value, "unit": unit_of(name)} for name, (value, _) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    return UNITS.get(name) or spans.unit_of(name)


def rate(latencies: list[float]) -> float:
    """Ops per second of op time."""
    return len(latencies) / sum(latencies)


def end_to_end_metrics(cycle, measured, best: dict[str, float], setup_s: float):
    """name -> (value, note) of an untraced window, from each op's best time."""
    # Read before the quantiles below copy the latencies.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    at_best = best_times(cycle, best, len(measured))
    reps = f"n={len(measured)} ops of {len(best)} kinds, each at its best repeat"
    return {
        "setup_s": (setup_s, f"median of {SETUP_REPEATS} set-ups"),
        "ops_per_s": (rate(at_best), f"{reps}; as measured {rate(measured):.2f} ops/s"),
        "latency_p50_ms": (
            statistics.median(at_best) * 1000,
            f"{reps}; as measured {statistics.median(measured) * 1000:.3f} ms",
        ),
        "latency_p90_ms": (
            p90(at_best) * 1000, f"{reps}; as measured {p90(measured) * 1000:.3f} ms"
        ),
        "peak_rss_mb": (peak_rss_mb, "ru_maxrss"),
    }


def traced_metrics(args, bk, cycle, first, failures: Failures):
    """An untraced then a traced window of half the run each."""
    half = args.seconds / 2
    plain, plain_best = window(cycle, first, half, 0, failures)
    tracer = spans.Tracer()
    tracer.install(bk)
    try:
        traced, traced_best = window(cycle, first, half, 0, failures, tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as out:
        for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
            out.write(json.dumps([sid, name, start, end, parent, op]) + "\n")
    values = spans.layer_metrics(tracer.spans, tracer.counts)
    values["trace.overhead_ratio"] = rate(best_times(cycle, traced_best, len(traced))) / rate(
        best_times(cycle, plain_best, len(plain))
    )
    note = f"traced n={len(traced)}, untraced n={len(plain)}"
    return {name: (value, note) for name, value in values.items()}, len(plain) + len(traced)


if __name__ == "__main__":
    sys.exit(main())
