"""Benchmark of the hankelbound package: one workload, one seed, one result line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets up the workload (import, input generation, warm-up; done here and in
SETUP_CHILDREN fresh processes, the median is ``setup_s``), then runs whole
rounds of operations, one at a time in a closed loop, until ``--seconds``
(by default ``run_seconds`` of BENCHMARK.json) have passed.  Each operation is timed from outside the program and its
output checked against ``refs``.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the end-to-end metrics for ``--trace 0``.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
ones plus the tracing overhead against the untraced ones, and writes the
spans to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_CHILDREN = 4


def percentile(samples: list[float], p: float) -> float:
    """The p-th percentile of ``samples`` by nearest rank."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for descendant
    (the set-up processes)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_seconds() -> float:
    """The calibrated run length, ``run_seconds`` of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def child_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def measure(workload, seconds: float, tracer):
    """Run whole rounds until ``seconds`` have passed; return the tallies."""
    t = {"attempted": 0, "failed": 0, "units": 0, "latencies": [], "busy": 0.0,
         "traced_ops": 0, "traced_s": 0.0, "untraced_ops": 0, "untraced_s": 0.0, "errors": []}
    start = perf_counter()
    round_no = 0
    while perf_counter() - start < seconds:
        ops = workload.next_round()
        traced = tracer is not None and round_no % 2 == 1
        round_no += 1
        done = []
        if traced:
            tracer.install(workload.modules)
        try:
            for op in ops:
                if traced:
                    tracer.op += 1
                t0 = perf_counter()
                try:
                    out, exc = workload.run(op), None
                except Exception as e:  # an operation that raises counts as failed
                    out, exc = None, e
                done.append((op, out, exc, perf_counter() - t0))
        finally:
            if traced:
                tracer.uninstall()
        for op, out, exc, dt in done:
            t["attempted"] += 1
            t["busy"] += dt
            key = "traced" if traced else "untraced"
            t[key + "_ops"] += 1
            t[key + "_s"] += dt
            ok, units = (False, 0) if exc is not None else workload.check(op, out, t["errors"])
            if exc is not None and t["failed"] < 3:
                print("".join(traceback.format_exception(exc)), file=sys.stderr)
            if not ok:
                t["failed"] += 1
                continue
            t["units"] += units
            t["latencies"].append(dt)
    return t


def end_to_end(t: dict, setup_s: float, tail_p: float) -> dict:
    lat_ms = [x * 1e3 for x in t["latencies"]]
    print(f"{len(lat_ms)} successful operations; tail is p{tail_p:g}", file=sys.stderr)
    return {
        "throughput_per_s": {"value": t["units"] / t["busy"], "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_tail_ms": {"value": percentile(lat_ms, tail_p), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(t: dict, tracer, workload, args) -> dict:
    ops = max(t["traced_ops"], 1)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.layer_metrics(ops).items()}
    metrics["verify.tightness_max"] = {"value": workload.tightness_max, "unit": "ratio"}
    traced_mean = t["traced_s"] / ops
    untraced_mean = t["untraced_s"] / max(t["untraced_ops"], 1)
    metrics["trace.overhead_pct"] = {"value": (traced_mean / untraced_mean - 1.0) * 100.0, "unit": "%"}
    metrics["trace.spans_per_op"] = {"value": tracer.span_count / ops, "unit": "count/op"}
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                                "span_fields": ["id", "parent", "op", "name", "start", "end"],
                                **tracer.export()}))
    print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hankelbound" / "__init__.py").is_file():
        print(f"error: no hankelbound source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_only:
        print(repr(timed_setup(workload)))
        return 0
    setups = [timed_setup(workload)] + [child_setup(args) for _ in range(SETUP_CHILDREN)]
    tracer = spans.Tracer() if args.trace else None
    t = measure(workload, args.seconds, tracer)

    for line in t["errors"][:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    if t["failed"]:
        print(f"{t['failed']} of {t['attempted']} operations failed", file=sys.stderr)
    if not t["latencies"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    metrics = per_layer(t, tracer, workload, args) if args.trace else end_to_end(t, statistics.median(setups), workload.TAIL_PERCENTILE)
    result = {"correct": not t["errors"], "attempted": t["attempted"], "failed": t["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
