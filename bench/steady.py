"""Steadiness check: two sets of repeated runs per workload, held against the
bounds in BENCHMARK.json.

Usage (from the repository root):

    python3 bench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

For each workload, runs set A (seeds 1..runs), then set B (the same seeds),
with ``--trace 0``.  For every end-to-end metric it prints each set's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and whether the
sets agree: each spread within the metric's bound; B's median within the
bound of A's, better or worse; the same share of failed operations in
every run; every run correct.  ``steady`` marks a
spread below a third of the bound.  Writes bench/out/steady-<workloads>.json
and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    report, all_ok = {}, True
    for workload in args.workloads.split(","):
        sets = []
        for label in "AB":
            runs = []
            for seed in range(1, args.runs + 1):
                runs.append(run_once(workload, seed, args.seconds))
                print(f"{workload} set {label} seed {seed}: {json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        print(f"\n{workload}: failed share {sorted(map(str, shares))}, all correct {correct}")
        print(f"  {'metric':18s} {'median A':>11s} {'q1-q3 A':>23s} {'spr A':>6s} "
              f"{'median B':>11s} {'spr B':>6s} {'B worse':>7s} {'bound':>5s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = worse_by(a["median"], b["median"], metric["better"])
            ok = a["spread"] <= bound and b["spread"] <= bound and abs(worse) <= bound
            steady = max(a["spread"], b["spread"]) < bound / 3
            rows[name] = {"A": a, "B": b, "b_worse": worse, "bound": bound, "agree": ok, "steady": steady}
            verdict = ("agree" if ok else "DISAGREE") + ("" if steady else ", spread over bound/3")
            print(f"  {name:18s} {a['median']:11.5g} {a['q1']:11.5g}-{a['q3']:<11.5g} {a['spread']:6.1%} "
                  f"{b['median']:11.5g} {b['spread']:6.1%} {worse:7.1%} {bound:5.2f}  {verdict}")
            all_ok &= ok
        all_ok &= correct and len(shares) == 1
        report[workload] = {"metrics": rows, "failed_shares": sorted(map(str, shares)), "correct": correct}

    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{args.workloads.replace(',', '+')}.json"
    path.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds, "workloads": report}, indent=1))
    print(f"\n{'all agree' if all_ok else 'NOT steady'}; details in {path.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
