#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload drill --seeds 1-5 --seconds 20
    python3 perfbench/spread.py --workload all --seeds 1-10 --seconds 20

Runs perfbench/run.py once per seed (and workload) and prints, per metric,
the median, the quartiles (statistics.quantiles, n=4), the quartile spread
(q3-q1)/median and the full range (max-min)/median. For end-to-end metrics
the spread is set against the bound in BENCHMARK.json: a metric is steady
enough to gate when its quartile spread stays below a third of its bound.
--trace 1 reports the per-layer metrics instead (they have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    return json.loads(lines[-1])


def report(workload, results, bounds, verbose):
    print(f"\n== {workload}: {len(results)} runs")
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    names = list(results[0]["metrics"])
    worst = True
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if iqr < bound / 3 else "NOISY"
            worst = worst and flag == "ok"
        print(f"{name:<36} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.2%} "
              f"{rng:8.2%} {'' if bound is None else bound:>6} {flag}")
        if verbose:
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    failed = sum(r["failed"] for r in results)
    print(f"correct={all(r['correct'] for r in results)} failed={failed}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = ([w["name"] for w in config["workloads"]]
                 if args.workload == "all" else [args.workload])
    steady = True
    for workload in workloads:
        results = [run_once(workload, seed, seconds, args.trace)
                   for seed in parse_seeds(args.seeds)]
        steady = report(workload, results, {} if args.trace else bounds,
                        args.runs) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
