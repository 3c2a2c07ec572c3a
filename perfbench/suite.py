"""Run every workload over several seeds and check that the benchmark is
steady; also the way to record a baseline.

    python3 perfbench/suite.py --out FILE [--seeds 10] [--first-seed 0]
    python3 perfbench/suite.py --summarize FILE

Run from the root of a corrosim checkout.  Every run measures for the
run_seconds of BENCHMARK.json.  Seeds are the outer loop, so the workloads
interleave in time.  After the untraced runs, one traced run
per workload (first seed) gives the per-layer metrics.  All run records go
to FILE (JSON lines, as run.py writes them).  The summary prints, per
workload and end-to-end metric, the median and quartiles over seeds and
the spread (q3 - q1) / median against a third of the metric's bound from
BENCHMARK.json, plus the pooled wall-time tail and the failure share.
Exit code 1 when a run failed or a spread (setup_s excepted) reaches a
third of its bound.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from collections import defaultdict

import summary

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(root: str, workload: str, seed: int, seconds: float, trace: int,
            out: str) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--results", out]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"{workload:<20} seed={seed:<4} trace={trace} exit={proc.returncode} {last[:160]}",
          flush=True)
    if proc.returncode != 0:
        print(proc.stderr.strip()[-800:], file=sys.stderr)


def summarize(records: list[dict], bench: dict) -> bool:
    """Print the steadiness table; True when every check passes."""
    steady = True
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    print(f"{'workload':<20} {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound/3':>8}  n  verdict")
    for workload, runs in by_workload.items():
        plain = [r for r in runs if r["trace"] == 0]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in plain]
            if not values:
                continue
            q1, med, q3 = summary.quartiles(values)
            share = summary.spread(values)
            limit = metric["bound"] / 3.0
            ok = share < limit or metric["name"] == "setup_s"
            steady &= ok
            verdict = "steady" if share < limit else (
                "exempt" if metric["name"] == "setup_s" else "NOT STEADY")
            print(f"{workload:<20} {metric['name']:<14} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{share:8.4f} {limit:8.4f} {len(values):2d}  {verdict}")
        walls = [v for r in plain for v in r["samples"]["wall_s"]]
        tail = summary.tail(walls) if walls else None
        tail_text = (f"p{tail['percentile']:g}={tail['value']:.5g} s" if tail
                     else "no percentile with 10 samples beyond")
        print(f"{workload:<20} wall_s pooled over {len(walls)} samples: "
              f"median={summary.quartiles(walls)[1] if walls else float('nan'):.5g} s, "
              f"{tail_text}; failed_frac={failed}/{attempted}")
        for r in runs:
            if r["trace"] == 1:
                m = r["metrics"]
                print(f"{workload:<20} traced seed={r['seed']}: overhead "
                      f"{m['trace.overhead_s']:.4g} s ({100 * m['trace.overhead_frac']:.1f}%), "
                      f"rhs {m['model.rhs_us']:.1f} us x {m['model.rhs_calls']}")
        steady &= failed == 0
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--summarize", metavar="FILE")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    bench = summary.load_benchmark()
    if args.summarize:
        return 0 if summarize(summary.load_results(args.summarize), bench) else 1
    if not args.out:
        parser.error("--out or --summarize is required")
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        for workload in names:
            run_one(root, workload, seed, seconds, 0, args.out)
    for workload in names:
        run_one(root, workload, seeds[0], seconds, 1, args.out)
    return 0 if summarize(summary.load_results(args.out), bench) else 1


if __name__ == "__main__":
    sys.exit(main())
