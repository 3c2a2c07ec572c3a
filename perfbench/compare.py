"""Compare two results files metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Run from the root of a checkout that holds BENCHMARK.json.  Both files are
JSON lines as run.py and suite.py write them.  End-to-end metrics come from
the untraced runs, per-layer metrics from the traced ones.  One row per
workload and metric: each side's median and quartiles, the relative change
of the median (positive = worse), and a verdict:

* worse       the median got worse by more than the metric's bound
* improved    the median got better by more than the base's own spread
* unchanged   neither
* unresolved  a side's spread is wider than the bound and the runs overlap,
              or a timing has fewer than 3 runs on a side

Per-layer metrics have no bound; the base's spread stands in for it, and
counts are compared exactly.  "improved" is a screen, not a claim: a gain
needs the paired, alternating runs the README describes.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import summary

VERDICTS = ("improved", "unchanged", "worse", "unresolved")


def values_by_key(records: list[dict]) -> dict[tuple[str, str, int], list[float]]:
    table = defaultdict(list)
    for r in records:
        for name, value in r["metrics"].items():
            table[(r["workload"], name, r["trace"])].append(value)
    return table


def verdict(base: list[float], new: list[float], better: str, bound: float | None,
            exact: bool) -> tuple[str, float]:
    """Verdict and relative change of the median (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = summary.quartiles(base)[1]
    med_b = summary.quartiles(new)[1]
    change = sign * (med_b - med_a) / abs(med_a) if med_a else (
        0.0 if med_b == med_a else sign * float("inf"))
    if exact:
        if change == 0.0:
            return "unchanged", change
        return ("worse" if change > 0 else "improved"), change
    if len(base) < 3 or len(new) < 3:
        return ("unchanged" if base == new else "unresolved"), change
    spread_a = summary.spread(base)
    limit = bound if bound is not None else spread_a
    if max(spread_a, summary.spread(new)) > limit:
        if all(sign * (b - a) < 0 for a in base for b in new):
            return "improved", change
        if all(sign * (b - a) > 0 for a in base for b in new):
            return "worse", change
        return "unresolved", change
    if change > limit:
        return "worse", change
    if -change > spread_a:
        return "improved", change
    return "unchanged", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)

    bench = summary.load_benchmark()
    base = values_by_key(summary.load_results(args.base))
    new = values_by_key(summary.load_results(args.new))
    metrics = [(m, 0) for m in bench["end_to_end"]] + [(m, 1) for m in bench["per_layer"]]
    workloads = sorted({key[0] for key in base} | {key[0] for key in new})

    print(f"{'workload':<20} {'metric':<36} {'base q1/median/q3':>32}  "
          f"{'new q1/median/q3':>32} {'change':>8}  verdict")
    counts = dict.fromkeys(VERDICTS, 0)
    for workload in workloads:
        for metric, trace in metrics:
            key = (workload, metric["name"], trace)
            a, b = base.get(key), new.get(key)
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], metric.get("bound"),
                                     metric["unit"] in ("count", "bytes"))
            counts[result] += 1
            fa = "/".join(f"{v:.4g}" for v in summary.quartiles(a))
            fb = "/".join(f"{v:.4g}" for v in summary.quartiles(b))
            print(f"{workload:<20} {metric['name']:<36} {fa:>32}  {fb:>32} "
                  f"{100 * change:7.1f}%  {result}")
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
