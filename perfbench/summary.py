"""Results files and order statistics shared by run.py, suite.py and
compare.py."""

from __future__ import annotations

import json
import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def load_benchmark() -> dict:
    """BENCHMARK.json of the checkout in the working directory."""
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def load_results(path: str) -> list[dict]:
    """The run records of a results file (JSON lines, as run.py writes them)."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_MIN_BEYOND samples above
    it (nearest-rank), with the sample count; None with too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n}
    return None
