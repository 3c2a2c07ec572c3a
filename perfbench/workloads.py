"""Benchmark workloads: the inputs each one draws from its seed, the
corrosim command a child process runs, and the checks on the outputs the
command writes.

Nothing here imports corrosim at module level: the child process times
that import as part of set-up.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "fig1.json")

# fig1 reaction constants and the relative half-width of the box the seed
# draws them from.  Diffusivities and the grid stay fixed, so the fixed
# step (a diffusion limit) and the fixed-step count do not depend on the
# seed.  Stiff corners of the parameter space are out of scope.
FIG1_CENTRE = {"k": 0.1, "alpha": 0.3, "beta": 0.01, "bi_m": 0.15}
BOX_HALF_WIDTH = 0.10
# The seed selects one of this many fixed points in the box; each has a
# stored reference solution (reference/fig1.json).
FIG1_POINTS = 8

# Grid, horizon, snapshot schedule and pinned time-section keys per fig1
# workload.  fig1_run leaves the stepping mode at the scenario default on
# purpose, so that a change of default shows up here.
FIG1_SPECS = {
    "fig1_run": {"n": 32, "t_end": 80, "snapshot_every": 10, "time": {}},
    "fig1_fine_adaptive": {"n": 64, "t_end": 40, "snapshot_every": 5,
                           "time": {"mode": "adaptive"}},
}

MMS_LEVELS = 4

# Output checks.  POSITIVITY_SLACK and MONOTONE_SLACK match the acceptance
# suite; the gypsum-front bands match its front-formation criterion.
POSITIVITY_SLACK = 1e-8
MONOTONE_SLACK = 1e-9
SATURATED_BAND = 0.95
UNSATURATED_BAND = 0.5
ORDER_FLOOR = 1.9
# Largest relative discrete-L2 distance, per output field, from the stored
# reference.  The grid's O(h^2) error at these sizes (32^2 against 64^2,
# 64^2 against 128^2) is 2.6e-4 to 2.7e-3 in the same norm, and the fixed
# RK4 and adaptive 4(5) steppers agree to 1e-7, so an accurate stepper
# passes, while a 0.1% change of k (1.2e-4 to 1.6e-4 on u4) fails.
REFERENCE_RTOL = 1e-5

VERIFY_SUITES = (
    "green_macro", "green_micro", "trace_inequality",
    "extension_macro_values", "extension_macro_gradients",
    "extension_micro_values", "extension_micro_gradients",
    "dissipation", "conservation", "positivity", "monotone_gypsum",
    "boundedness",
)

WORKLOADS = ("fig1_run", "fig1_fine_adaptive", "verify", "mms")


def fig1_point(seed: int) -> dict[str, float]:
    """Reaction constants of the box point the seed selects."""
    rng = random.Random(seed % FIG1_POINTS)
    return {name: float(f"{centre * (1.0 + rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH)):.6g}")
            for name, centre in FIG1_CENTRE.items()}


def fig1_snapshots(workload: str) -> list[float]:
    spec = FIG1_SPECS[workload]
    return [float(t) for t in range(0, spec["t_end"] + 1, spec["snapshot_every"])]


def fig1_ini(workload: str, seed: int) -> str:
    spec = FIG1_SPECS[workload]
    time_keys = {"t_end": spec["t_end"],
                 "snapshots": " ".join(f"{t:g}" for t in fig1_snapshots(workload)),
                 **spec["time"]}
    lines = ["[run]", "scenario = fig1", f"seed = {seed}", "",
             "[grid]", f"nx = {spec['n']}", f"ny = {spec['n']}", "",
             "[params]"]
    lines += [f"{k} = {v!r}" for k, v in fig1_point(seed).items()]
    lines += ["", "[time]"] + [f"{k} = {v}" for k, v in time_keys.items()]
    return "\n".join(lines) + "\n"


def prepare(workload: str, seed: int, out: str) -> list[str]:
    """Write the workload's inputs into `out` and return the CLI argv."""
    if workload in FIG1_SPECS:
        path = os.path.join(out, "input.ini")
        with open(path, "w") as handle:
            handle.write(fig1_ini(workload, seed))
        return ["run", "--config", path, "--out", out]
    if workload == "verify":
        return ["verify", "--seed", str(seed), "--out", out]
    if workload == "mms":
        # the manufactured problem has no random input: the seed is ignored
        return ["mms", "--levels", str(MMS_LEVELS), "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages, empty when correct


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a corrosim CSV (the '# config' line skipped)."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _by_time(rows, columns: int) -> dict[float, list[list[float]]]:
    table: dict[float, list[list[float]]] = {}
    for row in rows:
        values = [float(v) for v in row[:columns]]
        table.setdefault(values[0], []).append(values[1:])
    return table


def fig1_outputs(out: str) -> dict[str, dict[float, list[list[float]]]]:
    """Snapshot time -> rows of (x, u1, u4) and of (y, u2, u3)."""
    _, macro = read_csv(os.path.join(out, "macro_profiles.csv"))
    _, micro = read_csv(os.path.join(out, "micro_slice_0.5.csv"))
    return {"macro": _by_time(macro, 4), "micro": _by_time(micro, 4)}


def final_fields(outputs) -> dict[str, list[float]]:
    """u1, u4 on the macro grid and u2, u3 on the x = 0.5 cell at the last
    snapshot, the fields compared with the reference."""
    t = max(outputs["macro"])
    macro, micro = outputs["macro"][t], outputs["micro"][t]
    return {"u1": [r[1] for r in macro], "u4": [r[2] for r in macro],
            "u2": [r[1] for r in micro], "u3": [r[2] for r in micro]}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def relative_l2(value: list[float], ref: list[float]) -> float:
    if len(value) != len(ref):
        return math.inf
    diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(value, ref)))
    return diff / max(math.sqrt(sum(b * b for b in ref)), 1e-300)


def check_fig1(workload: str, seed: int, out: str) -> list[str]:
    outputs = fig1_outputs(out)
    _, energy = read_csv(os.path.join(out, "energy.csv"))
    failures = []
    times = sorted(outputs["macro"])
    if times != fig1_snapshots(workload) or sorted(outputs["micro"]) != times:
        failures.append(f"snapshot times {times} differ from the schedule")
        return failures
    values = [v for table in outputs.values() for rows in table.values()
              for row in rows for v in row]
    values += [float(v) for row in energy for v in row]
    if not all(math.isfinite(v) for v in values):
        return failures + ["non-finite value in the outputs"]
    low = min(min(r[1], r[2]) for rows in outputs["macro"].values() for r in rows)
    low = min(low, min(min(r[1], r[2]) for rows in outputs["micro"].values()
                       for r in rows))
    if low < -POSITIVITY_SLACK:
        failures.append(f"negative concentration {low:.3e}")
    gypsum = [[r[2] for r in outputs["macro"][t]] for t in times]
    drop = max(a - b for prev, cur in zip(gypsum, gypsum[1:])
               for a, b in zip(prev, cur))
    if drop > MONOTONE_SLACK:
        failures.append(f"gypsum decreased by {drop:.3e}")
    final = gypsum[-1]
    top = max(final)
    if not (final[0] >= SATURATED_BAND * top and final[-1] < UNSATURATED_BAND * top):
        failures.append(f"no gypsum front: inlet {final[0]:.4g}, "
                        f"far wall {final[-1]:.4g}, max {top:.4g}")
    reference = load_reference()
    point = reference["points"][seed % FIG1_POINTS]
    if point["params"] != fig1_point(seed):
        return failures + ["stored reference is for other parameters"]
    fields = final_fields(outputs)
    for name, ref in point[workload].items():
        dist = relative_l2(fields[name], ref)
        if not dist <= REFERENCE_RTOL:
            failures.append(f"{name} differs from the reference by {dist:.3e} "
                            f"(relative L2, tolerance {REFERENCE_RTOL:g})")
    return failures


def check_verify(out: str) -> list[str]:
    header, rows = read_csv(os.path.join(out, "verify_report.csv"))
    passed = {row[0]: row[header.index("passed")] == "1" for row in rows}
    failures = [f"suite {name} missing" for name in VERIFY_SUITES if name not in passed]
    failures += [f"suite {name} failed" for name, ok in passed.items() if not ok]
    return failures


def check_mms(out: str) -> list[str]:
    header, rows = read_csv(os.path.join(out, "mms.csv"))
    if len(rows) != MMS_LEVELS:
        return [f"{len(rows)} refinement levels, expected {MMS_LEVELS}"]
    failures = []
    for field in ("u1", "u2", "u3", "u4"):
        col = header.index(f"p_{field}")
        orders = [float(row[col]) for row in rows[1:]]
        if not all(p >= ORDER_FLOOR for p in orders):
            failures.append(f"observed order of {field} {orders} below {ORDER_FLOOR}")
    return failures


def check(workload: str, seed: int, out: str, exit_code: int) -> list[str]:
    """Failure messages for one run of the workload; empty when correct."""
    if exit_code != 0:
        return [f"corrosim exited with {exit_code}"]
    try:
        if workload in FIG1_SPECS:
            return check_fig1(workload, seed, out)
        if workload == "verify":
            return check_verify(out)
        return check_mms(out)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"unreadable outputs: {type(err).__name__}: {err}"]


def bytes_written(out: str) -> int:
    """Size of the files the command wrote (its input file excluded)."""
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)
               if name != "input.ini")
