"""corrosim benchmark: one workload, measured for a fixed number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results FILE]

Run from the root of a corrosim checkout: the directory holding src/ and
BENCHMARK.json, which names the metrics and their units.
Each run of the workload happens in a fresh single-threaded child process
(child.py), one after another, until the next one would end after S
seconds.  With --trace 0 the children are untraced and the end-to-end
metrics are reported; with --trace 1 untraced and traced children
alternate, the per-layer metrics come from the traced ones, and the
difference of the two wall-time medians is the tracing overhead.

Every metric is printed by name and unit, the full record (environment,
samples, failures) is appended to FILE (default
.perfbench_results/runs.jsonl), and the last line of standard output is the
JSON summary {"correct", "attempted", "failed", "metrics"}.  Exit code 2
without a summary when the directory is not a corrosim checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import summary
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
DEFAULT_RESULTS = os.path.join(".perfbench_results", "runs.jsonl")


def source_digest(root: str) -> str:
    """Hash of the corrosim sources under test, to tell results apart."""
    pkg = os.path.join(root, "src", "corrosim")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(child_env: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: child_env[var] for var in THREAD_VARS},
    }


def child_environment(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(root: str, env: dict[str, str], args, index: int, traced: bool) -> dict:
    """Run one child; its record, or a failure record without timings."""
    out = os.path.join(root, OUT_DIR, f"{args.workload}-s{args.seed}-{index}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    record_path = os.path.join(out, "record.json")
    spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}-s{args.seed}.npz")
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--out", out, "--record", record_path,
           "--trace", str(int(traced)), "--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        problem = None if proc.returncode == 0 else \
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-600:]}"
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {CHILD_TIMEOUT_S} s"
    record = None
    if problem is None:
        try:
            with open(record_path) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as err:
            problem = f"no record from the child: {err}"
    shutil.rmtree(out, ignore_errors=True)
    if record is None:
        return {"ok": False, "failures": [problem], "traced": traced}
    return record


def warm_up(root: str, env: dict[str, str]) -> str | None:
    """Import corrosim once untimed (compiles bytecode); an error message
    when the checkout cannot be imported."""
    try:
        proc = subprocess.run([sys.executable, CHILD, "--warmup"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "warm-up import timed out"
    return None if proc.returncode == 0 else proc.stderr.strip()[-600:]


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=DEFAULT_RESULTS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "corrosim", "__init__.py")):
        print(f"{root} is not a corrosim checkout (no src/corrosim)", file=sys.stderr)
        return 2
    bench = summary.load_benchmark()
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    env = child_environment(root)
    problem = warm_up(root, env)
    if problem is not None:
        print(f"cannot import corrosim: {problem}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    records: list[dict] = []
    durations: list[float] = []
    minimum = 2 if args.trace else 1
    while len(records) < minimum or (
            time.perf_counter() - start + statistics.median(durations) <= args.seconds):
        traced = bool(args.trace) and len(records) % 2 == 1
        began = time.perf_counter()
        records.append(run_child(root, env, args, len(records), traced))
        durations.append(time.perf_counter() - began)
    measured_s = time.perf_counter() - start

    timed = [r for r in records if "wall_s" in r]
    passing = [r for r in timed if r["ok"]] or timed
    untraced = [r for r in passing if not r["traced"]]
    traced = [r for r in passing if r["traced"]]
    if not untraced or (args.trace and not traced):
        for r in records:
            print("failed run:", "; ".join(r["failures"]), file=sys.stderr)
        print("no run produced timings", file=sys.stderr)
        return 1

    failed = sum(not r["ok"] for r in records)
    attempted = len(records)
    walls = [r["wall_s"] for r in untraced]
    samples = {name: [r[name] for r in untraced] for name in e2e_units}
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        overhead = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / median_of(untraced, "wall_s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in e2e_units.items()}

    env_record = environment(env)
    env_record["numpy"] = untraced[0]["numpy"]
    wall_tail = summary.tail(walls)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs in {measured_s:.1f} s, {failed} failed")
    print("environment: " + ", ".join(
        f"{k}={v}" for k, v in env_record.items() if k != "threads")
        + ", " + " ".join(f"{k}={v}" for k, v in env_record["threads"].items()))
    for r in [r for r in records if not r["ok"]][:5]:
        print("failed run: " + "; ".join(r["failures"]))
    for name in e2e_units:
        values = samples[name]
        q1, med, q3 = summary.quartiles(values)
        print(f"  {name:<32} {med:12.6g} {e2e_units[name]:<8} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    print("  wall_s tail: " + (f"p{wall_tail['percentile']:g}={wall_tail['value']:.6g} s "
                               f"of n={wall_tail['samples']}" if wall_tail
                               else f"none (n={len(walls)} < {summary.TAIL_MIN_BEYOND + 1})"))
    print(f"  {'failed_frac':<32} {failed / attempted:12.6g} {'ratio':<8} "
          f"({failed}/{attempted})")
    if args.trace:
        for name, unit in layer_units.items():
            print(f"  {name:<32} {layers[name]:12.6g} {unit}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s,
        "source": source_digest(root), "env": env_record,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in records for f in r["failures"]][:20],
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "samples": samples,
        "wall_s_tail": wall_tail,
    }
    if args.trace:
        result["traced_wall_s"] = [r["wall_s"] for r in traced]
        result["missing"] = traced[0]["missing"]
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as handle:
        handle.write(json.dumps(result) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
