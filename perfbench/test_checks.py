"""Tests of the benchmark itself: its output checks fire on a broken
program, its inputs follow the seed, and its statistics and verdicts.

The two end-to-end cases each make a one-second benchmark run of fig1_run
from the repository root, in child processes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


# appended to a copy of corrosim/model.py: every tendency 1% too large
BROKEN_RHS = """

_unbroken_rhs = rhs


def rhs(*args, **kwargs):
    tend = _unbroken_rhs(*args, **kwargs)
    return Tendency(*(1.01 * getattr(tend, f) for f in ("u1", "u2", "u3", "u4")))
"""


def bench(cwd, results):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fig1_run",
           "--seed", "3", "--seconds", "1", "--trace", "0", "--results", str(results)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_correct_program_passes(tmp_path):
    result = last_json(bench(ROOT, tmp_path / "runs.jsonl"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_broken_rhs_counts_as_failed(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
    with open(checkout / "src" / "corrosim" / "model.py", "a") as handle:
        handle.write(BROKEN_RHS)
    proc = bench(checkout, tmp_path / "runs.jsonl")
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "differs from the reference" in proc.stdout


def test_refuses_a_directory_without_corrosim(tmp_path):
    proc = bench(tmp_path, tmp_path / "runs.jsonl")
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_follow_the_seed_and_stay_in_the_box():
    assert workloads.fig1_ini("fig1_run", 5) == workloads.fig1_ini("fig1_run", 5)
    assert workloads.fig1_point(1) != workloads.fig1_point(2)
    for seed in range(workloads.FIG1_POINTS):
        for name, value in workloads.fig1_point(seed).items():
            centre = workloads.FIG1_CENTRE[name]
            assert abs(value / centre - 1.0) <= workloads.BOX_HALF_WIDTH + 1e-6
    assert "mode" not in workloads.fig1_ini("fig1_run", 0)
    assert "mode = adaptive" in workloads.fig1_ini("fig1_fine_adaptive", 0)


def test_tail_needs_ten_samples_beyond():
    assert summary.tail([1.0] * 10) is None
    values = [float(v) for v in range(1, 21)]
    assert summary.tail(values) == {"percentile": 50.0, "value": 10.0, "samples": 20}
    assert summary.tail([float(v) for v in range(1, 101)])["percentile"] == 90.0


def test_verdicts_against_the_bound():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, [v * 1.5 for v in base], "lower", 0.2, False)[0] == "worse"
    assert compare.verdict(base, [v * 1.05 for v in base], "lower", 0.2, False)[0] == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.2, False)[0] == "improved"
    noisy = [0.6, 1.0, 1.4, 0.7, 1.3]
    assert compare.verdict(base, noisy, "lower", 0.2, False)[0] == "unresolved"
    assert compare.verdict([4.0], [4.0], "lower", None, True)[0] == "unchanged"
    assert compare.verdict([4.0], [5.0], "higher", None, True)[0] == "improved"
