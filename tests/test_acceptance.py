"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -s` to see
them all).  Tolerances are fixed here and nowhere else.
"""

import pathlib
import time

import numpy as np
import pytest

from corrosim import cli
from corrosim.config import scenario_config
from corrosim.diagnostics import energy_record, refinement_sweep
from corrosim.grids import (
    GridSpec,
    ip_micro,
    norm_macro,
    norm_macro_edge,
    norm_micro,
    norm_micro_edge,
)
from corrosim.integrator import integrate
from corrosim.interpolation import (
    ManufacturedSolution,
    extension_product_residuals,
    mms_convergence,
)
from corrosim.model import project_initial, unshifted_u1
from corrosim.operators import trace_inequality_check
from corrosim.verify import antiderivative, cell_green_residual, gas_green_residual

REPO = pathlib.Path(__file__).resolve().parent.parent

GREEN_TOL = 1e-12
EXTENSION_TOL = 1e-12
ENERGY_SLACK = 1e-9
MASS_SLACK = 1e-9
POSITIVITY_SLACK = 1e-8
MONOTONE_SLACK = 1e-9
RATIO_LIMIT = 1.25
ORDER_FLOOR = 1.9
SATURATED_BAND = 0.95
UNSATURATED_BAND = 0.5


def report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[acceptance {num:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def fig1_run():
    cfg = scenario_config("fig1")
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    return cfg, integrate(state0, cfg.params, cfg.grid, cfg.time)


def test_01_green_identities():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32):
        g = GridSpec(1.3, 0.7, n, n)
        for _ in range(200):
            u = rng.normal(size=n + 1)
            u[0] = 0.0
            v = rng.normal(size=n)
            res = gas_green_residual(g, u, antiderivative(g.h_x, v))
            worst = max(worst, res / (1.0 + norm_macro(g, u) * norm_macro_edge(g, v)))
            uf = rng.normal(size=(n + 1, n + 1))
            vf = rng.normal(size=(n + 1, n))
            d1 = rng.normal(size=n + 1)
            d2 = rng.normal(size=n + 1)
            res = cell_green_residual(g, uf, antiderivative(g.h_y, vf), d1, d2)
            worst = max(worst, res / (1.0 + norm_micro(g, uf) * norm_micro_edge(g, vf)))
    elapsed = time.perf_counter() - start
    report(1, "discrete Green identities", worst <= GREEN_TOL and elapsed < 5.0,
           f"worst residual {worst:.3e} <= {GREEN_TOL}, {elapsed:.2f}s")


def test_02_trace_inequality():
    rng = np.random.default_rng(99)
    g = GridSpec(1.0, 1.0, 16, 16)
    start = time.perf_counter()
    violations = 0
    margin = np.inf
    for _ in range(1000):
        lhs, rhs_val = trace_inequality_check(g, rng.normal(size=(17, 17)))
        if lhs > rhs_val:
            violations += 1
        margin = min(margin, rhs_val - lhs)
    elapsed = time.perf_counter() - start
    report(2, "discrete trace inequality",
           violations == 0 and elapsed < 5.0,
           f"0 violations in 1000 fields (min margin {margin:.3e}), {elapsed:.2f}s")


def test_03_extension_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (4, 8, 16):
        g = GridSpec(1.0, 1.0, n, n)
        for _ in range(100):
            res = extension_product_residuals(
                g,
                rng.normal(size=n + 1), rng.normal(size=n + 1),
                rng.normal(size=(n + 1, n + 1)), rng.normal(size=(n + 1, n + 1)))
            worst = max(worst, max(res.values()))
    report(3, "extension product identities", worst <= EXTENSION_TOL,
           f"worst relative residual {worst:.3e} <= {EXTENSION_TOL}")


def test_04_dissipation():
    cfg = scenario_config("dissipation")
    assert cfg.params.henry == 1.0 and cfg.params.u1_d == 0.0
    assert cfg.params.alpha == 0.0 and cfg.params.beta == 0.0 and cfg.params.k == 0.0
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    traj = integrate(state0, cfg.params, cfg.grid, cfg.time)
    energies = [energy_record(cfg.grid, s).field_total() for s in traj.snapshots]
    worst = max(b - a for a, b in zip(energies, energies[1:]))
    report(4, "energy dissipation", worst <= ENERGY_SLACK,
           f"max energy increase {worst:.3e} <= {ENERGY_SLACK} "
           f"over {len(energies)} snapshots in [0, 10]")


def test_05_conservation():
    cfg = scenario_config("conservation")
    assert cfg.params.bi_m == 0.0 and cfg.params.k == 0.0
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    traj = integrate(state0, cfg.params, cfg.grid, cfg.time)
    ones = np.ones((cfg.grid.n_x + 1, cfg.grid.n_y + 1))
    worst = 0.0
    for pick in (lambda s: s.u2, lambda s: s.u3):
        masses = [ip_micro(cfg.grid, pick(s), ones) for s in traj.snapshots]
        worst = max(worst,
                    max(abs(m - masses[0]) for m in masses) / abs(masses[0]))
    report(5, "micro mass conservation", worst <= MASS_SLACK,
           f"max relative drift {worst:.3e} <= {MASS_SLACK}")


def test_06_positivity_and_monotone_gypsum(fig1_run):
    cfg, traj = fig1_run
    low = 0.0
    drop = 0.0
    for a, b in zip(traj.snapshots, traj.snapshots[1:]):
        drop = max(drop, float(np.max(a.u4 - b.u4)))
    for s in traj.snapshots:
        low = min(low, float(unshifted_u1(s, cfg.params).min()),
                  float(s.u2.min()), float(s.u3.min()), float(s.u4.min()))
    report(6, "quasi-positivity and monotone gypsum",
           low >= -POSITIVITY_SLACK and drop <= MONOTONE_SLACK,
           f"min field value {low:.3e} >= -{POSITIVITY_SLACK}, "
           f"max gypsum drop {drop:.3e} <= {MONOTONE_SLACK}")


def test_07_boundedness_sweep():
    cfg = scenario_config(
        "fig1", snapshots=" ".join(str(v) for v in np.linspace(0.0, 400.0, 21)))
    start = time.perf_counter()
    res = refinement_sweep(cfg.grid, cfg.params, cfg.initial, cfg.time)
    elapsed = time.perf_counter() - start
    worst = max(res.ratios.values())
    report(7, "a-priori boundedness sweep",
           worst <= RATIO_LIMIT and elapsed < 120.0,
           f"worst growth ratio {worst:.4f} <= {RATIO_LIMIT} over "
           f"levels 16/32/64, {elapsed:.1f}s")


def test_08_mms_spatial_order():
    start = time.perf_counter()
    _, table = mms_convergence(ManufacturedSolution(), 3)
    elapsed = time.perf_counter() - start
    orders = {f: min(table[:, i]) for i, f in enumerate(("u1", "u2", "u3"))}
    passed = all(p >= ORDER_FLOOR for p in orders.values()) and elapsed < 120.0
    report(8, "manufactured-solution spatial order", passed,
           "min observed orders "
           + " ".join(f"{f}={p:.2f}" for f, p in orders.items())
           + f" >= {ORDER_FLOOR}, {elapsed:.1f}s")


def test_09_gypsum_front(fig1_run):
    cfg, traj = fig1_run
    x = cfg.grid.x_nodes()
    expected_times = (0.0, 80.0, 160.0, 240.0, 320.0, 400.0)
    assert tuple(s.t for s in traj.snapshots) == expected_times
    ok = True
    details = []
    prev_cross = -np.inf
    for s in traj.snapshots:
        if s.t < 160.0:
            continue
        top = float(s.u4.max())
        saturated = s.u4[0] >= SATURATED_BAND * top
        unsaturated = s.u4[-1] < UNSATURATED_BAND * top
        below = np.where(s.u4 < UNSATURATED_BAND * top)[0]
        cross = cfg.grid.length if below.size == 0 else float(x[below[0]])
        ok = ok and saturated and unsaturated and cross >= prev_cross - 1e-12
        details.append(f"t={s.t:.0f} cross={cross:.3f}")
        prev_cross = cross
    report(9, "gypsum front formation", ok,
           "saturated inlet, unsaturated far wall, advancing front: "
           + " ".join(details))


def test_10_determinism(tmp_path, capsys):
    config = str(REPO / "configs" / "fig1.ini")

    def run_twice(argv_builder, files):
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv_builder.__name__}_{tag}"
            assert cli.main(argv_builder(str(out))) == 0
            text = capsys.readouterr().out
            blob = text.encode() + b"".join(
                (out / name).read_bytes() for name in files)
            payloads.append(blob)
        return payloads[0] == payloads[1]

    def run_cmd(out):
        return ["run", "--config", config, "--out", out]

    def verify_cmd(out):
        return ["verify", "--seed", "0", "--out", out]

    same_run = run_twice(run_cmd, ["macro_profiles.csv", "micro_slice_0.5.csv",
                                   "energy.csv", "summary.txt"])
    same_verify = run_twice(verify_cmd, ["verify_report.csv"])
    report(10, "byte-identical reruns", same_run and same_verify,
           f"run identical={same_run}, verify identical={same_verify}")
