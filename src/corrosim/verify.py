"""Seeded property suites behind the `verify` command.

Each suite draws reproducible random inputs, evaluates one of the exact
identities, inequalities, or trajectory invariants, and reports its worst
residual against a fixed threshold.  The residual conventions:

* identity suites report the largest normalized residual (should sit at
  rounding level, threshold 1e-12),
* inequality and monotonicity suites report the largest violation (a
  negative value means satisfied with margin),
* the boundedness suite reports the largest level-to-level growth ratio.

A NaN residual propagates to the suite's result and fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, scenario_config
from .diagnostics import RATIO_THRESHOLD, energy_record, refinement_sweep
from .grids import (
    GridSpec,
    ip_micro,
    norm_macro,
    norm_macro_edge,
    norm_micro,
    norm_micro_edge,
)
from .integrator import POSITIVITY_SLACK, DivergedError, integrate
from .interpolation import extension_product_residuals
from .model import project_initial, unshifted_u1
from .operators import (
    green_macro_residual,
    green_micro_residual,
    trace_inequality_check,
)

GREEN_GRID_SIZES = (4, 8, 16, 32)
GREEN_PAIRS = 200
TRACE_FIELDS = 1000
TRACE_GRID_SIZE = 16
EXTENSION_GRID_SIZES = (4, 8, 16)
EXTENSION_PAIRS = 100
BOUNDEDNESS_GRID_SIZE = 8
BOUNDEDNESS_T_END = 100.0
IDENTITY_THRESHOLD = 1e-12
MONOTONE_SLACK = 1e-9
MASS_SLACK = 1e-9
FIELDS_PER_BLOCK = 10   # larger stacks raise verify's peak memory


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:24s} {status}  residual={self.max_residual:.6e}"
                f"  threshold={self.threshold:.6e}")


def _blocks(rng: np.random.Generator, count: int, *shapes):
    """`count` draws of one standard normal field per shape, made one by
    one in that order and stacked in blocks of FIELDS_PER_BLOCK."""
    for start in range(0, count, FIELDS_PER_BLOCK):
        draws = [[rng.normal(size=s) for s in shapes]
                 for _ in range(min(FIELDS_PER_BLOCK, count - start))]
        yield [np.stack(fields) for fields in zip(*draws)]


def suite_green_macro(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    for n in GREEN_GRID_SIZES:
        g = GridSpec(1.0, 1.0, n, n)
        for u, v in _blocks(rng, GREEN_PAIRS, n + 1, n):
            u[:, 0] = 0.0
            res = green_macro_residual(g, u, v)
            scale = 1.0 + norm_macro(g, u) * norm_macro_edge(g, v)
            worst = float(np.max(res / scale, initial=worst))
    return SuiteResult("green_macro", worst <= IDENTITY_THRESHOLD,
                       worst, IDENTITY_THRESHOLD)


def suite_green_micro(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    for n in GREEN_GRID_SIZES:
        g = GridSpec(1.0, 1.0, n, n)
        for u, v, d1, d2 in _blocks(rng, GREEN_PAIRS, (n + 1, n + 1), (n + 1, n),
                                    n + 1, n + 1):
            res = green_micro_residual(g, u, v, d1, d2)
            scale = 1.0 + norm_micro(g, u) * norm_micro_edge(g, v)
            worst = float(np.max(res / scale, initial=worst))
    return SuiteResult("green_micro", worst <= IDENTITY_THRESHOLD,
                       worst, IDENTITY_THRESHOLD)


def suite_trace(rng: np.random.Generator) -> SuiteResult:
    n = TRACE_GRID_SIZE
    g = GridSpec(1.0, 1.0, n, n)
    worst = -np.inf
    for u, in _blocks(rng, TRACE_FIELDS, (n + 1, n + 1)):
        lhs, rhs_val = trace_inequality_check(g, u)
        worst = float(np.max(lhs - rhs_val, initial=worst))
    return SuiteResult("trace_inequality", worst <= 0.0, worst, 0.0)


def suite_extensions(rng: np.random.Generator) -> list[SuiteResult]:
    worst = {"macro_values": 0.0, "macro_gradients": 0.0,
             "micro_values": 0.0, "micro_gradients": 0.0}
    for n in EXTENSION_GRID_SIZES:
        g = GridSpec(1.0, 1.0, n, n)
        for fields in _blocks(rng, EXTENSION_PAIRS, n + 1, n + 1,
                              (n + 1, n + 1), (n + 1, n + 1)):
            res = extension_product_residuals(g, *fields)
            for name, val in res.items():
                worst[name] = float(np.max(val, initial=worst[name]))
    return [SuiteResult(f"extension_{name}", val <= IDENTITY_THRESHOLD,
                        val, IDENTITY_THRESHOLD)
            for name, val in worst.items()]


def _trajectory(cfg: RunConfig):
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    return integrate(state0, cfg.params, cfg.grid, cfg.time)


def suite_dissipation() -> SuiteResult:
    cfg = scenario_config("dissipation")
    traj = _trajectory(cfg)
    energies = [energy_record(cfg.grid, s).field_total() for s in traj.snapshots]
    worst = max(b - a for a, b in zip(energies, energies[1:]))
    return SuiteResult("dissipation", worst <= MONOTONE_SLACK,
                       worst, MONOTONE_SLACK)


def suite_conservation() -> SuiteResult:
    cfg = scenario_config("conservation")
    traj = _trajectory(cfg)
    ones = np.ones((cfg.grid.n_x + 1, cfg.grid.n_y + 1))
    worst = 0.0
    for u_of in (lambda s: s.u2, lambda s: s.u3):
        masses = [ip_micro(cfg.grid, u_of(s), ones) for s in traj.snapshots]
        ref = abs(masses[0])
        worst = max(worst, max(abs(m - masses[0]) for m in masses) / ref)
    return SuiteResult("conservation", worst <= MASS_SLACK, worst, MASS_SLACK)


def suite_positivity_and_monotone(cfg: RunConfig | None) -> list[SuiteResult]:
    if cfg is None:
        cfg = scenario_config("fig1")
    try:
        traj = _trajectory(cfg)
    except DivergedError as err:
        # a trajectory that leaves the admissible set fails both suites
        print(f"positivity, monotone_gypsum: diverged: {err}")
        return [SuiteResult("positivity", False, np.inf, POSITIVITY_SLACK),
                SuiteResult("monotone_gypsum", False, np.inf, MONOTONE_SLACK)]
    low = 0.0
    for s in traj.snapshots:
        low = min(low, float(unshifted_u1(s, cfg.params).min()),
                  float(s.u2.min()), float(s.u3.min()), float(s.u4.min()))
    drop = 0.0
    for a, b in zip(traj.snapshots, traj.snapshots[1:]):
        drop = max(drop, float(np.max(a.u4 - b.u4)))
    return [
        SuiteResult("positivity", -low <= POSITIVITY_SLACK, -low, POSITIVITY_SLACK),
        SuiteResult("monotone_gypsum", drop <= MONOTONE_SLACK, drop, MONOTONE_SLACK),
    ]


def suite_boundedness() -> SuiteResult:
    t_end, n = BOUNDEDNESS_T_END, BOUNDEDNESS_GRID_SIZE
    cfg = scenario_config("fig1", t_end=t_end,
                          snapshots=" ".join(str(v) for v in
                                             np.linspace(0.0, t_end, 11)))
    grid = GridSpec(cfg.grid.length, cfg.grid.cell_length, n, n)
    res = refinement_sweep(grid, cfg.params, cfg.initial, cfg.time)
    worst = max(res.ratios.values())
    return SuiteResult("boundedness", res.passed(), worst, RATIO_THRESHOLD)


def run_all(seed: int, fig1_cfg: RunConfig | None) -> list[SuiteResult]:
    """All suites in a fixed order with one seeded generator; the positivity
    and monotone-gypsum suites run `fig1_cfg`, or fig1 itself when None."""
    rng = np.random.default_rng(seed)
    results = [suite_green_macro(rng),
               suite_green_micro(rng),
               suite_trace(rng)]
    results.extend(suite_extensions(rng))
    results.append(suite_dissipation())
    results.append(suite_conservation())
    results.extend(suite_positivity_and_monotone(fig1_cfg))
    results.append(suite_boundedness())
    return results
