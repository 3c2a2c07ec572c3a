"""Seeded property suites behind the `verify` command.

Each suite draws reproducible random inputs, evaluates one of the exact
identities, inequalities, or trajectory invariants, and reports its worst
residual against a fixed threshold.  The residual conventions:

* identity suites report the largest normalized residual (should sit at
  rounding level, threshold 1e-12),
* inequality and monotonicity suites report the largest violation (a
  negative value means satisfied with margin),
* the boundedness suite reports the largest level-to-level growth ratio.

The two summation-by-parts suites evaluate `_add_diffusion`, the kernel
`rhs` calls, once per field w, drawing w's gradient as a random edge field;
the other identity suites evaluate whole blocks of fields in one call.

A NaN residual propagates to the suite's result and fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, scenario_config
from .diagnostics import RATIO_THRESHOLD, energy_record, refinement_sweep
from .grids import (
    GridSpec,
    check_macro,
    check_micro,
    ip_macro,
    ip_macro_edge,
    ip_micro,
    ip_micro_edge,
    norm_macro,
    norm_macro_edge,
    norm_micro,
    norm_micro_edge,
)
from .integrator import POSITIVITY_SLACK, DivergedError, integrate
from .interpolation import extension_product_residuals
from .model import ModelParams, State, Tendency, _add_diffusion, project_initial
from .operators import grad_macro, grad_micro, trace_inequality_check

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
# the green suites' cell is not square and their diffusivities differ, so a
# kernel that swaps h_x for h_y or d2 for d3 fails them
GREEN_LENGTH, GREEN_CELL_LENGTH = 1.3, 0.7
GREEN_PARAMS = ModelParams(d1=0.8, d2=1.6, d3=0.5, bi_m=0.0, henry=1.0,
                           u1_d=0.0, k=0.0, alpha=0.0, beta=0.0)


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


def antiderivative(h: float, v: np.ndarray) -> np.ndarray:
    """The node field w with w_0 = 0 and w_{k+1} = w_k + h v_k along the
    last axis, whose forward difference is the edge field v."""
    w = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    np.cumsum(h * v, axis=-1, out=w[..., 1:])
    return w


def _diffusion(grid: GridSpec, gas, cell, flux: np.ndarray, surface: np.ndarray):
    """The diffusion terms of `rhs` at the states with gas rows `gas` and
    with `cell` in both their u2 and u3 rows, and with the boundary data
    flux (into u2 at y = 0) and surface (out of u3 at y = ell): one
    `_add_diffusion` call per row of flux, on views of one block of state
    vectors y = (u1, u2, u3, u4).  Returns the gas rows and the (u2, u3)
    row pairs of the tendencies."""
    nm, nc = grid.n_x + 1, grid.n_y + 1
    ys = np.zeros((len(flux), nm * (2 * nc + 2)))
    ys[:, :nm] = gas
    ys[:, nm:-nm].reshape(-1, 2, nm, nc)[...] = cell
    out = np.zeros_like(ys)
    for y, dy, f, s in zip(ys, out, flux, surface):
        _add_diffusion(State.view(0.0, y, grid), GREEN_PARAMS, grid, f, s,
                       Tendency.view(dy, grid))
    return out[:, :nm], out[:, nm:-nm].reshape(-1, 2, nm, nc)


def gas_green_residual(grid: GridSpec, u: np.ndarray, w: np.ndarray):
    """|<u, L1 w> + d1 (grad u, grad w)| for the gas row L1 of `rhs`'s
    diffusion kernel.

    The identity needs u = 0 at x = 0, where the kernel leaves a finite
    value that `rhs` overwrites.  One value per field of a stack.
    """
    u, w = check_macro(grid, u), check_macro(grid, w)
    if np.any(u[..., 0] != 0.0):
        raise ValueError("gas identity requires u = 0 at x = 0")
    nm = grid.n_x + 1
    no_data = np.zeros((w.size // nm, nm))
    lw = _diffusion(grid, w.reshape(-1, nm), 0.0, no_data, no_data)[0]
    res = (ip_macro(grid, u, lw.reshape(w.shape)) + GREEN_PARAMS.d1
           * ip_macro_edge(grid, grad_macro(grid, u), grad_macro(grid, w)))
    return abs(res)


def cell_green_residual(grid: GridSpec, u: np.ndarray, w: np.ndarray,
                        flux: np.ndarray, surface: np.ndarray):
    """The larger of the residuals

        |<u, L2 w> + d2 (grad u, grad w) - <u|_{y=0}, flux>|,
        |<u, L3 w> + d3 (grad u, grad w) + <u|_{y=ell}, surface>|

    of the u2 rows L2 and the u3 rows L3 of `rhs`'s diffusion kernel, from
    one kernel call with w in both.  The first checks the Robin ghost at
    y = 0, the second the surface ghost at y = ell.  One value per field of
    a stack.
    """
    u, w = check_micro(grid, u), check_micro(grid, w)
    flux, surface = check_macro(grid, flux), check_macro(grid, surface)
    nm = grid.n_x + 1
    _, lw = _diffusion(grid, 0.0, w.reshape(-1, 1, *w.shape[-2:]),
                       flux.reshape(-1, nm), surface.reshape(-1, nm))
    lw = lw.reshape(w.shape[:-2] + lw.shape[1:])
    grads = ip_micro_edge(grid, grad_micro(grid, u), grad_micro(grid, w))
    bottom = (ip_micro(grid, u, lw[..., 0, :, :]) + GREEN_PARAMS.d2 * grads
              - ip_macro(grid, u[..., 0], flux))
    top = (ip_micro(grid, u, lw[..., 1, :, :]) + GREEN_PARAMS.d3 * grads
           + ip_macro(grid, u[..., -1], surface))
    return np.maximum(abs(bottom), abs(top))


def suite_green_macro(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    for n in GREEN_GRID_SIZES:
        g = GridSpec(GREEN_LENGTH, GREEN_CELL_LENGTH, n, n)
        for u, v in _blocks(rng, GREEN_PAIRS, n + 1, n):
            u[:, 0] = 0.0
            res = gas_green_residual(g, u, antiderivative(g.h_x, v))
            scale = 1.0 + norm_macro(g, u) * norm_macro_edge(g, v)
            worst = float(np.max(res / scale, initial=worst))
    return SuiteResult("green_macro", worst <= IDENTITY_THRESHOLD,
                       worst, IDENTITY_THRESHOLD)


def suite_green_micro(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    for n in GREEN_GRID_SIZES:
        g = GridSpec(GREEN_LENGTH, GREEN_CELL_LENGTH, n, n)
        for u, v, d1, d2 in _blocks(rng, GREEN_PAIRS, (n + 1, n + 1), (n + 1, n),
                                    n + 1, n + 1):
            res = cell_green_residual(g, u, antiderivative(g.h_y, v), d1, d2)
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
    low = min([0.0, *(float(s.y.min()) for s in traj.snapshots)])
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
