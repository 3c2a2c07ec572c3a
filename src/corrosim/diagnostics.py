"""Trajectory diagnostics: discrete energies, rate norms, difference
quotients, and the grid-refinement boundedness sweep.

`energy_record` holds the discrete norms that the scheme's a-priori
estimates bound, for u and, applied to the `rhs` tendency at a stored
snapshot, for du/dt: the estimates bound the same norms of both, and the
tendency is exact for the method-of-lines system, which keeps
time-integration error out of the rate norms.  `quotient_sums` adds the
forward x-quotients and mixed quotients of the two cell fields.
The sweep integrates the same scenario on nested grids and reports, for
each monitored quantity, the largest growth ratio between consecutive
levels; bounded quantities should keep that ratio near one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    GridSpec,
    norm_macro,
    norm_macro_edge,
    norm_micro,
    norm_micro_edge,
)
from .integrator import TimeSpec, Trajectory, integrate
from .model import InitialData, ModelParams, State, project_initial, rhs
from .operators import grad_macro, grad_micro

MONITORED = (
    "energy_sup",            # sup_t of the four squared field norms
    "grad_integral",         # time integral of the three squared gradient norms
    "rate_sup",              # sup_t of the squared rate norms (fields 1..3)
    "rate_grad_integral",    # time integral of the squared rate-gradient norms
    "xdiff_sup",             # sup_t of the squared forward x-quotients (2, 3)
    "mixed_integral",        # time integral of the squared mixed quotients
)
# largest growth ratio of a monitored quantity between consecutive levels
RATIO_THRESHOLD = 1.25
SWEEP_LEVELS = 3      # nested grids of the sweep: the base grid, 2x and 4x


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    n1: float   # ||u1 - u1[0]||^2 on the macro nodes, relative to the inlet value
    n2: float   # ||u2||^2 on the cell nodes
    n3: float   # ||u3||^2
    n4: float   # ||u4||^2
    g1: float   # ||grad_x u1||^2
    g2: float   # ||grad_y u2||^2
    g3: float   # ||grad_y u3||^2

    def field_total(self) -> float:
        return self.n1 + self.n2 + self.n3 + self.n4

    def grad_total(self) -> float:
        return self.g1 + self.g2 + self.g3


def energy_record(grid: GridSpec, state: State) -> EnergyRecord:
    return EnergyRecord(
        t=state.t,
        n1=norm_macro(grid, state.u1 - state.u1[0]) ** 2,
        n2=norm_micro(grid, state.u2) ** 2,
        n3=norm_micro(grid, state.u3) ** 2,
        n4=norm_macro(grid, state.u4) ** 2,
        g1=norm_macro_edge(grid, grad_macro(grid, state.u1)) ** 2,
        g2=norm_micro_edge(grid, grad_micro(grid, state.u2)) ** 2,
        g3=norm_micro_edge(grid, grad_micro(grid, state.u3)) ** 2,
    )


def quotient_sums(grid: GridSpec, state: State) -> tuple[float, float]:
    """h_x h_y sums over all rows of the squared forward x-quotients and of
    the squared mixed quotients delta_x^+ delta_y^+, each u2's plus u3's."""
    xdiff = mixed = 0.0
    for u in (state.u2, state.u3):
        dx = np.diff(u, axis=0)
        xdiff += grid.h_x * grid.h_y * float(np.sum((dx / grid.h_x) ** 2))
        quot = np.diff(dx, axis=1) / (grid.h_x * grid.h_y)
        mixed += grid.h_x * grid.h_y * float(np.sum(quot**2))
    return xdiff, mixed


def trajectory_quantities(grid: GridSpec, traj: Trajectory,
                          params: ModelParams) -> dict[str, float]:
    """Aggregate the monitored quantities over the stored snapshots.

    Suprema are maxima over snapshots; time integrals use the trapezoid
    rule on the snapshot schedule.
    """
    times = traj.times()
    energies = [energy_record(grid, s) for s in traj.snapshots]
    rates = [energy_record(grid, State.view(s.t, rhs(s, params, grid).y, grid))
             for s in traj.snapshots]
    quotients = [quotient_sums(grid, s) for s in traj.snapshots]
    return {
        "energy_sup": max(e.field_total() for e in energies),
        "grad_integral": float(np.trapezoid([e.grad_total() for e in energies], times)),
        "rate_sup": max(r.n1 + r.n2 + r.n3 for r in rates),
        "rate_grad_integral": float(np.trapezoid([r.grad_total() for r in rates], times)),
        "xdiff_sup": max(xdiff for xdiff, _ in quotients),
        "mixed_integral": float(np.trapezoid([mixed for _, mixed in quotients], times)),
    }


@dataclass
class SweepLevel:
    level: int
    n_x: int
    n_y: int
    quantities: dict[str, float]


@dataclass
class SweepResult:
    levels: list[SweepLevel]
    ratios: dict[str, float]      # worst consecutive-level growth per quantity

    def passed(self) -> bool:
        return all(r <= RATIO_THRESHOLD for r in self.ratios.values())


def refinement_sweep(grid: GridSpec, params: ModelParams, initial: InitialData,
                     timespec: TimeSpec) -> SweepResult:
    """Integrate the scenario on SWEEP_LEVELS nested grids and compare the
    monitored quantities level to level.

    RATIO_THRESHOLD is artifact policy; the bounded quantities of a
    resolved scenario should not grow systematically under refinement.
    """
    rows: list[SweepLevel] = []
    for lvl in range(SWEEP_LEVELS):
        g = grid.refine(2**lvl)
        state0 = project_initial(initial, params, g)
        traj = integrate(state0, params, g, timespec)
        rows.append(SweepLevel(lvl, g.n_x, g.n_y,
                               trajectory_quantities(g, traj, params)))
    ratios: dict[str, float] = {}
    for name in MONITORED:
        worst = 0.0
        for a, b in zip(rows, rows[1:]):
            prev, cur = a.quantities[name], b.quantities[name]
            if prev <= 1e-30:
                worst = max(worst, 1.0 if cur <= 1e-30 else np.inf)
            else:
                worst = max(worst, cur / prev)
        ratios[name] = worst
    return SweepResult(rows, ratios)
