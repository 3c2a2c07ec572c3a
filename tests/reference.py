"""The boundary closure and stencils of the scheme as separate pieces, a
constant solution the scheme reproduces exactly, and the all-zero state.

`rhs` fuses these pieces into slice stencils over preallocated buffers;
tests compare it against their plain composition.  Nothing in the package
imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corrosim.grids import GridSpec, check_macro, check_micro
from corrosim.model import (
    ModelParams,
    SourceTerms,
    State,
    eta,
    henry_flux,
)


def zero_state(grid: GridSpec) -> State:
    nm, nf = grid.n_x + 1, grid.n_y + 1
    return State(0.0, np.zeros(nm), np.zeros((nm, nf)), np.zeros((nm, nf)), np.zeros(nm))


def zeta(r, s, alpha, beta):
    """Volume exchange rate alpha*r - beta*s, linear in both arguments."""
    return alpha * np.asarray(r, dtype=float) - beta * np.asarray(s, dtype=float)


@dataclass
class GhostRows:
    """Out-of-grid values closing the boundary stencils, recomputed from the
    current state on every evaluation."""

    u1_right: float          # u1 at the node beyond x = L
    u2_bottom: np.ndarray    # u2 at y = -h_y
    u2_top: np.ndarray       # u2 at y = ell + h_y
    u3_bottom: np.ndarray    # u3 at y = -h_y
    u3_top: np.ndarray       # u3 at y = ell + h_y


def ghost_values(state: State, params: ModelParams, grid: GridSpec) -> GhostRows:
    """Ghost node values from the centered-difference boundary closure.

    The gas field reflects at x = L; the dissolved-gas cell boundary at
    y = 0 carries the interfacial exchange flux, its far side reflects; the
    acid reflects at y = 0 and loses the surface reaction flux at y = ell.
    """
    u2, u3 = state.u2, state.u3
    flux = henry_flux(state, params)
    surface = eta(u3[:, -1], state.u4, params)
    return GhostRows(
        u1_right=float(state.u1[-2]),
        u2_bottom=u2[:, 1] + (2.0 * grid.h_y / params.d2) * flux,
        u2_top=u2[:, -2].copy(),
        u3_bottom=u3[:, 1].copy(),
        u3_top=u3[:, -2] - (2.0 * grid.h_y / params.d3) * surface,
    )


def laplace_macro(grid: GridSpec, u: np.ndarray, right_ghost: float) -> np.ndarray:
    """3-point stencil (u_{i-1} - 2u_i + u_{i+1})/h_x^2 at nodes i = 1..n_x.

    right_ghost supplies u_{n_x+1}; the no-flux closure uses u_{n_x-1}.
    """
    u = check_macro(grid, u)
    ext = np.concatenate([u, [right_ghost]])
    return (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) / grid.h_x**2


def laplace_micro(grid: GridSpec, u: np.ndarray,
                  bottom_ghost: np.ndarray, top_ghost: np.ndarray) -> np.ndarray:
    """3-point stencil along y at all nodes j = 0..n_y.

    bottom_ghost and top_ghost supply the rows u_{i,-1} and u_{i,n_y+1}.
    """
    u = check_micro(grid, u)
    bottom = check_macro(grid, bottom_ghost)
    top = check_macro(grid, top_ghost)
    ext = np.concatenate([bottom[:, None], u, top[:, None]], axis=1)
    return (ext[:, :-2] - 2.0 * ext[:, 1:-1] + ext[:, 2:]) / grid.h_y**2


@dataclass(frozen=True)
class ConstantSolution:
    """Space- and time-constant fields, reproduced exactly by the scheme.

    The gas sits at its inlet value u1_d and the dissolved gas at the
    solubility equilibrium H*u1_d, so the interfacial flux vanishes; the
    sources cancel the volume exchange.
    """

    params: ModelParams
    u2_value: float
    u4_value: float = 0.7

    def sources(self, grid: GridSpec) -> SourceTerms:
        nm, nf = grid.n_x + 1, grid.n_y + 1
        exch = np.full((nm, nf), self.params.alpha * self.u2_value)
        return SourceTerms(
            f1=lambda t: np.zeros(nm),
            f2=lambda t: exch.copy(),
            f3=lambda t: -exch,
            f4=lambda t: np.zeros(nm),
        )

    def exact_state(self, grid: GridSpec, t: float) -> State:
        return State(
            t=t,
            u1=np.full(grid.n_x + 1, self.params.u1_d),
            u2=np.full((grid.n_x + 1, grid.n_y + 1), self.u2_value),
            u3=np.zeros((grid.n_x + 1, grid.n_y + 1)),
            u4=np.full(grid.n_x + 1, self.u4_value),
        )


def manufactured_constant() -> ConstantSolution:
    params = ModelParams(
        d1=0.1, d2=0.1, d3=0.1, bi_m=0.5, henry=0.8, u1_d=1.0,
        k=0.2, alpha=0.4, beta=0.3, q_kind="constant")
    return ConstantSolution(params, u2_value=params.henry * params.u1_d)
