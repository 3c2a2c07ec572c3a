"""Model parameters, the surface reaction, and the semi-discrete right-hand side.

The unknowns are the gas-phase concentration on the macro grid (stored in
shifted form, with the inlet value subtracted so the node at x = 0 is pinned
to zero), the dissolved-gas and acid concentrations on the micro grid, and
the gypsum concentration on the macro grid.

Parameter validation groups its constraints under four labels that the CLI
surfaces on rejection:

* A1  transport and exchange constants (diffusivities, transfer number,
      solubility ratio, inlet value)
* A2  volume-exchange coefficients alpha, beta (nonnegative, may vary
      across the cell)
* A3  surface reaction (rate constant, the bounds c_bar, m3 and m4, the
      gypsum kernel Q)
* A4  initial data (finite, nonnegative)

`rhs` writes into a caller-owned `Tendency`.  It closes the boundary
stencils with ghost nodes inline: the gas field reflects at x = L, the
dissolved gas takes the interfacial flux `henry_flux` at y = 0 and the acid
loses the surface reaction `eta` at y = ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import GridSpec, check_macro, check_micro

Q_KINDS = ("constant", "linear_cutoff")


class AssumptionError(ValueError):
    """A model parameter or datum violates one of the assumption groups."""

    def __init__(self, label: str, message: str):
        super().__init__(f"[{label}] {message}")
        self.label = label


def _as_coefficient(value, name: str) -> float | np.ndarray:
    """Accept a scalar or a 1-D nonnegative sample vector on the cell nodes."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        val = float(arr)
        if not np.isfinite(val) or val < 0.0:
            raise AssumptionError("A2", f"{name} must be finite and >= 0, got {val}")
        return val
    if arr.ndim != 1:
        raise AssumptionError("A2", f"{name} must be a scalar or a 1-D sample vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise AssumptionError("A2", f"{name} samples must be finite and >= 0")
    return arr


@dataclass(frozen=True)
class ModelParams:
    """All physical constants and the named gypsum kernel.

    Setting bi_m = 0 disconnects the macro and micro scales and k = 0
    disables the surface reaction; both are used by the verification
    scenarios, the physical model has them strictly positive.
    """

    d1: float                      # gas diffusivity on the macro domain
    d2: float                      # dissolved-gas diffusivity in the cell
    d3: float                      # acid diffusivity in the cell
    bi_m: float                    # interfacial mass-transfer number, >= 0
    henry: float                   # gas/liquid solubility ratio, > 0
    u1_d: float                    # inlet gas concentration, >= 0
    k: float                       # surface reaction constant, >= 0
    alpha: float | np.ndarray      # dissolved-gas consumption coefficient
    beta: float | np.ndarray       # acid back-reaction coefficient
    c_bar: float = 1.0             # upper bound of the gypsum kernel Q
    q_kind: str = "constant"       # gypsum kernel: "constant" or "linear_cutoff"
    m3: float = 10.0               # acid bound in the step bound's gypsum row
    m4: float = 1.0                # gypsum bound used by "linear_cutoff"

    def __post_init__(self):
        for name in ("d1", "d2", "d3"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise AssumptionError("A1", f"{name} must be > 0, got {v}")
        if not (np.isfinite(self.henry) and self.henry > 0.0):
            raise AssumptionError("A1", f"henry must be > 0, got {self.henry}")
        if not (np.isfinite(self.bi_m) and self.bi_m >= 0.0):
            raise AssumptionError("A1", f"bi_m must be >= 0, got {self.bi_m}")
        if not (np.isfinite(self.u1_d) and self.u1_d >= 0.0):
            raise AssumptionError("A1", f"u1_d must be >= 0, got {self.u1_d}")
        object.__setattr__(self, "alpha", _as_coefficient(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_coefficient(self.beta, "beta"))
        if not (np.isfinite(self.k) and self.k >= 0.0):
            raise AssumptionError("A3", f"k must be >= 0, got {self.k}")
        for name in ("c_bar", "m3", "m4"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise AssumptionError("A3", f"{name} must be > 0, got {v}")
        if self.q_kind not in Q_KINDS:
            raise AssumptionError("A3", f"unknown q_kind {self.q_kind!r}")

    def alpha_row(self, grid: GridSpec) -> np.ndarray:
        return _coefficient_row(self.alpha, grid, "alpha")

    def beta_row(self, grid: GridSpec) -> np.ndarray:
        return _coefficient_row(self.beta, grid, "beta")


def _coefficient_row(coef, grid: GridSpec, name: str) -> np.ndarray:
    if np.ndim(coef) == 0:
        return np.full(grid.n_y + 1, float(coef))
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (grid.n_y + 1,):
        raise AssumptionError(
            "A2", f"{name} samples must have length n_y + 1 = {grid.n_y + 1}")
    return coef


def eta(r, s, params: ModelParams):
    """Surface reaction rate k * r * Q(s) for r >= 0 and s >= 0, else 0.

    Q is c_bar, or c_bar * max(0, 1 - s/m4) under "linear_cutoff", so the
    rate is nonnegative everywhere and grows with the acid r.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    q = params.c_bar
    if params.q_kind == "linear_cutoff":
        q = q * np.maximum(0.0, 1.0 - np.maximum(s, 0.0) / params.m4)
    value = params.k * np.maximum(r, 0.0) * q
    return np.where((r >= 0.0) & (s >= 0.0), value, 0.0)


@dataclass
class State:
    """The four concentration fields at one time instant.

    u1 holds the shifted gas concentration (inlet value subtracted), so its
    entry at i = 0 is zero at all times.  The physical gas concentration is
    u1 + u1_d.
    """

    t: float
    u1: np.ndarray   # shape (n_x + 1,)
    u2: np.ndarray   # shape (n_x + 1, n_y + 1)
    u3: np.ndarray   # shape (n_x + 1, n_y + 1)
    u4: np.ndarray   # shape (n_x + 1,)

    def copy(self) -> "State":
        return State(self.t, self.u1.copy(), self.u2.copy(),
                     self.u3.copy(), self.u4.copy())

    def validate(self, grid: GridSpec) -> "State":
        self.u1 = check_macro(grid, self.u1)
        self.u2 = check_micro(grid, self.u2)
        self.u3 = check_micro(grid, self.u3)
        self.u4 = check_macro(grid, self.u4)
        return self


@dataclass
class Tendency:
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray


def henry_flux(state: State, params: ModelParams) -> np.ndarray:
    """Interfacial exchange rate bi_m * (H*(u1 + u1_d) - u2|_{y=0})."""
    return params.bi_m * (
        params.henry * (state.u1 + params.u1_d) - state.u2[:, 0])


@dataclass
class SourceTerms:
    """Optional volume sources, used by the manufactured-solution harness.

    Each entry maps a time to a field of the matching shape; f1 acts on the
    interior macro nodes only (the pinned node keeps zero tendency).
    """

    f1: Callable[[float], np.ndarray]
    f2: Callable[[float], np.ndarray]
    f3: Callable[[float], np.ndarray]
    f4: Callable[[float], np.ndarray]


def rhs(state: State, params: ModelParams, grid: GridSpec,
        sources: SourceTerms | None = None,
        out: Tendency | None = None) -> Tendency:
    """Time derivative of the semi-discrete system at the given state.

    Fills `out` when given and returns the Tendency it filled.  The gas
    tendency at the pinned node i = 0 is identically zero.
    """
    state.validate(grid)
    u1, u2, u3, u4 = state.u1, state.u2, state.u3, state.u4
    if out is None:
        out = Tendency(*(np.empty(u.shape) for u in (u1, u2, u3, u4)))
    du1, du2, du3, du4 = out.u1, out.u2, out.u3, out.u4
    # scalars broadcast as they are; only sample vectors need the row check
    alpha = params.alpha if isinstance(params.alpha, float) else params.alpha_row(grid)
    beta = params.beta if isinstance(params.beta, float) else params.beta_row(grid)

    flux = henry_flux(state, params)
    surface = eta(u3[:, -1], u4, params)
    np.negative(flux, out=du1)
    np.multiply(u2, alpha, out=du3)
    du3 -= beta * u3
    np.negative(du3, out=du2)
    du4[...] = surface
    h_y = grid.h_y
    # gas field as one row; the pinned node's left ghost is immaterial
    _add_diffusion(du1[None], u1[None], params.d1, grid.h_x, u1[1:2], u1[-2:-1])
    _add_diffusion(du2, u2, params.d2, h_y,
                   u2[:, 1] + (2.0 * h_y / params.d2) * flux, u2[:, -2])
    _add_diffusion(du3, u3, params.d3, h_y,
                   u3[:, 1], u3[:, -2] - (2.0 * h_y / params.d3) * surface)
    du1[0] = 0.0

    if sources is not None:
        du1[1:] += np.asarray(sources.f1(state.t), dtype=float)[1:]
        du2 += np.asarray(sources.f2(state.t), dtype=float)
        du3 += np.asarray(sources.f3(state.t), dtype=float)
        du4 += np.asarray(sources.f4(state.t), dtype=float)
    return out


def _add_diffusion(du: np.ndarray, u: np.ndarray, d: float, h: float,
                   before: np.ndarray, after: np.ndarray) -> None:
    """du += d * the 3-point Laplacian of u along its rows, closed by the
    ghost columns `before` and `after`, as one slice stencil over the
    flattened field whose first and last columns, straddling two rows, are
    redone with the ghost values."""
    flat = u.reshape(-1)
    lap = np.empty(u.shape)
    inner = lap.reshape(-1)[1:-1]
    np.multiply(flat[1:-1], -2.0, out=inner)
    inner += flat[:-2]
    inner += flat[2:]
    lap[:, 0] = before - 2.0 * u[:, 0] + u[:, 1]
    lap[:, -1] = u[:, -2] - 2.0 * u[:, -1] + after
    lap /= h**2
    lap *= d
    du += lap


@dataclass
class InitialData:
    """Vectorized initial profiles, sampled onto the grids at projection."""

    u1: Callable[[np.ndarray], np.ndarray]
    u2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u3: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u4: Callable[[np.ndarray], np.ndarray]


def _sample_macro(f, x, name):
    vals = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape).copy()
    if not np.all(np.isfinite(vals)):
        raise AssumptionError("A4", f"initial {name} must be finite")
    return vals


def _sample_micro(f, x, y, name):
    shape = (x.size, y.size)
    vals = np.broadcast_to(
        np.asarray(f(x[:, None], y[None, :]), dtype=float), shape).copy()
    if not np.all(np.isfinite(vals)):
        raise AssumptionError("A4", f"initial {name} must be finite")
    return vals


def project_initial(initial: InitialData, params: ModelParams,
                    grid: GridSpec) -> State:
    """Sample the initial profiles at the grid nodes.

    The gas field is shifted by the inlet value and forced to zero at the
    pinned node.  Negative concentrations are rejected.
    """
    x = grid.x_nodes()
    y = grid.y_nodes()
    u1 = _sample_macro(initial.u1, x, "u1")
    u2 = _sample_micro(initial.u2, x, y, "u2")
    u3 = _sample_micro(initial.u3, x, y, "u3")
    u4 = _sample_macro(initial.u4, x, "u4")
    for name, vals in (("u1", u1), ("u2", u2), ("u3", u3), ("u4", u4)):
        if np.any(vals < 0.0):
            raise AssumptionError("A4", f"initial {name} must be nonnegative")
    u1_shifted = u1 - params.u1_d
    u1_shifted[0] = 0.0
    return State(t=0.0, u1=u1_shifted, u2=u2, u3=u3, u4=u4)


def unshifted_u1(state: State, params: ModelParams) -> np.ndarray:
    """Physical gas concentration, inlet value added back."""
    return state.u1 + params.u1_d
