"""Model parameters, the surface reaction, and the semi-discrete right-hand side.

The unknowns are the gas-phase concentration on the macro grid, whose node
at x = 0 holds the Dirichlet inlet value u1_d, the dissolved-gas and acid
concentrations on the micro grid, and the gypsum concentration on the macro
grid.  Every entry of a state is a concentration.

Parameter validation groups its constraints under four labels that the CLI
surfaces on rejection:

* A1  transport and exchange constants (diffusivities, transfer number,
      solubility ratio, inlet value)
* A2  volume-exchange coefficients alpha, beta (nonnegative scalars; the
      paper's cell-varying coefficients are not supported)
* A3  surface reaction (rate constant, the gypsum bound m4, the gypsum
      kernel Q)
* A4  initial data (finite, nonnegative)

A `State` (and a `Tendency`, its time derivative) is one flat float64
vector y = (u1, u2, u3, u4) with the four fields as views into it.  u2 and
u3 follow each other, so together they are the contiguous `micro` block of
shape (2 (n_x + 1), n_y + 1).  Callers write through the fields
(`state.u2[...] = ...`); the constructors pack their fields into a new
vector once, and `view` wraps an existing one without copying.

`rhs` writes into a caller-owned `Tendency`.  Its diffusion is one
second-difference pass over the head of y, the gas row and the micro block
together, whose row ends are then replaced by the boundary closures: the
gas field reflects at x = L, the dissolved gas takes the interfacial flux
`henry_flux` at y = 0 and the acid loses the surface reaction `eta` at
y = ell, all through ghost nodes.  A call costs about 20, 27 and 39 us at
8^2, 32^2 and 64^2 (fig1, timeit best of 25 x 1,000 on a 2-core Intel
Xeon, Python 3.11.7, numpy 2.4.6).  numpy's dispatch sets it up to 32^2,
so the kernel makes few numpy calls; at 64^2 data passes are about half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import GridError, GridSpec

Q_KINDS = ("constant", "linear_cutoff")


class AssumptionError(ValueError):
    """A model parameter or datum violates one of the assumption groups."""

    def __init__(self, label: str, message: str):
        super().__init__(f"[{label}] {message}")
        self.label = label


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
    alpha: float                   # dissolved-gas consumption coefficient
    beta: float                    # acid back-reaction coefficient
    q_kind: str = "constant"       # gypsum kernel: "constant" or "linear_cutoff"
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
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if np.ndim(v) != 0:
                raise AssumptionError(
                    "A2", f"{name} must be a scalar, got shape {np.shape(v)}")
            v = float(v)
            if not (np.isfinite(v) and v >= 0.0):
                raise AssumptionError("A2", f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        if not (np.isfinite(self.k) and self.k >= 0.0):
            raise AssumptionError("A3", f"k must be >= 0, got {self.k}")
        if not (np.isfinite(self.m4) and self.m4 > 0.0):
            raise AssumptionError("A3", f"m4 must be > 0, got {self.m4}")
        if self.q_kind not in Q_KINDS:
            raise AssumptionError("A3", f"unknown q_kind {self.q_kind!r}")


def eta(r, s, params: ModelParams) -> np.ndarray:
    """Surface reaction rate k * r * Q(s) for r >= 0 and s >= 0, else 0.

    Q is 1, or max(0, 1 - s/m4) under "linear_cutoff", so the rate is
    nonnegative everywhere and grows with the acid r.  r and s have one
    shape; scalars give a 0-d array.
    """
    value = np.maximum(r, 0.0, out=np.empty(np.shape(r)))   # r < 0 gives 0 here
    value *= params.k
    if params.q_kind == "linear_cutoff":
        value *= np.maximum(0.0, 1.0 - np.maximum(s, 0.0) / params.m4)
    value[s < 0.0] = 0.0
    return value


class _Fields:
    """The layout State and Tendency share: the four fields as views of one
    flat float64 vector y = (u1, u2, u3, u4).

    u2 and u3 are consecutive, so together they form the contiguous `micro`
    block of shape (2 (n_x + 1), n_y + 1), u2 its first n_x + 1 rows and u3
    the rest.  The fields are read-only attributes; callers write through
    them (`state.u2[...] = ...`), so y stays the one buffer behind all four.
    """

    u1 = property(lambda self: self._views[0])   # shape (n_x + 1,)
    u2 = property(lambda self: self._views[1])   # shape (n_x + 1, n_y + 1)
    u3 = property(lambda self: self._views[2])   # shape (n_x + 1, n_y + 1)
    u4 = property(lambda self: self._views[3])   # shape (n_x + 1,)

    def __init__(self, u1, u2, u3, u4):
        u1, u2, u3, u4 = (np.asarray(u, dtype=float) for u in (u1, u2, u3, u4))
        if (u1.ndim != 1 or u4.shape != u1.shape or u2.ndim != 2
                or u2.shape[0] != u1.size or u3.shape != u2.shape):
            raise GridError(
                f"fields do not fit one grid: u1 {u1.shape}, u2 {u2.shape}, "
                f"u3 {u3.shape}, u4 {u4.shape}")
        self._bind(np.concatenate((u1, u2.ravel(), u3.ravel(), u4)), u2.shape)

    @classmethod
    def _wrap(cls, y: np.ndarray, shape: tuple[int, int]):
        fields = cls.__new__(cls)
        fields._bind(y, shape)
        return fields

    def _bind(self, y: np.ndarray, shape: tuple[int, int]) -> None:
        nm, nc = shape
        if (y.dtype != np.float64 or y.shape != (nm * (2 * nc + 2),)
                or not y.flags.c_contiguous):
            raise GridError(f"state vector must be contiguous float64 of length "
                            f"{nm * (2 * nc + 2)}, got {y.dtype} {y.shape}")
        self.y = y
        self.shape = shape   # (n_x + 1, n_y + 1), that of u2 and u3
        self.micro = y[nm:nm + 2 * nm * nc].reshape(2 * nm, nc)
        self._views = (y[:nm], self.micro[:nm], self.micro[nm:], y[nm + 2 * nm * nc:])

    def validate(self, grid: GridSpec) -> None:
        """Raise GridError unless the fields are laid out for `grid`."""
        if self.shape != (grid.n_x + 1, grid.n_y + 1):
            raise GridError(f"fields of shape {self.shape} do not fit the "
                            f"{grid.n_x} x {grid.n_y} grid")


class State(_Fields):
    """The four concentration fields at time t, as views of one vector y.

    u1 is the gas concentration; its entry at i = 0 is the Dirichlet inlet
    value u1_d, which `rhs` gives zero tendency.
    """

    def __init__(self, t: float, u1, u2, u3, u4):
        self.t = t
        super().__init__(u1, u2, u3, u4)

    @classmethod
    def view(cls, t: float, y: np.ndarray, grid: GridSpec) -> "State":
        """The state at time t whose fields are views of y; no copy."""
        state = cls._wrap(y, (grid.n_x + 1, grid.n_y + 1))
        state.t = t
        return state


class Tendency(_Fields):
    """Time derivatives of the four fields, in the layout of State."""

    @classmethod
    def view(cls, y: np.ndarray, grid: GridSpec) -> "Tendency":
        """The tendency whose fields are views of y; no copy."""
        return cls._wrap(y, (grid.n_x + 1, grid.n_y + 1))


def henry_flux(state: State, params: ModelParams) -> np.ndarray:
    """Interfacial exchange rate bi_m * (H*u1 - u2|_{y=0})."""
    flux = state.u1 * params.henry
    flux -= state.u2[:, 0]
    flux *= params.bi_m
    return flux


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
    if out is None:
        out = Tendency.view(np.empty(state.y.size), grid)
    _, u2, u3, u4 = state._views
    du1, du2, du3, du4 = out._views

    flux = henry_flux(state, params)
    surface = eta(u3[:, -1], u4, params)
    np.negative(flux, out=du1)
    # the volume exchange alpha u2 - beta u3 leaves u2 and enters u3
    np.multiply(u3, params.beta, out=du2)
    np.multiply(u2, params.alpha, out=du3)
    du3 -= du2
    np.negative(du3, out=du2)
    du4[...] = surface
    _add_diffusion(state, params, grid, flux, surface, out)
    du1[0] = 0.0

    if sources is not None:
        du1[1:] += np.asarray(sources.f1(state.t), dtype=float)[1:]
        du2 += np.asarray(sources.f2(state.t), dtype=float)
        du3 += np.asarray(sources.f3(state.t), dtype=float)
        du4 += np.asarray(sources.f4(state.t), dtype=float)
    return out


def _add_diffusion(state: State, params: ModelParams, grid: GridSpec,
                   flux: np.ndarray, surface: np.ndarray, out: Tendency) -> None:
    """out += the diffusion terms with their boundary closures.

    One second difference runs over the head of y, the gas row and the
    micro block as one vector, so every row end first sees its neighbouring
    row.  The gas row's end at x = L is then reflected; its pinned node
    i = 0 keeps a finite value that `rhs` overwrites.  The ends of the micro
    rows, at y = 0 and y = ell, are rebuilt as one (2 (n_x + 1), 2) block:
    reflected, with the Robin ghosts folded in, the exchange flux into u2
    at y = 0 and the surface loss out of u3 at y = ell.  The gas row is
    scaled by d1/h_x^2, the u2 rows by d2/h_y^2 and the u3 rows by
    d3/h_y^2, and the sum is added into out.y once.
    """
    nm, nc = state.shape
    h_y = grid.h_y
    head = state.y[:nm * (2 * nc + 1)]
    lap = np.multiply(head, -2.0)
    lap[1:-1] += head[:-2]
    lap[1:-1] += head[2:]
    lap[nm - 1] = 2.0 * (head[nm - 2] - head[nm - 1])

    micro = state.micro
    # columns 1 and n_y - 1, the inner neighbours of the row ends; with
    # n_y = 2 both are column 1
    inner = micro[:, 1:nc - 1:nc - 3] if nc > 3 else micro[:, 1:2]
    ends = inner - micro[:, ::nc - 1]
    ends[:nm, 0] += (h_y / params.d2) * flux
    ends[nm:, 1] -= (h_y / params.d3) * surface
    lap_micro = lap[nm:].reshape(2 * nm, nc)
    np.multiply(ends, 2.0, out=lap_micro[:, ::nc - 1])
    lap[:nm] *= params.d1 / grid.h_x**2
    lap_micro[:nm] *= params.d2 / h_y**2
    lap_micro[nm:] *= params.d3 / h_y**2
    out.y[:lap.size] += lap


@dataclass
class InitialData:
    """Vectorized initial profiles, sampled onto the grids at projection."""

    u1: Callable[[np.ndarray], np.ndarray]
    u2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u3: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u4: Callable[[np.ndarray], np.ndarray]


def project_initial(initial: InitialData, params: ModelParams,
                    grid: GridSpec) -> State:
    """Sample the initial profiles at the grid nodes.

    Every profile is checked finite before any is checked nonnegative;
    negative concentrations are rejected.  The gas field's node at x = 0 is
    set to the inlet value u1_d.
    """
    x = grid.x_nodes()
    xy = (x[:, None], grid.y_nodes()[None, :])
    fields = {}
    for name, f, args in (("u1", initial.u1, (x,)), ("u2", initial.u2, xy),
                          ("u3", initial.u3, xy), ("u4", initial.u4, (x,))):
        shape = np.broadcast_shapes(*(a.shape for a in args))
        fields[name] = np.broadcast_to(np.asarray(f(*args), dtype=float), shape).copy()
        if not np.all(np.isfinite(fields[name])):
            raise AssumptionError("A4", f"initial {name} must be finite")
    for name, vals in fields.items():
        if np.any(vals < 0.0):
            raise AssumptionError("A4", f"initial {name} must be nonnegative")
    fields["u1"][0] = params.u1_d
    return State(t=0.0, **fields)
