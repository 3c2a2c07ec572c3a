"""Equidistant macro/micro grids and weighted discrete L2 scalar products.

The simulator couples a one-dimensional macroscopic domain (0, L), resolved
by nodes x_i = i*h_x, to a microscopic cell (0, ell) attached to every macro
node and resolved by nodes y_j = j*h_y.  Grid functions are plain numpy
arrays with the following shape conventions:

* macro field        shape (n_x + 1,)          values at x_i
* micro field        shape (n_x + 1, n_y + 1)  values at (x_i, y_j)
* macro edge field   shape (n_x,)              values at x_{i+1/2}
* micro edge field   shape (n_x + 1, n_y)      values at (x_i, y_{j+1/2})

A stack of fields adds a leading batch axis: the checks look at the
trailing grid axes only, and the products and norms reduce over them, giving
one value per field of a stack and a Python float for a single field.

Micro storage is row-major with the macro index i slow, so the cell attached
to one macro node is contiguous, and the traces of a micro field u at y = 0
and y = ell are the macro fields u[:, 0] and u[:, -1].

The discrete L2 products carry trapezoid weights (one half at the two
endpoint indices of each axis), so a constant field integrates to exactly L,
respectively L*ell.  Edge products in the staggered x-direction carry no
weight.  All products accumulate in float64 with numpy's native (pairwise)
summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid geometry or a grid-function shape mismatch."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the coupled macro/micro grid.

    The step sizes are always derived from the lengths and the subinterval
    counts; they are never stored independently.
    """

    length: float       # L, macro domain length
    cell_length: float  # ell, micro cell length
    n_x: int            # macro subintervals, >= 2
    n_y: int            # micro subintervals, >= 2

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise GridError(f"macro length must be positive, got {self.length}")
        if not (self.cell_length > 0.0 and np.isfinite(self.cell_length)):
            raise GridError(f"cell length must be positive, got {self.cell_length}")
        if not (isinstance(self.n_x, (int, np.integer))
                and isinstance(self.n_y, (int, np.integer))):
            raise GridError(f"subinterval counts must be integers, "
                            f"got {self.n_x!r} and {self.n_y!r}")
        if self.n_x < 2:
            raise GridError(f"need at least 2 macro subintervals, got {self.n_x}")
        if self.n_y < 2:
            raise GridError(f"need at least 2 micro subintervals, got {self.n_y}")

    @property
    def h_x(self) -> float:
        return self.length / self.n_x

    @property
    def h_y(self) -> float:
        return self.cell_length / self.n_y

    def x_nodes(self) -> np.ndarray:
        """Macro nodes x_i = i*h_x, i = 0..n_x."""
        return np.arange(self.n_x + 1) * self.h_x

    def y_nodes(self) -> np.ndarray:
        """Micro nodes y_j = j*h_y, j = 0..n_y."""
        return np.arange(self.n_y + 1) * self.h_y

    def refine(self, factor: int) -> "GridSpec":
        """Same domain with both subinterval counts multiplied by factor."""
        return GridSpec(self.length, self.cell_length,
                        self.n_x * factor, self.n_y * factor)


def _trapezoid_weights(n: int) -> np.ndarray:
    """Weights gamma_0..gamma_n: one half at both endpoints, one inside."""
    g = np.ones(n + 1)
    g[0] = 0.5
    g[-1] = 0.5
    return g


def _check_shape(u: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[u.ndim - len(shape):] != shape:
        raise GridError(f"{what} must have shape {shape}, got {u.shape}")
    return u


def _value(x):
    """A Python float for one field, the array itself for a stack."""
    return x if np.ndim(x) else float(x)


def field_sum(terms: np.ndarray, axes: int):
    """Sum over the trailing `axes` grid axes, one value per field; in C
    order, so each field of a stack (fancy indexing may leave it batch-last
    in memory) adds up exactly as it does alone."""
    return _value(np.sum(np.ascontiguousarray(terms), axis=tuple(range(-axes, 0))))


def check_macro(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    return _check_shape(u, (grid.n_x + 1,), "macro field")


def check_micro(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    return _check_shape(u, (grid.n_x + 1, grid.n_y + 1), "micro field")


def check_macro_edge(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    return _check_shape(u, (grid.n_x,), "macro edge field")


def check_micro_edge(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    return _check_shape(u, (grid.n_x + 1, grid.n_y), "micro edge field")


def ip_macro(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted product h_x * sum_i gamma1_i u_i v_i over the macro nodes."""
    u = check_macro(grid, u)
    v = check_macro(grid, v)
    g = _trapezoid_weights(grid.n_x)
    return grid.h_x * field_sum(g * u * v, 1)


def ip_micro(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted product h_x h_y * sum_ij gamma1_i gamma2_j u_ij v_ij."""
    u = check_micro(grid, u)
    v = check_micro(grid, v)
    g1 = _trapezoid_weights(grid.n_x)
    g2 = _trapezoid_weights(grid.n_y)
    return grid.h_x * grid.h_y * field_sum(g1[:, None] * g2[None, :] * u * v, 2)


def ip_macro_edge(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Unweighted product h_x * sum_i u_{i+1/2} v_{i+1/2}."""
    u = check_macro_edge(grid, u)
    v = check_macro_edge(grid, v)
    return grid.h_x * field_sum(u * v, 1)


def ip_micro_edge(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Product h_x h_y * sum_ij gamma1_i u_{i,j+1/2} v_{i,j+1/2}.

    Only the non-staggered macro direction carries a weight.
    """
    u = check_micro_edge(grid, u)
    v = check_micro_edge(grid, v)
    g1 = _trapezoid_weights(grid.n_x)
    return grid.h_x * grid.h_y * field_sum(g1[:, None] * u * v, 2)


def norm_macro(grid: GridSpec, u: np.ndarray) -> float:
    return _value(np.sqrt(ip_macro(grid, u, u)))


def norm_micro(grid: GridSpec, u: np.ndarray) -> float:
    return _value(np.sqrt(ip_micro(grid, u, u)))


def norm_macro_edge(grid: GridSpec, u: np.ndarray) -> float:
    return _value(np.sqrt(ip_macro_edge(grid, u, u)))


def norm_micro_edge(grid: GridSpec, u: np.ndarray) -> float:
    return _value(np.sqrt(ip_micro_edge(grid, u, u)))

