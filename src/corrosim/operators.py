"""Discrete gradient/divergence stencils and their exact identities.

Gradients map node fields to staggered edge fields, divergences map edge
fields back to node fields.  Divergence values at boundary nodes need
out-of-grid (ghost) data, which the caller supplies explicitly; ghost
values are never stored inside field arrays.  The Laplacian `rhs` applies
is built in `model`.

The summation-by-parts residuals below check the discrete Green-like
formulas that pair divergence against gradient plus boundary flux terms,
and `trace_inequality_check` evaluates both sides of the discrete trace
bound with its explicit constant.

Every function indexes fields from their trailing grid axes, so a stack of
fields (see `grids`) gives one result per field.
"""

from __future__ import annotations

import numpy as np

from .grids import (
    GridSpec,
    check_macro,
    check_macro_edge,
    check_micro,
    check_micro_edge,
    ip_macro,
    ip_macro_edge,
    ip_micro,
    ip_micro_edge,
    norm_micro,
    norm_micro_edge,
)


def grad_macro(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Forward difference (u_{i+1} - u_i)/h_x on the staggered macro grid."""
    u = check_macro(grid, u)
    return np.diff(u, axis=-1) / grid.h_x


def grad_micro(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Forward difference (u_{i,j+1} - u_{ij})/h_y along the cell axis."""
    u = check_micro(grid, u)
    return np.diff(u, axis=-1) / grid.h_y


def div_macro(grid: GridSpec, v: np.ndarray, right_ghost: float) -> np.ndarray:
    """Centered divergence (v_{i+1/2} - v_{i-1/2})/h_x at nodes i = 1..n_x.

    The node i = n_x needs the out-of-grid edge value v_{n_x+1/2}, passed as
    right_ghost.
    """
    v = check_macro_edge(grid, v)
    return np.diff(v, axis=-1, append=np.expand_dims(right_ghost, -1)) / grid.h_x


def div_micro(grid: GridSpec, v: np.ndarray,
              bottom_ghost: np.ndarray, top_ghost: np.ndarray) -> np.ndarray:
    """Centered divergence along y at all nodes j = 0..n_y.

    Rows j = 0 and j = n_y need the ghost edge values v_{i,-1/2} and
    v_{i,n_y+1/2}, passed as macro-field-shaped vectors.
    """
    v = check_micro_edge(grid, v)
    bottom = check_macro(grid, bottom_ghost)
    top = check_macro(grid, top_ghost)
    ext = np.concatenate([bottom[..., None], v, top[..., None]], axis=-1)
    return np.diff(ext, axis=-1) / grid.h_y


def green_macro_residual(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Residual of the macro summation-by-parts identity.

    For u with u_0 = 0 and an edge field v extended by the reflection
    v_{n_x+1/2} = -v_{n_x-1/2}, the identity

        (u, div v) + (grad u, v)_edges = 0

    holds exactly, with div v, defined at i = 1..n_x, set to zero at the
    node x = 0, where u vanishes.  Returns the absolute residual; u_0 = 0
    is required of every field.
    """
    u = check_macro(grid, u)
    v = check_macro_edge(grid, v)
    if np.any(u[..., 0] != 0.0):
        raise ValueError("macro identity requires u = 0 at x = 0")
    dv = div_macro(grid, v, right_ghost=-v[..., -1])
    full = np.concatenate([np.zeros_like(dv[..., :1]), dv], axis=-1)
    lhs = ip_macro(grid, full, u)
    rhs = ip_macro_edge(grid, grad_macro(grid, u), v)
    return abs(lhs + rhs)


def green_micro_residual(grid: GridSpec, u: np.ndarray, v: np.ndarray,
                         delta1: np.ndarray, delta2: np.ndarray) -> float:
    """Residual of the micro summation-by-parts identity with flux data.

    delta1 and delta2 are the boundary flux densities at y = 0 and y = ell.
    The ghost edges implied by them,

        v_{i,-1/2}     = -2 delta1_i - v_{i,1/2},
        v_{i,n_y+1/2}  =  2 delta2_i - v_{i,n_y-1/2},

    close the divergence, and then

        (u, div v) + (grad u, v) - (u|_{y=0}, delta1) - (u|_{y=ell}, delta2) = 0

    holds exactly.  Returns the absolute residual.
    """
    u = check_micro(grid, u)
    v = check_micro_edge(grid, v)
    delta1 = check_macro(grid, delta1)
    delta2 = check_macro(grid, delta2)
    bottom = -2.0 * delta1 - v[..., 0]
    top = 2.0 * delta2 - v[..., -1]
    dv = div_micro(grid, v, bottom_ghost=bottom, top_ghost=top)
    res = (ip_micro(grid, u, dv)
           + ip_micro_edge(grid, grad_micro(grid, u), v)
           - ip_macro(grid, u[..., 0], delta1)
           - ip_macro(grid, u[..., -1], delta2))
    return abs(res)


def trace_inequality_check(grid: GridSpec, u: np.ndarray) -> tuple[float, float]:
    """Both sides of the discrete trace bound with constant 2*ell.

    Returns (lhs, rhs) where

        lhs = ||u|_{y=ell}||^2,
        rhs = 2*ell * (||grad_y u||^2 + ||u||^2).

    The explicit constant is valid for ell >= 1; for shorter cells the
    inequality as stated may fail and callers should treat rhs as the
    reference value of the constructive bound, not a universal ceiling.
    """
    u = check_micro(grid, u)
    lhs = ip_macro(grid, u[..., -1], u[..., -1])
    rhs = 2.0 * grid.cell_length * (
        norm_micro_edge(grid, grad_micro(grid, u))**2 + norm_micro(grid, u)**2)
    return lhs, rhs
