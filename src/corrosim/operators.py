"""Discrete gradients and the discrete trace bound.

Gradients map node fields to staggered edge fields by forward differences.
The diffusion `rhs` applies, with its ghost-node boundary closures, is
built in `model`; `verify` checks its summation-by-parts identities against
these gradients.  `trace_inequality_check` evaluates both sides of the
discrete trace bound with its explicit constant.

Every function indexes fields from their trailing grid axes, so a stack of
fields (see `grids`) gives one result per field.
"""

from __future__ import annotations

import numpy as np

from .grids import (
    GridSpec,
    check_macro,
    check_micro,
    ip_macro,
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
