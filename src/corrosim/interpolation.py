"""Extensions of grid functions to almost-everywhere-defined functions, the
scalar-product identities they satisfy, and the one manufactured problem
whose refinement study `corrosim mms` reports.

Two extensions are provided.  The piecewise-constant one lives on dual
cells: node i owns [x_i - h_x/2, x_i + h_x/2] clipped to the domain, so the
cell measures reproduce the trapezoid weights exactly.  The piecewise-linear
one lives on the intervals [x_i, x_{i+1}] (macro) and on the two triangles
splitting each grid rectangle along its anti-diagonal (micro); it is
continuous and interpolates the nodal values exactly.

With these choices the L2 products of constant extensions equal the
weighted discrete products, and the L2 products of the piecewise-linear
gradients equal the staggered-grid products, both as exact identities.
`extension_products` evaluates the L2 side by exact per-cell quadrature
through the evaluation maps, so agreement is a real cross-check of the
extension code against the discrete products.

`ManufacturedSolution` is a fixed forced problem on the unit square with
fixed parameters; `mms_convergence` integrates it from its exact state on
an 8^2 grid and its refinements by 2^k to t = 0.5 and returns the error and
observed-order arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import (
    GridSpec,
    check_macro,
    check_micro,
    field_sum,
    ip_macro,
    ip_macro_edge,
    ip_micro,
    ip_micro_edge,
    norm_macro,
    norm_micro,
)
from .integrator import TimeSpec, integrate
from .model import ModelParams, SourceTerms, State
from .operators import grad_macro, grad_micro


def _axis_points(x: np.ndarray, length: float, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= length)):  # NaN fails both
        raise ValueError(f"{what} coordinate outside [0, {length}]")
    return x


def _dual_index(x: np.ndarray, h: float, n: int) -> np.ndarray:
    # cell boundaries sit at (i + 1/2) h; a point exactly on a boundary
    # belongs to the lower-index cell
    boundaries = (np.arange(n) + 0.5) * h
    return np.searchsorted(boundaries, x, side="left")


def _interval_index(x: np.ndarray, h: float, n: int) -> np.ndarray:
    nodes = np.arange(n + 1) * h
    return np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, n - 1)


def dual_cell_bounds(grid: GridSpec, axis: str) -> np.ndarray:
    """Per-node dual cell intervals, clipped to the domain.

    Returns an array of shape (n + 1, 2) with rows (lo, hi); the measures
    hi - lo reproduce the trapezoid weights times the step size.
    """
    if axis == "x":
        n, h, length = grid.n_x, grid.h_x, grid.length
    elif axis == "y":
        n, h, length = grid.n_y, grid.h_y, grid.cell_length
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    centers = np.arange(n + 1) * h
    lo = np.maximum(centers - 0.5 * h, 0.0)
    hi = np.minimum(centers + 0.5 * h, length)
    return np.column_stack([lo, hi])


def pwc_eval_macro(grid: GridSpec, u: np.ndarray, x) -> np.ndarray:
    """Piecewise-constant extension of a macro field, evaluated at x."""
    u = check_macro(grid, u)
    x = _axis_points(x, grid.length, "x")
    return u[..., _dual_index(x, grid.h_x, grid.n_x)]


def pwc_eval_micro(grid: GridSpec, u: np.ndarray, x, y) -> np.ndarray:
    """Piecewise-constant extension of a micro field, evaluated at (x, y)."""
    u = check_micro(grid, u)
    x = _axis_points(x, grid.length, "x")
    y = _axis_points(y, grid.cell_length, "y")
    i = _dual_index(x, grid.h_x, grid.n_x)
    j = _dual_index(y, grid.h_y, grid.n_y)
    return u[..., i, j]


def pwl_eval_macro(grid: GridSpec, u: np.ndarray, x) -> np.ndarray:
    """Continuous piecewise-linear extension of a macro field."""
    u = check_macro(grid, u)
    x = _axis_points(x, grid.length, "x")
    i = _interval_index(x, grid.h_x, grid.n_x)
    xi = (x - i * grid.h_x) / grid.h_x
    return u[..., i] + (u[..., i + 1] - u[..., i]) * xi


def pwl_eval_micro(grid: GridSpec, u: np.ndarray, x, y) -> np.ndarray:
    """Continuous piecewise-linear extension of a micro field.

    Each grid rectangle splits along its anti-diagonal; the affine pieces
    interpolate the three triangle vertices, which makes the extension
    continuous across every shared edge.
    """
    u = check_micro(grid, u)
    x = _axis_points(x, grid.length, "x")
    y = _axis_points(y, grid.cell_length, "y")
    i = _interval_index(x, grid.h_x, grid.n_x)
    j = _interval_index(y, grid.h_y, grid.n_y)
    xi = (x - i * grid.h_x) / grid.h_x
    ups = (y - j * grid.h_y) / grid.h_y
    lower = (u[..., i, j]
             + (u[..., i + 1, j] - u[..., i, j]) * xi
             + (u[..., i, j + 1] - u[..., i, j]) * ups)
    upper = (u[..., i + 1, j + 1]
             + (u[..., i + 1, j + 1] - u[..., i, j + 1]) * (xi - 1.0)
             + (u[..., i + 1, j + 1] - u[..., i + 1, j]) * (ups - 1.0))
    return np.where(xi + ups <= 1.0, lower, upper)


def extension_products(grid: GridSpec, u_g: np.ndarray, v_g: np.ndarray,
                       u_f: np.ndarray, v_f: np.ndarray) -> dict[str, tuple[float, float]]:
    """Exact L2 products of the extensions next to the discrete products.

    Returns, for each identity, the pair (l2_value, discrete_value):

    * "macro_values":     constant extensions over the dual macro cells
    * "macro_gradients":  linear-extension slopes over the intervals
    * "micro_values":     constant extensions over the dual rectangles
    * "micro_gradients":  cell-axis slopes of the linear extension over the
                          triangle pairs

    The L2 side integrates piecewise-constant integrands cell by cell
    through the evaluation maps, so it is exact quadrature computed on an
    independent path.  For stacks of fields (a leading batch axis on all
    four) every value is an array with one entry per field.
    """
    u_g = check_macro(grid, u_g)
    v_g = check_macro(grid, v_g)
    u_f = check_micro(grid, u_f)
    v_f = check_micro(grid, v_f)
    hx, hy = grid.h_x, grid.h_y

    bounds_x = dual_cell_bounds(grid, "x")
    bounds_y = dual_cell_bounds(grid, "y")
    mx = bounds_x[:, 1] - bounds_x[:, 0]
    my = bounds_y[:, 1] - bounds_y[:, 0]
    cx = 0.5 * (bounds_x[:, 0] + bounds_x[:, 1])
    cy = 0.5 * (bounds_y[:, 0] + bounds_y[:, 1])

    macro_vals_l2 = field_sum(
        mx * pwc_eval_macro(grid, u_g, cx) * pwc_eval_macro(grid, v_g, cx), 1)

    cxy = (cx[:, None], cy[None, :])
    micro_vals_l2 = field_sum(
        mx[:, None] * my[None, :]
        * pwc_eval_micro(grid, u_f, *cxy) * pwc_eval_micro(grid, v_f, *cxy), 2)

    # macro gradient: slope per interval recovered from endpoint evaluations
    nodes = grid.x_nodes()
    su = np.diff(pwl_eval_macro(grid, u_g, nodes), axis=-1) / hx
    sv = np.diff(pwl_eval_macro(grid, v_g, nodes), axis=-1) / hx
    macro_grad_l2 = field_sum(hx * su * sv, 1)

    # micro cell-axis gradient: constant per triangle, recovered from the
    # vertex evaluations of each rectangle
    corners = (nodes[:, None], grid.y_nodes()[None, :])
    cu = pwl_eval_micro(grid, u_f, *corners)
    cv = pwl_eval_micro(grid, v_f, *corners)
    gy_low_u = (cu[..., :-1, 1:] - cu[..., :-1, :-1]) / hy   # left edge of each rectangle
    gy_low_v = (cv[..., :-1, 1:] - cv[..., :-1, :-1]) / hy
    gy_up_u = (cu[..., 1:, 1:] - cu[..., 1:, :-1]) / hy      # right edge
    gy_up_v = (cv[..., 1:, 1:] - cv[..., 1:, :-1]) / hy
    micro_grad_l2 = field_sum(
        0.5 * hx * hy * (gy_low_u * gy_low_v + gy_up_u * gy_up_v), 2)

    return {
        "macro_values": (macro_vals_l2, ip_macro(grid, u_g, v_g)),
        "macro_gradients": (macro_grad_l2,
                            ip_macro_edge(grid, grad_macro(grid, u_g),
                                          grad_macro(grid, v_g))),
        "micro_values": (micro_vals_l2, ip_micro(grid, u_f, v_f)),
        "micro_gradients": (micro_grad_l2,
                            ip_micro_edge(grid, grad_micro(grid, u_f),
                                          grad_micro(grid, v_f))),
    }


def extension_product_residuals(grid: GridSpec, u_g, v_g, u_f, v_f) -> dict[str, float]:
    """Relative residuals |l2 - discrete| / (1 + |l2| + |discrete|)."""
    pairs = extension_products(grid, u_g, v_g, u_f, v_f)
    return {name: abs(a - b) / (1.0 + abs(a) + abs(b))
            for name, (a, b) in pairs.items()}


# ---------------------------------------------------------------------------
# the manufactured solution


class ManufacturedSolution:
    """Closed-form fields on the unit square satisfying all boundary
    conditions exactly, with the volume sources that make them solve the
    system for the fixed parameters `params`.

    The gas field is given in shifted form (zero at the inlet).  The cell
    boundary data are compatible by construction: the dissolved-gas trace at
    y = 0 equals the solubility ratio times the gas value, its slope
    vanishes there and at y = 1, and the acid profile cos(lam*y), lam = pi/4,
    satisfies the surface-reaction flux balance because k is set to
    d3*lam*tan(lam)/c_bar, with the constant gypsum kernel Q = c_bar.
    `exact_state` samples the fields at the grid nodes; at t = 0 it is the
    start state of the convergence study.

    Every source has the form P(x, y) + Q(x, y) e^{-t}: the envelopes a, b
    and c and the growth of u4 are affine in e^{-t}.  `sources` evaluates
    P = f(t = inf) and Q = f(0) - P once per grid, so the closed forms stay
    the only definition of the sources, and a new envelope must stay affine
    in e^{-t}.
    """

    lam = np.pi / 4.0       # acid profile wavenumber
    params = ModelParams(
        d1=0.1, d2=0.1, d3=0.1, bi_m=0.5, henry=0.8, u1_d=1.0,
        k=0.1 * lam * np.tan(lam),      # the flux balance d3*lam*tan(lam)/c_bar
        alpha=0.4, beta=0.3, c_bar=1.0, q_kind="constant", m3=10.0, m4=2.0)

    # time envelopes
    @staticmethod
    def _a(t):
        return 0.3 + 0.2 * np.exp(-t)

    @staticmethod
    def _b(t):
        return 0.25 + 0.125 * np.exp(-t)

    @staticmethod
    def _c(t):
        return 0.4 + 0.2 * np.exp(-t)

    @staticmethod
    def _g2(x):
        return 1.5 + np.cos(np.pi * x)

    @staticmethod
    def _g3(x):
        return 1.0 + 0.5 * np.cos(np.pi * x)

    def u1(self, x, t):
        return self._a(t) * np.sin(0.5 * np.pi * x)

    def u2(self, x, y, t):
        p = self.params
        psi = 1.0 - np.cos(2.0 * np.pi * y)
        return p.henry * (self.u1(x, t) + p.u1_d) + self._b(t) * self._g2(x) * psi

    def u3(self, x, y, t):
        return self._c(t) * self._g3(x) * np.cos(self.lam * y)

    def u4(self, x, t):
        return 0.5 + 0.1 * (1.0 - np.exp(-t)) * self._g3(x)

    def f1(self, x, t):
        # the interfacial term vanishes on the exact solution
        p = self.params
        sin = np.sin(0.5 * np.pi * x)
        da = -0.2 * np.exp(-t)
        ddx = -self._a(t) * (0.5 * np.pi) ** 2 * sin
        return da * sin - p.d1 * ddx

    def f2(self, x, y, t):
        p = self.params
        psi = 1.0 - np.cos(2.0 * np.pi * y)
        ddy = (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * y)
        db = -0.125 * np.exp(-t)
        du1_dt = -0.2 * np.exp(-t) * np.sin(0.5 * np.pi * x)
        du2_dt = p.henry * du1_dt + db * self._g2(x) * psi
        exch = p.alpha * self.u2(x, y, t) - p.beta * self.u3(x, y, t)
        return du2_dt - p.d2 * self._b(t) * self._g2(x) * ddy + exch

    def f3(self, x, y, t):
        p = self.params
        dc = -0.2 * np.exp(-t)
        cos = np.cos(self.lam * y)
        du3_dt = dc * self._g3(x) * cos
        ddy = -self._c(t) * self.lam**2 * self._g3(x) * cos
        exch = p.alpha * self.u2(x, y, t) - p.beta * self.u3(x, y, t)
        return du3_dt - p.d3 * ddy - exch

    def f4(self, x, t):
        p = self.params
        du4_dt = 0.1 * np.exp(-t) * self._g3(x)
        surface = p.k * p.c_bar * self.u3(x, 1.0, t)
        return du4_dt - surface

    def sources(self, grid: GridSpec) -> SourceTerms:
        x = grid.x_nodes()
        X = x[:, None]
        Y = grid.y_nodes()[None, :]

        def split(f, *args):
            # P at e^{-t} = 0, Q from e^{-t} = 1; each call returns a fresh array
            shape = np.broadcast_shapes(*(np.shape(a) for a in args))
            p = np.broadcast_to(f(*args, np.inf), shape).copy()
            q = np.broadcast_to(f(*args, 0.0), shape) - p

            def term(t):
                out = q * math.exp(-t)
                out += p
                return out
            return term

        return SourceTerms(
            f1=split(self.f1, x), f2=split(self.f2, X, Y),
            f3=split(self.f3, X, Y), f4=split(self.f4, x),
        )

    def exact_state(self, grid: GridSpec, t: float) -> State:
        x = grid.x_nodes()
        X = x[:, None]
        Y = grid.y_nodes()[None, :]
        shape = (x.size, Y.size)
        return State(
            t=t,
            u1=np.broadcast_to(self.u1(x, t), x.shape).copy(),
            u2=np.broadcast_to(self.u2(X, Y, t), shape).copy(),
            u3=np.broadcast_to(self.u3(X, Y, t), shape).copy(),
            u4=np.broadcast_to(self.u4(x, t), x.shape).copy(),
        )


MMS_BASE = GridSpec(1.0, 1.0, 8, 8)   # the coarsest level of the study
MMS_T_END = 0.5


def mms_convergence(solution, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Errors and observed orders under grid refinement.

    Level k integrates the forced system on MMS_BASE refined by 2^k, from
    the exact state at t = 0 to MMS_T_END.  Returns the discrete L2 errors
    of u1, u2, u3 and u4 against the exact fields there, shape (levels, 4),
    and the observed orders log2(e_k / e_{k+1}) between consecutive levels,
    shape (levels - 1, 4); an order is NaN where either error is zero.
    """
    errors = np.empty((levels, 4))
    ts = TimeSpec(t_end=MMS_T_END, snapshot_times=(MMS_T_END,))
    for lvl in range(levels):
        g = MMS_BASE.refine(2**lvl)
        state0 = solution.exact_state(g, 0.0)
        traj = integrate(state0, solution.params, g, ts, sources=solution.sources(g))
        final = traj.snapshots[-1]
        exact = solution.exact_state(g, MMS_T_END)
        errors[lvl] = (norm_macro(g, final.u1 - exact.u1),
                       norm_micro(g, final.u2 - exact.u2),
                       norm_micro(g, final.u3 - exact.u3),
                       norm_macro(g, final.u4 - exact.u4))
    coarse, fine = errors[:-1], errors[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.where((coarse > 0.0) & (fine > 0.0), np.log2(coarse / fine), np.nan)
    return errors, orders
