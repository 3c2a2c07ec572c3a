"""Method-of-lines time stepping for the semi-discrete system.

Two explicit modes:

* fixed     a fixed step dt, RK4's reach `stability_dt` when none is given.
            Up to that reach it runs classical fourth-order Runge-Kutta, the
            reference; beyond it the damped second-order Runge-Kutta-Chebyshev
            method (Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88,
            1998), whose stability interval grows with the square of the
            stage count s, so the step is not tied to h_y^2:
            s = max(2, 1 + floor(sqrt(1 + 1.54 dt rho))) with rho the
            Gershgorin bound of `spectral_radius_bound`, chosen once per
            integration.  The damping (eps = 2/13) shrinks stiff modes by
            a factor of only about 0.95 per step, so rough data, or data
            off the Robin closure, converges slowly in time; smooth,
            transient-free data sees second order.
* adaptive  the embedded Fehlberg 4(5) pair with proportional-integral step
            control, starting from RK4's reach.

One stage loop runs any of the Butcher tableaux over the flat state vector:
`rhs` fills the rows of one preallocated stage matrix in place, and every
stage combination is one matrix-vector product with a tableau row.  All
modes shorten steps to land exactly on the requested snapshot times, so
stored snapshots are states of the integrated trajectory, not interpolants.

The pinned gas node at x = 0 carries zero tendency, and the integrator
re-asserts the pin after every accepted step.  A step is admissible only
if every concentration (the gas field with its inlet value added back)
stays finite and above -POSITIVITY_SLACK: fixed stepping raises
DivergedError on the first step that is not, adaptive stepping rejects it
and halves the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .model import ModelParams, SourceTerms, State, Tendency, rhs, unshifted_u1

SAFETY = 0.4          # margin applied to the explicit diffusion limit
_RK_SAFETY = 0.9      # step controller safety factor
_FACMIN, _FACMAX = 0.2, 5.0
_ERR_ORDER = 5.0      # local error order of the embedded pair
_RKC_DAMPING = 2.0 / 13.0
_LANDING = 1e-9       # a step ending this close (relative to h) to a target lands on it
POSITIVITY_SLACK = 1e-8  # lowest concentration a step may leave behind is -POSITIVITY_SLACK


class DivergedError(RuntimeError):
    """The trajectory left the finite or nonnegative range, or the step size
    underflowed; last_state is the last accepted state."""

    def __init__(self, message: str, last_state: State):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class TimeSpec:
    """Integration horizon, stepping mode and snapshot schedule."""

    t_end: float
    mode: str = "fixed"                 # "fixed" | "adaptive"
    dt: float | None = None             # fixed: None picks RK4's reach
    rtol: float = 1e-6
    atol: float = 1e-9
    snapshot_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.mode == "adaptive" and self.dt is not None:
            raise ValueError("adaptive mode chooses its own steps and takes no dt")
        if self.mode == "adaptive" and not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("adaptive mode needs rtol > 0 and atol > 0")
        if self.snapshot_times is not None:
            times = tuple(float(t) for t in self.snapshot_times)
            if not all(0.0 <= t <= self.t_end for t in times):
                raise ValueError("snapshot times must be finite and lie within [0, t_end]")
            if list(times) != sorted(times):
                raise ValueError("snapshot times must be sorted")
            object.__setattr__(self, "snapshot_times", times)

    def snapshots(self) -> tuple[float, ...]:
        if self.snapshot_times is None:
            return (0.0, self.t_end)
        return self.snapshot_times


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    last_dt: float = 0.0
    stages: int = 0          # rhs evaluations per step attempt
    method: str = ""         # "rk4" | "rkc" | "fehlberg45"


@dataclass
class Trajectory:
    snapshots: list[State] = field(default_factory=list)
    stats: StepStats = field(default_factory=StepStats)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def stability_dt(params: ModelParams, grid: GridSpec) -> float:
    """RK4's reach, the largest fixed step RK4 takes:
    min(SAFETY * min(h_x^2 / (2 d1), h_y^2 / (2 max(d2, d3))), 2 / rho),
    with rho from `spectral_radius_bound`; RK4 is stable on the disc
    |z + 1| <= 1, which holds dt * rho <= 2.
    """
    macro = grid.h_x**2 / (2.0 * params.d1)
    micro = grid.h_y**2 / (2.0 * max(params.d2, params.d3))
    return min(SAFETY * min(macro, micro), 2.0 / spectral_radius_bound(params, grid))


def spectral_radius_bound(params: ModelParams, grid: GridSpec) -> float:
    """Gershgorin bound on the spectral radius of the linearised `rhs`.

    The largest of four row bounds:

    * macro gas       4 d1/h_x^2 + bi_m H
    * dissolved gas   4 d2/h_y^2 + 2 bi_m (1 + H)/h_y + max alpha + max beta
                      (the Robin exchange ghost at y = 0)
    * acid            4 d3/h_y^2 + 2 k c_bar/h_y + max alpha + max beta
                      (the surface-loss ghost at y = ell, R with slope 1)
    * gypsum          k c_bar (1 + m3/m4 for the linear cutoff), the
                      Lipschitz bound of eta on the admissible range
    """
    henry, bi_m, k, c_bar = params.henry, params.bi_m, params.k, params.c_bar
    exchange = float(np.max(params.alpha) + np.max(params.beta))
    h_y = grid.h_y
    q_slope = c_bar / params.m4 if params.q_kind == "linear_cutoff" else 0.0
    return max(4.0 * params.d1 / grid.h_x**2 + bi_m * henry,
               4.0 * params.d2 / h_y**2 + 2.0 * bi_m * (1.0 + henry) / h_y + exchange,
               4.0 * params.d3 / h_y**2 + 2.0 * k * c_bar / h_y + exchange,
               k * (c_bar + params.m3 * q_slope))


def _rkc_stages(dt: float, rho: float) -> int:
    """Stage count whose damped stability interval, about 0.65 (s^2 - 1),
    covers dt * rho."""
    return max(2, 1 + int(np.sqrt(1.0 + 1.54 * dt * rho)))


def _inadmissible(state: State, params: ModelParams) -> str:
    """Why a state fails the step check, with field and node: its first
    non-finite concentration, else its most negative one."""
    fields = {"u1": unshifted_u1(state, params), "u2": state.u2,
              "u3": state.u3, "u4": state.u4}
    ranked = {f: np.where(np.isfinite(u), u, -np.inf) for f, u in fields.items()}
    name = min(ranked, key=lambda f: ranked[f].min())
    u = fields[name]
    at = tuple(int(i) for i in np.unravel_index(np.argmin(ranked[name]), u.shape))
    if np.isfinite(u[at]):
        return f"negative concentration {name} = {u[at]:.6g} at node {at}"
    return f"non-finite state {name} at node {at}"


def _pack(state: State) -> np.ndarray:
    return np.concatenate([state.u1, state.u2.ravel(),
                           state.u3.ravel(), state.u4])


def _unpack(t: float, y: np.ndarray, grid: GridSpec) -> State:
    nm = grid.n_x + 1
    nf = nm * (grid.n_y + 1)
    u1 = y[:nm]
    u2 = y[nm:nm + nf].reshape(nm, grid.n_y + 1)
    u3 = y[nm + nf:nm + 2 * nf].reshape(nm, grid.n_y + 1)
    u4 = y[nm + 2 * nf:]
    return State(t, u1, u2, u3, u4)


# Butcher tableaux (c, a, b, e): nodes, stage matrix, weights and, for an
# embedded pair, the weight difference whose stage combination estimates
# the local error.  Fehlberg 4(5) propagates its order-5 solution.
_RK4 = (np.array([0.0, 0.5, 0.5, 1.0]),
        np.array([[0.0, 0.0, 0.0, 0.0],
                  [0.5, 0.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0]]),
        np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]), None)
_FE_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_FE_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_FEHLBERG45 = (np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2]),
               np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [3 / 32, 9 / 32, 0.0, 0.0, 0.0, 0.0],
                         [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0, 0.0],
                         [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0, 0.0],
                         [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40, 0.0]]),
               _FE_B5, _FE_B5 - _FE_B4)


def _rkc_tableau(s: int):
    """The s-stage damped RKC method as a Butcher tableau (c, a, b, None).

    RKC builds its stages by the Chebyshev three-term recursion
    Y_j = (1 - mu_j - nu_j) y + mu_j Y_{j-1} + nu_j Y_{j-2}
          + mu~_j h F(Y_{j-1}) + gamma~_j h F(Y_0);
    carrying each Y_j as its coefficient row over F(Y_0) ... F(Y_{s-1})
    gives row j of `a`, and Y_s gives `b`.
    """
    w0 = 1.0 + _RKC_DAMPING / s**2
    T, dT, ddT = np.zeros(s + 1), np.zeros(s + 1), np.zeros(s + 1)
    T[0], T[1], dT[1] = 1.0, w0, 1.0
    for j in range(2, s + 1):
        T[j] = 2.0 * w0 * T[j - 1] - T[j - 2]
        dT[j] = 2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2]
        ddT[j] = 4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2]
    w1 = dT[s] / ddT[s]
    beta = np.empty(s + 1)      # b_j of the recursion, b_0 = b_1 = b_2
    beta[2:] = ddT[2:] / dT[2:] ** 2
    beta[:2] = beta[2]
    rows = np.zeros((s + 1, s))
    rows[1, 0] = beta[1] * w1
    for j in range(2, s + 1):
        mu_tilde = 2.0 * beta[j] * w1 / beta[j - 1]
        rows[j] = (2.0 * beta[j] * w0 / beta[j - 1]) * rows[j - 1] \
            - (beta[j] / beta[j - 2]) * rows[j - 2]
        rows[j, j - 1] += mu_tilde
        rows[j, 0] -= (1.0 - beta[j - 1] * T[j - 1]) * mu_tilde
    a = rows[:s]
    return a.sum(axis=1), a, rows[s], None


def integrate(state0: State, params: ModelParams, grid: GridSpec,
              timespec: TimeSpec, sources: SourceTerms | None = None) -> Trajectory:
    """Advance the state to t_end, storing snapshots at the requested times.

    Fixed mode runs the RK4 tableau up to RK4's reach (`stability_dt`, also
    the step when dt is None) and the RKC tableau whose stage count covers
    dt times the spectral radius bound beyond it; adaptive mode runs the
    Fehlberg pair; all through one stage loop.  Raises DivergedError
    (carrying the last good state) on non-finite values, on a concentration
    below -POSITIVITY_SLACK (adaptive mode rejects such steps instead) or on
    step-size underflow.
    """
    state0.validate(grid)
    adaptive = timespec.mode == "adaptive"
    reach = stability_dt(params, grid)
    h_base = reach if timespec.dt is None else float(timespec.dt)
    if adaptive:  # a conservative start, the controller grows it
        method, (c, a, b, e) = "fehlberg45", _FEHLBERG45
    elif h_base <= reach:
        method, (c, a, b, e) = "rk4", _RK4
    else:
        method = "rkc"
        c, a, b, e = _rkc_tableau(_rkc_stages(h_base, spectral_radius_bound(params, grid)))
    stats = StepStats(stages=c.size, method=method)

    t = float(state0.t)
    y = _pack(state0)
    t_end = float(timespec.t_end)
    targets = [s for s in timespec.snapshots() if s >= t]

    # stage buffers and the State / Tendency views into them, built once
    n_macro = grid.n_x + 1      # y[:n_macro] is the shifted gas field
    K = np.empty((c.size, y.size))
    Y, y_new, y_err = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    stage = _unpack(t, Y, grid)
    k_views = [Tendency(v.u1, v.u2, v.u3, v.u4)
               for v in (_unpack(0.0, k, grid) for k in K)]

    traj = Trajectory(stats=stats)

    def record_due(current_t: float, current_y: np.ndarray):
        while targets and targets[0] <= current_t + 1e-12 * max(1.0, abs(current_t)):
            s = _unpack(targets.pop(0), current_y.copy(), grid)
            traj.snapshots.append(s)

    record_due(t, y)

    err_prev = 1.0
    facmax = _FACMAX
    # a diverging step overflows inside rhs and the stage sums; the checks
    # below detect the non-finite result and raise, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < t_end * (1.0 - 1e-14) and (t_end - t) > 1e-15 * max(1.0, t_end):
            goal = targets[0] if targets else t_end
            h = min(h_base, goal - t)
            if goal - (t + h) <= _LANDING * h:
                h = goal - t  # no sliver step left over from rounding in t
            if h < 1e-14 * max(1.0, abs(t)):
                raise DivergedError(f"step size underflow at t={t:g}",
                                    _unpack(t, y.copy(), grid))

            for i, k_view in enumerate(k_views):
                np.dot(h * a[i, :i], K[:i], out=Y)
                Y += y
                stage.t = t + c[i] * h
                stats.rhs_evals += 1
                tend = rhs(stage, params, grid, sources=sources, out=k_view)
                if tend is not k_view:
                    for name in ("u1", "u2", "u3", "u4"):
                        getattr(k_view, name)[...] = getattr(tend, name)
            np.dot(h * b, K, out=y_new)
            y_new += y
            admissible = bool(np.isfinite(y_new).all()) and min(
                float(y_new[:n_macro].min()) + params.u1_d,
                float(y_new[n_macro:].min())) >= -POSITIVITY_SLACK
            err = 0.0
            if not adaptive and not admissible:
                reason = _inadmissible(_unpack(t + h, y_new, grid), params)
                raise DivergedError(f"{reason} at t={t + h:g}", _unpack(t, y.copy(), grid))
            if adaptive and admissible:
                np.dot(h * e, K, out=y_err)
                scale = timespec.atol + timespec.rtol * np.maximum(np.abs(y), np.abs(y_new))
                err = float(np.sqrt(np.mean((y_err / scale) ** 2)))
                admissible = np.isfinite(err)

            if admissible and err <= 1.0:
                t += h
                y[:] = y_new
                y[0] = 0.0
                stats.accepted += 1
                stats.last_dt = h
                record_due(t, y)
                if adaptive:
                    err = max(err, 1e-10)
                    fac = _RK_SAFETY * err ** (-0.7 / _ERR_ORDER) * err_prev ** (0.4 / _ERR_ORDER)
                    h_base = h * min(facmax, max(_FACMIN, fac))
                    err_prev = err
                    facmax = _FACMAX
            else:
                stats.rejected += 1
                if not admissible:
                    h_base = 0.5 * h
                else:
                    fac = _RK_SAFETY * err ** (-0.7 / _ERR_ORDER)
                    h_base = h * min(1.0, max(_FACMIN, fac))
                facmax = 1.0

    record_due(t_end, y)
    return traj
