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
* adaptive  RK4 with proportional-integral step control, starting from
            RK4's reach; its first-same-as-last evaluation F(y_new) gives
            the error estimate and is the next step's first stage.

One stage loop runs both as rows of RKC's three-term recursion in increment
form, on a handful of flat state vectors for any stage count.  Each is the
`y` of a State or a Tendency: `State.view` and `Tendency.view` wrap it
without copying, so `rhs` reads a stage state and fills a tendency in
place.  All modes shorten steps to land exactly on the requested snapshot
times, so stored snapshots are states of the integrated trajectory, not
interpolants.  A step that lands sets t to the snapshot time itself, not
to t + h, so the next step and its sources start from that time.

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
_ERR_ORDER = 4.0      # local error order of RK4's FSAL companion
RTOL, ATOL = 1e-6, 1e-9   # adaptive mode's relative and absolute error tolerances
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
    """Integration horizon, stepping mode and snapshot schedule.

    Adaptive mode holds every step to the fixed tolerances RTOL and ATOL.
    Without a schedule, snapshot_times is stored as (0.0, t_end).
    """

    t_end: float
    mode: str = "fixed"                 # "fixed" | "adaptive"
    dt: float | None = None             # fixed: None picks RK4's reach
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
        times = ((0.0, self.t_end) if self.snapshot_times is None
                 else tuple(float(t) for t in self.snapshot_times))
        if not all(0.0 <= t <= self.t_end for t in times):
            raise ValueError("snapshot times must be finite and lie within [0, t_end]")
        if list(times) != sorted(times):
            raise ValueError("snapshot times must be sorted")
        object.__setattr__(self, "snapshot_times", times)


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    last_dt: float = 0.0
    stages: int = 0          # rhs evaluations per step attempt
    method: str = ""         # "rk4" | "rkc"


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
    * dissolved gas   4 d2/h_y^2 + 2 bi_m (1 + H)/h_y + alpha + beta
                      (the Robin exchange ghost at y = 0)
    * acid            4 d3/h_y^2 + 2 k c_bar/h_y + alpha + beta
                      (the surface-loss ghost at y = ell; eta is linear in the acid)
    * gypsum          k c_bar (1 + m3/m4 for the linear cutoff), the
                      Lipschitz bound of eta on the admissible range
    """
    henry, bi_m, k, c_bar = params.henry, params.bi_m, params.k, params.c_bar
    exchange = params.alpha + params.beta
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


# Recursion rows (mu_j, nu_j, mu~_j, gamma~_j), j = 1 .. s.  Stage j builds
# the increment D_j = Y_j - y from D_{j-1}, D_{j-2} and D_0 = 0:
#   D_j = mu_j D_{j-1} + nu_j D_{j-2} + h (mu~_j F(Y_{j-1}) + gamma~_j F(Y_0)),
# and the step ends at y + D_s.  Classical RK4 is the four-row member: its
# last row is y + D_3/3 + 2 D_2/3 + h (F(Y_3) + F(Y_0))/6.
_RK4 = ((0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 1.0, 0.0),
        (1 / 3, 2 / 3, 1 / 6, 1 / 6))


def _rkc_coefficients(s: int) -> list[tuple[float, float, float, float]]:
    """Recursion rows of the s-stage damped RKC method, from the Chebyshev
    polynomials T_j(w0) and their derivatives (Sommeijer et al. 1998)."""
    w0 = 1.0 + _RKC_DAMPING / s**2
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        ddT.append(4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2])
    w1 = dT[s] / ddT[s]
    beta = [ddT[max(j, 2)] / dT[max(j, 2)] ** 2 for j in range(s + 1)]  # b_0 = b_1 = b_2
    rows = [(0.0, 0.0, beta[1] * w1, 0.0)]
    for j in range(2, s + 1):
        mu_tilde = 2.0 * beta[j] * w1 / beta[j - 1]
        nu = -beta[j] / beta[j - 2] if j > 2 else 0.0   # nu_2 multiplies D_0 = 0
        rows.append((2.0 * beta[j] * w0 / beta[j - 1], nu,
                     mu_tilde, -(1.0 - beta[j - 1] * T[j - 1]) * mu_tilde))
    return rows


def integrate(state0: State, params: ModelParams, grid: GridSpec,
              timespec: TimeSpec, sources: SourceTerms | None = None) -> Trajectory:
    """Advance the state to t_end, storing snapshots at the requested times.

    Fixed mode runs RK4 up to RK4's reach (`stability_dt`, also the step
    when dt is None) and RKC with the stages dt times the spectral radius
    bound needs beyond it; adaptive mode runs RK4 with its FSAL error
    estimate.  Raises DivergedError (carrying the last good state) on
    non-finite values, on a concentration below -POSITIVITY_SLACK (adaptive
    mode rejects such steps instead) or on step-size underflow.
    """
    state0.validate(grid)
    adaptive = timespec.mode == "adaptive"
    reach = stability_dt(params, grid)
    h_base = reach if timespec.dt is None else float(timespec.dt)
    if adaptive or h_base <= reach:  # adaptive: a conservative start, the controller grows it
        method, rows = "rk4", _RK4
    else:
        method = "rkc"
        rows = _rkc_coefficients(_rkc_stages(h_base, spectral_radius_bound(params, grid)))
    stats = StepStats(stages=len(rows), method=method)

    t = float(state0.t)
    y = state0.y.copy()
    t_end = float(timespec.t_end)
    targets = [s for s in timespec.snapshot_times if s >= t]

    # stage buffers and views, built once: D_j = W[j] @ inputs[lo:hi], W = A + h B,
    # over F(Y_0), F(Y_{j-1}) and two slots, D_j replacing D_{j-2}; lo:hi spans
    # only rows written in the same attempt, so no 0 * inf from a rejected one
    n_macro = grid.n_x + 1      # y[:n_macro] is the shifted gas field
    inputs = np.empty((4, y.size))
    d, Y, f_new = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    current, stage = State.view(t, y, grid), State.view(t, Y, grid)
    f0_out, f_out, f_new_out = (Tendency.view(b, grid) for b in (inputs[0], inputs[1], f_new))
    A, B, W = np.zeros((len(rows), 4)), np.zeros((len(rows), 4)), np.empty((len(rows), 4))
    c = [0.0, 0.0]              # nodes c_{j-1}, c_j: the rows applied to y' = 1
    plan = []
    for j, (mu, nu, mu_t, gamma_t) in enumerate(rows):  # 0-based: D_{j+1}
        A[j, 2 + (j + 1) % 2], A[j, 2 + j % 2] = mu, nu
        B[j, 0] = gamma_t
        B[j, min(j, 1)] += mu_t
        lo, hi = np.flatnonzero(A[j] + B[j])[[0, -1]] + [0, 1]
        plan.append((W[j, lo:hi], inputs[lo:hi], inputs[2 + j % 2], c[-1]))
        c.append(mu * c[-1] + nu * c[-2] + mu_t + gamma_t)

    def evaluate(state: State, time: float, out: Tendency):
        state.t = time
        stats.rhs_evals += 1
        tend = rhs(state, params, grid, sources=sources, out=out)
        if tend is not out:  # a wrapped rhs, e.g. perfbench's broken-rhs check
            out.y[...] = tend.y

    traj = Trajectory(stats=stats)

    def record_due(current_t: float, current_y: np.ndarray):
        while targets and targets[0] <= current_t:
            traj.snapshots.append(State.view(targets.pop(0), current_y.copy(), grid))

    record_due(t, y)

    err_prev = 1.0
    facmax = _FACMAX
    # a diverging step overflows inside rhs and the stage sums; the checks
    # below detect the non-finite result and raise, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < t_end:
            goal = targets[0] if targets else t_end
            h = min(h_base, goal - t)
            t_new = t + h
            if goal - t_new <= _LANDING * h:
                # land on the goal itself: no sliver step left over from rounding in t
                h, t_new = goal - t, goal
            if h < 1e-14 * max(1.0, abs(t)):
                raise DivergedError(f"step size underflow at t={t:g}",
                                    State.view(t, y.copy(), grid))

            if not adaptive or stats.rhs_evals == 0:  # else F(y_new) is F(Y_0)
                evaluate(current, t, f0_out)
            np.multiply(B, h, out=W)
            W += A
            for j, (w, span, keep, node) in enumerate(plan):
                if j:
                    evaluate(stage, t + node * h, f_out)
                np.dot(w, span, out=d)
                keep[...] = d
                np.add(y, d, out=Y)
            admissible = bool(np.isfinite(Y).all()) and min(
                float(Y[:n_macro].min()) + params.u1_d,
                float(Y[n_macro:].min())) >= -POSITIVITY_SLACK
            err = 0.0
            if not adaptive and not admissible:
                reason = _inadmissible(State.view(t_new, Y, grid), params)
                raise DivergedError(f"{reason} at t={t_new:g}", State.view(t, y.copy(), grid))
            if adaptive and admissible:
                # F(y_new), the next F(Y_0), gives the gap h (F(Y_3) - F(y_new))/6 to RK4's
                # third-order FSAL companion, weights (1/6, 1/3, 1/3, 0, 1/6)
                evaluate(stage, t_new, f_new_out)
                scale, gap = inputs[2], inputs[3]   # the increments are spent
                np.maximum(np.abs(y, out=scale), np.abs(Y, out=gap), out=scale)
                scale *= RTOL
                scale += ATOL
                np.subtract(inputs[1], f_new, out=gap)
                gap /= scale
                err = h / 6.0 * float(np.sqrt(np.dot(gap, gap) / gap.size))
                admissible = np.isfinite(err)

            if admissible and err <= 1.0:
                t = t_new
                y[:] = Y
                y[0] = 0.0
                stats.accepted += 1
                stats.last_dt = h
                record_due(t, y)
                if adaptive:
                    inputs[0] = f_new
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
    return traj
