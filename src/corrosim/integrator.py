"""Method-of-lines time stepping for the semi-discrete system.

Two explicit modes:

* fixed     a fixed step dt, RK4's reach `stability_dt` =
            min(2.7 / rho, 2 / delta) when none is given, with rho the
            Gershgorin bound of `spectral_radius_bound` and delta the
            diagonal bound of `diagonal_bound`: 2.7 lies inside RK4's real
            stability interval [-2.785, 0], and dt * delta <= 2 keeps the
            half-step Euler stage from overshooting any row's own decay.
            The reach is never shorter than 2 / rho.  Up to it the mode
            runs classical fourth-order Runge-Kutta, the reference; beyond
            it the damped second-order Runge-Kutta-Chebyshev method
            (Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998),
            whose stability interval grows with the square of the stage
            count s, so the step is not tied to h_y^2:
            s = 1 + floor(sqrt(1 + 1.54 dt rho_s)), chosen once per
            integration with dt capped at the horizon t_end - t0, at
            least 3 beyond the reach.  The damping (eps = 2/13) shrinks
            stiff modes by a factor of only about 0.95 per step, so rough
            data, or data off the Robin closure, converges slowly in time;
            smooth, transient-free data sees second order.
* adaptive  the same RKC, error-controlled, with the step set by accuracy:
            each attempt takes s = 1 + floor(sqrt(1 + 1.54 h rho_s)) stages
            from its own step h, at least 2.  The embedded estimate of
            Sommeijer et al., est = (12 (y_n - y_new)
            + 6 h (F(y_n) + F(y_new))) / 15, of a second-order local error,
            is held to a tenth of ATOL + RTOL max(|y_n|, |y_new|) in RMS,
            so that the global error stays within 10 (ATOL + RTOL |u|).
            Their controller sets the next step, h 0.8 (h / h_prev)
            err_prev^(1/3) / err^(2/3), or h 0.8 err^(-1/3) on the first
            step and after a rejection, within [0.1 h, 10 h], starting from
            RK4's reach.  The first-same-as-last evaluation F(y_new)
            completes the estimate and is the next attempt's F(Y_0).

Two radii bound the spectrum.  rho, the row bound, sums each row of
`_row_bounds`; it counts the Robin exchange twice, so on fig1 at 32^2 it
reads 40 where the spectral radius is 24.6.  rho_s, `stage_radius`, is
Gershgorin on the Jacobian scaled by the Perron vector of one node's
block, and meets the probed radius to about 1e-6.  RKC's stage counts read
rho_s.  RK4's reach, the RK4/RKC boundary and adaptive mode's first step
keep rho: at 2.7 / rho_s, RK4 drives u2 to -0.009 on an 8^2 test problem
and ends 6e-3 off the matrix exponential on random 8^2 data, so its
positivity and accuracy there rest on the row bound's slack.

One stage loop runs both as rows of RKC's three-term recursion in increment
form, on a handful of flat state vectors for any stage count, with the
plan of each stage count built once per run.  Each vector is the
`y` of a State or a Tendency: `State.view` and `Tendency.view` wrap it
without copying, so `rhs` reads a stage state and fills a tendency in
place.  All modes shorten steps to land exactly on the requested snapshot
times, so stored snapshots are states of the integrated trajectory, not
interpolants.  A step that lands sets t to the snapshot time itself, not
to t + h, so the next step and its sources start from that time.

Every entry of the state vector is a concentration.  The gas node at
x = 0 holds the Dirichlet value u1_d with zero tendency, so every stage
adds exactly 0 to it; a start state that does not hold it there is
rejected.  A step is admissible only if every entry stays finite, above
-POSITIVITY_SLACK and, in an unforced run, below its face of the
invariant box (`_box_faces`) plus POSITIVITY_SLACK: fixed stepping raises
DivergedError on the first step that is not, adaptive stepping rejects
it and halves the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .model import AssumptionError, ModelParams, SourceTerms, State, Tendency, rhs

RTOL, ATOL = 1e-6, 1e-9   # adaptive mode's relative and absolute error tolerances
_EST_FRACTION = 0.1   # share of them that adaptive mode holds RKC's local error estimate to
_RKC_DAMPING = 2.0 / 13.0
_RK4_REACH = 2.7     # dt * rho of RK4's reach, inside its real stability interval [-2.785, 0]
_LANDING = 1e-9       # a step ending this close (relative to h) to a target lands on it
POSITIVITY_SLACK = 1e-8  # lowest concentration a step may leave behind is -POSITIVITY_SLACK
_EIGH_MARGIN = 1e-10   # relative; eigvalsh's rounding is about n eps of the largest eigenvalue


class DivergedError(RuntimeError):
    """The trajectory left the finite or nonnegative range, or the step size
    underflowed; last_state is the last accepted state."""

    def __init__(self, message: str, last_state: State):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class TimeSpec:
    """Integration horizon, stepping mode and snapshot schedule.

    Adaptive mode holds every step's error estimate to a tenth of the fixed
    tolerances ATOL + RTOL |y|.
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
    stages: int = 0          # rhs evaluations per step attempt; adaptive: the most an attempt made
    method: str = ""         # "rk4" | "rkc"


@dataclass
class Trajectory:
    snapshots: list[State] = field(default_factory=list)
    stats: StepStats = field(default_factory=StepStats)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def acid_bound(params: ModelParams, state: State, horizon: float) -> float:
    """The largest acid the unforced semi-discrete system reaches from
    `state` within `horizon`: the acid face of `_box_faces`.  The system is
    quasi-monotone and the surface reaction only removes acid, so a box whose
    upper faces point inward is invariant (Chueh, Conley & Smoller, Indiana
    Univ. Math. J. 26, 1977): with G = max(H u1_d, H max u1, max u2), the
    acid grows at most at the rate alpha G - beta u3.  Sources void it.
    """
    gas = max(params.henry * max(params.u1_d, state.u1.max()), state.u2.max())
    if params.beta > 0.0:   # the acid face alpha G/beta
        return float(max(state.u3.max(), params.alpha * gas / params.beta))
    return float(state.u3.max() + params.alpha * gas * horizon)


def _box_faces(params: ModelParams, state: State, acid: float,
               horizon: float) -> tuple[float, float, float, float]:
    """Upper faces (u1, u2, u3, u4) of the box the unforced system keeps
    within `horizon` from `state`, with `acid` from `acid_bound`.

    With G as in `acid_bound`, the dissolved-gas face G' leaves u2 no
    inflow at u2 = G': the Robin ghost needs H u1 <= G', so u1's face is
    G'/H, and the volume exchange needs beta A <= alpha G'.  With
    alpha > 0 that is G' = max(G, beta A/alpha), which equals G unless the
    acid starts above alpha G/beta; with alpha = 0 the acid feeds u2 at
    most at the rate beta A, so G' grows with the horizon.  The gypsum stops at max(m4, max u4) under the linear
    cutoff and has no face under the constant kernel (the largest float,
    so that only an overflow crosses it).  Each face is exact at the start
    data its own field attains.
    """
    henry, alpha, beta = params.henry, params.alpha, params.beta
    gas = max(henry * max(params.u1_d, state.u1.max()), state.u2.max())
    gas = max(gas, beta * acid / alpha) if alpha > 0.0 else gas + beta * acid * horizon
    gypsum = (max(params.m4, state.u4.max()) if params.q_kind == "linear_cutoff"
              else np.finfo(float).max)
    return (float(max(params.u1_d, state.u1.max(), gas / henry)), float(gas),
            float(acid), float(gypsum))


def stability_dt(params: ModelParams, grid: GridSpec, acid: float) -> float:
    """RK4's reach, the largest fixed step RK4 takes: min(2.7 / rho, 2 / delta),
    with rho and delta from the bounds below for acid at most `acid`.

    RK4's stability region holds the disc |z + r| <= r for every r up to
    1.3926, and with it the real interval [-2.785, 0]; the Jacobians of `rhs`
    probed in the tests have real spectra, so dt * rho <= 2.7 keeps every
    mode inside it (|R(-2.7)| = 0.88).  The second clause keeps dt * delta <= 2,
    so the half-step Euler stage y + (dt/2) F(y) leaves each row's own
    factor 1 - dt * delta_row / 2 nonnegative: without it the gypsum of the
    stiff linear-cutoff case overshoots m4.
    """
    return min(_RK4_REACH / spectral_radius_bound(params, grid, acid),
               2.0 / diagonal_bound(params, grid, acid))


def spectral_radius_bound(params: ModelParams, grid: GridSpec, acid: float) -> float:
    """Gershgorin bound on the spectral radius of the linearised `rhs` for
    acid at most `acid`: the largest row sum of `_row_bounds`."""
    return max(diag + off for diag, off in _row_bounds(params, grid, acid))


def diagonal_bound(params: ModelParams, grid: GridSpec, acid: float) -> float:
    """Bound on the largest diagonal magnitude of the linearised `rhs` for
    acid at most `acid`: the largest diagonal term of `_row_bounds`."""
    return max(diag for diag, _ in _row_bounds(params, grid, acid))


def stage_radius(params: ModelParams, grid: GridSpec, acid: float) -> float:
    """Spectral radius bound that RKC's stage count reads, for acid at most
    `acid`: Gershgorin on D^-1 J D with D = 1_x (x) v, v the Perron vector
    of one macro node's block.

    M holds the magnitudes of a node's Jacobian block, the coefficients of
    `_row_bounds`, in the order (u1, u2[0..n_y], u3[0..n_y], u4), with the
    gas row's x-neighbours 2 d1/h_x^2 added to its diagonal (D is uniform
    in x).  With D_v = diag(v) every row sum of D_v^-1 M D_v is M's Perron
    root, so that root bounds every eigenvalue of J.  M is diagonally
    similar to S = sqrt(M) o sqrt(M^T): paired entries share a sign, and
    each u2/u3 ladder cycle has one product both ways, the doubled
    reflected ends included; one-sided pairs (the constant kernel, alpha or
    beta = 0) only make M block-triangular.  So the root is S's largest
    eigenvalue, raised by `_EIGH_MARGIN` against eigvalsh's rounding and
    kept within [diagonal_bound, spectral_radius_bound].  S is formed from
    square roots, not as sqrt(M M^T), which overflows at acid bounds near
    1e236.
    """
    rows = _row_bounds(params, grid, acid)
    bi_m, henry, k = params.bi_m, params.henry, params.k
    h_x, h_y, m = grid.h_x, grid.h_y, grid.n_y + 1
    M = np.zeros((2 * m + 2, 2 * m + 2))
    M[0, 0] = 4.0 * params.d1 / h_x**2 + bi_m * henry
    M[0, 1], M[1, 0] = bi_m, 2.0 * bi_m * henry / h_y
    for lo, d, own in ((1, params.d2, params.alpha), (1 + m, params.d3, params.beta)):
        c = d / h_y**2
        ladder = M[lo:lo + m, lo:lo + m]
        ladder += c * (np.eye(m, k=1) + np.eye(m, k=-1))
        ladder[0, 1] = ladder[-1, -2] = 2.0 * c   # the reflected row ends
        ladder[np.diag_indices(m)] = 2.0 * c + own
    M[1, 1] += 2.0 * bi_m / h_y
    M[1:1 + m, 1 + m:-1][np.diag_indices(m)] = params.beta
    M[1 + m:-1, 1:1 + m][np.diag_indices(m)] = params.alpha
    M[-2, -2] += 2.0 * k / h_y
    M[-1, -2] = k
    if params.q_kind == "linear_cutoff":
        M[-2, -1], M[-1, -1] = 2.0 * k * acid / (params.m4 * h_y), k * acid / params.m4
    root = np.sqrt(M)
    top = np.linalg.eigvalsh(root * root.T)[-1] * (1.0 + _EIGH_MARGIN)
    return float(min(max(diag + off for diag, off in rows),
                     max(top, max(diag for diag, _ in rows))))


def _row_bounds(params: ModelParams, grid: GridSpec, acid: float) -> list[tuple[float, float]]:
    """(diagonal, off-diagonal) magnitudes of the stiffest row of each
    field, for acid at most `acid`.

    The rows are those of D^-1 J D, with the gypsum scaled by
    D = sigma = h_y/2, which moves the factor 2/h_y of the surface-loss
    ghost from the acid row's gypsum entry to the gypsum row's acid entry:

    * macro gas       2 d1/h_x^2 + bi_m H, and 2 d1/h_x^2 + bi_m
                      (bi_m, its coupling to the dissolved gas at y = 0)
    * dissolved gas   2 d2/h_y^2 + 2 bi_m/h_y + alpha, and
                      2 d2/h_y^2 + 2 bi_m H/h_y + beta
                      (the Robin exchange ghost at y = 0)
    * acid            2 d3/h_y^2 + 2 k/h_y + beta, and
                      2 d3/h_y^2 + alpha + k A/m4
                      (the surface-loss ghost at y = ell; the last term,
                      its gypsum coupling, for the linear cutoff only)
    * gypsum          k A/m4 for the linear cutoff, else 0, and 2 k/h_y

    with A = `acid`, which `integrate` takes from `acid_bound`.  The gypsum
    row sum never exceeds the acid row's.
    """
    bi_m, henry, k = params.bi_m, params.henry, params.k
    h_x, h_y = grid.h_x, grid.h_y
    slope = k * acid / params.m4 if params.q_kind == "linear_cutoff" else 0.0
    return [(2.0 * params.d1 / h_x**2 + bi_m * henry, 2.0 * params.d1 / h_x**2 + bi_m),
            (2.0 * params.d2 / h_y**2 + 2.0 * bi_m / h_y + params.alpha,
             2.0 * params.d2 / h_y**2 + 2.0 * bi_m * henry / h_y + params.beta),
            (2.0 * params.d3 / h_y**2 + 2.0 * k / h_y + params.beta,
             2.0 * params.d3 / h_y**2 + params.alpha + slope),
            (slope, 2.0 * k / h_y)]


def _rkc_stages(dt: float, rho: float) -> int:
    """Stage count whose damped stability interval, about 0.65 (s^2 - 1),
    covers dt * rho."""
    return 1 + int(np.sqrt(1.0 + 1.54 * dt * rho))


def _inadmissible(state: State, faces) -> str:
    """Why a state fails the step check, with field and node: its first
    non-finite concentration, else its most negative one when that lies
    below -POSITIVITY_SLACK, else its largest excess over its face."""
    fields = {"u1": state.u1, "u2": state.u2, "u3": state.u3, "u4": state.u4}
    ranked = {f: np.where(np.isfinite(u), u, -np.inf) for f, u in fields.items()}
    name = min(ranked, key=lambda f: ranked[f].min())
    u = fields[name]
    at = tuple(int(i) for i in np.unravel_index(np.argmin(ranked[name]), u.shape))
    if not np.isfinite(u[at]):
        return f"non-finite state {name} at node {at}"
    if u[at] < -POSITIVITY_SLACK:
        return f"negative concentration {name} = {u[at]:.6g} at node {at}"
    face = dict(zip(fields, faces))
    name = max(fields, key=lambda f: fields[f].max() - face[f])
    u = fields[name]
    at = tuple(int(i) for i in np.unravel_index(np.argmax(u), u.shape))
    return f"{name} = {u[at]:.6g} above its face {face[name]:.6g} at node {at}"


# Recursion rows (mu_j, nu_j, mu~_j, gamma~_j), j = 1 .. s.  Stage j builds
# the increment D_j = Y_j - y from D_{j-1}, D_{j-2} and D_0 = 0:
#   D_j = mu_j D_{j-1} + nu_j D_{j-2} + h (mu~_j F(Y_{j-1}) + gamma~_j F(Y_0)),
# and the step ends at y + D_s.  Classical RK4 is the four-row member: its
# last row is y + D_3/3 + 2 D_2/3 + h (F(Y_3) + F(Y_0))/6.
_RK4 = ((0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 1.0, 0.0),
        (1 / 3, 2 / 3, 1 / 6, 1 / 6))


def _rkc_coefficients(s: int) -> list[tuple[float, float, float, float]]:
    """Recursion rows of the s-stage damped RKC method, from the Chebyshev
    polynomials T_j(w0) and their derivatives (Sommeijer et al. 1998);
    s >= 2."""
    if s < 2:
        raise ValueError(f"RKC needs at least 2 stages, got {s}")
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


def _stage_plan(rows, inputs: np.ndarray):
    """The stage loop of `rows` over `inputs`, whose four rows hold F(Y_0),
    F(Y_{j-1}) and two increment slots, D_j replacing D_{j-2}.

    Returns A, B, W and one entry per stage: stage j sets
    D_j = W[j, lo:hi] @ inputs[lo:hi], W = A + h B filled in per attempt,
    after evaluating F(Y_{j-1}) at node c_{j-1}.  lo:hi spans only rows
    written in the same attempt, so no 0 * inf from a rejected one.
    """
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
    return A, B, W, plan


def integrate(state0: State, params: ModelParams, grid: GridSpec,
              timespec: TimeSpec, sources: SourceTerms | None = None) -> Trajectory:
    """Advance the state to t_end, storing snapshots at the requested times.

    Fixed mode runs RK4 up to RK4's reach (`stability_dt`, also the step
    when dt is None) and RKC beyond it, with the stages that the longest
    step, min(dt, t_end - t0), times `stage_radius` needs; adaptive mode
    runs RKC with its embedded error estimate, each attempt with the
    stages its own step needs.  Raises AssumptionError (A4) when the start
    state is not finite or its gas node at x = 0 does not hold u1_d, and
    DivergedError (carrying the last good state) on non-finite values, on
    a concentration below -POSITIVITY_SLACK or, without sources, above its
    face of the invariant box by more than that (adaptive mode rejects
    such steps instead), or on step-size underflow.
    """
    state0.validate(grid)
    if not np.isfinite(state0.y).all():   # the step bounds read its maxima
        raise AssumptionError("A4", "the start state must be finite")
    if state0.u1[0] != params.u1_d:
        raise AssumptionError("A4", f"the gas node at x = 0 must hold u1_d = {params.u1_d!r}, "
                                    f"got u1[0] = {float(state0.u1[0])!r}")
    adaptive = timespec.mode == "adaptive"
    horizon = timespec.t_end - state0.t
    acid = acid_bound(params, state0, horizon)
    reach = stability_dt(params, grid, acid)
    h_base = reach if timespec.dt is None else float(timespec.dt)  # adaptive: a conservative start
    h_plan = min(h_base, horizon)  # no step outlasts the horizon
    # only RKC's stage counts read the stage radius; an RK4 run skips its eigvalsh
    rho = stage_radius(params, grid, acid) if adaptive or h_plan > reach else None
    if adaptive:  # each attempt takes the stages its own step needs
        method, s_fixed = "rkc", None
    elif h_plan <= reach:
        method, s_fixed = "rk4", len(_RK4)
    else:
        method, s_fixed = "rkc", _rkc_stages(h_plan, rho)
    stats = StepStats(method=method)
    # sources void the box; a forced step keeps only the finite-values check
    faces = (_box_faces(params, state0, acid, horizon) if sources is None
             else (np.finfo(float).max,) * 4)
    tops = np.add(faces, POSITIVITY_SLACK)

    t = float(state0.t)
    y = state0.y.copy()
    t_end = float(timespec.t_end)
    targets = [s for s in timespec.snapshot_times if s >= t]

    # stage buffers and views, built once; a stage plan per stage count reads them
    inputs = np.empty((4, y.size))
    d, Y, f_new = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    current, stage = State.view(t, y, grid), State.view(t, Y, grid)
    starts = np.cumsum([0, stage.u1.size, stage.u2.size, stage.u3.size])  # each field's first entry
    f0_out, f_out, f_new_out = (Tendency.view(b, grid) for b in (inputs[0], inputs[1], f_new))
    plans = {}

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

    h_prev = err_prev = None  # last accepted step and its error; None after a rejection
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

            s = _rkc_stages(h, rho) if adaptive else s_fixed
            if s not in plans:
                plans[s] = _stage_plan(_RK4 if method == "rk4" else _rkc_coefficients(s), inputs)
            A, B, W, plan = plans[s]
            stats.stages = max(stats.stages, s)
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
            # one maximum per field; every face is finite, so a NaN fails
            # the minimum and an infinity a maximum
            admissible = (Y.min() >= -POSITIVITY_SLACK
                          and (np.maximum.reduceat(Y, starts) <= tops).all())
            err = 0.0
            if not adaptive and not admissible:
                reason = _inadmissible(State.view(t_new, Y, grid), faces)
                raise DivergedError(f"{reason} at t={t_new:g}", State.view(t, y.copy(), grid))
            if adaptive and admissible:
                # F(y_new), the next F(Y_0), completes the estimate
                # (12 (y - y_new) + 6 h (F(y) + F(y_new))) / 15, with y_new - y = D_s = d
                evaluate(stage, t_new, f_new_out)
                est, scale, spare = inputs[1:]   # F(Y_{s-1}) and the increments are spent
                np.add(inputs[0], f_new, out=est)
                est *= 0.4 * h
                d *= 0.8
                est -= d
                np.maximum(np.abs(y, out=scale), np.abs(Y, out=spare), out=scale)
                scale *= _EST_FRACTION * RTOL
                scale += _EST_FRACTION * ATOL
                est /= scale
                err = float(np.sqrt(np.dot(est, est) / est.size))
                admissible = np.isfinite(err)

            if admissible and err <= 1.0:
                t = t_new
                y[:] = Y
                stats.accepted += 1
                stats.last_dt = h
                record_due(t, y)
                if adaptive:
                    inputs[0] = f_new
                    err = max(err, 1e-10)
                    if h_prev is None:
                        fac = 0.8 * err ** (-1.0 / 3.0)
                    else:
                        fac = 0.8 * (h / h_prev) * err_prev ** (1.0 / 3.0) / err ** (2.0 / 3.0)
                    h_base = h * min(10.0, max(0.1, fac))
                    h_prev, err_prev = h, err
            else:
                stats.rejected += 1
                h_prev = None
                h_base = 0.5 * h if not admissible else h * max(0.1, 0.8 * err ** (-1.0 / 3.0))
    return traj
