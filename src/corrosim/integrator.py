"""Method-of-lines time stepping for the semi-discrete system.

Two explicit modes:

* fixed     a fixed step dt, RK4's reach `stability_dt` =
            min(2.7 / rho, 2 / delta) when none is given, with rho and
            delta the bounds below; the reach is never shorter than
            2 / rho.  Up to it the mode
            runs classical fourth-order Runge-Kutta, the reference; beyond
            it the damped second-order Runge-Kutta-Chebyshev method
            (Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88, 1998),
            whose stability interval grows with the square of the stage
            count s, so the step is not tied to h_y^2: each step h takes
            s = 1 + floor(sqrt(1 + 1.54 h rho_s)) stages, at least 3 for a
            full step beyond the reach and at least 2 for one shortened
            to land, and at most _MAX_STAGES.  The damping (eps = 2/13)
            shrinks stiff modes by a factor of only about 0.95 per step,
            so rough data, or data off the Robin closure, converges slowly
            in time; smooth, transient-free data sees second order.
* adaptive  the same RKC, error-controlled, with the step set by accuracy
            and the same stage rule for each attempt.  The embedded
            estimate of Sommeijer et al., est = (12 (y_n - y_new)
            + 6 h (F(y_n) + F(y_new))) / 15, of a second-order local error,
            is held to a tenth of ATOL + RTOL max(|y_n|, |y_new|) in RMS,
            so that the global error stays within 10 (ATOL + RTOL |u|).
            Their controller sets the next step, h 0.8 (h / h_prev)
            err_prev^(1/3) / err^(2/3), or h 0.8 err^(-1/3) on the first
            step and after a rejection, within [0.1 h, 10 h], starting from
            RK4's reach; a step shortened to land leaves it as it was.
            The first-same-as-last evaluation F(y_new) completes the
            estimate and is the next attempt's F(Y_0).

The step bounds come from one macro node's block M, which `_node_block`
builds with rho and delta for acid up to the acid face of `_box_faces`;
`integrate` builds it once, `stability_dt` once more.  rho, the row bound,
counts the Robin exchange twice, so on fig1 at 32^2 it reads 40 where the
spectral radius is 24.6; rho_s, `_perron_bound` of M, bounds M's Perron
root from above, to the probed radius within 1e-6, and only an RKC run
computes it.  RKC's stage counts read rho_s; RK4's reach, the RK4/RKC
boundary and adaptive mode's first step keep rho: at 2.7 / rho_s, RK4
drives u2 to -0.009 on an 8^2 test problem and ends 6e-3 off the matrix
exponential on random 8^2 data, so its positivity and accuracy there rest
on the row bound's slack.

One stage loop runs both as rows of RKC's three-term recursion in increment
form, with the plan of each stage count built once per run, on at most 8
flat state vectors for any stage count: y, the stage state Y, a spare d,
|y| (adaptive), and `inputs`, F(Y_0), F(Y_{j-1}), D_{j-1} and D_{j-2}.
An accepted step swaps y with Y rather than copying.  Each vector is the
`y` of a State or a Tendency: `State.view` and `Tendency.view` wrap it
without copying, so `rhs` reads a stage state and fills a tendency in
place.  All modes shorten steps to land exactly on the requested snapshot
times, so stored snapshots are states of the integrated trajectory, not
interpolants.  A step that lands sets t to the snapshot time itself, not
to t + h, so the next step and its sources start from that time; however
short a landing step, it is no underflow, which only the step the mode
asks for (dt, RK4's reach or the controller's) can be.

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
_PERRON_TOL = 1e-7   # relative width of the bracket on which `_perron_bound` stops
_PERRON_SHIFT = 0.02  # added to the diagonal of the block scaled to spectrum [0, 1]
_MAX_STAGES = 10_000   # the most stages an RKC attempt takes; its plan builds in about 0.1 s
_MAX_STEPS = 1_000_000   # the most steps fixed mode takes at RK4's reach, which it chose itself


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
    stages: int = 0          # the most stages a step attempt took
    method: str = ""         # "rk4" | "rkc"
    rho: float = 0.0         # row bound of `_node_block`
    delta: float = 0.0       # diagonal bound of `_node_block`
    stage_radius: float = 0.0  # `_perron_bound`, which RKC's stage counts read; 0 for an RK4 run


@dataclass
class Trajectory:
    snapshots: list[State] = field(default_factory=list)
    stats: StepStats = field(default_factory=StepStats)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def _box_faces(params: ModelParams, state: State,
               horizon: float) -> tuple[float, float, float, float]:
    """Upper faces (u1, u2, u3, u4) of the box the unforced semi-discrete
    system keeps within `horizon` from `state`.  The system is quasi-monotone
    and the surface reaction only removes acid, so a box whose upper faces
    point inward is invariant (Chueh, Conley & Smoller, Indiana Univ. Math.
    J. 26, 1977).  Sources void it.

    With G = max(H u1_d, H max u1, max u2), the acid grows at most at the
    rate alpha G - beta u3, so its face A is max(max u3, alpha G/beta), or
    max u3 + alpha G horizon with beta = 0.  The dissolved-gas face G'
    leaves u2 no inflow at u2 = G': the Robin ghost needs H u1 <= G', so
    u1's face is G'/H, and the volume exchange needs beta A <= alpha G'.
    With alpha > 0 that is G' = max(G, beta A/alpha), which equals G unless
    the acid starts above alpha G/beta; with alpha = 0 the acid feeds u2 at
    most at the rate beta A, so G' grows with the horizon.  The gypsum stops
    at max(m4, max u4) under the linear cutoff and has no face under the
    constant kernel (the largest float, so that only an overflow crosses
    it).  Each face is exact at the start data its own field attains.
    """
    henry, alpha, beta = params.henry, params.alpha, params.beta
    # a float, so that a face beyond the largest float is inf without a warning
    gas = float(max(henry * max(params.u1_d, state.u1.max()), state.u2.max()))
    acid = float(state.u3.max())
    acid = max(acid, alpha * gas / beta) if beta > 0.0 else acid + alpha * gas * horizon
    gas = max(gas, beta * acid / alpha) if alpha > 0.0 else gas + beta * acid * horizon
    gypsum = (max(params.m4, state.u4.max()) if params.q_kind == "linear_cutoff"
              else np.finfo(float).max)
    return (float(max(params.u1_d, state.u1.max(), gas / henry)), gas, acid, float(gypsum))


def stability_dt(params: ModelParams, grid: GridSpec, acid: float) -> float:
    """RK4's reach, the largest fixed step RK4 takes: min(2.7 / rho, 2 / delta),
    with rho and delta from a block `_node_block` builds for acid at most `acid`.

    RK4's stability region holds the disc |z + r| <= r for every r up to
    1.3926, and with it the real interval [-2.785, 0]; the Jacobians of `rhs`
    probed in the tests have real spectra, so dt * rho <= 2.7 keeps every
    mode inside it (|R(-2.7)| = 0.88).  The second clause keeps dt * delta <= 2,
    so the half-step Euler stage y + (dt/2) F(y) leaves each row's own
    factor 1 - dt * delta_row / 2 nonnegative: without it the gypsum of the
    stiff linear-cutoff case overshoots m4.
    """
    _, rho, delta = _node_block(params, grid, acid)
    return min(_RK4_REACH / rho, 2.0 / delta)


def _node_block(params: ModelParams, grid: GridSpec,
                acid: float) -> tuple[np.ndarray, float, float]:
    """One macro node's block M of Jacobian magnitudes of `rhs` for acid at
    most `acid`, ordered (u1, u2[0..n_y], u3[0..n_y], u4), with rho and delta:
    M[i, i + j] at [., i] for j = 0, 1, -1, n_y + 1, -(n_y + 1), the gas
    row's x-neighbours on its diagonal, the gypsum scaled by h_y/2.  Any
    v > 0 bounds J's spectral radius by the Collatz-Wielandt ratio
    max_i (M v)_i / v_i (Varga, *Gersgorin and His Circles*, 2004); rho is
    M's largest row sum, the ratio at v = 1, and delta its largest diagonal
    entry, the gas row's x-neighbours aside.
    """
    bi_m, henry, k = params.bi_m, params.henry, params.k
    h_x, h_y, m = grid.h_x, grid.h_y, grid.n_y + 1
    M = np.zeros((5, 2 * m + 2))
    diag, upper, lower, up_m, down_m = M
    for lo, d, own in ((1, params.d2, params.alpha), (1 + m, params.d3, params.beta)):
        c = d / h_y**2   # each ladder's coupling to a neighbour
        diag[lo:lo + m] = 2.0 * c + own
        upper[lo:lo + m - 1] = lower[lo + 1:lo + m] = c
        upper[lo] = lower[lo + m - 1] = 2.0 * c   # the reflected row ends
    up_m[1:1 + m], down_m[1 + m:1 + 2 * m] = params.beta, params.alpha
    diag[0] = 4.0 * params.d1 / h_x**2 + bi_m * henry
    diag[[1, -2]] += 2.0 * bi_m / h_y, 2.0 * k / h_y   # the Robin and surface-loss ghosts
    upper[0], lower[1], lower[-1] = bi_m, 2.0 * bi_m * henry / h_y, 2.0 * k / h_y
    if params.q_kind == "linear_cutoff":   # the gypsum's own rate and the acid's loss to it
        upper[-2] = diag[-1] = k * acid / params.m4
    rho = float(M.sum(axis=0).max())
    delta = float(max(diag[0] - 2.0 * params.d1 / h_x**2, diag[1:].max()))
    return M, rho, delta


def _perron_bound(M: np.ndarray, rho: float, delta: float) -> float:
    """M's Perron root from above: the least Collatz-Wielandt ratio
    max_i (S w)_i / w_i over power iterates w of the dense S = sqrt(M) o sqrt(M^T).

    M is diagonally similar to S (paired entries share a sign, each ladder
    cycle has one product both ways), or block-triangular with S's diagonal
    blocks where a pair is one-sided.  S is positive semidefinite (ladders
    and singular 2 x 2 couplings), so its Ritz values bound the root from
    below; every 16 products stop once the bounds agree to _PERRON_TOL,
    4,096 in any case.  S is scaled into [0, 1] and shifted so that w stays
    positive, with entries above 2^-600.  delta only absorbs rounding.
    Square roots first: M_ij M_ji overflows near acid 1e236.
    """
    n = M.shape[1]
    S = np.zeros((n, n))
    flat = S.reshape(-1)
    flat[::n + 1] = M[0] / rho + _PERRON_SHIFT
    for j, up, down in ((1, M[1], M[2]), (n // 2 - 1, M[3], M[4])):   # M[i, i + j], M[i, i - j]
        flat[j::n + 1][:n - j] = flat[j * n::n + 1] = np.sqrt(up[:-j]) * np.sqrt(down[j:]) / rho
    v, w, best = np.ones(n), np.empty(n), rho
    for _ in range(256):
        for _ in range(15):   # 16 products a check with z below; then v = S w
            np.dot(S, v, out=w)
            v, w = w, v
        best = min(best, rho * (float((v / w).max()) - _PERRON_SHIFT))
        a, z = w @ w, np.dot(S, v)
        low = t = float(w @ v) / a   # w's Rayleigh quotient
        u, su = v - t * w, z - t * v   # S w off w, and S of that
        if (uu := float(u @ u)) > 1e-10 * t * t * a:   # the larger Ritz value on span{w, S w}
            t2 = float(u @ su) / uu
            low = 0.5 * (t + t2) + np.sqrt(0.25 * (t - t2) ** 2 + uu / a)
        if best - rho * (low - _PERRON_SHIFT) <= _PERRON_TOL * best:
            break
        np.maximum(z / z.max(), 2.0**-600, out=v)
    return max(best, delta)


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
    written in the same attempt, so no 0 * inf from a rejected one.  W[s]
    is adaptive mode's estimate over 0.1 RTOL, with F(y_new) in row 1 and
    weight 0 on D_{s-1}.
    """
    s = len(rows)
    A, B, W = np.zeros((s + 1, 4)), np.zeros((s + 1, 4)), np.empty((s + 1, 4))
    c = [0.0, 0.0]              # nodes c_{j-1}, c_j: the rows applied to y' = 1
    plan = []
    for j, (mu, nu, mu_t, gamma_t) in enumerate(rows):  # 0-based: D_{j+1}
        slot = 2 + j % 2
        A[j, 2 + (j + 1) % 2], A[j, slot] = mu, nu
        B[j, 0] = gamma_t
        B[j, min(j, 1)] += mu_t
        lo, hi = np.flatnonzero(A[j] + B[j])[[0, -1]] + [0, 1]
        plan.append((W[j, lo:hi], inputs[lo:hi], inputs[slot], lo <= slot < hi, c[-1]))
        c.append(mu * c[-1] + nu * c[-2] + mu_t + gamma_t)
    A[s, 2 + (s - 1) % 2] = -0.8 / (_EST_FRACTION * RTOL)
    B[s, :2] = 0.4 / (_EST_FRACTION * RTOL)
    return A, B, W, plan


def integrate(state0: State, params: ModelParams, grid: GridSpec,
              timespec: TimeSpec, sources: SourceTerms | None = None) -> Trajectory:
    """Advance the state to t_end, storing snapshots at the requested times.

    Fixed mode runs RK4 up to RK4's reach (`stability_dt`, also the step
    when dt is None) and RKC beyond it; adaptive mode runs RKC with its
    embedded error estimate.  Each RKC attempt takes the stages its own
    step times the stage radius needs.  The box of `_box_faces` is
    computed once, from the start state over the horizon: its acid face
    sets the step bounds, and its faces the step check.  Raises
    AssumptionError (A4) when the start state is not finite or its gas
    node at x = 0 does not hold u1_d, and DivergedError (carrying the last
    good state) on non-finite values, on a concentration below
    -POSITIVITY_SLACK or, without sources, above its face of the invariant
    box by more than that (adaptive mode rejects such steps instead), when
    the step the mode asks for underflows.  It also raises DivergedError
    before the first step when the acid face leaves rho or delta
    non-finite, or fixed mode without a dt needs more than _MAX_STEPS steps
    at RK4's reach, and before an RKC attempt that needs more than
    _MAX_STAGES stages.
    The summary in `Trajectory.stats` carries rho and delta, and on the
    RKC paths the stage radius.
    """
    state0.validate(grid)
    if not np.isfinite(state0.y).all():   # the step bounds read its maxima
        raise AssumptionError("A4", "the start state must be finite")
    if state0.u1[0] != params.u1_d:
        raise AssumptionError("A4", f"the gas node at x = 0 must hold u1_d = {params.u1_d!r}, "
                                    f"got u1[0] = {float(state0.u1[0])!r}")
    adaptive = timespec.mode == "adaptive"
    faces = _box_faces(params, state0, timespec.t_end - state0.t)
    acid = faces[2]
    M, rho, delta = _node_block(params, grid, acid)
    if not np.isfinite((rho, delta)).all():   # a tiny beta puts the acid face at inf
        raise DivergedError(f"the acid face {acid:.6g} leaves the step bounds non-finite: "
                            f"rho = {rho:.6g}, delta = {delta:.6g}",
                            State.view(state0.t, state0.y.copy(), grid))
    reach = stability_dt(params, grid, acid)
    h_base = reach if timespec.dt is None else float(timespec.dt)  # adaptive: a conservative start
    if not adaptive and timespec.dt is None and timespec.t_end - state0.t > _MAX_STEPS * reach:
        raise DivergedError(f"RK4's reach {reach:.6g} needs more than {_MAX_STEPS} steps to "
                            f"t={timespec.t_end:g}; a dt beyond it runs RKC instead",
                            State.view(state0.t, state0.y.copy(), grid))
    method = "rkc" if adaptive or h_base > reach else "rk4"
    # only RKC's stage counts read the stage radius; an RK4 run skips its power iteration
    radius = _perron_bound(M, rho, delta) if method == "rkc" else 0.0
    stats = StepStats(method=method, rho=rho, delta=delta, stage_radius=radius)
    # sources void the box: a forced step fails only on a negative or
    # non-finite value, which `_inadmissible` reports before any face
    tops = np.add(faces, POSITIVITY_SLACK) if sources is None else np.full(4, np.finfo(float).max)

    t = float(state0.t)
    y = state0.y.copy()
    t_end = float(timespec.t_end)
    targets = [s for s in timespec.snapshot_times if s >= t]

    # stage buffers and views, built once; a stage plan per stage count reads them
    inputs = np.empty((4, y.size))
    d, Y = np.empty_like(y), np.empty_like(y)
    abs_y = np.abs(y) if adaptive else None
    current, stage = State.view(t, y, grid), State.view(t, Y, grid)
    starts = np.cumsum([0, stage.u1.size, stage.u2.size, stage.u3.size])  # each field's first entry
    f0_out, f_out = Tendency.view(inputs[0], grid), Tendency.view(inputs[1], grid)
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
            if h_base < 1e-14 * max(1.0, abs(t)):   # a step shortened to land is no underflow
                raise DivergedError(f"step size underflow at t={t:g}",
                                    State.view(t, y.copy(), grid))

            if method == "rk4":
                s = len(_RK4)
            elif 1.54 * h * radius < _MAX_STAGES**2 - 1:   # _rkc_stages(h, radius) <= _MAX_STAGES
                s = _rkc_stages(h, radius)
            else:   # more stages, or an infinite product
                raise DivergedError(f"an RKC step h = {h:.6g} at stage radius {radius:.6g} needs "
                                    f"more than {_MAX_STAGES} stages at t={t:g}",
                                    State.view(t, y.copy(), grid))
            if s not in plans:
                plans[s] = _stage_plan(_RK4 if method == "rk4" else _rkc_coefficients(s), inputs)
            A, B, W, plan = plans[s]
            stats.stages = max(stats.stages, s)
            if not adaptive or stats.rhs_evals == 0:  # else F(y_new) is F(Y_0)
                evaluate(current, t, f0_out)
            np.multiply(B, h, out=W)
            W += A
            for j, (w, span, slot, reads_slot, node) in enumerate(plan):
                if j:
                    evaluate(stage, t + node * h, f_out)
                if reads_slot:   # D_j replaces the D_{j-2} it reads
                    np.dot(w, span, out=d)
                    slot[...] = d
                else:
                    np.dot(w, span, out=slot)
                np.add(y, slot, out=Y)
            # one maximum per field; every face is finite, so a NaN fails
            # the minimum and an infinity a maximum
            admissible = (Y.min() >= -POSITIVITY_SLACK
                          and (np.maximum.reduceat(Y, starts) <= tops).all())
            err = 0.0
            if not adaptive and not admissible:
                reason = _inadmissible(State.view(t_new, Y, grid), faces)
                raise DivergedError(f"{reason} at t={t_new:g}", State.view(t, y.copy(), grid))
            if adaptive and admissible:
                # F(y_new), the next F(Y_0), completes the estimate; the
                # scale max(|y|, |y_new|) + ATOL/RTOL goes to the slot it
                # weights 0, the estimate to abs_y, whose |y| the scale used
                evaluate(stage, t_new, f_out)
                scale = inputs[2 + s % 2]
                np.abs(Y, out=d)   # the next |y| if accepted
                np.maximum(abs_y, d, out=scale)
                scale += ATOL / RTOL
                est = np.dot(W[s], inputs, out=abs_y)
                est /= scale
                err = float(np.sqrt(np.dot(est, est) / est.size))
                admissible = np.isfinite(err)

            if admissible and err <= 1.0:
                t = t_new
                y, Y = Y, y
                current, stage = stage, current
                stats.accepted += 1
                stats.last_dt = h
                record_due(t, y)
                if adaptive:
                    abs_y, d = d, abs_y
                    inputs[0] = inputs[1]
                if adaptive and h >= h_base:   # a step shortened to land leaves the controller alone
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
                if adaptive:   # the estimate may have used abs_y
                    np.abs(y, out=abs_y)
                h_base = 0.5 * h if not admissible else h * max(0.1, 0.8 * err ** (-1.0 / 3.0))
    return traj
