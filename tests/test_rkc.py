"""The damped Runge-Kutta-Chebyshev method, which fixed steps beyond RK4's
reach run: its recursion rows, its stability polynomial, its temporal
order, the invariants it must keep, and its agreement with the RK4
reference on fig1, whose default step is beyond that reach."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from corrosim.config import config_from_sections, scenario_config
from corrosim.diagnostics import energy_record
from corrosim.grids import GridSpec, ip_micro, norm_macro, norm_micro
from corrosim.integrator import (
    _RK4,
    TimeSpec,
    _node_block,
    _rkc_coefficients,
    _rkc_stages,
    integrate,
    stability_dt,
)
from corrosim.interpolation import ManufacturedSolution
from corrosim.model import ModelParams, State, project_initial
from reference import zero_state

POSITIVITY_SLACK = 1e-8
ENERGY_SLACK = 1e-9
MASS_SLACK = 1e-9
ORDER_FLOOR = 1.9
AGREEMENT_RTOL = 1e-5
ERROR_BUDGET = 5e-6


def fig1(**sections):
    raw = {"run": {"scenario": "fig1"}}
    raw.update({sec: {k: str(v) for k, v in entries.items()}
                for sec, entries in sections.items()})
    return config_from_sections(raw)


def run(cfg, method="rkc"):
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    traj = integrate(state0, cfg.params, cfg.grid, cfg.time)
    assert traj.stats.method == method
    return traj


def recursion(rows, f, y0, h=1.0):
    """Y_1 .. Y_s of one step of the recursion rows on y' = f(y) from y0:
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + h (mu~_j f(Y_{j-1}) + gamma~_j f(Y_0)),
    Y_j = y0 + D_j.  Works on floats, arrays and polynomials alike."""
    d_prev2, d_prev = 0.0 * y0, 0.0 * y0
    f0 = f(y0)
    stages = []
    for mu, nu, mu_t, gamma_t in rows:
        d = mu * d_prev + nu * d_prev2 + h * (mu_t * f(y0 + d_prev) + gamma_t * f0)
        d_prev2, d_prev = d_prev, d
        stages.append(y0 + d)
    return stages


def stability_polynomial(rows):
    z = np.polynomial.Polynomial([0.0, 1.0])
    return recursion(rows, lambda y: z * y, np.polynomial.Polynomial([1.0]))[-1]


class TestTableau:
    """The recursion rows the stepper runs."""

    @pytest.mark.parametrize("s", range(2, 101))
    def test_second_order_conditions(self, s):
        rows = _rkc_coefficients(s)
        assert len(rows) == s and all(isinstance(v, float) for row in rows for v in row)
        # R(z) = 1 + z + z^2/2 + O(z^3), and the last stage lands at t + h
        coef = stability_polynomial(rows).coef
        assert coef.size == s + 1
        assert np.allclose(coef[:3], [1.0, 1.0, 0.5], rtol=0.0, atol=1e-13)
        assert abs(recursion(rows, lambda y: 1.0, 0.0)[-1] - 1.0) <= 1e-13

    @pytest.mark.parametrize("s", [2, 3, 4, 7, 16, 40])
    def test_stability_polynomial_bounded_on_interval(self, s):
        z = np.linspace(-0.65 * (s * s - 1), 0.0, 801)
        r = recursion(_rkc_coefficients(s), lambda y: z * y, np.ones_like(z))[-1]
        assert np.all(np.abs(r) <= 1.0 + 1e-12), (s, z[np.argmax(np.abs(r))])

    @pytest.mark.parametrize("s", [0, 1])
    def test_needs_two_stages(self, s):
        with pytest.raises(ValueError, match=f"RKC needs at least 2 stages, got {s}"):
            _rkc_coefficients(s)

    def test_rk4_rows(self):
        coef = stability_polynomial(_RK4).coef
        assert np.allclose(coef, [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24], rtol=4e-16, atol=0.0)
        nodes = [0.0] + recursion(_RK4, lambda y: 1.0, 0.0)
        assert nodes == [0.0, 0.5, 0.5, 1.0, 1.0]

    def test_stage_count_covers_the_spectral_radius(self):
        for dt_rho in (0.0, 0.5, 3.0, 40.0, 1e3, 1e4):
            s = _rkc_stages(dt_rho, 1.0)
            assert s >= 2 and 0.65 * (s * s - 1) >= dt_rho

    def test_spectral_radius_bound_rows(self):
        g = GridSpec(1.0, 1.0, 32, 32)
        p = scenario_config("fig1").params
        gas = 4 * p.d2 * 32**2 + 2 * p.bi_m * (1 + p.henry) * 32 + p.alpha + p.beta
        # fig1's acid bound, alpha H u1_d/beta = 30, leaves the gas row binding
        assert _node_block(p, g, 30.0)[1] == pytest.approx(gas, rel=1e-14)
        assert _rkc_stages(0.2, _node_block(p, g, 30.0)[1]) == 4
        stiff = ModelParams(d1=1e-3, d2=1e-3, d3=1e-3, bi_m=0.0, henry=1.0,
                            u1_d=1.0, k=5.0, alpha=0.0, beta=0.0,
                            q_kind="linear_cutoff", m4=0.5)
        coarse = GridSpec(1.0, 1.0, 2, 2)
        # the acid row binds on a coarse grid through its reaction terms: the
        # surface loss 2 k/h_y and its gypsum coupling k A/m4, with A = 10
        assert _node_block(stiff, coarse, 10.0)[1] == pytest.approx(
            4e-3 * 4 + 5.0 * 4 + 5.0 * 20, rel=1e-14)


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_stiff_step_holds_a_fixed_number_of_state_vectors(mode, stage_counts):
    # one step of 45 stages (fig1 at 64^2 with bi_m = 50), or adaptive
    # attempts of 11 stage counts from 2 to 12, allocate no stage matrix:
    # a stage keeps only D_{j-1}, D_{j-2}, F(Y_{j-1}), F(Y_0), and the plans
    # cached per stage count hold coefficients only
    time = {"t_end": 0.2, "snapshots": "0.2"}
    if mode == "adaptive":
        time["mode"] = "adaptive"
    cfg = fig1(grid={"nx": 64, "ny": 64}, params={"bi_m": 50}, time=time)
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    state_bytes = 8 * (2 * state0.u1.size + 2 * state0.u2.size)
    tracemalloc.start()
    try:
        traj = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if mode == "fixed":
        assert traj.stats.stages == 45 and traj.stats.accepted == 1
    else:
        assert len(set(stage_counts)) >= 5 and traj.stats.stages == max(stage_counts)
    assert peak < 20 * state_bytes


def half_sine(grid):
    st = zero_state(grid)
    st.u1[...] = np.sin(0.5 * np.pi * grid.x_nodes())
    return st


class TestTemporalOrder:
    @pytest.mark.parametrize("dts,stages", [((1 / 12, 1 / 18), 4),
                                            ((0.05, 0.03), 3)])
    def test_second_order_on_the_eigenmode(self, dts, stages):
        # the discrete half-sine is an exact eigenvector of the pinned and
        # reflected gas Laplacian (see test_eigenmode_decay_rate), so the
        # data carry no transient and the error is the stepper's alone;
        # the step pairs keep the stage count, and with it the error
        # constant, fixed.  Every step beyond RK4's reach (2.7/rho = 0.0264)
        # takes at least 3 stages, and no stage count holds a step and its
        # half there: the pairs step by ratios of 1.5 and 5/3
        g = GridSpec(1.0, 1.0, 16, 2)
        p = ModelParams(d1=0.1, d2=0.1, d3=0.1, bi_m=0.0, henry=1.0, u1_d=0.0,
                        k=0.0, alpha=0.0, beta=0.0)
        lam = p.d1 * 4.0 / g.h_x**2 * np.sin(0.25 * np.pi * g.h_x) ** 2
        t_end = 2.0
        errors = []
        for dt in dts:
            st = half_sine(g)
            traj = integrate(State.view(st.t, st.y.copy(), g), p, g, TimeSpec(t_end=t_end, dt=dt))
            assert traj.stats.method == "rkc" and traj.stats.stages == stages
            exact = np.exp(-lam * t_end) * st.u1
            errors.append(np.max(np.abs(traj.snapshots[-1].u1 - exact)))
        assert np.log(errors[0] / errors[1]) / np.log(dts[0] / dts[1]) >= ORDER_FLOOR


class TestInvariants:
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_dissipation(self, dt):
        cfg = scenario_config("dissipation", dt=dt)
        traj = run(cfg)
        energies = [energy_record(cfg.grid, s).field_total() for s in traj.snapshots]
        assert max(b - a for a, b in zip(energies, energies[1:])) <= ENERGY_SLACK

    # both beyond RK4's reach in this scenario, 0.211
    @pytest.mark.parametrize("dt", [0.25, 0.5])
    def test_conservation(self, dt):
        cfg = scenario_config("conservation", dt=dt)
        traj = run(cfg)
        ones = np.ones((cfg.grid.n_x + 1, cfg.grid.n_y + 1))
        for pick in (lambda s: s.u2, lambda s: s.u3):
            masses = [ip_micro(cfg.grid, pick(s), ones) for s in traj.snapshots]
            drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
            assert drift <= MASS_SLACK

    def test_mms_spatial_order(self):
        # mms_convergence runs the RK4 reference; the same levels under rkc
        # take steps 1.7 to 2.4 times RK4's reach (0.066, 0.020 and
        # 0.0058), cut by 4 per level like h^2, so that the second-order
        # time error falls like h^4, faster than the spatial error
        solution = ManufacturedSolution()
        errors = []
        for n, dt in ((8, 0.16), (16, 0.04), (32, 0.01)):
            g = GridSpec(1.0, 1.0, n, n)
            # the constant kernel reads no acid bound
            assert dt >= 1.5 * stability_dt(solution.params, g, 10.0)
            state0 = solution.exact_state(g, 0.0)
            traj = integrate(state0, solution.params, g,
                             TimeSpec(t_end=0.5, dt=dt, snapshot_times=(0.5,)),
                             sources=solution.sources(g))
            assert traj.stats.method == "rkc"
            final, exact = traj.snapshots[-1], solution.exact_state(g, 0.5)
            errors.append([norm_macro(g, final.u1 - exact.u1),
                           norm_micro(g, final.u2 - exact.u2),
                           norm_micro(g, final.u3 - exact.u3)])
        errors = np.array(errors)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders >= ORDER_FLOOR), orders


def relative_l2(grid, got, want):
    norm = norm_micro if got.ndim == 2 else norm_macro
    return norm(grid, got - want) / norm(grid, want)


class TestErrorEstimate:
    def test_bounds_the_local_error(self):
        # adaptive mode's estimate (12 (y - y_new) + 6 h (F(y) + F(y_new))) / 15
        # against the exact one-step error on a linear problem (k = 0) from
        # rough data, measured at 1.39 to 3.97 times the true error on these
        # steps and stage counts, stable or not (s = 2 at h = 0.4 is 4 times
        # past its interval)
        expm = pytest.importorskip("scipy.linalg").expm
        from corrosim.model import rhs

        g = GridSpec(1.0, 1.0, 8, 8)
        p = ModelParams(d1=0.05, d2=0.05, d3=0.05, bi_m=0.2, henry=1.0, u1_d=0.0,
                        k=0.0, alpha=0.2, beta=0.05)
        dim = 2 * (g.n_x + 1) + 2 * (g.n_x + 1) * (g.n_y + 1)
        jac = np.column_stack([rhs(State.view(0.0, e, g), p, g).y for e in np.eye(dim)])
        y0 = np.random.default_rng(3).uniform(size=dim)
        y0[0] = p.u1_d
        for h, s in itertools.product((0.05, 0.1, 0.2, 0.4), (2, 4, 8)):
            y1 = recursion(_rkc_coefficients(s), lambda v: jac @ v, y0, h)[-1]
            est = (12.0 * (y0 - y1) + 6.0 * h * (jac @ y0 + jac @ y1)) / 15.0
            ratio = np.linalg.norm(est) / np.linalg.norm(y1 - expm(h * jac) @ y0)
            assert 1.0 <= ratio <= 5.0, (h, s, ratio)


@functools.cache
def fig1_at_80(n):
    """fig1 at n^2 at t = 80: the config, the state at the default step
    (rkc) and the state with RK4 at its reach."""
    grid = {"nx": n, "ny": n}
    time = {"t_end": 80, "snapshots": "0 40 80"}
    rkc = fig1(grid=grid, time=time)
    rk4 = fig1(grid=grid, time={**time, "mode": "fixed"})
    assert rk4.time.dt is None
    a, b = run(rkc).snapshots[-1], run(rk4, "rk4").snapshots[-1]
    assert a.t == b.t == 80.0
    return rkc, a, b


class TestFig1Default:
    @pytest.mark.parametrize("n", [16, 32])
    def test_agrees_with_rk4(self, n):
        rkc, a, b = fig1_at_80(n)
        for field in ("u1", "u2", "u3", "u4"):
            got, want = getattr(a, field), getattr(b, field)
            assert relative_l2(rkc.grid, got, want) <= AGREEMENT_RTOL

    @pytest.mark.parametrize("point", [{}, {"bi_m": 0.165, "alpha": 0.33}])
    def test_default_step_takes_four_stages_at_32(self, point):
        # fig1's stage radius at 32^2 is 24.63 at the centre and 25.34 at
        # the stiffest corner of the benchmark's +-10% box, both below the
        # 29.2 that 4 stages cover at dt = 1/3 (the row bound, 40-42,
        # took 5): 240 steps to t = 80, 960 rhs calls
        traj = run(fig1(grid={"nx": 32, "ny": 32}, params=point, time={"t_end": 80}))
        assert traj.stats.stages == 4 and traj.stats.rhs_evals == 960

    def test_default_step_within_its_error_budget(self):
        # the fields perfbench checks against its reference, u1 and u4 and
        # u2 and u3 on the x = 0.5 cell, stay within half its 1e-5 gate of
        # RK4 at 32^2 (README's rule for fig1's dt): 3.56e-6 at dt = 1/3, on
        # u2. A change of damping or stage rule that spends the margin fails
        # here, not in the benchmark
        cfg, a, b = fig1_at_80(32)
        i = int(np.argmin(np.abs(cfg.grid.x_nodes() - 0.5)))
        pairs = [(a.u1, b.u1), (a.u4, b.u4), (a.u2[i], b.u2[i]), (a.u3[i], b.u3[i])]
        worst = max(np.linalg.norm(got - want) / np.linalg.norm(want)
                    for got, want in pairs)
        assert worst <= ERROR_BUDGET

    def test_dt_beyond_the_horizon_plans_for_the_horizon(self):
        # no step outlasts the snapshot it lands on, so dt = 1 and dt = 1e6
        # both take two steps of 0.5 with the 3 stages each of them needs
        # at 8^2, 6 rhs calls, where stages sized from 1e6 would be 3,456
        runs = [run(fig1(grid={"nx": 8, "ny": 8},
                         time={"t_end": 1, "dt": dt, "snapshots": "0 0.5 1"}))
                for dt in (1, 1e6)]
        assert runs[0].stats == runs[1].stats and runs[0].stats.stages == 3
        for a, b in zip(runs[0].snapshots, runs[1].snapshots, strict=True):
            assert a.t == b.t and np.array_equal(a.y, b.y)

    def test_each_step_takes_the_stages_its_own_step_needs(self, stage_counts):
        # fixed RKC sizes every step as adaptive mode sizes an attempt: at
        # 16^2, three steps of 0.3 take 3 stages each and the step of 0.1
        # that lands on t_end = 1 takes 2
        traj = run(fig1(grid={"nx": 16, "ny": 16},
                        time={"t_end": 1, "dt": 0.3, "snapshots": "0 1"}))
        assert stage_counts == [3, 3, 3, 2]
        assert traj.stats.rhs_evals == sum(stage_counts) == 11
        assert traj.stats.stages == 3

    @pytest.mark.parametrize("bi_m,k,n",
                             list(itertools.product((2, 20, 50), (0.1, 2), (16, 64))))
    def test_stiff_corners_stay_nonnegative_and_bounded(self, bi_m, k, n):
        # RK4 at 0.4 h_y^2 / (2 d2), a step set by diffusion alone, exits
        # with a non-finite state, or (bi_m = 2 at 64^2) ends near 1e217, on
        # each of these to t = 20; rkc takes as many stages as the exchange
        # and surface terms need
        cfg = fig1(grid={"nx": n, "ny": n}, params={"bi_m": bi_m, "k": k},
                   time={"t_end": 20, "snapshots": "0 5 10 15 20"})
        traj = run(cfg)
        low = min(float(s.y.min()) for s in traj.snapshots)
        high = max(float(s.y.max()) for s in traj.snapshots)
        assert low >= -POSITIVITY_SLACK
        assert high <= 10.0

    def test_stiff_exchange_adaptive(self):
        # adaptive mode on stiff exchange (bi_m = 50, 16^2, t = 20) sets its
        # step by accuracy: about 5,500 rhs calls with at most 16 stages,
        # where adaptive RK4, held to its stability interval, took 47,501
        cfg = fig1(grid={"nx": 16, "ny": 16}, params={"bi_m": 50},
                   time={"t_end": 20, "mode": "adaptive"})
        traj = run(cfg)
        assert traj.stats.rhs_evals <= 10_000
        assert traj.snapshots[-1].t == 20.0 and traj.snapshots[-1].y.min() >= 0.0
