"""The damped Runge-Kutta-Chebyshev method, which fixed steps beyond RK4's
reach run: its recursion rows, its stability polynomial, its temporal
order, the invariants it must keep, and its agreement with the RK4
reference on fig1, whose default step is beyond that reach."""

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
    _rkc_coefficients,
    _rkc_stages,
    integrate,
    spectral_radius_bound,
    stability_dt,
)
from corrosim.interpolation import ManufacturedSolution
from corrosim.model import ModelParams, State, project_initial, unshifted_u1
from reference import zero_state

POSITIVITY_SLACK = 1e-8
ENERGY_SLACK = 1e-9
MASS_SLACK = 1e-9
ORDER_FLOOR = 1.9
AGREEMENT_RTOL = 1e-5


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
        assert spectral_radius_bound(p, g) == pytest.approx(gas, rel=1e-14)
        assert _rkc_stages(0.2, spectral_radius_bound(p, g)) == 4
        stiff = ModelParams(d1=1e-3, d2=1e-3, d3=1e-3, bi_m=0.0, henry=1.0,
                            u1_d=1.0, k=5.0, alpha=0.0, beta=0.0,
                            q_kind="linear_cutoff", m3=10.0, m4=0.5)
        coarse = GridSpec(1.0, 1.0, 2, 2)
        # the gypsum row, k c_bar (1 + m3/m4), binds on a coarse grid
        assert spectral_radius_bound(stiff, coarse) == pytest.approx(5.0 * 21.0)


def test_stiff_step_holds_a_fixed_number_of_state_vectors():
    # one step of 63 stages (fig1 at 64^2 with bi_m = 50) allocates no
    # stage matrix: a stage keeps only D_{j-1}, D_{j-2}, F(Y_{j-1}), F(Y_0)
    cfg = fig1(grid={"nx": 64, "ny": 64}, params={"bi_m": 50},
               time={"t_end": 0.2, "snapshots": "0.2"})
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    state_bytes = 8 * (2 * state0.u1.size + 2 * state0.u2.size)
    tracemalloc.start()
    try:
        traj = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.stats.stages == 63 and traj.stats.accepted == 1
    assert peak < 20 * state_bytes


def half_sine(grid):
    st = zero_state(grid)
    st.u1[...] = np.sin(0.5 * np.pi * grid.x_nodes())
    return st


class TestTemporalOrder:
    @pytest.mark.parametrize("dts,stages", [((0.016, 0.008), 2),
                                            ((0.05, 0.025), 3)])
    def test_second_order_on_the_eigenmode(self, dts, stages):
        # the discrete half-sine is an exact eigenvector of the pinned and
        # reflected gas Laplacian (see test_eigenmode_decay_rate), so the
        # data carry no transient and the error is the stepper's alone;
        # the step pairs keep the stage count, and with it the error
        # constant, fixed
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
        assert np.log2(errors[0] / errors[1]) >= ORDER_FLOOR


class TestInvariants:
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_dissipation(self, dt):
        cfg = scenario_config("dissipation", dt=dt)
        traj = run(cfg)
        energies = [energy_record(cfg.grid, s).field_total() for s in traj.snapshots]
        assert max(b - a for a, b in zip(energies, energies[1:])) <= ENERGY_SLACK

    @pytest.mark.parametrize("dt", [0.1, 0.5])
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
        # take steps 1.6 times RK4's reach (0.031, 0.0078 and 0.0020), cut
        # by 4 per level like h^2, so that the second-order time error
        # falls like h^4, faster than the spatial error
        solution = ManufacturedSolution()
        errors = []
        for n, dt in ((8, 0.05), (16, 0.0125), (32, 0.003125)):
            g = GridSpec(1.0, 1.0, n, n)
            assert dt >= 1.5 * stability_dt(solution.params, g)
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


class TestFig1Default:
    @pytest.mark.parametrize("n", [16, 32])
    def test_agrees_with_rk4(self, n):
        grid = {"nx": n, "ny": n}
        time = {"t_end": 80, "snapshots": "0 40 80"}
        rkc = fig1(grid=grid, time=time)
        rk4 = fig1(grid=grid, time={**time, "mode": "fixed"})
        assert rk4.time.dt is None
        a, b = run(rkc).snapshots[-1], run(rk4, "rk4").snapshots[-1]
        assert a.t == b.t == 80.0
        u1 = lambda s: unshifted_u1(s, rkc.params)
        for field in (u1, lambda s: s.u2, lambda s: s.u3, lambda s: s.u4):
            assert relative_l2(rkc.grid, field(a), field(b)) <= AGREEMENT_RTOL

    @pytest.mark.parametrize("bi_m,k,n",
                             list(itertools.product((2, 20, 50), (0.1, 2), (16, 64))))
    def test_stiff_corners_stay_nonnegative_and_bounded(self, bi_m, k, n):
        # RK4 at the diffusion limit alone exits with a non-finite state, or
        # (bi_m = 2 at 64^2) ends near 1e217, on each of these to t = 20;
        # rkc takes as many stages as the exchange and surface terms need
        cfg = fig1(grid={"nx": n, "ny": n}, params={"bi_m": bi_m, "k": k},
                   time={"t_end": 20, "snapshots": "0 5 10 15 20"})
        traj = run(cfg)
        low = min(min(float(unshifted_u1(s, cfg.params).min()), float(s.u2.min()),
                      float(s.u3.min()), float(s.u4.min())) for s in traj.snapshots)
        high = max(max(float(unshifted_u1(s, cfg.params).max()), float(s.u2.max()),
                       float(s.u3.max()), float(s.u4.max())) for s in traj.snapshots)
        assert low >= -POSITIVITY_SLACK
        assert high <= 10.0
