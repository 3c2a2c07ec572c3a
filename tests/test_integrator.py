import numpy as np
import pytest

from corrosim.grids import GridSpec
from corrosim.integrator import (
    ATOL,
    POSITIVITY_SLACK,
    RTOL,
    DivergedError,
    TimeSpec,
    _rkc_coefficients,
    _rkc_stages,
    integrate,
    spectral_radius_bound,
    stability_dt,
)
from corrosim.model import ModelParams, SourceTerms, State
from reference import zero_state


def params(**overrides):
    base = dict(d1=1.0, d2=1.0, d3=1.0, bi_m=0.0, henry=1.0, u1_d=0.0,
                k=0.0, alpha=0.0, beta=0.0, c_bar=1.0, q_kind="constant")
    base.update(overrides)
    return ModelParams(**base)


# stepper cases by label: "fixed" is RK4 within its reach, "adaptive" RK4
# with its FSAL error estimate, "rkc" fixed steps beyond RK4's reach
METHOD = {"fixed": "rk4", "adaptive": "rk4", "rkc": "rkc"}


def case_timespec(case, t_end, rkc_dt, **kwargs):
    """The TimeSpec of a stepper case; rkc_dt must lie beyond RK4's reach."""
    if case == "adaptive":
        return TimeSpec(t_end=t_end, mode="adaptive", **kwargs)
    return TimeSpec(t_end=t_end, dt=rkc_dt if case == "rkc" else None, **kwargs)


class TestTimeSpec:
    def test_defaults(self):
        ts = TimeSpec(t_end=2.0)
        assert ts.snapshot_times == (0.0, 2.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            TimeSpec(t_end=0.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            TimeSpec(t_end=1.0, mode="implicit")

    def test_rkc_is_no_mode(self):
        # RKC runs as the fixed mode's method beyond RK4's reach
        for dt in (None, 0.1):
            with pytest.raises(ValueError, match="'fixed' or 'adaptive'"):
                TimeSpec(t_end=1.0, mode="rkc", dt=dt)

    def test_snapshots_outside_range(self):
        with pytest.raises(ValueError):
            TimeSpec(t_end=1.0, snapshot_times=(0.0, 2.0))

    def test_snapshots_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSpec(t_end=10.0, snapshot_times=(0.0, float("nan"), 10.0))

    def test_adaptive_takes_no_step(self):
        with pytest.raises(ValueError, match="adaptive"):
            TimeSpec(t_end=1.0, mode="adaptive", dt=0.1)

    def test_snapshots_unsorted(self):
        with pytest.raises(ValueError):
            TimeSpec(t_end=1.0, snapshot_times=(0.5, 0.2))


class TestStabilityLimit:
    def test_reference_value(self):
        g = GridSpec(1.0, 1.0, 10, 10)  # h = 0.1
        assert stability_dt(params(), g) == pytest.approx(0.002)

    def test_micro_diffusivity_binds(self):
        g = GridSpec(1.0, 1.0, 10, 10)
        base = stability_dt(params(), g)
        assert stability_dt(params(d2=10.0), g) == pytest.approx(base / 10.0)

    def test_quadratic_in_step(self):
        g = GridSpec(1.0, 1.0, 10, 10)
        fine = g.refine(2)
        assert stability_dt(params(), fine) == pytest.approx(
            stability_dt(params(), g) / 4.0)

    def test_exchange_binds(self):
        # a stiff Robin exchange: the gas row of the Gershgorin bound,
        # 4 d2/h_y^2 + 2 bi_m (1 + H)/h_y = 400 + 4000, binds, not diffusion
        g = GridSpec(1.0, 1.0, 10, 10)
        p = params(bi_m=100.0)
        assert spectral_radius_bound(p, g) == pytest.approx(4400.0)
        assert stability_dt(p, g) == pytest.approx(2.0 / 4400.0)
        assert stability_dt(p, g) < stability_dt(params(), g)


class TestMethodSelection:
    P = dict(d1=0.2, d2=0.3, d3=0.1, bi_m=0.4, u1_d=1.0, k=0.3,
             alpha=0.3, beta=0.2)

    @pytest.mark.parametrize("factor,method", [(1.0, "rk4"), (1.01, "rkc")])
    def test_reach_is_the_boundary(self, factor, method):
        g = GridSpec(1.0, 1.0, 8, 6)
        p = params(**self.P)
        dt = factor * stability_dt(p, g)
        traj = integrate(random_state(g, 3), p, g, TimeSpec(t_end=3 * dt, dt=dt))
        stages = 4 if method == "rk4" else _rkc_stages(dt, spectral_radius_bound(p, g))
        assert traj.stats.method == method and traj.stats.stages == stages
        assert traj.stats.accepted == 3 and traj.stats.rhs_evals == 3 * stages

    def test_no_step_is_rk4_at_its_reach(self):
        g = GridSpec(1.0, 1.0, 8, 6)
        p = params(**self.P)
        traj = integrate(random_state(g, 3), p, g, TimeSpec(t_end=1.0))
        assert traj.stats.method == "rk4"
        assert traj.stats.accepted == int(np.ceil(1.0 / stability_dt(p, g)))

    def test_adaptive_is_rk4(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        traj = integrate(zero_state(g), params(), g, TimeSpec(t_end=0.1, mode="adaptive"))
        assert (traj.stats.method, traj.stats.stages) == ("rk4", 4)


class TestFixedStep:
    def test_zero_state_stays_zero(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        traj = integrate(zero_state(g), params(), g,
                         TimeSpec(t_end=1.0, snapshot_times=(0.0, 0.5, 1.0)))
        assert [s.t for s in traj.snapshots] == [0.0, 0.5, 1.0]
        for s in traj.snapshots:
            assert np.all(s.u1 == 0.0) and np.all(s.u2 == 0.0)

    def test_gypsum_ode_linear_growth(self, no_diffusion):
        # frozen acid trace (diffusion off), identity kernel, constant q:
        # the gypsum field grows exactly linearly
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(k=1.0)
        st = zero_state(g)
        st.u3[:] = 1.0
        traj = integrate(st, p, g,
                         TimeSpec(t_end=2.0, snapshot_times=(0.0, 1.0, 2.0)))
        for s in traj.snapshots:
            assert np.allclose(s.u4, s.t, rtol=1e-12, atol=1e-12)
            assert np.allclose(s.u3, 1.0)

    def test_dirichlet_pin_held(self):
        g = GridSpec(1.0, 1.0, 8, 4)
        p = params(bi_m=0.5, u1_d=1.0, alpha=0.2, beta=0.1, k=0.1)
        st = zero_state(g)
        st.u1[...] = np.sin(np.pi * g.x_nodes())
        st.u1[0] = 0.0
        traj = integrate(st, p, g, TimeSpec(t_end=0.5))
        assert traj.snapshots[-1].u1[0] == 0.0

    def test_eigenmode_decay_rate(self):
        # decoupled gas diffusion; the half-sine mode satisfies both boundary
        # closures, so its amplitude decays at the discrete rate, which is
        # within 1% of d1*(pi/2L)^2 at this resolution
        L = 1.0
        g = GridSpec(L, 1.0, 16, 2)
        p = params(d1=0.1, d2=0.1, d3=0.1)
        st = zero_state(g)
        st.u1[...] = np.sin(np.pi * g.x_nodes() / (2 * L))
        t_end = 2.0
        traj = integrate(st, p, g, TimeSpec(t_end=t_end))
        final = traj.snapshots[-1]
        ratio = final.u1[8] / st.u1[8]
        rate = -np.log(ratio) / t_end
        exact = p.d1 * (np.pi / (2 * L)) ** 2
        assert rate == pytest.approx(exact, rel=0.01)

    def test_matches_matrix_exponential(self):
        # with k = 0 the whole right-hand side is linear; probe it into a
        # matrix and compare against the exact semi-discrete propagator
        expm = pytest.importorskip("scipy.linalg").expm
        from corrosim.model import State, rhs

        g = GridSpec(1.0, 1.0, 8, 8)
        p = params(d1=0.2, d2=0.3, d3=0.1, bi_m=0.4, henry=1.0,
                   alpha=0.3, beta=0.2)
        dim = (g.n_x + 1) * 2 + 2 * (g.n_x + 1) * (g.n_y + 1)
        A = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            A[:, j] = rhs(State.view(0.0, e, g), p, g).y
        rng = np.random.default_rng(8)
        st = zero_state(g)
        st.u1[...] = rng.uniform(size=9)
        st.u1[0] = 0.0
        st.u2[...] = rng.uniform(size=(9, 9))
        st.u3[...] = rng.uniform(size=(9, 9))
        st.u4[...] = rng.uniform(size=9)
        t_end = 0.5
        traj = integrate(st, p, g, TimeSpec(t_end=t_end))
        got = traj.snapshots[-1].y
        want = expm(A * t_end) @ st.y
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_step_beyond_reach_runs_rkc(self):
        # twice RK4's reach runs RKC, which keeps the decaying data bounded
        g = GridSpec(1.0, 1.0, 8, 8)
        p = params()
        st = zero_state(g)
        st.u2[:] = 1.0
        traj = integrate(st, p, g, TimeSpec(t_end=1.0, dt=2.0 * stability_dt(p, g)))
        assert traj.stats.method == "rkc"
        final = traj.snapshots[-1]
        assert np.all(np.isfinite(final.u2)) and final.u2.max() <= 1.0 + 1e-12

    def test_snapshots_are_deterministic(self):
        g = GridSpec(1.0, 1.0, 8, 4)
        p = params(bi_m=0.3, u1_d=1.0, alpha=0.2, beta=0.1, k=0.2)
        ts = TimeSpec(t_end=1.0, snapshot_times=(0.0, 0.3, 1.0))

        def run():
            st = zero_state(g)
            st.u2[:] = 0.5
            return integrate(st, p, g, ts)

        a, b = run(), run()
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.u1, sb.u1)
            assert np.array_equal(sa.u2, sb.u2)
            assert np.array_equal(sa.u3, sb.u3)
            assert np.array_equal(sa.u4, sb.u4)


class TestSnapshotLanding:
    @pytest.mark.parametrize("mode", ["fixed", "rkc"])
    @pytest.mark.parametrize("t_end,dt,steps", [(1.0, 0.1, 10), (400.0, 0.2, 2000)])
    def test_no_sliver_step(self, mode, t_end, dt, steps):
        # 0.2 is no binary fraction: summed 2000 times, t falls short of 400
        # by about 1e-11, which used to cost one extra step of that size
        # the diffusivity puts both steps within RK4's reach on this grid
        # (1.25) for "fixed" and beyond it (0.0125) for "rkc"
        g = GridSpec(1.0, 1.0, 4, 4)
        d = {"fixed": 0.01, "rkc": 1.0}[mode]
        p = params(d1=d, d2=d, d3=d)
        snaps = tuple(np.linspace(0.0, t_end, 6))
        traj = integrate(zero_state(g), p, g,
                         TimeSpec(t_end=t_end, dt=dt, snapshot_times=snaps))
        assert traj.stats.method == METHOD[mode]
        assert traj.stats.accepted == steps and traj.stats.rejected == 0
        assert traj.stats.last_dt == pytest.approx(dt, rel=1e-9)
        assert tuple(traj.times()) == snaps

    def test_next_step_starts_at_the_snapshot(self):
        # 0.2 + (0.9 - 0.2) rounds to 0.8999999999999999: the step that lands
        # on 0.9 must leave t at 0.9, where the next step's first stage and
        # its sources then run; 4 RK4 stages per step
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(d1=0.01, d2=0.01, d3=0.01)
        times = []
        traj = integrate(zero_state(g), p, g,
                         TimeSpec(t_end=1.0, dt=0.7, snapshot_times=(0.2, 0.9)),
                         sources=recording_sources(g, times))
        assert traj.stats.method == "rk4" and traj.stats.accepted == 3
        assert tuple(traj.times()) == (0.2, 0.9)
        assert times[8] == 0.9


class TestExchangeOnlyDynamics:
    def test_combined_micro_mass_conserved(self, no_diffusion):
        # diffusion off, exchange on: the u2 + u3 sum is pointwise conserved,
        # so its weighted mass stays constant along the trajectory
        from corrosim.grids import ip_micro

        g = GridSpec(1.0, 1.0, 6, 6)
        p = params(alpha=0.4, beta=0.15)
        rng = np.random.default_rng(12)
        st = zero_state(g)
        st.u2[...] = rng.uniform(size=(7, 7))
        st.u3[...] = rng.uniform(size=(7, 7))
        ones = np.ones((7, 7))
        m0 = ip_micro(g, st.u2 + st.u3, ones)
        traj = integrate(st, p, g,
                         TimeSpec(t_end=5.0, snapshot_times=(0.0, 2.5, 5.0)))
        for s in traj.snapshots:
            m = ip_micro(g, s.u2 + s.u3, ones)
            assert m == pytest.approx(m0, rel=1e-12)


class TestAdaptive:
    @staticmethod
    def problem():
        g = GridSpec(1.0, 1.0, 8, 8)
        p = params(d1=0.05, d2=0.05, d3=0.05, bi_m=0.2, u1_d=1.0,
                   alpha=0.2, beta=0.05, k=0.1, q_kind="linear_cutoff", m4=1.0)
        st = zero_state(g)
        st.u1[...] = 1.0 - (1.0 - g.x_nodes()) ** 2  # zero at x = 0
        return g, p, st

    def test_agrees_with_fixed_mode(self):
        g, p, st = self.problem()
        snaps = (0.0, 5.0, 10.0)
        fixed = integrate(State.view(st.t, st.y.copy(), g), p, g,
                          TimeSpec(t_end=10.0, snapshot_times=snaps))
        adaptive = integrate(State.view(st.t, st.y.copy(), g), p, g,
                             TimeSpec(t_end=10.0, mode="adaptive",
                                      snapshot_times=snaps))
        assert adaptive.stats.accepted > 0
        for sf, sa in zip(fixed.snapshots, adaptive.snapshots):
            for uf, ua in ((sf.u1, sa.u1), (sf.u2, sa.u2),
                           (sf.u3, sa.u3), (sf.u4, sa.u4)):
                assert np.all(np.abs(uf - ua) <= 10.0 * (ATOL + RTOL * np.abs(uf)))

    def test_last_evaluation_starts_the_next_attempt(self):
        # an attempt evaluates three stages and F(y_new); the next attempt,
        # after an acceptance or an error rejection, starts from F(y_new) or
        # from the F(y_n) it already had, so only the first pays for F(y_0)
        g, p, st = self.problem()
        stats = integrate(st, p, g, TimeSpec(t_end=10.0, mode="adaptive")).stats
        assert stats.rejected > 0
        assert stats.rhs_evals == 1 + 4 * (stats.accepted + stats.rejected)

    def test_controller_grows_step(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        p = params(d1=0.05, d2=0.05, d3=0.05)
        st = zero_state(g)
        st.u2[:] = 1.0
        traj = integrate(st, p, g, TimeSpec(t_end=5.0, mode="adaptive"))
        fixed_steps = int(np.ceil(5.0 / stability_dt(p, g)))
        assert traj.stats.accepted < fixed_steps


class TestDivergence:
    def test_nonfinite_source_detected(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        bomb = SourceTerms(
            f1=lambda t: np.full(5, np.inf if t > 0.5 else 0.0),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        # the pinned node 0 carries no tendency, node 1 is the first to blow up
        with pytest.raises(DivergedError, match=r"^non-finite state u1 at node "
                           r"\(1,\) at t=0\.5") as err:
            integrate(zero_state(g), params(), g, TimeSpec(t_end=1.0),
                      sources=bomb)
        assert err.value.last_state is not None
        # last good state precedes the step whose stages saw the blow-up
        assert 0.4 <= err.value.last_state.t <= 0.5

    @pytest.mark.parametrize("mode,message", [
        ("fixed", r"negative concentration u4 = -0\.0125 at node \(0,\) at t=0\.5125"),
        ("rkc", r"negative concentration u4 = -0\.05 at node \(0,\) at t=0\.55"),
        # adaptive stepping rejects the negative steps and halves the step
        # until it underflows
        ("adaptive", r"step size underflow at t=0\.5\b"),
    ])
    def test_negative_state_stops_the_run(self, mode, message):
        # a sink drains the gypsum field through zero at t = 0.5
        g = GridSpec(1.0, 1.0, 4, 4)
        drain = SourceTerms(
            f1=lambda t: np.zeros(5),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.full(5, -1.0),
        )
        st = zero_state(g)
        st.u4[:] = 0.5
        ts = case_timespec(mode, 1.0, 0.05)
        with pytest.raises(DivergedError, match=message) as err:
            integrate(st, params(), g, ts, sources=drain)
        last = err.value.last_state
        assert last.t == pytest.approx(0.5, abs=1e-7)
        assert last.u4.min() >= -POSITIVITY_SLACK

    def test_negative_gas_counts_the_inlet_value(self):
        # the gas field is stored shifted by u1_d = 0.5: a sink of rate 1
        # empties the physical field at t = 0.5, not at once
        g = GridSpec(1.0, 1.0, 4, 4)
        drain = SourceTerms(
            f1=lambda t: np.full(5, -1.0),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        with pytest.raises(DivergedError, match=r"negative concentration u1 = "
                           r"-0\.0125 at node \(3,\) at t=0\.5125"):
            integrate(zero_state(g), params(d1=1e-6, u1_d=0.5), g,
                      TimeSpec(t_end=1.0), sources=drain)

    def test_adaptive_retry_after_a_non_finite_attempt(self):
        # the source is infinite only at t = h0, where the first attempt's
        # last stage lands: the retry must not multiply what that attempt
        # left in the stage buffers by a zero coefficient (0 * inf = NaN)
        g = GridSpec(1.0, 1.0, 4, 4)
        h0 = stability_dt(params(), g)
        spike = SourceTerms(
            f1=lambda t: np.full(5, np.inf if t == h0 else 0.0),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        traj = integrate(zero_state(g), params(), g,
                         TimeSpec(t_end=4 * h0, mode="adaptive"), sources=spike)
        assert traj.stats.rejected >= 1
        assert np.all(traj.snapshots[-1].u1 == 0.0)

    def test_adaptive_underflow(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        bomb = SourceTerms(
            f1=lambda t: np.full(5, np.nan),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        with pytest.raises(DivergedError, match=r"underflow at t=0\b"):
            integrate(zero_state(g), params(), g,
                      TimeSpec(t_end=1.0, mode="adaptive"), sources=bomb)

    def test_diverging_run_raises_without_numpy_warnings(self):
        # fig1 under its default RKC steps with a gas source that turns
        # infinite at t = 1: the stencils subtract infinities inside rhs and
        # the stage sums carry NaN; the step check reports it, numpy stays
        # silent
        import warnings

        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        cfg = scenario_config("fig1", t_end=2.0)
        n = cfg.grid.n_x + 1
        micro = np.zeros((n, cfg.grid.n_y + 1))
        bomb = SourceTerms(f1=lambda t: np.full(n, np.inf if t > 1.0 else 0.0),
                           f2=lambda t: micro, f3=lambda t: micro,
                           f4=lambda t: np.zeros(n))
        state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError, match=r"^non-finite state u\d at node"):
                integrate(state0, cfg.params, cfg.grid, cfg.time, sources=bomb)


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    st = zero_state(grid)
    st.u1[...] = rng.uniform(size=grid.n_x + 1)
    st.u1[0] = 0.0
    st.u2[...] = rng.uniform(size=(grid.n_x + 1, grid.n_y + 1))
    st.u3[...] = rng.uniform(size=(grid.n_x + 1, grid.n_y + 1))
    st.u4[...] = rng.uniform(size=grid.n_x + 1)
    return st


def recording_sources(grid, times):
    def f1(t):
        times.append(t)
        return np.zeros(grid.n_x + 1)
    micro = lambda t: np.zeros((grid.n_x + 1, grid.n_y + 1))
    return SourceTerms(f1=f1, f2=micro, f3=micro, f4=lambda t: np.zeros(grid.n_x + 1))


def recursion_nodes(rows):
    """Nodes c_0 .. c_{s-1} of the stages rhs sees: the recursion rows
    applied to y' = 1."""
    c = [0.0, 0.0]
    for mu, nu, mu_t, gamma_t in rows[:-1]:
        c.append(mu * c[-1] + nu * c[-2] + mu_t + gamma_t)
    return tuple(c[1:])


class TestTableauLoop:
    P = dict(d1=0.2, d2=0.3, d3=0.1, bi_m=0.4, u1_d=1.0, k=0.3,
             alpha=0.3, beta=0.2)

    def test_fixed_step_is_textbook_rk4(self):
        from corrosim.model import rhs

        g = GridSpec(1.0, 1.0, 8, 6)
        p = params(**self.P)
        st = random_state(g, 3)
        h = stability_dt(p, g)
        traj = integrate(State.view(st.t, st.y.copy(), g), p, g, TimeSpec(t_end=h))
        assert traj.stats.accepted == 1 and traj.stats.rhs_evals == 4

        def shifted(c, k):
            return State(st.t + c * h, *(getattr(st, f) + c * h * getattr(k, f)
                                          for f in ("u1", "u2", "u3", "u4")))
        k1 = rhs(State.view(st.t, st.y.copy(), g), p, g)
        k2 = rhs(shifted(0.5, k1), p, g)
        k3 = rhs(shifted(0.5, k2), p, g)
        k4 = rhs(shifted(1.0, k3), p, g)
        got = traj.snapshots[-1]
        for f in ("u1", "u2", "u3", "u4"):
            want = getattr(st, f) + (h / 6.0) * (
                getattr(k1, f) + 2.0 * getattr(k2, f)
                + 2.0 * getattr(k3, f) + getattr(k4, f))
            assert np.max(np.abs(getattr(got, f) - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode,nodes", [
        ("fixed", (0.0, 0.5, 0.5, 1.0)),
        # the last evaluation, F(y_new) at t + h, is the next step's first
        ("adaptive", (0.0, 0.5, 0.5, 1.0, 1.0)),
        # rkc with h = 0.2 and spectral radius bound 64 takes 5 stages
        ("rkc", recursion_nodes(_rkc_coefficients(5))),
    ])
    def test_sources_see_stage_times(self, mode, nodes):
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params()
        st = zero_state(g)
        st.t = 0.25
        h = 0.2 if mode == "rkc" else stability_dt(p, g)
        times = []
        traj = integrate(st, p, g, case_timespec(mode, 0.25 + h, h),
                         sources=recording_sources(g, times))
        assert traj.stats.method == METHOD[mode]
        assert traj.stats.accepted == 1 and traj.stats.rhs_evals == len(nodes)
        h = traj.stats.last_dt
        assert times == pytest.approx([0.25 + c * h for c in nodes], rel=1e-15)

    @pytest.mark.parametrize("mode", ["fixed", "adaptive", "rkc"])
    def test_uses_the_tendency_rhs_returns(self, mode, monkeypatch):
        # a wrapper that fills `out` through the real rhs but returns a fresh,
        # scaled Tendency: the integrator must step with what it returned
        import corrosim.integrator as integrator
        from corrosim.model import Tendency, rhs

        g = GridSpec(1.0, 1.0, 6, 4)
        p = params(**self.P)
        ts = case_timespec(mode, 0.2, 0.05)
        plain = integrate(random_state(g, 5), p, g, ts)
        assert plain.stats.method == METHOD[mode]
        plain = plain.snapshots[-1]

        def run(scale):
            def scaled(*args, **kwargs):
                tend = rhs(*args, **kwargs)
                return Tendency(*(scale * getattr(tend, f)
                                  for f in ("u1", "u2", "u3", "u4")))
            monkeypatch.setattr(integrator, "rhs", scaled)
            return integrate(random_state(g, 5), p, g, ts).snapshots[-1]

        frozen = run(0.0)
        start = random_state(g, 5)
        for f in ("u1", "u2", "u3", "u4"):
            assert np.array_equal(getattr(frozen, f), getattr(start, f))
        assert np.max(np.abs(run(1.01).u2 - plain.u2)) > 1e-6
