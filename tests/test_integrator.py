import numpy as np
import pytest

from corrosim.diagnostics import energy_record
from corrosim.grids import GridSpec
from corrosim.integrator import (
    ATOL,
    POSITIVITY_SLACK,
    RTOL,
    DivergedError,
    TimeSpec,
    _node_block,
    _perron_bound,
    _rkc_coefficients,
    _rkc_stages,
    acid_bound,
    integrate,
    stability_dt,
)
from corrosim.interpolation import ManufacturedSolution
from corrosim.model import AssumptionError, ModelParams, SourceTerms, State
from reference import zero_state


def params(**overrides):
    base = dict(d1=1.0, d2=1.0, d3=1.0, bi_m=0.0, henry=1.0, u1_d=0.0,
                k=0.0, alpha=0.0, beta=0.0, q_kind="constant")
    base.update(overrides)
    return ModelParams(**base)


# the acid bound the step bounds below are read for; the linear-cutoff
# cases start the acid no higher, and the constant kernel ignores it
ACID = 10.0


# stepper cases by label: "fixed" is RK4 within its reach, "adaptive" RKC
# with its embedded error estimate, "rkc" fixed steps beyond RK4's reach
METHOD = {"fixed": "rk4", "adaptive": "rkc", "rkc": "rkc"}


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
        # 2.7 / rho with rho = 4 d/h^2 = 400; 2 / delta = 2 / (2 d/h^2) is longer
        assert stability_dt(params(), g, ACID) == pytest.approx(0.00675)

    def test_micro_diffusivity_binds(self):
        g = GridSpec(1.0, 1.0, 10, 10)
        base = stability_dt(params(), g, ACID)
        assert stability_dt(params(d2=10.0), g, ACID) == pytest.approx(base / 10.0)

    def test_quadratic_in_step(self):
        g = GridSpec(1.0, 1.0, 10, 10)
        fine = g.refine(2)
        assert stability_dt(params(), fine, ACID) == pytest.approx(
            stability_dt(params(), g, ACID) / 4.0)

    def test_exchange_binds(self):
        # a stiff Robin exchange: the gas row of the Gershgorin bound,
        # 4 d2/h_y^2 + 2 bi_m (1 + H)/h_y = 400 + 4000, binds, not diffusion;
        # the Robin diagonal, 2 d2/h_y^2 + 2 bi_m/h_y = 2200, does not
        g = GridSpec(1.0, 1.0, 10, 10)
        p = params(bi_m=100.0)
        assert _node_block(p, g, ACID)[1] == pytest.approx(4400.0)
        assert _node_block(p, g, ACID)[2] == pytest.approx(2200.0)
        assert stability_dt(p, g, ACID) == pytest.approx(2.7 / 4400.0)
        assert stability_dt(p, g, ACID) < stability_dt(params(), g, ACID)

    # one case per binding row of the Gershgorin bound: params, grid, rho,
    # delta, and the clause of the reach min(2.7 / rho, 2 / delta) that binds
    BINDING_ROWS = {
        # every diffusion row, 4 d/h^2, against the diagonal 2 d/h^2
        "diffusion": (params(), GridSpec(1.0, 1.0, 10, 10), 400.0, 200.0, "rho"),
        # the dissolved-gas row, 4 d2/h_y^2 + 2 bi_m (1 + H)/h_y; a small H
        # puts the exchange eigenvalue, about -bi_m (H + 2/h_y), near it,
        # and its diagonal 2 d2/h_y^2 + 2 bi_m/h_y = 2020 binds
        "exchange": (params(d1=0.1, d2=0.1, d3=0.1, bi_m=100.0, henry=0.05),
                     GridSpec(1.0, 1.0, 10, 10), 2140.0, 2020.0, "delta"),
        # test_rkc's coarse stiff case: the acid row with its gypsum coupling,
        # 2 k/h_y + k A/m4, binds rho, and the gypsum diagonal k A/m4, the
        # rate at which acid at the bound A drives the gypsum to m4, binds
        # the reach
        "gypsum": (params(d1=1e-3, d2=1e-3, d3=1e-3, u1_d=1.0, k=5.0,
                          q_kind="linear_cutoff", m4=0.5),
                   GridSpec(1.0, 1.0, 2, 2), 120.016, 100.0, "delta"),
    }

    @pytest.mark.parametrize("case", sorted(BINDING_ROWS))
    def test_rk4_is_stable_at_its_reach(self, case):
        # checkerboard data, the highest frequencies on both axes, under 500
        # RK4 steps of exactly the reach.  The energy H |u1|^2 + |u2|^2 +
        # |u3|^2 + |u4|^2 cannot grow along the exact flow: the weight H
        # makes the exchange -bi_m |H u1 - u2(y = 0)|^2, and the reaction
        # moves acid to gypsum while the gypsum stays below the acid.  The
        # gypsum must also stop at m4, where Q cuts its growth off.  Beyond
        # the reach the checkerboard grows until a step turns it negative,
        # and the run raises DivergedError, or the gypsum passes m4
        p, g, rho, delta, clause = self.BINDING_ROWS[case]
        assert _node_block(p, g, ACID)[1] == pytest.approx(rho, rel=1e-14)
        assert _node_block(p, g, ACID)[2] == pytest.approx(delta, rel=1e-14)
        reach = {"rho": 2.7 / rho, "delta": 2.0 / delta}
        assert min(reach, key=reach.get) == clause
        assert stability_dt(p, g, ACID) == pytest.approx(reach[clause], rel=1e-14)
        i, j = np.ogrid[:g.n_x + 1, :g.n_y + 1]
        board = ((i + j) % 2).astype(float)
        st = zero_state(g)
        st.u1[...] = p.u1_d + board[:, 0]   # the inlet value at x = 0
        st.u2[...] = 1.0 - board
        st.u3[...] = ACID * board   # alpha = beta = 0, so its acid bound is ACID
        st.u4[...] = p.m4 * (1.0 - board[:, -1])   # zero where the acid is ACID
        h, steps = stability_dt(p, g, ACID), 500
        traj = integrate(st, p, g, TimeSpec(
            t_end=steps * h, snapshot_times=tuple(n * h for n in range(steps + 1))))
        assert traj.stats.method == "rk4" and traj.stats.accepted == steps
        energy = np.array([p.henry * r.n1 + r.n2 + r.n3 + r.n4
                           for r in (energy_record(g, s) for s in traj.snapshots)])
        assert np.all(np.diff(energy) <= 1e-12 * energy[:-1])
        assert max(s.u4.max() for s in traj.snapshots) <= p.m4

    # reaction-stiff linear-cutoff corners, where the acid row's gypsum
    # coupling decides the bound, and a long cell, where the gas row's
    # exchange coupling bi_m does: params, grid
    PROBED = {
        "coarse-stiff-k": (BINDING_ROWS["gypsum"][0], GridSpec(1.0, 1.0, 2, 2)),
        "stiff-k": (BINDING_ROWS["gypsum"][0], GridSpec(1.0, 1.0, 8, 8)),
        "fig1-k1": (params(d1=0.0012, d2=0.005, d3=0.005, bi_m=0.15, u1_d=1.0,
                           k=1.0, alpha=0.3, beta=0.01, q_kind="linear_cutoff",
                           m4=0.1), GridSpec(1.0, 1.0, 16, 16)),
        "long-cell": (params(d1=0.01, d2=0.01, d3=0.01, bi_m=10.0, henry=0.1,
                             u1_d=1.0, alpha=0.3, beta=0.01),
                      GridSpec(1.0, 8.0, 4, 2)),
    }

    @pytest.mark.parametrize("case", sorted(PROBED))
    def test_bounds_hold_the_probed_jacobian(self, case):
        # the Jacobian of rhs by central differences, column by column, at
        # admissible states with the acid below ACID and the gypsum below m4:
        # rhs is bilinear there, so the differences are exact up to
        # rounding.  The second state sits in the stiff corner, the acid
        # above 0.9 ACID and the gypsum below 0.1 m4.  The eigenvalues are
        # real and within rho, and the diagonal within delta, the premises
        # of RK4's reach; the eigenvalues also lie within the stage radius
        from corrosim.model import rhs

        p, g = self.PROBED[case]
        block = _node_block(p, g, ACID)
        rho, delta = block[1:]
        radius = _perron_bound(*block)
        rng = np.random.default_rng(4)
        for corner in (0.0, 0.9):
            st = random_state(g, rng, p.u1_d)
            st.u3[...] = ACID * (corner + (1.0 - corner) * st.u3)
            st.u4[...] *= p.m4 * (1.0 - corner)
            jac = np.empty((st.y.size, st.y.size))
            for j in range(st.y.size):
                e = np.zeros(st.y.size)
                e[j] = 1e-6
                up, down = (rhs(State.view(0.0, st.y + sign * e, g), p, g).y
                            for sign in (1.0, -1.0))
                jac[:, j] = (up - down) / 2e-6
            eigenvalues = np.linalg.eigvals(jac)
            assert np.abs(eigenvalues.imag).max() <= 1e-9 * rho
            assert np.abs(eigenvalues).max() <= radius <= rho
            assert np.abs(np.diag(jac)).max() <= delta * (1.0 + 1e-8)


class TestStageRadius:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_fig1_probe_reaches_it(self, n):
        # fig1 at its worst-case state, the surface acid at the acid bound
        # and the gypsum at (just above) 0, where the gypsum coupling peaks:
        # the largest eigenvalue of the Jacobian of rhs, from Arnoldi on
        # central differences (rhs is bilinear there, so they are exact up
        # to rounding; the gypsum sits at the step 1e-6 so that no
        # difference crosses the kink of Q at 0), lies within 1e-6 of the
        # stage radius, from below
        from corrosim.config import config_from_sections
        from corrosim.model import project_initial, rhs

        linalg = pytest.importorskip("scipy.sparse.linalg")
        cfg = config_from_sections({"run": {"scenario": "fig1"},
                                    "grid": {"nx": str(n), "ny": str(n)},
                                    "time": {"t_end": "400"}})
        p, g = cfg.params, cfg.grid
        st = project_initial(cfg.initial, p, g)
        acid = acid_bound(p, st, 400.0)
        st.u3[:, -1] = acid
        st.u4[...] = 1e-6

        def jac_times(v):
            e = 1e-6 / np.abs(v).max()
            up, down = (rhs(State.view(0.0, st.y + sign * e * v, g), p, g).y
                        for sign in (1.0, -1.0))
            return (up - down) / (2.0 * e)
        jac = linalg.LinearOperator((st.y.size, st.y.size), matvec=jac_times, dtype=float)
        top = linalg.eigs(jac, k=1, which="LM", ncv=120, tol=1e-8,
                          v0=np.random.default_rng(0).random(st.y.size),
                          return_eigenvectors=False)
        radius = _perron_bound(*_node_block(p, g, acid))
        assert (1.0 - 1e-6) * radius <= abs(top[0]) <= radius

    def test_huge_acid_bound_does_not_overflow(self):
        # beta near 1e-236 puts the acid bound near 1e236, whose square
        # overflows: S is built from square roots, so the radius stays
        # finite, within the row bound, and numpy stays silent (the suite
        # turns RuntimeWarning into an error)
        g = GridSpec(1.0, 1.0, 8, 8)
        p = params(bi_m=0.5, u1_d=1.0, k=1.0, alpha=0.3, beta=1e-236,
                   q_kind="linear_cutoff", m4=0.5)
        acid = acid_bound(p, random_state(g, 5, p.u1_d), 1.0)
        assert acid > 1e235
        block = _node_block(p, g, acid)
        radius = _perron_bound(*block)
        assert np.isfinite(radius)
        assert block[2] <= radius <= block[1]

    # README's stage-radius table: fig1 grid and parameter overrides, the
    # stage radius, and RKC's stage count at fig1's dt = 1/3
    README_TABLE = {
        "16": (16, {}, 10.48, 3),
        "32": (32, {}, 24.63, 4),
        "64": (64, {}, 86.5, 7),
        "16-stiff-exchange": (16, {"bi_m": "50"}, 1653.0, 30),
    }

    @pytest.mark.parametrize("case", sorted(README_TABLE))
    def test_readme_table(self, case):
        from corrosim.config import config_from_sections
        from corrosim.model import project_initial

        n, overrides, radius, stages = self.README_TABLE[case]
        cfg = config_from_sections({"run": {"scenario": "fig1"},
                                    "grid": {"nx": str(n), "ny": str(n)},
                                    "params": overrides, "time": {"t_end": "400"}})
        p, g = cfg.params, cfg.grid
        acid = acid_bound(p, project_initial(cfg.initial, p, g), 400.0)
        bound = _perron_bound(*_node_block(p, g, acid))
        assert bound == pytest.approx(radius, rel=1e-3)
        assert _rkc_stages(cfg.time.dt, bound) == stages

    def test_needs_no_lapack(self, monkeypatch):
        # the first LAPACK call of a process maps its code pages, which
        # raised peak RSS by 0.9 MB: fig1 at 16^2, fixed RKC at dt = 1/3 and
        # adaptive, finishes with every function of numpy.linalg raising
        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        def banned(*args, **kwargs):
            raise AssertionError("numpy.linalg called")
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):   # LinAlgError stays
                monkeypatch.setattr(np.linalg, name, banned)
        with pytest.raises(AssertionError, match="numpy.linalg called"):
            np.linalg.eigvalsh(np.eye(2))
        cfg = scenario_config("fig1")
        assert (cfg.grid.n_x, cfg.grid.n_y) == (16, 16)
        st = project_initial(cfg.initial, cfg.params, cfg.grid)
        for timespec in (TimeSpec(t_end=10.0, dt=1.0 / 3.0),
                         TimeSpec(t_end=10.0, mode="adaptive")):
            traj = integrate(st, cfg.params, cfg.grid, timespec)
            assert traj.stats.method == "rkc" and traj.stats.stage_radius > 0.0
            assert traj.snapshots[-1].t == 10.0

    @pytest.mark.parametrize("timespec,method", [
        (TimeSpec(t_end=1.0), "rk4"),
        (TimeSpec(t_end=1.0, dt=1.0 / 3.0), "rkc"),
        (TimeSpec(t_end=1.0, mode="adaptive"), "rkc"),
    ], ids=["rk4", "fixed-rkc", "adaptive"])
    def test_stats_carry_the_bounds(self, timespec, method):
        # fig1 at 16^2: every stepping path reports the row and diagonal
        # bounds of its node block, and each RKC path the stage radius its
        # stage counts read; an RK4 run computes none and reports 0
        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        cfg = scenario_config("fig1")
        p, g = cfg.params, cfg.grid
        st = project_initial(cfg.initial, p, g)
        block = _node_block(p, g, acid_bound(p, st, timespec.t_end))
        stats = integrate(st, p, g, timespec).stats
        assert stats.method == method
        assert (stats.rho, stats.delta) == block[1:]
        assert stats.stage_radius == (0.0 if method == "rk4" else _perron_bound(*block))


class TestAcidBound:
    def test_fig1_box(self):
        # G = H u1_d = 1, so the acid face is alpha G/beta = 0.3/0.01
        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        cfg = scenario_config("fig1")
        st = project_initial(cfg.initial, cfg.params, cfg.grid)
        assert acid_bound(cfg.params, st, 400.0) == pytest.approx(30.0, rel=1e-14)

    @pytest.mark.parametrize("start", [ACID, 2.0 * ACID, 3.0 * ACID])
    def test_gypsum_checkerboard_follows_its_start(self, start):
        # alpha = beta = 0: the acid never grows, so its bound is its start,
        # and at ACID the gypsum case keeps the rho and delta pinned above.
        # RK4 steps within the reach that bound sets, and the gypsum stops
        # at m4 from any start
        p, g, _, _, _ = TestStabilityLimit.BINDING_ROWS["gypsum"]
        i, j = np.ogrid[:g.n_x + 1, :g.n_y + 1]
        board = ((i + j) % 2).astype(float)
        st = zero_state(g)
        st.u1[...] = p.u1_d + board[:, 0]
        st.u2[...] = 1.0 - board
        st.u3[...] = start * board
        st.u4[...] = p.m4 * (1.0 - board[:, -1])
        acid = acid_bound(p, st, 1.0)
        assert acid == start
        slope = p.k * acid / p.m4   # the gypsum diagonal
        assert _node_block(p, g, acid)[1] == pytest.approx(
            4.0 * p.d3 / g.h_y**2 + 2.0 * p.k / g.h_y + slope, rel=1e-14)
        assert _node_block(p, g, acid)[2] == pytest.approx(slope, rel=1e-14)
        h = stability_dt(p, g, acid)
        traj = integrate(st, p, g, TimeSpec(
            t_end=500 * h, snapshot_times=tuple(n * h for n in range(501))))
        assert traj.stats.method == "rk4" and traj.stats.accepted == 500
        assert max(s.u4.max() for s in traj.snapshots) <= p.m4

    def test_without_back_reaction_the_bound_grows_with_the_horizon(self):
        # beta = 0 leaves no acid face: the acid grows at most at alpha G
        g = GridSpec(1.0, 1.0, 4, 3)
        p = params(henry=0.5, u1_d=1.0, alpha=0.3)
        st = random_state(g, 7, p.u1_d)
        st.u3[...] *= 2.0
        G = max(p.henry * p.u1_d, p.henry * st.u1.max(), st.u2.max())
        for horizon in (0.0, 2.5, 40.0):
            assert acid_bound(p, st, horizon) == pytest.approx(
                st.u3.max() + p.alpha * G * horizon, rel=1e-14)


class TestMethodSelection:
    P = dict(d1=0.2, d2=0.3, d3=0.1, bi_m=0.4, u1_d=1.0, k=0.3,
             alpha=0.3, beta=0.2)

    @pytest.mark.parametrize("factor,method", [(1.0, "rk4"), (1.01, "rkc")])
    def test_reach_is_the_boundary(self, factor, method):
        g = GridSpec(1.0, 1.0, 8, 6)
        p = params(**self.P)
        dt = factor * stability_dt(p, g, ACID)
        traj = integrate(random_state(g, 3, p.u1_d), p, g, TimeSpec(t_end=3 * dt, dt=dt))
        radius = _perron_bound(*_node_block(p, g, ACID))
        stages = 4 if method == "rk4" else _rkc_stages(dt, radius)
        assert traj.stats.method == method and traj.stats.stages == stages
        assert traj.stats.accepted == 3 and traj.stats.rhs_evals == 3 * stages

    def test_no_step_is_rk4_at_its_reach(self):
        g = GridSpec(1.0, 1.0, 8, 6)
        p = params(**self.P)
        traj = integrate(random_state(g, 3, p.u1_d), p, g, TimeSpec(t_end=1.0))
        assert traj.stats.method == "rk4"
        assert traj.stats.accepted == int(np.ceil(1.0 / stability_dt(p, g, ACID)))

    def test_adaptive_is_rkc(self, stage_counts):
        # each attempt runs RKC with the stages its own step needs, from 3 at
        # RK4's reach (h rho >= 2) up; the run reports the largest
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params()
        traj = integrate(zero_state(g), p, g, TimeSpec(t_end=1.0, mode="adaptive"))
        reach, rho = stability_dt(p, g, ACID), _perron_bound(*_node_block(p, g, ACID))
        assert stage_counts[0] == _rkc_stages(reach, rho) == 3
        assert len(set(stage_counts)) > 1
        assert (traj.stats.method, traj.stats.stages) == ("rkc", max(stage_counts))


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

    @pytest.mark.parametrize("case", ["fixed", "rkc", "adaptive", "mms"])
    def test_dirichlet_pin_held(self, case):
        # the gas node at x = 0 holds the inlet value bit for bit at every
        # snapshot, in each stepping path and under the manufactured sources
        snaps = (0.0, 0.25, 0.5)
        if case == "mms":
            ms = ManufacturedSolution()
            g, p = GridSpec(1.0, 1.0, 8, 8), ms.params
            st, sources = ms.exact_state(g, 0.0), ms.sources(g)
            ts = TimeSpec(t_end=0.5, snapshot_times=snaps)
        else:
            g = GridSpec(1.0, 1.0, 8, 4)
            p = params(bi_m=0.5, u1_d=1.0, alpha=0.2, beta=0.1, k=0.1)
            st, sources = zero_state(g), None
            st.u1[...] = p.u1_d + np.sin(np.pi * g.x_nodes())
            # RK4's reach is about 0.02 here, so rkc steps by 0.1
            ts = case_timespec(case, 0.5, 0.1, snapshot_times=snaps)
        traj = integrate(st, p, g, ts, sources=sources)
        assert traj.stats.method == METHOD.get(case, "rk4")
        assert tuple(traj.times()) == snaps
        assert all(s.u1[0] == p.u1_d for s in traj.snapshots)

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_start_state_must_hold_the_inlet_value(self, mode):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(AssumptionError, match=r"^\[A4\] .*u1_d = 1\.0, got u1\[0\] = 0\.0$"):
            integrate(zero_state(g), params(u1_d=1.0), g, TimeSpec(t_end=1.0, mode=mode))

    @pytest.mark.parametrize("case", ["fixed", "adaptive", "rkc"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_start_state_must_be_finite(self, case, bad):
        # the step bounds read the start state's maxima through acid_bound;
        # an infinite acid would plan infinitely many RKC stages
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(alpha=0.3, k=1.0, q_kind="linear_cutoff")
        st = zero_state(g)
        st.u3[2, 3] = bad
        with pytest.raises(AssumptionError, match=r"^\[A4\] the start state must be finite$"):
            integrate(st, p, g, case_timespec(case, 1.0, 0.5))

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
        traj = integrate(st, p, g, TimeSpec(t_end=1.0, dt=2.0 * stability_dt(p, g, ACID)))
        assert traj.stats.method == "rkc"
        final = traj.snapshots[-1]
        assert np.all(np.isfinite(final.u2)) and final.u2.max() <= 1.0 + 1e-12

    def test_snapshots_are_deterministic(self):
        g = GridSpec(1.0, 1.0, 8, 4)
        p = params(bi_m=0.3, u1_d=1.0, alpha=0.2, beta=0.1, k=0.2)
        ts = TimeSpec(t_end=1.0, snapshot_times=(0.0, 0.3, 1.0))

        def run():
            st = zero_state(g)
            st.u1[0] = p.u1_d
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
    @pytest.mark.parametrize("t_end,dt,steps",
                             [(1.0, 0.1, 10), (400.0, 0.2, 2000), (400.0, 1 / 3, 1200)])
    def test_no_sliver_step(self, mode, t_end, dt, steps):
        # 0.2 is no binary fraction: summed 2000 times, t falls short of 400
        # by about 1e-11, which used to cost one extra step of that size;
        # 1/3, fig1's default step, is none either
        # the diffusivity puts every step within RK4's reach on this grid
        # (4.22) for "fixed" and beyond it (0.0422) for "rkc"
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

    # a step shortened to land on t_end or on a snapshot, however short, is
    # no underflow: fixed fig1 at dt = 1/3 lands on 1, then 2.2e-16 later
    # on the next snapshot, then takes three steps to 2
    @pytest.mark.parametrize("scenario,time,steps", [
        ("fig1", {"t_end": 1e-15}, 1),
        ("fig1", {"t_end": 1e-15, "mode": "adaptive"}, 1),
        ("dissipation", {"t_end": 1e-15}, 1),
        ("fig1", {"t_end": 2.0, "snapshots": "0 1 1.0000000000000002 2"}, 7),
    ], ids=["fig1-fixed", "fig1-adaptive", "dissipation", "fig1-ulp-apart-snapshots"])
    def test_landing_step_is_no_underflow(self, scenario, time, steps):
        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        cfg = scenario_config(scenario, **time)
        st = project_initial(cfg.initial, cfg.params, cfg.grid)
        traj = integrate(st, cfg.params, cfg.grid, cfg.time)
        assert traj.stats.accepted == steps and traj.stats.rejected == 0
        assert tuple(traj.times()) == cfg.time.snapshot_times

    def test_landing_step_leaves_the_controller_alone(self):
        # adaptive fig1 lands on 1, then 2.2e-16 later on the next snapshot;
        # the controller scales the next step from the last step it chose,
        # not from that landing step, so the run reaches t = 2
        from corrosim.config import scenario_config
        from corrosim.model import project_initial

        cfg = scenario_config("fig1", t_end=2.0, mode="adaptive",
                              snapshots="0 1 1.0000000000000002 2")
        st = project_initial(cfg.initial, cfg.params, cfg.grid)
        traj = integrate(st, cfg.params, cfg.grid, cfg.time)
        assert tuple(traj.times()) == cfg.time.snapshot_times
        assert len(traj.snapshots) == 4 and traj.snapshots[-1].t == 2.0


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
        st.u1[...] = p.u1_d + 1.0 - (1.0 - g.x_nodes()) ** 2  # u1_d at x = 0
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

    def test_last_evaluation_starts_the_next_attempt(self, stage_counts):
        # an attempt of s stages evaluates s - 1 of them and F(y_new); the
        # next attempt, after an acceptance or an error rejection, starts
        # from F(y_new) or from the F(y_n) it already had, so only the first
        # pays for F(y_0)
        g, p, st = self.problem()
        stats = integrate(st, p, g, TimeSpec(t_end=10.0, mode="adaptive")).stats
        assert stats.rejected > 0
        assert len(stage_counts) == stats.accepted + stats.rejected
        assert stats.rhs_evals == 1 + sum(stage_counts)

    def test_controller_grows_step(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        p = params(d1=0.05, d2=0.05, d3=0.05)
        st = zero_state(g)
        st.u2[:] = 1.0
        traj = integrate(st, p, g, TimeSpec(t_end=5.0, mode="adaptive"))
        fixed_steps = int(np.ceil(5.0 / stability_dt(p, g, ACID)))
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
        ("fixed", r"negative concentration u4 = -0\.0421875 at node \(0,\) at t=0\.542188"),
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
        # RK4's reach on this grid, 0.0421875, does not divide 0.5: a
        # snapshot there lands the fixed steps on the zero crossing
        snapshots = (0.0, 0.5, 1.0) if mode == "fixed" else None
        ts = case_timespec(mode, 1.0, 0.05, snapshot_times=snapshots)
        with pytest.raises(DivergedError, match=message) as err:
            integrate(st, params(), g, ts, sources=drain)
        last = err.value.last_state
        assert last.t == pytest.approx(0.5, abs=1e-7)
        assert last.u4.min() >= -POSITIVITY_SLACK

    def test_step_beyond_a_face_stops_the_run(self):
        # fig1 at 4^2 with bi_m = 2, k = 0 and alpha = beta = 1: one fixed
        # step of dt = 1 (8 RKC stages) lifts u2 at the inlet node above
        # G = H u1_d = 1, a face no trajectory of the system crosses
        from corrosim.config import config_from_sections
        from corrosim.model import project_initial

        cfg = config_from_sections({
            "run": {"scenario": "fig1"}, "grid": {"nx": "4", "ny": "4"},
            "params": {"bi_m": "2.0", "k": "0.0", "alpha": "1.0", "beta": "1.0"},
            "time": {"t_end": "1.0", "dt": "1.0"}})
        state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
        with pytest.raises(DivergedError, match=r"^u2 = 1\.02837 above its face 1 "
                           r"at node \(0, 0\) at t=1$") as err:
            integrate(state0, cfg.params, cfg.grid, cfg.time)
        assert err.value.last_state.t == 0.0

    def test_forced_runs_skip_the_faces(self):
        # a source fills u2 from 0, above the unforced box's face G = 0
        g = GridSpec(1.0, 1.0, 4, 4)
        fill = SourceTerms(
            f1=lambda t: np.zeros(5),
            f2=lambda t: np.ones((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        last = integrate(zero_state(g), params(), g, TimeSpec(t_end=1.0),
                         sources=fill).snapshots[-1]
        assert last.u2.min() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.0])
    def test_acid_above_its_face_lifts_the_gas_faces(self, alpha):
        # acid 10 over G = H u1_d = 1: the exchange beta u3 lifts u2 past G,
        # legitimately, so its face is beta A/alpha = 6.7, or with alpha = 0
        # grows by beta A per unit time; the run ends without a DivergedError
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(d1=0.1, d2=0.1, d3=0.1, u1_d=1.0, alpha=alpha, beta=0.2)
        st = zero_state(g)
        st.u1[...] = p.u1_d
        st.u3[...] = 10.0
        last = integrate(st, p, g, TimeSpec(t_end=2.0)).snapshots[-1]
        assert last.t == 2.0 and last.u2.max() > p.henry * p.u1_d

    def test_negative_gas_counts_the_inlet_value(self):
        # the gas field starts at its inlet value u1_d = 0.5: a sink of rate 1
        # empties it at t = 0.5, not at once.  The far wall x = L, node 4, is
        # lowest: diffusion from the inlet leaves node 3 above it by 1.1e-17
        g = GridSpec(1.0, 1.0, 4, 4)
        drain = SourceTerms(
            f1=lambda t: np.full(5, -1.0),
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        st = zero_state(g)
        st.u1[...] = 0.5
        with pytest.raises(DivergedError, match=r"negative concentration u1 = "
                           r"-0\.00625 at node \(4,\) at t=0\.50625"):
            integrate(st, params(d1=1e-6, u1_d=0.5), g,
                      TimeSpec(t_end=1.0), sources=drain)

    def test_adaptive_retry_after_a_non_finite_attempt(self):
        # the source is infinite once, at the first evaluation at t = h0,
        # where the first attempt's last stage lands: the retry must not
        # multiply what that attempt left in the stage buffers by a zero
        # coefficient (0 * inf = NaN).  h0 = 2^-5 is a binary fraction, so
        # later attempts land on h0 exactly and must see a finite source
        g = GridSpec(1.0, 1.0, 4, 4)
        h0 = stability_dt(params(), g, ACID)
        fired = []

        def f1(t):
            spike_now = t == h0 and not fired
            if spike_now:
                fired.append(t)
            return np.full(5, np.inf if spike_now else 0.0)
        spike = SourceTerms(
            f1=f1,
            f2=lambda t: np.zeros((5, 5)),
            f3=lambda t: np.zeros((5, 5)),
            f4=lambda t: np.zeros(5),
        )
        traj = integrate(zero_state(g), params(), g,
                         TimeSpec(t_end=4 * h0, mode="adaptive"), sources=spike)
        assert fired and traj.stats.rejected >= 1
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


def random_state(grid, seed, u1_d):
    """Uniform draws on [0, 1) in every field, the gas node at x = 0 at its
    inlet value u1_d; seed is a seed or a Generator."""
    rng = np.random.default_rng(seed)
    st = zero_state(grid)
    st.u1[...] = rng.uniform(size=grid.n_x + 1)
    st.u1[0] = u1_d
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
        st = random_state(g, 3, p.u1_d)
        h = stability_dt(p, g, ACID)
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
        # adaptive's first step, RK4's reach, takes 3 RKC stages; the last
        # evaluation, F(y_new) at t + h, is the next attempt's first
        ("adaptive", recursion_nodes(_rkc_coefficients(3)) + (1.0,)),
        # rkc with h = 0.2 and spectral radius bound 64 takes 5 stages
        ("rkc", recursion_nodes(_rkc_coefficients(5))),
    ])
    def test_sources_see_stage_times(self, mode, nodes):
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params()
        st = zero_state(g)
        st.t = 0.25
        h = 0.2 if mode == "rkc" else stability_dt(p, g, ACID)
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
        # RK4's reach is 0.0925 here, so rkc steps by 0.1
        ts = case_timespec(mode, 0.2, 0.1)
        plain = integrate(random_state(g, 5, p.u1_d), p, g, ts)
        assert plain.stats.method == METHOD[mode]
        plain = plain.snapshots[-1]

        def run(scale):
            def scaled(*args, **kwargs):
                tend = rhs(*args, **kwargs)
                return Tendency(*(scale * getattr(tend, f)
                                  for f in ("u1", "u2", "u3", "u4")))
            monkeypatch.setattr(integrator, "rhs", scaled)
            return integrate(random_state(g, 5, p.u1_d), p, g, ts).snapshots[-1]

        frozen = run(0.0)
        start = random_state(g, 5, p.u1_d)
        for f in ("u1", "u2", "u3", "u4"):
            assert np.array_equal(getattr(frozen, f), getattr(start, f))
        assert np.max(np.abs(run(1.01).u2 - plain.u2)) > 1e-6
