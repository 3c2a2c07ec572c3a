import numpy as np
import pytest

from corrosim.config import scenario_config
from corrosim.diagnostics import (
    MONITORED,
    energy_record,
    quotient_sums,
    refinement_sweep,
)
from corrosim.grids import GridSpec
from corrosim.integrator import TimeSpec
from corrosim.model import InitialData, ModelParams, State, rhs
from reference import zero_state


def params(**overrides):
    base = dict(d1=0.05, d2=0.05, d3=0.05, bi_m=0.0, henry=1.0, u1_d=0.0,
                k=0.0, alpha=0.0, beta=0.0)
    base.update(overrides)
    return ModelParams(**base)


def gamma(n, i):
    return 0.5 if i in (0, n) else 1.0


def rate_record(g, st, p):
    """The energy record of the tendency, as the sweep takes its rate norms."""
    return energy_record(g, State.view(st.t, rhs(st, p, g).y, g))


class TestEnergyRecord:
    def test_zero_state(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        rec = energy_record(g, zero_state(g))
        assert rec.field_total() == 0.0 and rec.grad_total() == 0.0

    def test_constant_micro_field(self):
        g = GridSpec(2.0, 3.0, 6, 6)
        st = zero_state(g)
        st.u2[:] = 1.0
        rec = energy_record(g, st)
        assert rec.n2 == pytest.approx(6.0, rel=1e-14)
        assert rec.g2 == 0.0

    def test_linear_in_y(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        st = zero_state(g)
        st.u2[...] = np.tile(g.y_nodes(), (9, 1))
        rec = energy_record(g, st)
        assert rec.g2 == pytest.approx(1.0, rel=1e-13)  # unit gradient over L*ell
        # trapezoid oracle for the weighted mass of y^2
        mass = 0.0
        for i in range(g.n_x + 1):
            for j in range(g.n_y + 1):
                mass += (gamma(g.n_x, i) * gamma(g.n_y, j)
                         * (j * g.h_y) ** 2)
        mass *= g.h_x * g.h_y
        assert rec.n2 == pytest.approx(mass, rel=1e-13)
        assert rec.n2 == pytest.approx(1.0 / 3.0, rel=0.01)


class TestDerivativeRecord:
    def test_zero_state(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        rec = rate_record(g, zero_state(g), params())
        assert rec.field_total() == 0.0 and rec.grad_total() == 0.0

    def test_surface_rate_only(self):
        # frozen acid trace: the gypsum rate norm equals the kernel norm
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(k=0.5)
        st = zero_state(g)
        st.u3[:, -1] = 2.0
        rec = rate_record(g, st, p)
        assert rec.n4 == pytest.approx(g.length * 1.0**2, rel=1e-13)

    def test_exchange_rate_norm(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(alpha=0.3, beta=0.0)
        st = zero_state(g)
        st.u2[:] = 2.0
        rec = rate_record(g, st, p)
        # du2/dt = -0.3*2 everywhere, du3/dt = +0.3*2
        assert rec.n2 == pytest.approx(0.6**2 * 1.0, rel=1e-13)
        assert rec.n3 == pytest.approx(0.6**2, rel=1e-13)


class TestMixedQuotients:
    def test_y_only_field_has_no_x_quotients(self):
        g = GridSpec(1.0, 1.0, 6, 6)
        st = zero_state(g)
        st.u2[...] = np.tile(g.y_nodes() ** 2, (7, 1))
        assert quotient_sums(g, st) == (0.0, 0.0)

    def test_linear_in_x(self):
        g = GridSpec(1.5, 0.8, 5, 4)
        st = zero_state(g)
        st.u2[...] = np.tile(g.x_nodes()[:, None], (1, g.n_y + 1))
        xdiff, mixed = quotient_sums(g, st)
        # oracle: unit forward quotients on n_x*(n_y+1) positions
        expected = 0.0
        for i in range(g.n_x):
            for j in range(g.n_y + 1):
                expected += 1.0
        expected *= g.h_x * g.h_y
        assert xdiff == pytest.approx(expected, rel=1e-13)
        assert mixed == 0.0

    def test_bilinear_field(self):
        g = GridSpec(2.0, 3.0, 4, 5)
        st = zero_state(g)
        st.u3[...] = g.x_nodes()[:, None] * g.y_nodes()[None, :]
        _, mixed = quotient_sums(g, st)
        # mixed quotient of x*y is exactly 1 on every sub-rectangle
        assert mixed == pytest.approx(g.h_x * g.h_y * g.n_x * g.n_y, rel=1e-13)
        assert mixed == pytest.approx(6.0, rel=1e-13)


class TestRefinementSweep:
    def test_zero_data_all_zero(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        initial = InitialData(
            u1=lambda x: 0.0 * x, u2=lambda x, y: 0.0 * x * y,
            u3=lambda x, y: 0.0 * x * y, u4=lambda x: 0.0 * x)
        res = refinement_sweep(g, params(), initial,
                               TimeSpec(t_end=0.5, snapshot_times=(0.0, 0.25, 0.5)))
        for lvl in res.levels:
            assert all(v == 0.0 for v in lvl.quantities.values())
        assert res.passed()

    def test_decoupled_heat_is_bounded(self):
        # smooth decoupled diffusion: nothing may grow materially under
        # refinement
        g = GridSpec(1.0, 1.0, 8, 8)
        initial = InitialData(
            u1=lambda x: np.sin(np.pi * x / 2.0),
            u2=lambda x, y: (1.0 + 0.0 * x) * np.cos(np.pi * y) ** 2,
            u3=lambda x, y: 0.5 + 0.0 * x * y,
            u4=lambda x: 0.0 * x)
        res = refinement_sweep(
            g, params(), initial,
            TimeSpec(t_end=2.0, snapshot_times=tuple(np.linspace(0.0, 2.0, 9))))
        assert res.passed()
        # coarse-level records may still converge upward toward the continuum
        # value, but nothing grows materially
        for name, ratio in res.ratios.items():
            assert ratio <= 1.1, (name, ratio)


def test_sweep_quantities_pinned():
    # fig1 on 4^2, 8^2 and 16^2 up to t = 20, to 17 digits, at a step of
    # 0.2 given here: a reordered sum, a changed norm or a changed snapshot
    # rule moves these, a change of the scenario's default step does not
    expected = {
        (4, 4): (0.92729964053237557, 47.232373450250122, 0.017339327975617762,
                 0.22414017990243823, 3.3340093048961319, 124.01836610270358),
        (8, 8): (0.82561850326255792, 45.001255077355175, 0.01649895662515664,
                 0.20333107993267793, 2.1597245859339678, 117.3004388455515),
        (16, 16): (0.7977870876161488, 44.607643831060983, 0.016288985099695473,
                   0.19937626051954657, 1.7723567483276503, 116.92141450603501),
    }
    cfg = scenario_config("fig1", t_end=20.0, dt=0.2, snapshots="0 5 10 15 20")
    res = refinement_sweep(GridSpec(1.0, 1.0, 4, 4), cfg.params, cfg.initial,
                           cfg.time)
    assert [(lvl.n_x, lvl.n_y) for lvl in res.levels] == list(expected)
    for lvl in res.levels:
        got = tuple(lvl.quantities[name] for name in MONITORED)
        assert got == pytest.approx(expected[lvl.n_x, lvl.n_y], rel=1e-12, abs=0.0)
