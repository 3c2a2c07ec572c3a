import numpy as np
import pytest

from corrosim.grids import GridError, GridSpec, ip_micro
from corrosim.integrator import TimeSpec, integrate
from corrosim.model import (
    AssumptionError,
    InitialData,
    ModelParams,
    SourceTerms,
    State,
    Tendency,
    eta,
    project_initial,
    rhs,
)
from reference import ghost_values, zero_state, zeta


def params(**overrides):
    base = dict(d1=1.0, d2=1.0, d3=1.0, bi_m=1.0, henry=1.0, u1_d=0.0,
                k=1.0, alpha=0.5, beta=0.5, q_kind="constant", m4=1.0)
    base.update(overrides)
    return ModelParams(**base)


class TestValidation:
    def test_nonpositive_diffusivity(self):
        with pytest.raises(AssumptionError) as err:
            params(d1=0.0)
        assert err.value.label == "A1"

    def test_negative_transfer_number(self):
        with pytest.raises(AssumptionError) as err:
            params(bi_m=-0.1)
        assert err.value.label == "A1"

    def test_negative_exchange_coefficient(self):
        with pytest.raises(AssumptionError) as err:
            params(alpha=-0.5)
        assert err.value.label == "A2"

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_vector_exchange_coefficient_rejected(self, name):
        # A2 takes scalar coefficients only; a per-node vector is refused
        with pytest.raises(AssumptionError) as err:
            params(**{name: np.array([0.1, 0.2, 0.3])})
        assert err.value.label == "A2"
        assert name in str(err.value)

    def test_unknown_kernel(self):
        with pytest.raises(AssumptionError) as err:
            params(q_kind="cubic")
        assert err.value.label == "A3"

    def test_zero_rate_constant_allowed(self):
        p = params(k=0.0)
        assert eta(3.0, 0.0, p) == 0.0


class TestKernels:
    def test_zeta_arithmetic(self):
        assert zeta(3.0, 1.0, 1.0, 2.0) == 1.0
        assert zeta(0.0, 0.0, 1.0, 2.0) == 0.0
        assert zeta(1.0, 1.0, 0.7, 0.7) == 0.0

    def test_eta_negative_arguments_vanish(self):
        p = params()
        assert eta(-1.0, 5.0, p) == 0.0
        assert eta(5.0, -1.0, p) == 0.0

    def test_eta_vanishes_at_zero_acid(self):
        p = params()
        assert eta(0.0, 3.0, p) == 0.0

    def test_eta_with_cutoff_kernel(self):
        p = params(k=1.0, q_kind="linear_cutoff", m4=1.0)
        assert eta(2.0, 0.0, p) == pytest.approx(2.0)
        assert eta(2.0, 1.0, p) == pytest.approx(0.0)

    def test_eta_nonnegative_everywhere(self):
        p = params(q_kind="linear_cutoff")
        rng = np.random.default_rng(0)
        r = rng.normal(scale=3.0, size=200)
        s = rng.normal(scale=3.0, size=200)
        assert np.all(eta(r, s, p) >= 0.0)

    @pytest.mark.parametrize("q_kind", ["constant", "linear_cutoff"])
    def test_eta_is_the_masked_product(self, q_kind):
        # k * max(r, 0) * Q(max(s, 0)) where r >= 0 and s >= 0, else 0, on
        # negative, zero and large arguments
        p = params(k=0.7, q_kind=q_kind, m4=0.8)
        rng = np.random.default_rng(1)
        r = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -0.0, 1e12, -1e12]])
        s = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -0.0, 1e12, 0.5]])
        r, s = np.meshgrid(r, s)
        rp, sp = np.maximum(r, 0.0), np.maximum(s, 0.0)
        q = (np.ones_like(sp) if q_kind == "constant"
             else np.maximum(0.0, 1.0 - sp / p.m4))
        expected = np.where((r >= 0.0) & (s >= 0.0), p.k * rp * q, 0.0)
        got = eta(r, s, p)
        np.testing.assert_array_equal(got, expected)
        assert not np.any(np.signbit(got))


class TestGhostValues:
    def test_zero_state_mirrors(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        st = zero_state(g)
        st.u2[...] = np.arange(25.0).reshape(5, 5)
        st.u3[...] = np.arange(25.0).reshape(5, 5) * 0.5
        gh = ghost_values(st, params(bi_m=0.0, k=0.0), g)
        assert np.allclose(gh.u2_bottom, st.u2[:, 1])
        assert np.allclose(gh.u2_top, st.u2[:, -2])
        assert np.allclose(gh.u3_bottom, st.u3[:, 1])
        assert np.allclose(gh.u3_top, st.u3[:, -2])

    def test_henry_term(self):
        # u2 = 0, u1 = 1, H = 1, bi_m = 1, d2 = 1, h_y = 0.1 -> bottom ghost 0.2
        g = GridSpec(1.0, 0.4, 4, 4)
        st = zero_state(g)
        st.u1[...] = np.ones(5)
        gh = ghost_values(st, params(), g)
        assert np.allclose(gh.u2_bottom, 0.2)

    def test_surface_term(self):
        # eta = r with k=1, identity kernel, constant q; d3 = 2, h_y = 0.1
        g = GridSpec(1.0, 0.4, 4, 4)
        st = zero_state(g)
        r = 0.8
        st.u3[:, -1] = r
        gh = ghost_values(st, params(d3=2.0), g)
        assert np.allclose(gh.u3_top, st.u3[:, -2] - 0.1 * r)


class TestRhs:
    def test_zero_state_is_stationary(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        t = rhs(zero_state(g), params(), g)
        assert np.all(t.u1 == 0.0) and np.all(t.u2 == 0.0)
        assert np.all(t.u3 == 0.0) and np.all(t.u4 == 0.0)

    def test_interfacial_row_tendency(self):
        # constant u2 = u3 = c with alpha = beta and gas at zero: only the
        # dissolved-gas row at y = 0 moves, at rate -2*bi_m*c/h_y
        c = 0.5
        bi_m = 1.0
        g = GridSpec(1.0, 0.2, 2, 2)  # h_y = 0.1
        p = params(bi_m=bi_m, k=0.0, alpha=0.3, beta=0.3)
        st = zero_state(g)
        st.u2[:] = c
        st.u3[:] = c
        t = rhs(st, p, g)
        ghost = c + 2.0 * g.h_y / p.d2 * bi_m * (0.0 - c)
        expected = p.d2 * (ghost - 2.0 * c + c) / g.h_y**2
        assert expected == pytest.approx(-2.0 * bi_m * c / g.h_y)
        assert np.allclose(t.u2[:, 0], expected)
        assert np.allclose(t.u2[:, 1:], 0.0)
        assert np.allclose(t.u3, 0.0)

    def test_gypsum_rate_is_surface_kernel(self, no_diffusion):
        g = GridSpec(1.0, 1.0, 4, 4)
        st = zero_state(g)
        st.u3[:, -1] = 1.0
        t = rhs(st, params(bi_m=0.0, alpha=0.0, beta=0.0), g)
        assert np.allclose(t.u4, 1.0)

    def test_pinned_node_keeps_zero_tendency(self):
        g = GridSpec(1.0, 1.0, 6, 4)
        rng = np.random.default_rng(1)
        st = zero_state(g)
        st.u1[...] = rng.uniform(size=7)
        st.u1[0] = 0.3
        st.u2[...] = rng.uniform(size=(7, 5))
        st.u3[...] = rng.uniform(size=(7, 5))
        st.u4[...] = rng.uniform(size=7)
        t = rhs(st, params(u1_d=0.3), g)
        assert t.u1[0] == 0.0

    def test_exchange_cancels_pointwise(self, no_diffusion):
        g = GridSpec(1.0, 1.0, 4, 4)
        rng = np.random.default_rng(2)
        st = zero_state(g)
        st.u2[...] = rng.uniform(size=(5, 5))
        st.u3[...] = rng.uniform(size=(5, 5))
        t = rhs(st, params(bi_m=0.0, k=0.0, alpha=0.4, beta=0.2), g)
        assert np.allclose(t.u2 + t.u3, 0.0)

    def test_micro_mass_flat_without_coupling(self):
        # decoupled cells with reflecting closures conserve each micro mass
        g = GridSpec(1.0, 1.0, 5, 6)
        rng = np.random.default_rng(3)
        st = zero_state(g)
        st.u2[...] = rng.uniform(size=(6, 7))
        st.u3[...] = rng.uniform(size=(6, 7))
        t = rhs(st, params(bi_m=0.0, k=0.0, alpha=0.0, beta=0.0), g)
        ones = np.ones((6, 7))
        assert ip_micro(g, t.u2, ones) == pytest.approx(0.0, abs=1e-13)
        assert ip_micro(g, t.u3, ones) == pytest.approx(0.0, abs=1e-13)

    def test_quasi_positive_at_zero_boundary(self):
        # at u2 = 0 the dissolved-gas tendency is nonnegative when the other
        # fields are nonnegative, and symmetrically for the acid
        g = GridSpec(1.0, 1.0, 4, 4)
        rng = np.random.default_rng(4)
        st = zero_state(g)
        st.u1[...] = 1.0
        st.u3[...] = rng.uniform(size=(5, 5))
        t = rhs(st, params(alpha=0.4, beta=0.2, u1_d=1.0), g)
        assert np.all(t.u2 >= 0.0)
        st2 = zero_state(g)
        st2.u2[...] = rng.uniform(size=(5, 5))
        t2 = rhs(st2, params(alpha=0.4, beta=0.2), g)
        assert np.all(t2.u3 >= 0.0)

    def test_sources_added(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        src = SourceTerms(
            f1=lambda t: np.full(5, 2.0),
            f2=lambda t: np.full((5, 5), 3.0),
            f3=lambda t: np.full((5, 5), 4.0),
            f4=lambda t: np.full(5, 5.0),
        )
        t = rhs(zero_state(g), params(k=0.0), g, sources=src)
        assert t.u1[0] == 0.0 and np.allclose(t.u1[1:], 2.0)
        assert np.allclose(t.u2, 3.0) and np.allclose(t.u3, 4.0)
        assert np.allclose(t.u4, 5.0)


def numbered_state(grid):
    """A state whose entries are 0, 1, 2, ... in the order of y."""
    nm, nc = grid.n_x + 1, grid.n_y + 1
    k = np.arange(2.0 * nm * (nc + 1))
    return State(0.5, k[:nm], k[nm:nm + nm * nc].reshape(nm, nc),
                 k[nm + nm * nc:-nm].reshape(nm, nc), k[-nm:])


class TestLayout:
    def test_fields_are_views_of_one_vector(self):
        g = GridSpec(1.0, 1.0, 3, 2)
        st = numbered_state(g)
        assert np.array_equal(st.y, np.arange(st.y.size))
        assert st.micro.shape == (8, 3)
        assert np.array_equal(st.micro, np.concatenate([st.u2, st.u3]))
        st.y[:] = -1.0
        for f in (st.u1, st.u2, st.u3, st.u4, st.micro):
            assert np.all(f == -1.0)

    def test_view_wraps_a_vector_without_copying(self):
        g = GridSpec(1.0, 1.0, 3, 2)
        y = numbered_state(g).y.copy()
        st, tend = State.view(0.25, y, g), Tendency.view(y, g)
        assert st.t == 0.25 and st.y is y and tend.y is y
        st.u3[1, 2] = 100.0
        assert tend.u3[1, 2] == 100.0 == y[4 + 12 + 5]
        with pytest.raises(GridError):
            State.view(0.0, y[:-1], g)
        with pytest.raises(GridError):
            Tendency.view(y[::2], GridSpec(1.0, 1.0, 2, 2))

    @pytest.mark.parametrize("shapes", [
        ((4,), (4, 3), (4, 3), (5,)),      # u4 off the macro grid
        ((4,), (4, 3), (4, 2), (4,)),      # u3 off u2's cell grid
        ((4,), (5, 3), (5, 3), (4,)),      # cells not on the macro nodes
        ((4, 1), (4, 3), (4, 3), (4, 1)),  # a macro field with two axes
        ((4,), (12,), (12,), (4,)),        # flattened micro fields
    ])
    def test_mismatched_fields_rejected(self, shapes):
        with pytest.raises(GridError):
            State(0.0, *(np.zeros(s) for s in shapes))
        with pytest.raises(GridError):
            Tendency(*(np.zeros(s) for s in shapes))

    @pytest.mark.parametrize("name,shape", [
        ("u1", (5,)), ("u2", (3, 4)), ("u3", (12,)), ("u4", ())])
    def test_assignment_checks_the_shape(self, name, shape):
        # writes go through the views; rebinding a field, of a wrong shape or
        # of its own, would split it from y
        st = numbered_state(GridSpec(1.0, 1.0, 3, 2))
        before = st.y.copy()
        for value in (np.ones(shape), np.zeros_like(getattr(st, name))):
            with pytest.raises(AttributeError):
                setattr(st, name, value)
        assert np.array_equal(st.y, before)

    def test_assignment_copies_into_the_view(self):
        st = numbered_state(GridSpec(1.0, 1.0, 3, 2))
        view, y = st.u2, st.y
        new = np.full((4, 3), 7.0)
        st.u2[...] = new
        new[:] = 0.0
        assert st.u2 is view and st.y is y
        assert np.all(st.u2 == 7.0) and np.all(st.micro[:4] == 7.0)

    def test_copy_is_independent(self):
        # a copy is a view of a copied y
        g = GridSpec(1.0, 1.0, 3, 2)
        st = numbered_state(g)
        dup = State.view(st.t, st.y.copy(), g)
        assert dup.t == st.t and np.array_equal(dup.y, st.y)
        dup.u1[:] = -1.0
        dup.u3[...] = np.zeros((4, 3))
        st.u4[:] = -2.0
        assert np.array_equal(st.y[:-4], np.arange(st.y.size - 4))
        assert np.array_equal(dup.u4, np.arange(st.y.size - 4, st.y.size))

    def test_state_for_another_grid_rejected(self):
        st = zero_state(GridSpec(1.0, 1.0, 4, 4))
        other = GridSpec(1.0, 1.0, 4, 3)
        with pytest.raises(GridError):
            rhs(st, params(), other)
        with pytest.raises(GridError):
            integrate(st, params(), other, TimeSpec(t_end=0.1))


class TestProjection:
    def test_inlet_matching_data_keeps_the_inlet_value(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        p = params(u1_d=0.7)
        st = project_initial(InitialData(
            u1=lambda x: np.full_like(x, 0.7),
            u2=lambda x, y: 0.0 * x * y,
            u3=lambda x, y: 0.0 * x * y,
            u4=lambda x: 0.0 * x,
        ), p, g)
        assert np.array_equal(st.u1, np.full(5, 0.7))

    def test_pointwise_sampling(self):
        g = GridSpec(1.0, 1.0, 2, 2)
        st = project_initial(InitialData(
            u1=lambda x: x,
            u2=lambda x, y: x * y,
            u3=lambda x, y: x + y,
            u4=lambda x: 2.0 * x,
        ), params(), g)
        assert st.u2[2, 2] == pytest.approx(1.0)
        assert st.u2[1, 2] == pytest.approx(0.5)
        assert st.u3[0, 1] == pytest.approx(0.5)
        assert st.u1[0] == 0.0  # the inlet value u1_d

    def test_negative_data_rejected(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        bad = InitialData(
            u1=lambda x: 0.0 * x,
            u2=lambda x, y: 0.0 * x * y,
            u3=lambda x, y: 0.0 * x * y,
            u4=lambda x: x - 0.5,
        )
        with pytest.raises(AssumptionError) as err:
            project_initial(bad, params(), g)
        assert err.value.label == "A4"
