import numpy as np
import pytest

from corrosim.grids import GridError, GridSpec, norm_macro, norm_macro_edge
from corrosim.grids import norm_micro, norm_micro_edge
from corrosim.operators import (
    div_macro,
    div_micro,
    grad_macro,
    grad_micro,
    green_macro_residual,
    green_micro_residual,
    trace_inequality_check,
)
from reference import laplace_macro, laplace_micro


class TestGradients:
    def test_macro_linear_exact(self):
        g = GridSpec(2.0, 1.0, 8, 2)
        assert np.allclose(grad_macro(g, g.x_nodes()), 1.0)

    def test_macro_constant(self):
        g = GridSpec(2.0, 1.0, 8, 2)
        assert np.all(grad_macro(g, np.full(9, 4.2)) == 0.0)

    def test_macro_hand_case(self):
        g = GridSpec(2.0, 1.0, 2, 2)  # h_x = 1
        assert np.allclose(grad_macro(g, np.array([0.0, 1.0, 4.0])), [1.0, 3.0])

    def test_micro_linear_in_y(self):
        g = GridSpec(1.0, 2.0, 3, 5)
        u = np.tile(g.y_nodes(), (4, 1))
        assert np.allclose(grad_micro(g, u), 1.0)

    def test_micro_constant(self):
        g = GridSpec(1.0, 2.0, 3, 5)
        assert np.all(grad_micro(g, np.full((4, 6), 2.0)) == 0.0)

    def test_micro_hand_case(self):
        g = GridSpec(1.0, 2.0, 2, 2)  # h_y = 1
        u = np.array([[0.0, 1.0, 4.0]] * 3)
        assert np.allclose(grad_micro(g, u), [[1.0, 3.0]] * 3)


class TestDivergence:
    def test_constant_flux_interior(self):
        g = GridSpec(2.0, 1.0, 8, 2)
        v = np.full(8, 3.0)
        d = div_macro(g, v, right_ghost=3.0)
        assert np.allclose(d[:-1], 0.0)

    def test_linear_flux(self):
        g = GridSpec(2.0, 1.0, 8, 2)
        v = (np.arange(g.n_x) + 0.5) * g.h_x  # v(x) = x at the edges
        ghost = (g.n_x + 0.5) * g.h_x
        assert np.allclose(div_macro(g, v, right_ghost=ghost), 1.0)

    def test_hand_case(self):
        g = GridSpec(2.0, 1.0, 2, 2)  # h_x = 1, div at i=1 from v=[1,3]
        d = div_macro(g, np.array([1.0, 3.0]), right_ghost=0.0)
        assert d[0] == pytest.approx(2.0)

    def test_missing_closure(self):
        g = GridSpec(2.0, 1.0, 8, 2)
        with pytest.raises(TypeError):
            div_macro(g, np.ones(8))
        with pytest.raises(TypeError):
            div_micro(g, np.ones((9, 2)))

    def test_micro_constant_flux(self):
        g = GridSpec(1.0, 2.0, 3, 5)
        v = np.full((4, 5), 2.0)
        ghosts = np.full(4, 2.0)
        assert np.allclose(div_micro(g, v, ghosts, ghosts), 0.0)


class TestLaplacian:
    def test_affine_annihilated(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        u = 3.0 + 2.0 * g.x_nodes()
        ghost = 3.0 + 2.0 * (g.length + g.h_x)
        assert np.allclose(laplace_macro(g, u, right_ghost=ghost), 0.0, atol=1e-12)

    def test_quadratic_exact(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        u = g.x_nodes() ** 2
        ghost = (g.length + g.h_x) ** 2
        assert np.allclose(laplace_macro(g, u, right_ghost=ghost), 2.0)

    def test_reflected_ghost_boundary_value(self):
        # L=1, n_x=4, u = x^2, no-flux ghost u_{n_x+1} = u_{n_x-1}:
        # (2*0.75^2 - 2*1)/0.0625 = -14
        g = GridSpec(1.0, 1.0, 4, 4)
        u = g.x_nodes() ** 2
        lap = laplace_macro(g, u, right_ghost=u[-2])
        assert lap[:-1] == pytest.approx([2.0, 2.0, 2.0])
        assert lap[-1] == pytest.approx(-14.0)

    def test_micro_quadratic(self):
        g = GridSpec(1.0, 2.0, 3, 8)
        u = np.tile(g.y_nodes() ** 2, (4, 1))
        ghost_b = np.full(4, g.h_y**2)      # y = -h_y
        ghost_t = np.full(4, (g.cell_length + g.h_y) ** 2)
        assert np.allclose(laplace_micro(g, u, ghost_b, ghost_t), 2.0)

    def test_div_of_grad_of_affine_is_zero(self):
        g = GridSpec(1.0, 1.0, 6, 6)
        u = 1.0 - 0.5 * g.x_nodes()
        v = grad_macro(g, u)
        d = div_macro(g, v, right_ghost=v[-1])
        assert np.allclose(d, 0.0, atol=1e-13)


class TestGreenMacro:
    def test_symbolic_expansion_n3(self):
        # independent symbolic oracle for the identity the residual encodes
        sp = pytest.importorskip("sympy")
        hx = sp.symbols("h_x", positive=True)
        u = (sp.Integer(0),) + sp.symbols("u1:4")
        v = sp.symbols("v0:3")
        gamma = [sp.Rational(1, 2), 1, 1, sp.Rational(1, 2)]
        div = [(v[1] - v[0]) / hx, (v[2] - v[1]) / hx, (-v[2] - v[2]) / hx]
        lhs = hx * sum(gamma[i] * u[i] * div[i - 1] for i in range(1, 4))
        rhs = hx * sum((u[k + 1] - u[k]) / hx * v[k] for k in range(3))
        assert sp.simplify(lhs + rhs) == 0

    def test_zero_fields(self):
        g = GridSpec(1.0, 1.0, 8, 4)
        assert green_macro_residual(g, np.zeros(9), np.arange(8.0)) == 0.0
        u = np.arange(9.0)
        u[0] = 0.0
        assert green_macro_residual(g, u, np.zeros(8)) == 0.0

    def test_random_admissible(self):
        rng = np.random.default_rng(3)
        g = GridSpec(2.0, 1.0, 8, 4)
        for _ in range(100):
            u = rng.normal(size=9)
            u[0] = 0.0
            v = rng.normal(size=8)
            res = green_macro_residual(g, u, v)
            scale = norm_macro(g, u) * norm_macro_edge(g, v)
            assert res <= 1e-13 * (1.0 + scale)

    def test_rejects_nonzero_dirichlet(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            green_macro_residual(g, np.ones(5), np.ones(4))


class TestGreenMicro:
    def test_symbolic_expansion_n3(self):
        sp = pytest.importorskip("sympy")
        hx, hy = sp.symbols("h_x h_y", positive=True)
        U = sp.Matrix(4, 4, sp.symbols("U0:4_0:4"))
        V = sp.Matrix(4, 3, sp.symbols("V0:4_0:3"))
        d1 = sp.symbols("a0:4")
        d2 = sp.symbols("b0:4")
        gm = [sp.Rational(1, 2), 1, 1, sp.Rational(1, 2)]
        total = 0
        for i in range(4):
            ext = [-2 * d1[i] - V[i, 0], V[i, 0], V[i, 1], V[i, 2],
                   2 * d2[i] - V[i, 2]]
            for j in range(4):
                total += hx * hy * gm[i] * gm[j] * U[i, j] * (ext[j + 1] - ext[j]) / hy
        for i in range(4):
            for k in range(3):
                total += hx * hy * gm[i] * (U[i, k + 1] - U[i, k]) / hy * V[i, k]
        total -= hx * sum(gm[i] * U[i, 0] * d1[i] for i in range(4))
        total -= hx * sum(gm[i] * U[i, 3] * d2[i] for i in range(4))
        assert sp.simplify(total) == 0

    def test_zero_field(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        res = green_micro_residual(g, np.zeros((5, 5)), np.ones((5, 4)),
                                   np.ones(5), np.ones(5))
        assert res == 0.0

    def test_random_with_zero_flux(self):
        rng = np.random.default_rng(5)
        g = GridSpec(1.5, 0.8, 6, 5)
        z = np.zeros(7)
        for _ in range(100):
            u = rng.normal(size=(7, 6))
            v = rng.normal(size=(7, 5))
            res = green_micro_residual(g, u, v, z, z)
            scale = norm_micro(g, u) * norm_micro_edge(g, v)
            assert res <= 1e-13 * (1.0 + scale)

    def test_random_with_random_flux(self):
        rng = np.random.default_rng(7)
        g = GridSpec(1.0, 2.0, 5, 6)
        for _ in range(100):
            u = rng.normal(size=(6, 7))
            v = rng.normal(size=(6, 6))
            d1 = rng.normal(size=6)
            d2 = rng.normal(size=6)
            res = green_micro_residual(g, u, v, d1, d2)
            scale = norm_micro(g, u) * norm_micro_edge(g, v)
            assert res <= 1e-12 * (1.0 + scale)

    def test_flux_term_cancels_divergence(self):
        # u constant, v zero: the divergence built from the ghost closure
        # must cancel the explicit flux products exactly
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.ones((5, 5))
        v = np.zeros((5, 4))
        d1 = np.full(5, 0.7)
        assert green_micro_residual(g, u, v, d1, np.zeros(5)) == pytest.approx(0.0, abs=1e-15)

    def test_ghost_offset_leaves_the_bottom_trace_product(self, lower_bottom_ghost):
        # offsetting the bottom flux data by delta lowers the ghost edge by
        # 2 delta and shifts row j = 0 of the divergence by 2 delta / h_y;
        # the residual is then |delta * (u|_{y=0}, 1)|
        from corrosim.grids import ip_macro

        rng = np.random.default_rng(9)
        g = GridSpec(1.0, 2.0, 5, 6)
        u = rng.normal(size=(6, 7))
        v = rng.normal(size=(6, 6))
        d1, d2 = rng.normal(size=6), rng.normal(size=6)
        delta = 0.05
        lower_bottom_ghost(2.0 * delta)
        res = green_micro_residual(g, u, v, d1, d2)
        assert res == pytest.approx(abs(delta * ip_macro(g, u[:, 0], np.ones(6))),
                                    rel=1e-10)


class TestTraceInequality:
    def test_constant_field(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.full((5, 5), 2.0)
        lhs, rhs = trace_inequality_check(g, u)
        assert lhs == pytest.approx(4.0, rel=1e-14)
        assert rhs == pytest.approx(8.0, rel=1e-14)
        assert lhs <= rhs

    def test_linear_in_y(self):
        g = GridSpec(1.0, 1.0, 6, 6)
        u = np.tile(g.y_nodes(), (7, 1))
        lhs, rhs = trace_inequality_check(g, u)
        assert lhs == pytest.approx(g.cell_length**2 * g.length, rel=1e-14)
        # independent evaluation of the right-hand side
        grad_sq = g.length * g.cell_length  # unit gradient
        mass_sq = 0.0
        for i in range(g.n_x + 1):
            gi = 0.5 if i in (0, g.n_x) else 1.0
            for j in range(g.n_y + 1):
                gj = 0.5 if j in (0, g.n_y) else 1.0
                mass_sq += gi * gj * (j * g.h_y) ** 2
        mass_sq *= g.h_x * g.h_y
        assert rhs == pytest.approx(2 * g.cell_length * (grad_sq + mass_sq), rel=1e-13)
        assert lhs <= rhs

    def test_random_fields_never_violate(self):
        rng = np.random.default_rng(11)
        g = GridSpec(1.0, 1.0, 16, 16)
        for _ in range(100):
            u = rng.normal(size=(17, 17))
            lhs, rhs = trace_inequality_check(g, u)
            assert lhs <= rhs


class TestStacks:
    """A leading batch axis gives exactly the per-field values."""

    def test_gradients(self):
        rng = np.random.default_rng(29)
        g = GridSpec(1.3, 0.7, 6, 5)
        u = rng.normal(size=(4, 7))
        f = rng.normal(size=(4, 7, 6))
        assert np.array_equal(grad_macro(g, u), [grad_macro(g, a) for a in u])
        assert np.array_equal(grad_micro(g, f), [grad_micro(g, a) for a in f])

    def test_green_residuals(self):
        rng = np.random.default_rng(31)
        for g in (GridSpec(1.0, 1.0, 16, 16), GridSpec(1.3, 0.7, 6, 5)):
            u = rng.normal(size=(8, g.n_x + 1))
            u[:, 0] = 0.0
            v = rng.normal(size=(8, g.n_x))
            res = green_macro_residual(g, u, v)
            assert res.shape == (8,)
            assert np.array_equal(res, [green_macro_residual(g, *p) for p in zip(u, v)])
            uf = rng.normal(size=(8, g.n_x + 1, g.n_y + 1))
            vf = rng.normal(size=(8, g.n_x + 1, g.n_y))
            d1, d2 = rng.normal(size=(2, 8, g.n_x + 1))
            res = green_micro_residual(g, uf, vf, d1, d2)
            assert res.shape == (8,)
            assert np.array_equal(
                res, [green_micro_residual(g, *p) for p in zip(uf, vf, d1, d2)])

    def test_trace_inequality(self):
        rng = np.random.default_rng(37)
        g = GridSpec(1.0, 1.0, 16, 16)
        u = rng.normal(size=(10, 17, 17))
        lhs, rhs = trace_inequality_check(g, u)
        single = [trace_inequality_check(g, a) for a in u]
        assert np.array_equal(lhs, [a for a, _ in single])
        assert np.array_equal(rhs, [b for _, b in single])

    def test_wrong_trailing_shape_rejected(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(GridError):
            grad_macro(g, np.zeros((3, 6)))
        with pytest.raises(GridError):
            green_macro_residual(g, np.zeros((3, 5)), np.zeros((3, 5)))
        with pytest.raises(GridError):
            green_micro_residual(g, np.zeros((3, 5, 5)), np.zeros((3, 5, 5)),
                                 np.zeros((3, 5)), np.zeros((3, 5)))
        with pytest.raises(GridError):
            trace_inequality_check(g, np.zeros((3, 5, 4)))

    def test_one_nonzero_dirichlet_value_rejects_the_stack(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.zeros((5, 5))
        u[3, 0] = 1e-300
        with pytest.raises(ValueError, match="u = 0 at x = 0"):
            green_macro_residual(g, u, np.ones((5, 4)))
