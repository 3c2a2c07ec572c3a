"""The discrete gradients, the trace bound, and the summation-by-parts
identities of `rhs`'s diffusion kernel as `verify` evaluates them."""

import numpy as np
import pytest

from corrosim.grids import GridError, GridSpec, ip_macro, norm_macro, norm_macro_edge
from corrosim.grids import norm_micro, norm_micro_edge
from corrosim.model import State, Tendency, _add_diffusion
from corrosim.operators import grad_macro, grad_micro, trace_inequality_check
from corrosim.verify import (
    GREEN_PARAMS,
    antiderivative,
    cell_green_residual,
    gas_green_residual,
)
from reference import laplace_macro, laplace_micro


def ghost_stencil(w, d, h, bottom=0, top=0):
    """d (w_{j-1} - 2 w_j + w_{j+1}) / h^2 at every node of the list w,
    closed by the ghosts w_{-1} = w_1 + 2 h bottom / d and
    w_{n+1} = w_{n-1} - 2 h top / d: inflow `bottom` at the first node,
    outflow `top` at the last, a reflection where the datum is zero."""
    ext = [w[1] + 2 * h * bottom / d, *w, w[-2] - 2 * h * top / d]
    return [d * (ext[j] - 2 * ext[j + 1] + ext[j + 2]) / h**2 for j in range(len(w))]


def kernel(grid, gas, cell, flux, surface):
    """`_add_diffusion` on the state with `gas` in its gas row and `cell`
    in both its u2 and u3 rows, with GREEN_PARAMS."""
    nm, nc = grid.n_x + 1, grid.n_y + 1
    state = State(0.0, gas, cell, cell, np.zeros(nm))
    out = Tendency(np.zeros(nm), np.zeros((nm, nc)), np.zeros((nm, nc)), np.zeros(nm))
    _add_diffusion(state, GREEN_PARAMS, grid, flux, surface, out)
    return out


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


class TestGreenMacro:
    def test_symbolic_expansion_n3(self):
        # independent symbolic oracle: the gas row's stencil with the
        # reflection at x = L satisfies the identity, and the kernel
        # computes that stencil
        sp = pytest.importorskip("sympy")
        h, d = sp.symbols("h d", positive=True)
        u = (sp.Integer(0),) + sp.symbols("u1:4")
        w = sp.symbols("w0:4")
        gamma = [sp.Rational(1, 2), 1, 1, sp.Rational(1, 2)]
        lw = ghost_stencil(w, d, h)
        lhs = h * sum(gamma[i] * u[i] * lw[i] for i in range(1, 4))
        grads = h * sum((u[k + 1] - u[k]) / h * (w[k + 1] - w[k]) / h for k in range(3))
        assert sp.expand(lhs + d * grads) == 0

        g = GridSpec(1.3, 0.7, 3, 3)
        rng = np.random.default_rng(17)
        wv = rng.normal(size=4)
        got = kernel(g, wv, rng.normal(size=(4, 4)), rng.normal(size=4),
                     rng.normal(size=4)).u1
        want = [float(e.subs({h: g.h_x, d: GREEN_PARAMS.d1, **dict(zip(w, wv))}))
                for e in lw]
        assert np.allclose(got[1:], want[1:], rtol=1e-13, atol=0.0)

    def test_zero_fields(self):
        g = GridSpec(1.0, 1.0, 8, 4)
        assert gas_green_residual(g, np.zeros(9), np.arange(9.0)) == 0.0
        u = np.arange(9.0)
        u[0] = 0.0
        assert gas_green_residual(g, u, np.zeros(9)) == 0.0

    def test_random_admissible(self):
        rng = np.random.default_rng(3)
        g = GridSpec(2.0, 1.0, 8, 4)
        for _ in range(100):
            u = rng.normal(size=9)
            u[0] = 0.0
            w = rng.normal(size=9)
            res = gas_green_residual(g, u, w)
            scale = norm_macro(g, u) * norm_macro_edge(g, grad_macro(g, w))
            assert res <= 1e-13 * (1.0 + scale)

    def test_rejects_nonzero_dirichlet(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            gas_green_residual(g, np.ones(5), np.ones(5))


class TestGreenMicro:
    def test_symbolic_expansion_n3(self):
        # the u2 rows take the inflow at y = 0 and the u3 rows the surface
        # loss at y = ell through their ghosts; both satisfy the identity
        # with their flux term, and the kernel computes both stencils
        sp = pytest.importorskip("sympy")
        hx, hy, d = sp.symbols("h_x h_y d", positive=True)
        U = sp.Matrix(4, 4, sp.symbols("U0:4_0:4"))
        W = sp.Matrix(4, 4, sp.symbols("W0:4_0:4"))
        flux = sp.symbols("a0:4")
        surface = sp.symbols("b0:4")
        gm = [sp.Rational(1, 2), 1, 1, sp.Rational(1, 2)]
        rows = {"u2": [ghost_stencil(list(W.row(i)), d, hy, bottom=flux[i])
                       for i in range(4)],
                "u3": [ghost_stencil(list(W.row(i)), d, hy, top=surface[i])
                       for i in range(4)]}
        grads = sum(hx * hy * gm[i] * (U[i, k + 1] - U[i, k]) / hy
                    * (W[i, k + 1] - W[i, k]) / hy for i in range(4) for k in range(3))
        boundary = {"u2": -hx * sum(gm[i] * U[i, 0] * flux[i] for i in range(4)),
                    "u3": hx * sum(gm[i] * U[i, 3] * surface[i] for i in range(4))}
        for name, lw in rows.items():
            lhs = sum(hx * hy * gm[i] * gm[j] * U[i, j] * lw[i][j]
                      for i in range(4) for j in range(4))
            assert sp.expand(lhs + d * grads + boundary[name]) == 0

        g = GridSpec(1.3, 0.7, 3, 3)
        rng = np.random.default_rng(19)
        wv, fv, sv = rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4)
        out = kernel(g, np.zeros(4), wv, fv, sv)
        values = {hy: g.h_y, **dict(zip(W, wv.ravel())), **dict(zip(flux, fv)),
                  **dict(zip(surface, sv))}
        for name, dk in (("u2", GREEN_PARAMS.d2), ("u3", GREEN_PARAMS.d3)):
            want = [[float(e.subs({**values, d: dk})) for e in row] for row in rows[name]]
            assert np.allclose(getattr(out, name), want, rtol=1e-13, atol=0.0)

    def test_zero_field(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        res = cell_green_residual(g, np.zeros((5, 5)), np.ones((5, 5)),
                                  np.ones(5), np.ones(5))
        assert res == 0.0

    def test_random_with_zero_flux(self):
        rng = np.random.default_rng(5)
        g = GridSpec(1.5, 0.8, 6, 5)
        z = np.zeros(7)
        for _ in range(100):
            u = rng.normal(size=(7, 6))
            w = rng.normal(size=(7, 6))
            res = cell_green_residual(g, u, w, z, z)
            scale = norm_micro(g, u) * norm_micro_edge(g, grad_micro(g, w))
            assert res <= 1e-13 * (1.0 + scale)

    def test_random_with_random_flux(self):
        rng = np.random.default_rng(7)
        g = GridSpec(1.0, 2.0, 5, 6)
        for _ in range(100):
            u = rng.normal(size=(6, 7))
            w = rng.normal(size=(6, 7))
            flux = rng.normal(size=6)
            surface = rng.normal(size=6)
            res = cell_green_residual(g, u, w, flux, surface)
            scale = norm_micro(g, u) * norm_micro_edge(g, grad_micro(g, w))
            assert res <= 1e-12 * (1.0 + scale)

    def test_flux_term_cancels_divergence(self):
        # u constant, w zero: the diffusion the kernel builds from the ghost
        # closures must cancel the explicit flux products exactly
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.ones((5, 5))
        w = np.zeros((5, 5))
        res = cell_green_residual(g, u, w, np.full(5, 0.7), np.full(5, -0.4))
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_ghost_offset_leaves_the_bottom_trace_product(self, skew_bottom_flux):
        # the kernel folding flux + delta into its ghost at y = 0 adds
        # delta (u|_{y=0}, 1) to the u2 rows' residual; the u3 rows' stays
        # at rounding level
        rng = np.random.default_rng(9)
        g = GridSpec(1.0, 2.0, 5, 6)
        u = rng.normal(size=(6, 7))
        w = rng.normal(size=(6, 7))
        flux, surface = rng.normal(size=6), rng.normal(size=6)
        delta = 0.05
        skew_bottom_flux(delta)
        res = cell_green_residual(g, u, w, flux, surface)
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
            w = rng.normal(size=(8, g.n_x + 1))
            res = gas_green_residual(g, u, w)
            assert res.shape == (8,)
            assert np.array_equal(res, [gas_green_residual(g, *p) for p in zip(u, w)])
            uf = rng.normal(size=(8, g.n_x + 1, g.n_y + 1))
            wf = rng.normal(size=(8, g.n_x + 1, g.n_y + 1))
            flux, surface = rng.normal(size=(2, 8, g.n_x + 1))
            res = cell_green_residual(g, uf, wf, flux, surface)
            assert res.shape == (8,)
            assert np.array_equal(
                res, [cell_green_residual(g, *p) for p in zip(uf, wf, flux, surface)])

    def test_antiderivative(self):
        rng = np.random.default_rng(41)
        g = GridSpec(1.3, 0.7, 6, 5)
        v = rng.normal(size=(3, g.n_x))
        vf = rng.normal(size=(3, g.n_x + 1, g.n_y))
        w, wf = antiderivative(g.h_x, v), antiderivative(g.h_y, vf)
        assert np.all(w[:, 0] == 0.0) and np.all(wf[..., 0] == 0.0)
        assert np.allclose(grad_macro(g, w), v, rtol=0.0, atol=1e-14)
        assert np.allclose(grad_micro(g, wf), vf, rtol=0.0, atol=1e-14)

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
            gas_green_residual(g, np.zeros((3, 5)), np.zeros((3, 4)))
        with pytest.raises(GridError):
            cell_green_residual(g, np.zeros((3, 5, 5)), np.zeros((3, 5, 4)),
                                np.zeros((3, 5)), np.zeros((3, 5)))
        with pytest.raises(GridError):
            trace_inequality_check(g, np.zeros((3, 5, 4)))

    def test_one_nonzero_dirichlet_value_rejects_the_stack(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.zeros((5, 5))
        u[3, 0] = 1e-300
        with pytest.raises(ValueError, match="u = 0 at x = 0"):
            gas_green_residual(g, u, np.ones((5, 5)))
