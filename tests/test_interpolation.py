import numpy as np
import pytest

from corrosim.grids import GridSpec, ip_macro
from corrosim.interpolation import (
    dual_cell_bounds,
    extension_product_residuals,
    extension_products,
    ManufacturedSolution,
    mms_convergence,
    pwc_eval_macro,
    pwc_eval_micro,
    pwl_eval_macro,
    pwl_eval_micro,
)
from reference import manufactured_constant


class TestDualCells:
    def test_measures_match_weights(self):
        g = GridSpec(2.0, 1.5, 5, 4)
        bx = dual_cell_bounds(g, "x")
        measures = bx[:, 1] - bx[:, 0]
        expected = np.full(6, g.h_x)
        expected[0] = expected[-1] = 0.5 * g.h_x
        assert np.allclose(measures, expected, rtol=1e-15)
        assert np.sum(measures) == pytest.approx(g.length, rel=1e-15)

    def test_cells_tile_domain(self):
        g = GridSpec(1.0, 1.0, 7, 3)
        by = dual_cell_bounds(g, "y")
        assert by[0, 0] == 0.0 and by[-1, 1] == g.cell_length
        assert np.allclose(by[1:, 0], by[:-1, 1])


class TestPwcEval:
    def test_nodes_take_nodal_values(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        rng = np.random.default_rng(0)
        u = rng.normal(size=5)
        assert np.allclose(pwc_eval_macro(g, u, g.x_nodes()), u)

    def test_constant_everywhere(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.full(5, 2.2)
        x = np.random.default_rng(1).uniform(0, 1, 50)
        assert np.allclose(pwc_eval_macro(g, u, x), 2.2)

    def test_tie_goes_to_lower_index(self):
        g = GridSpec(1.0, 1.0, 4, 4)  # cell boundary at exactly 0.125
        u = np.arange(5.0)
        assert pwc_eval_macro(g, u, np.array([0.125]))[0] == 0.0
        assert pwc_eval_macro(g, u, np.array([0.1250001]))[0] == 1.0

    def test_ties_are_measure_zero(self):
        # a Riemann sum through the evaluation map converges to the weighted
        # product no matter how boundary ties break
        g = GridSpec(1.0, 1.0, 4, 4)
        rng = np.random.default_rng(2)
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        xs = (np.arange(20000) + 0.5) / 20000.0
        riemann = np.mean(pwc_eval_macro(g, u, xs) * pwc_eval_macro(g, v, xs))
        assert riemann == pytest.approx(ip_macro(g, u, v), abs=2e-4)

    def test_micro_outside_domain_rejected(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            pwc_eval_micro(g, np.zeros((5, 5)), np.array([0.5]), np.array([1.5]))

    @pytest.mark.parametrize("evaluate", [pwc_eval_macro, pwl_eval_macro])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_macro_non_finite_coordinate_rejected(self, evaluate, x):
        # NaN used to give the last node's value (pwc) or NaN (pwl)
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="coordinate outside"):
            evaluate(g, np.arange(5.0), [0.5, x])

    @pytest.mark.parametrize("evaluate", [pwc_eval_micro, pwl_eval_micro])
    def test_micro_nan_coordinate_rejected(self, evaluate):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="coordinate outside"):
            evaluate(g, np.zeros((5, 5)), [0.5], [np.nan])


class TestPwlEval:
    def test_macro_affine_reproduction(self):
        g = GridSpec(2.0, 1.0, 5, 2)
        u = 0.7 + 1.3 * g.x_nodes()
        x = np.random.default_rng(3).uniform(0, 2, 100)
        assert np.allclose(pwl_eval_macro(g, u, x), 0.7 + 1.3 * x, rtol=1e-13)

    def test_macro_midpoint_average(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        u = np.array([0.0, 1.0, 3.0, 2.0, 5.0])
        mids = (np.arange(4) + 0.5) * g.h_x
        assert np.allclose(pwl_eval_macro(g, u, mids), 0.5 * (u[:-1] + u[1:]))

    def test_micro_affine_reproduction(self):
        g = GridSpec(2.0, 1.5, 5, 4)
        X = g.x_nodes()[:, None]
        Y = g.y_nodes()[None, :]
        u = 1.0 + 2.0 * X + 3.0 * Y + 0.0 * X * Y
        rng = np.random.default_rng(4)
        px = rng.uniform(0, 2.0, 200)
        py = rng.uniform(0, 1.5, 200)
        assert np.allclose(pwl_eval_micro(g, u, px, py),
                           1.0 + 2.0 * px + 3.0 * py, rtol=1e-12)

    def test_micro_matches_barycentric_oracle(self):
        # affine interpolation on each triangle, checked against barycentric
        # coordinates computed from the vertex geometry
        g = GridSpec(1.0, 1.0, 2, 2)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(3, 3))
        for _ in range(100):
            px, py = rng.uniform(0, 1, 2)
            i = min(int(px / g.h_x), 1)
            j = min(int(py / g.h_y), 1)
            xi = (px - i * g.h_x) / g.h_x
            ups = (py - j * g.h_y) / g.h_y
            if xi + ups <= 1.0:
                verts = [(i, j), (i + 1, j), (i, j + 1)]
            else:
                verts = [(i + 1, j + 1), (i + 1, j), (i, j + 1)]
            coords = np.array([[vi * g.h_x, vj * g.h_y] for vi, vj in verts])
            A = np.vstack([coords.T, np.ones(3)])
            lam = np.linalg.solve(A, np.array([px, py, 1.0]))
            oracle = sum(l * u[vi, vj] for l, (vi, vj) in zip(lam, verts))
            got = pwl_eval_micro(g, u, np.array([px]), np.array([py]))[0]
            assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_micro_continuous_across_edges(self):
        g = GridSpec(1.0, 1.0, 5, 5)
        rng = np.random.default_rng(6)
        u = rng.normal(size=(6, 6))
        # points on shared rectangle edges and on the anti-diagonals
        eps = 1e-9
        for _ in range(200):
            i = rng.integers(1, 5)
            y = rng.uniform(0, 1)
            x_edge = i * g.h_x
            left = pwl_eval_micro(g, u, np.array([x_edge - eps]), np.array([y]))[0]
            right = pwl_eval_micro(g, u, np.array([x_edge + eps]), np.array([y]))[0]
            assert left == pytest.approx(right, abs=1e-7)

    def test_nodes_exact(self):
        g = GridSpec(1.0, 1.0, 5, 4)
        rng = np.random.default_rng(7)
        u = rng.normal(size=(6, 5))
        X, Y = np.meshgrid(g.x_nodes(), g.y_nodes(), indexing="ij")
        vals = pwl_eval_micro(g, u, X.ravel(), Y.ravel()).reshape(X.shape)
        assert np.allclose(vals, u, rtol=1e-13)


class TestExtensionProducts:
    def test_constant_fields(self):
        g = GridSpec(2.0, 1.5, 4, 4)
        ones_g = np.ones(5)
        ones_f = np.ones((5, 5))
        pairs = extension_products(g, ones_g, ones_g, ones_f, ones_f)
        assert pairs["macro_values"][0] == pytest.approx(2.0, rel=1e-14)
        assert pairs["macro_gradients"] == (0.0, 0.0)
        assert pairs["micro_values"][0] == pytest.approx(3.0, rel=1e-14)
        assert pairs["micro_gradients"] == (0.0, 0.0)

    def test_affine_gradient_products_exact(self):
        g = GridSpec(1.0, 1.0, 6, 6)
        u = 2.0 * g.x_nodes()
        v = -0.5 * g.x_nodes() + 1.0
        pairs = extension_products(g, u, v, np.ones((7, 7)), np.ones((7, 7)))
        l2, disc = pairs["macro_gradients"]
        assert l2 == pytest.approx(-1.0, rel=1e-13)
        assert l2 == pytest.approx(disc, rel=1e-13)

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_random_fields_all_identities(self, n):
        rng = np.random.default_rng(100 + n)
        g = GridSpec(1.3, 0.7, n, n)
        for _ in range(5):
            res = extension_product_residuals(
                g,
                rng.normal(size=n + 1), rng.normal(size=n + 1),
                rng.normal(size=(n + 1, n + 1)), rng.normal(size=(n + 1, n + 1)))
            assert max(res.values()) <= 1e-12

    @pytest.mark.parametrize("grid", [GridSpec(1.0, 1.0, 8, 8), GridSpec(1.3, 0.7, 5, 7)])
    def test_stack_gives_the_per_field_values(self, grid):
        # the eval maps' fancy indexing leaves a stack batch-last in memory;
        # each field must still add up exactly as it does alone
        rng = np.random.default_rng(41)
        nm, nc = grid.n_x + 1, grid.n_y + 1
        fields = [rng.normal(size=(6, *s)) for s in ((nm,), (nm,), (nm, nc), (nm, nc))]
        pairs = extension_products(grid, *fields)
        res = extension_product_residuals(grid, *fields)
        for k in range(6):
            one = extension_products(grid, *(f[k] for f in fields))
            for name, (l2, disc) in one.items():
                assert (pairs[name][0][k], pairs[name][1][k]) == (l2, disc)
            one = extension_product_residuals(grid, *(f[k] for f in fields))
            assert {name: val[k] for name, val in res.items()} == one


class TestMmsConvergence:
    def test_constant_solution_machine_precision(self):
        errors, orders = mms_convergence(manufactured_constant(), 2)
        assert errors.shape == (2, 4) and orders.shape == (1, 4)
        assert np.all(errors <= 1e-13)
        # where an error is exactly zero the order is NaN, without a RuntimeWarning
        np.testing.assert_array_equal(np.isnan(orders[0]),
                                      (errors[0] == 0.0) | (errors[1] == 0.0))

    def test_smooth_solution_second_order(self):
        _, orders = mms_convergence(ManufacturedSolution(), 3)
        assert orders.shape == (2, 4)
        assert np.all(orders[:, :3] >= 1.9), orders

    def test_error_table_pinned(self):
        # recorded with RK4 at its reach min(2.7/rho, 2/delta) and the sources
        # evaluated from their closed forms on every call; a sign or factor
        # slip in the P + e^{-t} Q split moves these long before it reaches
        # the order floor
        expected = [
            (0.0015526714421303645, 0.015635462275531652,
             0.0011122088166633881, 3.09590799327141e-05),
            (0.00038150032356584415, 0.0038760423110251858,
             0.00027186149141534947, 7.620198879960563e-06),
            (9.494768102166305e-05, 0.0009668631390551505,
             6.757347935829333e-05, 1.8973204210440196e-06),
        ]
        errors, _ = mms_convergence(ManufacturedSolution(), 3)
        np.testing.assert_allclose(errors, expected, rtol=1e-9, atol=0.0)

    def test_source_terms_consistent_with_fields(self):
        # finite-difference consistency of the hand-derived sources
        ms = ManufacturedSolution()
        p = ms.params
        x, y, t = 0.3, 0.4, 0.7
        eps = 1e-6

        def dd(f, *args, idx, h=eps):
            lo = list(args)
            hi = list(args)
            lo[idx] -= h
            hi[idx] += h
            return (f(*hi) - f(*lo)) / (2 * h)

        def d2(f, *args, idx, h=1e-4):
            lo = list(args)
            hi = list(args)
            lo[idx] -= h
            hi[idx] += h
            return (f(*hi) - 2.0 * f(*args) + f(*lo)) / h**2

        exch = float(p.alpha) * ms.u2(x, y, t) - float(p.beta) * ms.u3(x, y, t)
        f2_fd = dd(ms.u2, x, y, t, idx=2) - p.d2 * d2(ms.u2, x, y, t, idx=1) + exch
        assert ms.f2(x, y, t) == pytest.approx(f2_fd, rel=1e-5, abs=1e-6)
        f3_fd = dd(ms.u3, x, y, t, idx=2) - p.d3 * d2(ms.u3, x, y, t, idx=1) - exch
        assert ms.f3(x, y, t) == pytest.approx(f3_fd, rel=1e-5, abs=1e-6)
        f1_fd = dd(ms.u1, x, t, idx=1) - p.d1 * d2(ms.u1, x, t, idx=0)
        henry = p.bi_m * (p.henry * ms.u1(x, t) - ms.u2(x, 0.0, t))
        assert henry == pytest.approx(0.0, abs=1e-14)
        assert ms.f1(x, t) == pytest.approx(f1_fd, rel=1e-4, abs=1e-7)

    def test_boundary_fluxes_satisfied(self):
        ms = ManufacturedSolution()
        p = ms.params
        x, t = 0.35, 0.9
        eps = 1e-7
        ell = 1.0
        dy0_u2 = (ms.u2(x, eps, t) - ms.u2(x, 0.0, t)) / eps
        assert dy0_u2 == pytest.approx(0.0, abs=1e-5)
        dyl_u3 = (ms.u3(x, ell, t) - ms.u3(x, ell - eps, t)) / eps
        eta = p.k * ms.u3(x, ell, t)
        assert p.d3 * dyl_u3 == pytest.approx(-eta, rel=1e-5)


class TestSeparableSources:
    """`sources` builds each f_k once per grid as P + e^{-t} Q."""

    @staticmethod
    def pointwise(ms, g, t):
        x = g.x_nodes()
        X, Y = x[:, None], g.y_nodes()[None, :]
        shape = (x.size, Y.size)
        return {
            "f1": np.broadcast_to(ms.f1(x, t), x.shape),
            "f2": np.broadcast_to(ms.f2(X, Y, t), shape),
            "f3": np.broadcast_to(ms.f3(X, Y, t), shape),
            "f4": np.broadcast_to(ms.f4(x, t), x.shape),
        }

    @pytest.mark.parametrize("n_x,n_y", [(8, 8), (16, 4)])
    def test_matches_the_closed_forms(self, n_x, n_y):
        ms = ManufacturedSolution()
        g = GridSpec(1.0, 1.0, n_x, n_y)
        src = ms.sources(g)
        for t in (0.0, 0.137, 0.5, 3.0, 40.0):
            for name, ref in self.pointwise(ms, g, t).items():
                got = getattr(src, name)(t)
                assert got.shape == ref.shape, (name, t)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale, (name, t)

    def test_each_call_returns_a_fresh_array(self):
        g = GridSpec(1.0, 1.0, 8, 8)
        src = ManufacturedSolution().sources(g)
        for name in ("f1", "f2", "f3", "f4"):
            f = getattr(src, name)
            first, second = f(0.3), f(0.3)
            assert first is not second
            assert not np.shares_memory(first, second)
            kept = second.copy()
            first += 1.0
            np.testing.assert_array_equal(second, kept)
            np.testing.assert_array_equal(f(0.3), kept)

