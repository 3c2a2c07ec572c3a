import numpy as np
import pytest

from corrosim.grids import (
    GridError,
    GridSpec,
    _trapezoid_weights,
    ip_macro,
    ip_macro_edge,
    ip_micro,
    ip_micro_edge,
    norm_macro,
    norm_macro_edge,
    norm_micro,
    norm_micro_edge,
)


def gamma(n, i):
    return 0.5 if i in (0, n) else 1.0


def ip_macro_oracle(grid, u, v):
    # direct index-by-index summation, independent of the library path
    total = 0.0
    for i in range(grid.n_x + 1):
        total += gamma(grid.n_x, i) * u[i] * v[i]
    return grid.h_x * total


def ip_micro_oracle(grid, u, v):
    total = 0.0
    for i in range(grid.n_x + 1):
        for j in range(grid.n_y + 1):
            total += gamma(grid.n_x, i) * gamma(grid.n_y, j) * u[i, j] * v[i, j]
    return grid.h_x * grid.h_y * total


def ip_micro_edge_oracle(grid, u, v):
    total = 0.0
    for i in range(grid.n_x + 1):
        for j in range(grid.n_y):
            total += gamma(grid.n_x, i) * u[i, j] * v[i, j]
    return grid.h_x * grid.h_y * total


def random_grid(rng):
    return GridSpec(
        length=float(rng.uniform(0.3, 4.0)),
        cell_length=float(rng.uniform(0.3, 4.0)),
        n_x=int(rng.integers(2, 20)),
        n_y=int(rng.integers(2, 20)),
    )


class TestMakeGrid:
    def test_step_sizes(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        assert g.h_x == 0.25
        assert g.h_y == 0.25

    def test_step_sizes_anisotropic(self):
        g = GridSpec(2.0, 0.5, 10, 5)
        assert g.h_x == pytest.approx(0.2)
        assert g.h_y == pytest.approx(0.1)

    def test_too_few_subintervals(self):
        with pytest.raises(GridError):
            GridSpec(1.0, 1.0, 1, 4)

    def test_nonpositive_length(self):
        with pytest.raises(GridError):
            GridSpec(-1.0, 1.0, 4, 4)
        with pytest.raises(GridError):
            GridSpec(1.0, 0.0, 4, 4)

    @pytest.mark.parametrize("n_x, n_y", [(4.5, 4), (4, 4.0), (4, "4")])
    def test_subinterval_counts_must_be_integers(self, n_x, n_y):
        # 4.5 would give 6 nodes at h_x = 1/4.5
        with pytest.raises(GridError, match="integers"):
            GridSpec(1.0, 1.0, n_x, n_y)

    def test_numpy_integer_counts_accepted(self):
        g = GridSpec(1.0, 1.0, np.int64(4), np.int32(8))
        assert g.x_nodes().size == 5 and g.y_nodes().size == 9

    def test_nodes(self):
        g = GridSpec(1.0, 2.0, 4, 2)
        assert np.allclose(g.x_nodes(), [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.y_nodes(), [0, 1.0, 2.0])


class TestWeights:
    def test_endpoint_halves(self):
        for n in (5, 3):
            g = _trapezoid_weights(n)
            assert g.shape == (n + 1,)
            assert g[0] == 0.5 and g[-1] == 0.5
            assert np.all(g[1:-1] == 1.0)

    def test_weights_sum_to_lengths(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_grid(rng)
            gamma1, gamma2 = _trapezoid_weights(g.n_x), _trapezoid_weights(g.n_y)
            assert np.sum(gamma1) * g.h_x == pytest.approx(g.length, rel=1e-15)
            assert np.sum(gamma2) * g.h_y == pytest.approx(g.cell_length, rel=1e-15)


class TestMacroProduct:
    def test_constant_gives_length(self):
        g = GridSpec(3.0, 1.0, 6, 2)
        ones = np.ones(g.n_x + 1)
        assert ip_macro(g, ones, ones) == pytest.approx(3.0, rel=1e-15)

    def test_zero_annihilates(self):
        g = GridSpec(3.0, 1.0, 6, 2)
        v = np.linspace(-1, 5, g.n_x + 1)
        assert ip_macro(g, np.zeros(g.n_x + 1), v) == 0.0

    def test_shape_mismatch(self):
        g = GridSpec(1.0, 1.0, 4, 4)
        with pytest.raises(GridError):
            ip_macro(g, np.ones(3), np.ones(5))


class TestMicroProduct:
    def test_constant_gives_area(self):
        g = GridSpec(2.0, 3.0, 5, 4)
        ones = np.ones((g.n_x + 1, g.n_y + 1))
        assert ip_micro(g, ones, ones) == pytest.approx(6.0, rel=1e-15)

    def test_single_interior_node(self):
        g = GridSpec(2.0, 3.0, 5, 4)
        u = np.zeros((g.n_x + 1, g.n_y + 1))
        u[2, 2] = 1.7
        assert ip_micro(g, u, u) == pytest.approx(g.h_x * g.h_y * 1.7**2, rel=1e-15)

    def test_corner_node_quarter_weight(self):
        g = GridSpec(2.0, 3.0, 5, 4)
        u = np.zeros((g.n_x + 1, g.n_y + 1))
        u[0, 0] = 1.7
        expected = ip_micro_oracle(g, u, u)
        assert expected == pytest.approx(g.h_x * g.h_y * 1.7**2 / 4.0, rel=1e-15)
        assert ip_micro(g, u, u) == pytest.approx(expected, rel=1e-15)


class TestEdgeProducts:
    def test_macro_edge_constant(self):
        g = GridSpec(5.0, 1.0, 8, 2)
        ones = np.ones(g.n_x)
        assert ip_macro_edge(g, ones, ones) == pytest.approx(5.0, rel=1e-15)

    def test_micro_edge_constant(self):
        g = GridSpec(2.0, 3.0, 5, 4)
        ones = np.ones((g.n_x + 1, g.n_y))
        got = ip_micro_edge(g, ones, ones)
        assert got == pytest.approx(ip_micro_edge_oracle(g, ones, ones), rel=1e-14)
        assert got == pytest.approx(2.0 * 3.0, rel=1e-14)

    def test_zero_field(self):
        g = GridSpec(2.0, 3.0, 5, 4)
        assert ip_micro_edge(g, np.zeros((6, 4)), np.ones((6, 4))) == 0.0


class TestProductProperties:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_grid(rng)
            ones_m = np.ones(g.n_x + 1)
            ones_f = np.ones((g.n_x + 1, g.n_y + 1))
            assert ip_macro(g, ones_m, ones_m) == pytest.approx(g.length, rel=1e-14)
            assert ip_micro(g, ones_f, ones_f) == pytest.approx(
                g.length * g.cell_length, rel=1e-14)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_grid(rng)
            u = rng.normal(size=g.n_x + 1)
            v = rng.normal(size=g.n_x + 1)
            w = rng.normal(size=g.n_x + 1)
            a, b = rng.normal(size=2)
            assert ip_macro(g, u, v) == pytest.approx(ip_macro(g, v, u), rel=1e-13)
            assert ip_macro(g, a * u + b * w, v) == pytest.approx(
                a * ip_macro(g, u, v) + b * ip_macro(g, w, v), rel=1e-12, abs=1e-13)
            uf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            vf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            assert ip_micro(g, uf, vf) == pytest.approx(ip_micro(g, vf, uf), rel=1e-13)

    def test_products_match_naive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_grid(rng)
            u = rng.normal(size=g.n_x + 1)
            v = rng.normal(size=g.n_x + 1)
            assert ip_macro(g, u, v) == pytest.approx(
                ip_macro_oracle(g, u, v), rel=1e-13, abs=1e-14)
            uf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            vf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            assert ip_micro(g, uf, vf) == pytest.approx(
                ip_micro_oracle(g, uf, vf), rel=1e-13, abs=1e-14)
            ue = rng.normal(size=(g.n_x + 1, g.n_y))
            ve = rng.normal(size=(g.n_x + 1, g.n_y))
            assert ip_micro_edge(g, ue, ve) == pytest.approx(
                ip_micro_edge_oracle(g, ue, ve), rel=1e-13, abs=1e-14)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = random_grid(rng)
            u = rng.normal(size=g.n_x + 1)
            v = rng.normal(size=g.n_x + 1)
            lhs = abs(ip_macro(g, u, v))
            rhs = norm_macro(g, u) * norm_macro(g, v)
            assert lhs <= rhs * (1 + 1e-12)
            uf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            vf = rng.normal(size=(g.n_x + 1, g.n_y + 1))
            assert abs(ip_micro(g, uf, vf)) <= norm_micro(g, uf) * norm_micro(g, vf) * (1 + 1e-12)


class TestStacks:
    """A leading batch axis: one value per field, exactly the per-field one."""

    FUNCTIONS = [  # (product, norm, field shape for the grid)
        (ip_macro, norm_macro, lambda g: (g.n_x + 1,)),
        (ip_micro, norm_micro, lambda g: (g.n_x + 1, g.n_y + 1)),
        (ip_macro_edge, norm_macro_edge, lambda g: (g.n_x,)),
        (ip_micro_edge, norm_micro_edge, lambda g: (g.n_x + 1, g.n_y)),
    ]

    @pytest.mark.parametrize("ip, norm, shape", FUNCTIONS)
    def test_stack_gives_the_per_field_values(self, ip, norm, shape):
        rng = np.random.default_rng(23)
        for g in (GridSpec(1.0, 1.0, 16, 16), GridSpec(1.7, 0.6, 9, 5)):
            u = rng.normal(size=(7, *shape(g)))
            v = rng.normal(size=(7, *shape(g)))
            products, norms = ip(g, u, v), norm(g, u)
            assert products.shape == norms.shape == (7,)
            single = [ip(g, a, b) for a, b in zip(u, v)]
            assert all(type(x) is float for x in single)
            assert np.array_equal(products, single)
            assert np.array_equal(norms, [norm(g, a) for a in u])

    @pytest.mark.parametrize("ip, norm, shape", FUNCTIONS)
    def test_wrong_trailing_shape_rejected(self, ip, norm, shape):
        g = GridSpec(1.0, 1.0, 4, 6)
        bad = np.ones((3, *shape(g)[:-1], shape(g)[-1] + 1))
        with pytest.raises(GridError):
            ip(g, bad, bad)
        with pytest.raises(GridError):
            norm(g, bad)
