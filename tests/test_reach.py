"""Properties over admissible parameters and grids: the diagonal bound never
exceeds the stage radius, nor the stage radius the spectral radius bound,
so RK4's reach is never shorter than 2/rho; and the stage radius never
falls below the Perron root of the node block it bounds."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from corrosim.grids import GridSpec  # noqa: E402
from corrosim.integrator import (  # noqa: E402
    _PERRON_TOL,
    _node_block,
    _perron_bound,
    stability_dt,
)
from corrosim.model import ModelParams  # noqa: E402


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    d=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)),
    bi_m=st.floats(0.0, 100.0),
    henry=st.floats(1e-3, 10.0),
    k=st.floats(0.0, 10.0),
    alpha=st.floats(0.0, 5.0),
    beta=st.floats(0.0, 5.0),
    q_kind=st.sampled_from(["constant", "linear_cutoff"]),
    acid=st.floats(1e-3, 100.0),
    m4=st.floats(1e-3, 10.0),
    lengths=st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
    n=st.tuples(st.integers(2, 256), st.integers(2, 256)),
)
def test_reach_is_at_least_two_over_rho(d, bi_m, henry, k, alpha, beta,
                                        q_kind, acid, m4, lengths, n):
    params = ModelParams(d1=d[0], d2=d[1], d3=d[2], bi_m=bi_m, henry=henry,
                         u1_d=1.0, k=k, alpha=alpha, beta=beta,
                         q_kind=q_kind, m4=m4)
    grid = GridSpec(*lengths, *n)
    block = _node_block(params, grid, acid)
    rho = block[1]
    assert block[2] <= _perron_bound(*block) <= rho
    assert stability_dt(params, grid, acid) >= 2.0 / rho


def _or_zero(strategy):
    return st.just(0.0) | strategy


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    d=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)),
    bi_m=_or_zero(st.floats(0.0, 100.0)),
    henry=st.floats(1e-3, 10.0),
    k=_or_zero(st.floats(0.0, 10.0)),
    alpha=_or_zero(st.floats(0.0, 5.0)),
    beta=_or_zero(st.floats(0.0, 5.0)),
    q_kind=st.sampled_from(["constant", "linear_cutoff"]),
    acid=st.floats(1e-3, 100.0),
    m4=st.floats(1e-3, 10.0),
    lengths=st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
    n=st.tuples(st.integers(2, 64), st.integers(2, 64)),
)
def test_stage_radius_is_not_below_the_perron_root(d, bi_m, henry, k, alpha, beta,
                                                  q_kind, acid, m4, lengths, n):
    # the power iteration's Collatz-Wielandt bound holds at any positive
    # iterate, so it never undershoots the Perron root of the node block,
    # here from LAPACK, beyond LAPACK's own rounding; reducible blocks
    # (bi_m, k, alpha or beta = 0, the constant kernel), where parts of the
    # iterate die out, are drawn often
    params = ModelParams(d1=d[0], d2=d[1], d3=d[2], bi_m=bi_m, henry=henry,
                         u1_d=1.0, k=k, alpha=alpha, beta=beta,
                         q_kind=q_kind, m4=m4)
    grid = GridSpec(*lengths, *n)
    root = np.abs(np.linalg.eigvals(dense_block(params, grid, acid))).max()
    assert _perron_bound(*_node_block(params, grid, acid)) >= root * (1.0 - 1e-12)


def dense_block(params, grid, acid):
    """`_node_block`'s matrix from its diagonals."""
    bands = _node_block(params, grid, acid)[0]
    n, m = bands.shape[1], grid.n_y + 1
    return sum(np.diag(band[max(0, -j):n - max(0, j)], j)
               for j, band in zip((0, 1, -1, m, -m), bands))


def test_stage_radius_holds_at_the_product_cap():
    # fig1 with a diffusion-dominated 91-node cell: the block's top
    # eigenvalues cluster, so the iteration stops at its 4,096-product cap
    # (its bound lies farther above the root than the stop rule allows);
    # the bound still holds, and lies within README's worst case 2.1e-5
    params = ModelParams(d1=0.0012, d2=5.6, d3=0.005, bi_m=0.15, henry=1.0,
                         u1_d=1.0, k=0.1, alpha=0.3, beta=0.01,
                         q_kind="linear_cutoff", m4=0.5)
    grid = GridSpec(1.0, 1.0, 16, 90)
    root = np.abs(np.linalg.eigvals(dense_block(params, grid, 30.0))).max()
    bound = _perron_bound(*_node_block(params, grid, 30.0))
    assert root * (1.0 - 1e-12) <= bound <= root * (1.0 + 2.5e-5)
    assert bound > root * (1.0 + 2.0 * _PERRON_TOL)   # the stop rule never fired
