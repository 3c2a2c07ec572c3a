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
    _node_block,
    diagonal_bound,
    spectral_radius_bound,
    stability_dt,
    stage_radius,
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
    rho = spectral_radius_bound(params, grid, acid)
    assert diagonal_bound(params, grid, acid) <= stage_radius(params, grid, acid) <= rho
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
    assert stage_radius(params, grid, acid) >= root * (1.0 - 1e-12)


def dense_block(params, grid, acid):
    """`_node_block`'s matrix from its diagonals."""
    bands = _node_block(params, grid, acid)[0]
    n, m = bands.shape[1], grid.n_y + 1
    return sum(np.diag(band[max(0, -j):n - max(0, j)], j)
               for j, band in zip((0, 1, -1, m, -m), bands))
