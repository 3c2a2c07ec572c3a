"""Property: over admissible parameters and grids, the diagonal bound never
exceeds the stage radius, nor the stage radius the spectral radius bound,
so RK4's reach is never shorter than 2/rho."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from corrosim.grids import GridSpec  # noqa: E402
from corrosim.integrator import (  # noqa: E402
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
