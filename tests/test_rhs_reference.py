"""The in-place `rhs` against the reference composition of the pieces in
reference.py: `ghost_values` closing `laplace_macro`/`laplace_micro`, plus
`zeta` and the package's `henry_flux` and `eta`."""

import numpy as np
import pytest

from corrosim.grids import GridSpec
from corrosim.model import (
    ModelParams,
    SourceTerms,
    State,
    Tendency,
    eta,
    henry_flux,
    rhs,
)
from reference import ghost_values, laplace_macro, laplace_micro, zeta

GRIDS = ((8, 8), (16, 4), (33, 17))
RTOL = 1e-13


def reference_rhs(state, params, grid, sources=None, include_diffusion=True):
    alpha = params.alpha_row(grid)
    beta = params.beta_row(grid)
    du1 = np.zeros_like(state.u1)
    du1[1:] = -henry_flux(state, params)[1:]
    exchange = zeta(state.u2, state.u3, alpha, beta)
    du2 = -exchange
    du3 = exchange.copy()
    if include_diffusion:
        gh = ghost_values(state, params, grid)
        du1[1:] += params.d1 * laplace_macro(grid, state.u1, gh.u1_right)
        du2 += params.d2 * laplace_micro(grid, state.u2, gh.u2_bottom, gh.u2_top)
        du3 += params.d3 * laplace_micro(grid, state.u3, gh.u3_bottom, gh.u3_top)
    du4 = eta(state.u3[:, -1], state.u4, params)
    if sources is not None:
        du1[1:] += sources.f1(state.t)[1:]
        du2 += sources.f2(state.t)
        du3 += sources.f3(state.t)
        du4 += sources.f4(state.t)
    return Tendency(du1, du2, du3, du4)


def random_state(grid, rng):
    nm, nc = grid.n_x + 1, grid.n_y + 1
    u1 = rng.uniform(size=nm)
    u1[0] = 0.0
    return State(0.7, u1, rng.uniform(size=(nm, nc)),
                 rng.uniform(0.0, 2.0, size=(nm, nc)), rng.uniform(size=nm))


def make_params(grid, rng, sampled):
    nc = grid.n_y + 1
    return ModelParams(
        d1=0.3, d2=0.7, d3=1.3, bi_m=0.4, henry=1.5, u1_d=0.8, k=0.6,
        alpha=rng.uniform(0.1, 0.5, size=nc) if sampled else 0.3,
        beta=rng.uniform(0.0, 0.2, size=nc) if sampled else 0.05,
        q_kind="linear_cutoff", m4=1.0)


def make_sources(grid, rng):
    nm, nc = grid.n_x + 1, grid.n_y + 1
    shapes = {"f1": (nm,), "f2": (nm, nc), "f3": (nm, nc), "f4": (nm,)}
    base = {f: rng.normal(size=s) for f, s in shapes.items()}
    return SourceTerms(**{f: (lambda t, b=b: np.cos(t) * b)
                          for f, b in base.items()})


def assert_close(got, want):
    for f in ("u1", "u2", "u3", "u4"):
        g, w = getattr(got, f), getattr(want, f)
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= RTOL * max(1.0, np.max(np.abs(w))), f


@pytest.mark.parametrize("n_x,n_y", GRIDS)
@pytest.mark.parametrize("sampled", [False, True], ids=["scalar", "samples"])
@pytest.mark.parametrize("include_diffusion", [True, False],
                         ids=["diffusion", "reactions"])
@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_matches_reference(n_x, n_y, sampled, include_diffusion, forced, request):
    if not include_diffusion:
        request.getfixturevalue("no_diffusion")
    g = GridSpec(1.0, 0.5, n_x, n_y)
    rng = np.random.default_rng(n_x * 100 + n_y)
    p = make_params(g, rng, sampled)
    src = make_sources(g, rng) if forced else None
    for _ in range(3):
        st = random_state(g, rng)
        assert_close(rhs(st, p, g, sources=src),
                     reference_rhs(st, p, g, sources=src,
                                   include_diffusion=include_diffusion))


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_out_filled_in_place(n_x, n_y):
    g = GridSpec(1.0, 0.5, n_x, n_y)
    rng = np.random.default_rng(7)
    p = make_params(g, rng, sampled=False)
    st = random_state(g, rng)
    # garbage in the buffer must not leak into the result
    out = Tendency(np.full(n_x + 1, np.nan), np.full((n_x + 1, n_y + 1), np.nan),
                   np.full((n_x + 1, n_y + 1), np.nan), np.full(n_x + 1, np.nan))
    arrays = (out.y, out.u1, out.u2, out.u3, out.u4)
    got = rhs(st, p, g, out=out)
    assert got is out and got.y is arrays[0]
    assert all(a is b for a, b in zip(arrays[1:], (got.u1, got.u2, got.u3, got.u4)))
    assert_close(got, reference_rhs(st, p, g))
