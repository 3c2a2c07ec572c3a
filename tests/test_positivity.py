"""Property: over a box of fig1 configurations, a run either stays finite and
inside the invariant box at every snapshot, with its gypsum growing, or
stops with DivergedError whose last state is inside the box.  It never
returns finite garbage."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from corrosim.config import config_from_sections  # noqa: E402
from corrosim.integrator import (  # noqa: E402
    POSITIVITY_SLACK,
    DivergedError,
    _box_faces,
    integrate,
)
from corrosim.model import project_initial  # noqa: E402


# Bounded so that dt times the spectral radius bound, and with it the rkc
# stage count of a fixed step beyond RK4's reach, stays small: at most about
# 140 stages at 16^2 with bi_m = 50, unless a tiny beta lifts the acid face,
# where the stage and step caps stop the run.  A fixed run without a dt is
# RK4 at its reach.
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    n=st.sampled_from([4, 8, 16]),
    bi_m=st.floats(0.0, 50.0),
    k=st.floats(0.0, 2.0),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    mode=st.sampled_from(["fixed", "adaptive"]),
    dt=st.one_of(st.none(), st.floats(0.05, 4.0)),
    t_end=st.floats(0.2, 4.0),
)
# one fixed step of 8 RKC stages lifts u2 to 1.028 > G = 1 at the inlet
# node; the derandomized draws miss it
@hypothesis.example(n=4, bi_m=2.0, k=0.0, alpha=1.0, beta=1.0, mode="fixed",
                    dt=1.0, t_end=1.0)
# a tiny beta puts the acid face alpha G/beta out of reach: at 1e-190 the
# stage radius is 6e188 and one step would take 1e95 RKC stages; at 1e-309
# the face is inf, and with k = 0 the gypsum coupling k A/m4 is NaN
@hypothesis.example(n=16, bi_m=0.15, k=0.1, alpha=0.3, beta=1e-190, mode="fixed",
                    dt=1.0, t_end=1.0)
@hypothesis.example(n=16, bi_m=0.15, k=0.1, alpha=0.3, beta=1e-309, mode="fixed",
                    dt=1.0, t_end=1.0)
@hypothesis.example(n=4, bi_m=0.0, k=0.0, alpha=1.0, beta=2.2e-309, mode="adaptive",
                    dt=None, t_end=1.0)
# beta = 1e-7 puts the gypsum coupling k A/m4 at 1.2e7: RK4's reach would
# take 1.2e7 steps
@hypothesis.example(n=16, bi_m=0.12, k=0.81, alpha=0.76, beta=1e-7, mode="fixed",
                    dt=None, t_end=1.9)
def test_run_is_nonnegative_or_raises(n, bi_m, k, alpha, beta, mode, dt, t_end):
    time = {"t_end": repr(t_end), "mode": mode}
    if mode == "fixed" and dt is not None:
        time["dt"] = repr(dt)
    cfg = config_from_sections({
        "run": {"scenario": "fig1"},
        "grid": {"nx": str(n), "ny": str(n)},
        "params": {"bi_m": repr(bi_m), "k": repr(k),
                   "alpha": repr(alpha), "beta": repr(beta)},
        "time": time})
    p = cfg.params
    state0 = project_initial(cfg.initial, p, cfg.grid)
    # the upper faces: u1 <= G/H, u2 <= G, the acid face and, under fig1's
    # linear cutoff, the gypsum's max(m4, max u4(0))
    G = max(p.henry * p.u1_d, p.henry * state0.u1.max(), state0.u2.max())
    acid = _box_faces(p, state0, t_end)[2]
    gypsum = max(p.m4, state0.u4.max())
    try:
        states = integrate(state0, p, cfg.grid, cfg.time).snapshots
    except DivergedError as err:
        states = [err.last_state]
    for s in states:
        assert all(np.isfinite(u).all() for u in (s.u1, s.u2, s.u3, s.u4))
        assert s.y.min() >= -POSITIVITY_SLACK
        assert s.u1.max() <= G / p.henry + POSITIVITY_SLACK
        assert s.u2.max() <= G + POSITIVITY_SLACK
        assert s.u3.max() <= acid + POSITIVITY_SLACK
        assert s.u4.max() <= gypsum + POSITIVITY_SLACK
    for before, after in zip(states, states[1:]):
        assert (after.u4 >= before.u4 - 1e-9).all()
