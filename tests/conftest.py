import pytest

import corrosim.integrator
import corrosim.model
import corrosim.verify


@pytest.fixture
def no_diffusion(monkeypatch):
    """Drop diffusion, the gas row's and the micro block's, and with it the
    boundary closures from `rhs`, isolating the reaction and exchange
    pathways."""
    monkeypatch.setattr(corrosim.model, "_add_diffusion", lambda *args: None)


@pytest.fixture
def skew_bottom_flux(monkeypatch):
    """Call with an offset to make the `_add_diffusion` that `verify` calls
    fold flux + offset into its ghost at y = 0: a Robin closure built
    inconsistently with the boundary flux data (mutation check)."""
    def skew(offset):
        original = corrosim.verify._add_diffusion

        def broken(state, params, grid, flux, surface, out):
            original(state, params, grid, flux + offset, surface, out)
        monkeypatch.setattr(corrosim.verify, "_add_diffusion", broken)
    return skew


@pytest.fixture
def stage_counts(monkeypatch):
    """The stage counts `integrate` asks `_rkc_stages` for, in order: one per
    RKC attempt, fixed or adaptive."""
    counts = []
    stages = corrosim.integrator._rkc_stages

    def recorded(dt, rho):
        counts.append(stages(dt, rho))
        return counts[-1]
    monkeypatch.setattr(corrosim.integrator, "_rkc_stages", recorded)
    return counts
