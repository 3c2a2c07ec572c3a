import pytest

import corrosim.model
import corrosim.operators


@pytest.fixture
def no_diffusion(monkeypatch):
    """Drop diffusion, the gas row's and the micro block's, and with it the
    boundary closures from `rhs`, isolating the reaction and exchange
    pathways."""
    monkeypatch.setattr(corrosim.model, "_add_diffusion", lambda *args: None)


@pytest.fixture
def lower_bottom_ghost(monkeypatch):
    """Call with an offset to make `div_micro` lower its bottom ghost edge
    by it: a ghost closure built inconsistently with the boundary flux data
    (mutation check)."""
    def lower(offset):
        original = corrosim.operators.div_micro

        def broken(grid, v, bottom_ghost, top_ghost):
            return original(grid, v, bottom_ghost - offset, top_ghost)
        monkeypatch.setattr(corrosim.operators, "div_micro", broken)
    return lower
