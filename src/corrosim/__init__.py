"""Two-scale finite-difference simulator for sulfate attack on concrete.

A one-dimensional gas diffusion problem on the wall cross-section is
coupled, at every grid node, to a reactive cell problem for the dissolved
species, plus a surface equation for the gypsum layer.  The package
provides the coupled grids with their weighted products (`grids`), the
discrete gradients and the trace bound (`operators`), the reaction model and semi-discrete right-hand side
(`model`), explicit time stepping (`integrator`), boundedness diagnostics
(`diagnostics`), grid-function extensions and the manufactured-solution
harness (`interpolation`), and a config-driven CLI (`cli`).
"""

from .grids import GridSpec
from .integrator import DivergedError, TimeSpec, Trajectory, integrate, stability_dt
from .model import (
    AssumptionError,
    InitialData,
    ModelParams,
    SourceTerms,
    State,
    eta,
    project_initial,
    rhs,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "DivergedError",
    "GridSpec",
    "InitialData",
    "ModelParams",
    "SourceTerms",
    "State",
    "TimeSpec",
    "Trajectory",
    "eta",
    "integrate",
    "project_initial",
    "rhs",
    "stability_dt",
]
