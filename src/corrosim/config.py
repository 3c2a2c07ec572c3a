"""Run configuration: INI-style config files, the scenario registry, and
the config hash echoed into every output file.

A config file has the sections [run], [grid], [params], [time] and the
optional [output].  The scenario named under [run] (fig1, dissipation or
conservation) supplies defaults for everything else; a file that sets the
stepping mode without a step dt drops the scenario's default dt.  A
minimal file is

    [run]
    scenario = fig1

    [time]
    t_end = 400

Unknown sections or keys are rejected, as are missing required keys
(scenario and t_end).  Initial profiles are part of the scenario and are
not configurable from the file.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields

import numpy as np

from .grids import GridSpec
from .integrator import TimeSpec
from .model import InitialData, ModelParams


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_GRID_KEYS = ("length", "cell_length", "nx", "ny")
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_TIME_KEYS = ("t_end", "mode", "dt", "snapshots")
_RUN_KEYS = ("scenario", "seed")
_OUTPUT_KEYS = ("micro_slice_x",)
_SECTIONS = {"run": _RUN_KEYS, "grid": _GRID_KEYS, "params": _PARAM_KEYS,
             "time": _TIME_KEYS, "output": _OUTPUT_KEYS}


def _fig1_initial(grid: GridSpec, params: ModelParams) -> InitialData:
    # inlet-saturated gas profile with vanishing curvature at x = 0 (keeps
    # the time-derivative diagnostics bounded under refinement) and a cell
    # profile matching the interfacial equilibrium at y = 0
    L, ell = grid.length, grid.cell_length
    u1d, H = params.u1_d, params.henry

    def gas(x):
        return u1d * (1.0 - np.sin(0.5 * np.pi * x / L))

    return InitialData(
        u1=gas,
        u2=lambda x, y: H * gas(x) * 0.5 * (1.0 + np.cos(np.pi * y / ell)),
        u3=lambda x, y: 0.0 * x * y,
        u4=lambda x: 0.0 * x,
    )


def _smooth_initial(grid: GridSpec, params: ModelParams) -> InitialData:
    # smooth nonnegative data with nontrivial structure in both directions,
    # used by the dissipation and conservation scenarios; the cell profile
    # matches the interfacial equilibrium at y = 0, as fig1's does, so the
    # data meet the Robin closure there and the rate norms stay bounded
    # under refinement
    L, ell = grid.length, grid.cell_length

    def gas(x):
        return params.u1_d + np.sin(0.5 * np.pi * x / L)

    return InitialData(
        u1=gas,
        u2=lambda x, y: params.henry * gas(x) * 0.5 * (1.0 + np.cos(np.pi * y / ell)),
        u3=lambda x, y: 0.4 + 0.2 * np.cos(np.pi * y / ell) * np.cos(np.pi * x / L),
        u4=lambda x: 0.2 * (1.0 + x / L),
    )


# The verification scenarios, dissipation and conservation, share an 8^2
# grid, a 0-10 schedule and decoupled constants with the surface reaction
# and the volume exchange off.
_SMALL_GRID = dict(length=1.0, cell_length=1.0, nx=8, ny=8)
_DECOUPLED = dict(d1=0.05, d2=0.05, d3=0.05, bi_m=0.0, henry=1.0, u1_d=0.0,
                  k=0.0, alpha=0.0, beta=0.0, q_kind="constant", m4=1.0)
_TEN_UNITS = dict(t_end=10.0, mode="fixed",
                  snapshots=" ".join(str(v) for v in np.arange(0.0, 10.5, 0.5)))

# scenario name -> (defaults by section, initial-data factory)
SCENARIOS = {
    "fig1": (
        {
            "grid": dict(length=1.0, cell_length=1.0, nx=16, ny=16),
            "params": dict(d1=0.0012, d2=0.005, d3=0.005, bi_m=0.15,
                           henry=1.0, u1_d=1.0, k=0.1, alpha=0.3, beta=0.01,
                           q_kind="linear_cutoff", m4=0.5),
            "time": dict(t_end=400.0, mode="fixed", dt=1.0 / 3.0,
                         snapshots="0 80 160 240 320 400"),
            "output": dict(micro_slice_x=0.5),
        },
        _fig1_initial,
    ),
    "dissipation": (
        {"grid": _SMALL_GRID, "params": dict(_DECOUPLED, bi_m=0.5), "time": _TEN_UNITS},
        _smooth_initial,
    ),
    "conservation": (
        {"grid": _SMALL_GRID, "params": _DECOUPLED, "time": _TEN_UNITS},
        _smooth_initial,
    ),
}


@dataclass
class RunConfig:
    scenario: str
    seed: int
    grid: GridSpec
    params: ModelParams
    time: TimeSpec
    initial: InitialData
    micro_slice_x: float | None
    resolved: dict[str, dict[str, str]]   # canonical key/value echo

    def config_hash(self) -> str:
        lines = [f"{sec}.{key}={val}"
                 for sec, entries in sorted(self.resolved.items())
                 for key, val in sorted(entries.items())]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _parse_snapshots(text: str, t_end: float) -> tuple[float, ...]:
    try:
        times = tuple(float(v) for v in text.split())
    except ValueError as err:
        raise ConfigError(f"snapshots must be numbers: {err}") from None
    if not times:
        times = (0.0, t_end)
    return times


def _merge(defaults: dict, overrides: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    merged: dict[str, dict[str, str]] = {}
    for section in ("run", "grid", "params", "time", "output"):
        merged[section] = {k: str(v) for k, v in defaults.get(section, {}).items()}
        merged[section].update(overrides.get(section, {}))
    return merged


def _require(section: dict[str, str], key: str, where: str) -> str:
    if key not in section or section[key] == "":
        raise ConfigError(f"missing required key '{where}.{key}'")
    return section[key]


def _floatval(section: dict[str, str], key: str, where: str) -> float:
    try:
        return float(section[key])
    except (KeyError, ValueError):
        raise ConfigError(f"key '{where}.{key}' must be a number") from None


def _intval(section: dict[str, str], key: str, where: str) -> int:
    try:
        return int(section[key])
    except (KeyError, ValueError):
        raise ConfigError(f"key '{where}.{key}' must be an integer") from None


def config_from_sections(sections: dict[str, dict[str, str]],
                         seed_override: int | None = None) -> RunConfig:
    """Resolve raw section/key strings into a validated run configuration."""
    for sec, entries in sections.items():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section '[{sec}]'")
        for key in entries:
            if key not in _SECTIONS[sec]:
                raise ConfigError(f"unknown key '{sec}.{key}'")

    run_sec = sections.get("run", {})
    scenario = _require(run_sec, "scenario", "run")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}', expected one of {sorted(SCENARIOS)}")
    # the horizon must be pinned by the file itself, not by scenario defaults
    _require(sections.get("time", {}), "t_end", "time")
    defaults, make_initial = SCENARIOS[scenario]
    merged = _merge(defaults, sections)
    # a file that picks the mode without a step of its own drops the
    # scenario's step: fixed mode then runs RK4 at its reach, adaptive takes none
    file_time = sections.get("time", {})
    if "mode" in file_time and "dt" not in file_time:
        merged["time"].pop("dt", None)
    merged["run"].setdefault("seed", "0")

    seed = _intval(merged["run"], "seed", "run")
    if seed < 0:   # numpy's generators take no negative seed
        raise ConfigError(f"key 'run.seed' must be a nonnegative integer, got {seed}")
    if seed_override is not None:
        seed = seed_override
        merged["run"]["seed"] = str(seed)

    g = merged["grid"]
    grid = GridSpec(_floatval(g, "length", "grid"),
                    _floatval(g, "cell_length", "grid"),
                    _intval(g, "nx", "grid"),
                    _intval(g, "ny", "grid"))

    p = merged["params"]
    # every parameter is a number except the kernel's name
    params = ModelParams(**{
        key: p.get(key, "constant") if key == "q_kind" else _floatval(p, key, "params")
        for key in _PARAM_KEYS})

    t = merged["time"]
    t_end = _floatval(t, "t_end", "time")
    if sections.get("time", {}).get("snapshots"):
        snapshots = _parse_snapshots(sections["time"]["snapshots"], t_end)
    else:
        # scenario-default schedule, clipped to the configured horizon
        snapshots = _parse_snapshots(t.get("snapshots", ""), t_end)
        snapshots = tuple(s for s in snapshots if s <= t_end)
        if not snapshots or snapshots[-1] < t_end:
            snapshots = snapshots + (t_end,)
    # the hash reads this echo, so every time in it must parse back exactly
    merged["time"]["snapshots"] = " ".join(
        f"{s:g}" if float(f"{s:g}") == s else repr(s) for s in snapshots)
    mode = t.get("mode", "fixed")
    dt = _floatval(t, "dt", "time") if t.get("dt") else None
    time = TimeSpec(t_end=t_end, mode=mode, dt=dt, snapshot_times=snapshots)

    out = merged["output"]
    slice_x = (_floatval(out, "micro_slice_x", "output")
               if out.get("micro_slice_x") else None)
    if slice_x is not None and not (0.0 <= slice_x <= grid.length):
        raise ConfigError("output.micro_slice_x must lie inside the domain")

    return RunConfig(scenario=scenario, seed=seed, grid=grid, params=params,
                     time=time, initial=make_initial(grid, params),
                     micro_slice_x=slice_x, resolved=merged)


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Parse an INI config file and resolve it against its scenario."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from None
    sections = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    return config_from_sections(sections, seed_override=seed_override)


def scenario_config(name: str, **time_overrides) -> RunConfig:
    """Built-in scenario with optional time-section overrides (floats)."""
    sections: dict[str, dict[str, str]] = {"run": {"scenario": name}}
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{name}'")
    defaults, _ = SCENARIOS[name]
    t_end = time_overrides.get("t_end", defaults["time"]["t_end"])
    sections["time"] = {"t_end": str(t_end)}
    for key in ("mode", "dt", "snapshots"):
        if key in time_overrides:
            sections["time"][key] = str(time_overrides[key])
    return config_from_sections(sections)
