"""Command-line entry point.

Subcommands:

* run     integrate a configured scenario and emit profile/energy CSVs
* mms     manufactured-solution convergence study
* verify  seeded property suites, exit 1 on any failure
* sweep   grid-refinement boundedness sweep

Exit codes: 0 ok, 1 verification failure, 2 configuration error or an
output directory that cannot be written, 3 diverged trajectory.  All CSV
outputs start with a comment line echoing the config hash, use '.'
decimals and 17 significant digits, and are byte-identical across reruns
with the same config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .diagnostics import (MONITORED, RATIO_THRESHOLD, EnergyRecord, energy_record,
                          refinement_sweep)
from .grids import GridSpec
from .integrator import DivergedError, integrate
from .interpolation import MMS_BASE, ManufacturedSolution, mms_convergence
from .model import AssumptionError, project_initial
from .verify import run_all


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows, config_hash: str) -> None:
    lines = [f"# config {config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_macro_rows(path: str, states, x: np.ndarray, chash: str) -> None:
    rows = []
    for s in states:
        rows.extend((s.t, x[i], s.u1[i], s.u4[i]) for i in range(x.size))
    _write_csv(path, ["t", "x", "u1", "u4"], rows, chash)


def _write_diverged(out: str, err: DivergedError, cfg: RunConfig, chash: str) -> None:
    """Write the last accepted state of a diverged integration, on the grid
    it was computed on (a refined one inside a sweep)."""
    last = err.last_state
    nm, nc = last.shape
    grid = GridSpec(cfg.grid.length, cfg.grid.cell_length, nm - 1, nc - 1)
    x, y = grid.x_nodes(), grid.y_nodes()
    _write_macro_rows(os.path.join(out, "diverged_state.csv"), [last], x, chash)
    _write_csv(os.path.join(out, "diverged_micro.csv"),
               ["t", "x", "y", "u2", "u3"],
               ((last.t, x[i], y[j], last.u2[i, j], last.u3[i, j])
                for i in range(nm) for j in range(nc)), chash)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    chash = cfg.config_hash()
    state0 = project_initial(cfg.initial, cfg.params, cfg.grid)
    try:
        traj = integrate(state0, cfg.params, cfg.grid, cfg.time)
    except DivergedError as err:
        _write_diverged(args.out, err, cfg, chash)
        raise

    x = cfg.grid.x_nodes()
    _write_macro_rows(os.path.join(args.out, "macro_profiles.csv"),
                      traj.snapshots, x, chash)

    if cfg.micro_slice_x is not None:
        i_star = int(np.argmin(np.abs(x - cfg.micro_slice_x)))
        y = cfg.grid.y_nodes()
        rows = []
        for s in traj.snapshots:
            rows.extend((s.t, y[j], s.u2[i_star, j], s.u3[i_star, j])
                        for j in range(y.size))
        _write_csv(os.path.join(args.out, f"micro_slice_{cfg.micro_slice_x:g}.csv"),
                   ["t", "y", "u2", "u3"], rows, chash)

    _write_csv(os.path.join(args.out, "energy.csv"),
               [f.name for f in fields(EnergyRecord)],
               (astuple(energy_record(cfg.grid, s)) for s in traj.snapshots),
               chash)

    lines = [f"config {chash}", f"scenario {cfg.scenario}", ""]
    for section, entries in sorted(cfg.resolved.items()):
        for key, val in sorted(entries.items()):
            lines.append(f"{section}.{key} = {val}")
    stats = traj.stats
    lines += ["",
              f"steps_accepted {stats.accepted}",
              f"steps_rejected {stats.rejected}",
              f"rhs_evaluations {stats.rhs_evals}",
              f"method {stats.method}",
              f"stages_per_step {stats.stages}",
              *(f"{key} {_fmt(getattr(stats, key))}" for key in ("rho", "delta", "stage_radius")),
              f"last_dt {_fmt(stats.last_dt)}",
              f"snapshots {len(traj.snapshots)}"]
    with open(os.path.join(args.out, "summary.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"run complete: {stats.accepted} steps, "
          f"{len(traj.snapshots)} snapshots")
    return 0


def cmd_mms(args) -> int:
    if args.levels < 2:
        raise ConfigError("mms needs --levels >= 2 to measure orders")
    os.makedirs(args.out, exist_ok=True)
    errors, orders = mms_convergence(ManufacturedSolution(), args.levels)
    orders = np.vstack([np.full(4, np.nan), orders])   # level 0 has no order
    header = ["level", "N_x", "N_y",
              "e_u1", "e_u2", "e_u3", "e_u4",
              "p_u1", "p_u2", "p_u3", "p_u4"]
    rows = []
    for lvl in range(args.levels):
        g = MMS_BASE.refine(2**lvl)
        rows.append((lvl, g.n_x, g.n_y, *errors[lvl], *orders[lvl]))
    _write_csv(os.path.join(args.out, "mms.csv"), header, rows, "builtin-mms")
    for row in rows:
        print("level", row[0], "N", row[1],
              "errors", " ".join(_fmt(v) for v in row[3:7]))
    return 0


def cmd_verify(args) -> int:
    cfg = (load_config(args.config, seed_override=args.seed)
           if args.config is not None else None)
    seed = cfg.seed if cfg else (args.seed or 0)
    os.makedirs(args.out, exist_ok=True)
    results = run_all(seed, fig1_cfg=cfg)
    rows = [(r.name, r.max_residual, r.threshold, int(r.passed))
            for r in results]
    _write_csv(os.path.join(args.out, "verify_report.csv"),
               ["suite", "max_residual", "threshold", "passed"],
               rows, cfg.config_hash() if cfg else f"seed-{seed}")
    failures = []
    for r in results:
        print(r.line())
        if not r.passed:
            failures.append(r.name)
    if failures:
        print("FAILED:", " ".join(failures))
        return 1
    print("all suites passed")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    chash = cfg.config_hash()
    try:
        result = refinement_sweep(cfg.grid, cfg.params, cfg.initial, cfg.time)
    except DivergedError as err:
        _write_diverged(args.out, err, cfg, chash)
        raise
    rows = [(lvl.level, lvl.n_x, lvl.n_y,
             *(lvl.quantities[name] for name in MONITORED))
            for lvl in result.levels]
    _write_csv(os.path.join(args.out, "sweep.csv"),
               ["level", "N_x", "N_y", *MONITORED], rows, chash)
    ratio_rows = [(name, result.ratios[name], RATIO_THRESHOLD,
                   int(result.ratios[name] <= RATIO_THRESHOLD))
                  for name in MONITORED]
    _write_csv(os.path.join(args.out, "sweep_ratios.csv"),
               ["quantity", "max_growth_ratio", "threshold", "passed"],
               ratio_rows, chash)
    for name, ratio, thr, ok in ratio_rows:
        print(f"{name:22s} ratio={_fmt(ratio)} threshold={thr} "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if result.passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrosim",
        description="Two-scale finite-difference sulfate corrosion simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required):
        p.add_argument("--config", required=config_required,
                       help="path to an INI run configuration")
        p.add_argument("--out", default="out", help="output directory")

    add_common(sub.add_parser("run", help="integrate a scenario"), True)
    mms = sub.add_parser("mms", help="convergence-order study")
    mms.add_argument("--out", default="out", help="output directory")
    mms.add_argument("--levels", type=int, default=3,
                     help="number of refinement levels")
    verify = sub.add_parser("verify", help="property suites")
    add_common(verify, False)
    # verify is the one command with random input
    verify.add_argument("--seed", type=int, default=None,
                        help="seed overriding the config value")
    add_common(sub.add_parser("sweep", help="boundedness refinement sweep"), True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "mms": cmd_mms,
                "verify": cmd_verify, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (ConfigError, AssumptionError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    except DivergedError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
