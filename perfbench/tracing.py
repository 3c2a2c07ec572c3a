"""Spans and counts at corrosim's layer boundaries, recorded from outside.

`Tracer.install` wraps the public functions listed below in every loaded
corrosim module that binds them, so calls through `from .x import f` names
are caught too.  Each timed call appends one span (name, start, end,
parent) to in-memory arrays; `grids.check_*` calls are only counted,
because there are millions of them.  `layer_metrics` turns the spans into
the per-layer metrics after the run, and `save` writes the raw spans.

A name that a later version of corrosim no longer defines is skipped and
listed in `Tracer.missing`; its metrics then read zero.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
from array import array

# group -> (module, function names); the group is the layer metric prefix
TIMED = {
    "integrator.integrate": ("corrosim.integrator", ("integrate",)),
    "model.rhs": ("corrosim.model", ("rhs",)),
    "model.ghost_values": ("corrosim.model", ("ghost_values",)),
    "model.eta": ("corrosim.model", ("eta",)),
    "model.zeta": ("corrosim.model", ("zeta",)),
    "model.project_initial": ("corrosim.model", ("project_initial",)),
    "operators.laplace_micro": ("corrosim.operators", ("laplace_micro",)),
    "operators.laplace_macro": ("corrosim.operators", ("laplace_macro",)),
    "operators.identity": ("corrosim.operators", (
        "green_macro_residual", "green_micro_residual", "trace_inequality_check")),
    "grids.product": ("corrosim.grids", (
        "ip_macro", "ip_micro", "ip_macro_edge", "ip_micro_edge",
        "norm_macro", "norm_micro", "norm_macro_edge", "norm_micro_edge")),
    "diagnostics.record": ("corrosim.diagnostics", (
        "energy_record", "derivative_record", "mixed_quotient_record")),
    "interpolation.extension": ("corrosim.interpolation", (
        "extension_products", "extension_product_residuals")),
    "verify.identity_suites": ("corrosim.verify", (
        "suite_green_macro", "suite_green_micro", "suite_trace", "suite_extensions")),
    "verify.trajectory_suites": ("corrosim.verify", (
        "suite_dissipation", "suite_conservation",
        "suite_positivity_and_monotone", "suite_boundedness")),
    "config.load": ("corrosim.config", (
        "load_config", "scenario_config", "config_from_sections")),
    "cli.write": ("corrosim.cli", ("_write_csv",)),
}
COUNTED = {
    "grids.check": ("corrosim.grids", (
        "check_macro", "check_micro", "check_macro_edge", "check_micro_edge")),
}
# manufactured-solution classes whose exact_state is timed and whose
# source callbacks are timed as "model.sources" (they run inside rhs)
SOLUTION_CLASSES = ("ManufacturedSolution", "ConstantSolution")


def rebind(original, replacement) -> None:
    """Replace `original` by `replacement` in every loaded corrosim module."""
    for name, module in list(sys.modules.items()):
        if name != "corrosim" and not name.startswith("corrosim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []        # span name table
        self.groups: list[str] = []       # group of each name
        self._name_ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        self._depth: list[int] = []       # open spans per group
        self.name = array("i")
        self.parent = array("i")
        self.top = array("b")             # 1 when no span of the group is open
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict[str, itertools.count] = {}
        self.integrations: list[tuple[int, int, int, float]] = []
        self.missing: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def timed(self, fn, name: str, group: str, on_return=None):
        if group not in self._group_ids:
            self._group_ids[group] = len(self._depth)
            self._depth.append(0)
        gid = self._group_ids[group]
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        nid = self._name_ids[name]
        names, parents, tops = self.name, self.parent, self.top
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tops.append(depth[gid] == 0)
            ends.append(0)
            depth[gid] += 1
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                depth[gid] -= 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, group: str):
        counter = self.counters.setdefault(group, itertools.count())
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def _record_integration(self, args, kwargs, traj) -> None:
        state0 = kwargs.get("state0", args[0] if args else None)
        timespec = kwargs.get("timespec", args[3] if len(args) > 3 else None)
        stats = getattr(traj, "stats", None)
        if stats is None:
            return
        try:
            sim_time = float(timespec.t_end) - float(state0.t)
        except AttributeError:
            sim_time = 0.0
        self.integrations.append((stats.accepted, stats.rejected,
                                  stats.rhs_evals, sim_time))

    def install(self) -> None:
        """Wrap every boundary of the loaded corrosim package."""
        import importlib

        def functions(table):
            for group, (module_name, names) in table.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                for fname in names:
                    fn = getattr(module, fname, None)
                    if fn is None:
                        self.missing.append(f"{module_name}.{fname}")
                    else:
                        yield group, f"{module_name.split('.', 1)[1]}.{fname}", fn

        for group, name, fn in functions(TIMED):
            hook = self._record_integration if group == "integrator.integrate" else None
            rebind(fn, self.timed(fn, name, group, on_return=hook))
        for group, _, fn in functions(COUNTED):
            rebind(fn, self.counted(fn, group))

        interpolation = sys.modules.get("corrosim.interpolation")
        for cls_name in SOLUTION_CLASSES:
            cls = getattr(interpolation, cls_name, None)
            if cls is None:
                self.missing.append(f"corrosim.interpolation.{cls_name}")
                continue
            cls.exact_state = self.timed(cls.exact_state,
                                         f"interpolation.{cls_name}.exact_state",
                                         "interpolation.exact_state")
            cls.sources = self._traced_sources(cls.sources)

    def _traced_sources(self, make_sources):
        @functools.wraps(make_sources)
        def sources(solution, grid):
            terms = make_sources(solution, grid)
            return dataclasses.replace(terms, **{
                f: self.timed(getattr(terms, f), f"model.sources.{f}", "model.sources")
                for f in ("f1", "f2", "f3", "f4")})
        return sources

    # -- results ----------------------------------------------------------

    def spans(self):
        """Span arrays as numpy arrays: name, parent, top, start, end (ns)."""
        import numpy as np
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.top, dtype=np.int8).astype(bool),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path: str) -> None:
        import numpy as np
        name, parent, _, start, end = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this process, named as in BENCHMARK.json."""
        import numpy as np
        name, parent, top, start, end = self.spans()
        dur_us = (end - start) / 1e3
        has_parent = parent >= 0
        children_us = np.bincount(parent[has_parent], weights=dur_us[has_parent],
                                  minlength=dur_us.size)
        self_us = dur_us - children_us
        span_group = np.array(self.groups + [""])[name]

        def mask(group):
            return span_group == group

        def median(values):
            return float(np.median(values)) if values.size else 0.0

        def top_total_s(group):
            return float(dur_us[mask(group) & top].sum()) / 1e6

        rhs = mask("model.rhs")
        src = mask("model.sources") & has_parent
        src_per_parent = np.bincount(parent[src], weights=dur_us[src],
                                     minlength=dur_us.size)
        rhs_with_src = src_per_parent[rhs]
        rhs_with_src = rhs_with_src[rhs_with_src > 0]

        steps = sum(i[0] for i in self.integrations)
        rejected = sum(i[1] for i in self.integrations)
        evals = sum(i[2] for i in self.integrations)
        sim_time = sum(i[3] for i in self.integrations)
        integrate_self_s = float(self_us[mask("integrator.integrate")].sum()) / 1e6
        rhs_us = dur_us[rhs]
        return {
            "integrator.steps": steps,
            "integrator.rhs_evals": evals,
            "integrator.rhs_evals_per_sim_time": evals / sim_time if sim_time > 0 else 0.0,
            "integrator.rejected": rejected,
            "integrator.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
            "integrator.self_s": integrate_self_s,
            "integrator.self_us_per_eval": integrate_self_s * 1e6 / evals if evals else 0.0,
            "model.rhs_us": median(rhs_us),
            "model.rhs_us_p99": float(np.percentile(rhs_us, 99)) if rhs_us.size else 0.0,
            "model.rhs_calls": int(rhs.sum()),
            "model.rhs_self_us": median(self_us[rhs]),
            "model.ghost_values_us": median(dur_us[mask("model.ghost_values")]),
            "model.eta_us": median(dur_us[mask("model.eta")]),
            "model.zeta_us": median(dur_us[mask("model.zeta")]),
            "model.sources_us": median(rhs_with_src),
            "model.project_initial_s": top_total_s("model.project_initial"),
            "operators.laplace_micro_us": median(dur_us[mask("operators.laplace_micro")]),
            "operators.laplace_macro_us": median(dur_us[mask("operators.laplace_macro")]),
            "operators.identity_s": top_total_s("operators.identity"),
            "interpolation.exact_state_s": top_total_s("interpolation.exact_state"),
            "interpolation.extension_s": top_total_s("interpolation.extension"),
            "grids.product_calls": int((mask("grids.product") & top).sum()),
            "grids.product_s": top_total_s("grids.product"),
            # next() returns the number of ticks so far
            "grids.check_calls": next(self.counters["grids.check"])
            if "grids.check" in self.counters else 0,
            "verify.identity_suites_s": top_total_s("verify.identity_suites"),
            "verify.trajectory_suites_s": top_total_s("verify.trajectory_suites"),
            "diagnostics.record_calls": int((mask("diagnostics.record") & top).sum()),
            "diagnostics.records_s": top_total_s("diagnostics.record"),
            "cli.write_s": top_total_s("cli.write"),
            "config.load_s": top_total_s("config.load"),
        }
