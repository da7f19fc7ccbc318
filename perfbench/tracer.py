"""Spans around calls into contractlab's layers, recorded from outside the package.

The tracer replaces the layer functions that ``contractlab.experiments``
imported (and the config parser that ``contractlab.cli`` imported, and the
per-seed reduction ``contractlab.harness`` calls from ``run_ensemble``) with
wrappers that record one span per call: id, name, start, end, parent, thread
and run id.  Spans stay in memory and are written once, after the run.

A span's self time is the time during which it was a leaf of the tree of
active spans.  When several threads each have an active leaf (the ensemble
thread pool), the interval is shared evenly between those leaves, so the self
times of one run always add up to the time covered by its root spans.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT_SPAN = "cli.main"

# Steps of work a call performed, read from its arguments or its result.
STEP_COUNTS: Dict[str, Callable] = {
    "approximation.rm_solve": lambda args, result: result.horizon,
    "approximation.rm_solve_nd": lambda args, result: result.horizon,
    "least_squares.simulate_ls_run": lambda args, result: len(result.xs),
    "least_squares.check_design_conditions": lambda args, result: len(args[0]),
    "conditions.check_nonexpansive": lambda args, result: args[0].horizon,
    "conditions.check_contractive": lambda args, result: args[0].horizon,
    "conditions.check_zero_state_decay": lambda args, result: args[0].horizon,
}

# Per-layer metric -> the span names whose self times it sums.
SELF_TIME_METRICS: Dict[str, tuple] = {
    "approximation.rm_solve_s": ("approximation.rm_solve",),
    "approximation.rm_solve_nd_s": ("approximation.rm_solve_nd",),
    "approximation.grid_checks_s": (
        "approximation.signed_log_grid",
        "approximation.sphere_grid",
        "approximation.check_linear_envelope",
        "approximation.check_norm_envelope",
        "approximation.check_regularity",
    ),
    "approximation.path_checks_s": (
        "approximation.check_ratio_sandwich",
        "approximation.derive_truncated",
        "approximation.truncated_nonexpansive_verdict",
        "approximation.check_truncated_zero_mean_bound",
    ),
    "harness.run_ensemble_self_s": ("harness.run_ensemble", "harness.reduce_one"),
    "harness.factory_s": ("harness.factory",),
    "least_squares.simulate_ls_run_s": ("least_squares.simulate_ls_run",),
    "least_squares.check_design_conditions_s": ("least_squares.check_design_conditions",),
    "least_squares.partition_analysis_s": ("least_squares.partition_analysis",),
    "reporting.write_traces_csv_s": ("reporting.write_traces_csv",),
    "reporting.read_trace_csv_s": ("reporting.read_trace_csv",),
    "reporting.write_summary_s": (
        "reporting.write_summary_json",
        "reporting.write_summary_text",
        "reporting.write_quantiles_csv",
    ),
    "conditions.checkers_s": (
        "conditions.check_nonexpansive",
        "conditions.check_contractive",
        "conditions.check_zero_state_decay",
    ),
    "process.path_checks_s": ("process.check_segment_peak_bound", "process.crossing_report"),
    "process.kronecker_path_s": ("process.kronecker_path",),
    "experiments.other_s": (ROOT_SPAN,),
}

# Per-layer metric -> the span name whose self time per step it reports, in µs.
US_PER_STEP_METRICS: Dict[str, str] = {
    "approximation.rm_solve_us_per_step": "approximation.rm_solve",
    "approximation.rm_solve_nd_us_per_step": "approximation.rm_solve_nd",
    "least_squares.simulate_ls_run_us_per_step": "least_squares.simulate_ls_run",
    "least_squares.check_design_conditions_us_per_step": "least_squares.check_design_conditions",
}

# Layers whose total self time is reported; the root span is the residual.
LAYERS = ("config", "approximation", "least_squares", "process", "conditions", "harness", "reporting")


class Tracer:
    """Records spans for one run of the program."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: List[list] = []  # [id, name, start, end, parent, thread, run, steps]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ensemble: Optional[int] = None  # the open run_ensemble span, seen by pool threads

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, sid=None, parent=None):
        """Call ``fn`` inside a span; ``parent`` defaults to this thread's open span."""
        stack = self._stack()
        if sid is None:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = [sid, name, start, end, parent, threading.get_ident(), self.run_id, 0]
            self.spans.append(record)
        count = STEP_COUNTS.get(name)
        if count is not None:
            record[7] = int(count(args, result))
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def wrap_run_ensemble(self, fn):
        """Span the ensemble and each factory call; pool threads get the ensemble as parent."""

        @functools.wraps(fn)
        def traced(factory, *args, **kwargs):
            sid = self._ensemble = next(self._ids)

            def traced_factory(seed_sequence):
                return self.call("harness.factory", factory, (seed_sequence,), {}, parent=sid)

            try:
                return self.call(
                    "harness.run_ensemble", fn, (traced_factory,) + args, kwargs, sid=sid
                )
            finally:
                self._ensemble = None

        return traced

    def wrap_reduce_one(self, fn):
        """Span the per-seed reduction, a child of the open ensemble in whichever thread runs it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call("harness.reduce_one", fn, args, kwargs, parent=self._ensemble)

        return traced

    def install(self, cli_module, experiments_module, harness_module) -> None:
        """Wrap every contractlab layer function the orchestration module imported."""
        for name, obj in list(vars(experiments_module).items()):
            module = getattr(obj, "__module__", "") or ""
            if not inspect.isfunction(obj) or not module.startswith("contractlab."):
                continue
            if module == experiments_module.__name__:
                continue
            layer = module.rsplit(".", 1)[1]
            if name == "run_ensemble":
                wrapped = self.wrap_run_ensemble(obj)
            else:
                wrapped = self.wrap(f"{layer}.{name}", obj)
            setattr(experiments_module, name, wrapped)
        harness_module._reduce_one = self.wrap_reduce_one(harness_module._reduce_one)
        cli_module.parse_config_file = self.wrap(
            "config.parse_config_file", cli_module.parse_config_file
        )

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "run", "steps")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans: List[list]) -> Dict[int, float]:
    """Self time of every span, by sweeping span starts and ends in time order.

    Each interval between consecutive events is split evenly between the
    active spans that have no active child; the shares of one run therefore
    add up to the union of its root spans.
    """
    parent_of = {rec[0]: rec[4] for rec in spans}
    events = []
    for sid, _name, start, end, *_ in spans:
        events.append((start, 0, sid))  # a parent starts before its child
        events.append((end, 1, -sid))  # a child ends before its parent
    events.sort()
    own: Dict[int, float] = defaultdict(float)
    active_children: Dict[int, int] = defaultdict(int)
    active = set()
    leaves = set()
    last: Optional[float] = None
    for t, is_end, key in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        sid = -key if is_end else key
        parent = parent_of[sid]
        if not is_end:
            active.add(sid)
            leaves.add(sid)
            if parent is not None:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                active_children[parent] -= 1
                if active_children[parent] == 0 and parent in active:
                    leaves.add(parent)
    return own


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    own = self_times(spans)
    self_by_name: Dict[str, float] = defaultdict(float)
    steps_by_name: Dict[str, int] = defaultdict(int)
    calls_by_name: Dict[str, int] = defaultdict(int)
    for rec in spans:
        name = rec[1]
        self_by_name[name] += own.get(rec[0], 0.0)
        steps_by_name[name] += rec[7]
        calls_by_name[name] += 1
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_by_name[n] for n in names)
    for metric, name in US_PER_STEP_METRICS.items():
        steps = steps_by_name[name]
        out[metric] = self_by_name[name] / steps * 1e6 if steps else 0.0
    out["approximation.contraction_factor_calls"] = calls_by_name["approximation.contraction_factor"]
    out["conditions.steps_checked"] = sum(
        steps_by_name[n] for n in SELF_TIME_METRICS["conditions.checkers_s"]
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, s in self_by_name.items() if name.split(".", 1)[0] == layer
        )
    out["trace.wall_s"] = sum(rec[3] - rec[2] for rec in spans if rec[1] == ROOT_SPAN)
    return out
