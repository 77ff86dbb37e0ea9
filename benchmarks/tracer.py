"""In-memory span tracer that wraps ``gumbelkit`` functions from outside the package.

``Tracer.install()`` replaces each function named in ``TRACED`` by a wrapper
that records one span per call (name, start, end, parent span) and adds the
call to per-name totals.  The wrapper is bound under every name in every
``gumbelkit`` module that held the original, so calls through
``from .losses import loss_grads`` style imports are traced too.  A function
that does not exist is skipped and reports zero calls.

Self time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

# (module, function): every public function the per-layer metrics read
TRACED = (
    ("cli", "main"),
    ("regression", "run_experiment"),
    ("regression", "run_cell"),
    ("regression", "run_repeat"),
    ("regression", "target_value"),
    ("losses", "loss_grads"),
    ("losses", "loss_values"),
    ("rng", "stream"),
    ("distributions", "sample_gumbel"),
    ("mdp", "generate_dataset"),
    ("mdp", "behavior_value"),
    ("mdp", "soft_value"),
    ("value_fitting", "train"),
    ("value_fitting", "q_step"),
    ("value_fitting", "v_step"),
    ("stats", "t_test_from_summary"),
    ("stats", "regularized_incomplete_beta"),
)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []        # span ids of the calls in progress
        self._child: list[float] = []     # child time accumulated per open span
        self._stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.cell_times: dict[str, list[float]] = {"full": [], "collapse": []}

    def reset(self) -> None:
        """Zero the totals and counters; recorded spans are kept."""
        for stat in self._stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0.0
        for times in self.cell_times.values():
            times.clear()

    def stat(self, name: str) -> tuple[int, float, float]:
        calls, total, own = self._stats.get(name, (0, 0.0, 0.0))
        return calls, total, own

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        stat = self._stats[name] = [0, 0.0, 0.0]
        open_ids, child_time = self._open, self._child
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(open_ids[-1] if open_ids else -1)
            open_ids.append(span)
            child_time.append(0.0)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[span] = end
                open_ids.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
            if on_return is not None:
                on_return(args, kwargs, result, duration)
            return result

        return traced

    def _hooks(self, name: str):
        """Counters kept at the boundary of particular functions."""
        if name in ("losses.loss_grads", "losses.loss_values"):
            key = name + ".elements"

            def on_call(args, kwargs):
                self.count(key, np.size(_arg(args, kwargs, 1, "residuals")))

            return on_call, None
        if name == "regression.run_cell":
            def on_return(args, kwargs, trace, duration):
                diverged = getattr(trace, "diverged_count", None)
                repeats = getattr(trace, "repeats", None)
                if diverged is None or repeats is None:
                    return
                self.count("regression.diverged_repeats", diverged)
                if diverged == 0:
                    self.cell_times["full"].append(duration)
                elif diverged == len(repeats):
                    self.cell_times["collapse"].append(duration)

            return None, on_return
        if name == "value_fitting.train":
            def on_return(args, kwargs, tables, duration):
                self.count("value_fitting.outer_iterations", getattr(tables, "iterations", 0))

            return None, on_return
        if name == "value_fitting.v_step":
            def on_call(args, kwargs):
                gradient = _arg(args, kwargs, 6, "mode", "gradient") == "gradient"
                self.count("value_fitting.v_updates",
                           _arg(args, kwargs, 5, "steps", 1) if gradient else 1)

            return on_call, None
        return None, None

    def install(self, package: str = "gumbelkit") -> None:
        """Wrap every function in TRACED that exists and rebind it package-wide."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, fn_name in TRACED:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            name = f"{module_name}.{fn_name}"
            wrapped = self.wrap(name, original, *self._hooks(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the totals since the last reset."""
        out: dict[str, float] = {}

        def add(name: str, *fields: str) -> None:
            calls, total, own = self.stat(name)
            values = {"calls": calls, "total_s": total, "self_s": own}
            for f in fields:
                out[f"{name}.{f}"] = values[f]

        counter = self.counters.get
        add("cli.main", "calls", "self_s")
        add("regression.run_experiment", "total_s")
        add("regression.run_cell", "calls", "self_s", "total_s")
        add("regression.run_repeat", "calls", "self_s")
        add("regression.target_value", "calls", "self_s")
        out["regression.cell_full_s"] = _median(self.cell_times["full"])
        out["regression.cell_collapse_s"] = _median(self.cell_times["collapse"])
        out["regression.diverged_repeats"] = counter("regression.diverged_repeats", 0.0)
        for kernel in ("losses.loss_grads", "losses.loss_values"):
            add(kernel, "calls", "self_s")
            out[kernel + ".elements"] = counter(kernel + ".elements", 0.0)
        kernel_calls = out["losses.loss_grads.calls"] + out["losses.loss_values.calls"]
        elements = out["losses.loss_grads.elements"] + out["losses.loss_values.elements"]
        kernel_self = out["losses.loss_grads.self_s"] + out["losses.loss_values.self_s"]
        out["losses.ns_per_element"] = 1e9 * kernel_self / elements if elements else 0.0
        out["losses.elements_per_call"] = elements / kernel_calls if kernel_calls else 0.0
        add("rng.stream", "calls", "self_s")
        add("distributions.sample_gumbel", "calls", "self_s")
        add("mdp.generate_dataset", "calls", "self_s")
        add("mdp.behavior_value", "self_s")
        add("mdp.soft_value", "calls", "self_s")
        add("value_fitting.train", "calls", "self_s", "total_s")
        add("value_fitting.q_step", "calls", "self_s")
        add("value_fitting.v_step", "calls", "self_s")
        out["value_fitting.outer_iterations"] = counter("value_fitting.outer_iterations", 0.0)
        updates = counter("value_fitting.v_updates", 0.0)
        v_total = self.stat("value_fitting.v_step")[1]
        out["value_fitting.us_per_v_update"] = 1e6 * v_total / updates if updates else 0.0
        add("stats.t_test_from_summary", "calls", "self_s")
        add("stats.regularized_incomplete_beta", "calls", "self_s")
        return out

    def save(self, path: str) -> None:
        """Write every recorded span: name index, parent span, start and end."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.uint16),
                 parent=np.frombuffer(self.span_parent, np.int64),
                 start=np.frombuffer(self.span_start, np.float64),
                 end=np.frombuffer(self.span_end, np.float64))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
