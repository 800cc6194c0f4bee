"""Spans around mplf's public functions, bound from outside the program.

Every binding of a traced function in the ``mplf`` modules is replaced, so
a call is seen wherever the caller looks the function up (``analysis`` and
``linearize`` import ``check_theorem2`` and friends by name).  Spans are
recorded only while an op runs, stay in memory, and are written out at the
end of the run.  A layer's self time is its span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function) -> span name.
FUNCTIONS = {
    ("netmodel", "network_from_json"): "netmodel.parse",
    ("netmodel", "network_from_file"): "netmodel.parse",
    ("netmodel", "assemble_network"): "netmodel.assemble",
    ("netmodel", "zero_load_voltage"): "netmodel.zero_load",
    ("powerflow", "injections_from_json"): "powerflow.parse",
    ("powerflow", "injections_from_file"): "powerflow.parse",
    ("powerflow", "solve_fixed_point"): "powerflow.solve",
    ("powerflow", "newton_oracle"): "powerflow.solve",
    ("powerflow", "fixed_point_map"): "powerflow.G",
    ("powerflow", "power_flow_residual"): "powerflow.residual",
    ("certify", "xi_norms"): "certify.xi",
    ("certify", "check_theorem1"): "certify.theorem1",
    ("certify", "check_theorem2"): "certify.theorem2",
    ("linearize", "fot_linearize"): "linearize.fot",
    ("linearize", "fpl_linearize"): "linearize.fpl",
    ("linearize", "evaluate_linear"): "linearize.evaluate",
    ("linearize", "fpl_error_bound"): "linearize.bound",
    ("analysis", "feasible_interval"): "analysis.interval",
    ("analysis", "recentered_interval"): "analysis.interval",
    ("analysis", "linear_error_sweep"): "analysis.sweep",
    ("cli", "main"): "cli.self",
}
# NetworkModel construction (symmetry check, LU, rcond) and its lazy inverse.
FACTOR = "netmodel.factor"
YLL_INVERSE = "netmodel.yll_inverse"

INTERVAL = "analysis.interval"
PROBES = ("certify.theorem1", "certify.theorem2")

# Reported per-layer metrics: (metric, span name, what is taken per op).
METRICS = (
    ("netmodel.parse_s", "netmodel.parse", "self"),
    ("netmodel.assemble_s", "netmodel.assemble", "self"),
    ("netmodel.factor_s", FACTOR, "self"),
    ("netmodel.zero_load_s", "netmodel.zero_load", "self"),
    ("netmodel.yll_inverse_s", YLL_INVERSE, "self"),
    ("powerflow.parse_s", "powerflow.parse", "self"),
    ("powerflow.solve_s", "powerflow.solve", "self"),
    ("powerflow.G_s", "powerflow.G", "self"),
    ("powerflow.G_calls", "powerflow.G", "calls"),
    ("powerflow.residual_s", "powerflow.residual", "self"),
    ("certify.xi_s", "certify.xi", "self"),
    ("certify.xi_calls", "certify.xi", "calls"),
    ("certify.theorem1_s", "certify.theorem1", "self"),
    ("certify.theorem1_calls", "certify.theorem1", "calls"),
    ("certify.theorem2_s", "certify.theorem2", "self"),
    ("certify.theorem2_calls", "certify.theorem2", "calls"),
    ("linearize.fot_s", "linearize.fot", "self"),
    ("linearize.fpl_s", "linearize.fpl", "self"),
    ("linearize.evaluate_s", "linearize.evaluate", "self"),
    ("linearize.bound_s", "linearize.bound", "self"),
    ("analysis.interval_s", INTERVAL, "self"),
    ("analysis.interval_probes", INTERVAL, "probes"),
    ("analysis.sweep_s", "analysis.sweep", "self"),
    ("cli.self_s", "cli.self", "self"),
)


def metric_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, op]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Replace every binding of the traced functions in the mplf modules."""
        wrappers = {}
        for (module, attr), name in FUNCTIONS.items():
            fn = getattr(importlib.import_module(f"mplf.{module}"), attr)
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mplf" and not mod_name.startswith("mplf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        cls = importlib.import_module("mplf.netmodel").NetworkModel
        cls.__init__ = self.wrap(FACTOR, cls.__init__)
        lazy = functools.cached_property(self.wrap(YLL_INVERSE, cls.__dict__["yll_inverse"].func))
        lazy.__set_name__(cls, "yll_inverse")
        cls.yll_inverse = lazy

    def per_op(self):
        """Per-op self times and counts: ``{op: {(span name, kind): value}}``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][(name, "self")] += end - start - covered[idx]
            out[op][(name, "calls")] += 1
            if name in PROBES:
                while parent >= 0 and self.spans[parent][0] != INTERVAL:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    out[op][(INTERVAL, "probes")] += 1
        return out

    def metrics(self, ops):
        """Median over ``ops`` of each per-layer metric."""
        table = self.per_op()
        return {
            metric: statistics.median(table[op][(name, kind)] for op in ops)
            for metric, name, kind in METRICS
        }

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
