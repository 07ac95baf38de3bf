"""Outside-in layer trace: wrap public functions of ``ehcr`` with spans.

The program itself has no tracing hook yet, so the benchmark installs
wrappers around the listed functions in every loaded module that binds them
by name (``ehcr.optimizer.solve_lp`` as well as ``ehcr.numerics.solve_lp``,
and the benchmark's own modules), which also catches calls made inside the
package.  Each call appends one span (metric name, parent span, start, end)
to in-memory lists; nothing is aggregated or written until
:meth:`Tracer.summary` runs at the end.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: per-layer metric name -> (module, function) pairs it aggregates
TRACED = {
    "numerics.solve_lp": [("ehcr.numerics", "solve_lp")],
    "numerics.marcum_q": [("ehcr.numerics", "marcum_q")],
    "numerics.gamma_tail": [("ehcr.numerics", "regularized_upper_gamma_int"),
                            ("ehcr.numerics", "regularized_lower_gamma_int")],
    "sensing.false_alarm": [("ehcr.sensing", "false_alarm")],
    "sensing.detection_avg": [("ehcr.sensing", "detection_avg")],
    "sensing.detection_instant": [("ehcr.sensing", "detection_instant")],
    "outage.bundle": [("ehcr.outage", "bundle")],
    "harvesting.distribution": [("ehcr.harvesting", "nature_distribution"),
                                ("ehcr.harvesting", "combined_distribution")],
    "chain.harvest_blocks": [("ehcr.chain", "harvest_blocks")],
    "chain.transition_components": [("ehcr.chain", "transition_components")],
    "chain.stationary_distribution": [("ehcr.chain", "stationary_distribution")],
    "performance.evaluate": [("ehcr.performance", "evaluate")],
    "optimizer.optimize": [("ehcr.optimizer", "optimize")],
    "simulator.run": [("ehcr.simulator", "run")],
    "simulator.compare": [("ehcr.simulator", "compare")],
    "system_model.derive": [("ehcr.system_model", "derive")],
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self._names: list[int] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack: list[int] = []
        self._metric_names = list(TRACED)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        names, parents, starts, ends = (self._names, self._parents,
                                        self._starts, self._ends)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [module for module in list(sys.modules.values())
                   if module is not None]
        for name_id, metric in enumerate(self._metric_names):
            for module_name, attr in TRACED[metric]:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(original, name_id)
                for module in modules:
                    namespace = getattr(module, "__dict__", {})
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per metric name.

        Busy time counts a span only when no enclosing span carries the same
        metric name, so a name that calls itself (the combined harvest law
        builds the ambient one) is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        n = len(self._names)
        durations = [self._ends[i] - self._starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self._parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for i in range(n):
            name = self._names[i]
            calls[name] += 1
            self_time[name] += durations[i] - child_time[i]
            ancestor = self._parents[i]
            while ancestor >= 0 and self._names[ancestor] != name:
                ancestor = self._parents[ancestor]
            if ancestor < 0:
                busy[name] += durations[i]
        return {metric: {"calls": calls[i], "busy_s": busy[i],
                         "self_s": self_time[i]}
                for i, metric in enumerate(self._metric_names)}
