"""Layer spans recorded around the program's public functions.

The program's modules bind each other's functions with ``from .x import
y``, so a wrapper replaces the name in every ``wmqkd`` module that holds
the original function: in the callers' modules, and in the defining
module for calls made inside it (``accidental_estimate`` calls
``find_coincidences``; ``optimize_pair_rate`` calls ``analytic_rates``).

Each span adds its duration to its parent, so a span's self time is its
duration minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (defining module, function, span name)
SPANS = (
    ("wmqkd.simulate", "simulate_point", "simulate.point"),
    ("wmqkd.simulate", "simulate_channel_block", "simulate.sample"),
    ("wmqkd.detection", "detect", "detection.detect"),
    ("wmqkd.detection", "merge_detectors", "detection.merge"),
    ("wmqkd.detection", "concatenate_streams", "detection.concat"),
    ("wmqkd.coincidence", "find_coincidences", "coincidence.match"),
    ("wmqkd.coincidence", "accidental_estimate", "coincidence.accidental"),
    ("wmqkd.keyrate", "optimize_pair_rate", "keyrate.optimize"),
    ("wmqkd.keyrate", "analytic_rates", "keyrate.analytic"),
    ("wmqkd.calibration", "predict_channel", "calibration.predict"),
    ("wmqkd.calibration", "predict_merged", "calibration.predict"),
    ("wmqkd.runner", "predict_point", "runner.predict"),
    ("wmqkd.channels", "build_grid_plan", "channels.plan"),
)


# A span opened directly inside another is renamed: the matcher called by
# the accidental estimate is part of that estimate, and only direct calls
# count as matching; evaluations inside the optimizer are counted apart.
NESTED_NAMES = {
    ("coincidence.accidental", "coincidence.match"): "coincidence.accidental_match",
    ("keyrate.optimize", "keyrate.analytic"): "keyrate.analytic_in_optimize",
}


def _inputs(name, args):
    """Work counted on entry: tags or arrivals handed to the layer."""
    if name == "detection.detect":
        return len(args[0])
    if name in ("detection.merge", "coincidence.match"):
        return len(args[0]) + len(args[1])
    return 0


def _outputs(name, result):
    """Work counted on exit: tags, matches or accidentals produced."""
    if name in ("detection.detect", "coincidence.match"):
        return len(result)
    if name == "coincidence.accidental":
        return int(result)
    return 0


class Span:
    __slots__ = ("calls", "total", "self", "inputs", "outputs")

    def __init__(self):
        self.calls = 0
        self.total = self.self = 0.0
        self.inputs = self.outputs = 0


class Tracer:
    """Collects spans by name; ``install`` puts the wrappers in place for
    the rest of the process."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self._stack: list[list] = []   # [name, child seconds]

    def reset(self):
        self.spans.clear()

    def snapshot(self) -> dict:
        return {name: {"calls": s.calls, "total": s.total, "self": s.self,
                       "inputs": s.inputs, "outputs": s.outputs}
                for name, s in self.spans.items()}

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if self._stack:
            name = NESTED_NAMES.get((self._stack[-1][0], name), name)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
        s = self.spans[name]
        s.calls += 1
        s.total += dt
        s.self += dt - frame[1]
        s.inputs += _inputs(name, args)
        s.outputs += _outputs(name, result)
        return result

    def install(self):
        targets = []
        for module_name, fn_name, span_name in SPANS:
            orig = getattr(importlib.import_module(module_name), fn_name)
            targets.append((orig, self._wrap(orig, span_name)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wmqkd" or n.startswith("wmqkd."))]
        for orig, wrapper in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return wrapper
