"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules
``tritile.cones``, ``tritile.surface``, ``tritile.dynamics`` and
``tritile.shell``, and puts the wrapper into every ``tritile.*``
namespace that bound the original.  That matters because the modules
call each other through ``from ... import`` bindings, so patching only
the defining module would let most calls escape.  ``uninstall`` puts the
originals back, so an untraced run executes the program unchanged.

A span records calls, inclusive time and self time (duration minus the
time of child spans).  The three hottest functions get count-only
wrappers; their time stays with the enclosing span.  Aggregates are kept
in memory per (function, parent span) and read out after a pass.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import wraps

LAYERS = ("cones", "surface", "dynamics", "shell")

# Called hundreds of thousands of times per pass and always from inside a
# span that owns the work, so only their calls are counted.
COUNT_ONLY = frozenset({"cones.conj_height", "surface.on_surface", "dynamics.step"})

# Work sizes read off a call: In-tiles returned by the scan, tiles handed
# to the chart cover.
SIZES = {
    "surface.in_tiles_expanded": lambda args, result: len(result),
    "dynamics.chart_cover": lambda args, result: len(args[0]),
}

CLOSURE = ("cones.conj_roof_generators", "cones.std_roof_generators", "cones.roof_add", "cones.is_roof")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()  # (name, parent span name or None) -> calls
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[list] = []  # [name, ns spent in child spans]
        self._originals: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, calls, self_ns, incl_ns, sizes = self._stack, self.calls, self.self_ns, self.incl_ns, self.sizes
        size = SIZES.get(name)
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name, stack[-1][0] if stack else None] += 1
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    sizes[name] += size(args, result)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[name] += dur - frame[1]
                incl_ns[name] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _count(self, name, fn):
        stack, calls = self._stack, self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name, stack[-1][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"tritile.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)  # a span would time only its creation
                ):
                    continue
                name = f"{layer}.{attr}"
                make = self._count if name in COUNT_ONLY else self._span
                wrapped[id(fn)] = (fn, make(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tritile" and not mod_name.startswith("tritile."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._originals.append((module, attr, value))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, value = self._originals.pop()
            setattr(module, attr, value)

    # -- read-out ---------------------------------------------------------

    def total_calls(self, name: str) -> int:
        return sum(c for (n, _), c in self.calls.items() if n == name)

    def counts(self) -> dict[str, int]:
        """Calls per function name plus work sizes; exact for a given input."""
        out = Counter()
        for (name, _), c in self.calls.items():
            out[name] += c
        for name, s in self.sizes.items():
            out[f"{name}#size"] += s
        return dict(out)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far, as (value, unit)."""
        calls = self.total_calls

        def ms(*names) -> float:
            return sum(self.self_ns[n] for n in names) / 1e6

        def layer_ms(layer: str) -> float:
            return sum(v for n, v in self.self_ns.items() if n.startswith(layer + ".")) / 1e6

        scanned = self.calls["surface.section_at", "surface.in_tiles_expanded"]
        chart_checks = self.calls["surface.on_surface", "dynamics.chart_cover"]
        chart_tiles = self.sizes["dynamics.chart_cover"]
        return {
            "cones.closure_calls": (sum(calls(n) for n in CLOSURE), "count"),
            "cones.closure_self_ms": (ms(*CLOSURE), "ms"),
            "cones.height_calls": (calls("cones.conj_height"), "count"),
            "cones.self_ms": (layer_ms("cones"), "ms"),
            "surface.section_calls": (calls("surface.section_at"), "count"),
            "surface.section_self_ms": (ms("surface.section_at"), "ms"),
            "surface.scan_self_ms": (ms("surface.in_tiles_expanded", "surface.classify"), "ms"),
            "surface.norm_calls": (calls("surface.norm"), "count"),
            "surface.in_ratio": (self.sizes["surface.in_tiles_expanded"] / scanned if scanned else 0.0, "ratio"),
            "surface.on_surface_calls": (calls("surface.on_surface"), "count"),
            "surface.self_ms": (layer_ms("surface"), "ms"),
            "dynamics.step_calls": (calls("dynamics.step"), "count"),
            "dynamics.trace_self_ms": (ms("dynamics.trace"), "ms"),
            "dynamics.codec_self_ms": (ms("dynamics.encode", "dynamics.decode"), "ms"),
            "dynamics.chart_cover_ms": (self.incl_ns["dynamics.chart_cover"] / 1e6, "ms"),
            "dynamics.chart_checks": (chart_checks, "count"),
            "dynamics.chart_checks_per_tile": (chart_checks / chart_tiles if chart_tiles else 0.0, "1/tile"),
            "dynamics.partition_self_ms": (ms("dynamics.closed_trajectories_of_roof"), "ms"),
            "dynamics.self_ms": (layer_ms("dynamics"), "ms"),
            "shell.self_ms": (layer_ms("shell"), "ms"),
        }
