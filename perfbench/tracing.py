"""Spans around the package's public functions, for the per-layer run only.

Modules import each other's functions by name, so a wrapper is bound in
every `ultragraph` module namespace that holds the function, not only in
the module that defines it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer = module; one entry per public function the benchmark reports.
LAYERS = {
    "serialization": ("parse_space", "emit_space"),
    "spaces": ("require_valid", "classify", "distance_set", "diameter", "ball_family"),
    "diametrical": (
        "sweep",
        "threshold_graph",
        "diametrical_graph",
        "verify_parts_are_balls",
        "gap_condition",
    ),
    "graphs": ("multipartite_parts", "connected_components"),
    "similarity": ("find_weak_similarity",),
    "constructions": (
        "truncate",
        "bound_transform",
        "unbound_transform",
        "padic_space",
        "random_ultrametric",
    ),
    "cli": ("analyze_space", "main"),
}

NAMES = [f"{module}.{function}" for module, functions in LAYERS.items() for function in functions]


class Tracer:
    """Records spans (op, name, start, end, parent) while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def begin(self, op_name: str) -> None:
        """Spans recorded from now on belong to a new op."""
        self.op = len(self.ops)
        self.ops.append(op_name)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "ultragraph" or key.startswith("ultragraph.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules.get(f"ultragraph.{module_name}")
            for function in functions:
                # a function a later version drops reports 0 calls
                original = getattr(home, function, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per name: a span's duration minus its children's."""
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            calls[name] += 1
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return {name: (calls[name], own[name]) for name in NAMES}

    def dump(self) -> dict:
        keys = ("op", "name", "start", "end", "parent")
        return {"ops": self.ops, "spans": [dict(zip(keys, span)) for span in self.spans]}
