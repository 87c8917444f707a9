"""Span tracer for the traced benchmark run.

It wraps public functions of the `tncg` modules from outside the package:
each wrapped name is replaced in every `tncg` module that binds it, because a
caller looks a name up in its own module's globals (`tncg.optimum` calls
`is_temporally_connected` through its own binding, not through `tncg.core`).
Each call records a span (name, start, end, parent) in memory.  Graph builds
are counted, not spanned: `TemporalGraph.__init__` runs far too often for a
span each.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions whose calls become spans
WRAPPED = {
    "core": ["is_temporally_connected"],
    "game": ["agent_cost", "social_cost"],
    "responses": ["greedy_best_response", "exact_best_response"],
    "dynamics": ["run_dynamics"],
    "equilibrium": ["check_ge", "check_ne", "audit_profile"],
    "optimum": ["minimum_spanner", "minimal_spanner"],
    "constructions": ["gen_random_host"],
    "experiments": ["run_experiment"],
}


class Tracer:
    """Installs span wrappers on `tncg`, then turns the spans into metrics."""

    def __init__(self, tncg):
        self.tncg = tncg
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.graph_builds = 0
        self.greedy_improved = 0
        self.activations = 0
        self.moves = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if name == "responses.greedy_best_response" and out[1]:
                self.greedy_improved += 1
            elif name == "dynamics.run_dynamics":
                self.activations += out.activations
                self.moves += len(out.moves)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "tncg" or k.startswith("tncg.")]
        for layer, names in WRAPPED.items():
            for fname in names:
                orig = getattr(getattr(self.tncg, layer), fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    if getattr(mod, fname, None) is orig:
                        self._undo.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)
        graph_cls = self.tncg.core.TemporalGraph
        init = graph_cls.__init__

        def counting_init(graph, *args, **kwargs):
            self.graph_builds += 1
            init(graph, *args, **kwargs)

        self._undo.append((graph_cls, "__init__", init))
        graph_cls.__init__ = counting_init

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, and
        `optimum.connectivity_tests`: connectivity tests run inside a
        `minimum_spanner` call, a stand-in for its search nodes."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        under_min = [False] * len(self.spans)
        # children close before their parent but are appended after it, so
        # one forward pass sees every parent before its children
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
                under_min[i] = under_min[parent] or self.spans[parent][0] == "optimum.minimum_spanner"
        tests_in_min = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if under_min[i] and name == "core.is_temporally_connected":
                tests_in_min += 1
        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            out[f"{layer}.self_s"] = sum(self_s[f"{layer}.{f}"] for f in names)
            for f in names:
                out[f"{layer}.{f}.calls"] = calls[f"{layer}.{f}"]
                out[f"{layer}.{f}.self_s"] = self_s[f"{layer}.{f}"]
        out["core.graph_builds"] = self.graph_builds
        out["optimum.connectivity_tests"] = tests_in_min
        greedy_calls = calls["responses.greedy_best_response"]
        out["responses.greedy.improved_ratio"] = self.greedy_improved / greedy_calls if greedy_calls else 0.0
        out["dynamics.activations"] = self.activations
        out["dynamics.moves"] = self.moves
        out["dynamics.moves_per_activation"] = self.moves / self.activations if self.activations else 0.0
        return out
