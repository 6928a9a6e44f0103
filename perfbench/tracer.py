"""Span tracing of sigsolve, installed from outside the package.

`Tracer.install()` wraps every public function of every traced module and
rebinds the wrapper wherever the original function is bound: its home module
and every module that took it with `from ... import`. Patching only the home
module would miss most calls, because `sweep`, `indices`, `cli` and `game`
call `enumerate_extreme_equilibria`, `linf_distance_to_hull` and
`sqrt_decimal` through their own bindings. `uninstall()` restores every
binding, so untraced runs execute the original functions with no wrapper.

Each call records a span (name, start, end, parent) plus a small note taken
from its result, kept in memory. `layer_metrics()` turns the spans of one pass
into per-layer counts, times and ratios; a layer's self time is its spans'
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "sweep", "indices", "equilibrium", "normalform", "game", "linalg", "rational")


def _note_solve_square(args, kwargs, result):
    return result is None


def _note_enumerate(args, kwargs, result):
    return (bool(result.degenerate), len(result))


def _note_reduce(args, kwargs, result):
    rows, cols = (args[0] if args else kwargs["gamma"]).shape
    out_rows, out_cols = result[0].shape
    return (rows * cols, out_rows * out_cols)


def _note_component_index(args, kwargs, result):
    return result.replications


NOTES = {
    "linalg.solve_square": _note_solve_square,
    "equilibrium.enumerate_extreme_equilibria": _note_enumerate,
    "normalform.reduce_normal_form": _note_reduce,
    "indices.component_index": _note_component_index,
}


def counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly between passes: all but times."""
    return {name: value for name, value in metrics.items() if not name.endswith("_s")}


class Tracer:
    """Spans of traced sigsolve calls; one instance per benchmark run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, int] = {}  # traced name -> number of bindings patched

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sigsolve.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (f"{layer}.{attr}", value)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sigsolve" or module_name.startswith("sigsolve.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    name = originals[id(value)][0]
                    self.wrapped[name] = self.wrapped.get(name, 0) + 1

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, times and ratios over the spans recorded so far."""
        spans = self.spans
        own = self.self_times()
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        singular = degenerate = extremes = 0
        cells_in = cells_out = 0
        replications = 0
        perturbed = 0
        index_depth = [0] * len(spans)  # number of component_index ancestors, inclusive
        for i, (name, start, end, parent, note) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own[i]
            layer_self[name.split(".", 1)[0]] += own[i]
            index_depth[i] = (index_depth[parent] if parent >= 0 else 0) + (
                name == "indices.component_index"
            )
            if note is None:
                continue
            if name == "linalg.solve_square":
                singular += note
            elif name == "equilibrium.enumerate_extreme_equilibria":
                degenerate += note[0]
                extremes += note[1]
                if parent >= 0 and index_depth[parent]:
                    perturbed += 1
            elif name == "normalform.reduce_normal_form":
                cells_in += note[0]
                cells_out += note[1]
            elif name == "indices.component_index":
                replications += note

        def count(name):
            return calls.get(name, 0)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        enumerations = count("equilibrium.enumerate_extreme_equilibria")
        metrics = {
            "linalg.solve_square_calls": count("linalg.solve_square"),
            "linalg.solve_square_s": inclusive.get("linalg.solve_square", 0.0),
            "linalg.singular_ratio": ratio(singular, count("linalg.solve_square")),
            "linalg.hull_lp_calls": count("linalg.linf_distance_to_hull"),
            "linalg.hull_lp_s": inclusive.get("linalg.linf_distance_to_hull", 0.0),
            "linalg.simplex_calls": count("linalg.simplex_minimize"),
            "linalg.determinant_calls": count("linalg.determinant"),
            "equilibrium.enumerate_calls": enumerations,
            "equilibrium.enumerate_self_s": self_s.get("equilibrium.enumerate_extreme_equilibria", 0.0),
            "equilibrium.degenerate_ratio": ratio(degenerate, enumerations),
            "equilibrium.extremes": extremes,
            "equilibrium.nash_subsets_s": inclusive.get("equilibrium.maximal_nash_subsets", 0.0),
            "equilibrium.is_equilibrium_calls": count("equilibrium.is_equilibrium"),
            "equilibrium.components_s": inclusive.get("equilibrium.group_components", 0.0),
            "equilibrium.outcome_s": inclusive.get("equilibrium.component_outcome", 0.0),
            "indices.component_index_calls": count("indices.component_index"),
            "indices.component_index_self_s": self_s.get("indices.component_index", 0.0),
            "indices.perturbed_enumerations": perturbed,
            "indices.redraws": perturbed - replications,
            "normalform.build_calls": count("normalform.build_normal_form")
            + count("normalform.build_sgcm_normal_form"),
            "normalform.build_s": inclusive.get("normalform.build_normal_form", 0.0)
            + inclusive.get("normalform.build_sgcm_normal_form", 0.0),
            "normalform.reduce_calls": count("normalform.reduce_normal_form"),
            "normalform.reduce_s": inclusive.get("normalform.reduce_normal_form", 0.0),
            "normalform.reduce_ratio": ratio(cells_out, cells_in),
            "sweep.evaluate_cost_calls": count("sweep.evaluate_cost"),
            "sweep.evaluate_cost_self_s": self_s.get("sweep.evaluate_cost", 0.0),
            "sweep.resolve_base_calls": count("sweep.resolve_base_component"),
            "game.outcome_calls": count("game.outcome_of_profile"),
            "game.outcome_s": inclusive.get("game.outcome_of_profile", 0.0),
            "game.distance_calls": count("game.outcome_distance"),
            "rational.sqrt_decimal_calls": count("rational.sqrt_decimal"),
            "rational.sqrt_decimal_s": inclusive.get("rational.sqrt_decimal", 0.0),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics["trace.spans"] = len(spans)
        return metrics

    def dump(self, path) -> None:
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent, _note) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
