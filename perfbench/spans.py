"""Outside-in span recorder for loadcap's public functions.

``SpanRecorder.install`` wraps every public function of the traced modules
and rebinds the wrapper under every name that holds the original in any
loaded ``loadcap`` module.  Modules bind with ``from .x import y``, so
patching only the defining module would miss those callers.  Spans (name,
start, end, parent) stay in memory until the run ends; a few functions
also record facts about their arguments or results ("notes") after their
span closes; a note that no longer fits the function reads as no data.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

MODULES = ("tailprob", "admission", "models", "simulation", "scheduling", "fileio", "cli")


def _arg(args: tuple, kwargs: dict, position: int, name: str, default: Any = None) -> Any:
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _note_exact_pmf(args: tuple, kwargs: dict, result: Any) -> list:
    composition = _arg(args, kwargs, 0, "composition")
    quantum = _arg(args, kwargs, 1, "quantum", 1.0)
    # computed from the arguments: dense grid length before trimming
    grid = 1 + sum(n * round(cls.on_power / quantum) for cls, n in composition.entries if n)
    return [grid, len(result.probabilities)]


def _note_sample_series(args: tuple, kwargs: dict, result: Any) -> list:
    appliance = _arg(args, kwargs, 0, "appliance")
    seed = _arg(args, kwargs, 2, "seed")
    return [appliance.name, int(seed), int(len(result))]


def _note_size(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.size)


def _note_slots(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.slots)


NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "tailprob.exact_pmf": _note_exact_pmf,
    "models.sample_series": _note_sample_series,
    "admission.decision_region": _note_size,
    "simulation.run_slot_dynamic": _note_slots,
}


def public_functions(module: Any) -> list[str]:
    """Names in ``__all__`` that are plain functions defined in the module."""
    names = []
    for name in getattr(module, "__all__", ()):
        value = getattr(module, name, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            names.append(name)
    return names


class SpanRecorder:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._rebound: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        notes = self.notes[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    notes.append(note(args, kwargs, result))
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # a changed signature loses the counter, never the run
            return result

        return traced

    def install(self, package: str = "loadcap") -> None:
        """Wrap the public functions of every traced module of ``package``."""
        for short in MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for fname in public_functions(module):
                original = getattr(module, fname)
                wrapped = self.wrap(f"{short}.{fname}", original)
                for holder in list(sys.modules.values()):
                    holder_name = getattr(holder, "__name__", "")
                    if holder_name != package and not holder_name.startswith(package + "."):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self._rebound.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._rebound):
            setattr(holder, attr, original)
        self._rebound.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    count = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], notes: dict[str, list]) -> dict[str, float]:
    """Per-function calls and self time, module totals and the derived ratios.

    A ratio whose base is zero (the workload never reaches that layer) reads 0.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    out: dict[str, float] = {}
    for name in sorted(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s[name]

    grids = notes.get("tailprob.exact_pmf", [])
    grid_points = sum(g for g, _ in grids)
    support_points = sum(s for _, s in grids)
    out["tailprob.exact_pmf.grid_points"] = grid_points
    out["tailprob.exact_pmf.support_points"] = support_points
    out["tailprob.exact_pmf.support_ratio"] = _ratio(support_points, grid_points)

    cells = sum(notes.get("admission.decision_region", []))
    out["admission.decision_region.estimates_per_cell"] = _ratio(
        count_under(spans, "tailprob.estimate", "admission.decision_region"), cells
    )
    out["admission.max_admissible.estimates_per_call"] = _ratio(
        count_under(spans, "tailprob.estimate", "admission.max_admissible"),
        calls.get("admission.max_admissible", 0),
    )
    slots = sum(notes.get("simulation.run_slot_dynamic", []))
    out["simulation.run_slot_dynamic.estimates_per_slot"] = _ratio(
        count_under(spans, "tailprob.estimate", "simulation.run_slot_dynamic"), slots
    )

    samples = notes.get("models.sample_series", [])
    out["models.sample_series.slots_per_s"] = _ratio(
        sum(n for _, _, n in samples), self_s.get("models.sample_series", 0.0)
    )
    swept = count_under(spans, "models.sample_series", "simulation.sweep_qos")
    distinct = len({(name, seed) for name, seed, _ in samples}) if swept else 0
    out["simulation.sweep_qos.sample_reuse"] = _ratio(distinct, swept)
    return out


def focus_share(spans: list[list], prefix: str) -> float:
    """Self time of spans named ``prefix`` or below it, over all traced time."""
    own = self_times(spans)
    total = sum(end - start for _, start, end, parent in spans if parent < 0)
    focus = sum(
        t for span, t in zip(spans, own)
        if span[0] == prefix or span[0].startswith(prefix + ".")
    )  # fmt: skip
    return _ratio(focus, total)
