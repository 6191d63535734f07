"""Span tracing of qfnet from outside the package.

The tracer replaces each public function of the traced layer modules with a
wrapper that records a span (name, start, end, parent).  ``optimizer``,
``montecarlo`` and ``cli`` import names directly (``from .stats import
best_threshold``), so patching the defining module alone would miss their
calls: every binding of the same function object in any loaded ``qfnet``
module is replaced, and ``uninstall`` puts each original back.

Spans are kept in memory; the benchmark writes them out when it ends.  A
span's self time is its duration minus the durations of its direct children
(the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from typing import Any, Callable

PACKAGE = "qfnet"
LAYERS = ("stats", "probmodel", "optimizer", "montecarlo", "decision", "optics", "cli")

# Spans whose return value carries a count the layer metrics need.
_RESULT_COUNTS: dict[str, Callable[[Any], dict[str, float]]] = {
    "optimizer.optimize": lambda r: {"evaluations": r.trace["evaluations"]},
    "montecarlo.simulate": lambda r: {
        "trials": r.trials,
        "runs_used": round(r.mean_runs_used * r.trials),
        "inconsistent": round(r.empirical_inconsistent_rate * r.trials),
    },
}

ROOT = "op"


class Tracer:
    """Wraps the public functions of ``qfnet.<layer>`` and records spans.

    ``spans`` holds ``[name, start, end, parent_index]`` lists (parent -1 for
    a root) and ``results`` the counts taken from selected return values,
    keyed by span index.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.labels: dict[int, str] = {}
        self.results: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _originals(self) -> dict[int, tuple[str, Callable]]:
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    found[id(obj)] = (f"{layer}.{name}", obj)
        return found

    def install(self) -> None:
        """Replace every binding of a traced function in loaded qfnet modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = self._originals()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every replaced binding back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, results = self.spans, self._stack, self.results
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                results[index] = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, label: str):
        """Record one benchmark operation as a root span."""
        index = len(self.spans)
        span = [ROOT, 0.0, 0.0, -1]
        self.spans.append(span)
        self.labels[index] = label
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _ancestor_names(spans: list[list], index: int):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _root_label(spans: list[list], labels: dict[int, str], index: int) -> str:
    while spans[index][3] >= 0:
        index = spans[index][3]
    return labels.get(index, "")


def layer_metrics(
    spans: list[list], labels: dict[int, str], results: dict[int, dict[str, float]],
    instances: tuple[str, ...] = (),
) -> dict[str, float]:
    """Per-layer metrics of one traced operation sequence."""
    own = self_times(spans)
    durations = [end - start for _, start, end, _ in spans]
    m: dict[str, float] = {}

    def idx(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] in names]

    def self_of(layer: str) -> float:
        return sum(own[i] for i, s in enumerate(spans) if layer_of(s[0]) == layer)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    tails = idx("stats.tail_above", "stats.tail_below")
    thresholds = idx("stats.best_threshold")
    tails_in_thresholds = sum(
        1 for i in tails if "stats.best_threshold" in _ancestor_names(spans, i)
    )
    m["stats.tail_calls"] = len(tails)
    m["stats.tail_self_s"] = sum(own[i] for i in tails)
    m["stats.tail_us"] = ratio(m["stats.tail_self_s"], len(tails), 1e6)
    m["stats.threshold_calls"] = len(thresholds)
    m["stats.tails_per_threshold"] = ratio(tails_in_thresholds, len(thresholds))
    m["stats.threshold_self_s"] = sum(own[i] for i in thresholds)
    m["stats.audit_s"] = sum(durations[i] for i in idx("stats.error_probability"))

    outer_profiles = [
        i for i, s in enumerate(spans)
        if layer_of(s[0]) == "probmodel"
        and (s[3] < 0 or layer_of(spans[s[3]][0]) != "probmodel")
    ]
    m["probmodel.calls"] = len(outer_profiles)
    m["probmodel.self_s"] = self_of("probmodel")
    m["probmodel.profile_us"] = ratio(
        sum(durations[i] for i in outer_profiles), len(outer_profiles), 1e6
    )

    optimize = idx("optimizer.optimize")
    evaluations = sum(results[i]["evaluations"] for i in optimize)
    m["optimizer.calls"] = len(optimize)
    m["optimizer.evaluations"] = evaluations
    m["optimizer.self_s"] = self_of("optimizer")
    m["optimizer.eval_ms"] = ratio(sum(durations[i] for i in optimize), evaluations, 1e3)
    for instance in instances:
        m[f"optimizer.optimize_s.{instance}"] = sum(
            durations[i] for i in optimize
            if _root_label(spans, labels, i) == f"reproduce {instance}"
        )

    simulate = idx("montecarlo.simulate")
    trials = sum(results[i]["trials"] for i in simulate)
    m["montecarlo.trials"] = trials
    m["montecarlo.self_s"] = self_of("montecarlo")
    m["montecarlo.trial_us"] = ratio(sum(durations[i] for i in simulate), trials, 1e6)
    m["montecarlo.runs_per_trial"] = ratio(
        sum(results[i]["runs_used"] for i in simulate), trials
    )
    m["montecarlo.inconsistent_rate"] = ratio(
        sum(results[i]["inconsistent"] for i in simulate), trials
    )

    resolves = idx("decision.resolve_f_r")
    m["decision.resolve_calls"] = len(resolves)
    m["decision.self_s"] = self_of("decision")
    m["decision.resolve_us"] = ratio(sum(durations[i] for i in resolves), len(resolves), 1e6)

    m["optics.calls"] = sum(1 for s in spans if layer_of(s[0]) == "optics")
    m["optics.self_s"] = self_of("optics")
    m["cli.self_s"] = self_of("cli")
    return m


def median_metrics(per_sequence: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced sequences (counts repeat exactly)."""
    return {k: statistics.median(d[k] for d in per_sequence) for k in per_sequence[0]}
