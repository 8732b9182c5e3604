"""Outside-in tracing: time each layer by wrapping its public functions.

The traced run replaces, for its duration, every module attribute through
which one layer calls another (``cli.verify_coloring``,
``montecarlo.random_coloring``, ...) with a wrapper that records a span:
name, start, end, parent span and operation id. Nothing inside the program
changes. Spans stay in memory; ``layer_metrics`` turns one pass's spans into
the per-layer metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

from workloads import scanned_ksets


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: int
    value: Any = None  # a count read from the call's result, when the layer has one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.value = measure(result)
            return result

        return traced


def _targets():
    """(owner, attribute, span name, count read from the result) for every wrapped call site."""
    from rainbowindex import cli, montecarlo, search, trees
    from rainbowindex.colorings import CompleteGraphColoring

    def family_size(result):
        return result[0]

    def evals(result):
        return result.attempts

    return [
        (cli, "main", "cli.main", None),
        (cli, "read_coloring", "colorings.read_coloring", None),
        (cli, "verify_coloring", "trees.verify_coloring", scanned_ksets),
        (cli, "max_disjoint_rainbow_trees", "trees.max_disjoint_rainbow_trees", family_size),
        (montecarlo, "empirical_threshold", "montecarlo.empirical_threshold", None),
        (montecarlo, "estimate_AS_all", "montecarlo.estimate_AS_all", None),
        (montecarlo, "random_coloring", "colorings.random_coloring", None),
        (montecarlo, "verify_coloring", "trees.verify_coloring", scanned_ksets),
        (montecarlo, "union_bound_failure", "bounds.union_bound_failure", None),
        (montecarlo, "binomial_tail_below", "bounds.binomial_tail_below", None),
        (search, "find_coloring", "search.find_coloring", evals),
        (search, "random_coloring", "colorings.random_coloring", None),
        (search, "verify_coloring", "trees.verify_coloring", scanned_ksets),
        (search, "max_disjoint_rainbow_trees", "trees.max_disjoint_rainbow_trees", family_size),
        (trees, "max_disjoint_rainbow_trees", "trees.max_disjoint_rainbow_trees", family_size),
        (CompleteGraphColoring, "recolored", "colorings.recolored", None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Route every wrapped call site through ``tracer``; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, measure in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's (calls nest, so children never overlap)."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# (metric, unit); units of k-sets/s and ratio follow the end-to-end metrics
PER_LAYER = [
    ("colorings.random_coloring.calls", "count"),
    ("colorings.random_coloring.s", "s"),
    ("colorings.read_coloring.s", "s"),
    ("colorings.recolored.calls", "count"),
    ("colorings.recolored.s", "s"),
    ("trees.verify_coloring.calls", "count"),
    ("trees.verify_coloring.s", "s"),
    ("trees.verify_coloring.self_s", "s"),
    ("trees.verify_coloring.ksets", "count"),
    ("trees.verify_coloring.ksets_per_self_s", "k-sets/s"),
    ("trees.max_disjoint_rainbow_trees.calls", "count"),
    ("trees.max_disjoint_rainbow_trees.s", "s"),
    ("trees.max_disjoint_rainbow_trees.call_p50_s", "s"),
    ("trees.family_size.sum", "count"),
    ("montecarlo.estimate_AS_all.calls", "count"),
    ("montecarlo.estimate_AS_all.self_s", "s"),
    ("montecarlo.empirical_threshold.self_s", "s"),
    ("bounds.union_bound_failure.calls", "count"),
    ("bounds.union_bound_failure.s", "s"),
    ("bounds.binomial_tail_below.s", "s"),
    ("search.find_coloring.s", "s"),
    ("search.find_coloring.self_s", "s"),
    ("search.evals", "count"),
    ("search.oracle_calls_per_eval", "ratio"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except cli.output_bytes and trace.overhead_ratio."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    values: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        exclusive[span.name] = exclusive.get(span.name, 0.0) + own
        if span.value is not None:
            values[span.name] = values.get(span.name, 0) + span.value
    oracle = "trees.max_disjoint_rainbow_trees"
    verify = "trees.verify_coloring"
    oracle_durations = [s.duration for s in spans if s.name == oracle]
    search_oracle_calls = sum(1 for i, s in enumerate(spans)
                              if s.name == oracle and _has_ancestor(spans, i, "search.find_coloring"))
    ksets = values.get(verify, 0)
    verify_self = exclusive.get(verify, 0.0)
    evals = values.get("search.find_coloring", 0)
    out = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "s":
            out[metric] = inclusive.get(layer, 0.0)
        elif stat == "self_s":
            out[metric] = exclusive.get(layer, 0.0)
    out.update({
        f"{verify}.ksets": ksets,
        f"{verify}.ksets_per_self_s": ksets / verify_self if verify_self > 0 else 0.0,
        f"{oracle}.call_p50_s": median(oracle_durations) if oracle_durations else 0.0,
        "trees.family_size.sum": values.get(oracle, 0),
        "search.evals": evals,
        "search.oracle_calls_per_eval": search_oracle_calls / evals if evals else 0.0,
    })
    return out
