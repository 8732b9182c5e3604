"""Constructive search for colorings certifying a (k, ell) demand.

Three strategies, all seeded and deterministic:

* random — rejection sampling: draw colorings until one verifies.
* exhaustive — scan the symmetry-broken enumeration in canonical order;
  exhausting it without a hit refutes existence only under an exact
  oracle: full mode whose reach (``OracleMode.reach``) is that of every
  rainbow tree, min(n - k, t - k + 1) external vertices.
* local — hill climb on the number of failing k-sets, single-edge
  recolor moves, random restarts on stalls. Each move is scored from
  scratch by the k-set scan, which counts every set below demand: arrays
  decide star mode, and in full mode each set the certificate leaves
  short gets its exact count, from a closed form at k <= 3 with a reach
  of at most one external vertex and from the exact oracle otherwise.

The exact oracle's work cap (``trees.CANDIDATE_CAP``) and the exhaustive
scan's state-space cap (``colorings.ENUM_BUDGET``) are module constants;
past either, ``find_coloring`` raises BudgetExceededError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .colorings import (
    CompleteGraphColoring,
    SeededStream,
    edge_pairs,
    enumerate_colorings,
    random_coloring,
)
from .trees import (
    OracleMode,
    _decided_chunks,
    max_disjoint_rainbow_trees,  # unused here; perfbench/tracing.py wraps it by this name
    verify_coloring,
)

__all__ = ["SearchResult", "find_coloring"]

STRATEGIES = ("random", "exhaustive", "local")

_STALL_LIMIT = 60


@dataclass(frozen=True)
class SearchResult:
    found: bool
    coloring: Optional[CompleteGraphColoring]
    strategy: str
    attempts: int
    exhausted: bool = False
    definitive_nonexistence: bool = False  # exhausted under an exact oracle

    def to_json_dict(self) -> dict:
        return {
            "found": self.found,
            "strategy": self.strategy,
            "attempts": self.attempts,
            "exhausted": self.exhausted,
            "definitive_nonexistence": self.definitive_nonexistence,
        }


def _failing_sets(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    mode: OracleMode,
) -> int:
    """Number of k-sets below demand; certificate first, exact oracle on misses."""
    return sum(int((counts < ell).sum()) for _, counts in _decided_chunks(coloring, k, ell, mode, False))


def find_coloring(
    n: int,
    k: int,
    ell: int,
    t: int,
    strategy: str,
    budget: int,
    seed: SeededStream,
    mode: OracleMode = OracleMode.star(),
) -> SearchResult:
    """Look for a coloring of K_n with t colors meeting demand ell on every k-set.

    ``budget`` counts colorings drawn (random), canonical colorings scanned
    (exhaustive), or objective evaluations (local). A found coloring is
    re-verified with ``mode`` before being returned.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, pick one of {STRATEGIES}")
    if budget < 1:
        raise ValueError("budget must be positive")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")

    if strategy == "random":
        return _random_search(n, k, ell, t, budget, seed, mode)
    if strategy == "exhaustive":
        return _exhaustive_search(n, k, ell, t, budget, mode)
    return _local_search(n, k, ell, t, budget, seed, mode)


def _random_search(n, k, ell, t, budget, seed, mode) -> SearchResult:
    for attempt in range(budget):
        coloring = random_coloring(n, t, seed.substream(attempt))
        report = verify_coloring(coloring, k, ell, mode)
        if report.passed:
            return SearchResult(True, coloring, "random", attempt + 1)
    return SearchResult(False, None, "random", budget)


def _exhaustive_search(n, k, ell, t, budget, mode) -> SearchResult:
    scanned = 0
    for coloring in enumerate_colorings(n, t):
        if scanned >= budget:
            return SearchResult(False, None, "exhaustive", scanned, exhausted=False)
        scanned += 1
        report = verify_coloring(coloring, k, ell, mode)
        if report.passed:
            return SearchResult(True, coloring, "exhaustive", scanned)
    # Every color-permutation orbit was checked: no representative passes,
    # so under an oracle that counts every tree no coloring at all does.
    return SearchResult(False, None, "exhaustive", scanned, exhausted=True,
                        definitive_nonexistence=mode.exact(n, k, t))


def _local_search(n, k, ell, t, budget, seed, mode) -> SearchResult:
    pairs = edge_pairs(n)
    evals = 0
    restart = 0
    while evals < budget:
        stream = seed.substream(restart)
        gen = stream.generator()
        coloring = random_coloring(n, t, stream.substream(0))
        objective = _failing_sets(coloring, k, ell, mode)
        evals += 1
        stall = 0
        while objective > 0 and evals < budget and stall < _STALL_LIMIT:
            u, v = pairs[int(gen.integers(len(pairs)))]
            shift = int(gen.integers(1, t)) if t > 1 else 0
            color = (coloring.color(u, v) - 1 + shift) % t + 1
            candidate = coloring.recolored(u, v, color)
            cand_objective = _failing_sets(candidate, k, ell, mode)
            evals += 1
            if cand_objective <= objective:
                stall = stall + 1 if cand_objective == objective else 0
                coloring, objective = candidate, cand_objective
            else:
                stall += 1
        if objective == 0:
            report = verify_coloring(coloring, k, ell, mode)
            if report.passed:
                return SearchResult(True, coloring, "local", evals)
        restart += 1
    return SearchResult(False, None, "local", evals)
