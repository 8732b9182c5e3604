"""Constructive search for colorings certifying a (k, ell) demand.

Three strategies, all seeded and deterministic:

* random — rejection sampling: draw colorings until one verifies.
* exhaustive — scan the symmetry-broken enumeration in canonical order;
  exhausting it without a hit is a definitive nonexistence certificate.
* local — hill climb on the number of failing k-sets, single-edge
  recolor moves, random restarts on stalls. The certificate kernel
  scores every k-set on each move; in full mode with a resolved budget
  <= 1 a move on edge {u,v} sends only the short sets through u or v
  to the exact oracle, and the others keep their counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .colorings import (
    BudgetExceededError,
    CompleteGraphColoring,
    SeededStream,
    edge_pairs,
    enumerate_colorings,
    random_coloring,
)
from .trees import (
    DEFAULT_CANDIDATE_CAP,
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

    @property
    def definitive_nonexistence(self) -> bool:
        """Only an exhausted exhaustive scan refutes existence."""
        return self.exhausted and not self.found

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
    candidate_cap: int,
    reuse: Optional[tuple[dict, tuple[int, int]]] = None,
    decided: Optional[dict] = None,
) -> int:
    """Number of k-sets below demand; certificate first, exact oracle on misses.

    ``reuse`` and ``decided`` pass the exact-oracle counts from one coloring
    to the next, as ``_decided_chunks`` describes.
    """
    return sum(int((counts < ell).sum()) for _, counts in _decided_chunks(
        coloring, k, ell, mode, candidate_cap, False, False, reuse=reuse, decided=decided))


def find_coloring(
    n: int,
    k: int,
    ell: int,
    t: int,
    strategy: str,
    budget: int,
    seed: SeededStream,
    mode: OracleMode = OracleMode.star(),
    *,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
    enum_guard: int = 20_000_000,
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
        return _random_search(n, k, ell, t, budget, seed, mode, candidate_cap)
    if strategy == "exhaustive":
        return _exhaustive_search(n, k, ell, t, budget, mode, candidate_cap, enum_guard)
    return _local_search(n, k, ell, t, budget, seed, mode, candidate_cap)


def _random_search(n, k, ell, t, budget, seed, mode, cap) -> SearchResult:
    for attempt in range(budget):
        coloring = random_coloring(n, t, seed.substream(attempt))
        report = verify_coloring(coloring, k, ell, mode, candidate_cap=cap)
        if report.passed:
            return SearchResult(True, coloring, "random", attempt + 1)
    return SearchResult(False, None, "random", budget)


def _exhaustive_search(n, k, ell, t, budget, mode, cap, enum_guard) -> SearchResult:
    scanned = 0
    for coloring in enumerate_colorings(n, t, symmetry_breaking=True, max_states=enum_guard):
        if scanned >= budget:
            return SearchResult(False, None, "exhaustive", scanned, exhausted=False)
        scanned += 1
        report = verify_coloring(coloring, k, ell, mode, candidate_cap=cap)
        if report.passed:
            return SearchResult(True, coloring, "exhaustive", scanned)
    # Every color-permutation orbit was checked: no representative passes,
    # so no coloring at all does.
    return SearchResult(False, None, "exhaustive", scanned, exhausted=True)


def _local_search(n, k, ell, t, budget, seed, mode, cap) -> SearchResult:
    pairs = edge_pairs(n)
    evals = 0
    restart = 0
    while evals < budget:
        stream = seed.substream(restart)
        gen = stream.generator()
        coloring = random_coloring(n, t, stream.substream(0))
        decided: dict = {}  # the exact-oracle counts of the current coloring
        objective = _failing_sets(coloring, k, ell, mode, cap, decided=decided)
        evals += 1
        stall = 0
        while objective > 0 and evals < budget and stall < _STALL_LIMIT:
            u, v = pairs[int(gen.integers(len(pairs)))]
            shift = int(gen.integers(1, t)) if t > 1 else 0
            color = (coloring.color(u, v) - 1 + shift) % t + 1
            candidate = coloring.recolored(u, v, color)
            cand_decided: dict = {}
            cand_objective = _failing_sets(
                candidate, k, ell, mode, cap, (decided, (u, v)), cand_decided)
            evals += 1
            if cand_objective <= objective:
                stall = stall + 1 if cand_objective == objective else 0
                coloring, objective, decided = candidate, cand_objective, cand_decided
            else:
                stall += 1
        if objective == 0:
            report = verify_coloring(coloring, k, ell, mode, candidate_cap=cap)
            if report.passed:
                return SearchResult(True, coloring, "local", evals)
        restart += 1
    return SearchResult(False, None, "local", evals)
