"""Constructive search for colorings certifying a (k, ell) demand.

Three strategies, all seeded and deterministic:

* random — rejection sampling: draw colorings until one verifies.
* exhaustive — scan the symmetry-broken enumeration in canonical order;
  exhausting it without a hit refutes existence only under an exact
  oracle: full mode whose reach (``OracleMode.reach``) is that of every
  rainbow tree, min(n - k, t - k + 1) external vertices.
* local — hill climb on the number of failing k-sets, single-edge
  recolor moves, random restarts on stalls. Each restart decides every
  k-set as ``verify`` does: arrays decide star mode, and in full mode each
  set the certificate leaves short gets its exact count, from a closed
  form at k <= 3 with a reach of at most one external vertex and from the
  exact oracle otherwise. The walk keeps each set's rainbow stars,
  internal part and verdict, and a move re-decides only the sets it can
  change (``_Scores``).

The exact oracle's work cap (``trees.CANDIDATE_CAP``) and the exhaustive
scan's state-space cap (``colorings.ENUM_BUDGET``) are module constants;
past either, ``find_coloring`` raises BudgetExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .colorings import (
    CompleteGraphColoring,
    SeededStream,
    edge_pairs,
    enumerate_colorings,
    random_coloring,
)
from .trees import (
    OracleMode,
    _array_chunks,
    _decided_chunks,
    _exact_counts,
    _internal_packings,
    _rainbow_rows,
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
    """Number of k-sets below demand; certificate first, exact oracle on
    misses: the objective ``_Scores`` keeps, counted from scratch."""
    runs = _decided_chunks(coloring.array[None], coloring.t, k, ell, mode, False)
    return sum(int((counts < ell).sum()) for _, _, counts in runs)


def _combinations(m: int, r: int) -> np.ndarray:
    """The r-subsets of 0..m-1 in lexicographic order, one per row."""
    count = math.comb(m, r)
    return np.fromiter(chain.from_iterable(combinations(range(m), r)), dtype=np.intp, count=count * r).reshape(count, r)


class _Scores:
    """Every k-set's verdict on one coloring of K_n, kept across local-search
    moves: its rainbow stars, its internal part (the edge at k = 2, the
    triangle term at k = 3, the color-pattern packing at k >= 4) and
    whether it fails the demand ell, each a C(n,k) array in lexicographic
    order, with the objective, their count of failures.

    ``reset`` decides every set from the kernel, as ``verify`` does. A move
    on the edge {u, v} changes only the sets holding u or v. A set with one
    end keeps its internal part, and of its stars only the one centered at
    the other end can change. A set with both keeps its stars, as no
    external center's star uses the edge, and gets its internal part again.
    In full mode each of these sets the certificate (stars plus internal
    part) leaves below ell gets its exact count; when the reach is 2 or
    more, so does every other short set, as a tree with both ends outside
    the set can use the edge. ``rescore`` leaves the kept arrays as they are
    and ``commit`` stores its result once the move is taken.
    """

    def __init__(self, n: int, k: int, ell: int, t: int, mode: OracleMode):
        self.k, self.ell, self.mode = k, ell, mode
        self.far = mode.kind == "full" and mode.reach(n, k, t) >= 2
        self.sets = _combinations(n, k) + 1
        # row w - 1: the sets holding w, in lexicographic order, which is that of
        # their other members as (k-1)-subsets of the n - 1 vertices other than w
        self.holding = (np.argsort(self.sets.ravel(), kind="stable") // k).reshape(n, -1)
        rest = _combinations(n - 1, k - 1)
        member = np.zeros((n - 1, len(rest)), dtype=bool)
        member[rest.T, np.arange(len(rest))] = True
        # row j: the positions in a row of holding whose other members hold
        # vertex j (both ends), and those whose do not (one end alone)
        self.both, self.alone = member.nonzero()[1].reshape(n - 1, -1), (~member).nonzero()[1].reshape(n - 1, -1)
        self.ones = self.alone.shape[1]
        # a set with one end: its star centered at the other end, v for the first half
        self.second = np.repeat((False, True), self.ones)[:, None]
        self.pending = None

    def reset(self, coloring: CompleteGraphColoring) -> int:
        """Decide every k-set of ``coloring``; returns the objective."""
        k, colors = self.k, coloring.array
        chunks = [(stars, internal + _internal_packings(colors, sets - 1, sets - 1) if k > 3 else internal)
                  for _, sets, stars, internal in _array_chunks(colors[None], k, range(1, coloring.n - k + 2))]
        self.stars, self.internal = map(np.concatenate, zip(*chunks))
        self.fail = self._failing(coloring, self.sets, self.stars, self.stars + self.internal)
        self.objective = int(self.fail.sum())
        return self.objective

    def rescore(self, coloring: CompleteGraphColoring, candidate: CompleteGraphColoring, u: int, v: int) -> int:
        """The objective of ``candidate``, ``coloring`` (the kept one) with
        the edge {u, v}, u < v, recolored, from the sets the move can change."""
        ones, holding = self.ones, self.holding
        # among the vertices other than u, v is number v - 2; among those other than v, u is u - 1
        index = np.concatenate((holding[u - 1, self.alone[v - 2]], holding[v - 1, self.alone[u - 1]],
                                holding[u - 1, self.both[v - 2]]))
        sets = self.sets[index]
        stars, internal = self.stars[index], self.internal[index]
        centers, gathered = np.where(self.second, u - 1, v - 1), sets[:2 * ones] - 1
        rainbow = _rainbow_rows(np.concatenate((candidate.array[centers, gathered], coloring.array[centers, gathered])))
        stars[:2 * ones] += rainbow[:2 * ones].view(np.int8) - rainbow[2 * ones:].view(np.int8)
        ends = sets[2 * ones:] - 1
        internal[2 * ones:] = _internal_packings(candidate.array, ends, ends)
        if self.far:
            short = self.stars + self.internal < self.ell
            short[index] = False
            rest = short.nonzero()[0]
            index, sets = np.concatenate((index, rest)), np.concatenate((sets, self.sets[rest]))
            stars, internal = np.concatenate((stars, self.stars[rest])), np.concatenate((internal, self.internal[rest]))
        fail = self._failing(candidate, sets, stars, stars + internal)
        objective = self.objective - int(self.fail[index].sum()) + int(fail.sum())
        self.pending = index, stars, internal, fail, objective
        return objective

    def commit(self) -> None:
        """Keep the scores of the last ``rescore``: its candidate is taken."""
        index, stars, internal, fail, self.objective = self.pending
        self.stars[index], self.internal[index], self.fail[index] = stars, internal, fail

    def _failing(self, coloring, sets, stars, certificate) -> np.ndarray:
        """Whether each set fails: its certificate is below ell and, in full
        mode, so is its exact count."""
        fail = certificate < self.ell
        if self.mode.kind == "full" and fail.any():
            short = fail.nonzero()[0]
            ends = sets[short] - 1
            fail[short] = _exact_counts(coloring.array, coloring.t, ends, ends, stars[short], self.mode) < self.ell
        return fail


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
    scores = _Scores(n, k, ell, t, mode)
    evals = 0
    restart = 0
    while evals < budget:
        stream = seed.substream(restart)
        gen = stream.generator()
        coloring = random_coloring(n, t, stream.substream(0))
        objective = scores.reset(coloring)
        evals += 1
        stall = 0
        while objective > 0 and evals < budget and stall < _STALL_LIMIT:
            u, v = pairs[int(gen.integers(len(pairs)))]
            shift = int(gen.integers(1, t)) if t > 1 else 0
            color = (coloring.color(u, v) - 1 + shift) % t + 1
            candidate = coloring.recolored(u, v, color)
            cand_objective = scores.rescore(coloring, candidate, u, v)
            evals += 1
            if cand_objective <= objective:
                stall = stall + 1 if cand_objective == objective else 0
                scores.commit()
                coloring, objective = candidate, cand_objective
            else:
                stall += 1
        if objective == 0:
            report = verify_coloring(coloring, k, ell, mode)
            if report.passed:
                return SearchResult(True, coloring, "local", evals)
        restart += 1
    return SearchResult(False, None, "local", evals)
