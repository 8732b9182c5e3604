"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths they check: packing by
unpruned subset recursion, tree enumeration by raw edge-subset filtering,
orbit counting by Burnside's lemma.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from rainbowindex import trees
from rainbowindex.colorings import CompleteGraphColoring
from rainbowindex.trees import STree, VertexSet, is_rainbow


def brute_force_stree_candidates(
    coloring: CompleteGraphColoring, terminals: VertexSet, max_external: int
) -> list[STree]:
    """Every rainbow S-tree with leaves in S and at most max_external extras,
    found by filtering raw edge subsets of K_n (no structured generation)."""
    n = coloring.n
    all_edges = list(combinations(range(1, n + 1), 2))
    terms = set(terminals.members)
    k = terminals.k
    found = []
    for size in range(k - 1, k + max_external):
        for subset in combinations(all_edges, size):
            vertices = {v for e in subset for v in e}
            if not terms <= vertices:
                continue
            if len(vertices) != size + 1:
                continue
            if len(vertices - terms) > max_external:
                continue
            try:
                tree = STree.from_edges(subset, terminals)
            except ValueError:
                continue
            if is_rainbow(tree, coloring):
                found.append(tree)
    return found


def brute_force_max_disjoint(trees: list[STree], terminals: VertexSet) -> int:
    """Maximum internally disjoint subfamily by plain subset recursion."""
    terms = set(terminals.members)

    def compatible(chosen: list[STree], tree: STree) -> bool:
        for other in chosen:
            if set(other.edges) & set(tree.edges):
                return False
            if (other.vertices & tree.vertices) - terms:
                return False
        return True

    best = 0

    def recurse(i: int, chosen: list[STree]) -> None:
        nonlocal best
        if i == len(trees):
            best = max(best, len(chosen))
            return
        recurse(i + 1, chosen)
        if compatible(chosen, trees[i]):
            chosen.append(trees[i])
            recurse(i + 1, chosen)
            chosen.pop()

    recurse(0, [])
    return best


def brute_force_array_count(coloring: CompleteGraphColoring, members: tuple[int, ...]) -> int:
    """The star certificate the k-set kernel computes for ``members``: every
    external center whose edges to the set carry k distinct colors, by a
    loop over centers, plus the internal trees it knows (the edge at k = 2,
    a rainbow 2-edge path at k = 3 unless the triangle is monochromatic,
    none at k >= 4)."""
    k = len(members)
    stars = sum(len({coloring.color(u, v) for v in members}) == k
                for u in range(1, coloring.n + 1) if u not in members)
    if k == 3:
        return stars + (len({coloring.color(u, v) for u, v in combinations(members, 2)}) > 1)
    return stars + (k == 2)


def burnside_orbit_count(m: int, t: int) -> int:
    """Orbits of t^m color sequences under color permutations, via Burnside."""
    total = 0
    for perm in permutations(range(1, t + 1)):
        fixed = sum(1 for i, image in enumerate(perm, start=1) if i == image)
        total += fixed ** m
    return total // math.factorial(t)


def permute_colors(coloring: CompleteGraphColoring, perm: dict[int, int]) -> CompleteGraphColoring:
    return CompleteGraphColoring(
        coloring.n, coloring.t, tuple(perm[c] for c in coloring.colors))


@pytest.fixture
def k4_example() -> CompleteGraphColoring:
    """K_4 with colors (1,2)=1 (1,3)=2 (1,4)=1 (2,3)=3 (2,4)=2 (3,4)=3."""
    return CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3))


def count_packings(monkeypatch) -> list:
    """Record the terminal set of every ``trees._max_packing`` call, taken from
    the candidate builder ``trees._candidates`` called just before it;
    returns the growing list."""
    built, packed = [], []
    real_candidates, real_max_packing = trees._candidates, trees._max_packing

    def recorded_candidates(members, *args):
        built.append(members)
        return real_candidates(members, *args)

    def counted_max_packing(*args):
        packed.append(built[-1])
        return real_max_packing(*args)

    monkeypatch.setattr(trees, "_candidates", recorded_candidates)
    monkeypatch.setattr(trees, "_max_packing", counted_max_packing)
    return packed


def record_tree_packings(monkeypatch) -> list:
    """Record ``(members, colors)`` of every ``trees._tree_packing`` call;
    returns the growing list. ``packed_on`` picks a coloring's own sets."""
    calls, real_tree_packing = [], trees._tree_packing

    def recorded_tree_packing(members, colors, budget):
        calls.append((members, colors))
        return real_tree_packing(members, colors, budget)

    monkeypatch.setattr(trees, "_tree_packing", recorded_tree_packing)
    return calls


def packed_on(calls: list, coloring: CompleteGraphColoring) -> list:
    """The sets of the recorded ``_tree_packing`` calls on ``coloring``'s own
    table, in call order: the kernels hand the oracle a view of a stack of
    tables that holds it, while the color-pattern table packs a k x k table
    of its own."""
    return [members for members, colors in calls if np.may_share_memory(colors, coloring.array)]
