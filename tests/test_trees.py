import math
import pickle
import random
import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex.colorings import (
    BudgetExceededError,
    CompleteGraphColoring,
    SeededStream,
    canonical_color_form,
    color_degrees,
    enumerate_colorings,
    random_coloring,
)
from rainbowindex import trees
from rainbowindex.trees import (
    DisjointFamily,
    OracleMode,
    STree,
    TreeClass,
    VertexSet,
    classify_stree,
    internal_tree_packing,
    is_rainbow,
    max_disjoint_rainbow_trees,
    rainbow_star_count,
    star_tree,
    verify_coloring,
)

from conftest import (
    brute_force_array_count,
    brute_force_max_disjoint,
    brute_force_stree_candidates,
    count_packings,
    packed_on,
    record_tree_packings,
)


# --- domain types -----------------------------------------------------------

def test_vertex_set_validation():
    assert VertexSet.of(3, 1, 2).members == (1, 2, 3)
    with pytest.raises(ValueError):
        VertexSet((1, 1, 2))
    with pytest.raises(ValueError):
        VertexSet((2, 1))
    with pytest.raises(ValueError):
        VertexSet((5,))
    with pytest.raises(ValueError):
        VertexSet((0, 1))


def test_stree_invariants():
    S = VertexSet.of(1, 2, 3)
    tree = STree.from_edges([(1, 2), (2, 3)], S)
    assert tree.vertices == frozenset({1, 2, 3})
    with pytest.raises(ValueError):  # cycle
        STree.from_edges([(1, 2), (2, 3), (1, 3)], S)
    with pytest.raises(ValueError):  # non-terminal leaf 4
        STree.from_edges([(1, 2), (2, 3), (3, 4)], S)
    with pytest.raises(ValueError):  # terminal 3 missing
        STree.from_edges([(1, 2)], S)


def test_star_tree_examples():
    assert star_tree(VertexSet.of(1, 2, 3), 4).edges == ((1, 4), (2, 4), (3, 4))
    assert star_tree(VertexSet.of(1, 2), 5).edges == ((1, 5), (2, 5))
    with pytest.raises(ValueError):
        star_tree(VertexSet.of(1, 2, 3), 2)


def test_is_rainbow():
    coloring = CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 3))
    S = VertexSet.of(1, 2)
    single = STree.from_edges([(1, 2)], S)
    assert is_rainbow(single, coloring)
    S3 = VertexSet.of(1, 2, 3)
    star = star_tree(S3, 4)  # colors 1, 2, 3
    assert is_rainbow(star, coloring)
    repeated = CompleteGraphColoring(4, 3, (1, 2, 1, 3, 2, 1))
    assert not is_rainbow(star, repeated)  # colors 1, 2, 2


def test_classify_stree():
    S = VertexSet.of(1, 2, 3)
    spanning = STree.from_edges([(1, 2), (2, 3)], S)
    assert classify_stree(spanning) is TreeClass.INTERNAL
    assert len(spanning.edges) == 2
    star = star_tree(S, 4)
    assert classify_stree(star) is TreeClass.EXTERNAL
    assert len(star.edges) == 3
    mixed = STree.from_edges([(1, 2), (2, 4), (3, 4)], S)
    assert classify_stree(mixed) is TreeClass.EXTERNAL
    assert len(mixed.edges) >= 3


def test_color_count_law_on_enumerated_candidates(k4_example):
    # internal rainbow trees use exactly k-1 colors, external ones at least k
    S = VertexSet.of(1, 2, 3)
    for tree in brute_force_stree_candidates(k4_example, S, max_external=1):
        colors = {k4_example.color(u, v) for u, v in tree.edges}
        assert len(colors) == len(tree.edges)
        if classify_stree(tree) is TreeClass.INTERNAL:
            assert len(colors) == S.k - 1
        else:
            assert len(colors) >= S.k


# --- star counting ----------------------------------------------------------

def test_rainbow_star_count_monochromatic():
    coloring = CompleteGraphColoring(6, 3, (1,) * 15)
    assert rainbow_star_count(VertexSet.of(1, 2, 3), coloring) == 0


def test_rainbow_star_count_k4_example(k4_example):
    assert rainbow_star_count(VertexSet.of(1, 2, 3), k4_example) == 1


def test_rainbow_star_count_no_externals():
    coloring = CompleteGraphColoring(3, 3, (1, 2, 3))
    assert rainbow_star_count(VertexSet.of(1, 2, 3), coloring) == 0


def test_star_count_mean_matches_binomial():
    # mean over samples within 3 standard errors of (n-k) * k!/k^k
    n, k, samples = 9, 3, 500
    p = 6 / 27
    stream = SeededStream(31)
    total = 0
    for i in range(samples):
        coloring = random_coloring(n, k, stream.substream(i))
        total += rainbow_star_count(VertexSet.of(1, 2, 3), coloring)
    mean = total / samples
    expected = (n - k) * p
    se = ((n - k) * p * (1 - p) / samples) ** 0.5
    assert abs(mean - expected) <= 3 * se


def test_all_stars_are_internally_disjoint():
    coloring = random_coloring(8, 3, SeededStream(12))
    S = VertexSet.of(2, 4, 6)
    stars = [star_tree(S, u) for u in range(1, 9) if u not in S]
    rainbow = tuple(t for t in stars if is_rainbow(t, coloring))
    DisjointFamily(S, rainbow, coloring)  # must not raise


# --- disjoint families ------------------------------------------------------

def test_family_validation_rejects_shared_edge(k4_example):
    S = VertexSet.of(1, 2, 3)
    a = STree.from_edges([(1, 2), (1, 3)], S)
    b = STree.from_edges([(1, 2), (2, 3)], S)
    with pytest.raises(ValueError):
        DisjointFamily(S, (a, b), k4_example)


def test_family_validation_rejects_shared_external_vertex(k4_example):
    S = VertexSet.of(1, 2, 3)
    star = star_tree(S, 4)
    mixed = STree.from_edges([(1, 2), (2, 4), (3, 4)], S)
    with pytest.raises(ValueError):
        DisjointFamily(S, (star, mixed), k4_example)


def test_family_validation_rejects_non_rainbow():
    coloring = CompleteGraphColoring(4, 3, (1,) * 6)
    S = VertexSet.of(1, 2, 3)
    with pytest.raises(ValueError):
        DisjointFamily(S, (star_tree(S, 4),), coloring)


def test_family_validity_is_order_independent(k4_example):
    S = VertexSet.of(1, 2, 3)
    _, family = max_disjoint_rainbow_trees(S, k4_example, OracleMode.full(1))
    trees = list(family.trees)
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(trees)
        DisjointFamily(S, tuple(trees), k4_example)  # must not raise


def _oracle_families():
    """(coloring, family) pairs from the oracle: the oracle-full inputs (K_8,
    28 colors, S = {1,2,3}) in full mode at budgets 2 and 1 and in star
    mode, then the internal packing and budget 2 on every 4-set of a K_7."""
    S = VertexSet.of(1, 2, 3)
    for seed in range(12):
        coloring = random_coloring(8, 28, SeededStream(seed))
        for mode in (OracleMode.full(2), OracleMode.full(1), OracleMode.star()):
            yield coloring, max_disjoint_rainbow_trees(S, coloring, mode)[1]
    coloring = random_coloring(7, 6, SeededStream(5))
    for members in combinations(range(1, 8), 4):
        yield coloring, internal_tree_packing(VertexSet(members), coloring)
        yield coloring, max_disjoint_rainbow_trees(VertexSet(members), coloring, OracleMode.full(2))[1]


def test_oracle_families_equal_their_validated_rebuilds():
    # the oracle builds its families without the validators; rebuilt through
    # them, every tree and family must pass and compare, hash and pickle equal
    external_counts = set()
    for coloring, family in _oracle_families():
        S = family.terminal_set
        trees_checked = tuple(STree.from_edges(tree.edges, S) for tree in family.trees)
        checked = DisjointFamily(S, trees_checked, coloring)
        assert trees_checked == family.trees
        assert [hash(tree) for tree in trees_checked] == [hash(tree) for tree in family.trees]
        assert checked == family and hash(checked) == hash(family)
        assert pickle.loads(pickle.dumps(family)) == checked
        external_counts.update(len(tree.vertices) - S.k for tree in family.trees)
    assert external_counts == {0, 1, 2}  # internal trees, stars and two-external trees


def test_oracle_runs_no_validator_that_callers_still_run(monkeypatch):
    calls = []

    def counted(check):
        def run(*args):
            calls.append(args)
            return check(*args)
        return run

    for cls in (STree, DisjointFamily):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
    monkeypatch.setattr(trees, "is_rainbow", counted(trees.is_rainbow))
    assert sum(len(family) for _, family in _oracle_families()) > 0
    assert calls == []
    with pytest.raises(ValueError, match="cycle"):
        STree(frozenset({1, 2, 3, 4}), ((1, 2), (1, 3), (2, 3)), VertexSet.of(1, 2, 3))
    assert len(calls) == 1


# --- internal packing -------------------------------------------------------

def test_internal_packing_rainbow_triangle():
    coloring = CompleteGraphColoring(3, 3, (1, 2, 3))
    family = internal_tree_packing(VertexSet.of(1, 2, 3), coloring)
    assert len(family) == 1
    assert len(family.trees[0].edges) == 2


def test_internal_packing_monochromatic_triangle():
    coloring = CompleteGraphColoring(3, 3, (1, 1, 1))
    assert len(internal_tree_packing(VertexSet.of(1, 2, 3), coloring)) == 0


def test_internal_packing_k4_reaches_floor_k_halves():
    # trees {12,23,34} and {13,14,24} are edge-disjoint and both rainbow
    coloring = CompleteGraphColoring(4, 3, (1, 3, 1, 2, 2, 3))
    family = internal_tree_packing(VertexSet.of(1, 2, 3, 4), coloring)
    assert len(family) == 2


def test_internal_packing_never_exceeds_floor_k_halves():
    stream = SeededStream(77)
    for i in range(60):
        coloring = random_coloring(6, 4, stream.substream(i))
        for members in combinations(range(1, 7), 4):
            family = internal_tree_packing(VertexSet(members), coloring)
            assert len(family) <= 2


# --- exact oracle -----------------------------------------------------------

def test_max_disjoint_k4_worked_example(k4_example):
    S = VertexSet.of(1, 2, 3)
    value, family = max_disjoint_rainbow_trees(S, k4_example, OracleMode.full(1))
    assert value == 2
    assert len(family) == 2
    # deterministic witness, lexicographically least by sorted edge lists
    again_value, again = max_disjoint_rainbow_trees(S, k4_example, OracleMode.full(1))
    assert again_value == value
    assert [t.edges for t in again.trees] == [t.edges for t in family.trees]


def test_max_disjoint_monochromatic_is_zero():
    coloring = CompleteGraphColoring(5, 3, (1,) * 10)
    value, family = max_disjoint_rainbow_trees(
        VertexSet.of(1, 2, 3), coloring, OracleMode.full(1))
    assert value == 0
    assert len(family) == 0


# (n, t, seed, colorings, terminal sets) with budget 2; the K_6 cases give
# up to about 100 candidates, where the clique-cover bound prunes.
BRUTE_FORCE_CASES = [
    (5, 3, 55, 25, [(1, 2, 3), (2, 3, 5), (1, 4, 5)]),
    (6, 5, 56, 3, [(1, 2, 3), (2, 4, 6)]),
    (6, 6, 57, 3, [(1, 2, 3, 4), (2, 3, 5, 6)]),
]


def test_max_disjoint_matches_brute_force():
    for n, t, seed, count, sets in BRUTE_FORCE_CASES:
        stream = SeededStream(seed)
        for i in range(count):
            coloring = random_coloring(n, t, stream.substream(i))
            for members in sets:
                S = VertexSet(members)
                value, family = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(2))
                candidates = brute_force_stree_candidates(coloring, S, max_external=2)
                assert value == brute_force_max_disjoint(candidates, S)
                assert len(family) == value


def test_full_oracle_packs_thousands_of_candidates():
    # 2,312 candidates: past the depth a per-candidate recursion can reach
    coloring = random_coloring(9, 9, SeededStream(3))
    S = VertexSet.of(1, 2, 3, 4)
    value, family = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(3))
    star_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.star())
    DisjointFamily(S, family.trees, coloring)  # re-validates the witness
    assert value == len(family) >= star_value


def _subset_scan_trees(vertices, mat):
    """The former enumerator: every (m-1)-edge subset of K[vertices], kept when
    rainbow, spanning and acyclic; yields (edges, bitmask of degree >= 2 vertices)."""
    records = [((u, v), 1 << mat[u][v], 1 << u | 1 << v) for u, v in combinations(vertices, 2)]
    covered = sum(1 << v for v in vertices)
    for subset in combinations(records, len(vertices) - 1):
        colors = once = twice = 0
        for _, color, ends in subset:
            if colors & color:
                break
            colors |= color
            twice |= once & ends
            once |= ends
        else:
            edges = tuple(edge for edge, _, _ in subset)
            if once == covered and trees._is_acyclic(vertices, edges):
                yield edges, twice


def _candidate_trees(members, coloring, budget):
    keys, _, labels, pairs = trees._candidates(members, coloring.array, budget)
    return trees._decoded(keys, labels, pairs)


def _full_count(members, coloring, mode):
    """A k-set's full-mode count: the rows the oracle core chooses on the mode's reach."""
    reach = mode.reach(coloring.n, len(members), coloring.t)
    return len(trees._tree_packing(tuple(members), coloring.array, reach)[0])


def _witness(members, coloring, mode):
    """The public oracle's witness family as ``(edges, external)`` tuples."""
    _, family = max_disjoint_rainbow_trees(VertexSet(tuple(members)), coloring, mode)
    return [(tree.edges, tuple(sorted(tree.vertices.difference(members)))) for tree in family.trees]


def test_candidate_table_matches_the_subset_scan():
    # the same trees in the same order (edge count, then sorted edges): for
    # each set of r <= budget external vertices, the rainbow trees on it and
    # the terminals in which every external vertex branches
    rng = random.Random(11)
    stream = SeededStream(12)
    for k in range(2, 8):
        for budget in range(8 - k):
            m = k + budget
            n = m + (m < 7)
            for t in (1, 2, m + 1, 4 * m):
                coloring = random_coloring(n, t, stream.substream(m * 100 + t))
                mat = [[]] + [[0] + row for row in coloring.array.tolist()]
                members = tuple(sorted(rng.sample(range(1, n + 1), k)))
                others = [v for v in range(1, n + 1) if v not in members]
                expected = []
                for r in range(budget + 1):
                    for extra in combinations(others, r):
                        branching = sum(1 << v for v in extra)
                        vertices = tuple(sorted(members + extra))
                        expected += [(edges, extra) for edges, twice in _subset_scan_trees(vertices, mat)
                                     if not branching & ~twice]
                expected.sort(key=lambda tree: (len(tree[0]), tree[0]))
                assert _candidate_trees(members, coloring, budget) == expected


def test_tree_shapes_are_the_spanning_trees_whose_upper_vertices_branch():
    # _tree_shapes(m, k) decodes the Prüfer sequences that hold each of the
    # r = m - k vertices from k up, sum_j (-1)^j C(r, j) (m - j)^(m-2) of
    # them (600 of 16,807 at m = 7, k = 3); each row is a distinct spanning
    # tree of K_m, found by union-find, where those vertices end at least
    # two edges
    for m in range(2, 9):
        ends = np.array(list(combinations(range(m), 2)))
        for k in range(2, m + 1):
            r, shapes = m - k, trees._tree_shapes(m, k)
            assert len(shapes) == sum((-1) ** j * math.comb(r, j) * (m - j) ** (m - 2) for j in range(r + 1))
            assert shapes.shape[1] == m - 1 and (np.diff(shapes.astype(int), axis=1) > 0).all()
            assert len(np.unique((1 << shapes.astype(np.int64)).sum(axis=1))) == len(shapes)  # distinct edge sets
            rows = np.arange(len(shapes))
            parent = np.tile(np.arange(m), (len(shapes), 1))
            for a, b in ends[shapes.T].transpose(0, 2, 1):  # each edge column: one union per row
                for _ in range(m):
                    a, b = parent[rows, a], parent[rows, b]
                assert (a != b).all()  # m - 1 edges and no cycle: a spanning tree
                parent[rows, a] = b
            for v in range(k, m):
                assert ((ends[shapes] == v).sum(axis=(1, 2)) >= 2).all()
    assert len(trees._tree_shapes(7, 3)) == 600 and len(trees._tree_shapes(8, 3)) == 3960


def test_packing_matches_brute_force_over_k():
    # seeded instances at k = 2..5, star mode and full budgets 1..3, against
    # the maximum over raw edge subsets; palettes of k - 1 or k colors cap
    # the external vertices a rainbow tree can hold below the budget
    rng = random.Random(19)
    stream = SeededStream(19)
    for case in range(40):
        k = 2 + case % 4
        n = rng.randint(k + 1, 6)
        t = rng.choice((k - 1, k, k + 1, k + 3))
        coloring = random_coloring(n, t, stream.substream(case))
        S = VertexSet(tuple(sorted(rng.sample(range(1, n + 1), k))))
        for mode in (OracleMode.star(), OracleMode.full(rng.randint(1, min(3, n - k)))):
            candidates = brute_force_stree_candidates(coloring, S, max_external=mode.budget or 1)
            if mode.kind == "star":  # internal trees and stars only
                candidates = [tree for tree in candidates if len(tree.vertices) == k
                              or len(tree.edges) == k == len(tree.vertices) - 1
                              and len(set.intersection(*map(set, tree.edges))) == 1]
            value, _ = max_disjoint_rainbow_trees(S, coloring, mode)
            assert value == brute_force_max_disjoint(candidates, S)
            if mode.kind == "full":
                assert _full_count(S.members, coloring, mode) == value


def test_witness_is_lexicographically_least_maximum(k4_example):
    stream = SeededStream(58)
    instances = [(k4_example, 1)] + [
        (random_coloring(6, 5, stream.substream(i)), 2) for i in range(3)]
    for coloring, budget in instances:
        _check_witness_is_least_maximum(coloring, VertexSet.of(1, 2, 3), budget)


def _check_witness_is_least_maximum(coloring, S, budget):
    value, family = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(budget))
    # trees are ordered by edge count, then by sorted edge list
    key = tuple((len(t.edges), t.edges) for t in family.trees)
    # enumerate every maximum family by brute force and compare keys
    candidates = brute_force_stree_candidates(coloring, S, max_external=budget)
    candidates.sort(key=lambda t: (len(t.edges), t.edges))
    terms = set(S.members)

    def compatible(chosen, tree):
        return all(
            not (set(other.edges) & set(tree.edges))
            and not ((other.vertices & tree.vertices) - terms)
            for other in chosen)

    best_keys = []

    def recurse(i, chosen):
        if len(chosen) == value:
            best_keys.append(tuple((len(t.edges), t.edges) for t in chosen))
            return
        if i == len(candidates):
            return
        if compatible(chosen, candidates[i]):
            recurse(i + 1, chosen + [candidates[i]])
        recurse(i + 1, chosen)

    recurse(0, [])
    assert best_keys and key == min(best_keys)


def test_star_mode_never_exceeds_full_mode():
    stream = SeededStream(91)
    for i in range(40):
        coloring = random_coloring(6, 3, stream.substream(i))
        for members in [(1, 2, 3), (2, 4, 6), (3, 5, 6)]:
            S = VertexSet(members)
            star_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.star())
            full_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(1))
            wide_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(3))
            assert star_value <= full_value <= wide_value


def test_star_mode_value_is_packing_plus_stars():
    stream = SeededStream(14)
    for i in range(40):
        coloring = random_coloring(7, 3, stream.substream(i))
        S = VertexSet.of(1, 3, 5)
        value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.star())
        assert value == len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)


def _packing_keys(candidates):
    """Branch-and-bound keys of ``(edges, external)`` tuples: each edge and
    each external vertex gets the next free number, and rows are padded
    with -1; a tree's class key is that of its least external vertex, or
    for an internal tree of its least edge."""
    numbers = {}
    keys = [[numbers.setdefault(key, len(numbers)) for key in edges + external] for edges, external in candidates]
    width = max(map(len, keys), default=1)
    least = [numbers[external[0] if external else edges[0]] for edges, external in candidates]
    return np.array([row + [-1] * (width - len(row)) for row in keys]).reshape(-1, width), np.array(least)


def test_rainbow_rows_match_a_set_reference():
    # true exactly where a row's least entry is positive and its entries are
    # pairwise distinct: widths 1..8, both dtypes the kernels pass, zeros,
    # the 1 << 40 pads of _candidates and an empty middle axis (mc bs, m = 0)
    rng = np.random.default_rng(19)
    hits = misses = 0
    for width in range(1, 9):
        for dtype in (np.uint8, np.int64):
            for shape in ((60, width), (4, 9, width), (3, 0, width)):
                colors = rng.integers(0, 2 * width + 1, size=shape).astype(dtype)
                if dtype is np.int64:
                    colors = np.where(rng.random(shape) < 0.2, (1 << 40) + np.arange(width), colors)
                rows = colors.reshape(-1, width).tolist()
                expected = [min(row) > 0 and len(set(row)) == width for row in rows]
                got = trees._rainbow_rows(colors)
                assert got.dtype == bool and got.shape == shape[:-1]
                assert got.ravel().tolist() == expected
                hits += sum(expected)
                misses += len(expected) - sum(expected)
    assert hits > 100 and misses > 100


def test_internal_packing_bound_keeps_the_least_family():
    # the search for internal trees stops once it holds floor(k/2) of them;
    # on 300 seeded 6-color patterns of K_4..K_6 it picks the unbounded
    # search's family, and on many of them it does stop there
    stream = SeededStream(61)
    stopped = 0
    for case in range(300):
        k = 4 + case % 3
        coloring = random_coloring(k, 6, stream.substream(case))
        keys, least, _, _ = trees._candidates(tuple(range(1, k + 1)), coloring.array, 0)
        family = trees._max_packing(keys, least, k // 2)
        assert family == trees._max_packing(keys, least)
        stopped += len(family) == k // 2
    assert stopped > 100
    # in full mode each tree besides the at most floor(k/2) internal ones owns
    # an external vertex, so k // 2 + n - k bounds the family: on 20-30-color
    # colorings of K_6..K_9 and terminal sets without vertex 1 the bounded
    # search picks the unbounded one's family, and often stops at the bound;
    # at budget 2 the oracle, which first searches the trees with at most one
    # external vertex, returns that family too
    stopped = 0
    for case in range(48):
        n, k, budget = 6 + case % 4, 3 + case % 2, 1 + case // 24
        coloring = random_coloring(n, 20 + case % 11, stream.substream(300 + case))
        members = tuple(sorted((stream.substream(400 + case).generator()
                                .choice(n - 1, k, replace=False) + 2).tolist()))
        keys, least, labels, pairs = trees._candidates(members, coloring.array, budget)
        family = trees._max_packing(keys, least, k // 2 + n - k)
        assert family == trees._max_packing(keys, least)
        assert _witness(members, coloring, OracleMode.full(budget)) == trees._decoded(keys[family], labels, pairs)
        stopped += len(family) == k // 2 + n - k
    assert stopped > 20


def test_full_oracle_falls_back_when_the_one_external_trees_fall_short():
    # on these 10-colorings of K_8 the rainbow stars leave the bound
    # k // 2 + n - k = 5 within reach at k = 5, so the trees with at most one
    # external vertex are searched first; they fall short, and the least
    # maximum family of the whole budget holds a tree with two
    members, budget = (1, 2, 3, 4, 5), 2
    for seed in (70, 91, 125, 149):
        coloring = random_coloring(8, 10, SeededStream(seed))
        colors = coloring.array
        assert len(trees._rainbow_centers(members, colors)) >= 8 - 5 - 2
        keys, least, labels, pairs = trees._candidates(members, colors, budget)
        expected = trees._decoded(keys[trees._max_packing(keys, least)], labels, pairs)
        assert len(expected) < 5 and any(len(external) == 2 for _, external in expected)
        assert _witness(members, coloring, OracleMode.full(budget)) == expected
        assert _full_count(members, coloring, OracleMode.full(budget)) == len(expected)


def test_star_mode_family_matches_the_search_over_stars():
    # the branch and bound over internal trees and stars together, in candidate
    # order, picks the same least maximum family as the internal search alone
    stream = SeededStream(15)
    case = 0
    for n, t in product((4, 6, 8), (1, 2, 3, 5, 9)):
        coloring = random_coloring(n, t, stream.substream(case))
        case += 1
        for k in range(2, min(n, 5) + 1):
            for members in list(combinations(range(1, n + 1), k))[::5]:
                S = VertexSet(members)
                stars = [star_tree(S, u) for u in range(1, n + 1) if u not in members]
                candidates = sorted(_candidate_trees(members, coloring, 0)
                                    + [(star.edges, tuple(star.vertices.difference(members)))
                                       for star in stars if is_rainbow(star, coloring)],
                                    key=lambda tree: (len(tree[0]), tree[0]))
                expected = [candidates[i] for i in trees._max_packing(*_packing_keys(candidates))]
                assert _witness(members, coloring, OracleMode.star()) == expected


def test_certificate_soundness_exhaustive_k4():
    # star certificate <= full oracle on every canonical coloring of K_4
    for coloring in enumerate_colorings(4, 3):
        for members in combinations(range(1, 5), 3):
            S = VertexSet(members)
            cert = len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)
            full_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(1))
            assert cert <= full_value


def test_certificate_soundness_exhaustive_k5_two_colors():
    for coloring in enumerate_colorings(5, 2):
        for members in combinations(range(1, 6), 3):
            S = VertexSet(members)
            cert = len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)
            full_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(2))
            assert cert <= full_value


def test_oracle_budget_cap(monkeypatch):
    coloring = random_coloring(9, 3, SeededStream(1))
    with monkeypatch.context() as patch, pytest.raises(BudgetExceededError) as err:
        patch.setattr(trees, "CANDIDATE_CAP", 10)
        max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), coloring, OracleMode.full(3))
    assert err.value.size > 10
    # K_10 has 10^8 spanning trees: past the cap, so no shape table is built
    # (with fewer than 9 colors no tree is rainbow and none is needed)
    rainbow = CompleteGraphColoring(10, 45, tuple(range(1, 46)))
    with pytest.raises(BudgetExceededError) as err:
        internal_tree_packing(VertexSet(tuple(range(1, 11))), rainbow)
    assert err.value.size == 10 ** 8
    three = random_coloring(10, 3, SeededStream(1))
    assert len(internal_tree_packing(VertexSet(tuple(range(1, 11))), three)) == 0
    # the cap prices the trees the table holds: for each r up to the reach,
    # C(n - 3, r) times the spanning trees of K_{3+r} where none of the r
    # other vertices is a leaf. On K_12, 5 colors stop budget 4 at a reach of
    # 3 (10,002 trees), and with 7 colors budget 5 reaches r = 5 (584,562
    # trees, within the cap; it was refused when priced at every spanning
    # tree, 35,261,337); on K_13, 8 colors let budget 6 reach r = 6, and
    # 7,488,433 trees
    five = random_coloring(12, 5, SeededStream(2))
    value, _ = max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), five, OracleMode.full(4))
    assert value == 9
    seven = random_coloring(12, 7, SeededStream(2))
    value, family = max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), seven, OracleMode.full(5))
    assert value == 10  # floor(3/2) internal trees plus one per other vertex: the bound
    DisjointFamily(family.terminal_set, family.trees, seven)
    eight = random_coloring(13, 8, SeededStream(2))
    with pytest.raises(BudgetExceededError) as err:
        max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), eight, OracleMode.full(6))
    assert err.value.size == 7_488_433


def test_price_is_the_row_count_of_the_candidate_table(monkeypatch):
    # the price counts the leaf-pruned trees the table holds, no more: with a
    # cap of 0 every call is refused, and the refusal names the price
    for n, k, budget, t in [(5, 2, 3, 9), (6, 3, 3, 9), (8, 3, 4, 9), (9, 3, 5, 9), (7, 4, 3, 9),
                            (8, 5, 2, 9), (6, 4, 2, 3), (7, 3, 3, 4)]:
        reach = OracleMode.full(budget).reach(n, k, t)
        rows = len(trees._candidate_table(n, k, reach)[1])
        with monkeypatch.context() as patch, pytest.raises(BudgetExceededError) as err:
            patch.setattr(trees, "CANDIDATE_CAP", 0)
            trees._priced_reach(OracleMode.full(budget), n, k, t)
        assert err.value.size == rows, (n, k, reach)


def test_one_cap_governs_the_shape_tables(monkeypatch):
    # the constant that prices a full-mode call also refuses shape tables:
    # a rainbow K_5 needs the 5^3 = 125 spanning trees of K_5
    rainbow = CompleteGraphColoring(5, 10, tuple(range(1, 11)))
    terminals = VertexSet(tuple(range(1, 6)))
    for cached in (trees._tree_shapes, trees._candidate_table):
        cached.cache_clear()  # tables built earlier were checked against the real cap
    monkeypatch.setattr(trees, "CANDIDATE_CAP", 100)
    with pytest.raises(BudgetExceededError) as err:
        internal_tree_packing(terminals, rainbow)
    assert err.value.size == 125
    monkeypatch.setattr(trees, "CANDIDATE_CAP", 125)
    assert len(internal_tree_packing(terminals, rainbow)) == 2


def test_packing_matches_the_public_oracle():
    # the oracle core's undecoded rows are the public witness family, tree
    # for tree, followed in star mode by the rainbow stars
    stream = SeededStream(23)
    modes = [OracleMode.star(), OracleMode.full(1), OracleMode.full(2), OracleMode.full()]
    case = 0
    for n, k in [(4, 2), (5, 3), (7, 3), (8, 4), (7, 5)]:
        for t in (1, 2, 3, 6):
            coloring = random_coloring(n, t, stream.substream(case))
            case += 1
            for members in list(combinations(range(1, n + 1), k))[::3]:
                for mode in modes:
                    budget = 0 if mode.kind == "star" else mode.reach(n, k, t)
                    chosen = trees._decoded(*trees._tree_packing(members, coloring.array, budget))
                    value, family = max_disjoint_rainbow_trees(VertexSet(members), coloring, mode)
                    stars = rainbow_star_count(VertexSet(members), coloring) if mode.kind == "star" else 0
                    assert len(chosen) + stars == value
                    assert [edges for edges, _ in chosen] == [tree.edges for tree in family.trees[:len(chosen)]]


def _full_counts(coloring, k, mode):
    """Every k-set's full-mode count from the per-set decision, in lexicographic order."""
    return [count for _, sets, counts in trees._decided_chunks(coloring.array[None], coloring.t, k, 0, mode, True)
            for count in counts.tolist()]


def test_closed_form_triple_counts_match_the_packing(monkeypatch):
    # budget 1 at k = 3: stars plus the center matching or a path, on every
    # triple, with the default slices and with one set per slice
    stream = SeededStream(41)
    case = 0
    for n in range(3, 13):
        for t in sorted({1, 2, 3, 5, 8, math.comb(n, 2)}):
            coloring = random_coloring(n, t, stream.substream(case))
            case += 1
            expected = [_full_count(members, coloring, OracleMode.full(1))
                        for members in combinations(range(1, n + 1), 3)]
            for elements in (trees._CHUNK_ELEMENTS, 1):
                monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", elements)
                assert _full_counts(coloring, 3, OracleMode.full(1)) == expected
                assert _full_counts(coloring, 3, OracleMode.full()) == expected


def test_excess_table_matches_brute_force_matchings():
    # entry p + sum_j 8 * 4^(7-j) * d_j: d_j centers (capped at 3) can use
    # the internal edges in mask j (bit q: the edge opposite terminal q), and
    # bit q of p says the internal path centered at terminal q is rainbow.
    # Every entry against the largest assignment of edges to distinct
    # centers that can use them, and the path term from its definition.
    table = trees._excess_table()
    assert table.shape == (4 ** 7 * 8,) and table.dtype == np.uint8
    index = np.arange(len(table))
    digits = np.stack([index >> (3 + 2 * (7 - j)) & 3 for j in range(1, 8)], axis=1)
    matched = np.zeros(len(table), dtype=np.int64)
    # each edge goes to no center (0) or to a center whose mask holds it
    for assignment in product(*[[0] + [j for j in range(1, 8) if j >> q & 1] for q in range(3)]):
        need = np.bincount(assignment, minlength=8)[1:]
        matched = np.maximum(matched, need.sum() * (digits >= need).all(axis=1))
    expected = matched
    for q in range(3):
        can_use = digits[:, [j - 1 for j in range(1, 8) if j >> q & 1]].sum(axis=1) > 0
        expected = np.maximum(expected, (index >> q & 1) * (1 + can_use))
    assert np.array_equal(table, expected)


def test_closed_form_wherever_the_palette_caps_the_budget(monkeypatch):
    # with 3 colors a rainbow tree of a triple holds at most one external
    # vertex, so every budget from 2 to n - k takes the closed form: its
    # counts equal the branch and bound's, and no set of the scan is packed
    stream = SeededStream(47)
    for n in range(5, 9):
        coloring = random_coloring(n, 3, stream.substream(n))
        for budget in range(2, n - 2):
            mode = OracleMode.full(budget)
            expected = [_full_count(members, coloring, mode) for members in combinations(range(1, n + 1), 3)]
            with monkeypatch.context() as patch:
                calls = record_tree_packings(patch)
                assert trees._closed_form(3, mode, n, coloring.t)
                assert _full_counts(coloring, 3, mode) == expected
            assert calls == []
    # the work cap prices the reach, not the budget: at budget 3 a triple of
    # K_40 prices the 3 + 16 * 37 trees of budget 1, and the verdict is its
    coloring = random_coloring(40, 3, SeededStream(1))
    report = verify_coloring(coloring, 3, 100, OracleMode.full(3))
    assert (report.passed, report.witness, report.witness_count) == (False, (1, 2, 3), 11)
    assert replace(report, mode=OracleMode.full(1)) == verify_coloring(coloring, 3, 100, OracleMode.full(1))


def test_full_counts_equal_brute_force_wherever_the_reach_is_exact():
    # every budget of every small case: where the budget does not cut the
    # reach, the full-mode counts are those of every rainbow tree, found by
    # filtering edge subsets; with 4 colors on K_6 budget 1 stops short of
    # the trees with two external vertices, and a count differs
    cases = [(n, t, random_coloring(n, t, SeededStream(10 * n + t).substream(i)))
             for n in (4, 5) for t in (1, 2, 3, 4) for i in (0, 1)]
    cases += [(6, t, random_coloring(6, t, SeededStream(60 + t))) for t in (1, 2, 3, 4)]
    # all 203 colorings of K_4 up to color renaming, the set partitions of its
    # 6 edges (Bell(6)): every case of the closed form's two-color rule
    cases += [(4, 6, coloring) for coloring in enumerate_colorings(4, 6)]
    for n, t, coloring in cases:
        expected = [brute_force_max_disjoint(brute_force_stree_candidates(coloring, VertexSet(S), n - 3), VertexSet(S))
                    for S in combinations(range(1, n + 1), 3)]
        for budget in range(1, n - 2):
            mode = OracleMode.full(budget)
            counts = verify_coloring(coloring, 3, 0, mode, per_set_counts=True).per_set_counts[:, -1].tolist()
            assert mode.exact(n, 3, t) <= (counts == expected), (n, t, budget)
            if (n, t, budget) == (6, 4, 1):
                assert not mode.exact(n, 3, t) and counts != expected


def test_relabelled_colors_keep_every_count():
    # colors shifted by 2^40 - 1 reach the pad colors of the candidate rows,
    # colors past 2^53 are no longer exact as floats, and a palette past 2^64
    # makes an object table: no count may change
    for n, t, k, full in ((7, 6, 4, OracleMode.full(3)), (6, 4, 3, OracleMode.full(2))):
        coloring = random_coloring(n, t, SeededStream(0))
        for shift in (2 ** 40 - 1, 2 ** 53, 2 ** 64):
            shifted = CompleteGraphColoring(n, t + shift, tuple(c + shift for c in coloring.colors))
            for mode in (OracleMode.star(), full):
                assert np.array_equal(verify_coloring(shifted, k, 0, mode, per_set_counts=True).per_set_counts,
                                      verify_coloring(coloring, k, 0, mode, per_set_counts=True).per_set_counts)
            for members in combinations(range(1, n + 1), k):
                for budget in range(full.budget + 1):
                    assert (len(trees._candidates(members, shifted.array, budget)[0])
                            == len(trees._candidates(members, coloring.array, budget)[0]))


def test_full_budget_one_pairs_are_the_certificate():
    # at k = 2 the budget-1 candidates are the edge ab and the paths a-x-b,
    # which are exactly the certificate's internal tree and rainbow stars
    stream = SeededStream(43)
    for case, (n, t) in enumerate(product(range(2, 10), (1, 2, 3, 7))):
        coloring = random_coloring(n, t, stream.substream(case))
        certificate = verify_coloring(coloring, 2, 0, per_set_counts=True).per_set_counts
        assert _full_counts(coloring, 2, OracleMode.full(1)) == [count for *_, count in certificate.tolist()]
        assert [count for *_, count in certificate.tolist()] == [
            _full_count(members, coloring, OracleMode.full(1)) for *members, _ in certificate.tolist()]


def test_closed_form_memory_at_scale():
    # the exact full-mode scan of K_300 evaluates its triples slice by slice;
    # the peak holds over the first three first vertices (132,760 triples)
    coloring = random_coloring(300, 3, SeededStream(300))
    tracemalloc.start()
    try:
        sets_seen = 0
        for _, sets, counts in trees._decided_chunks(
                coloring.array[None], coloring.t, 3, 0, OracleMode.full(), True, firsts=range(1, 4)):
            sets_seen += len(sets)
            assert (counts >= 1).all() and (counts <= 297 + 3).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets_seen == 132_760
    assert peak < 16 * 2**20


def test_full_oracle_memory_at_scale():
    # a default-budget call on K_300 gathers the colors of only the pairs its
    # table uses, and a call with 10,002 candidates (rainbow K_12, budget 3,
    # terminals out of the table's order) builds no mask per candidate pair
    coloring = random_coloring(300, 3, SeededStream(1))
    m = math.comb(12, 2)
    rainbow = CompleteGraphColoring(12, m, tuple(range(1, m + 1)))
    for coloring, members, mode in ((coloring, (1, 2, 3), OracleMode.full()),
                                    (rainbow, (2, 5, 9), OracleMode.full(3))):
        coloring.array  # built before tracing: the coloring's table is not the oracle's memory
        tracemalloc.start()
        try:
            value, family = max_disjoint_rainbow_trees(VertexSet(members), coloring, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == len(family) > 0
        candidates = len(trees._candidates(members, coloring.array, mode.reach(coloring.n, 3, coloring.t))[0])
        if coloring is rainbow:
            assert candidates == 10_002 and peak < candidates ** 2 / 8
        else:
            assert peak < 16 * 2**20


def test_closed_form_keeps_the_candidate_cap(monkeypatch):
    # a reach of 1 prices the trees the table holds: 1 + (n-2) at k = 2, the
    # edge and a path through each other vertex, and 3 + 7(n-3) at k = 3,
    # where the other vertex is no leaf in 16 - 9 of the trees of K_4; 2
    # colors hold the reach of a triple at 0, its 3 internal paths; a cap
    # below the price raises as soon as a set needs its exact count
    rainbow = CompleteGraphColoring(8, 28, tuple(range(1, 29)))
    for k, prices in ((2, (1 + 6, 1 + 6)), (3, (3, 3 + 7 * 5))):
        for coloring, price in zip((random_coloring(8, 2, SeededStream(k)), rainbow), prices):
            for kwargs in ({}, {"per_set_counts": True}):
                monkeypatch.setattr(trees, "CANDIDATE_CAP", price - 1)
                with pytest.raises(BudgetExceededError) as err:
                    verify_coloring(coloring, k, 9, OracleMode.full(1), **kwargs)
                assert err.value.size == price
                monkeypatch.setattr(trees, "CANDIDATE_CAP", price)
                verify_coloring(coloring, k, 9, OracleMode.full(1), **kwargs)
            monkeypatch.setattr(trees, "CANDIDATE_CAP", price - 1)
            with pytest.raises(BudgetExceededError):
                verify_coloring(coloring, k, 0, OracleMode.full(1), per_set_counts=True)
        # no set is short: every certificate of the rainbow K_8 is at least 5
        report = verify_coloring(rainbow, k, 5, OracleMode.full(1))
        assert report.passed


def test_oracle_mode_validation():
    with pytest.raises(ValueError):
        OracleMode("bogus")
    with pytest.raises(ValueError):
        OracleMode("star", 2)
    with pytest.raises(ValueError):
        OracleMode.full(0)
    # the reach: the budget (default k - 2, at least 1), n - k or t - k + 1
    assert OracleMode.full().reach(10, 5, 10) == 3
    assert OracleMode.full(2).reach(10, 5, 10) == 2
    assert OracleMode.full().reach(10, 2, 10) == 1
    assert OracleMode.full(6).reach(8, 5, 10) == 3
    assert OracleMode.full(6).reach(10, 5, 7) == 3
    assert OracleMode.full().reach(10, 3, 1) == -1
    # exact where the budget does not cut the reach
    assert OracleMode.full(2).exact(5, 3, 4) and not OracleMode.full(1).exact(5, 3, 4)
    assert OracleMode.full(1).exact(9, 3, 3) and OracleMode.full(1).exact(9, 3, 1)
    assert not OracleMode.star().exact(5, 3, 1)


# --- double counting --------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=3, max_value=9))
@settings(max_examples=25, deadline=None)
def test_double_counting_rainbow_stars(seed, n):
    coloring = random_coloring(n, 3, SeededStream(seed))
    star_total = sum(
        rainbow_star_count(VertexSet(members), coloring)
        for members in combinations(range(1, n + 1), 3))
    table = color_degrees(coloring)
    degree_total = sum(
        table.count(v, 1) * table.count(v, 2) * table.count(v, 3)
        for v in range(1, n + 1))
    assert star_total == degree_total


# --- verification -----------------------------------------------------------

def test_verify_vacuous_demand():
    coloring = CompleteGraphColoring(5, 1, (1,) * 10)
    report = verify_coloring(coloring, 3, 0)
    assert report.passed


def test_verify_monochromatic_fails_with_least_witness():
    coloring = CompleteGraphColoring(6, 3, (1,) * 15)
    report = verify_coloring(coloring, 3, 1)
    assert not report.passed
    assert report.witness == (1, 2, 3)
    assert report.witness_count == 0


def test_verify_some_k5_colorings_fail():
    failures = 0
    stream = SeededStream(44)
    for i in range(50):
        coloring = random_coloring(5, 3, stream.substream(i))
        if not verify_coloring(coloring, 3, 1).passed:
            failures += 1
    assert failures > 0


def test_verify_per_set_counts():
    k5 = random_coloring(5, 3, SeededStream(8))
    k6 = random_coloring(6, 4, SeededStream(8))
    # a vacuous demand still reports every count
    for coloring, k, ell in [(k5, 3, 1), (k5, 3, 0), (k6, 4, 1)]:
        report = verify_coloring(coloring, k, ell, per_set_counts=True)
        assert report.per_set_counts is not None
        assert report.per_set_counts.shape == (math.comb(coloring.n, k), k + 1)
        for *members, count in report.per_set_counts.tolist():
            value, _ = max_disjoint_rainbow_trees(VertexSet(tuple(members)), coloring, OracleMode.star())
            assert count == value


def test_verify_full_mode_counts_match_oracle():
    k5 = random_coloring(5, 3, SeededStream(9))
    k6 = random_coloring(6, 4, SeededStream(9))
    for coloring, k in [(k5, 3), (k6, 4)]:
        report = verify_coloring(coloring, k, 2, OracleMode.full(1), per_set_counts=True)
        assert report.per_set_counts.shape == (math.comb(coloring.n, k), k + 1)
        for *members, count in report.per_set_counts.tolist():
            value, _ = max_disjoint_rainbow_trees(VertexSet(tuple(members)), coloring, OracleMode.full(1))
            assert count == value


def test_exact_counts_pack_each_set_once(monkeypatch):
    # exact full counts take the oracle's packing alone, not the pattern
    # table's: one branch and bound per k-set, in lexicographic order
    packed = count_packings(monkeypatch)
    coloring = random_coloring(8, 4, SeededStream(2))
    for mode in (OracleMode.full(1), OracleMode.full()):
        packed.clear()
        report = verify_coloring(coloring, 4, 0, mode, per_set_counts=True)
        assert packed == [tuple(S) for *S, _ in report.per_set_counts.tolist()] == list(
            combinations(range(1, 9), 4))
        for *members, count in report.per_set_counts[::7].tolist():
            assert count == max_disjoint_rainbow_trees(VertexSet(tuple(members)), coloring, mode)[0]


def test_count_paths_decode_no_tree(monkeypatch):
    # per-set counts take the length of the oracle core's rows: a full-mode
    # budget-2 verify at k = 4 on a many-color K_8 (the reach is 2) and a
    # star-mode verify at k = 4 (the color-pattern table) run with the
    # decoder raising, and each count is the public oracle's
    coloring = random_coloring(8, 28, SeededStream(5))
    modes = (OracleMode.full(2), OracleMode.star())
    assert modes[0].reach(8, 4, 28) == 2
    with monkeypatch.context() as patch:
        patch.setattr(trees, "_decoded", lambda *args: pytest.fail("a count path decoded trees"))
        trees._pattern_packing.cache_clear()
        reports = [verify_coloring(coloring, 4, 0, mode, per_set_counts=True) for mode in modes]
    for mode, report in zip(modes, reports):
        assert [tuple(S) for *S, _ in report.per_set_counts.tolist()] == list(combinations(range(1, 9), 4))
        assert [count for *_, count in report.per_set_counts.tolist()] == [
            max_disjoint_rainbow_trees(VertexSet(S), coloring, mode)[0] for S in combinations(range(1, 9), 4)]


def test_runs_end_at_each_oracle_count(monkeypatch):
    # the runs list, in lexicographic order, the k-sets of ``firsts`` whose
    # array count is below ell; outside the closed form every set the oracle
    # decides ends a run, so a caller that stops at its first failing run
    # packs nothing past the witness; the color-pattern table's calls, on
    # its own k x k tables, are left out
    calls = record_tree_packings(monkeypatch)
    coloring = random_coloring(10, 4, SeededStream(1))

    def packed():
        return packed_on(calls, coloring)

    for k, ell, mode, firsts in ((4, 3, OracleMode.full(2), range(1, 4)),
                                 (4, 3, OracleMode.full(1), None),
                                 (3, 5, OracleMode.full(2), range(1, 6)),
                                 (3, 6, OracleMode.full(1), None),
                                 (4, 3, OracleMode.star(), None)):
        calls.clear()
        runs = [run[1:] for run in trees._decided_chunks(coloring.array[None], coloring.t, k, ell, mode, False, firsts)]
        firsts = firsts or range(1, 11)
        short = [S for S in combinations(range(1, 11), k)
                 if S[0] in firsts and brute_force_array_count(coloring, S) < ell]
        assert short and [tuple(S) for sets, _ in runs for S in sets.tolist()] == short
        if not trees._closed_form(k, mode, coloring.n, coloring.t) and mode.kind == "full":
            assert packed() and set(packed()) <= {tuple(sets[-1].tolist()) for sets, _ in runs}
        else:
            assert packed() == []
    for k, ell, mode in ((4, 3, OracleMode.full(2)), (3, 5, OracleMode.full(2))):
        calls.clear()
        report = verify_coloring(coloring, k, ell, mode)
        assert not report.passed and packed()[-1] == report.witness
        assert packed() == sorted(set(packed()))


def test_kernels_yield_only_the_sets_below_demand(monkeypatch):
    # with the default chunks, chunks of a few first vertices and chunks of
    # one: the kernels yield, in lexicographic order, exactly the k-sets
    # whose count is below ``below``, with that count, and every k-set when
    # ``below`` is None; at k = 3 on one and two colors too, and on a
    # palette past a byte
    stream = SeededStream(53)
    cases = ((2, 9, 3), (3, 11, 3), (3, 12, 5), (4, 10, 6), (5, 9, 8), (3, 10, 1), (3, 10, 2), (3, 11, 300))
    for case, (k, n, t) in enumerate(cases):
        coloring = random_coloring(n, t, stream.substream(case))
        counts = {S: brute_force_array_count(coloring, S) for S in combinations(range(1, n + 1), k)}
        for elements in (trees._CHUNK_ELEMENTS, 4 * n * n, 1):
            monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", elements)
            for firsts in (range(1, n - k + 2), range(2, 4)):
                for below in (None, 0, 1, 2, 4, n):
                    got = [(tuple(S), stars + internal)
                           for _, sets, *parts in trees._array_chunks(coloring.array[None], k, firsts, below)
                           for S, stars, internal in zip(sets.tolist(), *(p.tolist() for p in parts))]
                    assert got == [(S, count) for S, count in counts.items()
                                   if S[0] in firsts and (below is None or count < below)]


def _by_coloring(runs, size):
    """Each coloring's ``(set, values...)`` rows from tagged runs, in run order."""
    rows = [[] for _ in range(size)]
    for which, sets, *values in runs:
        for s, *row in zip(which.tolist(), map(tuple, sets.tolist()), *(v.tolist() for v in values)):
            rows[s].append(tuple(row))
    return rows


def test_stacked_kernel_runs_equal_stacks_of_one(monkeypatch):
    # random stacks of 6 colorings of K_5..K_8 that mix passing and failing
    # ones: per coloring, the stacked kernel yields the sets and counts of
    # a stack of one and of the brute-force count, with and without
    # ``below``, with the default chunks and with chunks of one first
    # vertex; the decided runs give every count verify gives, star and exact
    # full mode; ``_passes`` gives each coloring's verdict; and a coloring
    # whose entry of ``live`` is cleared at its first failing run takes no
    # set past it while the others keep all of theirs, at k = 3 in chunks
    # of one first vertex and of two or more. The k = 3 cases take one, two
    # and 300 colors as well.
    stream = SeededStream(61)
    mixed = 0
    cases = list(product((2, 3, 4), (5, 6, 7), (3, 5))) + [(3, 7, 1), (3, 7, 2), (3, 8, 300)]
    for case, (k, n, t) in enumerate(cases):
        colorings = [random_coloring(n, t, stream.substream(8 * case + i)) for i in range(6)]
        stack = np.stack([c.array for c in colorings])
        counts = [{S: brute_force_array_count(c, S) for S in combinations(range(1, n + 1), k)} for c in colorings]
        for elements in (trees._CHUNK_ELEMENTS, 1):
            monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", elements)
            for firsts in (range(1, n - k + 2), range(2, 4)):
                for below in (None, 1, 2, 3):
                    got = _by_coloring(trees._array_chunks(stack, k, firsts, below), len(stack))
                    for s, coloring in enumerate(colorings):
                        alone = _by_coloring(trees._array_chunks(stack[s:s + 1], k, firsts, below), 1)[0]
                        expected = [(S, count) for S, count in counts[s].items()
                                    if S[0] in firsts and (below is None or count < below)]
                        assert got[s] == alone
                        assert [(S, stars + internal) for S, stars, internal in got[s]] == expected
        for scale in ((4, 12) if k == 3 else (4,)):
            monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", scale * n * n)
            for mode in (OracleMode.star(), OracleMode.full(1)):
                runs = _by_coloring(trees._decided_chunks(stack, t, k, 0, mode, True), len(stack))
                for s, coloring in enumerate(colorings):
                    report = verify_coloring(coloring, k, 0, mode, per_set_counts=True)
                    assert runs[s] == [(tuple(S), count) for *S, count in report.per_set_counts.tolist()]
                for ell in (1, 2, 3):
                    verdicts = [verify_coloring(c, k, ell, mode) for c in colorings]
                    passed = [report.passed for report in verdicts]
                    mixed += 0 < sum(passed) < len(passed)
                    assert trees._passes(stack, t, k, ell, mode).tolist() == passed
                    live = np.ones(len(stack), dtype=bool)
                    seen, run_of = [[] for _ in colorings], [[] for _ in colorings]
                    with monkeypatch.context() as patch:
                        calls = record_tree_packings(patch)
                        runs = trees._decided_chunks(stack, t, k, ell, mode, False, live=live)
                        for index, (which, sets, run_counts) in enumerate(runs):
                            assert live[which].all()
                            for s, S, count in zip(which.tolist(), sets.tolist(), run_counts.tolist()):
                                seen[s].append((tuple(S), count))
                                run_of[s].append(index)
                            live[which[run_counts < ell]] = False
                    for s, report in enumerate(verdicts):
                        # the oracle packs no set of a coloring past its witness
                        packed = [S for S, colors in calls
                                  if colors.shape == (n, n) and np.array_equal(colors, stack[s])]
                        assert report.passed or all(S <= report.witness for S in packed)
                        alone = _by_coloring(trees._decided_chunks(stack[s:s + 1], t, k, ell, mode, False), 1)[0]
                        assert seen[s] == alone[:len(seen[s])]
                        if report.passed:
                            assert seen[s] == alone and all(count >= ell for _, count in alone)
                        else:
                            # the scan of this coloring ends with the run that holds its witness
                            last = seen[s].index((report.witness, report.witness_count))
                            assert set(run_of[s][last:]) == {run_of[s][last]}
    assert mixed >= 10


def test_passing_star_verify_yields_no_run():
    # at the least count over all k-sets a star verify passes and the scan
    # yields nothing; one more and it yields the sets at that count
    stream = SeededStream(59)
    for case, (k, n, t) in enumerate(((2, 8, 2), (3, 12, 8), (4, 14, 12), (5, 16, 30))):
        coloring = random_coloring(n, t, stream.substream(case))
        counts = {S: brute_force_array_count(coloring, S) for S in combinations(range(1, n + 1), k)}
        ell = min(counts.values())
        assert ell >= 1 and verify_coloring(coloring, k, ell).passed
        assert list(trees._decided_chunks(coloring.array[None], t, k, ell, OracleMode.star(), False)) == []
        runs = list(trees._decided_chunks(coloring.array[None], t, k, ell + 1, OracleMode.star(), False))
        assert [tuple(S) for _, sets, _ in runs for S in sets.tolist()] == [
            S for S, count in counts.items() if count == ell]


def test_exact_star_counts_pack_once_per_color_pattern(monkeypatch):
    # the pattern table packs each way the edges of a set can share colors
    # once; patterns are counted here by relabelling colors in edge order
    packed = count_packings(monkeypatch)
    for n, k, t in ((11, 4, 4), (9, 5, 3)):
        coloring = random_coloring(n, t, SeededStream(n))
        trees._pattern_packing.cache_clear()
        packed.clear()
        report = verify_coloring(coloring, k, 0, per_set_counts=True)
        patterns = {canonical_color_form(tuple(coloring.color(u, v) for u, v in combinations(S, 2)))
                    for *S, _ in report.per_set_counts.tolist()}
        assert packed == [tuple(range(1, k + 1))] * len(patterns)
        for *members, count in report.per_set_counts[::11].tolist():
            assert count == max_disjoint_rainbow_trees(VertexSet(tuple(members)), coloring)[0]


def test_pattern_table_matches_the_internal_packing():
    # every 4-coloring of K_4: its 187 color patterns (partitions of the six
    # edges into at most four classes) are packed once each
    trees._pattern_packing.cache_clear()
    S = VertexSet.of(1, 2, 3, 4)
    for colors in product(range(1, 5), repeat=6):
        coloring = CompleteGraphColoring(4, 4, colors)
        (got,) = trees._internal_packings(coloring.array, *[np.array([S.members]) - 1] * 2)
        assert got == len(internal_tree_packing(S, coloring))
    assert trees._pattern_packing.cache_info().misses == 187
    # a sample of 5-sets, from one to ten colors
    stream = SeededStream(44)
    for t in (1, 2, 3, 5, 10):
        coloring = random_coloring(9, t, stream.substream(t))
        sets = np.array(list(combinations(range(1, 10), 5))[::3])
        got = trees._internal_packings(coloring.array, sets - 1, sets - 1)
        assert got.tolist() == [len(internal_tree_packing(VertexSet(tuple(S)), coloring))
                                for S in sets.tolist()]


def test_public_full_oracle_at_k3_matches_the_closed_form():
    # the default full oracle at k = 3 (budget 1) still runs the branch and
    # bound; on K_120 it must finish at once and agree with the closed form
    coloring = random_coloring(120, 3, SeededStream(1))
    sets = np.array([(1, 2, 3), (4, 60, 61), (17, 83, 120), (50, 99, 118)])
    excess = trees._full_triple_excess(coloring.array, sets - 1, sets - 1)
    for members, extra in zip(sets.tolist(), excess.tolist()):
        S = VertexSet(tuple(members))
        value, family = max_disjoint_rainbow_trees(S, coloring, OracleMode.full())
        assert value == len(family) == rainbow_star_count(S, coloring) + extra


def test_verify_workers_agree_with_serial():
    # workers split the first vertices into ordered ranges
    stream = SeededStream(3)
    cases = [(6, 3, 3, 1), (6, 3, 3, 2), (9, 5, 3, 2), (8, 4, 4, 1), (7, 2, 2, 1)]
    for i, (n, t, k, ell) in enumerate(cases):
        coloring = random_coloring(n, t, stream.substream(i))
        for mode in (OracleMode.star(), OracleMode.full(1)):
            for counts in (False, True):
                serial = verify_coloring(coloring, k, ell, mode, per_set_counts=counts)
                parallel = verify_coloring(coloring, k, ell, mode, per_set_counts=counts, workers=2)
                assert serial == parallel
    # the reports differ when one count does
    altered = parallel.per_set_counts.copy()
    altered[-1, -1] += 1
    assert replace(parallel, per_set_counts=altered) != serial


def test_verify_rejects_bad_domain():
    coloring = CompleteGraphColoring(4, 2, (1, 2, 1, 2, 1, 2))
    with pytest.raises(ValueError):
        verify_coloring(coloring, 5, 1)
    with pytest.raises(ValueError):
        verify_coloring(coloring, 3, -1)


# --- k-set kernel -----------------------------------------------------------

def _scalar_certificates(coloring, k):
    """Per-set star certificates from the scalar public functions, in lexicographic order."""
    out = []
    for members in combinations(range(1, coloring.n + 1), k):
        S = VertexSet(members)
        out.append((members, len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)))
    return out


def _scalar_first_failure(coloring, ell, mode, certificates, oracle_calls):
    for members, count in certificates:
        if count < ell and mode.kind == "full":
            oracle_calls.append(members)
            count, _ = max_disjoint_rainbow_trees(VertexSet(members), coloring, mode)
        if count < ell:
            return members, count
    return None, None


def test_kset_kernel_matches_scalar_certificates(monkeypatch):
    # every per-set count, witness and witness count, also with one-set chunks,
    # and the oracle sees exactly the scalar loop's sets, in order, except at
    # k <= 3 with budget 1 or t <= k, where the closed form decides them and
    # it sees none; the color-pattern table's calls, on its own k x k
    # tables, are left out
    calls = record_tree_packings(monkeypatch)
    default_cap = trees._CHUNK_ELEMENTS
    grid = {2: (2, 3, 7, 14), 3: (3, 4, 7, 14), 4: (4, 5, 8, 11), 5: (5, 6, 9)}
    stream = SeededStream(17)
    case = 0
    for k, sizes in grid.items():
        for n in sizes:
            for t in (1, 2, 3, 5, 8):
                coloring = random_coloring(n, t, stream.substream(case))
                case += 1
                certificates = _scalar_certificates(coloring, k)
                modes = [OracleMode.star()] + ([OracleMode.full(1)] if n <= 7 else [])
                if k == 3 and n <= 7:
                    modes.append(OracleMode.full(2))
                for cap in (default_cap, 1):
                    monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", cap)
                    report = verify_coloring(coloring, k, 0, per_set_counts=True)
                    assert [(tuple(S), c) for *S, c in report.per_set_counts.tolist()] == certificates
                    for ell in (1, 2, 4):
                        for mode in modes:
                            expected_calls = []
                            expected = _scalar_first_failure(coloring, ell, mode, certificates, expected_calls)
                            calls.clear()
                            report = verify_coloring(coloring, k, ell, mode)
                            assert (report.witness, report.witness_count) == expected
                            assert report.passed == (expected[0] is None)
                            closed = mode.kind == "full" and k <= 3 and mode.reach(n, k, t) <= 1
                            packed = packed_on(calls, coloring)
                            assert packed == ([] if closed else expected_calls)


def test_kset_kernel_star_total_and_memory_at_scale():
    # counting rainbow k-stars by center: sum_v e_k(d(v,1), ..., d(v,t)), at
    # k = 3 through the matmul kernel and at k = 4 through the gathered
    # colors; K_260 with 300 colors has uint16 colors and uint16 pair counts
    for n, k, palettes in ((300, 3, (3, 5)), (260, 3, (300,)), (40, 4, (4, 6))):
        for t in palettes:
            coloring = random_coloring(n, t, SeededStream(n + t))
            table = color_degrees(coloring)
            by_center = 0
            for v in range(1, n + 1):
                e = [1] + [0] * k  # e[j] = e_j of the degrees so far
                for d in table.row(v):
                    for j in range(k, 0, -1):
                        e[j] += e[j - 1] * d
                by_center += e[k]
            chunks = trees._array_chunks(coloring.array[None], k, range(1, n - k + 2))
            by_set = sum(int(stars.sum()) for _, _, stars, _ in chunks)
            assert by_set == by_center
    # on one color every pair count of K_260 is 258, past a byte, and no
    # triple has a star or an internal tree
    report = verify_coloring(CompleteGraphColoring(260, 1, (1,) * math.comb(260, 2)), 3, 1)
    assert (report.witness, report.witness_count) == ((1, 2, 3), 0)
    # a rainbow coloring (a palette of C(n,2) colors) gives every triple n-3 stars
    # and one internal tree; memory must not grow with the palette either
    m = math.comb(120, 2)
    rainbow = CompleteGraphColoring(120, m, tuple(range(1, m + 1)))
    for coloring, ell, witness in [(random_coloring(300, 3, SeededStream(7)), 1, None),
                                   (rainbow, 118, None), (rainbow, 119, (1, 2, 3))]:
        tracemalloc.start()
        try:
            report = verify_coloring(coloring, 3, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.witness == witness
        assert report.witness_count == (None if witness is None else 118)
        # one int32 for each of the C(300,3) = 4,455,100 triples would already take 17 MiB
        assert peak < 16 * 2**20
