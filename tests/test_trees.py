import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex.colorings import (
    BudgetExceededError,
    CompleteGraphColoring,
    SeededStream,
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

from conftest import brute_force_max_disjoint, brute_force_stree_candidates


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


def test_rainbow_trees_match_the_subset_scan():
    # same trees in the same (lexicographic) order, for every set of branch vertices
    rng = random.Random(11)
    stream = SeededStream(12)
    for m in range(2, 8):
        for t in (1, 2, m + 1, 4 * m):
            n = m + 2
            mat = random_coloring(n, t, stream.substream(m * 100 + t)).matrix
            vertices = tuple(sorted(rng.sample(range(1, n + 1), m)))
            scanned = list(_subset_scan_trees(vertices, mat))
            for r in range(m + 1):
                for extra in combinations(vertices, r):
                    branching = sum(1 << v for v in extra)
                    expected = [edges for edges, twice in scanned if not branching & ~twice]
                    assert list(trees._rainbow_trees(vertices, extra, mat)) == expected


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


def test_certificate_soundness_exhaustive_k4():
    # star certificate <= full oracle on every canonical coloring of K_4
    for coloring in enumerate_colorings(4, 3, symmetry_breaking=True):
        for members in combinations(range(1, 5), 3):
            S = VertexSet(members)
            cert = len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)
            full_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(1))
            assert cert <= full_value


def test_certificate_soundness_exhaustive_k5_two_colors():
    for coloring in enumerate_colorings(5, 2, symmetry_breaking=True):
        for members in combinations(range(1, 6), 3):
            S = VertexSet(members)
            cert = len(internal_tree_packing(S, coloring)) + rainbow_star_count(S, coloring)
            full_value, _ = max_disjoint_rainbow_trees(S, coloring, OracleMode.full(2))
            assert cert <= full_value


def test_oracle_budget_cap():
    coloring = random_coloring(9, 3, SeededStream(1))
    with pytest.raises(BudgetExceededError) as err:
        max_disjoint_rainbow_trees(
            VertexSet.of(1, 2, 3), coloring, OracleMode.full(3), candidate_cap=10)
    assert err.value.size > 10
    # K_10 has 10^8 spanning trees: past the cap, so no shape table is built
    # (with fewer than 9 colors no tree is rainbow and none is needed)
    rainbow = CompleteGraphColoring(10, 45, tuple(range(1, 46)))
    with pytest.raises(BudgetExceededError) as err:
        internal_tree_packing(VertexSet(tuple(range(1, 11))), rainbow)
    assert err.value.size == 10 ** 8
    three = random_coloring(10, 3, SeededStream(1))
    assert len(internal_tree_packing(VertexSet(tuple(range(1, 11))), three)) == 0
    # the cap prices the trees scanned, sum_r C(9, r) (3+r)^(1+r) on K_12:
    # 2,231,193 up to budget 4, and 35,261,337 once r = 5 adds K_8's 8^6 trees
    twelve = random_coloring(12, 5, SeededStream(2))
    value, _ = max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), twelve, OracleMode.full(4))
    assert value == 9
    with pytest.raises(BudgetExceededError) as err:
        max_disjoint_rainbow_trees(VertexSet.of(1, 2, 3), twelve, OracleMode.full(5))
    assert err.value.size == 35_261_337


def test_packing_matches_the_public_oracle():
    # the count-only packing is the validated witness family, tree for tree
    stream = SeededStream(23)
    modes = [OracleMode.star(), OracleMode.full(1), OracleMode.full(2), OracleMode.full()]
    case = 0
    for n, k in [(4, 2), (5, 3), (7, 3), (8, 4), (7, 5)]:
        for t in (1, 2, 3, 6):
            coloring = random_coloring(n, t, stream.substream(case))
            case += 1
            for members in list(combinations(range(1, n + 1), k))[::3]:
                for mode in modes:
                    chosen = trees._packing(members, coloring, mode, trees.DEFAULT_CANDIDATE_CAP)
                    value, family = max_disjoint_rainbow_trees(VertexSet(members), coloring, mode)
                    assert len(chosen) == value
                    assert [edges for edges, _ in chosen] == [tree.edges for tree in family.trees]


def test_oracle_mode_validation():
    with pytest.raises(ValueError):
        OracleMode("bogus")
    with pytest.raises(ValueError):
        OracleMode("star", 2)
    with pytest.raises(ValueError):
        OracleMode.full(0)
    assert OracleMode.full().resolved_budget(5) == 3
    assert OracleMode.full(2).resolved_budget(5) == 2


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
        assert len(report.per_set_counts) == math.comb(coloring.n, k)
        for members, count in report.per_set_counts:
            value, _ = max_disjoint_rainbow_trees(VertexSet(members), coloring, OracleMode.star())
            assert count == value


def test_verify_full_mode_counts_match_oracle():
    k5 = random_coloring(5, 3, SeededStream(9))
    k6 = random_coloring(6, 4, SeededStream(9))
    for coloring, k in [(k5, 3), (k6, 4)]:
        report = verify_coloring(coloring, k, 2, OracleMode.full(1), per_set_counts=True)
        assert len(report.per_set_counts) == math.comb(coloring.n, k)
        for members, count in report.per_set_counts:
            value, _ = max_disjoint_rainbow_trees(VertexSet(members), coloring, OracleMode.full(1))
            assert count == value


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
    # and the oracle sees exactly the scalar loop's sets, in order
    real_packing = trees._packing
    calls = []

    def counted_packing(members, *args, **kwargs):
        calls.append(members)
        return real_packing(members, *args, **kwargs)

    monkeypatch.setattr(trees, "_packing", counted_packing)
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
                for cap in (default_cap, 1):
                    monkeypatch.setattr(trees, "_CHUNK_ELEMENTS", cap)
                    report = verify_coloring(coloring, k, 0, per_set_counts=True)
                    assert list(report.per_set_counts) == certificates
                    for ell in (1, 2, 4):
                        for mode in modes:
                            expected_calls = []
                            expected = _scalar_first_failure(coloring, ell, mode, certificates, expected_calls)
                            calls.clear()
                            report = verify_coloring(coloring, k, ell, mode)
                            assert (report.witness, report.witness_count) == expected
                            assert report.passed == (expected[0] is None)
                            assert calls == expected_calls


def test_kset_kernel_star_total_and_memory_at_scale():
    # counting rainbow 3-stars by center: sum_v e3(d(v,1), ..., d(v,t))
    n = 300
    for t in (3, 5):
        coloring = random_coloring(n, t, SeededStream(n + t))
        table = color_degrees(coloring)
        by_center = sum(math.prod(d) for v in range(1, n + 1) for d in combinations(table.row(v), 3))
        by_set = sum(int(stars.sum()) for _, stars, _ in trees._certificate_chunks(coloring, 3, 0, True))
        assert by_set == by_center
    # a rainbow coloring (a palette of C(n,2) colors) gives every triple n-3 stars
    # and one internal tree; memory must not grow with the palette either
    m = math.comb(120, 2)
    rainbow = CompleteGraphColoring(120, m, tuple(range(1, m + 1)))
    for coloring, ell, witness in [(random_coloring(n, 3, SeededStream(7)), 1, None),
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
