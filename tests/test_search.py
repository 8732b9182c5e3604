import random
from itertools import product

import pytest

from rainbowindex import trees
from rainbowindex.colorings import SeededStream, edge_pairs, random_coloring
from rainbowindex.search import _failing_sets, find_coloring
from rainbowindex.trees import DEFAULT_CANDIDATE_CAP, OracleMode, verify_coloring


def test_random_search_finds_k6_demand_one():
    result = find_coloring(6, 3, 1, 3, "random", 500, SeededStream(11))
    assert result.found
    assert verify_coloring(result.coloring, 3, 1, OracleMode.full(1)).passed
    assert result.attempts <= 500


def test_local_search_finds_k6_demand_two():
    result = find_coloring(6, 3, 2, 3, "local", 20000, SeededStream(13), OracleMode.full(1))
    assert result.found
    assert verify_coloring(result.coloring, 3, 2, OracleMode.full(1)).passed


def test_exhaustive_search_small_instance():
    # 2-colorings of K_5 without a monochromatic triangle exist, and any
    # such coloring gives every triple an internal rainbow path
    result = find_coloring(5, 3, 1, 2, "exhaustive", 600, SeededStream(0), OracleMode.full(1))
    assert result.found
    assert not result.definitive_nonexistence
    assert verify_coloring(result.coloring, 3, 1, OracleMode.full(1)).passed


def test_exhaustive_refutation_is_definitive():
    # one color cannot produce any rainbow tree with two or more edges
    result = find_coloring(4, 3, 1, 1, "exhaustive", 10, SeededStream(0), OracleMode.full(1))
    assert not result.found
    assert result.exhausted
    assert result.definitive_nonexistence
    assert result.attempts == 1  # a single canonical coloring exists


def test_budget_exhaustion_is_not_a_refutation():
    result = find_coloring(6, 3, 2, 3, "exhaustive", 3, SeededStream(0), OracleMode.star())
    assert not result.found or result.attempts <= 3
    if not result.found:
        assert not result.exhausted
        assert not result.definitive_nonexistence


def test_search_determinism():
    a = find_coloring(6, 3, 1, 3, "random", 200, SeededStream(42))
    b = find_coloring(6, 3, 1, 3, "random", 200, SeededStream(42))
    assert a == b
    # the local-search objective counts the k-sets that verify finds below demand
    stream = SeededStream(42)
    for i, (k, t) in enumerate([(3, 3), (4, 4)]):
        coloring = random_coloring(6, t, stream.substream(i))
        for mode in (OracleMode.star(), OracleMode.full(1)):
            for ell in (1, 2, 3):
                report = verify_coloring(coloring, k, ell, mode, per_set_counts=True)
                expected = sum(count < ell for _, count in report.per_set_counts)
                assert _failing_sets(coloring, k, ell, mode, DEFAULT_CANDIDATE_CAP) == expected


def test_search_validation():
    with pytest.raises(ValueError):
        find_coloring(6, 3, 1, 3, "annealing", 10, SeededStream(0))
    with pytest.raises(ValueError):
        find_coloring(6, 3, 1, 3, "random", 0, SeededStream(0))
    with pytest.raises(ValueError):
        find_coloring(2, 3, 1, 3, "random", 10, SeededStream(0))


def test_incremental_objective_matches_from_scratch(monkeypatch):
    # seeded walks of single-edge moves, accepted or rejected at random: after
    # each move the reused counts give the objective and oracle counts of a
    # from-scratch evaluation, they hold only the sets the oracle decides
    # (certificate below ell), and only the short sets through the moved
    # edge's ends reach the oracle, except with budget 2, where all of them do
    real_packing = trees._packing
    calls = []

    def counted_packing(members, *args, **kwargs):
        calls.append(members)
        return real_packing(members, *args, **kwargs)

    monkeypatch.setattr(trees, "_packing", counted_packing)
    cap = DEFAULT_CANDIDATE_CAP
    rng = random.Random(5)
    stream = SeededStream(29)
    modes = (OracleMode.star(), OracleMode.full(1), OracleMode.full(2))
    for case, (k, n, t, mode) in enumerate(product((3, 4), range(6, 10), (2, 3, 4), modes)):
        ell = rng.randint(1, 3)
        coloring = random_coloring(n, t, stream.substream(case))
        decided = {}
        _failing_sets(coloring, k, ell, mode, cap, decided=decided)
        for _ in range(6 if k == 3 else 4):
            u, v = rng.choice(edge_pairs(n))
            color = rng.choice([c for c in range(1, t + 1) if c != coloring.color(u, v)])
            candidate = coloring.recolored(u, v, color)
            calls.clear()
            cand_decided = {}
            value = _failing_sets(candidate, k, ell, mode, cap, (decided, (u, v)), cand_decided)
            reached = list(calls)
            scratch = {}
            assert value == _failing_sets(candidate, k, ell, mode, cap, decided=scratch)
            assert cand_decided == scratch
            if mode.kind == "star":
                assert cand_decided == {} and reached == []
            else:
                below = sorted(S for S, count in verify_coloring(
                    candidate, k, 0, per_set_counts=True).per_set_counts if count < ell)
                assert sorted(cand_decided) == below
                assert reached == (below if mode.budget == 2 else [S for S in below if u in S or v in S])
            if rng.random() < 0.5:
                coloring, decided = candidate, cand_decided
