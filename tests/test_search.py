import pytest

from rainbowindex.colorings import SeededStream, random_coloring
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
