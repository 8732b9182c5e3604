import random
from itertools import product

import pytest

from rainbowindex import colorings, trees
from rainbowindex.colorings import BudgetExceededError, SeededStream, edge_pairs, random_coloring
from rainbowindex.search import _failing_sets, _Scores, find_coloring
from rainbowindex.trees import OracleMode, verify_coloring

from conftest import count_packings, packed_on, record_tree_packings


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


def test_exhaustive_search_refuses_a_space_past_the_enumeration_budget(monkeypatch):
    # K_7 with 3 colors has S(21,1) + S(21,2) + S(21,3) canonical colorings
    with pytest.raises(BudgetExceededError) as err:
        find_coloring(7, 3, 1, 3, "exhaustive", 10, SeededStream(0))
    assert err.value.size == 1_743_392_201
    # 2-colorings of K_5: S(10,1) + S(10,2) = 512 canonical colorings
    monkeypatch.setattr(colorings, "ENUM_BUDGET", 511)
    with pytest.raises(BudgetExceededError) as err:
        find_coloring(5, 3, 1, 2, "exhaustive", 600, SeededStream(0), OracleMode.full(1))
    assert err.value.size == 512
    monkeypatch.setattr(colorings, "ENUM_BUDGET", 512)
    assert find_coloring(5, 3, 1, 2, "exhaustive", 600, SeededStream(0), OracleMode.full(1)).found


def test_exhausted_scan_refutes_only_with_an_exact_oracle():
    # star mode counts fewer trees than exist, so draining the space refutes
    # nothing; with one color a triple has no rainbow tree at all, so every
    # full-mode budget reaches them all
    for n, mode in ((4, OracleMode.star()), (5, OracleMode.star()), (5, OracleMode.full(1)),
                    (5, OracleMode.full(2))):
        result = find_coloring(n, 3, 1, 1, "exhaustive", 10, SeededStream(0), mode)
        assert result.exhausted and not result.found
        assert result.definitive_nonexistence == (mode.kind == "full")


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
                expected = sum(count < ell for *_, count in report.per_set_counts.tolist())
                assert _failing_sets(coloring, k, ell, mode) == expected


def test_search_validation():
    with pytest.raises(ValueError):
        find_coloring(6, 3, 1, 3, "annealing", 10, SeededStream(0))
    with pytest.raises(ValueError):
        find_coloring(6, 3, 1, 3, "random", 0, SeededStream(0))
    with pytest.raises(ValueError):
        find_coloring(2, 3, 1, 3, "random", 10, SeededStream(0))


def test_local_search_walk_scores_each_move_from_scratch(monkeypatch):
    # seeded walks of single-edge moves, accepted or rejected at random: each
    # move's objective is the number of sets verify finds below ell; the
    # arrays decide star mode, and at k = 3 with budget 1 (or a palette of
    # at most 3 colors) the closed form decides every set, so neither packs
    # a set of the coloring; otherwise the oracle sees exactly the sets the
    # certificate leaves below ell; the color-pattern table's calls, on its
    # own k x k tables, are left out of the oracle's
    calls = record_tree_packings(monkeypatch)
    packed = count_packings(monkeypatch)
    rng = random.Random(5)
    stream = SeededStream(29)
    modes = (OracleMode.star(), OracleMode.full(1), OracleMode.full(2))
    for case, (k, n, t, mode) in enumerate(product((3, 4), range(6, 10), (2, 3, 4), modes)):
        ell = rng.randint(1, 3)
        coloring = random_coloring(n, t, stream.substream(case))
        for _ in range(6 if k == 3 else 4):
            u, v = rng.choice(edge_pairs(n))
            color = rng.choice([c for c in range(1, t + 1) if c != coloring.color(u, v)])
            candidate = coloring.recolored(u, v, color)
            calls.clear()
            packed.clear()
            value = _failing_sets(candidate, k, ell, mode)
            reached = packed_on(calls, candidate)
            repacked = list(packed)
            report = verify_coloring(candidate, k, ell, mode, per_set_counts=True)
            assert value == sum(count < ell for *_, count in report.per_set_counts.tolist())
            certificates = verify_coloring(candidate, k, 0, per_set_counts=True).per_set_counts
            below = [tuple(S) for *S, count in certificates.tolist() if count < ell]
            if mode.kind == "star":
                # only color patterns are packed, never a set of the coloring
                assert reached == [] and set(repacked) <= {tuple(range(1, k + 1))}
            elif trees._closed_form(k, mode, n, t):
                assert reached == []
            else:
                assert reached == below
            if rng.random() < 0.5:
                coloring = candidate


def test_local_search_rescores_only_the_sets_a_move_touches(monkeypatch):
    # seeded walks of single-edge moves, accepted or rejected at random: after
    # every move the kept objective and the candidate's are the from-scratch
    # counts, and the exact oracle sees only the sets holding an end of the
    # moved edge that the certificate leaves short, plus every short set when
    # the reach is 2 or more, as a tree through both ends can use the edge;
    # star mode and the closed form send it none (n stops at 8 for k = 4,
    # where the reach of 2 sends most sets to the oracle on every move)
    calls = record_tree_packings(monkeypatch)
    rng = random.Random(7)
    stream = SeededStream(31)
    modes = (OracleMode.star(), OracleMode.full(1), OracleMode.full(2), OracleMode.full())
    for case, (k, mode, _) in enumerate(product((2, 3, 4), modes, range(3))):
        n, t, ell = rng.randint(5, 11 if k < 4 else 8), rng.randint(2, 6), rng.randint(1, 3)
        coloring = random_coloring(n, t, stream.substream(case))
        scores = _Scores(n, k, ell, t, mode)
        assert scores.reset(coloring) == _failing_sets(coloring, k, ell, mode)
        for _ in range(5):
            u, v = rng.choice(edge_pairs(n))
            color = rng.choice([c for c in range(1, t + 1) if c != coloring.color(u, v)])
            candidate = coloring.recolored(u, v, color)
            calls.clear()
            value = scores.rescore(coloring, candidate, u, v)
            reached = sorted(packed_on(calls, candidate))
            assert value == _failing_sets(candidate, k, ell, mode)
            certificates = verify_coloring(candidate, k, 0, per_set_counts=True).per_set_counts
            short = [tuple(S) for *S, count in certificates.tolist() if count < ell]
            if mode.kind == "star" or trees._closed_form(k, mode, n, t):
                assert reached == []
            elif mode.reach(n, k, t) >= 2:
                assert reached == short
            else:
                assert reached == [S for S in short if u in S or v in S]
            if rng.random() < 0.5:
                scores.commit()
                coloring = candidate
            assert scores.objective == _failing_sets(coloring, k, ell, mode)
