import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import montecarlo
from rainbowindex.bounds import binomial_tail_below, rainbow_star_prob
from rainbowindex.colorings import SeededStream, random_coloring
from rainbowindex.montecarlo import (
    TrialConfig,
    TrialSummary,
    chernoff_tail_bound,
    empirical_threshold,
    estimate_AS_all,
    estimate_BS,
    wilson_interval,
)
from rainbowindex.trees import OracleMode, verify_coloring


# --- Wilson intervals -------------------------------------------------------

@given(st.integers(min_value=1, max_value=10 ** 6), st.data())
@settings(max_examples=80, deadline=None)
def test_wilson_contains_point_estimate(samples, data):
    successes = data.draw(st.integers(min_value=0, max_value=samples))
    lo, hi = wilson_interval(successes, samples)
    phat = successes / samples
    assert 0 <= lo <= phat <= hi <= 1


def test_wilson_boundaries():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0 and hi > 0
    lo, hi = wilson_interval(100, 100)
    assert lo < 1 and hi == 1
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


# --- Chernoff tail bound ----------------------------------------------------

def test_chernoff_tail_ell_one_closed_form():
    p = float(rainbow_star_prob(3))
    for n in (10, 50, 100):
        m = n - 3
        assert chernoff_tail_bound(n, 3, 1) == pytest.approx(math.exp(-p * m / 2))
        # (1-p)^m <= e^{-pm} <= bound
        exact = (1 - p) ** m
        assert exact <= math.exp(-p * m) <= chernoff_tail_bound(n, 3, 1)


def test_chernoff_tail_dominates_exact_tail():
    p = rainbow_star_prob(3)
    for n in range(20, 201, 20):
        m = n - 3
        for ell in range(1, int(m * p) + 1):
            exact = binomial_tail_below(m, p, ell - 1)
            assert float(exact) <= chernoff_tail_bound(n, 3, ell)


def test_chernoff_tail_inadmissible_names_quantities():
    with pytest.raises(ValueError) as err:
        chernoff_tail_bound(10, 3, 5)
    message = str(err.value)
    assert "(n-k)p" in message and "ell-1" in message


# --- config -----------------------------------------------------------------

def test_trial_config_validation():
    seed = SeededStream(0)
    with pytest.raises(ValueError):
        TrialConfig(n=5, k=6, ell=1, t=3, samples=10, seed=seed)
    with pytest.raises(ValueError):
        TrialConfig(n=5, k=3, ell=1, t=0, samples=10, seed=seed)
    with pytest.raises(ValueError):
        TrialConfig(n=5, k=3, ell=1, t=3, samples=0, seed=seed)


def test_trial_summary_invariants():
    with pytest.raises(ValueError):
        TrialSummary(5, 3, 1.6, 0.0, 1.0, {})
    with pytest.raises(ValueError):
        TrialSummary(1, 10, 0.1, 0.2, 0.3, {})


# --- star-starvation estimates ----------------------------------------------

def test_estimate_bs_matches_exact_tail():
    config = TrialConfig(n=7, k=3, ell=1, t=3, samples=40000, seed=SeededStream(5))
    summary = estimate_BS(config)
    exact = float(Fraction(7, 9) ** 4)
    assert summary.comparators["exact_tail"] == pytest.approx(exact)
    se = math.sqrt(exact * (1 - exact) / config.samples)
    assert abs(summary.point_estimate - exact) <= 4 * se


def test_estimate_bs_reproducible():
    config = TrialConfig(n=10, k=3, ell=2, t=3, samples=5000, seed=SeededStream(77))
    assert estimate_BS(config) == estimate_BS(config)


def test_estimate_bs_requires_t_equals_k():
    config = TrialConfig(n=7, k=3, ell=1, t=4, samples=100, seed=SeededStream(0))
    with pytest.raises(ValueError):
        estimate_BS(config)


def test_estimate_bs_saturated_demand_always_fails():
    # demanding more stars than external vertices exist
    config = TrialConfig(n=7, k=3, ell=5, t=3, samples=500, seed=SeededStream(1))
    summary = estimate_BS(config)
    assert summary.successes == summary.samples
    assert summary.point_estimate == 1.0


def test_estimate_bs_no_externals():
    config = TrialConfig(n=3, k=3, ell=1, t=3, samples=200, seed=SeededStream(2))
    summary = estimate_BS(config)
    assert summary.successes == summary.samples


def test_estimate_bs_blocks_draw_what_one_draw_per_chunk_would(monkeypatch):
    # 5,000 samples of K_60 span two chunks of many blocks each (single
    # samples with the cap at 1); the recount draws each chunk at once
    config = TrialConfig(n=60, k=3, ell=12, t=3, samples=5000, seed=SeededStream(9))
    successes = 0
    for chunk_index, start in enumerate(range(0, config.samples, montecarlo.CHUNK)):
        gen = config.seed.substream(chunk_index).generator()
        draws = gen.integers(1, 4, size=(min(montecarlo.CHUNK, config.samples - start), 57, 3))
        stars = (np.sort(draws, axis=2) == (1, 2, 3)).all(axis=2).sum(axis=1)
        successes += int((stars <= 11).sum())
    assert 0 < successes < config.samples
    for elements in (montecarlo._CHUNK_ELEMENTS, 1):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", elements)
        assert estimate_BS(config).successes == successes


def test_estimate_bs_memory_does_not_grow_with_n():
    # one (4096, n - k, k) int64 draw of K_2000 alone would be 187 MiB
    config = TrialConfig(n=2000, k=3, ell=1, t=3, samples=4096, seed=SeededStream(1))
    tracemalloc.start()
    try:
        estimate_BS(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# --- whole-coloring estimates -----------------------------------------------

def test_estimate_as_all_k6_finds_certificates():
    config = TrialConfig(n=6, k=3, ell=1, t=3, samples=300, seed=SeededStream(9))
    summary, witness = estimate_AS_all(config)
    assert summary.successes > 0
    # the witness is the passing sample with the least index
    first = next(i for i in range(config.samples)
                 if verify_coloring(random_coloring(6, 3, config.seed.substream(i)),
                                    3, 1, OracleMode.star()).passed)
    assert witness == random_coloring(6, 3, config.seed.substream(first))
    # the saved witness re-verifies under the exhaustive oracle
    assert verify_coloring(witness, 3, 1, OracleMode.full(1)).passed


def test_estimate_as_all_blocks_decide_what_one_coloring_at_a_time_would(monkeypatch):
    # blocks of _CHUNK_ELEMENTS // n^2 samples, blocks of 7 (the last one
    # partial) and blocks of one give the same summary and witness, in star
    # and in full mode, and these are the per-sample verdicts of verify on
    # the colorings random_coloring draws from the same substreams
    configs = (TrialConfig(n=7, k=3, ell=1, t=3, samples=300, seed=SeededStream(12)),
               TrialConfig(n=8, k=3, ell=2, t=3, samples=300, seed=SeededStream(13), mode=OracleMode.full(1)),
               TrialConfig(n=7, k=4, ell=1, t=4, samples=200, seed=SeededStream(14), mode=OracleMode.full(1)),
               TrialConfig(n=7, k=4, ell=1, t=5, samples=200, seed=SeededStream(14)))
    for config in configs:
        n = config.n
        colorings = [random_coloring(n, config.t, config.seed.substream(i)) for i in range(config.samples)]
        passed = [verify_coloring(c, config.k, config.ell, config.mode).passed for c in colorings]
        assert 0 < sum(passed) < config.samples
        results = []
        for elements in (montecarlo._CHUNK_ELEMENTS, 7 * n * n, 1):
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", elements)
            results.append(estimate_AS_all(config))
        summary, witness = results[0]
        assert results[1:] == [results[0]] * 2
        assert summary.successes == sum(passed)
        assert witness == colorings[passed.index(True)]
        assert np.array_equal(witness.array, colorings[passed.index(True)].array)


def test_estimate_as_all_worker_count_invariant(monkeypatch):
    # chunks far smaller than the sample count, so two workers share many jobs
    monkeypatch.setattr(montecarlo, "CHUNK", 16)
    config = TrialConfig(n=6, k=3, ell=1, t=3, samples=200, seed=SeededStream(10))
    serial, witness_serial = estimate_AS_all(config, workers=1)
    parallel, witness_parallel = estimate_AS_all(config, workers=2)
    assert serial == parallel
    assert witness_serial == witness_parallel
    # the witness a worker found keeps its color table read-only
    assert not witness_parallel.array.flags.writeable


def test_estimate_as_all_no_externals_bounded_demand():
    # with n = k only internal trees exist, at most floor(k/2) of them
    config = TrialConfig(n=3, k=3, ell=2, t=3, samples=100, seed=SeededStream(3))
    summary, witness = estimate_AS_all(config)
    assert summary.successes == 0
    assert witness is None


def test_estimate_as_all_single_color_never_succeeds():
    config = TrialConfig(n=6, k=3, ell=1, t=1, samples=50, seed=SeededStream(4))
    summary, witness = estimate_AS_all(config)
    assert summary.successes == 0
    assert witness is None


# --- threshold sweep --------------------------------------------------------

def test_empirical_threshold_draws_each_sample_once(monkeypatch):
    # at ell = 0 every sample passes, so every row has a witness to keep; the
    # samples are drawn in blocks, each from its own substream, and no
    # substream is drawn twice
    drawn = []
    draw = montecarlo._random_tables

    def recorded(n, t, streams):
        streams = list(streams)
        drawn.extend(streams)
        return draw(n, t, streams)

    monkeypatch.setattr(montecarlo, "_random_tables", recorded)
    n_range = range(3, 9)
    _, rows = empirical_threshold(3, 0, 3, samples=20, target=0.5, n_range=n_range,
                                  seed=SeededStream(2))
    assert [row["successes"] for row in rows] == [20] * len(n_range)
    assert len(drawn) == len(set(drawn)) == 20 * len(n_range)


def test_empirical_threshold_finds_small_n_demand_one():
    found, rows = empirical_threshold(
        3, 1, 3, samples=150, target=0.8, n_range=range(10, 61, 10),
        seed=SeededStream(21))
    assert found is not None
    assert found <= 572  # the analytic union-bound threshold certifies 572
    assert len(rows) == 6
    for row in rows:
        assert set(row) >= {"n", "samples", "successes", "estimate",
                            "wilson_lo", "wilson_hi", "exact_tail",
                            "chernoff", "union_bound"}


def test_empirical_threshold_empty_range():
    found, rows = empirical_threshold(
        3, 1, 3, samples=10, target=0.5, n_range=[], seed=SeededStream(0))
    assert found is None
    assert rows == []


def test_empirical_threshold_rejects_bad_target():
    with pytest.raises(ValueError):
        empirical_threshold(3, 1, 3, 10, 0.0, [10], SeededStream(0))
