import math
from fractions import Fraction
from itertools import permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex.bounds import (
    THETA_TOL,
    N2Kind,
    RamseyQuery,
    averaging_bound,
    binomial_tail_below,
    binomial_upper_vs_union,
    chernoff_theta,
    combined_N,
    ell_min,
    expected_X_upper,
    multicolor_ramsey_upper,
    n1_bound,
    n2_bound,
    n_threshold,
    rainbow_star_prob,
    union_bound_failure,
)
from rainbowindex.colorings import CompleteGraphColoring, SeededStream, color_degrees, random_coloring


# --- star probability -------------------------------------------------------

def test_rainbow_star_prob_values():
    assert rainbow_star_prob(3) == Fraction(2, 9)
    assert rainbow_star_prob(4) == Fraction(3, 32)
    f3 = 1 / (1 - rainbow_star_prob(3))
    assert f3 == Fraction(9, 7)
    assert abs(float(f3) - 1.286) < 1e-3
    with pytest.raises(ValueError):
        rainbow_star_prob(1)


def test_star_prob_decreasing_and_bounded():
    values = [rainbow_star_prob(k) for k in range(3, 12)]
    assert all(0 < v <= Fraction(2, 9) for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


# --- union-bound threshold --------------------------------------------------

def test_n1_bound_values():
    assert n1_bound(3, 1) == 572
    assert n1_bound(3, 2) == 1016


def _n1_reference(k: int, ell: int) -> int:
    """4 * ceil(((k+ell-1)/ln(1/(1-p)))^2) in mpmath, 120 digits past the point.

    The value is below ((k+ell)k^k)^2, so its integer part has at most twice
    the digits of (k+ell)k^k.
    """
    with mpmath.workdps(120 + 2 * len(str((k + ell) * k ** k))):
        p = mpmath.mpf(math.factorial(k)) / mpmath.mpf(k) ** k
        return 4 * int(mpmath.ceil(((k + ell - 1) / -mpmath.log1p(-p)) ** 2))


def test_n1_bound_matches_direct_formula():
    for k in range(3, 52):
        for ell in [*range(1, 51), 80, 100, 500, 1000, 10 ** 6]:
            assert n1_bound(k, ell) == _n1_reference(k, ell), (k, ell)
    for k in (100, 500, 1000):
        assert n1_bound(k, 1) == _n1_reference(k, 1), k


def test_n1_bound_monotone_in_ell():
    values = [n1_bound(3, ell) for ell in range(1, 101)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_n1_bound_domain():
    with pytest.raises(ValueError):
        n1_bound(2, 1)
    with pytest.raises(ValueError):
        n1_bound(3, 0)


def test_union_bound_minimal_success_n():
    # at k=3, ell=1 the first n with value <= 1 is exactly 50
    first = next(n for n in range(4, 100) if union_bound_failure(n, 3, 1) <= 1)
    assert first == 50
    assert union_bound_failure(49, 3, 1) > 1


def test_union_bound_holds_at_its_own_threshold():
    for k in (3, 4, 5):
        for ell in range(1, 11):
            assert union_bound_failure(n1_bound(k, ell), k, ell) <= 1


def test_union_bound_eventually_decreasing():
    values = [union_bound_failure(n, 3, 2) for n in range(200, 260)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_union_bound_precondition():
    with pytest.raises(ValueError):
        union_bound_failure(3, 3, 1)


# --- binomial tail chain ----------------------------------------------------

def test_tail_chain_collapses_at_ell_one():
    cmp = binomial_upper_vs_union(7, 3, 1)
    assert cmp.exact == Fraction(7, 9) ** 4
    assert cmp.subset_bound == cmp.exact
    assert cmp.power_bound == cmp.exact
    assert not cmp.anomaly
    for n in range(5, 41):
        cmp = binomial_upper_vs_union(n, 3, 1)
        assert cmp.exact == cmp.subset_bound == cmp.power_bound


def test_tail_chain_ordering():
    cmp = binomial_upper_vs_union(20, 3, 3)
    assert cmp.exact <= cmp.subset_bound < cmp.power_bound
    assert not cmp.anomaly


def test_tail_chain_strict_for_ell_at_least_two():
    for n, k, ell in [(10, 3, 2), (25, 4, 5), (40, 5, 8)]:
        cmp = binomial_upper_vs_union(n, k, ell)
        assert cmp.exact <= cmp.subset_bound
        assert cmp.subset_bound < cmp.power_bound


def test_tail_chain_precondition():
    with pytest.raises(ValueError):
        binomial_upper_vs_union(4, 3, 2)


def test_binomial_tail_edges():
    p = Fraction(2, 9)
    assert binomial_tail_below(5, p, -1) == 0
    assert binomial_tail_below(5, p, 5) == 1
    assert binomial_tail_below(5, p, 9) == 1
    assert binomial_tail_below(4, p, 0) == Fraction(7, 9) ** 4


# --- concentration threshold ------------------------------------------------

def test_theta_matches_reported_values():
    assert abs(chernoff_theta(Fraction(1, 2), 3) - 712.415) <= 1e-2
    assert abs(chernoff_theta(Fraction(2, 3), 3) - 360.699) <= 1e-2


def test_theta_residual_within_tolerance():
    tol = THETA_TOL
    theta = chernoff_theta(Fraction(1, 2), 3)
    g = 3 * math.log(theta) - (1 / 36) * (theta - 3)
    assert abs(g) <= tol
    # defining-equation form
    assert abs(theta ** 3 * math.exp(-(theta - 3) / 36) - 1) <= 2 * tol


def test_theta_is_largest_root():
    theta = chernoff_theta(Fraction(1, 2), 3)
    rate = float(rainbow_star_prob(3)) * 0.25 / 2
    for x in (theta + 1, theta * 1.5, theta * 10):
        assert 3 * math.log(x) - rate * (x - 3) < 0


def test_theta_domain():
    with pytest.raises(ValueError):
        chernoff_theta(Fraction(0), 3)
    with pytest.raises(ValueError):
        chernoff_theta(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        chernoff_theta(Fraction(1, 2), 2)


def test_ell_min_reported_values():
    assert ell_min(Fraction(1, 2), 3) == 80
    assert ell_min(Fraction(2, 3), 3) == 28


def test_n_threshold_closed_forms():
    for ell in range(80, 121):
        assert n_threshold(Fraction(1, 2), 3, ell) == 9 * ell - 6
    for ell in range(28, 61):
        assert n_threshold(Fraction(2, 3), 3, ell) == math.ceil(Fraction(3, 2) * (9 * ell - 7))


def test_n_threshold_dominates_theta():
    for eps in (Fraction(1, 2), Fraction(2, 3)):
        theta = chernoff_theta(eps, 3)
        lmin = ell_min(eps, 3)
        assert n_threshold(eps, 3, lmin) >= theta
    assert n_threshold(Fraction(1, 2), 3, 80) == 714


def test_n_threshold_rejects_small_ell_naming_minimum():
    with pytest.raises(ValueError) as err:
        n_threshold(Fraction(1, 2), 3, 79)
    assert "80" in str(err.value)


# --- Ramsey -----------------------------------------------------------------

def test_ramsey_upper_values():
    assert multicolor_ramsey_upper(RamseyQuery.uniform(2, 3)) == 6
    assert multicolor_ramsey_upper(RamseyQuery.uniform(3, 4)) == 1680
    assert multicolor_ramsey_upper(RamseyQuery((3, 4))) == math.comb(5, 2)


@given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_ramsey_upper_permutation_invariant(args):
    base = multicolor_ramsey_upper(RamseyQuery(tuple(args)))
    for perm in permutations(args):
        assert multicolor_ramsey_upper(RamseyQuery(tuple(perm))) == base


def test_ramsey_query_validation():
    with pytest.raises(ValueError):
        RamseyQuery(())
    with pytest.raises(ValueError):
        RamseyQuery((3, 1))


def test_n2_bound_cases():
    assert n2_bound(3, 2) == (N2Kind.TRIVIAL_K, 3)
    assert n2_bound(3, 1) == (N2Kind.RAMSEY_UPPER, 6)
    assert n2_bound(4, 2) == (N2Kind.RAMSEY_UPPER, 1680)
    assert n2_bound(4, 3) == (N2Kind.TRIVIAL_K, 4)


# --- combined report --------------------------------------------------------

def test_combined_without_eps():
    report = combined_N(3, 1)
    assert (report.n1, report.n2, report.combined) == (572, 6, 572)
    report = combined_N(3, 2)
    assert (report.n1, report.n2, report.combined) == (1016, 3, 1016)


def test_combined_with_eps():
    report = combined_N(3, 100, Fraction(1, 2))
    assert report.combined == 894
    assert report.n_thresh == 894
    assert report.ell_minimum == 80
    assert abs(report.theta - 712.415) <= 1e-2


def test_combined_report_json_round_trips():
    doc = combined_N(3, 5, None).to_json_dict()
    assert doc["N1"] == n1_bound(3, 5)
    assert doc["p"]["rational"] == "2/9"
    doc = combined_N(3, 90, "1/2").to_json_dict()
    assert doc["eps"]["rational"] == "1/2"
    assert doc["n_threshold"] == 9 * 90 - 6


def test_combined_rejects_eps_below_ell_min():
    with pytest.raises(ValueError):
        combined_N(3, 10, Fraction(1, 2))


# --- averaging --------------------------------------------------------------

def test_averaging_bound_values():
    assert averaging_bound(9) == Fraction(317, 63)
    assert abs(float(averaging_bound(9)) - 5.032) < 1e-3
    with pytest.raises(ValueError):
        averaging_bound(2)


def test_expected_upper_monochromatic():
    coloring = CompleteGraphColoring(9, 3, (1,) * 36)
    degree_avg, star_avg = expected_X_upper(coloring)
    assert degree_avg == 3
    assert star_avg == 0


def test_expected_upper_rejects_wrong_palette():
    coloring = CompleteGraphColoring(5, 2, (1, 2) * 5)
    with pytest.raises(ValueError):
        expected_X_upper(coloring)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=4, max_value=10))
@settings(max_examples=25, deadline=None)
def test_double_counting_and_amgm(seed, n):
    coloring = random_coloring(n, 3, SeededStream(seed))
    degree_avg, star_avg = expected_X_upper(coloring)
    assert degree_avg == star_avg + 3  # exact double counting
    assert degree_avg <= averaging_bound(n)  # arithmetic-geometric mean step
    table = color_degrees(coloring)
    cap = Fraction(n - 1, 3) ** 3
    for v in range(1, n + 1):
        d1, d2, d3 = table.row(v)
        assert d1 * d2 * d3 <= cap


def test_balanced_vertex_achieves_amgm_equality():
    # n = 7: a vertex with degrees (2, 2, 2) hits ((n-1)/3)^3 exactly
    n = 7
    colors = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            colors.append((i + j) % 3 + 1)
    coloring = CompleteGraphColoring(n, 3, tuple(colors))
    table = color_degrees(coloring)
    cap = Fraction(n - 1, 3) ** 3
    balanced = [v for v in range(1, n + 1) if sorted(table.row(v)) == [2, 2, 2]]
    assert balanced, "construction should balance at least one vertex"
    for v in balanced:
        d1, d2, d3 = table.row(v)
        assert Fraction(d1 * d2 * d3) == cap
