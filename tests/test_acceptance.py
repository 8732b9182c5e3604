"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; they are also flushed on failure.
"""

import math
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest

from rainbowindex.bounds import (
    averaging_bound,
    binomial_tail_below,
    chernoff_theta,
    ell_min,
    expected_X_upper,
    multicolor_ramsey_upper,
    n1_bound,
    n2_bound,
    n_threshold,
    rainbow_star_prob,
    union_bound_failure,
    RamseyQuery,
)
from rainbowindex.cli import main
from rainbowindex.colorings import SeededStream, enumerate_colorings, random_coloring
from rainbowindex.montecarlo import (
    TrialConfig,
    chernoff_tail_bound,
    empirical_threshold,
    estimate_BS,
)
from rainbowindex.trees import OracleMode, VertexSet, max_disjoint_rainbow_trees


def report(number: int, passed: bool, label: str) -> None:
    print(f"{'[PASS]' if passed else '[FAIL]'} criterion {number}: {label}")
    assert passed, f"criterion {number}: {label}"


def test_criterion_01_concentration_roots():
    t1 = chernoff_theta(Fraction(1, 2), 3)
    t2 = chernoff_theta(Fraction(2, 3), 3)
    ok = abs(t1 - 712.415) <= 0.01 and abs(t2 - 360.699) <= 0.01
    report(1, ok, f"theta(1/2,3)={t1:.3f} and theta(2/3,3)={t2:.3f} "
                  "match 712.415 / 360.699 within 0.01")


def test_criterion_02_demand_and_order_thresholds():
    ok = ell_min(Fraction(1, 2), 3) == 80
    ok &= all(n_threshold(Fraction(1, 2), 3, ell) == 9 * ell - 6
              for ell in range(80, 121))
    ok &= ell_min(Fraction(2, 3), 3) == 28
    ok &= all(n_threshold(Fraction(2, 3), 3, ell) == math.ceil(Fraction(3, 2) * (9 * ell - 7))
              for ell in range(28, 61))
    report(2, ok, "ell_min/n_threshold exactly match 80 with 9*ell-6 "
                  "and 28 with ceil(3(9*ell-7)/2) over their ranges")


def test_criterion_03_union_bound_threshold():
    with mpmath.workdps(60):
        log97 = mpmath.log(mpmath.mpf(9) / 7)
        formula_ok = all(
            n1_bound(3, ell) == 4 * int(mpmath.ceil(((ell + 2) / log97) ** 2))
            for ell in range(1, 51))
    guarantee_ok = all(
        union_bound_failure(n1_bound(k, ell), k, ell) <= 1
        for k in (3, 4, 5) for ell in range(1, 11))
    report(3, formula_ok and guarantee_ok,
           "n1_bound(3,ell) = 4*ceil(((ell+2)/ln(9/7))^2) on ell=1..50 and "
           "the union bound is <= 1 at its own threshold for k=3,4,5, ell=1..10")


def test_criterion_04_ramsey_bounds():
    ok = multicolor_ramsey_upper(RamseyQuery.uniform(2, 3)) == 6
    ok &= multicolor_ramsey_upper(RamseyQuery.uniform(3, 4)) == 1680
    kind, value = n2_bound(3, 1)
    ok &= value == 6 and kind.value == "ramsey_upper"
    report(4, ok, "multinomial bound gives 6 for two colors/triangles and "
                  "1680 for three colors/K4; n2_bound(3,1) = 6")


def test_criterion_05_double_counting_identity():
    violations = 0
    for coloring in enumerate_colorings(5, 3):
        degree_avg, star_avg = expected_X_upper(coloring)
        if degree_avg != star_avg + 3:
            violations += 1
    stream = SeededStream(505)
    for i in range(1000):
        coloring = random_coloring(12, 3, stream.substream(i))
        degree_avg, star_avg = expected_X_upper(coloring)
        if degree_avg != star_avg + 3:
            violations += 1
    report(5, violations == 0,
           "rainbow-star double counting holds exactly on all 9842 canonical "
           "3-colorings of K_5 and on 1000 random 3-colorings of K_12")


def test_criterion_06_averaging_bound_is_respected():
    bound = averaging_bound(9)
    assert bound == Fraction(317, 63)  # about 5.032
    cap = math.floor(bound)  # an integer count <= 5.032 means <= 5
    stream = SeededStream(606)
    ok = True
    for i in range(1000):
        coloring = random_coloring(9, 3, stream.substream(i))
        smallest = None
        for members in combinations(range(1, 10), 3):
            value, _ = max_disjoint_rainbow_trees(
                VertexSet(members), coloring, OracleMode.star())
            if smallest is None or value < smallest:
                smallest = value
            if smallest <= cap:
                break
        if smallest > cap:
            ok = False
            break
    report(6, ok, "on 1000 random 3-colorings of K_9 some triple always has "
                  f"at most {cap} internally disjoint rainbow trees "
                  f"(averaging bound {float(bound):.3f})")


def test_criterion_07_tail_sandwich_on_grid():
    p = rainbow_star_prob(3)
    ok = True
    with mpmath.workdps(50):
        for n in range(20, 201, 20):
            m = n - 3
            tail = Fraction(0)
            q = 1 - p
            for ell in range(1, int(m * p) + 1):
                i = ell - 1
                tail += math.comb(m, i) * p ** i * q ** (m - i)
                # exact tail vs the concentration bound, 50-digit comparison
                shift = (m * p - i) / (m * p)
                exponent = -Fraction(1, 2) * shift * shift * p * m
                bound = mpmath.exp(mpmath.mpf(exponent.numerator) / exponent.denominator)
                tail_mp = mpmath.mpf(tail.numerator) / tail.denominator
                if tail_mp > bound:
                    ok = False
                if float(tail) > chernoff_tail_bound(n, 3, ell):
                    ok = False
                # exact tail vs the power-form union bound, exact rationals
                if n >= 3 + ell and tail > Fraction(n) ** (ell - 1) * q ** (m - ell + 1):
                    ok = False
    report(7, ok, "exact Binomial(n-3, 2/9) tails stay below the concentration "
                  "bound and the n^(ell-1)(1-p)^(n-k-ell+1) bound over "
                  "n=20..200 step 20, all admissible ell")


def test_criterion_08_constructive_k6_certificates(tmp_path, capsys):
    ok = True
    for ell, strategy in ((1, "random"), (2, "local")):
        out = tmp_path / f"k6_ell{ell}.coloring"
        code = main(["search", "-n", "6", "-k", "3", "-l", str(ell), "-t", "3",
                     "--strategy", strategy, "--mode", "full", "--seed", "8",
                     "-o", str(out)])
        ok &= code == 0
        code = main(["verify", str(out), "-k", "3", "-l", str(ell), "--mode", "full"])
        ok &= code == 0
    capsys.readouterr()  # swallow CLI output; verdict line below
    report(8, ok, "search finds and full-mode verification confirms 3-colorings "
                  "of K_6 meeting demand 1 and demand 2 on every triple")


def test_criterion_09_monte_carlo_calibration():
    exact = float(Fraction(7, 9) ** 4)
    hits = 0
    for rep in range(20):
        config = TrialConfig(n=7, k=3, ell=1, t=3, samples=100_000,
                             seed=SeededStream(9000 + rep))
        summary = estimate_BS(config)
        if summary.wilson_low <= exact <= summary.wilson_high:
            hits += 1
    report(9, hits >= 18,
           f"the 95% Wilson interval covered the exact tail (7/9)^4 in "
           f"{hits}/20 seeded repetitions (need >= 18)")


def test_criterion_10_threshold_sweep_report():
    # Measurement only: the asymptotic-optimality claim is not testable at
    # desk scale; criterion 6 carries the finite-n inequality behind it.
    header = f"{'ell':>4} {'empirical n (target 0.9)':>26} {'9*ell-6':>8} {'n1_bound':>9}"
    lines = [header]
    for ell in range(1, 11):
        found, rows = empirical_threshold(
            3, ell, 3, samples=60, target=0.9, n_range=[12, 27, 42, 57],
            seed=SeededStream(1000 + ell))
        shown = found if found is not None else "not found <= 57"
        lines.append(f"{ell:>4} {str(shown):>26} {9 * ell - 6:>8} {n1_bound(3, ell):>9}")
    print()
    for line in lines:
        print(f"    {line}")
    report(10, True, "empirical threshold sweep reported for ell=1..10 "
                     "(measurement only, no assertion)")
