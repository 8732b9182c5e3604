"""Analytic thresholds for rainbow tree families in randomly colored K_n.

The quantities of interest, for terminal-set size k >= 3 and demand ell:

* p = k!/k^k, the probability that a fixed external star is rainbow under
  a uniform k-coloring (exact rational).
* The union-bound threshold N1 = 4*ceil(((k+ell-1)/ln(1/(1-p)))^2): above
  it, n^(k+ell-1) * (1-p)^(n-(k+ell-1)) <= 1, so a random k-coloring works
  with positive probability. The squared logarithm makes ln(1-p) and
  ln(1/(1-p)) interchangeable; we evaluate the latter.
* The order threshold N2 below which no k-coloring can be forced to fail:
  k itself when ell > floor(k/2), otherwise a monochromatic K_k argument
  needs n >= R_{k-1}(k), for which only the multinomial upper bound
  (t1+...+tr)!/(t1!...tr!) on R(t1+1,...,tr+1) is computed here.
* The concentration threshold: theta(eps, k) is the largest root of
  x^k * exp(-(p eps^2 / 2)(x - k)) = 1; for ell >= p(theta-k)(1-eps)+1,
  every n >= ceil((ell-1)/(p(1-eps)) + k) admits a good k-coloring.
* The averaging bound 2(n-1)^2/(9(n-2)) + 3: under any 3-coloring of K_n
  some triple has at most this many internally disjoint rainbow trees.

Rational formulas are computed exactly with fractions; formulas mixing
logarithms are evaluated at 60 significant digits before any ceiling, and
each ceiling is cross-checked at doubled precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import mpmath

from .colorings import CompleteGraphColoring, color_degrees
from .trees import _rainbow_centers

__all__ = [
    "BoundReport",
    "N2Kind",
    "RamseyQuery",
    "TailComparison",
    "averaging_bound",
    "binomial_tail_below",
    "binomial_upper_vs_union",
    "chernoff_theta",
    "combined_N",
    "ell_min",
    "expected_X_upper",
    "multicolor_ramsey_upper",
    "n1_bound",
    "n2_bound",
    "n_threshold",
    "rainbow_star_prob",
    "union_bound_failure",
]

_PRECISION_DPS = 60


def rainbow_star_prob(k: int) -> Fraction:
    """p = k!/k^k, the rainbow probability of one external star."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return Fraction(math.factorial(k), k ** k)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _ceil_checked(compute) -> int:
    """Ceiling of a high-precision value, cross-checked at doubled precision."""
    with mpmath.workdps(_PRECISION_DPS):
        first = int(mpmath.ceil(compute()))
    with mpmath.workdps(2 * _PRECISION_DPS):
        second = int(mpmath.ceil(compute()))
    if first != second:
        raise ArithmeticError("ceiling unstable under precision doubling")
    return first


def _check_k_ell(k: int, ell: int) -> None:
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")


def n1_bound(k: int, ell: int) -> int:
    """4 * ceil(((k+ell-1)/ln(1/(1-p)))^2) with p = k!/k^k."""
    _check_k_ell(k, ell)
    p = rainbow_star_prob(k)

    def value() -> mpmath.mpf:
        log = mpmath.log(1 / _mpf(1 - p))
        return (mpmath.mpf(k + ell - 1) / log) ** 2

    return 4 * _ceil_checked(value)


def union_bound_failure(n: int, k: int, ell: int) -> float:
    """n^(k+ell-1) * (1-p)^(n-(k+ell-1)), evaluated in log space.

    At most 1 certifies that a uniform random k-coloring gives every k-set
    its ell internally disjoint rainbow trees with positive probability.
    """
    _check_k_ell(k, ell)
    if n < k + ell:
        raise ValueError(f"need n >= k + ell = {k + ell}, got {n}")
    p = rainbow_star_prob(k)
    e = k + ell - 1
    logv = e * math.log(n) + (n - e) * math.log(
        (p.denominator - p.numerator) / p.denominator)
    if logv > 700.0:
        return math.inf
    return math.exp(logv)


def binomial_tail_below(m: int, p: Fraction, j: int) -> Fraction:
    """Pr[X <= j] for X ~ Binomial(m, p), exact."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if j < 0:
        return Fraction(0)
    q = 1 - p
    total = Fraction(0)
    for i in range(0, min(j, m) + 1):
        total += math.comb(m, i) * p ** i * q ** (m - i)
    if j >= m:
        return Fraction(1)
    return total


@dataclass(frozen=True)
class TailComparison:
    """Exact binomial tail against its two closed-form over-estimates.

    ``anomaly`` flags exact > subset_bound; the subset bound is a union
    bound over (ell-1)-subsets, so this should never fire, but it is
    reported rather than asserted.
    """

    exact: Fraction
    subset_bound: Fraction
    power_bound: Fraction
    anomaly: bool


def binomial_upper_vs_union(n: int, k: int, ell: int) -> TailComparison:
    """Exact tail vs C(n-k, ell-1)(1-p)^(n-k-ell+1) vs n^(ell-1)(1-p)^(n-k-ell+1).

    Requires n - k >= ell >= 1. The chain exact <= subset <= power holds,
    with subset < power strictly for ell >= 2 (the two coincide at ell = 1).
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if n - k < ell:
        raise ValueError(f"need n - k >= ell, got n-k={n - k}, ell={ell}")
    p = rainbow_star_prob(k)
    m = n - k
    q = 1 - p
    exact = binomial_tail_below(m, p, ell - 1)
    subset = math.comb(m, ell - 1) * q ** (m - ell + 1)
    power = Fraction(n) ** (ell - 1) * q ** (m - ell + 1)
    return TailComparison(exact, subset, power, anomaly=exact > subset)


def chernoff_theta(eps: Fraction | float | str, k: int, tol: float = 1e-9) -> float:
    """Largest root of x^k * exp(-(p eps^2/2)(x-k)) = 1.

    Solved on g(x) = k ln x - (p eps^2/2)(x-k), which is strictly concave
    with g(k) = k ln k > 0; the bracket starts at the maximizer
    x* = 2k/(p eps^2) and doubles until g < 0, then bisects until
    |g(theta)| <= tol.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rate = float(rainbow_star_prob(k) * eps * eps / 2)

    def g(x: float) -> float:
        return k * math.log(x) - rate * (x - k)

    lo = k / rate  # maximizer of g; g there is positive in-domain
    hi = lo * 2
    while g(hi) > 0:
        hi *= 2
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid  # float resolution exhausted
        val = g(mid)
        if abs(val) <= tol:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid


def ell_min(eps: Fraction | float | str, k: int, tol: float = 1e-9) -> int:
    """Least demand covered by the concentration argument: ceil(p(theta-k)(1-eps)+1)."""
    eps = Fraction(eps)
    theta = chernoff_theta(eps, k, tol)
    p = rainbow_star_prob(k)
    return math.ceil(float(p) * (theta - k) * float(1 - eps) + 1)


def n_threshold(eps: Fraction | float | str, k: int, ell: int, tol: float = 1e-9) -> int:
    """ceil((ell-1)/(p(1-eps)) + k), valid for ell >= ell_min(eps, k).

    The returned n also satisfies n >= theta(eps, k), which is what makes
    the union bound close.
    """
    eps = Fraction(eps)
    minimum = ell_min(eps, k, tol)
    if ell < minimum:
        raise ValueError(f"need ell >= {minimum} for eps={eps}, k={k}; got {ell}")
    p = rainbow_star_prob(k)
    value = Fraction(ell - 1) / (p * (1 - eps)) + k
    return -((-value.numerator) // value.denominator)


@dataclass(frozen=True)
class RamseyQuery:
    """Arguments t_1..t_r of a multicolor Ramsey number, each at least 2."""

    arguments: tuple[int, ...]

    def __post_init__(self):
        if len(self.arguments) < 1:
            raise ValueError("need at least one argument")
        if any(t < 2 for t in self.arguments):
            raise ValueError(f"all arguments must be >= 2, got {self.arguments}")

    @classmethod
    def uniform(cls, r: int, t: int) -> "RamseyQuery":
        return cls((t,) * r)


def multicolor_ramsey_upper(query: RamseyQuery) -> int:
    """Multinomial upper bound (sum(t_i - 1))! / prod((t_i - 1)!) on R(t_1,...,t_r)."""
    shifted = [t - 1 for t in query.arguments]
    total = math.factorial(sum(shifted))
    for s in shifted:
        total //= math.factorial(s)
    return total


class N2Kind(Enum):
    TRIVIAL_K = "trivial_k"
    RAMSEY_UPPER = "ramsey_upper"


def n2_bound(k: int, ell: int) -> tuple[N2Kind, int]:
    """Order above which k-1 colors are provably too few.

    For ell > floor(k/2) the induced K_k alone forces an external tree, so
    the answer is k itself. Otherwise a monochromatic K_k forces it, and
    the multinomial upper bound on R_{k-1}(k) is returned; this is an upper
    bound on the exact threshold, not the threshold itself.
    """
    _check_k_ell(k, ell)
    if ell > k // 2:
        return (N2Kind.TRIVIAL_K, k)
    return (N2Kind.RAMSEY_UPPER, multicolor_ramsey_upper(RamseyQuery.uniform(k - 1, k)))


@dataclass(frozen=True)
class BoundReport:
    """Every threshold relevant to a (k, ell) instance, in one record."""

    k: int
    ell: int
    p: Fraction
    f_k: Fraction
    n1: int
    n2_kind: N2Kind
    n2: int
    combined: int
    eps: Optional[Fraction] = None
    theta: Optional[float] = None
    ell_minimum: Optional[int] = None
    n_thresh: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "ell": self.ell,
            "p": {"rational": f"{self.p.numerator}/{self.p.denominator}",
                  "decimal": float(self.p)},
            "f_k": {"rational": f"{self.f_k.numerator}/{self.f_k.denominator}",
                    "decimal": float(self.f_k)},
            "N1": self.n1,
            "N2": {"kind": self.n2_kind.value, "value": self.n2},
            "N": self.combined,
            "conventions": {
                "n1_log": "the squared log reads ln(1-p) as ln(1/(1-p))",
                "n2": "ramsey_upper values bound the exact order threshold from above",
            },
        }
        if self.eps is not None:
            out["eps"] = {"rational": f"{self.eps.numerator}/{self.eps.denominator}",
                          "decimal": float(self.eps)}
            out["theta"] = self.theta
            out["ell_min"] = self.ell_minimum
            out["n_threshold"] = self.n_thresh
        return out


def combined_N(
    k: int,
    ell: int,
    eps: Fraction | float | str | None = None,
    *,
    theta_tol: float = 1e-9,
) -> BoundReport:
    """Assemble the full report; N = max(N1, N2) without eps.

    With eps supplied (and ell >= ell_min), the concentration threshold
    replaces N1; for k = 3 this gives N = max(6, ceil(9(ell-1)/(2(1-eps))+3)).
    """
    _check_k_ell(k, ell)
    p = rainbow_star_prob(k)
    if not 0 < p <= Fraction(2, 9):
        raise AssertionError("star probability outside (0, 2/9]")
    f_k = 1 / (1 - p)
    n1 = n1_bound(k, ell)
    if n1 < k + ell:
        raise AssertionError("union-bound threshold below k + ell")
    kind, n2 = n2_bound(k, ell)
    if eps is None:
        return BoundReport(k, ell, p, f_k, n1, kind, n2, max(n1, n2))
    eps = Fraction(eps)
    theta = chernoff_theta(eps, k, theta_tol)
    lmin = ell_min(eps, k, theta_tol)
    nthr = n_threshold(eps, k, ell, theta_tol)
    if nthr < theta - theta_tol:
        raise AssertionError("n_threshold fell below theta")
    if k == 3:
        combined = max(6, nthr)  # 6 bounds the 2-coloring threshold R(3,3)
    else:
        combined = max(n2, nthr)
    return BoundReport(k, ell, p, f_k, n1, kind, n2, combined,
                       eps=eps, theta=theta, ell_minimum=lmin, n_thresh=nthr)


# ---------------------------------------------------------------------------
# Averaging bound for 3-colorings

def averaging_bound(n: int) -> Fraction:
    """2(n-1)^2 / (9(n-2)) + 3, exact."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return Fraction(2 * (n - 1) ** 2, 9 * (n - 2)) + 3


def expected_X_upper(coloring: CompleteGraphColoring) -> tuple[Fraction, Fraction]:
    """Degree-product average bound and the rainbow-star average, both exact.

    Returns (3 + sum_v d1(v)d2(v)d3(v) / C(n,3), sum_S stars(S) / C(n,3)).
    Counting rainbow 3-stars by center or by leaf triple gives the same
    total, so the first value always equals the second plus 3, and the
    arithmetic-geometric mean step caps the first by averaging_bound(n).
    """
    if coloring.t != 3:
        raise ValueError(f"averaging analysis needs exactly 3 colors, got t={coloring.t}")
    n = coloring.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    triples = math.comb(n, 3)
    table = color_degrees(coloring)
    product_sum = 0
    for v in range(1, n + 1):
        d1, d2, d3 = table.row(v)
        product_sum += d1 * d2 * d3
    mat = coloring.matrix
    star_sum = sum(len(_rainbow_centers(members, mat, n, n))
                   for members in combinations(range(1, n + 1), 3))
    return 3 + Fraction(product_sum, triples), Fraction(star_sum, triples)
