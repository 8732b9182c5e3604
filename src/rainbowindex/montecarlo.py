"""Monte Carlo estimates of the events the analytic thresholds control.

Two experiments, both over uniform random edge colorings:

* estimate_BS — frequency of "the fixed terminal set {1..k} collects at
  most ell-1 rainbow stars". The star count is Binomial(n-k, k!/k^k)
  exactly, so the empirical frequency has an exact comparator.
* estimate_AS_all — frequency of "every k-set simultaneously reaches
  demand ell", i.e. the coloring verifies. Any success is a constructive
  certificate and the witness coloring is kept.

Sampling is chunked with a fixed chunk size and one substream per chunk
(or per sample), so results are identical regardless of how chunks are
scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bounds import binomial_tail_below, rainbow_star_prob, union_bound_failure
from .colorings import CompleteGraphColoring, SeededStream, parallel_map, random_coloring
from .trees import OracleMode, verify_coloring

__all__ = [
    "CHUNK",
    "TrialConfig",
    "TrialSummary",
    "chernoff_tail_bound",
    "estimate_AS_all",
    "estimate_BS",
    "empirical_threshold",
    "tail_comparators",
    "wilson_interval",
]

CHUNK = 4096

# two-sided 95% normal quantile
Z95 = 1.959963984540054


def wilson_interval(successes: int, samples: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; well-behaved at frequencies 0 and 1."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= successes <= samples:
        raise ValueError("successes out of range")
    phat = successes / samples
    z2 = z * z
    denom = 1 + z2 / samples
    center = phat + z2 / (2 * samples)
    spread = z * math.sqrt(phat * (1 - phat) / samples + z2 / (4 * samples * samples))
    lo = (center - spread) / denom
    hi = (center + spread) / denom
    # the exact interval always contains phat; clamp float noise at 0 and 1
    return (max(0.0, min(lo, phat)), min(1.0, max(hi, phat)))


def chernoff_tail_bound(n: int, k: int, ell: int) -> float:
    """exp(-((mp - ell + 1)/(mp))^2 * p * m / 2) with m = n - k, p = k!/k^k.

    Upper-bounds the exact Binomial(m, p) tail at ell - 1; only admissible
    while m * p > ell - 1.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    p = rainbow_star_prob(k)
    m = n - k
    mean = m * p
    if not mean > ell - 1:
        raise ValueError(
            f"inadmissible: (n-k)p = {float(mean):.6g} must exceed ell-1 = {ell - 1}")
    shift = float((mean - (ell - 1)) / mean)
    return math.exp(-0.5 * shift * shift * float(p) * m)


@dataclass(frozen=True)
class TrialConfig:
    n: int
    k: int
    ell: int
    t: int
    samples: int
    seed: SeededStream
    mode: OracleMode = OracleMode.star()

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"need k <= n, got k={self.k}, n={self.n}")
        if self.t < 1:
            raise ValueError(f"need t >= 1, got {self.t}")
        if self.samples < 1:
            raise ValueError(f"need samples >= 1, got {self.samples}")
        if self.ell < 0:
            raise ValueError(f"need ell >= 0, got {self.ell}")


@dataclass(frozen=True)
class TrialSummary:
    successes: int
    samples: int
    point_estimate: float
    wilson_low: float
    wilson_high: float
    comparators: dict[str, float]

    def __post_init__(self):
        if not 0 <= self.successes <= self.samples:
            raise ValueError("successes out of range")
        if not self.wilson_low <= self.point_estimate <= self.wilson_high:
            raise ValueError("point estimate outside its Wilson interval")

    def to_json_dict(self) -> dict:
        return {
            "successes": self.successes,
            "samples": self.samples,
            "estimate": self.point_estimate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "comparators": dict(self.comparators),
        }


def _summary(successes: int, samples: int, comparators: dict[str, float]) -> TrialSummary:
    lo, hi = wilson_interval(successes, samples)
    return TrialSummary(successes, samples, successes / samples, lo, hi, comparators)


def tail_comparators(n: int, k: int, ell: int) -> dict[str, float]:
    """Exact star tail Pr[Binomial(n-k, p) <= ell-1], plus the Chernoff and
    union bounds wherever they are defined (k >= 3, ell >= 1, and each
    bound's own admissibility condition). Needs 2 <= k <= n."""
    p = rainbow_star_prob(k)
    out = {"exact_tail": float(binomial_tail_below(n - k, p, ell - 1))}
    if k >= 3 and ell >= 1:
        if (n - k) * p > ell - 1:
            out["chernoff_tail"] = chernoff_tail_bound(n, k, ell)
        if n >= k + ell:
            out["union_bound_total"] = union_bound_failure(n, k, ell)
    return out


def estimate_BS(config: TrialConfig) -> TrialSummary:
    """Frequency of {at most ell-1 rainbow stars at the first k vertices}.

    Requires t = k (the argument colors with exactly k colors). Only the
    cut edges between the terminal set and the rest can affect the event,
    so only those are sampled; by symmetry the fixed terminal set loses no
    generality.
    """
    if config.t != config.k:
        raise ValueError(f"star sampling needs t = k, got t={config.t}, k={config.k}")
    n, k, ell = config.n, config.k, config.ell
    m = n - k
    target = np.arange(1, k + 1)
    successes = 0
    done = 0
    chunk_index = 0
    while done < config.samples:
        size = min(CHUNK, config.samples - done)
        gen = config.seed.substream(chunk_index).generator()
        draws = gen.integers(1, k + 1, size=(size, m, k))
        if m:
            rainbow = (np.sort(draws, axis=2) == target).all(axis=2)
            counts = rainbow.sum(axis=1)
        else:
            counts = np.zeros(size, dtype=int)
        successes += int((counts <= ell - 1).sum())
        done += size
        chunk_index += 1
    return _summary(successes, config.samples, tail_comparators(n, k, ell))


def _as_all_chunk(args) -> tuple[int, Optional[int]]:
    config, start, size = args
    successes = 0
    first_success: Optional[int] = None
    for offset in range(size):
        idx = start + offset
        coloring = random_coloring(config.n, config.t, config.seed.substream(idx))
        report = verify_coloring(coloring, config.k, config.ell, config.mode)
        if report.passed:
            successes += 1
            if first_success is None:
                first_success = idx
    return successes, first_success


def estimate_AS_all(
    config: TrialConfig, *, workers: int = 1
) -> tuple[TrialSummary, Optional[CompleteGraphColoring]]:
    """Frequency of colorings passing verification for every k-set at once.

    Each sample index owns its substream, so the drawn colorings are
    independent of chunking; the returned witness is the success with the
    least sample index, rebuilt from its substream.
    """
    chunks = [(config, start, min(CHUNK, config.samples - start))
              for start in range(0, config.samples, CHUNK)]
    successes = 0
    first_success: Optional[int] = None
    for got, first in parallel_map(_as_all_chunk, chunks, workers):
        successes += got
        if first_success is None:
            first_success = first
    comparators: dict[str, float] = {}
    total = tail_comparators(config.n, config.k, config.ell).get("union_bound_total")
    if total is not None:
        comparators["union_bound_total"] = total
        comparators["success_lower_bound"] = 1.0 - total
    witness = None
    if first_success is not None:
        witness = random_coloring(config.n, config.t, config.seed.substream(first_success))
    return _summary(successes, config.samples, comparators), witness


def empirical_threshold(
    k: int,
    ell: int,
    t: int,
    samples: int,
    target: float,
    n_range: Sequence[int],
    seed: SeededStream,
    *,
    workers: int = 1,
) -> tuple[Optional[int], list[dict]]:
    """Scan n upward; first n whose Wilson lower bound reaches ``target``.

    Uses the star certificate only (internal packing + rainbow stars),
    which is cheap and sound. Returns (found_n or None, sweep rows); the
    sweep continues past the found n only if the range does.
    """
    if not 0 < target <= 1:
        raise ValueError("target must be in (0, 1]")
    rows: list[dict] = []
    found: Optional[int] = None
    for position, n in enumerate(n_range):
        if n < k:
            raise ValueError(f"range value n={n} below k={k}")
        config = TrialConfig(n=n, k=k, ell=ell, t=t, samples=samples,
                             seed=seed.substream(position), mode=OracleMode.star())
        summary, _ = estimate_AS_all(config, workers=workers)
        # with no external vertex (n = k) a row reports no comparator
        tails = tail_comparators(n, k, ell) if n > k else {}
        rows.append({
            "n": n,
            "samples": summary.samples,
            "successes": summary.successes,
            "estimate": summary.point_estimate,
            "wilson_lo": summary.wilson_low,
            "wilson_hi": summary.wilson_high,
            "exact_tail": tails.get("exact_tail"),
            "chernoff": tails.get("chernoff_tail"),
            "union_bound": tails.get("union_bound_total"),
        })
        if found is None and summary.wilson_low >= target:
            found = n
    return found, rows
