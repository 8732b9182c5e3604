"""Edge-colorings of the complete graph K_n.

Vertices are numbered 1..n. Edges are the unordered pairs {u, v}, u < v,
kept in lexicographic order (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).
This edge order is load-bearing: the text file format and the canonical
form used by symmetry-broken enumeration are both defined over it, so it
must never change.

Randomness comes from a counter-based generator (Philox-4x64) so that
substreams addressed by index are provably non-overlapping, which makes
every sampling routine reproducible independent of how work is chunked
across workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "BudgetExceededError",
    "ColorDegreeTable",
    "ColoringFormatError",
    "CompleteGraphColoring",
    "SeededStream",
    "canonical_color_form",
    "color_degrees",
    "edge_count",
    "edge_index",
    "edge_pairs",
    "enumerate_colorings",
    "enumeration_state_count",
    "format_coloring",
    "parallel_map",
    "parse_coloring",
    "random_coloring",
    "read_coloring",
    "write_coloring",
]

DEFAULT_ENUM_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """A search or enumeration state space exceeds the configured budget."""

    def __init__(self, message: str, size: int):
        super().__init__(message)
        self.size = size


class ColoringFormatError(ValueError):
    """Malformed coloring text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def edge_count(n: int) -> int:
    """Number of edges of K_n."""
    return n * (n - 1) // 2


def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in the fixed lexicographic order."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def edge_index(u: int, v: int, n: int) -> int:
    """Position of edge {u, v} in the lexicographic edge order of K_n."""
    if u == v:
        raise ValueError(f"no self-loop edge ({u},{v}) in K_{n}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
    i, j = (u, v) if u < v else (v, u)
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# Reproducible randomness

_SUBSTREAM_FANOUT = 1 << 32
_COUNTER_STRIDE_BITS = 128  # each substream owns 2**128 Philox counter blocks


@dataclass(frozen=True)
class SeededStream:
    """Addressable random stream backed by the counter-based Philox generator.

    Substream ``i`` starts at counter block ``stream_index * 2**128``, so
    distinct stream indices can never overlap. ``substream`` uses heap-style
    addressing (child = parent * 2**32 + i + 1), which keeps two levels of
    derivation collision-free; identical (master_seed, stream_index) always
    reproduces the identical draw sequence.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream_index < 1 << _COUNTER_STRIDE_BITS:
            raise ValueError("stream_index out of addressable range")

    def substream(self, index: int) -> "SeededStream":
        """Derive the index-th child stream."""
        if not 0 <= index < _SUBSTREAM_FANOUT:
            raise ValueError(f"substream index must be in 0..{_SUBSTREAM_FANOUT - 1}")
        return SeededStream(self.master_seed, self.stream_index * _SUBSTREAM_FANOUT + index + 1)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        bitgen = np.random.Philox(counter=self.stream_index << _COUNTER_STRIDE_BITS, key=self.master_seed)
        return np.random.Generator(bitgen)


def parallel_map(fn: Callable, jobs: Iterable, workers: int) -> Iterable:
    """``map(fn, jobs)`` in job order: lazily in this process for one worker,
    else on a pool of ``workers`` processes (``fn`` and the jobs must pickle)."""
    if workers <= 1:
        return map(fn, jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# Colorings

@dataclass(frozen=True)
class CompleteGraphColoring:
    """An edge-coloring of K_n with palette 1..t.

    ``colors`` holds one color per edge in the fixed lexicographic edge
    order (dense triangular layout, n(n-1)/2 entries). Instances are
    immutable and safe to share read-only across parallel workers.
    """

    n: int
    t: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"vertex count must be at least 2, got {self.n}")
        if self.t < 1:
            raise ValueError(f"palette size must be at least 1, got {self.t}")
        m = edge_count(self.n)
        if len(self.colors) != m:
            raise ValueError(f"expected {m} edge colors for K_{self.n}, got {len(self.colors)}")
        if m and not (1 <= min(self.colors) and max(self.colors) <= self.t):
            bad = next(c for c in self.colors if not 1 <= c <= self.t)
            raise ValueError(f"color {bad} outside palette 1..{self.t}")

    def color(self, u: int, v: int) -> int:
        """Color of edge {u, v}; symmetric in its arguments."""
        return self.colors[edge_index(u, v, self.n)]

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """(n+1) x (n+1) lookup table, 1-based, zero on the diagonal."""
        n = self.n
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        it = iter(self.colors)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                c = next(it)
                rows[i][j] = c
                rows[j][i] = c
        return tuple(tuple(r) for r in rows)

    def recolored(self, u: int, v: int, color: int) -> "CompleteGraphColoring":
        """Copy with the single edge {u, v} set to ``color``."""
        idx = edge_index(u, v, self.n)
        colors = self.colors[:idx] + (color,) + self.colors[idx + 1:]
        return CompleteGraphColoring(self.n, self.t, colors)


def random_coloring(n: int, t: int, stream: SeededStream) -> CompleteGraphColoring:
    """Uniform independent edge colors, reproducible from the stream."""
    if n < 2:
        raise ValueError(f"vertex count must be at least 2, got {n}")
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    draws = stream.generator().integers(1, t + 1, size=edge_count(n))
    return CompleteGraphColoring(n, t, tuple(int(c) for c in draws))


@dataclass(frozen=True)
class ColorDegreeTable:
    """Per-vertex color degrees: count(v, i) edges of color i at vertex v."""

    n: int
    t: int
    counts: tuple[tuple[int, ...], ...]

    def count(self, v: int, color: int) -> int:
        return self.counts[v - 1][color - 1]

    def row(self, v: int) -> tuple[int, ...]:
        return self.counts[v - 1]


def color_degrees(coloring: CompleteGraphColoring) -> ColorDegreeTable:
    """Tabulate d(v, i) = |{u != v : color(u,v) = i}|; rows sum to n-1."""
    n, t = coloring.n, coloring.t
    counts = [[0] * t for _ in range(n)]
    it = iter(coloring.colors)
    for i in range(1, n):
        row_i = counts[i - 1]
        for j in range(i + 1, n + 1):
            c = next(it) - 1
            row_i[c] += 1
            counts[j - 1][c] += 1
    return ColorDegreeTable(n, t, tuple(tuple(r) for r in counts))


# ---------------------------------------------------------------------------
# Exhaustive enumeration

def canonical_color_form(colors: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel colors by first occurrence along the fixed edge order.

    Two colorings are related by a color permutation iff they have the same
    canonical form, so this picks one representative per orbit.
    """
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        mapped = relabel.get(c)
        if mapped is None:
            mapped = len(relabel) + 1
            relabel[c] = mapped
        out.append(mapped)
    return tuple(out)


@lru_cache(maxsize=None)
def _stirling2(m: int, j: int) -> int:
    if m == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return j * _stirling2(m - 1, j) + _stirling2(m - 1, j - 1)


def enumeration_state_count(n: int, t: int, symmetry_breaking: bool) -> int:
    """Number of colorings enumerate_colorings would yield."""
    m = edge_count(n)
    if not symmetry_breaking:
        return t ** m
    return sum(_stirling2(m, j) for j in range(1, t + 1))


def _canonical_sequences(m: int, t: int) -> Iterator[tuple[int, ...]]:
    # Restricted-growth sequences: seq[0] = 1 and each entry is at most
    # one more than the running maximum, capped at t.
    seq = [1] * m
    prefix_max = [1] * m
    while True:
        yield tuple(seq)
        i = m - 1
        while i > 0:
            cap = min(prefix_max[i - 1] + 1, t)
            if seq[i] < cap:
                seq[i] += 1
                prefix_max[i] = max(prefix_max[i - 1], seq[i])
                for j in range(i + 1, m):
                    seq[j] = 1
                    prefix_max[j] = prefix_max[i]
                break
            i -= 1
        else:
            return


def enumerate_colorings(
    n: int,
    t: int,
    symmetry_breaking: bool = False,
    *,
    max_states: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[CompleteGraphColoring]:
    """Yield every coloring of K_n with palette 1..t exactly once.

    With ``symmetry_breaking`` on, exactly one representative per
    color-permutation orbit is yielded, namely the coloring whose colors
    first appear in increasing order along the lexicographic edge order.
    Raises BudgetExceededError (naming the state-space size) before
    yielding anything if the space is larger than ``max_states``.
    """
    if n < 2:
        raise ValueError(f"vertex count must be at least 2, got {n}")
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    states = enumeration_state_count(n, t, symmetry_breaking)
    if states > max_states:
        raise BudgetExceededError(
            f"enumeration space has {states} colorings, budget is {max_states}",
            size=states,
        )
    m = edge_count(n)
    if symmetry_breaking:
        seqs: Iterator[tuple[int, ...]] = _canonical_sequences(m, t)
    else:
        seqs = product(range(1, t + 1), repeat=m)
    for seq in seqs:
        yield CompleteGraphColoring(n, t, seq)


# ---------------------------------------------------------------------------
# Text format
#
# Line 1: "n t".  Then n(n-1)/2 whitespace-separated integers, the edge
# colors in lexicographic pair order.  Lines starting with '#' are ignored.

def format_coloring(coloring: CompleteGraphColoring) -> str:
    lines = [f"{coloring.n} {coloring.t}"]
    pos = 0
    for i in range(1, coloring.n):
        width = coloring.n - i
        lines.append(" ".join(str(c) for c in coloring.colors[pos:pos + width]))
        pos += width
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> CompleteGraphColoring:
    header: tuple[int, int] | None = None
    colors: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ColoringFormatError(
                    f"expected header 'n t', got {raw.strip()!r}", lineno)
            try:
                n, t = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ColoringFormatError(
                    f"non-integer header token in {raw.strip()!r}", lineno) from None
            if n < 2 or t < 1:
                raise ColoringFormatError(f"invalid header n={n} t={t}", lineno)
            header = (n, t)
            continue
        n, t = header
        m = edge_count(n)
        for tok in tokens:
            try:
                c = int(tok)
            except ValueError:
                raise ColoringFormatError(f"non-integer color {tok!r}", lineno) from None
            if len(colors) >= m:
                raise ColoringFormatError(
                    f"too many colors: expected {m} entries", lineno)
            if c > t:
                raise ColoringFormatError(f"color {c} exceeds palette {t}", lineno)
            if c < 1:
                raise ColoringFormatError(f"color {c} is not a positive color index", lineno)
            colors.append(c)
    if header is None:
        raise ColoringFormatError("missing header 'n t'", max(last_line, 1))
    n, t = header
    m = edge_count(n)
    if len(colors) != m:
        raise ColoringFormatError(
            f"expected {m} edge colors, found {len(colors)}", max(last_line, 1))
    return CompleteGraphColoring(n, t, tuple(colors))


def write_coloring(coloring: CompleteGraphColoring, destination: str | Path | IO[str]) -> str:
    """Serialize to the text format; returns the exact text written."""
    text = format_coloring(coloring)
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text)
    else:
        destination.write(text)
    return text


def read_coloring(source: str | Path | IO[str]) -> CompleteGraphColoring:
    """Parse a coloring from a path or open text stream."""
    if hasattr(source, "read"):
        return parse_coloring(source.read())
    return parse_coloring(Path(source).read_text())
