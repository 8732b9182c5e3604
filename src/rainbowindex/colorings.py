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

Only this module knows the triangular edge layout: ``CompleteGraphColoring``
serves one edge's color through ``color`` and every color as one 0-based
numpy ``array``, built once per coloring, which is the one table the
kernels and the oracle read. Exhaustive enumeration refuses state spaces
larger than ``ENUM_BUDGET``. One function, ``parse_coloring``, reads the
text format: a well-formed body in one numpy pass, and any other body
token by token in the rows already read, to name the line of the first
bad token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

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

ENUM_BUDGET = 5_000_000
_T = TypeVar("_T")


class BudgetExceededError(RuntimeError):
    """A search or enumeration state space exceeds its fixed cap."""

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

    def _words(self) -> tuple[tuple[int, ...], tuple[int, int]]:
        """The Philox counter and key at the start of this stream: counter
        stream_index << 128 and key master_seed, as little-endian 64-bit
        words."""
        high, low = divmod(self.stream_index, 1 << 64)
        return (0, 0, low, high), (self.master_seed, 0)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # the words as arrays: the same bits as the integers, converted faster
        counter, key = (np.array(words, dtype=np.uint64) for words in self._words())
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


def parallel_map(fn: Callable, jobs: list, workers: int) -> Iterable:
    """``map(fn, jobs)`` in job order: lazily in this process when one worker
    or one job is left, else on a pool of at most one process per job (``fn``
    and the jobs must pickle). Raises ValueError for fewer than one worker."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return map(fn, jobs)
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool starts

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# Colorings

def _trusted(cls: type[_T], **fields) -> _T:
    """``cls(**fields)`` without ``__post_init__``, for values valid by
    construction; a field named after a cached property fills its cache."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


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

    def __getstate__(self) -> dict:
        # the cached table stays behind, so an unpickled copy rebuilds it read-only
        return {key: value for key, value in self.__dict__.items() if key != "array"}

    def color(self, u: int, v: int) -> int:
        """Color of edge {u, v}; symmetric in its arguments."""
        return self.colors[edge_index(u, v, self.n)]

    @cached_property
    def array(self) -> np.ndarray:
        """Read-only n x n numpy table, 0-based, zero on the diagonal."""
        return _tables(self.n, self.t, self.colors)

    def recolored(self, u: int, v: int, color: int) -> "CompleteGraphColoring":
        """Copy with the single edge {u, v} set to ``color``; only the new color
        is checked. When this coloring's table is built, the copy's is derived
        from it: one copy and the two entries of the edge."""
        idx = edge_index(u, v, self.n)
        if not 1 <= color <= self.t:
            raise ValueError(f"color {color} outside palette 1..{self.t}")
        fields = {"colors": self.colors[:idx] + (color,) + self.colors[idx + 1:]}
        if "array" in self.__dict__:
            table = self.array.copy()
            table[u - 1, v - 1] = table[v - 1, u - 1] = color
            table.flags.writeable = False
            fields["array"] = table
        return _trusted(CompleteGraphColoring, n=self.n, t=self.t, **fields)


def _tables(n: int, t: int, colors) -> np.ndarray:
    """Read-only n x n table of the edge colors ``colors`` (a sequence or an
    array in the edge order), zero on the diagonal, in the smallest type
    that holds t; or, for an (S, C(n,2)) array of such rows, their (S, n, n)
    stack. The colors are converted straight into the table's type."""
    colors = np.asarray(colors, dtype=np.min_scalar_type(t))
    tables = np.zeros(colors.shape[:-1] + (n, n), dtype=colors.dtype)
    vertices = np.arange(n)
    upper = np.empty(tables.shape, dtype=bool)
    upper[...] = vertices[:, None] < vertices
    tables[upper] = colors.ravel()  # each table's upper triangle, row-major: the edge order
    tables = tables + np.swapaxes(tables, -1, -2)
    tables.flags.writeable = False
    return tables


def _random_tables(n: int, t: int, streams: Iterable[SeededStream]) -> tuple[np.ndarray, np.ndarray]:
    """The uniform independent edge colors ``random_coloring`` draws from
    each stream, one row each in the tables' dtype, and their read-only
    (S, n, n) stack of tables from ``_tables``. One generator draws
    every row: built for the first stream, then re-seated at each later
    stream's start with an empty buffer, which is the state a fresh
    generator of that stream has."""
    generator, draws = None, []
    for stream in streams:
        if generator is None:
            generator = stream.generator()
        else:
            counter, key = stream._words()
            generator.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                                             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        draws.append(generator.integers(1, t + 1, size=edge_count(n)))
    draws = np.array(draws, dtype=np.min_scalar_type(t))
    return draws, _tables(n, t, draws)


def random_coloring(n: int, t: int, stream: SeededStream) -> CompleteGraphColoring:
    """Uniform independent edge colors, reproducible from the stream; the
    table is built from the draws themselves."""
    if n < 2:
        raise ValueError(f"vertex count must be at least 2, got {n}")
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    draws, tables = _random_tables(n, t, (stream,))
    return _trusted(CompleteGraphColoring, n=n, t=t, colors=tuple(draws[0].tolist()), array=tables[0])


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
    # entry (v, u) falls in bin v(t+1) + color; color 0 is the diagonal
    bins = coloring.array + np.arange(0, n * (t + 1), t + 1)[:, None]
    counts = np.bincount(bins.ravel(), minlength=n * (t + 1)).reshape(n, t + 1)[:, 1:]
    return ColorDegreeTable(n, t, tuple(map(tuple, counts.tolist())))


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


def enumeration_state_count(n: int, t: int) -> int:
    """Number of colorings enumerate_colorings yields: the partitions of the
    m = C(n,2) edges into at most T = min(t, m) color classes.

    By Burnside's lemma over the T! permutations of T colors, C(T, r) D(T-r)
    of which fix exactly r colors (D: the derangement numbers), that is
    (1/T!) sum_r C(T, r) D(T-r) r^m: T big-integer powers, no recursion.
    """
    m = edge_count(n)
    top = min(t, m)
    derangements = [1, 0]
    for s in range(2, top + 1):
        derangements.append((s - 1) * (derangements[-1] + derangements[-2]))
    total = sum(math.comb(top, r) * derangements[top - r] * r ** m for r in range(1, top + 1))
    return total // math.factorial(top)


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


def enumerate_colorings(n: int, t: int) -> Iterator[CompleteGraphColoring]:
    """Yield one coloring of K_n with palette 1..t per color-permutation orbit.

    The representative is the coloring whose colors first appear in
    increasing order along the lexicographic edge order. Raises
    BudgetExceededError (naming the state-space size) before yielding
    anything if the space is larger than ``ENUM_BUDGET``.
    """
    if n < 2:
        raise ValueError(f"vertex count must be at least 2, got {n}")
    if t < 1:
        raise ValueError(f"palette size must be at least 1, got {t}")
    states = enumeration_state_count(n, t)
    if states > ENUM_BUDGET:
        # str(int) refuses more than 4300 digits; Decimal(int) is exact and has no such limit
        raise BudgetExceededError(
            f"enumeration space has {Decimal(states)} colorings, budget is {ENUM_BUDGET}",
            size=states,
        )
    # the canonical sequences are in-palette and of length C(n,2) by construction
    for seq in _canonical_sequences(edge_count(n), t):
        yield _trusted(CompleteGraphColoring, n=n, t=t, colors=seq)


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
    """Parse the text format. The non-blank, non-comment lines are numbered
    once; a body of exactly C(n,2) colors in 1..t is converted in one numpy
    pass (which accepts the tokens ``int`` accepts), and any other body is
    walked token by token in the same rows, raising ColoringFormatError at
    the line of the first bad token."""
    lines = text.splitlines()
    rows = [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start=1)
            if line and line[0] != "#"]
    if not rows:
        raise ColoringFormatError("missing header 'n t'", max(len(lines), 1))
    lineno, header = rows[0]
    tokens = header.split()
    if len(tokens) != 2:
        raise ColoringFormatError(f"expected header 'n t', got {header!r}", lineno)
    try:
        n, t = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ColoringFormatError(f"non-integer header token in {header!r}", lineno) from None
    if n < 2 or t < 1:
        raise ColoringFormatError(f"invalid header n={n} t={t}", lineno)
    m = edge_count(n)
    try:
        values = np.array(" ".join([line for _, line in rows[1:]]).split(), dtype=np.int64)
    except (ValueError, OverflowError):
        pass  # a token numpy rejects or a color past int64: walk the tokens
    else:
        if len(values) == m and values.min() >= 1 and int(values.max()) <= t:
            return _trusted(CompleteGraphColoring, n=n, t=t, colors=tuple(values.tolist()),
                            array=_tables(n, t, values))
    colors: list[int] = []
    for lineno, line in rows[1:]:
        for tok in line.split():
            try:
                c = int(tok)
            except ValueError:
                raise ColoringFormatError(f"non-integer color {tok!r}", lineno) from None
            if len(colors) >= m:
                raise ColoringFormatError(f"too many colors: expected {m} entries", lineno)
            if c > t:
                raise ColoringFormatError(f"color {c} exceeds palette {t}", lineno)
            if c < 1:
                raise ColoringFormatError(f"color {c} is not a positive color index", lineno)
            colors.append(c)
    if len(colors) != m:
        raise ColoringFormatError(f"expected {m} edge colors, found {len(colors)}", max(len(lines), 1))
    # every color was checked against the palette above; the table is built on first use
    return _trusted(CompleteGraphColoring, n=n, t=t, colors=tuple(colors))


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
