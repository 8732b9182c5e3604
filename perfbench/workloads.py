"""The benchmark's workloads: inputs made from the workload seed, and output checks.

Each workload turns a seed into a fixed list of CLI operations. Inputs come
from numpy's Philox generator directly, never from the package's own
sampling, so the program under test receives only files and argv. ``check``
validates one operation's exit code and stdout using the package's public
API and an independent numpy recount, and returns the work the operation
stands for.

Why these four: each planned optimisation does most of its work in one of
them and almost none in another. Operations are short (a few seconds at
most) and numerous enough that a run's total repeats across seeds.

* verify-exact: exact star counts for every 3-set of K_50 plus the JSON
  encoding of 19,600 entries; no early exit and no full-mode oracle.
* mc-sweep: small colorings (n = 10..50) that mostly exit early, so
  per-k-set dispatch and validation dominate; the only workload that draws
  colorings inside the program and reaches ``bounds``.
* oracle-full: one full-mode branch-and-bound packing per operation, on
  K_8 with 28 colors. Nearly every tree is then rainbow, so the candidate
  count, and with it the cost, varies little between colorings (with 8
  colors it varies by a factor of four).
* search-local: the ``search`` layer, with thousands of small full-mode
  oracle calls per operation, dominated by candidate enumeration.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np

from rainbowindex import (
    CompleteGraphColoring,
    DisjointFamily,
    OracleMode,
    SeededStream,
    STree,
    VertexSet,
    max_disjoint_rainbow_trees,
    random_coloring,
    verify_coloring,
    wilson_interval,
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checker needs to know about the input."""

    argv: tuple[str, ...]
    colors: Optional[np.ndarray] = None  # edge colors of the input file, lexicographic edge order


@dataclass(frozen=True)
class Work:
    """What one operation decided: k-sets and colorings."""

    ksets: int
    colorings: int


def seed_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def write_coloring_file(path: Path, n: int, t: int, colors: np.ndarray) -> None:
    """The package's text format: 'n t', then row i holds the colors of edges (i, j>i)."""
    lines = [f"{n} {t}"]
    pos = 0
    for i in range(1, n):
        lines.append(" ".join(map(str, colors[pos:pos + n - i].tolist())))
        pos += n - i
    path.write_text("\n".join(lines) + "\n")


def color_matrix(n: int, colors) -> np.ndarray:
    """(n+1) x (n+1) symmetric color table, 1-based, zero on the diagonal."""
    mat = np.zeros((n + 1, n + 1), dtype=np.int16)
    rows, cols = np.triu_indices(n, 1)  # row-major, the same order as the edge list
    mat[rows + 1, cols + 1] = colors
    mat[cols + 1, rows + 1] = colors
    return mat


@lru_cache(maxsize=None)
def lex_triples(n: int) -> np.ndarray:
    """Every 3-set of 1..n in lexicographic order, shape (C(n,3), 3)."""
    return np.array(list(combinations(range(1, n + 1), 3)), dtype=np.intp).reshape(-1, 3)


def k3_counts(mat: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Star-certificate count of each 3-set: rainbow stars plus the internal packing.

    A centre u outside S gives a rainbow star when its three edges to S have
    distinct colors (a zero marks u in S). The internal packing of a triangle
    is 1 unless the triangle is monochromatic.
    """
    a, b, c = triples.T
    x, y, z = mat[1:, a], mat[1:, b], mat[1:, c]
    stars = ((x != y) & (x != z) & (y != z) & (x > 0) & (y > 0) & (z > 0)).sum(axis=0)
    mono = (mat[a, b] == mat[a, c]) & (mat[a, c] == mat[b, c])
    return stars + ~mono


def lex_rank(members, n: int) -> int:
    """Position of a sorted k-subset of 1..n in lexicographic order, from 0."""
    k = len(members)
    rank = 0
    prev = 0
    for i, s in enumerate(members):
        for v in range(prev + 1, s):
            rank += math.comb(n - v, k - i - 1)
        prev = s
    return rank


def scanned_ksets(report) -> int:
    """k-sets a serial ``verify_coloring`` call decided, from its public report.

    Every set when the coloring passes or per-set counts were asked for;
    otherwise the scan stopped at the witness, the first failing set.
    """
    if report.ell == 0:
        return 0
    if report.passed or report.per_set_counts is not None:
        return math.comb(report.n, report.k)
    return lex_rank(report.witness, report.n) + 1


class Workload:
    name: str  # as listed in BENCHMARK.json, which says why each workload is there

    def prepare(self, rng: np.random.Generator, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, code: Optional[int], out: str) -> tuple[list[str], Work]:
        """Errors found in one operation's result, and the work it stands for."""
        raise NotImplementedError


class VerifyExact(Workload):
    name = "verify-exact"
    N, T, ELL, COLORINGS = 50, 3, 3, 2

    def prepare(self, rng, workdir):
        ops = []
        for i in range(self.COLORINGS):
            colors = rng.integers(1, self.T + 1, size=self.N * (self.N - 1) // 2)
            path = workdir / f"verify-{i}.coloring"
            write_coloring_file(path, self.N, self.T, colors)
            argv = ("verify", str(path), "-k", "3", "-l", str(self.ELL), "--per-s-counts")
            ops.append(Op(argv, colors))
        return ops

    def check(self, op, code, out):
        work = Work(math.comb(self.N, 3), 1)
        doc = json.loads(out)
        errors = []
        triples = lex_triples(self.N)
        counts = k3_counts(color_matrix(self.N, op.colors), triples)
        entries = doc["per_S_counts"]
        if [e["S"] for e in entries] != triples.tolist():
            return ["per_S_counts are not the 3-sets in lexicographic order"], work
        if [e["count"] for e in entries] != counts.tolist():
            errors.append("per-set counts differ from the independent recount")
        reported = np.array([e["count"] for e in entries])
        passed = bool(reported.min() >= self.ELL)
        if doc["pass"] is not passed:
            errors.append(f"pass={doc['pass']} but min count is {reported.min()}")
        if code != (0 if doc["pass"] else 1):
            errors.append(f"exit code {code} for pass={doc['pass']}")
        first = None if passed else int(np.argmax(reported < self.ELL))
        witness = None if first is None else triples[first].tolist()
        if doc["witness_S"] != witness:
            errors.append(f"witness {doc['witness_S']}, expected {witness}")
        if first is not None and doc.get("witness_count") != int(reported[first]):
            errors.append("witness_count does not match the witness entry")
        if (doc["n"], doc["k"], doc["ell"], doc["mode"]) != (self.N, 3, self.ELL, "star"):
            errors.append("header fields do not echo the request")
        return errors, work


SWEEP_FIELDS = ["n", "samples", "successes", "estimate", "wilson_lo", "wilson_hi",
                "exact_tail", "chernoff", "union_bound"]


class McSweep(Workload):
    name = "mc-sweep"
    N_VALUES, SAMPLES, ELL, T, SWEEPS = (10, 20, 30, 40, 50), 6, 1, 3, 4

    def prepare(self, rng, workdir):
        lo, hi = self.N_VALUES[0], self.N_VALUES[-1]
        step = self.N_VALUES[1] - lo
        return [Op(("mc", "sweep", "-k", "3", "-l", str(self.ELL), "-t", str(self.T),
                    "--n", f"{lo}:{hi}:{step}", "--samples", str(self.SAMPLES),
                    "--seed", str(draw_seed(rng))))
                for _ in range(self.SWEEPS)]

    def check(self, op, code, out):
        seed = SeededStream(int(op.argv[op.argv.index("--seed") + 1]))
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        if reader.fieldnames != SWEEP_FIELDS:
            return [f"CSV header {reader.fieldnames}"], Work(0, 0)
        if [int(r["n"]) for r in rows] != list(self.N_VALUES):
            return ["one row per n expected"], Work(0, 0)
        errors = [] if code == 0 else [f"exit code {code}"]
        ksets = 0
        for position, row in enumerate(rows):
            n, samples, successes = int(row["n"]), int(row["samples"]), int(row["successes"])
            if samples != self.SAMPLES or not 0 <= successes <= samples:
                errors.append(f"n={n}: successes {successes} of {samples}")
                continue
            if float(row["estimate"]) != successes / samples:
                errors.append(f"n={n}: estimate {row['estimate']}")
            if (float(row["wilson_lo"]), float(row["wilson_hi"])) != wilson_interval(successes, samples):
                errors.append(f"n={n}: Wilson columns differ from wilson_interval")
            recount, scanned = self._recount(n, seed.substream(position))
            ksets += scanned
            if recount != successes:
                errors.append(f"n={n}: {successes} successes, recount gives {recount}")
        return errors, Work(ksets, self.SAMPLES * len(self.N_VALUES))

    def _recount(self, n: int, stream: SeededStream) -> tuple[int, int]:
        """Successes among the sweep's colorings at one n, and the 3-sets a serial scan decides.

        Regenerates the colorings the sweep draws (one substream per sample)
        and decides them with the numpy recount.
        """
        triples = lex_triples(n)
        successes = scanned = 0
        for idx in range(self.SAMPLES):
            coloring = random_coloring(n, self.T, stream.substream(idx))
            failing = k3_counts(color_matrix(n, coloring.colors), triples) < self.ELL
            if failing.any():
                scanned += int(np.argmax(failing)) + 1
            else:
                successes += 1
                scanned += len(triples)
        return successes, scanned


_TREE_LINE = re.compile(r"\((\d+),(\d+)\)")


class OracleFull(Workload):
    name = "oracle-full"
    N, T, S, BUDGET, COLORINGS = 8, 28, (1, 2, 3), 2, 96

    def prepare(self, rng, workdir):
        ops = []
        for i in range(self.COLORINGS):
            colors = rng.integers(1, self.T + 1, size=self.N * (self.N - 1) // 2)
            path = workdir / f"oracle-{i}.coloring"
            write_coloring_file(path, self.N, self.T, colors)
            argv = ("oracle", str(path), "-S", ",".join(map(str, self.S)),
                    "--mode", "full", "--budget", str(self.BUDGET))
            ops.append(Op(argv, colors))
        return ops

    def check(self, op, code, out):
        work = Work(1, 1)
        doc = json.loads(out)
        errors = [] if code == 0 else [f"exit code {code}"]
        if doc["S"] != list(self.S) or doc["mode"] != f"full:{self.BUDGET}":
            errors.append("S or mode does not echo the request")
        terminals = VertexSet(self.S)
        coloring = CompleteGraphColoring(self.N, self.T, tuple(op.colors.tolist()))
        try:
            trees = tuple(STree.from_edges([(int(u), int(v)) for u, v in _TREE_LINE.findall(line)],
                                           terminals) for line in doc["witness"])
            DisjointFamily(terminals, trees, coloring)
        except ValueError as exc:
            return errors + [f"witness is not a disjoint rainbow family: {exc}"], work
        if doc["max"] != len(trees):
            errors.append(f"max {doc['max']} but {len(trees)} witness trees")
        star_value, _ = max_disjoint_rainbow_trees(terminals, coloring, OracleMode.star())
        if doc["max"] < star_value:
            errors.append(f"full-mode max {doc['max']} below star-mode {star_value}")
        return errors, work


class SearchLocal(Workload):
    name = "search-local"
    N, K, ELL, T, BUDGET, SEARCHES = 8, 3, 4, 3, 50, 4

    def prepare(self, rng, workdir):
        return [Op(("search", "-n", str(self.N), "-k", str(self.K), "-l", str(self.ELL),
                    "-t", str(self.T), "--strategy", "local", "--mode", "full",
                    "--search-budget", str(self.BUDGET), "--seed", str(draw_seed(rng))))
                for _ in range(self.SEARCHES)]

    def check(self, op, code, out):
        doc = json.loads(out)
        sets = math.comb(self.N, self.K)
        attempts = doc["attempts"]
        errors = []
        if code == 3:
            if doc["found"] or attempts != self.BUDGET:
                errors.append(f"exit 3 with found={doc['found']}, attempts={attempts}")
            return errors, Work(sets * attempts, attempts)
        if code != 0 or not doc["found"]:
            return [f"exit code {code} with found={doc['found']}"], Work(0, 0)
        coloring = CompleteGraphColoring(self.N, self.T, tuple(doc["coloring"]))
        if not verify_coloring(coloring, self.K, self.ELL, OracleMode.full()).passed:
            errors.append("returned coloring fails full-mode verification")
        # each evaluation scores every k-set; the find is verified once more
        return errors, Work(sets * (attempts + 1), attempts)


WORKLOADS = {w.name: w for w in (VerifyExact(), McSweep(), OracleFull(), SearchLocal())}
