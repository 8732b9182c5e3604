"""Terminal trees, rainbow predicates, and exact disjoint-packing oracles.

For a terminal set S inside an edge-colored K_n, an S-tree is a tree whose
vertex set contains S; it is rainbow when no two of its edges share a
color. A family of S-trees is internally disjoint when the trees are
pairwise edge-disjoint and meet only in S. Everything here is exact. The
oracle is built for small k and small budgets, not small n. One table
per (n, k, budget), decoded once from the Prüfer sequences of K_m that
hold every external vertex (leaf-pruned trees only), lists each tree
on local labels; a call gathers the colors of the pairs the table uses,
keeps the rainbow rows and orders them, and builds the key owner masks,
all as array passes. A row is rainbow when its colors are positive and
pairwise distinct, tested column against column with no sort, so any
palette works. The lexicographically least maximum family is found by one
iterative branch and bound over the conflict graph, on Python-int
bitmasks, bounded by clique covers (a greedy one, and trees sharing their
least external vertex) that are built only once a packing is held, when
they first can prune; it builds the compatibility mask of a candidate
only when it branches on it, and only a public entry point decodes the
chosen trees. Neither recursion depth nor the number of passes grows
with the number of candidates. The search stops at a family bound known
in advance: at most floor(k/2) internal trees, as each takes k - 1 of
the k(k-1)/2 edges inside the set, plus one tree per external vertex,
which it owns. A family of that size holds no tree with two external
vertices, so when the rainbow stars leave the bound within reach the
trees with at most one are searched first. In star mode only the
internal trees are searched: the rainbow stars conflict with nothing and
all join the family. In full mode a rainbow tree with r external
vertices needs k - 1 + r colors, so the trees stop at the mode's reach,
``OracleMode.reach``: the budget, the n - k other vertices or the
palette, whichever ends first. One constant, ``CANDIDATE_CAP``, bounds
both a full-mode call's price, the trees its table holds at the reach,
and the sequences a shape table reads: past it, BudgetExceededError.

Candidate trees are always leaf-pruned (every leaf lies in S). Pruning a
non-terminal leaf keeps a rainbow S-tree rainbow, so restricting to
leaf-pruned candidates never changes the maximum family size while
shrinking the search space drastically.

Whole-coloring verification, the local-search objective, the Monte Carlo
estimates and the double-counting bound start from one numpy kernel. It
reads an (S, n, n) stack of color tables, one coloring or a block of
sampled ones, and its inner loops are array operations at every k, not
per-set tuples: it yields, chunk by chunk of consecutive k-sets, each set
tagged with its coloring, the rainbow star counts and the internal packing
where arrays know it (1 at k = 2, the triangle term at k = 3, 0 at
k >= 4): at k = 3 from one float32 matmul per first vertex whose product
carries the triple term and the first vertex's two pair terms, and at
other k from the gathered colors at every center. Given a demand it
yields only the sets whose count falls below it, chosen before any row is
built (at k = 3 by comparing the product with one table per coloring, so
only the sets it leaves short read their triangle), and the scan lists
just the sets short by arrays (every set when counts are asked for). At
k >= 4 a color-pattern table packs the internal trees once per way a
set's edges share colors, so arrays decide star mode at every k.
In full mode with k <= 3 and a reach of at most one external vertex the
exact count has a closed form: the certificate itself at k = 2, and at
k = 3 the rainbow stars plus the larger of a Hall matching of the other
centers to the internal edges and one internal path: per slice of sets,
one array pass finds the edges each center can use by the two-color rule
and one lookup in a constant table reads the rest from their histogram.
Every full-mode set the arrays leave short gets its exact count, in
lexicographic order, from ``_exact_counts``: the closed form where it
holds, otherwise the number of rows ``_tree_packing`` chooses for the
set, none of them decoded. The scan yields runs of those short sets that
end after each exact count, so a caller stops where it needs to, and a
coloring a caller drops at its first failing run leaves the later chunks
of a stack. It reads the colorings alone.
Inside the oracle a k-set is its sorted members tuple and a chosen tree
is a row of keys. Only the public entry points decode the rows into
``(edges, external vertices)`` and build their witness ``STree`` and
``DisjointFamily`` objects, unchecked, as the oracle made them valid; the
validators run on trees a caller passes in.
Everything reads the coloring's one table, ``CompleteGraphColoring.array``,
or a stack of such tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, islice
from operator import or_
from typing import Iterable, Iterator, Optional

import numpy as np

from .colorings import BudgetExceededError, CompleteGraphColoring, _trusted, parallel_map

__all__ = [
    "DisjointFamily",
    "OracleMode",
    "STree",
    "TreeClass",
    "VerificationReport",
    "VertexSet",
    "classify_stree",
    "internal_tree_packing",
    "is_rainbow",
    "max_disjoint_rainbow_trees",
    "rainbow_star_count",
    "star_tree",
    "verify_coloring",
]

# Most trees one exact-oracle call's candidate table may hold, and the most
# Prüfer sequences a shape table may read; past it BudgetExceededError.
CANDIDATE_CAP = 5_000_000


@dataclass(frozen=True)
class VertexSet:
    """A sorted set of distinct terminal vertices of K_n."""

    members: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate vertices in {self.members}")
        if tuple(sorted(self.members)) != self.members:
            raise ValueError("members must be sorted ascending")
        if len(self.members) < 2:
            raise ValueError("a terminal set needs at least 2 vertices")
        if self.members[0] < 1:
            raise ValueError("vertices are 1-based")

    @classmethod
    def of(cls, *vertices: int) -> "VertexSet":
        return cls(tuple(sorted(vertices)))

    @property
    def k(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _normalize_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def _is_acyclic(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> bool:
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@dataclass(frozen=True)
class STree:
    """A tree whose vertex set contains its terminal set.

    Invariants enforced at construction: the edges form a tree on
    ``vertices``, terminals are covered, and every leaf is a terminal
    (minimality: non-terminal leaves could be pruned without losing
    connectivity of the terminals).
    """

    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]
    terminal_set: VertexSet

    def __post_init__(self):
        vs = self.vertices
        if len(self.edges) != len(vs) - 1:
            raise ValueError(f"{len(self.edges)} edges cannot form a tree on {len(vs)} vertices")
        touched: dict[int, int] = {}
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u},{v}) not normalized (u < v required)")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u},{v}) leaves the vertex set")
            touched[u] = touched.get(u, 0) + 1
            touched[v] = touched.get(v, 0) + 1
        if not _is_acyclic(vs, self.edges):
            raise ValueError("edge set contains a cycle")
        if len(vs) > 1 and set(touched) != set(vs):
            raise ValueError("isolated vertex in tree")
        terms = set(self.terminal_set.members)
        if not terms <= set(vs):
            raise ValueError("terminal set not contained in tree vertices")
        for v, deg in touched.items():
            if deg == 1 and v not in terms:
                raise ValueError(f"non-terminal leaf {v}")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], terminal_set: VertexSet) -> "STree":
        norm = _normalize_edges(edges)
        vertices = frozenset(v for e in norm for v in e)
        return cls(vertices, norm, terminal_set)


class TreeClass(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


def classify_stree(tree: STree) -> TreeClass:
    """Internal iff every edge stays inside the terminal set.

    Also re-checks the edge-count law: internal trees have exactly k-1
    edges, external ones at least k (so a rainbow internal tree uses
    exactly k-1 colors and a rainbow external tree at least k).
    """
    k = tree.terminal_set.k
    terms = set(tree.terminal_set.members)
    internal = all(u in terms and v in terms for u, v in tree.edges)
    if internal:
        if len(tree.edges) != k - 1:
            raise ValueError("internal tree violates the k-1 edge law")
        return TreeClass.INTERNAL
    if len(tree.edges) < k:
        raise ValueError("external tree with fewer than k edges")
    return TreeClass.EXTERNAL


def is_rainbow(tree: STree, coloring: CompleteGraphColoring) -> bool:
    """True iff all edge colors of the tree are pairwise distinct."""
    seen: set[int] = set()
    for u, v in tree.edges:
        c = coloring.color(u, v)
        if c in seen:
            return False
        seen.add(c)
    return True


def star_tree(terminals: VertexSet, center: int) -> STree:
    """The star joining an external center to every terminal."""
    if center in terminals:
        raise ValueError(f"star center {center} lies in the terminal set")
    edges = [(center, v) for v in terminals]
    return STree.from_edges(edges, terminals)


def rainbow_star_count(terminals: VertexSet, coloring: CompleteGraphColoring) -> int:
    """Number of external centers whose star is rainbow.

    All such stars are automatically pairwise internally disjoint, so this
    is a sound lower-bound certificate on the maximum family size.
    """
    _check_terminals(terminals, coloring.n)
    return len(_rainbow_centers(terminals.members, coloring.array))


def _rainbow_rows(colors: np.ndarray) -> np.ndarray:
    """True where the colors along the last axis are positive and pairwise
    distinct: a center's colors to a set, zero when it lies in the set.

    For a last axis of width w it ANDs, in place into one bool array, the
    tests that each column is positive and that each pair of columns
    differs: no sort, and exact for any palette and dtype.
    """
    width = colors.shape[-1]
    columns = colors.reshape(-1, width).T.copy()  # each column contiguous
    rainbow = columns[0] > 0
    scratch = np.empty_like(rainbow)
    for j in range(1, width):
        rainbow &= np.greater(columns[j], 0, out=scratch)
        for i in range(j):
            rainbow &= np.not_equal(columns[j], columns[i], out=scratch)
    return rainbow.reshape(colors.shape[:-1])


def _rainbow_centers(members: tuple[int, ...], colors: np.ndarray) -> list[int]:
    """External centers whose star on ``members`` is rainbow."""
    return (np.flatnonzero(_rainbow_rows(colors[:, np.subtract(members, 1)])) + 1).tolist()


@dataclass(frozen=True)
class DisjointFamily:
    """A certified family of pairwise internally disjoint rainbow S-trees."""

    terminal_set: VertexSet
    trees: tuple[STree, ...]
    coloring: CompleteGraphColoring

    def __post_init__(self):
        terms = frozenset(self.terminal_set.members)
        for tree in self.trees:
            if tree.terminal_set != self.terminal_set:
                raise ValueError("tree terminal set does not match the family")
            if not is_rainbow(tree, self.coloring):
                raise ValueError(f"tree {tree.edges} is not rainbow")
        owned_edges: set = set()
        owned_vertices: set = set()
        for tree in self.trees:
            if not owned_edges.isdisjoint(tree.edges):
                raise ValueError("trees share an edge")
            external = tree.vertices - terms
            if not owned_vertices.isdisjoint(external):
                raise ValueError("trees share a vertex outside the terminal set")
            owned_edges.update(tree.edges)
            owned_vertices |= external

    def __len__(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# Oracle modes and candidate enumeration

@dataclass(frozen=True)
class OracleMode:
    """Candidate-tree universe for the exact packing oracle.

    ``star``: trees on exactly the terminal set plus single-external-center
    stars — the certificate constructions, cheap and always sound.
    ``full``: every leaf-pruned tree using at most ``budget`` external
    vertices; exact on small instances. The default budget max(1, k-2)
    covers all branch vertices of degree >= 3, but degree-2 external
    vertices are admissible in rainbow trees, so it is caller-adjustable.
    """

    kind: str
    budget: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("star", "full"):
            raise ValueError(f"unknown oracle mode {self.kind!r}")
        if self.kind == "star" and self.budget is not None:
            raise ValueError("star mode takes no budget")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1")

    @classmethod
    def star(cls) -> "OracleMode":
        return cls("star")

    @classmethod
    def full(cls, budget: Optional[int] = None) -> "OracleMode":
        return cls("full", budget)

    def reach(self, n: int, k: int, t: int) -> int:
        """Most external vertices of a full-mode tree on a k-set of K_n: a
        rainbow tree with r of them needs k - 1 + r of the t colors."""
        return min(max(1, k - 2) if self.budget is None else self.budget, n - k, t - k + 1)

    def exact(self, n: int, k: int, t: int) -> bool:
        """Whether full mode counts every rainbow tree: a budget of n cuts none."""
        return self.kind == "full" and self.reach(n, k, t) == OracleMode.full(n).reach(n, k, t)

    def label(self) -> str:
        if self.kind == "star":
            return "star"
        return f"full:{self.budget}" if self.budget is not None else "full:default"


def _check_terminals(terminals: VertexSet, n: int) -> None:
    if terminals.members[-1] > n:
        raise ValueError(f"terminal {terminals.members[-1]} exceeds vertex count {n}")


# Prüfer sequences decoded at once, so temporaries stay small even for the
# 4.8M sequences of K_9
_SHAPE_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _tree_shapes(m: int, k: int) -> np.ndarray:
    """The spanning trees of K_m where every vertex from k up branches, as
    rows of m-1 ascending edge indices, in no particular order.

    Edge i is the i-th pair of ``combinations(range(m), 2)``. A vertex's
    degree is one more than its count in a Prüfer sequence, so of the
    m^(m-2) sequences, a block at a time, only those holding every vertex
    from k up are decoded; past ``CANDIDATE_CAP`` (m >= 10) they raise
    BudgetExceededError.
    """
    count = m ** (m - 2)
    if count > CANDIDATE_CAP:
        raise BudgetExceededError(f"K_{m} has {count} spanning trees (cap {CANDIDATE_CAP})", size=count)
    pair = np.zeros((m, m), dtype=np.uint8)
    for i, (u, v) in enumerate(combinations(range(m), 2)):
        pair[u, v] = pair[v, u] = i
    blocks = []
    for start in range(0, count, _SHAPE_BLOCK):
        codes = np.arange(start, min(count, start + _SHAPE_BLOCK))
        digits = codes // m ** np.arange(m - 3, -1, -1)[:, None] % m  # (m - 2, block)
        kept = np.ones(len(codes), dtype=bool)
        for v in range(k, m):
            kept &= (digits == v).any(axis=0)
        sequence = digits[:, kept]
        rows = np.arange(sequence.shape[1])
        degree = np.ones((len(rows), m), dtype=np.int8)
        for joined in sequence:
            degree[rows, joined] += 1
        edges = np.empty((len(rows), m - 1), dtype=np.uint8)
        for j, joined in enumerate(sequence):
            leaf = (degree == 1).argmax(axis=1)  # the least leaf
            edges[:, j] = pair[leaf, joined]
            degree[rows, leaf] = 0
            degree[rows, joined] -= 1
        last = degree == 1
        edges[:, -1] = pair[last.argmax(axis=1), m - 1 - last[:, ::-1].argmax(axis=1)]
        blocks.append(edges)
    return np.sort(np.concatenate(blocks), axis=1)


@lru_cache(maxsize=16)
def _candidate_table(n: int, k: int, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every leaf-pruned tree joining k terminals through at most ``budget``
    of n - k other vertices, on local labels: the terminals are 0..k-1 and
    the others k..n-1. For each r-subset of the others the trees are the
    shapes of K_{k+r} whose last r vertices branch.

    Returns ``(pairs, rows, keys, least)``, the trees in candidate order on
    the local labels: the (P, 2) label pairs a < b that some tree uses, in
    lexicographic order; each tree's k - 1 + r edges as ascending indices
    into ``pairs``, after P + j in each earlier column j; its keys for the
    branch and bound, the indices of its edges and P + x for each other
    vertex x (pads -1); and its class key, that of its least other vertex
    or, when it has none, of its least edge.
    """
    width = k - 1 + budget
    edge_ids, extras = [], []
    for r in range(budget + 1):
        m = k + r
        ends = np.array(list(combinations(range(m), 2)))[_tree_shapes(m, k)]
        chosen = list(combinations(range(k, n), r))
        chosen = np.array(chosen, dtype=np.intp).reshape(len(chosen), r)
        local = np.hstack((np.broadcast_to(np.arange(k), (len(chosen), k)), chosen))[:, ends]
        ids = (local[..., 0] * n + local[..., 1]).reshape(-1, m - 1)
        pads = np.broadcast_to(n * n + np.arange(budget - r), (len(ids), budget - r))
        edge_ids.append(np.hstack((pads, ids)))
        padded = np.pad(chosen, ((0, 0), (0, max(1, budget) - r)), constant_values=-1)
        extras.append(np.repeat(padded, len(ends), axis=0))
    pair_ids, inverse = np.unique(np.concatenate(edge_ids), return_inverse=True)
    size = len(pair_ids) - budget  # each pad n·n + j occurs, in the trees with no other vertex
    rows, extra = inverse.reshape(-1, width), np.concatenate(extras)
    keys = np.hstack((np.where(rows < size, rows, -1), np.where(extra < 0, -1, extra + size)))
    order = np.lexsort(keys[:, :width].T[::-1])
    rows, keys = rows[order], keys[order]
    least = np.where(keys[:, width] >= 0, keys[:, width], rows[:, budget])
    return np.column_stack(np.divmod(pair_ids[:size], n)), rows, keys, least


def _candidates(members: tuple[int, ...], colors: np.ndarray, budget: int) -> tuple[np.ndarray, ...]:
    """The rainbow leaf-pruned trees of the 1-based k-set ``members`` with at
    most ``budget`` external vertices, in candidate order: by edge count,
    then by sorted edge list.

    Returns ``(keys, least, labels, pairs)``: the trees' rows of keys and
    class keys from ``_candidate_table``, whose local labels are the
    0-based vertices ``labels``. One pass over the table gathers the colors
    of only the pairs it uses. Without external vertices the local labels
    keep the global order, and so does the table; otherwise the rows are
    sorted by their global edges. Below budget 1, when the edges inside the
    set carry fewer than the k - 1 colors of a rainbow internal tree (as
    whenever the reach is negative), no table is built and none returned.
    """
    n, k = len(colors), len(members)
    labels = np.subtract(members, 1)
    if budget < 1 and len(set(colors[np.ix_(labels, labels)].flat)) <= k - 1:  # the diagonal adds a 0
        none = np.empty((0, k - 1), dtype=np.intp)
        return none, none[:, 0], labels, none[:, :2]
    if budget:
        others = np.ones(n, dtype=bool)
        others[labels] = False
        labels = np.concatenate((labels, others.nonzero()[0]))
    pairs, rows, keys, least = _candidate_table(len(labels), k, budget)
    a, b = labels[pairs.T]
    gathered = colors[a, b]
    if gathered.itemsize == 8 or gathered.dtype.hasobject:  # dense ranks: below the pads, never floats
        gathered = np.unique(gathered, return_inverse=True)[1] + 1
    pads = np.arange(rows.shape[1])  # pad columns: distinct colors past any real one
    kept = np.flatnonzero(_rainbow_rows(np.concatenate((gathered, pads + (1 << 40)))[rows]))
    if budget:
        edges = np.concatenate((np.minimum(a, b) * n + np.maximum(a, b), np.full(len(pads), -1)))[rows[kept]]
        edges.sort(axis=1)
        kept = kept[np.lexsort(edges.T[::-1])]
    return keys[kept], least[kept], labels, pairs


def _decoded(rows: np.ndarray, labels: np.ndarray, pairs: np.ndarray) -> list[tuple]:
    """The ``(edges, external)`` tuples, on 1-based vertices, of rows of
    ``_candidates``' keys, with the ``labels`` and ``pairs`` it returned."""
    ends, vertices, size = np.sort(labels[pairs] + 1, axis=1).tolist(), (labels + 1).tolist(), len(pairs)
    return [(tuple(sorted(tuple(ends[key]) for key in row if 0 <= key < size)),
             tuple(vertices[key - size] for key in row if key >= size))
            for row in rows.tolist()]


@lru_cache(maxsize=256)
def _price(n: int, k: int, reach: int) -> int:
    """The number of trees in the candidate table of the k-sets of K_n at
    ``reach``. For each choice of r <= reach of the n - k other vertices
    the table holds the spanning trees of K_m, m = k + r, where none of the
    r is a leaf. The trees where j given vertices are leaves are the
    (m - j)^(m - 2) Prüfer sequences that miss them, so by inclusion and
    exclusion there are sum_j (-1)^j C(r, j) (m - j)^(m - 2) of them."""
    work = 0
    for r in range(reach + 1):
        m = k + r
        work += math.comb(n - k, r) * sum((-1) ** j * math.comb(r, j) * (m - j) ** (m - 2) for j in range(r + 1))
    return work


def _priced_reach(mode: OracleMode, n: int, k: int, t: int) -> int:
    """The mode's reach on the k-sets of K_n under t colors, once it is
    priced: BudgetExceededError when the price, ``_price`` of the reach,
    passes ``CANDIDATE_CAP``, which is read on every call."""
    reach = mode.reach(n, k, t)
    work = _price(n, k, reach)
    if work > CANDIDATE_CAP:
        raise BudgetExceededError(f"full oracle would scan {work} candidate trees (cap {CANDIDATE_CAP})", size=work)
    return reach


# ---------------------------------------------------------------------------
# Maximum packing by branch and bound

def _max_packing(keys: np.ndarray, least: np.ndarray, most: Optional[int] = None) -> list[int]:
    """A maximum packing of the candidates 0..R-1, lexicographically least:
    candidate i holds the keys in row i of ``keys`` (small integers, pads
    -1), two candidates conflict when they share a key, and ``least[i]`` is
    one of candidate i's keys, its class in the second clique cover.

    The owner bitmask of each key comes from one ``np.packbits`` over its
    incidence with the candidates. An explicit-stack DFS takes the lowest
    available candidate before skipping it, so it meets packings in
    lexicographic order and the first maximum it keeps is the least one; the
    compatibility mask of a candidate is built when the DFS first branches
    on it. A node is bounded by the smaller of two clique covers, counted
    over classes with an available candidate: a greedy one (the key owning
    the most uncovered candidates takes them as a class), and the classes of
    ``least``. A node counts at least one class of each cover, so no cover
    prunes until a packing is held: both are built at the first node that
    could be pruned, and a search that ends at its first leaf builds none.
    The search ends once it holds ``most`` candidates, an upper bound known
    a priori (none when None): the first packing of that size it meets is
    the least maximum.
    """
    count = len(keys)
    if not count:
        return []
    size = int(keys.max()) + 1
    owned = np.zeros((size + 1, count), dtype=bool)  # the last row takes the pads
    owned[keys, np.arange(count)[:, None]] = True
    owners = _bitmasks(np.packbits(owned[:-1], axis=1, bitorder="little")) + [0]  # owners[-1] is the pad's
    full = (1 << count) - 1
    covers = None
    compat: dict[int, int] = {}
    best: tuple[int, ...] = ()
    stack = [(full, best)]
    while stack:
        avail, chosen = stack.pop()
        room = len(best) - len(chosen)
        if not avail:
            if room < 0:
                best = chosen
                if len(best) == most:
                    break
            continue
        if room > 0:
            if covers is None:
                greedy_classes, least_classes = covers = _clique_covers(owners, least, full)
            # a class counts when it holds an available candidate
            if (len(greedy_classes) - [avail & c for c in greedy_classes].count(0) <= room
                    or len(least_classes) - [avail & c for c in least_classes].count(0) <= room):
                continue
        low = avail & -avail
        i = low.bit_length() - 1
        mask = compat.get(i)
        if mask is None:
            mask = compat[i] = ~reduce(or_, map(owners.__getitem__, keys[i].tolist()))
        stack.append((avail ^ low, chosen))
        stack.append((avail & mask, chosen + (i,)))
    return list(best)


def _clique_covers(owners: list[int], least: np.ndarray, full: int) -> tuple[list[int], list[int]]:
    """The two clique covers of ``_max_packing``'s candidates ``full``, as
    bitmask classes: the greedy one over the key owners ``owners``, and the
    classes of ``least``, from one ``np.packbits`` over their incidence."""
    count = full.bit_length()
    incidence = np.zeros((len(owners), count), dtype=bool)
    incidence[least, np.arange(count)] = True
    least_classes = _bitmasks(np.packbits(incidence[incidence.any(axis=1)], axis=1, bitorder="little"))
    # lazy greedy: a key's count only falls as classes are taken, so a popped
    # key whose fresh count still tops every stale count owns the most
    greedy_classes = []
    heap = [(-mask.bit_count(), i) for i, mask in enumerate(owners) if mask]
    heapify(heap)
    left = full
    while left:
        i = heappop(heap)[1]
        group = owners[i] & left
        if heap and group.bit_count() < -heap[0][0]:
            heappush(heap, (-group.bit_count(), i))
        elif group:
            greedy_classes.append(group)
            left ^= group
    return greedy_classes, least_classes


def _bitmasks(bits: np.ndarray) -> list[int]:
    """Each row of little-endian packed bits as a Python int."""
    data, step = bits.tobytes(), bits.shape[1]
    return [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]


def _tree_packing(members: tuple[int, ...], colors: np.ndarray, budget: int) -> tuple[np.ndarray, ...]:
    """The lexicographically least maximum family of the rainbow leaf-pruned
    trees of ``members`` with at most ``budget`` external vertices.

    Returns ``(rows, labels, pairs)``: the chosen trees' rows of keys from
    ``_candidates``, with the labels and pairs it returned. A count is
    ``len(rows)``; only the public entry points decode the rows, through
    ``_decoded``.

    No family is larger than ``most`` = floor(k/2) + (n - k) when external
    vertices are allowed: internal trees are edge-disjoint spanning trees of
    the set, k - 1 of its k(k-1)/2 edges each, and every other tree owns an
    external vertex. A family of that size gives each external vertex a tree
    of its own with no other external vertex. Such a tree is a star unless it
    uses internal edges, and floor(k/2) internal trees leave only (k - 1)/2
    of those at odd k and none at even k, so all but that many external
    vertices need rainbow stars. When they have them, the trees with at most
    one external vertex are searched first, as budget 1, in the same
    candidate order: a family of ``most`` there is the least maximum;
    otherwise the whole budget is searched, below ``most``.
    """
    n, k = len(colors), len(members)
    most = k // 2 + (n - k if budget > 0 else 0)
    first = budget > 1 and len(_rainbow_centers(members, colors)) >= n - k - (k - 1) * (k % 2) // 2
    for stage in (1, budget) if first else (budget,):
        keys, least, labels, pairs = _candidates(members, colors, stage)
        rows = keys[_max_packing(keys, least, most)]
        if len(rows) == most:
            break
        most -= 1
    return rows, labels, pairs


def _family(terminals: VertexSet, coloring: CompleteGraphColoring, chosen: list[tuple]) -> DisjointFamily:
    """The oracle's ``(edges, external)`` tuples as a family, built unchecked."""
    members = terminals.members
    trees = tuple(_trusted(STree, vertices=frozenset(members + external), edges=edges, terminal_set=terminals)
                  for edges, external in chosen)
    return _trusted(DisjointFamily, terminal_set=terminals, trees=trees, coloring=coloring)


def internal_tree_packing(terminals: VertexSet, coloring: CompleteGraphColoring) -> DisjointFamily:
    """Maximum set of edge-disjoint rainbow spanning trees inside G[S].

    Vertex sets are exactly S, so the family is internally disjoint; edge
    counting caps its size at floor(k/2).
    """
    _check_terminals(terminals, coloring.n)
    return _family(terminals, coloring, _decoded(*_tree_packing(terminals.members, coloring.array, 0)))


def max_disjoint_rainbow_trees(
    terminals: VertexSet,
    coloring: CompleteGraphColoring,
    mode: OracleMode = OracleMode.star(),
) -> tuple[int, DisjointFamily]:
    """Exact maximum internally disjoint rainbow family over the mode's candidates.

    Returns the maximum cardinality together with a witness family: the
    lexicographically least maximum family when trees are ordered by edge
    count, then by sorted edge list. In star mode a rainbow star shares no
    edge or external vertex with another candidate and sorts after the
    internal trees, in center order, so the family is the least maximum
    internal packing followed by every rainbow star.
    """
    _check_terminals(terminals, coloring.n)
    members, colors, star = terminals.members, coloring.array, mode.kind == "star"
    budget = 0 if star else _priced_reach(mode, coloring.n, len(members), coloring.t)
    chosen = _decoded(*_tree_packing(members, colors, budget))
    if star:
        chosen += [(_normalize_edges((u, v) for v in members), (u,)) for u in _rainbow_centers(members, colors)]
    family = _family(terminals, coloring, chosen)
    return len(family), family


# ---------------------------------------------------------------------------
# Whole-coloring verification

@dataclass(frozen=True, eq=False)
class VerificationReport:
    """``per_set_counts``, when asked for, is one read-only ``(C(n,k), k+1)``
    int64 array: the row of each k-set is ``(*S, count)``, in lexicographic
    order."""

    n: int
    t: int
    k: int
    ell: int
    mode: OracleMode
    passed: bool
    witness: Optional[tuple[int, ...]]
    witness_count: Optional[int]
    per_set_counts: Optional[np.ndarray] = None

    def __eq__(self, other) -> bool:
        # field by field; the count arrays must agree in shape and every entry
        if not isinstance(other, VerificationReport):
            return NotImplemented
        names = [f.name for f in fields(self) if f.name != "per_set_counts"]
        return (all(getattr(self, name) == getattr(other, name) for name in names)
                and np.array_equal(self.per_set_counts, other.per_set_counts))

    def _json_header(self) -> dict:
        out = {
            "n": self.n,
            "t": self.t,
            "k": self.k,
            "ell": self.ell,
            "mode": self.mode.label(),
            "pass": self.passed,
            "witness_S": list(self.witness) if self.witness else None,
        }
        if self.witness_count is not None:
            out["witness_count"] = self.witness_count
        return out

    def to_json_dict(self) -> dict:
        out = self._json_header()
        if self.per_set_counts is not None:
            out["per_S_counts"] = [
                {"S": row[:-1], "count": row[-1]} for row in self.per_set_counts.tolist()
            ]
        return out

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\n"``, byte for byte.

        Only the header fields go through the JSON encoder. The per-set block
        is one gather, indexed by the count rows, from three piece tables:
        the string of each integer up to the largest, with the entry's
        indentation and punctuation joined on for a first member, a later
        member and a count. No object is built per k-set; one ``join`` reads
        a reference per piece.
        """
        doc = self._json_header()
        rows = self.per_set_counts
        if rows is not None:
            doc["per_S_counts"] = []
        text = json.dumps(doc, indent=2) + "\n"
        if rows is None:
            return text
        values = np.array([str(v) for v in range(int(rows.max()) + 1)], dtype=object)
        pieces = np.concatenate((
            '    {\n      "S": [\n        ' + values,  # the first member
            ',\n        ' + values,  # each later member
            '\n      ],\n      "count": ' + values + '\n    },\n',
        ))[rows + np.repeat((0, 1, 2), (1, self.k - 1, 1)) * len(values)].ravel()
        pieces[0] = text[:-len("[]\n}\n")] + "[\n" + pieces[0]
        pieces[-1] = pieces[-1][:-len(",\n")] + "\n  ]\n}\n"
        return "".join(pieces.tolist())


# Elements one chunk of the k-set kernel may hold: for k = 3 the product's
# operand Z (colorings x first vertices x n x later vertices), otherwise
# the gathered colors (colorings x k-sets x n x k). Every chunk holds at
# least one first vertex of each coloring it scans.
# Small chunks keep the temporaries small and let a verify that fails
# early stop after little work; larger caps were no faster on K_50..K_400.
_CHUNK_ELEMENTS = 1 << 15
# Elements of one row block of the k = 3 pair table's equalities
# (colorings x rows x n x later columns), counted once per scan before any
# chunk: at 2^15 a 6-coloring K_50 stack took 2 rows per block and built P
# 2.2x slower than at 2^18 (17 rows), which 2^20 did not beat.
_PAIR_ELEMENTS = 1 << 18


def _still_live(live: Optional[np.ndarray], kept: np.ndarray, *stacks: np.ndarray) -> tuple:
    """``kept``, the indices of the colorings ``stacks`` hold along their
    first axis, and the stacks, cut to the colorings ``live`` still keeps
    (every one when None); each is copied only when a coloring left."""
    now = None if live is None else live[kept]
    if now is None or now.all():
        return (kept,) + stacks
    return (kept[now],) + tuple(stack[now] for stack in stacks)


def _triple_chunks(stack: np.ndarray, firsts: range, below: Optional[int] = None,
                   live: Optional[np.ndarray] = None) -> Iterator[tuple]:
    """(which, sets, stars, internal) of the 3-sets a < b < c with a in
    ``firsts`` whose count stars + internal is below ``below`` (every set
    when None), for each coloring of the (S, n, n) ``stack`` of color
    tables: ``which`` names the coloring of each set. A chunk covers some
    first vertices of every coloring ``live`` keeps, read before each chunk
    (every coloring when None; a caller only clears its entries), and lists
    their sets coloring by coloring, each in lexicographic order.

    P[b,c] counts the centers u where b and c see one color (u is never b
    or c, as the diagonal is zero). Only b < c is counted: each block of
    rows b (``_PAIR_ELEMENTS``) compares them with the later columns and
    sums the equalities as bytes into the smallest unsigned type that holds
    n, which is exact as no count exceeds n. With the pair-equality
    indicators Q_a[u,b] = [color(u,a) = color(u,b)], which are 0 at u = a
    and u = b, let Z = Q_a - 1/2 except Z[b,b] = 0. For b != c the centers
    a, b and c add 1/4, 0 and 0 to (Z^T Z)[b,c], so by inclusion-exclusion
    over the three equal pairs at each external center
    stars = 2 (Z^T Z)[b,c] + (n - 2 - n/2) - P[b,c] + [color(a,b) = color(a,c)]:
    the product carries the triple term and both pair terms of a. It is one
    float32 matmul per coloring and first vertex, exact in any summation
    order as every partial sum is a multiple of 1/4 of magnitude at most
    n/4, and neither time nor memory depends on the palette size. The
    internal part is 1 unless the triangle is monochromatic: two distinct
    internal colors always sit on adjacent edges, giving a rainbow 2-edge
    path, and 3 internal edges cannot hold two edge-disjoint spanning
    trees. So count = stars + internal is at least
    2 (Z^T Z)[b,c] + (n - 2 - n/2) - P[b,c] + 1, and a set is a candidate
    when that bound falls below the demand: one comparison of the product
    with a per-coloring table made from P in place, which admits no set off
    b < c, nor, in a chunk of several first vertices, any at b <= a. Only
    the candidates read their triangle's three colors, gathered at them;
    when every set is kept (``below`` None) the colors are compared over
    the whole block instead, which was faster there: a K_50 scan took
    0.8-0.9 ms against 1.0-1.1 ms with the fastest gather tried, and a
    star ``verify --per-s-counts`` of K_50 ran 3-4% slower in process with
    gathering alone. The counts then keep the sets below demand. A chunk
    takes fewer first vertices the more colorings are live, so its
    temporaries stay at ``_CHUNK_ELEMENTS``.
    """
    n = stack.shape[-1]
    every = below is None
    below = n - 1 if every else min(below, n - 1)  # every count is at most n - 2
    P = np.empty(stack.shape, dtype=np.float32)
    rows = max(1, _PAIR_ELEMENTS // (len(stack) * n * n))
    count = np.min_scalar_type(n)
    for r0 in range(0, n, rows):
        # rows b read as columns of the symmetric tables: reading them as
        # rows built P 1.8-2.1x slower on K_50 and K_200, and no faster on K_714
        equal = stack[:, :, r0:r0 + rows].transpose(0, 2, 1)[:, :, :, None] == stack[:, None, :, r0 + 1:]
        P[:, r0:r0 + rows, r0 + 1:] = equal.view(np.uint8).sum(axis=2, dtype=count)
    # in place: limit = (below - 1 - (n - 2 - n/2) + P) / 2, a multiple of
    # 1/4, and a set is a candidate when (Z^T Z)[b,c] < limit[b,c]; -inf
    # off b < c, written first, as the row blocks leave those entries unset
    np.copyto(P, -np.inf, where=np.tri(n, dtype=bool))
    limit = np.add(P, below + 1 - n / 2, out=P)
    limit *= 0.5
    kept = np.arange(len(stack))
    a0, stop = firsts.start - 1, firsts.stop - 1
    while a0 < stop:
        kept, stack, limit = _still_live(live, kept, stack, limit)
        if not len(kept):
            return
        # a runs over a0..a1-1; b and c over a0+1..n-1 (0-based)
        B = n - a0 - 1
        A = min(stop - a0, max(1, _CHUNK_ELEMENTS // (len(kept) * n * B)))
        a1, later = a0 + A, np.s_[a0 + 1:]
        Z = np.subtract(stack[:, :, a0:a1].transpose(0, 2, 1)[:, :, :, None] == stack[:, None, :, later],
                        np.float32(0.5), dtype=np.float32, order="C")
        Z.reshape(-1, n * B)[:, (a0 + 1) * B::B + 1] = 0  # row b of column b
        gap = Z.transpose(0, 1, 3, 2) @ Z
        del Z  # freed before the candidates take their temporaries
        gap -= limit[:, None, later, later]
        for i in range(1, A):
            gap[:, i, :i] = np.inf  # b <= a
        flat = np.flatnonzero(gap < 0)
        if len(flat):
            # (s, i, b, c) from the flat index ((s * A + i) * B + b) * B + c:
            # for every set of a chunk, the row's three read from small
            # tables, and ``np.unravel_index`` for the few candidates of a
            # demand (85 against 211 us on 15,000 sets, 11 against 1.4 us
            # on 30)
            xab = stack[:, a0:a1, later]
            if every:
                row = flat // B
                c = flat - row * B
                s, i, b = (part[row] for part in np.unravel_index(np.arange(len(kept) * A * B), gap.shape[:3]))
                pair = xab[:, :, :, None] == xab[:, :, None, :]
                mono = (pair & (xab[:, :, None, :] == stack[:, None, later, later])).take(flat)
                pair = pair.take(flat)
            else:
                s, i, b, c = np.unravel_index(flat, gap.shape)
                ab, ac = xab[s, i, b], xab[s, i, c]
                pair = ab == ac
                mono = pair & (ac == stack[:, later, later][s, b, c])
            # count = below + gap + pair - mono, with gap = 2 (Z^T Z - limit) < 0
            gap = 2 * gap.take(flat)
            if not every:
                short = np.flatnonzero(gap + (pair & ~mono) < 0)
                s, i, b, c, gap, pair, mono = (part[short] for part in (s, i, b, c, gap, pair, mono))
            stars = gap.astype(np.int64)
            stars += pair
            stars += below - 1
            # the sets as the columns of a Fortran-ordered array (row-wise
            # passes over short rows are slow)
            yield kept[s], np.array((i, b, c)).T + (a0 + 1, a0 + 2, a0 + 2), stars, 1 - mono
        a0 = a1


def _array_chunks(stack: np.ndarray, k: int, firsts: range, below: Optional[int] = None,
                  live: Optional[np.ndarray] = None) -> Iterator[tuple]:
    """(which, sets, stars, internal) of the k-sets with first vertex in
    ``firsts`` whose array count is below ``below`` (every set when None),
    for the colorings of ``stack`` that ``live`` keeps, each in
    lexicographic order: from ``_triple_chunks`` at k = 3 and from
    ``_gathered_chunks`` otherwise."""
    return _triple_chunks(stack, firsts, below, live) if k == 3 else _gathered_chunks(stack, k, firsts, below, live)


# Bit q of a center's usable-edge mask, and of a triple's rainbow-path bits,
# stands for terminal q of (a, b, c): the mask bit for the internal edge
# opposite q, whose ends are _OPPOSITE[:, q] (bc, ac, ab), and the path bit
# for the internal path centered at q, which leaves that edge free.
_OPPOSITE = np.array([[1, 0, 0], [2, 2, 1]])
_NEXT = np.array([1, 2, 0])
_BITS = np.array([1, 2, 4], dtype=np.uint8)
_MASKS = np.arange(1, 8)
# index of _excess_table: the count of centers with each nonzero mask,
# capped at 3, as base-4 digits above the 3 path bits
_COUNT_WEIGHTS = 8 * 4 ** np.arange(6, -1, -1)


@lru_cache(maxsize=None)
def _excess_table() -> np.ndarray:
    """The excess of ``_full_triple_excess`` for every histogram of masks
    and every set of rainbow paths, at the index that function computes.

    The matching number nu of centers to internal edges is Hall's deficiency
    form min over edge subsets R of 3 - |R| + |N(R)|, where N(R) counts the
    centers whose mask meets R; a rainbow path adds 1 more tree when some
    center can use its free edge. A count past 3 leaves every term >= 3 and
    the path term reads only > 0, so capping the counts at 3 is exact.
    Built in uint8 (128 KiB) on first use."""
    counts = np.indices((4,) * 7, dtype=np.uint8)  # counts[j - 1]: centers with mask j
    matched = np.full((4,) * 7, 3, dtype=np.uint8)
    for edges in _MASKS.tolist():
        neighbors = counts[(_MASKS & edges) != 0].sum(axis=0, dtype=np.uint8)
        np.minimum(matched, 3 - bin(edges).count("1") + neighbors, out=matched)
    # the rainbow path centered at terminal q, plus a center using the edge it frees
    freed = [np.uint8(1) + counts[(_MASKS >> q & 1) == 1].any(axis=0) for q in range(3)]
    table = np.empty((4,) * 7 + (8,), dtype=np.uint8)
    for paths in range(8):
        table[..., paths] = reduce(np.maximum, [freed[q] for q in range(3) if paths >> q & 1], matched)
    table.flags.writeable = False
    return table.reshape(-1)


def _table_rows(stack: np.ndarray, which: np.ndarray, sets: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(table, rows, cols)``: ``stack`` as one (S n, n) table, its
    colorings' rows one after another, and the rows and the columns in it of
    the members of the 1-based k-sets ``sets`` of the colorings ``which``.
    The per-set passes below read a set of any coloring by row and column;
    one coloring's table is that of its stack of one, where rows and columns
    are both ``sets - 1``."""
    n, cols = stack.shape[-1], sets - 1
    return stack.reshape(-1, n), cols + (which * n)[:, None], cols


def _full_triple_excess(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Full-mode budget-1 counts of the 3-sets whose members sit at ``rows``
    and ``cols`` of the stacked ``table`` (``_table_rows``), less their
    rainbow stars.

    A leaf-pruned tree of S = {a,b,c} with at most one external vertex is a
    rainbow internal 2-edge path, the star at an external x, or x joined to
    one terminal q and to one end of the edge e = S - {q}, plus e. Trees
    through distinct centers share only internal edges and a center carries
    at most one tree, so every rainbow star belongs to some maximum family,
    and the rest is the larger of a matching of the other centers to the
    internal edges they can use, and one rainbow internal path plus a
    center using its free edge.

    The two-color rule: an external center that is not a rainbow star sees
    S in one or two colors. With one it can use no internal edge; with two,
    {y, z}, it can use e exactly when color(e) is neither y nor z. So the
    terminals' rows are gathered once, the masks come from one comparison
    against the three internal colors and the two-color test (a terminal
    sees color 0 and is left out), and the rest is one lookup in
    ``_excess_table`` by the mask histogram and the rainbow-path bits.
    """
    rows, ends = rows.T, cols.T
    seen = table[rows]  # terminals x sets x centers: the tables are symmetric
    internal = table[rows[_OPPOSITE[0]], ends[_OPPOSITE[1]]]  # the edge opposite each terminal x sets
    usable = (seen[:, None] != internal[:, :, None]).all(axis=0)
    mask = np.einsum("i,ijk->jk", _BITS, usable.view(np.uint8))
    # two colors: exactly one pair of terminals sees one color; external: no color 0
    mask *= ((seen == seen[_NEXT]).sum(axis=0, dtype=np.uint8) == 1) & seen.all(axis=0)
    m = len(cols)
    hist = np.bincount((mask + np.arange(0, 8 * m, 8)[:, None]).ravel(), minlength=8 * m).reshape(m, 8)
    index = np.minimum(hist[:, 1:], 3) @ _COUNT_WEIGHTS
    paths = internal[_OPPOSITE]  # the two edges at each terminal
    index += _BITS @ (paths[0] != paths[1])
    return _excess_table()[index]


def _gathered_chunks(stack: np.ndarray, k: int, firsts: range, below: Optional[int] = None,
                     live: Optional[np.ndarray] = None) -> Iterator[tuple]:
    """(which, sets, stars, internal) of the k-sets with first vertex in
    ``firsts`` whose count stars + internal is below ``below`` (every set
    when None), for the colorings of ``stack`` that ``live`` keeps, read
    before each chunk, coloring by coloring and each in lexicographic order:
    a center counts when its k colors to the set are nonzero (it lies
    outside the set) and pairwise distinct. The internal part is the edge
    itself at k = 2 and left to the caller (0) at k >= 4."""
    n = stack.shape[-1]
    sets = chain.from_iterable(
        ((a,) + rest for rest in combinations(range(a + 1, n + 1), k - 1)) for a in firsts)
    kept = np.arange(len(stack))
    while True:
        kept, stack = _still_live(live, kept, stack)
        if not len(kept):
            return
        size = max(1, _CHUNK_ELEMENTS // (len(kept) * n * k))
        block = np.fromiter(chain.from_iterable(islice(sets, size)), dtype=np.intp).reshape(-1, k)
        if not len(block):
            return
        # coloring x set x member x center, by the symmetry of the tables
        stars = _rainbow_rows(stack[:, block - 1].transpose(0, 3, 1, 2)).sum(axis=1).ravel()
        flat = np.arange(len(stars)) if below is None else np.flatnonzero(stars < below - (k == 2))
        s, row = np.divmod(flat, len(block))
        yield kept[s], block[row], stars[flat], np.full(len(flat), k == 2, dtype=stars.dtype)


# the memo holds every pattern of a 5-set's 10 edges (Bell(10) = 115,975)
# and, at any k and any C(n,k), never more than 2^17
@lru_cache(maxsize=1 << 17)
def _pattern_packing(k: int, labels: tuple[int, ...]) -> int:
    """Internal packing size of a k-set whose edges, in ``combinations``
    order, carry the colors ``labels``; it is packed as the set 1..k."""
    colors = np.zeros((k, k), dtype=np.min_scalar_type(len(labels)))  # labels[i] <= i
    u, v = zip(*combinations(range(k), 2))
    colors[u, v] = colors[v, u] = np.add(labels, 1)  # a color is nonzero
    return len(_tree_packing(tuple(range(1, k + 1)), colors, 0)[0])


def _internal_packings(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Internal packing sizes of the k-sets whose members sit at ``rows``
    and ``cols`` of the stacked ``table`` (``_table_rows``). At k = 2 it is
    the edge, and at k = 3 a 2-edge path unless the triangle has one
    color.
    Otherwise each edge is labelled by the first edge with its color, and
    each distinct row of labels, all the packing depends on, is packed once."""
    k = cols.shape[1]
    if k == 2:
        return np.ones(len(cols), dtype=np.int64)
    if k == 3:
        (ra, rb, _), (_, b, c) = rows.T, cols.T
        return 1 - ((table[ra, b] == table[ra, c]) & (table[ra, c] == table[rb, c]))
    u, v = np.array(list(combinations(range(k), 2))).T
    edges = table[rows[:, u], cols[:, v]]
    labels = (edges[:, :, None] == edges[:, None, :]).argmax(axis=1)
    patterns, inverse = np.unique(labels, axis=0, return_inverse=True)
    sizes = [_pattern_packing(k, pattern) for pattern in map(tuple, patterns.tolist())]
    return np.array(sizes, dtype=np.int64)[inverse.reshape(-1)]


def _closed_form(k: int, mode: OracleMode, n: int, t: int) -> bool:
    """Whether full-mode counts of the k-sets of K_n under t colors have a
    closed form: k <= 3 and a reach of at most one external vertex."""
    return mode.kind == "full" and k <= 3 and mode.reach(n, k, t) <= 1


def _exact_counts(table: np.ndarray, t: int, rows: np.ndarray, cols: np.ndarray, stars: np.ndarray,
                  mode: OracleMode) -> np.ndarray:
    """Full-mode counts of the k-sets with ``stars`` rainbow stars whose
    members sit at ``rows`` and ``cols`` of the stacked ``table``
    (``_table_rows``); every coloring has the palette 1..t.

    The mode's reach is priced first, as for the oracle calls a closed form
    replaces. With one, the count is the certificate itself at k = 2 (the
    edge plus the stars) and the stars plus ``_full_triple_excess`` at
    k = 3, one array pass per slice of ``_CHUNK_ELEMENTS // n`` sets, as
    its temporaries hold sets x centers. Otherwise each set's count is the
    number of rows ``_tree_packing`` chooses on the reach; no row is decoded.
    """
    k, n = cols.shape[1], table.shape[1]
    reach = _priced_reach(mode, n, k, t)
    if _closed_form(k, mode, n, t):
        if k == 2:
            return stars + 1
        step, excess = max(1, _CHUNK_ELEMENTS // n), np.empty(len(cols), dtype=np.int64)
        for start in range(0, len(cols), step):
            part = np.s_[start:start + step]
            excess[part] = _full_triple_excess(table, rows[part], cols[part])
        return stars + excess
    # coloring s holds the rows s n .. s n + n - 1
    starts = (rows[:, 0] - cols[:, 0]).tolist()
    return np.array([len(_tree_packing(tuple(members), table[start:start + n], reach)[0])
                     for start, members in zip(starts, (cols + 1).tolist())], dtype=np.int64)


def _decided_chunks(
    stack: np.ndarray,
    t: int,
    k: int,
    ell: int,
    mode: OracleMode,
    exact: bool,
    firsts: Optional[range] = None,
    live: Optional[np.ndarray] = None,
) -> Iterator[tuple]:
    """``(which, sets, counts)`` in runs of the k-sets whose array count is
    below ell (every set when ``exact``), for each coloring of the (S, n, n)
    ``stack`` of color tables on the palette 1..t: the coloring of each set
    and the count that decides it. A k-set the runs leave out reaches ell.

    Chunks hold the consecutive k-sets with first vertex in ``firsts``
    (default: all) of the colorings still scanned, capped by
    ``_CHUNK_ELEMENTS``, so memory stays O(S n^2) plus one chunk; within a
    chunk the sets come coloring by coloring, each in lexicographic order.
    The array count is the rainbow stars (``_triple_chunks`` at k = 3,
    ``_gathered_chunks`` otherwise) plus the internal part arrays know: 1
    at k = 2, the triangle term at k = 3; the kernels pass on only the sets
    it leaves below ell (``below``). At k >= 4 the color-pattern table adds
    the internal packing, except when exact in full mode, where the oracle's
    count replaces it; that settles star mode. In full mode the sets still
    below ell (every set when ``exact``) go in order to ``_exact_counts``:
    slices of at most ``_CHUNK_ELEMENTS // n`` sets when the count has a
    closed form, one set per oracle call otherwise. A run ends after each
    such count or at the chunk's end. ``live``, an (S,) bool array or None
    for every coloring, is read before each chunk and each count: a caller
    that clears a coloring's entry at its first failing run drops it from
    the later runs, and takes no count past the failing set.
    """
    n = stack.shape[-1]
    full = mode.kind == "full"
    if firsts is None:
        firsts = range(1, n - k + 2)
    step = max(1, _CHUNK_ELEMENTS // n) if _closed_form(k, mode, n, t) else 1
    chunks = _array_chunks(stack, k, firsts, None if exact else ell, live)  # None: no liveness test per chunk
    if live is None:
        live = np.ones(len(stack), dtype=bool)
    for which, sets, stars, internal in chunks:
        counts = stars + internal
        if k > 3 and not (exact and full) and len(sets):
            counts += _internal_packings(*_table_rows(stack, which, sets))
        if not full:
            if len(sets):
                yield which, sets, counts
            continue
        # at k > 3 the internal packing may have lifted a set to ell
        short = np.arange(len(sets)) if exact else (counts < ell).nonzero()[0]
        table, rows, cols = _table_rows(stack, which, sets)
        done = 0
        while done < len(sets):
            short = short[live[which[short]]]
            part, short, end = short[:step], short[step:], len(sets)
            if len(part):
                counts[part] = _exact_counts(table, t, rows[part], cols[part], stars[part], mode)
                end = part[-1] + 1
            kept = live[which[done:end]]
            if kept.any():
                yield which[done:end][kept], sets[done:end][kept], counts[done:end][kept]
            done = end


def _passes(stack: np.ndarray, t: int, k: int, ell: int, mode: OracleMode) -> np.ndarray:
    """Whether each coloring of ``stack`` (palette 1..t) gives every k-set
    ell trees, as ``verify_coloring`` decides one coloring: one pass of
    ``_decided_chunks`` over the stack, which a coloring leaves at its first
    failing run."""
    live = np.ones(len(stack), dtype=bool)
    for which, _, counts in _decided_chunks(stack, t, k, ell, mode, False, live=live):
        live[which[counts < ell]] = False
    return live


def _first_vertex_ranges(n: int, k: int, parts: int) -> list[range]:
    """Consecutive first-vertex ranges of about C(n,k)/parts k-sets each."""
    size = -(-math.comb(n, k) // parts)
    ranges, start, held = [], 1, 0
    for a in range(1, n - k + 2):
        held += math.comb(n - a, k - 1)
        if held >= size or a == n - k + 1:
            ranges.append(range(start, a + 1))
            start, held = a + 1, 0
    return ranges


def _verify_range(job) -> tuple[Optional[tuple[tuple[int, ...], int]], list[np.ndarray]]:
    """First failing k-set among those with the job's first vertices, and, if
    wanted, their ``(*S, count)`` rows, one block per run; without counts the
    scan stops at the first failing run."""
    coloring, k, ell, mode, firsts, collect_counts = job
    blocks: list[np.ndarray] = []
    first_fail = None
    runs = _decided_chunks(coloring.array[None], coloring.t, k, ell, mode, collect_counts, firsts)
    for _, sets, run_counts in runs:
        if collect_counts:
            blocks.append(np.column_stack((sets, run_counts)))
        low = (run_counts < ell).nonzero()[0]
        if first_fail is None and low.size:
            first_fail = (tuple(sets[low[0]].tolist()), int(run_counts[low[0]]))
            if not collect_counts:
                break
    return first_fail, blocks


def verify_coloring(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    mode: OracleMode = OracleMode.star(),
    *,
    per_set_counts: bool = False,
    workers: int = 1,
) -> VerificationReport:
    """Check that every k-set of vertices has ell internally disjoint rainbow trees.

    Terminal sets are scanned in lexicographic order and the first failing
    set is reported, independent of worker count. The star certificate
    (internal packing + rainbow stars) accepts a set early; the exact
    oracle of ``mode`` decides the rest. One worker scans the sets in
    chunks of consecutive first vertices; more split the first vertices
    into ordered ranges.
    """
    n = coloring.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if ell < 0:
        raise ValueError(f"demand ell must be nonnegative, got {ell}")
    ranges = _first_vertex_ranges(n, k, workers * 4) if workers > 1 else [range(1, n - k + 2)]
    jobs = [(coloring, k, ell, mode, firsts, per_set_counts) for firsts in ranges]
    first_fail = None
    blocks = []
    for fail, job_blocks in parallel_map(_verify_range, jobs, workers):
        blocks.extend(job_blocks)
        if first_fail is None:
            first_fail = fail  # chunks are ordered, so the first failure is the least witness
    witness, count = first_fail or (None, None)
    rows = None
    if per_set_counts:
        rows = np.concatenate(blocks, out=np.empty((math.comb(n, k), k + 1), dtype=np.int64))
        rows.flags.writeable = False
    return VerificationReport(n, coloring.t, k, ell, mode, witness is None, witness, count, rows)
