"""Terminal trees, rainbow predicates, and exact disjoint-packing oracles.

For a terminal set S inside an edge-colored K_n, an S-tree is a tree whose
vertex set contains S; it is rainbow when no two of its edges share a
color. A family of S-trees is internally disjoint when the trees are
pairwise edge-disjoint and meet only in S. Everything here is exact and
built for small instances: candidate trees are enumerated explicitly, from
a table of the spanning-tree shapes of K_m built once per m (only trees
are scanned, never edge subsets that are not trees), and the
lexicographically least maximum family is found by one iterative
branch and bound over their conflict graph, bounded by clique covers
(trees sharing an edge, or an external vertex, pairwise conflict).
Neither recursion depth nor the number of passes grows with the number
of candidates.

Candidate trees are always leaf-pruned (every leaf lies in S). Pruning a
non-terminal leaf keeps a rainbow S-tree rainbow, so restricting to
leaf-pruned candidates never changes the maximum family size while
shrinking the search space drastically.

Whole-coloring verification, the local-search objective and the
double-counting bound take the star certificate (internal packing plus
rainbow stars) of every k-set from one numpy kernel. Its inner loops are
array operations, not per-set tuples: it yields the certificates of
consecutive k-sets chunk by chunk, from matmuls over pair-equality
indicators for k = 3 and from the gathered colors at every center
otherwise. The
exact oracle of the mode then decides, in lexicographic order, the k-sets
where the certificate falls short, through the count-only ``_packing``.
After a single-edge recoloring, the local search passes the previous
coloring's oracle counts back in, and with at most one external vertex
per tree only the sets through the edge's ends reach the oracle again.
Inside the oracle a k-set is its sorted members tuple and a candidate
tree is ``(edges, external vertices)``; the validated ``VertexSet``,
``STree`` and ``DisjointFamily`` objects are built only at the public
entry points, for the witness families they return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .colorings import BudgetExceededError, CompleteGraphColoring, parallel_map

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

DEFAULT_CANDIDATE_CAP = 5_000_000


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

    def external_vertices(self) -> frozenset[int]:
        return self.vertices - frozenset(self.terminal_set.members)


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
    mat = coloring.matrix
    for u, v in tree.edges:
        c = mat[u][v]
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
    return len(_rainbow_centers(terminals.members, coloring.matrix, coloring.n))


def _rainbow_centers(members: tuple[int, ...], mat, n: int) -> list[int]:
    """External centers whose star on ``members`` is rainbow."""
    centers = []
    member_set = set(members)
    for u in range(1, n + 1):
        if u in member_set:
            continue
        row = mat[u]
        seen = 0
        for v in members:
            bit = 1 << row[v]
            if seen & bit:
                break
            seen |= bit
        else:
            centers.append(u)
    return centers


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
        for a, b in combinations(self.trees, 2):
            if set(a.edges) & set(b.edges):
                raise ValueError("trees share an edge")
            if (a.vertices & b.vertices) - terms:
                raise ValueError("trees share a vertex outside the terminal set")

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
    vertices; exact on small instances. The default budget k-2 covers all
    branch vertices of degree >= 3, but degree-2 external vertices are
    admissible in rainbow trees, so the budget is caller-adjustable.
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

    def resolved_budget(self, k: int) -> int:
        if self.budget is not None:
            return self.budget
        return max(1, k - 2)

    def label(self) -> str:
        if self.kind == "star":
            return "star"
        return f"full:{self.budget}" if self.budget is not None else "full:default"


def _check_terminals(terminals: VertexSet, n: int) -> None:
    if terminals.members[-1] > n:
        raise ValueError(f"terminal {terminals.members[-1]} exceeds vertex count {n}")


# Shape-table rows handled at once, when a table is decoded and when it is
# scanned, so temporaries stay small even for the 4.8M trees of K_9
_SHAPE_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _tree_shapes(m: int) -> np.ndarray:
    """Every spanning tree of K_m, as rows of m-1 ascending edge indices.

    Edge i is the i-th pair of ``combinations(range(m), 2)`` and the rows are
    in lexicographic order. The m^(m-2) trees are decoded from their Prüfer
    sequences, all of a block at once; tables past the default candidate
    cap (m >= 10) raise BudgetExceededError.
    """
    count = m ** (m - 2)
    if count > DEFAULT_CANDIDATE_CAP:
        raise BudgetExceededError(
            f"K_{m} has {count} spanning trees (cap {DEFAULT_CANDIDATE_CAP})", size=count)
    pair = np.zeros((m, m), dtype=np.uint8)
    for i, (u, v) in enumerate(combinations(range(m), 2)):
        pair[u, v] = pair[v, u] = i
    blocks = []
    for start in range(0, count, _SHAPE_BLOCK):
        codes = np.arange(start, min(count, start + _SHAPE_BLOCK))
        rows = np.arange(len(codes))
        sequence = [codes // m ** (m - 3 - j) % m for j in range(m - 2)]
        degree = np.ones((len(codes), m), dtype=np.int8)
        for joined in sequence:
            degree[rows, joined] += 1
        edges = np.empty((len(codes), m - 1), dtype=np.uint8)
        for j, joined in enumerate(sequence):
            leaf = (degree == 1).argmax(axis=1)  # the least leaf
            edges[:, j] = pair[leaf, joined]
            degree[rows, leaf] = 0
            degree[rows, joined] -= 1
        last = degree == 1
        edges[:, -1] = pair[last.argmax(axis=1), m - 1 - last[:, ::-1].argmax(axis=1)]
        blocks.append(edges)
    shapes = np.sort(np.concatenate(blocks), axis=1)
    return shapes[np.lexsort(shapes.T[::-1])]


@lru_cache(maxsize=None)
def _branching_shapes(m: int, positions: tuple[int, ...]) -> np.ndarray:
    """The rows of ``_tree_shapes(m)`` where every vertex in ``positions`` has degree >= 2."""
    shapes = _tree_shapes(m)
    ends = np.array(list(combinations(range(m), 2)))
    for p in positions:
        shapes = shapes[(ends == p).any(axis=1)[shapes].sum(axis=1) >= 2]
    return shapes


def _rainbow_trees(vertices: tuple[int, ...], extra: tuple[int, ...], mat) -> Iterator[tuple]:
    """Rainbow spanning trees of K[vertices] with no leaf in ``extra``, in
    lexicographic order of their sorted edges.

    Only trees are scanned: the shapes of K_m whose ``extra`` positions
    branch, kept when their m-1 edge colors are distinct.
    """
    m = len(vertices)
    pairs = list(combinations(vertices, 2))
    bits = [1 << mat[u][v] for u, v in pairs]
    if len(set(bits)) < m - 1:
        return  # fewer than m-1 colors: no spanning tree is rainbow
    shapes = _branching_shapes(m, tuple(map(vertices.index, extra)))
    for start in range(0, len(shapes), _SHAPE_BLOCK):
        for shape in shapes[start:start + _SHAPE_BLOCK].tolist():
            colors = 0
            for e in shape:
                colors |= bits[e]
            if colors.bit_count() == m - 1:
                yield tuple([pairs[e] for e in shape])


def _tree_order(candidate: tuple) -> tuple:
    edges = candidate[0]
    return len(edges), edges


def _internal_candidates(members: tuple[int, ...], mat) -> list[tuple]:
    # combinations of sorted edges come out in lexicographic order already
    return [(edges, ()) for edges in _rainbow_trees(members, (), mat)]


def _star_candidates(members: tuple[int, ...], mat, n: int) -> list[tuple]:
    return [(_normalize_edges((u, v) for v in members), (u,))
            for u in _rainbow_centers(members, mat, n)]


def _full_candidate_work(n_external: int, k: int, budget: int) -> int:
    """Trees the full oracle scans: the m^(m-2) shapes of K_m, m = k + r, for
    each choice of r <= budget external vertices."""
    total = 0
    for r in range(0, min(budget, n_external) + 1):
        m = k + r
        total += math.comb(n_external, r) * m ** (m - 2)
    return total


def _full_candidates(
    members: tuple[int, ...], mat, n: int, budget: int, candidate_cap: int
) -> list[tuple]:
    externals = [v for v in range(1, n + 1) if v not in members]
    work = _full_candidate_work(len(externals), len(members), budget)
    if work > candidate_cap:
        raise BudgetExceededError(
            f"full oracle would scan {work} candidate trees (cap {candidate_cap})",
            size=work,
        )
    out = []
    for r in range(0, min(budget, len(externals)) + 1):
        for extra in combinations(externals, r):
            vertices = tuple(sorted(members + extra))
            out.extend((edges, extra) for edges in _rainbow_trees(vertices, extra, mat))
    out.sort(key=_tree_order)
    return out


# ---------------------------------------------------------------------------
# Maximum packing by branch and bound

def _max_packing(candidates: list[tuple], members: tuple[int, ...]) -> list[tuple]:
    """A maximum packing of ``(edges, external)`` candidates, lexicographically
    least in candidate order.

    Compatibility masks are built from per-edge and per-external-vertex
    owner bitmasks. An explicit-stack DFS takes the lowest available
    candidate before skipping it, so it meets packings in lexicographic
    order and the first maximum it keeps is the least one. A node is
    bounded by the smaller of two clique covers, counted over classes with
    an available candidate: trees sharing their first edge at s =
    members[0] pairwise conflict (at most n-1 classes), and so do trees
    sharing their least external vertex (internal trees keep their edge
    class).
    """
    s = members[0]
    owners: dict = {}
    by_edge: dict = {}
    by_vertex: dict = {}
    keys = []
    for i, (edges, external) in enumerate(candidates):
        bit = 1 << i
        own = edges + external
        keys.append(own)
        for key in own:
            owners[key] = owners.get(key, 0) | bit
        first = next(e for e in edges if s in e)
        by_edge[first] = by_edge.get(first, 0) | bit
        least = external[0] if external else first
        by_vertex[least] = by_vertex.get(least, 0) | bit
    full = (1 << len(candidates)) - 1
    compat = []
    for own in keys:
        clash = 0
        for key in own:
            clash |= owners[key]
        compat.append(full & ~clash)
    edge_classes = list(by_edge.values())
    vertex_classes = list(by_vertex.values())
    best: tuple[int, ...] = ()
    stack = [(full, best)]
    while stack:
        avail, chosen = stack.pop()
        room = len(best) - len(chosen)
        if (sum(map(bool, map(avail.__and__, edge_classes))) <= room
                or sum(map(bool, map(avail.__and__, vertex_classes))) <= room):
            continue
        if not avail:
            best = chosen
            continue
        low = avail & -avail
        i = low.bit_length() - 1
        stack.append((avail ^ low, chosen))
        stack.append((avail & compat[i], chosen + (i,)))
    return [candidates[i] for i in best]


def _family(terminals: VertexSet, coloring: CompleteGraphColoring, chosen: list[tuple]) -> DisjointFamily:
    members = terminals.members
    trees = tuple(STree(frozenset(members + external), edges, terminals) for edges, external in chosen)
    return DisjointFamily(terminals, trees, coloring)


def internal_tree_packing(terminals: VertexSet, coloring: CompleteGraphColoring) -> DisjointFamily:
    """Maximum set of edge-disjoint rainbow spanning trees inside G[S].

    Vertex sets are exactly S, so the family is internally disjoint; edge
    counting caps its size at floor(k/2).
    """
    _check_terminals(terminals, coloring.n)
    members = terminals.members
    return _family(terminals, coloring, _max_packing(_internal_candidates(members, coloring.matrix), members))


def _packing(
    members: tuple[int, ...], coloring: CompleteGraphColoring, mode: OracleMode, candidate_cap: int
) -> list[tuple]:
    """The lexicographically least maximum family of the mode's candidates for
    the sorted k-set ``members``, as unvalidated ``(edges, external)`` tuples.

    The per-k-set decision reads only its length.
    """
    mat, n = coloring.matrix, coloring.n
    if mode.kind == "star":
        candidates = _internal_candidates(members, mat) + _star_candidates(members, mat, n)
        candidates.sort(key=_tree_order)
    else:
        candidates = _full_candidates(
            members, mat, n, mode.resolved_budget(len(members)), candidate_cap)
    return _max_packing(candidates, members)


def max_disjoint_rainbow_trees(
    terminals: VertexSet,
    coloring: CompleteGraphColoring,
    mode: OracleMode = OracleMode.star(),
    *,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> tuple[int, DisjointFamily]:
    """Exact maximum internally disjoint rainbow family over the mode's candidates.

    Returns the maximum cardinality together with a witness family: the
    lexicographically least maximum family when trees are ordered by edge
    count, then by sorted edge list.
    """
    _check_terminals(terminals, coloring.n)
    family = _family(terminals, coloring, _packing(terminals.members, coloring, mode, candidate_cap))
    return len(family), family


# ---------------------------------------------------------------------------
# Whole-coloring verification

@dataclass(frozen=True)
class VerificationReport:
    n: int
    t: int
    k: int
    ell: int
    mode: OracleMode
    passed: bool
    witness: Optional[tuple[int, ...]]
    witness_count: Optional[int]
    per_set_counts: Optional[tuple[tuple[tuple[int, ...], int], ...]] = None

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
                {"S": list(s), "count": c} for s, c in self.per_set_counts
            ]
        return out

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\n"``, byte for byte.

        Only the header fields go through the JSON encoder; every per-set
        entry is one %-template fill, so no dict is built per k-set.
        """
        doc = self._json_header()
        if self.per_set_counts is not None:
            doc["per_S_counts"] = []
        text = json.dumps(doc, indent=2) + "\n"
        if not self.per_set_counts:
            return text
        entry = ('    {\n      "S": [\n' + ",\n".join(["        %d"] * self.k)
                 + '\n      ],\n      "count": %d\n    }')
        body = ",\n".join([entry % (*s, c) for s, c in self.per_set_counts])
        return "".join((text[:-len("[]\n}\n")], "[\n", body, "\n  ]\n}\n"))


# Elements one chunk of the k-set kernel may hold: for k = 3 the
# pair-equality operand (first vertices x n x later vertices), otherwise the
# gathered colors (k-sets x n x k). Every chunk holds at least one first vertex.
# Small chunks keep the temporaries small and let a verify that fails
# early stop after little work; larger caps were no faster on K_50..K_400.
_CHUNK_ELEMENTS = 1 << 15


def _color_array(coloring: CompleteGraphColoring) -> np.ndarray:
    """The n x n color table, 0-based, zero on the diagonal."""
    n = coloring.n
    colors = np.zeros((n, n), dtype=np.min_scalar_type(coloring.t))
    vertices = np.arange(n)
    colors[vertices[:, None] < vertices] = coloring.colors  # row-major: the edge order
    return colors + colors.T


def _triple_chunks(colors: np.ndarray, firsts: range) -> Iterator[tuple]:
    """(sets, stars, internal) of the 3-sets a < b < c with a in ``firsts``.

    P[b,c] counts the centers u where b and c see one color (u is never b
    or c, as the diagonal is zero). With the pair-equality indicators
    Q_a[u,b] = [color(u,a) = color(u,b)], T = Q_a^T Q_a counts the centers
    where a, b and c all see one color: one float32 matmul per first
    vertex, exact as every value is an integer of at most n, and neither
    time nor memory depends on the palette size. Inclusion-exclusion over
    the three equal pairs gives stars = (n-3) - P'_ab - P'_ac - P'_bc +
    2 T_abc, where P'_ab = P[a,b] - [color(c,a) = color(c,b)] leaves out
    the third terminal. The internal part is 1 unless the triangle is
    monochromatic: two distinct internal colors always sit on adjacent
    edges, giving a rainbow 2-edge path, and 3 internal edges cannot hold
    two edge-disjoint spanning trees.
    """
    n = len(colors)
    P = np.empty((n, n), dtype=np.float32)
    rows = max(1, _CHUNK_ELEMENTS // (n * n))
    for r0 in range(0, n, rows):
        P[r0:r0 + rows] = (colors[:, r0:r0 + rows].T[:, :, None] == colors).sum(axis=1)
    rest = (n - 3) - P
    vertices = np.arange(n)
    before = vertices[:, None] < vertices
    a0, stop = firsts.start - 1, firsts.stop - 1
    while a0 < stop:
        # a runs over a0..a1-1; b and c over a0+1..n-1 (0-based)
        B = n - a0 - 1
        A = min(stop - a0, max(1, _CHUNK_ELEMENTS // (n * B)))
        a1 = a0 + A
        ab, bc = np.s_[a0:a1, a0 + 1:], np.s_[a0 + 1:, a0 + 1:]
        Q = (colors[:, a0:a1].T[:, :, None] == colors[:, a0 + 1:]).astype(np.float32)
        stars = Q.transpose(0, 2, 1) @ Q
        stars *= 2
        stars += rest[bc]
        stars -= P[ab][:, :, None]
        stars -= P[ab][:, None, :]
        xab, xbc = colors[ab], colors[bc]
        ab_ac = xab[:, :, None] == xab[:, None, :]
        ac_bc = xab[:, None, :] == xbc
        stars += ab_ac
        stars += ac_bc
        stars += xab[:, :, None] == xbc
        inside = before[ab][:, :, None] & before[bc]  # a < b < c
        sets = np.transpose(inside.nonzero()) + (a0 + 1, a0 + 2, a0 + 2)
        yield sets, stars[inside].astype(np.int64), 1 - (ab_ac & ac_bc)[inside]
        a0 = a1


def _gathered_chunks(colors: np.ndarray, k: int, firsts: range) -> Iterator[tuple]:
    """(sets, stars) of the k-sets with first vertex in ``firsts``, in lexicographic
    order: a center counts when its k colors to the set are nonzero (it lies
    outside the set) and pairwise distinct."""
    n = len(colors)
    size = max(1, _CHUNK_ELEMENTS // (n * k))
    sets = chain.from_iterable(
        ((a,) + rest for rest in combinations(range(a + 1, n + 1), k - 1)) for a in firsts)
    while True:
        block = np.fromiter(chain.from_iterable(islice(sets, size)), dtype=np.intp).reshape(-1, k)
        if not len(block):
            return
        seen = np.sort(colors[:, block - 1], axis=2)
        yield block, ((seen[..., 0] > 0) & (np.diff(seen, axis=2) != 0).all(axis=2)).sum(axis=0)


def _certificate_chunks(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    exact: bool,
    firsts: Optional[range] = None,
) -> Iterator[tuple]:
    """The star certificate of every k-set, as arrays in lexicographic chunks.

    Yields ``(sets, stars, internal)``: the (m, k) array of 1-based k-sets
    with first vertex in ``firsts`` (default: all), their rainbow star
    counts and their internal packing sizes. Chunks hold consecutive sets
    and are capped by ``_CHUNK_ELEMENTS``, so memory stays O(n^2) plus one
    chunk. k = 3 uses matmuls, k = 2 has internal part 1, and for k >= 4
    the internal packing is computed per set, for every set when ``exact``
    and otherwise only where the stars fall below ell (elsewhere it is 0,
    so stars + internal is exact below ell and at least ell above).
    """
    if firsts is None:
        firsts = range(1, coloring.n - k + 2)
    colors = _color_array(coloring)
    if k == 3:
        yield from _triple_chunks(colors, firsts)
        return
    mat = coloring.matrix
    for sets, stars in _gathered_chunks(colors, k, firsts):
        internal = np.full_like(stars, 1 if k == 2 else 0)
        if k > 3:
            for i in range(len(sets)) if exact else np.flatnonzero(stars < ell).tolist():
                members = tuple(sets[i].tolist())
                internal[i] = len(_max_packing(_internal_candidates(members, mat), members))
        yield sets, stars, internal


def _decided_chunks(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    mode: OracleMode,
    candidate_cap: int,
    exact: bool,
    until_failure: bool,
    firsts: Optional[range] = None,
    reuse: Optional[tuple[dict, tuple[int, int]]] = None,
    decided: Optional[dict] = None,
) -> Iterator[tuple]:
    """``(sets, counts)`` in lexicographic chunks: the count that decides each k-set.

    The count is the star certificate (internal packing plus rainbow
    stars). In full mode the exact oracle replaces every count below ell,
    or every count when ``exact``, called in lexicographic order through
    the count-only ``_packing``. Each oracle count is stored in
    ``decided[members]`` when a dict is given. ``reuse = (known, (u, v))``
    holds the ``decided`` counts of a coloring that differs from this one
    on edge {u,v} only. With a resolved budget <= 1, every edge of a
    candidate tree (and of the certificate) has an end in the set, so a
    set without u or v keeps its certificate, still below ell, and takes
    its count from ``known``. With a larger budget a tree through two
    external vertices can use {u,v}, and every set is decided afresh.
    With ``until_failure`` the last chunk ends at the first set below ell,
    and no oracle call follows it.
    """
    if mode.kind != "full" or mode.resolved_budget(k) > 1:
        reuse = None
    for sets, stars, internal in _certificate_chunks(coloring, k, ell, exact, firsts):
        counts = stars + internal
        if mode.kind == "full":
            if reuse is None:
                kept = np.zeros(len(sets), dtype=bool)
            else:
                known, moved = reuse
                kept = ~np.isin(sets, moved).any(axis=1)
            for i in range(len(sets)) if exact else np.flatnonzero(counts < ell).tolist():
                members = tuple(sets[i].tolist())
                if kept[i]:
                    count = known[members]
                else:
                    count = len(_packing(members, coloring, mode, candidate_cap))
                counts[i] = count
                if decided is not None:
                    decided[members] = count
                if until_failure and count < ell:
                    break
        if until_failure:
            low = np.flatnonzero(counts < ell)
            if low.size:
                yield sets[:low[0] + 1], counts[:low[0] + 1]
                return
        yield sets, counts


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


def _verify_range(job) -> tuple[Optional[tuple[tuple[int, ...], int]], list[tuple[tuple[int, ...], int]]]:
    """First failing k-set among those with the job's first vertices, and their
    counts if wanted; without counts the scan stops at the first failure."""
    coloring, k, ell, mode, firsts, collect_counts, candidate_cap = job
    counts: list[tuple[tuple[int, ...], int]] = []
    first_fail = None
    for sets, chunk_counts in _decided_chunks(
            coloring, k, ell, mode, candidate_cap, collect_counts, not collect_counts, firsts):
        if collect_counts:
            counts.extend(zip(zip(*sets.T.tolist()), chunk_counts.tolist()))
        low = np.flatnonzero(chunk_counts < ell)
        if first_fail is None and low.size:
            first_fail = (tuple(sets[low[0]].tolist()), int(chunk_counts[low[0]]))
    return first_fail, counts


def verify_coloring(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    mode: OracleMode = OracleMode.star(),
    *,
    per_set_counts: bool = False,
    workers: int = 1,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
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
    ranges = _first_vertex_ranges(n, k, workers * 4 if workers > 1 else 1)
    jobs = [(coloring, k, ell, mode, firsts, per_set_counts, candidate_cap) for firsts in ranges]
    first_fail = None
    counts = []
    for fail, chunk_counts in parallel_map(_verify_range, jobs, workers):
        counts.extend(chunk_counts)
        if first_fail is None:
            first_fail = fail  # chunks are ordered, so the first failure is the least witness
    witness, count = first_fail or (None, None)
    return VerificationReport(
        n, coloring.t, k, ell, mode, witness is None, witness, count,
        tuple(counts) if per_set_counts else None)
