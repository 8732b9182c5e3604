"""Terminal trees, rainbow predicates, and exact disjoint-packing oracles.

For a terminal set S inside an edge-colored K_n, an S-tree is a tree whose
vertex set contains S; it is rainbow when no two of its edges share a
color. A family of S-trees is internally disjoint when the trees are
pairwise edge-disjoint and meet only in S. Everything here is exact and
built for small instances: candidate trees are enumerated explicitly and
the lexicographically least maximum family is found by one iterative
branch and bound over their conflict graph, bounded by clique covers
(trees sharing an edge, or an external vertex, pairwise conflict).
Neither recursion depth nor the number of passes grows with the number
of candidates.

Candidate trees are always leaf-pruned (every leaf lies in S). Pruning a
non-terminal leaf keeps a rainbow S-tree rainbow, so restricting to
leaf-pruned candidates never changes the maximum family size while
shrinking the search space drastically.

Whole-coloring verification and the local-search objective decide each
k-set with one function: the star certificate (internal packing plus
rainbow stars), then the exact oracle of the mode where the certificate
falls short. Inner loops work on plain tuples, a k-set as its sorted
members and a candidate tree as ``(edges, external vertices)``; the
validated ``VertexSet``, ``STree`` and ``DisjointFamily`` objects are
built at the public entry points and for the witness families returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from typing import Iterable, Iterator, Optional

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
    return len(_rainbow_centers(terminals.members, coloring.matrix, coloring.n, coloring.n))


def _rainbow_centers(members: tuple[int, ...], mat, n: int, stop_at: int) -> list[int]:
    """External centers whose star on ``members`` is rainbow, at most stop_at of them."""
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
            if len(centers) >= stop_at:
                break
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


def _rainbow_trees(vertices: tuple[int, ...], extra: tuple[int, ...], mat) -> Iterator[tuple]:
    """Rainbow spanning trees of K[vertices] with no leaf in ``extra``.

    Cheap bitmask tests on each (m-1)-edge subset (distinct colors, every
    vertex covered, every extra vertex of degree >= 2) run before the
    union-find acyclicity test.
    """
    records = [((u, v), 1 << mat[u][v], 1 << u | 1 << v) for u, v in combinations(vertices, 2)]
    covered = sum(1 << v for v in vertices)
    branching = sum(1 << v for v in extra)
    for subset in combinations(records, len(vertices) - 1):
        colors = once = twice = 0
        for _, color, ends in subset:
            if colors & color:
                break
            colors |= color
            twice |= once & ends
            once |= ends
        else:
            if once == covered and not branching & ~twice:
                edges = tuple(edge for edge, _, _ in subset)
                if _is_acyclic(vertices, edges):
                    yield edges


def _tree_order(candidate: tuple) -> tuple:
    edges = candidate[0]
    return len(edges), edges


def _internal_candidates(members: tuple[int, ...], mat) -> list[tuple]:
    # combinations of sorted edges come out in lexicographic order already
    return [(edges, ()) for edges in _rainbow_trees(members, (), mat)]


def _star_candidates(members: tuple[int, ...], mat, n: int) -> list[tuple]:
    return [(_normalize_edges((u, v) for v in members), (u,))
            for u in _rainbow_centers(members, mat, n, n)]


def _full_candidate_work(n_external: int, k: int, budget: int) -> int:
    total = 0
    for r in range(0, min(budget, n_external) + 1):
        m = k + r
        total += math.comb(n_external, r) * math.comb(m * (m - 1) // 2, m - 1)
    return total


def _full_candidates(
    members: tuple[int, ...], mat, n: int, budget: int, candidate_cap: int
) -> list[tuple]:
    externals = [v for v in range(1, n + 1) if v not in members]
    work = _full_candidate_work(len(externals), len(members), budget)
    if work > candidate_cap:
        raise BudgetExceededError(
            f"full oracle would scan {work} candidate edge sets (cap {candidate_cap})",
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
    members, mat, n = terminals.members, coloring.matrix, coloring.n
    if mode.kind == "star":
        candidates = _internal_candidates(members, mat) + _star_candidates(members, mat, n)
        candidates.sort(key=_tree_order)
    else:
        candidates = _full_candidates(
            members, mat, n, mode.resolved_budget(terminals.k), candidate_cap)
    family = _family(terminals, coloring, _max_packing(candidates, members))
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

    def to_json_dict(self) -> dict:
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
        if self.per_set_counts is not None:
            out["per_S_counts"] = [
                {"S": list(s), "count": c} for s, c in self.per_set_counts
            ]
        return out


def _kset_count(
    members: tuple[int, ...],
    coloring: CompleteGraphColoring,
    ell: int,
    mode: OracleMode,
    exact: bool,
    candidate_cap: int,
) -> int:
    """The count that decides one k-set: the star certificate, then the oracle.

    The certificate is the internal packing size plus the rainbow star
    count; unless ``exact``, it stops once it reaches ell. For k = 3 the
    internal packing size is 1 unless the triangle is monochromatic: two
    distinct internal colors always sit on adjacent edges, giving a rainbow
    2-edge path, and 3 internal edges cannot hold two edge-disjoint
    spanning trees. In full mode the exact oracle replaces a certificate
    below ell, or every certificate when ``exact``.
    """
    mat = coloring.matrix
    if len(members) == 3:
        a, b, c = members
        count = 0 if mat[a][b] == mat[a][c] == mat[b][c] else 1
    else:
        count = len(_max_packing(_internal_candidates(members, mat), members))
    stop = coloring.n if exact else ell
    if count < stop:
        count += len(_rainbow_centers(members, mat, coloring.n, stop - count))
    if mode.kind == "full" and (exact or count < ell):
        count, _ = max_disjoint_rainbow_trees(
            VertexSet(members), coloring, mode, candidate_cap=candidate_cap)
    return count


def _scan_sets(job) -> tuple[Optional[tuple[tuple[int, ...], int]], list[tuple[tuple[int, ...], int]]]:
    """First failing set of one run of terminal sets, and their counts if wanted.

    Without counts the scan stops at the first failure.
    """
    coloring, ell, mode, sets, collect_counts, candidate_cap = job
    counts: list[tuple[tuple[int, ...], int]] = []
    first_fail: Optional[tuple[tuple[int, ...], int]] = None
    for members in sets:
        count = _kset_count(members, coloring, ell, mode, collect_counts, candidate_cap)
        if collect_counts:
            counts.append((members, count))
        if count < ell and first_fail is None:
            first_fail = (members, count)
            if not collect_counts:
                break
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
    oracle of ``mode`` decides the rest. One worker streams the sets;
    more split them into ordered chunks.
    """
    n = coloring.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if ell < 0:
        raise ValueError(f"demand ell must be nonnegative, got {ell}")
    sets = combinations(range(1, n + 1), k)
    if workers > 1:
        size = -(-math.comb(n, k) // (workers * 4))
        chunks = iter(lambda: tuple(islice(sets, size)), ())
    else:
        chunks = [sets]
    jobs = [(coloring, ell, mode, chunk, per_set_counts, candidate_cap) for chunk in chunks]
    first_fail = None
    counts = []
    for fail, chunk_counts in parallel_map(_scan_sets, jobs, workers):
        counts.extend(chunk_counts)
        if first_fail is None:
            first_fail = fail  # chunks are ordered, so the first failure is the least witness
    witness, count = first_fail or (None, None)
    return VerificationReport(
        n, coloring.t, k, ell, mode, witness is None, witness, count,
        tuple(counts) if per_set_counts else None)
