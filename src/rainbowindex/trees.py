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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .colorings import BudgetExceededError, CompleteGraphColoring

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
    mat = coloring.matrix
    members = terminals.members
    count = 0
    for u in range(1, coloring.n + 1):
        if u in terminals:
            continue
        row = mat[u]
        seen = 0
        ok = True
        for v in members:
            bit = 1 << row[v]
            if seen & bit:
                ok = False
                break
            seen |= bit
        if ok:
            count += 1
    return count


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


def _rainbow_edge_set(edges: tuple[tuple[int, int], ...], mat) -> bool:
    seen = 0
    for u, v in edges:
        bit = 1 << mat[u][v]
        if seen & bit:
            return False
        seen |= bit
    return True


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


def _internal_candidates(terminals: VertexSet, coloring: CompleteGraphColoring) -> list[STree]:
    mat = coloring.matrix
    out = []
    for edges in _rainbow_trees(terminals.members, (), mat):
        out.append(STree(frozenset(terminals.members), edges, terminals))
    out.sort(key=lambda tr: (len(tr.edges), tr.edges))
    return out


def _star_candidates(terminals: VertexSet, coloring: CompleteGraphColoring) -> list[STree]:
    mat = coloring.matrix
    out = []
    for u in range(1, coloring.n + 1):
        if u in terminals:
            continue
        edges = _normalize_edges((u, v) for v in terminals)
        if _rainbow_edge_set(edges, mat):
            out.append(STree(frozenset(terminals.members) | {u}, edges, terminals))
    return out


def _full_candidate_work(n_external: int, k: int, budget: int) -> int:
    total = 0
    for r in range(0, min(budget, n_external) + 1):
        m = k + r
        total += math.comb(n_external, r) * math.comb(m * (m - 1) // 2, m - 1)
    return total


def _full_candidates(
    terminals: VertexSet,
    coloring: CompleteGraphColoring,
    budget: int,
    candidate_cap: int,
) -> list[STree]:
    k = terminals.k
    n = coloring.n
    externals = [v for v in range(1, n + 1) if v not in terminals]
    work = _full_candidate_work(len(externals), k, budget)
    if work > candidate_cap:
        raise BudgetExceededError(
            f"full oracle would scan {work} candidate edge sets (cap {candidate_cap})",
            size=work,
        )
    mat = coloring.matrix
    terms = frozenset(terminals.members)
    out = []
    for r in range(0, min(budget, len(externals)) + 1):
        for extra in combinations(externals, r):
            vertices = tuple(sorted(terminals.members + extra))
            for edges in _rainbow_trees(vertices, extra, mat):
                out.append(STree(terms | set(extra), edges, terminals))
    out.sort(key=lambda tr: (len(tr.edges), tr.edges))
    return out


# ---------------------------------------------------------------------------
# Maximum packing by branch and bound

def _max_packing(candidates: list[STree], terminals: VertexSet) -> list[int]:
    """Indices of a maximum packing, lexicographically least in candidate order.

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
    terms = frozenset(terminals.members)
    s = terminals.members[0]
    owners: dict = {}
    by_edge: dict = {}
    by_vertex: dict = {}
    keys = []
    for i, tree in enumerate(candidates):
        bit = 1 << i
        external = tuple(tree.vertices - terms)
        own = tree.edges + external
        keys.append(own)
        for key in own:
            owners[key] = owners.get(key, 0) | bit
        first = next(e for e in tree.edges if s in e)
        by_edge[first] = by_edge.get(first, 0) | bit
        least = min(external) if external else first
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
    return list(best)


def internal_tree_packing(terminals: VertexSet, coloring: CompleteGraphColoring) -> DisjointFamily:
    """Maximum set of edge-disjoint rainbow spanning trees inside G[S].

    Vertex sets are exactly S, so the family is internally disjoint; edge
    counting caps its size at floor(k/2).
    """
    _check_terminals(terminals, coloring.n)
    candidates = _internal_candidates(terminals, coloring)
    chosen = _max_packing(candidates, terminals)
    return DisjointFamily(terminals, tuple(candidates[i] for i in chosen), coloring)


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
    if mode.kind == "star":
        candidates = _internal_candidates(terminals, coloring) + _star_candidates(terminals, coloring)
        candidates.sort(key=lambda tr: (len(tr.edges), tr.edges))
    else:
        candidates = _full_candidates(
            terminals, coloring, mode.resolved_budget(terminals.k), candidate_cap)
    chosen = _max_packing(candidates, terminals)
    family = DisjointFamily(terminals, tuple(candidates[i] for i in chosen), coloring)
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


def _star_scan(members: tuple[int, ...], mat, n: int, start: int, stop_at: int) -> int:
    """Add rainbow-star centers to ``start``, stopping early at stop_at."""
    count = start
    member_set = set(members)
    for u in range(1, n + 1):
        if u in member_set:
            continue
        row = mat[u]
        seen = 0
        ok = True
        for v in members:
            bit = 1 << row[v]
            if seen & bit:
                ok = False
                break
            seen |= bit
        if ok:
            count += 1
            if count >= stop_at:
                return count
    return count


def _certificate_count_generic(
    terminals: VertexSet, coloring: CompleteGraphColoring, stop_at: int
) -> int:
    """Internal packing size + rainbow star count, stopping early at stop_at.

    For k = 3 the internal packing size is 1 unless the triangle is
    monochromatic: two distinct internal colors always sit on adjacent
    edges, giving a rainbow 2-edge path, and 3 internal edges cannot hold
    two edge-disjoint spanning trees. Larger k uses the exact packing.
    """
    members = terminals.members
    mat = coloring.matrix
    if terminals.k == 3:
        a, b, c = members
        ra = mat[a]
        internal = 0 if ra[b] == ra[c] == mat[b][c] else 1
    else:
        internal = len(internal_tree_packing(terminals, coloring))
    if internal >= stop_at:
        return internal
    return _star_scan(members, mat, coloring.n, internal, stop_at)


def _scan_sets(
    coloring: CompleteGraphColoring,
    k: int,
    ell: int,
    mode: OracleMode,
    sets: Iterable[tuple[int, ...]],
    collect_counts: bool,
    candidate_cap: int,
    early_exit: bool,
) -> tuple[Optional[tuple[tuple[int, ...], int]], list[tuple[tuple[int, ...], int]]]:
    """Scan terminal sets in order; return first failure and optional counts."""
    first_fail: Optional[tuple[tuple[int, ...], int]] = None
    counts: list[tuple[tuple[int, ...], int]] = []
    want_exact = collect_counts
    for members in sets:
        terminals = VertexSet(members)
        stop = ell if not want_exact else coloring.n + k
        cert = _certificate_count_generic(terminals, coloring, stop)
        if cert >= ell and not want_exact:
            continue
        if mode.kind == "star":
            count = cert
        else:
            count, _ = max_disjoint_rainbow_trees(
                terminals, coloring, mode, candidate_cap=candidate_cap)
        if collect_counts:
            counts.append((members, count))
        if count < ell and first_fail is None:
            first_fail = (members, count)
            if early_exit and not collect_counts:
                break
    return first_fail, counts


def _scan_sets_job(args) -> tuple[Optional[tuple[tuple[int, ...], int]], list[tuple[tuple[int, ...], int]]]:
    coloring, k, ell, mode, chunk, collect_counts, candidate_cap = args
    return _scan_sets(coloring, k, ell, mode, chunk, collect_counts, candidate_cap, early_exit=False)


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
    oracle of ``mode`` decides the rest.
    """
    n = coloring.n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if ell < 0:
        raise ValueError(f"demand ell must be nonnegative, got {ell}")
    if ell == 0:
        return VerificationReport(n, coloring.t, k, ell, mode, True, None, None,
                                  tuple() if per_set_counts else None)
    all_sets = list(combinations(range(1, n + 1), k))
    if workers <= 1:
        first_fail, counts = _scan_sets(
            coloring, k, ell, mode, all_sets, per_set_counts, candidate_cap, early_exit=True)
    else:
        chunk_size = max(1, (len(all_sets) + workers * 4 - 1) // (workers * 4))
        chunks = [all_sets[i:i + chunk_size] for i in range(0, len(all_sets), chunk_size)]
        jobs = [(coloring, k, ell, mode, chunk, per_set_counts, candidate_cap) for chunk in chunks]
        first_fail = None
        counts = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for fail, chunk_counts in pool.map(_scan_sets_job, jobs):
                counts.extend(chunk_counts)
                if fail is not None and first_fail is None:
                    first_fail = fail  # chunks are ordered, so this is the least witness
    if first_fail is None:
        return VerificationReport(
            n, coloring.t, k, ell, mode, True, None, None,
            tuple(counts) if per_set_counts else None)
    witness, count = first_fail
    return VerificationReport(
        n, coloring.t, k, ell, mode, False, witness, count,
        tuple(counts) if per_set_counts else None)
