"""Weighted graphs as ordered edge sequences, and structural decompositions.

A graph's edges keep the order they were given in, so one object serves as
the graph and as the edge stream the one-pass estimator reads. Weights are
exact rationals throughout this module; floating point enters only in the
numerical modules that consume graphs. Two decompositions are provided:
the heaviest-incident-edge matching/forest split, and a DFS forest from
which components, depth levels with their star partition, and bipartiteness
with its witness are all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

MAX_DENOMINATOR = 10**9  # largest accepted weight denominator


class GraphParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


class InfeasibleSizeError(ValueError):
    """An exact computation was requested beyond its size limits."""


def _as_weight(value) -> Fraction:
    w = Fraction(value)
    if w <= 0:
        raise ValueError(f"{'negative' if w < 0 else 'zero'} weight {value}")
    return w


@dataclass(frozen=True)
class WeightedEdge:
    """An edge between two distinct vertices with a positive rational weight."""

    u: int
    v: int
    w: Fraction = Fraction(1)

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop at vertex {self.u}")
        object.__setattr__(self, "w", _as_weight(self.w))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class WeightedGraph:
    """Simple weighted graph over vertices 0..n-1 with symmetric adjacency lists.

    ``edges`` keeps the order the edges were given in, which is their
    arrival order as a stream. That order is meaningful: the streaming
    estimator's per-sample value depends on which incident edges arrive
    after the sampled edge.
    """

    def __init__(self, n: int, edges: Iterable[WeightedEdge]):
        self.n = n
        self.edges: tuple[WeightedEdge, ...] = tuple(edges)
        self.adjacency: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        seen = set()
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"vertex out of range in edge {e.u}-{e.v} (n={n})")
            if e.pair in seen:
                raise ValueError(f"duplicate edge {e.pair[0]}-{e.pair[1]}")
            seen.add(e.pair)
            self.adjacency[e.u].append((e.v, e.w))
            self.adjacency[e.v].append((e.u, e.w))

    @classmethod
    def from_stream(cls, g: "WeightedGraph") -> "WeightedGraph":
        """A copy of g: the same n and the same edges in the same order.

        Nothing in the package needs it; the benchmark's worker and tracer
        name it.
        """
        return cls(g.n, g.edges)

    @property
    def m_edges(self) -> int:
        return len(self.edges)

    def is_unit_weighted(self) -> bool:
        return all(e.w == 1 for e in self.edges)

    def non_isolated(self) -> list[int]:
        return [u for u in range(self.n) if self.adjacency[u]]

    def components(self) -> list[list[int]]:
        """Connected components of the non-isolated vertices, each sorted,
        in order of their lowest vertex."""
        comps: list[list[int]] = []
        for v, parent in _graph_forest(self):
            if parent is None:
                comps.append([])
            comps[-1].append(v)
        return [sorted(comp) for comp in comps]

    def induced_subgraph(self, vertices: Sequence[int]) -> "WeightedGraph":
        """Subgraph on the given vertices, relabelled 0..len(vertices)-1."""
        index = {u: i for i, u in enumerate(vertices)}
        edges = [
            WeightedEdge(index[e.u], index[e.v], e.w)
            for e in self.edges
            if e.u in index and e.v in index
        ]
        return WeightedGraph(len(vertices), edges)


def total_weight(g: WeightedGraph) -> Fraction:
    """m: the sum of all edge weights (0 for the empty graph)."""
    return sum((e.w for e in g.edges), Fraction(0))


def max_incident_sum(g: WeightedGraph) -> Fraction:
    """W: the sum over vertices of the maximum incident edge weight.

    Isolated vertices contribute nothing, so on unit-weight graphs W is the
    number of non-isolated vertices.
    """
    out = Fraction(0)
    for u in range(g.n):
        if g.adjacency[u]:
            out += max(w for _, w in g.adjacency[u])
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def read_edge_list(lines: Iterable[str]) -> tuple[int, Iterator[tuple[int, WeightedEdge]]]:
    """Read the line-oriented edge list format in one forward pass.

    Format: a header line ``n <count>``, then one edge per line as
    ``u v [w]`` with the weight defaulting to 1. Weights may be integers,
    ``p/q`` rationals, or decimals; denominators above ``MAX_DENOMINATOR``
    are rejected. Blank lines and ``#`` comments are skipped.

    The header is read and checked now; the returned iterator parses the
    edges one line at a time as it is advanced, yielding ``(lineno, edge)``.
    Every rejection raises GraphParseError naming its line. Duplicate pairs
    are not checked here, so the reader itself keeps constant memory.
    """
    content = content_lines(lines)
    header = next(content, None)
    if header is None:
        raise GraphParseError("line 1: missing header 'n <count>'")
    lineno, parts = header
    if len(parts) != 2 or parts[0] != "n":
        raise GraphParseError(f"line {lineno}: expected header 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {lineno}: vertex count must be an integer")
    if n < 0:
        raise GraphParseError(f"line {lineno}: vertex count must be nonnegative")
    if n > (1 << 63) - 1:
        raise GraphParseError(f"line {lineno}: vertex count exceeds 2^63 - 1")
    edges = ((i, parse_edge_line(p, i, n)) for i, p in content)
    return n, edges


def content_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) of non-blank, non-comment lines,
    numbering the first line ``start``."""
    for lineno, raw in enumerate(lines, start=start):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse a whole edge list (see read_edge_list) into a WeightedGraph
    with the edges in line order, rejecting a repeated vertex pair with the
    line it appears on.

    Lines end only at newline characters, as in a text stream, so the
    streaming reader splits text read from the same handle alike.
    """
    n, numbered = read_edge_list(text.split("\n"))
    edges: list[WeightedEdge] = []
    pairs = set()
    for lineno, edge in numbered:
        if edge.pair in pairs:
            raise GraphParseError(
                f"line {lineno}: duplicate edge {edge.pair[0]}-{edge.pair[1]}"
            )
        pairs.add(edge.pair)
        edges.append(edge)
    return WeightedGraph(n, edges)


def parse_edge_line(parts: Sequence[str], lineno: int, n: int) -> WeightedEdge:
    """Parse one whitespace-split edge line; raises GraphParseError."""
    if len(parts) not in (2, 3):
        raise GraphParseError(f"line {lineno}: expected 'u v [w]'")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {lineno}: vertex ids must be integers")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
    w = Fraction(1)
    if len(parts) == 3:
        try:
            w = Fraction(parts[2])
        except (ValueError, ZeroDivisionError):
            raise GraphParseError(f"line {lineno}: bad weight {parts[2]!r}")
        if w.denominator > MAX_DENOMINATOR:
            raise GraphParseError(
                f"line {lineno}: weight denominator exceeds {MAX_DENOMINATOR}"
            )
    try:
        return WeightedEdge(u, v, w)
    except ValueError as exc:  # self-loop or nonpositive weight
        raise GraphParseError(f"line {lineno}: {exc}")


# ---------------------------------------------------------------------------
# Heaviest-incident-edge decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeaviestEdgeDecomposition:
    """Per-vertex heaviest edges, split by how many endpoints chose them.

    ``matching`` holds edges chosen by both endpoints, ``forest`` edges
    chosen by exactly one. Their union is acyclic and
    2 * matching_weight + forest_weight equals W exactly.
    """

    matching: tuple[WeightedEdge, ...]
    forest: tuple[WeightedEdge, ...]
    matching_weight: Fraction
    forest_weight: Fraction


def heaviest_edge_decomposition(g: WeightedGraph) -> HeaviestEdgeDecomposition:
    # Consistent total order: heavier first, then lexicographically smaller
    # (min endpoint, max endpoint) pair. Every vertex picks its best edge
    # under this order, which is the consistent tiebreak the forest argument
    # needs.
    def better(e1: WeightedEdge, e2: WeightedEdge) -> bool:
        if e1.w != e2.w:
            return e1.w > e2.w
        return e1.pair < e2.pair

    chosen: list[Optional[WeightedEdge]] = [None] * g.n
    by_pair: dict[tuple[int, int], WeightedEdge] = {e.pair: e for e in g.edges}
    for e in g.edges:
        for end in (e.u, e.v):
            if chosen[end] is None or better(e, chosen[end]):
                chosen[end] = e
    counts: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        e = chosen[u]
        if e is not None:
            counts[e.pair] = counts.get(e.pair, 0) + 1
    matching = tuple(by_pair[p] for p in sorted(counts) if counts[p] == 2)
    forest = tuple(by_pair[p] for p in sorted(counts) if counts[p] == 1)
    return HeaviestEdgeDecomposition(
        matching,
        forest,
        sum((e.w for e in matching), Fraction(0)),
        sum((e.w for e in forest), Fraction(0)),
    )


# ---------------------------------------------------------------------------
# DFS forest and what is read from it
# ---------------------------------------------------------------------------


def dfs_forest(neighbors: Sequence[Sequence[int]]) -> list[tuple[int, Optional[int]]]:
    """Depth-first spanning forest as (vertex, parent) pairs in discovery order.

    Each component is rooted at its lowest vertex (parent None), a vertex's
    children are visited in the order its neighbour list gives, and vertices
    without neighbours are left out. As in every undirected DFS forest, each
    edge outside the forest joins a vertex to one of its ancestors.
    """
    seen = [False] * len(neighbors)
    order: list[tuple[int, Optional[int]]] = []
    for root in range(len(neighbors)):
        if seen[root] or not neighbors[root]:
            continue
        seen[root] = True
        order.append((root, None))
        stack = [(root, iter(neighbors[root]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if not seen[v]:
                    seen[v] = True
                    order.append((v, u))
                    stack.append((v, iter(neighbors[v])))
                    break
            else:
                stack.pop()
    return order


def _graph_forest(g: WeightedGraph) -> list[tuple[int, Optional[int]]]:
    """dfs_forest of g with neighbours visited in ascending vertex id."""
    return dfs_forest([sorted([v for v, _ in adj]) for adj in g.adjacency])


@dataclass(frozen=True)
class DfsDecomposition:
    """Spanning DFS forest with its per-level star partition.

    The tree edge of a non-root v is (parent[v], v), at level depth[parent[v]].
    Level k is a disjoint union of stars centred on the depth-k vertices
    with their depth-(k+1) children as leaves, and no non-tree edge joins
    two vertices of the same level's stars.
    """

    parent: tuple[Optional[int], ...]
    depth: tuple[int, ...]
    component: tuple[int, ...]  # -1 for isolated vertices
    roots: tuple[int, ...]
    non_tree_edges: tuple[tuple[int, int], ...]
    stars: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]


def dfs_decomposition(g: WeightedGraph) -> DfsDecomposition:
    """The DFS forest of g (see dfs_forest) with ascending child order, so
    it and everything derived from it are deterministic.

    Level k's stars are the depth-k parents, ascending, each with its
    children ascending. Every non-tree edge joins an ancestor to a
    descendant at least two levels down, which is why no non-tree edge
    joins two vertices of one level's stars.
    """
    parent: list[Optional[int]] = [None] * g.n
    depth = [-1] * g.n
    component = [-1] * g.n
    roots: list[int] = []
    levels: list[dict[int, list[int]]] = []  # levels[k]: depth-k centre -> its children
    for v, p in _graph_forest(g):
        if p is None:
            roots.append(v)
            depth[v], component[v] = 0, len(roots) - 1
            continue
        parent[v], depth[v], component[v] = p, depth[p] + 1, component[p]
        if depth[p] == len(levels):
            levels.append({})
        levels[depth[p]].setdefault(p, []).append(v)

    non_tree = tuple(e.pair for e in g.edges if parent[e.u] != e.v and parent[e.v] != e.u)
    stars = tuple(
        tuple((center, tuple(sorted(leaves))) for center, leaves in sorted(level.items()))
        for level in levels
    )
    return DfsDecomposition(tuple(parent), tuple(depth), tuple(component), tuple(roots), non_tree, stars)


@dataclass(frozen=True)
class BipartiteWitness:
    bipartite: bool
    coloring: Optional[tuple[int, ...]] = None
    odd_cycle: Optional[tuple[int, ...]] = None


def is_bipartite(g: WeightedGraph) -> BipartiteWitness:
    """2-colorability with a verifiable witness either way.

    A vertex's colour is the parity of its depth in dfs_decomposition's
    forest (0 for isolated vertices). Tree edges join opposite colours, so
    an edge whose ends share a colour is a back edge spanning an even
    number of levels: the tree path from its deeper end up to the other end
    closes an odd cycle. Otherwise the colouring is proper, and it is the
    unique one that gives each component's lowest vertex colour 0.
    """
    dec = dfs_decomposition(g)
    color = tuple(max(d, 0) % 2 for d in dec.depth)
    clash = next(((u, v) for u, v in dec.non_tree_edges if color[u] == color[v]), None)
    if clash is None:
        return BipartiteWitness(True, color, None)
    top, bottom = sorted(clash, key=dec.depth.__getitem__)
    cycle = [bottom]
    while cycle[-1] != top:
        cycle.append(dec.parent[cycle[-1]])
    return BipartiteWitness(False, None, tuple(cycle))
