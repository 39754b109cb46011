"""Weighted graphs as ordered edge sequences, the edge-list reader, and
structural decompositions.

A graph's edges keep the order they were given in, so one object serves as
the graph and as the edge stream the one-pass estimator reads. Weights are
exact rationals throughout this module; floating point enters only in the
numerical modules that consume graphs. Two decompositions are provided:
the heaviest-incident-edge matching/forest split, and a DFS forest from
which components, depth levels with their star partition, and bipartiteness
with its witness are all read.

The edge-list format, which every command reads through read_edge_list: a
header ``n <count>`` with 0 <= count <= 2^63 - 1, then one edge ``u v [w]``
per line with ids below the count and a positive weight (default 1) written
as an integer, ``p/q`` or a decimal, of denominator at most MAX_DENOMINATOR.
Blank lines and ``#`` comments are skipped, and only a newline ends a line.
Each rejection is a GraphParseError naming its line; parse_edge_list reports
a malformed line anywhere before a repeated pair.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

MAX_DENOMINATOR = 10**9  # largest accepted weight denominator
MAX_VERTICES = 1 << 20  # largest vertex count a WeightedGraph allocates lists for
READ_BLOCK = 1024  # lines per block of the edge-list reader

# Any character outside the integer fast path's alphabet.
_NOT_INTEGER_TEXT = re.compile(r"[^0-9 \n]")


class GraphParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


class InfeasibleSizeError(ValueError):
    """An exact computation was requested beyond its size limits."""


class DuplicateEdgeError(ValueError):
    """A vertex pair given twice; ``index`` is the position of the repeat."""

    def __init__(self, pair: tuple[int, int], index: int):
        super().__init__(f"duplicate edge {pair[0]}-{pair[1]}")
        self.index = index


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
        if n > MAX_VERTICES:
            raise InfeasibleSizeError(f"{n} vertices exceed the graph cap {MAX_VERTICES}")
        self.n = n
        self.edges: tuple[WeightedEdge, ...] = tuple(edges)
        self.adjacency: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        seen = set()
        for i, e in enumerate(self.edges):
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"vertex out of range in edge {e.u}-{e.v} (n={n})")
            if e.pair in seen:
                raise DuplicateEdgeError(e.pair, i)
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


def read_edge_list(lines: Iterable[str]) -> tuple[int, Iterator[tuple]]:
    """The header's vertex count, read now, and the edge blocks, read lazily.

    A block holds up to READ_BLOCK lines as ``(u, v, w)``: int64 endpoint
    columns and the exact weights. numpy parses a block of integer lines in
    one call (an int64 weight column); any other block goes line by line
    through parse_edge_line (an object column of ints and Fractions), with
    the same outcome.
    """
    lines = iter(lines)
    # Enumerating stops at the header, so exactly its line number of lines are read.
    header = next(content_lines(lines), None)
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
    return n, _edge_blocks(lines, n, lineno)


def _edge_blocks(lines: Iterator[str], n: int, read: int) -> Iterator[tuple]:
    """read_edge_list's blocks, when ``read`` lines precede the first."""
    while block := list(itertools.islice(lines, READ_BLOCK)):
        first, read = read + 1, read + len(block)
        yield _integer_block("".join(block), n) or _parsed_block(block, first, n)


def _integer_block(text: str, n: int) -> Optional[tuple]:
    """The columns of a block of integer edge lines, or None to parse it by line.

    numpy reads only text that parse_edge_line would read alike (ASCII
    digits split by spaces), and a block is kept only if each row has 2 or
    3 fields, ids below n, no self-loop and a positive weight: anything
    parse_edge_line would reject or numpy cannot hold in int64 is None.
    """
    import numpy as np

    if not text.strip() or _NOT_INTEGER_TEXT.search(text):
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if rows.shape[1] not in (2, 3):
        return None
    u, v = rows[:, 0], rows[:, 1]
    w = rows[:, 2] if rows.shape[1] == 3 else np.ones(len(rows), dtype=np.int64)
    if not ((u < n).all() and (v < n).all() and (u != v).all() and (w > 0).all()):
        return None
    return u, v, w


def _parsed_block(block: list[str], first: int, n: int) -> tuple:
    """The columns of a block parsed line by line; line ``first`` opens it.

    Integer weights are kept as ints, so a block's sum stays an int while
    every weight is one, as the integer path's sum does.
    """
    import numpy as np

    u, v = np.empty((2, len(block)), dtype=np.int64)
    w = np.empty(len(block), dtype=object)
    k = 0
    for lineno, parts in content_lines(block, first):
        e = parse_edge_line(parts, lineno, n)
        u[k], v[k], w[k] = e.u, e.v, e.w.numerator if e.w.denominator == 1 else e.w
        k += 1
    return u[:k], v[:k], w[:k]


def iter_stream_edges(lines: Iterable[str]) -> Iterator[tuple]:
    """read_edge_list's edge blocks alone, for `qmcstream estimate`."""
    yield from read_edge_list(lines)[1]


def content_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) of non-blank, non-comment lines,
    numbering the first line ``start``."""
    for lineno, raw in enumerate(lines, start=start):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def parse_edge_list(text: str) -> WeightedGraph:
    """A whole edge list as a WeightedGraph with the edges in line order.

    Every block is read before the graph is built, so a malformed line
    anywhere is reported before a repeated pair, which the graph rejects
    and which is then mapped back to its line.
    """
    n, blocks = read_edge_list(io.StringIO(text))
    edges = [WeightedEdge(*e) for u, v, w in blocks for e in zip(u.tolist(), v.tolist(), w.tolist())]
    try:
        return WeightedGraph(n, edges)
    except DuplicateEdgeError as exc:
        # Each content line after the header is one edge, in order.
        lineno, _ = next(itertools.islice(content_lines(io.StringIO(text)), exc.index + 1, None))
        raise GraphParseError(f"line {lineno}: {exc}")


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
