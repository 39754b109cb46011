"""Shared builders for the test suite: random graphs, exhaustive enumeration,
dense Hamiltonians built independently of the package's operators, and the
tests-only reference checks (cut values, DFS level separation, the vector
program objective, a constant streaming algorithm), and the bank's W
estimate of a whole stream."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from qmcstream.estimator import EstimatorBank
from qmcstream.graph import WeightedEdge, WeightedGraph
from qmcstream.rng import substream

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def random_graph(rng, n, p=0.4, weights=(1,)):
    """Erdos-Renyi style graph; weights drawn uniformly from `weights`."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = Fraction(weights[int(rng.integers(0, len(weights)))])
                edges.append(WeightedEdge(u, v, w))
    return WeightedGraph(n, edges)


def random_connected_graph(rng, n, extra_p=0.3, weights=(1,)):
    """Random spanning tree plus extra edges; always connected."""
    edges = {}
    order = list(rng.permutation(n))
    for i in range(1, n):
        u = order[i]
        v = order[int(rng.integers(0, i))]
        pair = (min(u, v), max(u, v))
        edges[pair] = Fraction(weights[int(rng.integers(0, len(weights)))])
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges[(u, v)] = Fraction(weights[int(rng.integers(0, len(weights)))])
    return WeightedGraph(n, [WeightedEdge(u, v, w) for (u, v), w in sorted(edges.items())])


def random_stream(rng, n, max_edges, weights=(1,)):
    """A graph of 1..max_edges distinct random pairs, its edges in random order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    k = int(rng.integers(1, min(max_edges, len(pairs)) + 1))
    edges = tuple(
        WeightedEdge(u, v, Fraction(weights[int(rng.integers(0, len(weights)))]))
        for u, v in pairs[:k]
    )
    return WeightedGraph(n, edges)


def _mask_connected(mask, pairs, n):
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_graphs_iso_free(n):
    """One representative per isomorphism class of connected graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    maps = np.array(
        [
            [pair_index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
            for perm in itertools.permutations(range(n))
        ]
    )
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.int64)
    pow2 = (np.int64(1) << np.arange(m)).astype(np.int64)
    canon = masks.copy()
    for pm in maps:
        canon = np.minimum(canon, bits[:, pm] @ pow2)
    out = []
    for mask in masks[canon == masks]:
        mask = int(mask)
        if mask and _mask_connected(mask, pairs, n):
            edges = [WeightedEdge(u, v) for i, (u, v) in enumerate(pairs) if (mask >> i) & 1]
            out.append(WeightedGraph(n, edges))
    return out


def max_cut_enumerated(g: WeightedGraph) -> tuple[Fraction, tuple[int, ...]]:
    """(value, sides) of an optimal cut by enumerating every assignment.

    Each component of k vertices runs through all 2^(k-1) masks with its
    lowest vertex on side 0, vertex i of the component at bit k-1-i, so the
    first maximal mask is the lexicographically smallest optimal side string.
    Deliberately independent of the package's 2-core reduction.
    """
    sides = [0] * g.n
    value = Fraction(0)
    for comp in g.components():
        k = len(comp)
        bit = {u: k - 1 - i for i, u in enumerate(comp)}
        edges = [e for e in g.edges if e.u in bit]
        lcm = math.lcm(*(e.w.denominator for e in edges))
        masks = np.arange(1 << (k - 1), dtype=np.int64)
        cuts = np.zeros(len(masks), dtype=np.int64)
        for e in edges:
            cuts += int(e.w * lcm) * (((masks >> bit[e.u]) ^ (masks >> bit[e.v])) & 1)
        best = int(np.argmax(cuts))
        for u in comp:
            sides[u] = (best >> bit[u]) & 1
        value += Fraction(int(cuts[best]), lcm)
    return value, tuple(sides)


def cut_value(g: WeightedGraph, sides) -> Fraction:
    """Total weight of the edges whose endpoints lie on different sides."""
    return sum((e.w for e in g.edges if sides[e.u] != sides[e.v]), Fraction(0))


def tree_levels(dec) -> list[list[tuple[int, int]]]:
    """Tree edges (parent[v], v) of a DfsDecomposition, grouped by level
    depth[parent[v]], children ascending within a level."""
    levels = [[] for _ in range(max(dec.depth, default=0))]
    for v, p in enumerate(dec.parent):
        if p is not None:
            levels[dec.depth[p]].append((p, v))
    return levels


def level_separation_violations(dec) -> list[tuple[int, tuple[int, int]]]:
    """Non-tree edges of a DfsDecomposition whose endpoints both touch the
    same level's stars (dfs_decomposition promises there are none)."""
    out = []
    for k, level in enumerate(tree_levels(dec)):
        touched = {v for edge in level for v in edge}
        out.extend((k, (u, v)) for u, v in dec.non_tree_edges if u in touched and v in touched)
    return out


def sdp_objective(g: WeightedGraph, assignment) -> float:
    """sum_e w_e * (-<f(u), f(v)>) over unit rows; 2*cut - m on a cut assignment."""
    a = np.asarray(assignment, dtype=float)
    if a.shape[0] != g.n:
        raise ValueError(f"assignment has {a.shape[0]} rows, graph has {g.n} vertices")
    if a.shape[0] and np.max(np.abs(np.linalg.norm(a, axis=1) - 1)) > 1e-10:
        raise ValueError("assignment rows must be unit vectors")
    return float(sum(-float(e.w) * np.dot(a[e.u], a[e.v]) for e in g.edges))


class ConstantAlgorithm:
    """A streaming algorithm that ignores its stream and reports a fixed value."""

    def __init__(self, value: float):
        self.value = value

    def update(self, e: WeightedEdge) -> None:
        pass

    def result(self) -> float:
        return self.value

    def word_count(self) -> int:
        return 1


def dense_qmc_hamiltonian(g: WeightedGraph) -> np.ndarray:
    """Q = sum_e w_e (I - XX - YY - ZZ)/4 built by explicit Kronecker products.

    Deliberately independent of the package's matrix-free operator: qubit i of
    the oracle convention is bit i of the index, so qubit 0 is the LAST
    Kronecker factor.
    """
    verts = g.non_isolated()
    qubit = {u: i for i, u in enumerate(verts)}
    q = len(verts)
    dim = 1 << q
    h = np.zeros((dim, dim), dtype=complex)
    for e in g.edges:
        for term, sign in (("I", 1), ("X", -1), ("Y", -1), ("Z", -1)):
            factors = ["I"] * q
            if term != "I":
                factors[qubit[e.u]] = term
                factors[qubit[e.v]] = term
            acc = np.eye(1, dtype=complex)
            for f in reversed(range(q)):
                acc = np.kron(acc, PAULI[factors[f]])
            h += sign * float(e.w) / 4 * acc
    return h


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def fresh_rng(*path):
    return substream(0xC0FFEE, *path)


def bank_w_hat(stream, epsilon, delta, seed=0):
    """W_hat of a fresh EstimatorBank fed the whole stream."""
    bank = EstimatorBank(epsilon, delta, seed)
    bank.process_stream(stream)
    return bank.w_estimate()
