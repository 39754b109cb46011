"""Shared builders for the test suite: random graphs, exhaustive enumeration,
dense Hamiltonians built independently of the package's operators, and the
tests-only reference checks (cut values, DFS level separation, the vector
program objective, a constant streaming algorithm), the bank's W estimate
and the estimator's report of a whole stream, and the bank's flush as it
was before the per-chunk index, the reference its flush must match
bitwise."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from qmcstream.estimator import EstimatorBank, QmcEstimateAlgorithm
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


def qmc_report(stream, epsilon, delta, seed=0):
    """The QmcEstimate of a fresh QmcEstimateAlgorithm fed the whole stream."""
    estimator = QmcEstimateAlgorithm(epsilon, delta, seed)
    for e in stream:
        estimator.update(e)
    return estimator.report()


class ReferenceFlushBank(EstimatorBank):
    """An EstimatorBank whose flush queries every reservoir.

    Each flush places all K*B draws with searchsorted, and looks up every
    reservoir's endpoint in the chunk's (vertex, position) keys. It draws
    what the bank's flush draws, in the same order, so two banks seeded
    alike hold bitwise-equal state after every flush. Its keys are
    vertex * (c + 1) + position in int64, so ids at or above 2^63 / (c + 1)
    can wrap onto another vertex's keys; compare against it only on ids
    where they cannot.
    """

    def flush(self) -> None:
        c = self._fill
        if c == 0:
            return
        eu, ev, ew = self._buf_u[:c], self._buf_v[:c], self._buf_w[:c]
        self._fill = 0

        chunk_cum = np.cumsum(ew)
        w_end = self._weight_seen + chunk_cum[-1]
        self._weight_seen = float(w_end)
        # P(last replacement in chunk = i) = p_i * prod_{j>i} (1 - p_j), with
        # p_j = w_j / W_j and W_j the total weight through edge j, telescopes
        # to w_i / W_end: one weighted draw picks it, and cat == c (the prior
        # weight's share) is "no replacement". With no prior weight the last
        # bin edge is x / x = 1 exactly, so U < 1 always replaces.
        cat = np.searchsorted(chunk_cum / w_end, self._rng.random(self.size), side="right")

        # A replaced reservoir restarts from its new candidate at position
        # cat; a kept one sees the whole chunk (position -1).
        replaced = cat < c
        ridx = cat[replaced]
        pick_v = self._rng.integers(0, 2, size=len(ridx))
        self._cand_v[replaced] = np.where(pick_v == 0, eu[ridx], ev[ridx])
        self._cand_w[replaced] = ew[ridx]
        self._best_after[replaced] = 0.0

        ba = _incident_max_after(eu, ev, ew, self._cand_v, np.where(replaced, cat, -1))
        np.maximum(self._best_after, ba, out=self._best_after)


def _incident_max_after(eu, ev, ew, vert, after):
    """Max chunk weight at vert[i] strictly after position after[i] (0 if none).

    Incidence rows are sorted by (vertex, position), and each row holds the
    maximum over its vertex's rows from there on: a reverse running maximum
    of weight ranks, each vertex's run lifted above every later run by an
    integer offset so that no run leaks into the one before it. A query
    lands on the first row of its vertex past `after`; after = -1 lands on
    the run's first row, the whole-chunk maximum.
    """
    c = len(ew)
    verts = np.stack([eu, ev], axis=1).ravel()
    key = verts * np.int64(c + 1) + np.repeat(np.arange(c), 2)
    order = np.argsort(key)
    key, sv = key[order], verts[order]
    levels, rank = np.unique(ew, return_inverse=True)
    run = np.cumsum(np.concatenate([[0], sv[1:] != sv[:-1]]))
    lift = (run[-1] - run) * len(levels)
    running = np.maximum.accumulate((np.repeat(rank, 2)[order] + lift)[::-1])[::-1]
    suffix_max = levels[running - lift]

    j = np.searchsorted(key, vert * np.int64(c + 1) + after, side="right")
    hit = j < len(sv)
    j[~hit] = 0
    hit &= sv[j] == vert
    return np.where(hit, suffix_max[j], 0.0)
