"""Seeded input generators and the exact facts the checks compare against.

Everything here is computed by the benchmark itself, never by qmcstream: the
generators write the edge lists the program reads, and return the exact m and
W (or the edge lists) that the checks need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Stream sizes keep one round near 3 s, so that a run holds several rounds.
# stream-unit: sparse unit-weight stream, so W (the number of non-isolated
# vertices) is a large share of 2m and |W_hat - W| <= eps*m/4 has teeth.
UNIT_VERTICES = 80_000
UNIT_EDGES = 100_000
# stream-weighted: integer, decimal and p/q weights; the p/q denominators are
# the primes below 512, so the exact m counter grows to a few hundred bits.
WEIGHTED_VERTICES = 8_000
WEIGHTED_EDGES = 16_000
PRIME_DENOMINATORS = [p for p in range(2, 512) if all(p % d for d in range(2, int(p**0.5) + 1))]

# The certify graph set is fixed so that its eigsh references can be stored
# next to the benchmark (certify_reference.json); --seed picks the solvers'
# seeds instead.
CERTIFY_GRAPH_SEED = 2206
CERTIFY_RANDOM_GRAPHS = 8
RELAXED_RANDOM_GRAPHS = 2  # the first two, one unit-weight and one weighted


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


@dataclass(frozen=True)
class StreamFacts:
    """What the checks know about a generated stream."""

    path: Path
    header_path: Path
    edges: int
    m: Fraction
    w: Fraction


def _distinct_pairs(rng: np.random.Generator, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` distinct unordered pairs in random arrival order."""
    u = rng.integers(0, n, size=2 * count)
    v = rng.integers(0, n, size=2 * count)
    keep = u != v
    u, v = u[keep], v[keep]
    key = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
    _, first = np.unique(key, return_index=True)
    first = np.sort(first)[:count]
    if len(first) < count:
        raise RuntimeError("generator drew too few distinct pairs")
    return u[first], v[first]


def _weight_tokens(rng: np.random.Generator, count: int) -> list[str]:
    """A third each of integers, two-place decimals and p/q with prime q."""
    kind = rng.integers(0, 3, size=count)
    ints = rng.integers(1, 10, size=count)
    cents = rng.integers(1, 1000, size=count)
    q = np.array(PRIME_DENOMINATORS)[rng.integers(0, len(PRIME_DENOMINATORS), size=count)]
    p = rng.integers(1, 5 * q)
    out = []
    for i in range(count):
        if kind[i] == 0:
            out.append(str(ints[i]))
        elif kind[i] == 1:
            out.append(f"{cents[i] // 100}.{cents[i] % 100:02d}")
        else:
            out.append(f"{p[i]}/{q[i]}")
    return out


def write_stream(directory: Path, weighted: bool, seed: int) -> StreamFacts:
    """Write the stream and its header-only twin; return its exact m and W."""
    n, count = (WEIGHTED_VERTICES, WEIGHTED_EDGES) if weighted else (UNIT_VERTICES, UNIT_EDGES)
    rng = _rng(seed, 2 if weighted else 1)
    u, v = _distinct_pairs(rng, n, count)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "stream.edges"
    header_path = directory / "header.edges"
    header_path.write_text(f"n {n}\n")
    if weighted:
        tokens = _weight_tokens(rng, count)
        weights = [Fraction(t) for t in tokens]
        lines = [f"{a} {b} {t}" for a, b, t in zip(u.tolist(), v.tolist(), tokens)]
        best: dict[int, Fraction] = {}
        for a, b, w in zip(u.tolist(), v.tolist(), weights):
            for x in (a, b):
                if w > best.get(x, 0):
                    best[x] = w
        m, w_total = sum(weights, Fraction(0)), sum(best.values(), Fraction(0))
    else:
        lines = [f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())]
        m = Fraction(count)
        w_total = Fraction(int(np.count_nonzero(np.bincount(np.concatenate([u, v]), minlength=n))))
    path.write_text(f"n {n}\n" + "\n".join(lines) + "\n")
    return StreamFacts(path, header_path, count, m, w_total)


# ---------------------------------------------------------------------------
# certify: a fixed set of named graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """A certify input: n, edges (u, v, w) and the oracles to run on it."""

    name: str
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    ops: tuple[str, ...]
    family: str

    def text(self) -> str:
        lines = [f"n {self.n}"]
        for u, v, w in self.edges:
            lines.append(f"{u} {v}" if w == 1 else f"{u} {v} {w}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()

    @property
    def m(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))


ALL_ORACLES = ("qmc", "maxcut", "bounds", "constructive", "relax")


def _connected(rng, n: int, extra_p: float, weights) -> list[tuple[int, int, Fraction]]:
    """Random spanning tree plus independent extra edges."""
    pairs: dict[tuple[int, int], Fraction] = {}
    order = rng.permutation(n)

    def weight() -> Fraction:
        return Fraction(weights[int(rng.integers(0, len(weights)))])

    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        pairs[(min(a, b), max(a, b))] = weight()
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in pairs and rng.random() < extra_p:
                pairs[(a, b)] = weight()
    return [(a, b, w) for (a, b), w in sorted(pairs.items())]


def _bipartite(rng, left: int, right: int, p: float, weights) -> list[tuple[int, int, Fraction]]:
    """Random bipartite graph between 0..left-1 and left..left+right-1, connected."""
    n = left + right
    pairs = set()
    for b in range(left, n):  # every right vertex gets a left neighbour
        pairs.add((int(rng.integers(0, left)), b))
    for a in range(1, left):  # every left vertex beyond 0 gets a right neighbour
        pairs.add((a, int(rng.integers(left, n))))
    for a in range(left):
        for b in range(left, n):
            if rng.random() < p:
                pairs.add((a, b))
    return [(a, b, Fraction(weights[int(rng.integers(0, len(weights)))])) for a, b in sorted(pairs)]


def certify_graphs() -> list[Graph]:
    rng = _rng(CERTIFY_GRAPH_SEED, 3)
    graphs = [
        Graph("connected12", 12, tuple(_connected(rng, 12, 0.3, (1,))), ALL_ORACLES, "connected"),
        Graph("complete10", 10, tuple((a, b, Fraction(1)) for a in range(10) for b in range(a + 1, 10)),
              ALL_ORACLES, "complete"),
        Graph("star9", 10, tuple((0, i, Fraction(1)) for i in range(1, 10)), ALL_ORACLES, "star"),
        Graph("bipartite10", 10, tuple(_bipartite(rng, 5, 5, 0.4, (1, 2, 3))), ALL_ORACLES, "bipartite"),
    ]
    for i in range(CERTIFY_RANDOM_GRAPHS):
        n = int(rng.integers(7, 11))
        weighted = i % 2 == 1
        weights = (1, 2, 3, 4, Fraction(1, 2), Fraction(5, 3)) if weighted else (1,)
        family = "random-weighted" if weighted else "random-unit"
        ops = ALL_ORACLES if i < RELAXED_RANDOM_GRAPHS else ALL_ORACLES[:-1]
        graphs.append(Graph(f"random{i:02d}", n, tuple(_connected(rng, n, 0.3, weights)), ops, family))
    graphs.append(Graph("maxcut21", 21, tuple(_connected(rng, 21, 0.15, (1, 2, 3))), ("maxcut",), "connected"))
    graphs.append(Graph("relax30", 30, tuple(_connected(rng, 30, 0.1, (1,))), ("relax",), "connected"))
    return graphs


def write_graphs(directory: Path, graphs: list[Graph]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for g in graphs:
        (directory / f"{g.name}.edges").write_text(g.text())
