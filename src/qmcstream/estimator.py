"""One-pass reservoir estimation of W = sum of max incident weights.

A single reservoir samples an edge with probability proportional to its
weight, picks a uniform endpoint, and scores X = 1 if no heavier-or-equal
incident edge arrives later (with the partial credit 1 - w'/w_e when later
incident edges stay at or below the sampled weight). E[X] = W / 2m exactly,
so 2m * X estimates W unbiasedly; averaging B reservoirs per group and
taking the median over K groups gives the (epsilon, delta) guarantee.

A stream is any iterable of WeightedEdge in arrival order, such as the
ordered ``edges`` of a WeightedGraph, or a sequence of blocks of columns
(int64 endpoints and exact weights), as `qmcstream estimate` reads an edge
list. Either way the bank rounds the weights to float64 and sums them into m.

The bank vectorizes all K*B reservoirs and consumes the stream in chunks of
C edges. process_edge and process_block fill the same preallocated
three-column buffer, which is flushed whenever it holds exactly C edges, so
the chunk boundaries, and every draw, depend on the edge order alone, not
on how the stream was split into blocks. One categorical draw per reservoir
per chunk picks where its last replacement in the chunk fell, if anywhere,
which reproduces the per-edge process exactly in distribution for every C.
One stable sort of the chunk's 2C incidences indexes it: for each
incidence, the heaviest later chunk edge at its vertex, and for each
distinct vertex, its heaviest chunk edge. A replaced reservoir's state is
read off the incidence it drew (its new candidate and endpoint); a kept
reservoir's best_after is raised by the chunk's maximum at its endpoint,
looked up only when a table of the chunk's vertex ids modulo 2^k
(2^k >= 32*C) says the endpoint may be in the chunk. Each reservoir keeps
three words (sampled endpoint, candidate weight, best_after): best_after is
the running maximum since the last replacement, so a heavier later edge
shows as best_after > candidate weight and scores 0. Storage stays constant
no matter how long the stream is. The exact total weight m is a Python int
while every weight is an integer, and a Fraction from the first rational
weight on, whose denominator can grow (README).

C is sized apart from the reader's block (graph.READ_BLOCK, 1024 lines).
A flush costs a few linear passes over the K*B reservoirs (the draw, one
compare against the chunk's last bin, the table probe), O(C log C) to
index the chunk, and binary searches only for the replaced reservoirs and
the kept ones the table selects. The linear passes are fixed in K*B, so C
sets how far they are amortised. The law of the samples does not depend
on C, and the buffer costs 3*C words, so C = 8192 flushes once per eight
reader blocks for 3*C = 24,576 words (8% of the state of
`qmcstream estimate --eps 0.5 --delta 0.2`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .graph import InfeasibleSizeError, WeightedEdge
from .rng import substream

EXPECTATION_ORACLE_CAP = 16
DEFAULT_CHUNK = 8192
MAX_BANK_WORDS = 1 << 27  # largest bank allocated: 1 GiB of 8-byte words


def amplification_plan(epsilon: float, delta: float) -> tuple[int, int]:
    """(groups K, reservoirs-per-group B) for the requested guarantee.

    B = ceil(36/eps^2) drives each group's variance to (eps*m/3)^2 or less,
    so Chebyshev bounds the per-group failure by 1/3; the odd group count
    K = 2*ceil(12*ln(1/delta)) + 1 lets a Chernoff bound push the median's
    failure probability below delta.
    """
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    b = math.ceil(36.0 / (epsilon * epsilon))
    k = 2 * math.ceil(12.0 * math.log(1.0 / delta)) + 1
    return k, b


# ---------------------------------------------------------------------------
# Reference single-reservoir implementation
# ---------------------------------------------------------------------------


@dataclass
class ReservoirState:
    """Per-edge reference reservoir; the bank below must match it in law."""

    weight_seen: Fraction = field(default_factory=lambda: Fraction(0))
    candidate: Optional[WeightedEdge] = None
    endpoint: Optional[int] = None
    best_after: Fraction = field(default_factory=lambda: Fraction(0))
    superseded: bool = False

    def process_edge(self, e: WeightedEdge, rng: np.random.Generator) -> None:
        if e.w <= 0:
            raise ValueError("stream edges must have positive weight")
        self.weight_seen += e.w
        if rng.random() < float(e.w / self.weight_seen):
            self.candidate = e
            self.endpoint = e.u if rng.random() < 0.5 else e.v
            self.best_after = Fraction(0)
            self.superseded = False
        elif self.candidate is not None and self.endpoint in (e.u, e.v):
            if e.w > self.best_after:
                self.best_after = e.w
            if e.w > self.candidate.w:
                self.superseded = True

    def word_count(self) -> int:
        # weight accumulator, candidate (u, v, w), endpoint, best_after,
        # superseded flag: constant regardless of stream length.
        return 7


def finalize_sample(r: ReservoirState) -> Fraction:
    """X in [0, 1] for a finished stream; an empty stream scores 0."""
    if r.candidate is None:
        return Fraction(0)
    if r.superseded:
        return Fraction(0)
    if r.best_after == 0:
        return Fraction(1)
    return 1 - r.best_after / r.candidate.w


def expectation_oracle(stream: Iterable[WeightedEdge]) -> Fraction:
    """Exact E[X] by enumerating every (edge, endpoint) sample outcome.

    Given the sampled edge and endpoint, X is a deterministic function of
    the later stream, so the full expectation is a weighted sum over the
    2 * |stream| outcomes, in rational arithmetic. Equals W / 2m.
    """
    edges = list(stream)
    if len(edges) > EXPECTATION_ORACLE_CAP:
        raise ValueError(f"expectation oracle capped at {EXPECTATION_ORACLE_CAP} edges")
    if not edges:
        return Fraction(0)
    m = sum((e.w for e in edges), Fraction(0))
    total = Fraction(0)
    for i, e in enumerate(edges):
        for v in (e.u, e.v):
            later = [f.w for f in edges[i + 1 :] if v in (f.u, f.v)]
            if not later:
                x = Fraction(1)
            else:
                w_after = max(later)
                x = Fraction(0) if w_after > e.w else 1 - w_after / e.w
            total += e.w * x
    return total / (2 * m)


# ---------------------------------------------------------------------------
# Vectorized estimator bank
# ---------------------------------------------------------------------------


class EstimatorBank:
    """K groups of B reservoirs plus the exact total-weight counter."""

    def __init__(self, epsilon: float, delta: float, seed: int = 0):
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.groups, self.per_group = amplification_plan(epsilon, delta)
        size = self.groups * self.per_group
        words = _words(size, DEFAULT_CHUNK)
        if words > MAX_BANK_WORDS:
            raise InfeasibleSizeError(f"{words} words of estimator state exceed the bank cap {MAX_BANK_WORDS}")
        self._rng = substream(seed, 0xE57)
        self._cand_v = np.zeros(size, dtype=np.int64)
        self._cand_w = np.zeros(size)
        self._best_after = np.zeros(size)
        self._weight_seen = 0.0
        self.m_exact: int | Fraction = 0
        self.edges_seen = 0
        self.unit_weights = True
        # The chunk buffer: C edges as three columns, the first _fill pending.
        self._buf_u = np.zeros(DEFAULT_CHUNK, dtype=np.int64)
        self._buf_v = np.zeros(DEFAULT_CHUNK, dtype=np.int64)
        self._buf_w = np.zeros(DEFAULT_CHUNK)
        self._fill = 0

    @property
    def size(self) -> int:
        return self.groups * self.per_group

    @property
    def chunk_size(self) -> int:
        return len(self._buf_w)

    def process_edge(self, e: WeightedEdge) -> None:
        w = e.w
        self.m_exact += w.numerator if w.denominator == 1 else w
        self.edges_seen += 1
        if w != 1:
            self.unit_weights = False
        i = self._fill
        self._buf_u[i], self._buf_v[i], self._buf_w[i] = e.u, e.v, float(w)
        self._fill = i + 1
        if self._fill == self.chunk_size:
            self.flush()

    def process_block(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        """Ingest edges given as columns, as process_edge would one by one.

        u and v hold int64 endpoints and w exact weights (an int64 column, or
        ints and Fractions as objects) in arrival order, as read_edge_list
        yields them; the bank rounds w to float64 and sums it into m. The
        block fills the same buffer as process_edge, so the chunk boundaries,
        and every draw, depend only on the edge order, not on how it was
        split into blocks. No edge may be a self-loop (the reader rejects
        them, as WeightedEdge does): flush's index orders each vertex's
        incidences by position, and a self-loop would give it two at one.
        """
        self.m_exact += sum(w.tolist())
        self.edges_seen += len(w)
        if not (w == 1).all():
            self.unit_weights = False
        w = w.astype(float)
        start, c = 0, self.chunk_size
        while start < len(w):
            take = min(c - self._fill, len(w) - start)
            fill, end = self._fill, self._fill + take
            self._buf_u[fill:end] = u[start : start + take]
            self._buf_v[fill:end] = v[start : start + take]
            self._buf_w[fill:end] = w[start : start + take]
            self._fill, start = end, start + take
            if end == c:
                self.flush()

    def process_stream(self, stream: Iterable[WeightedEdge]) -> None:
        for e in stream:
            self.process_edge(e)

    def flush(self) -> None:
        """Apply all buffered edges to the reservoirs."""
        c = self._fill
        if c == 0:
            return
        eu, ev, ew = self._buf_u[:c], self._buf_v[:c], self._buf_w[:c]
        self._fill = 0

        chunk_cum = np.cumsum(ew)
        w_end = self._weight_seen + chunk_cum[-1]
        self._weight_seen = float(w_end)
        bins = chunk_cum / w_end
        verts, after, run_v, run_max = _chunk_index(eu, ev, ew)
        # An endpoint that a table of the chunk's vertex ids, modulo a power
        # of two, misses is not in the chunk. The table is probed before the
        # draw, and the draws are freed once placed, so that few K*B-sized
        # temporaries live at once: a first flush replaces every reservoir,
        # and its temporaries set the peak memory.
        table = np.zeros(1 << _mask_bits(self.chunk_size), dtype=bool)
        table[run_v & (len(table) - 1)] = True
        hit = table[self._cand_v & (len(table) - 1)]

        # P(last replacement in chunk = i) = p_i * prod_{j>i} (1 - p_j), with
        # p_j = w_j / W_j and W_j the total weight through edge j, telescopes
        # to w_i / W_end: one weighted draw over the bins picks it, and
        # U >= bins[-1] (the prior weight's share) is "no replacement". With
        # no prior weight the last bin edge is x / x = 1 exactly, so U < 1
        # always replaces. Only the replaced reservoirs' draws are placed.
        u = self._rng.random(self.size)
        replaced = np.flatnonzero(u < bins[-1])
        cat = np.searchsorted(bins, u[replaced], side="right")
        del u

        # A kept reservoir sees the whole chunk: the chunk's maximum at its
        # endpoint raises best_after.
        hit[replaced] = False
        sel = np.flatnonzero(hit)
        cv = self._cand_v[sel]
        j = np.searchsorted(run_v, cv)
        j[j == len(run_v)] = 0
        found = run_v[j] == cv
        sel, j = sel[found], j[found]
        self._best_after[sel] = np.maximum(self._best_after[sel], run_max[j])

        # A replaced reservoir restarts from its new candidate: edge cat and
        # endpoint pick, incidence slot 2 * cat + pick, whose state is the
        # chunk's maximum at that endpoint strictly after position cat.
        slot = 2 * cat + self._rng.integers(0, 2, size=len(cat))
        self._cand_v[replaced] = verts[slot]
        self._cand_w[replaced] = ew[cat]
        self._best_after[replaced] = after[slot]

    def sample_values(self) -> np.ndarray:
        """Finalized X per reservoir (flushes pending edges)."""
        self.flush()
        if self._weight_seen <= 0:
            return np.zeros(self.size)
        # After any edge every candidate weight is positive; a heavier later
        # edge drives 1 - best_after / w below 0, which clips to the 0 score.
        return np.clip(1.0 - self._best_after / self._cand_w, 0.0, 1.0)

    def w_estimate(self) -> float:
        """Median over groups of 2m times the group mean, clamped to [0, 2m]."""
        x = self.sample_values()
        m = float(self.m_exact)
        if m == 0:
            return 0.0
        group_means = x.reshape(self.groups, self.per_group).mean(axis=1)
        return float(np.clip(np.median(2.0 * m * group_means), 0.0, 2.0 * m))

    def words_used(self) -> int:
        """Persistent storage in machine words; constant in stream length.

        Three words per reservoir (endpoint, candidate weight, best_after),
        the three columns of the C-edge chunk buffer at their capacity, and
        eight fixed-size scalars: epsilon, delta, groups, per_group, the
        float running weight, edges_seen, unit_weights and the buffer's fill
        count. The count is the same whether or not edges are pending. The
        PCG64 generator's state and the exact m are outside it: m_exact is
        unbounded (an int that grows with the total weight, or a Fraction
        whose denominator grows with rational weights; README). So are the
        chunk index and the endpoint table each flush builds: O(C) words of
        scratch, freed when the flush returns, not kept state. A pure
        query: it flushes nothing.
        """
        return _words(self.size, self.chunk_size)


def _words(size: int, chunk: int) -> int:
    """EstimatorBank.words_used of a bank of size reservoirs and a C = chunk buffer."""
    return 3 * size + 8 + 3 * chunk


def _mask_bits(chunk: int) -> int:
    """Bits of the kept reservoirs' endpoint table: 2^bits >= 32 * chunk, so
    a chunk's at most 2 * chunk vertex ids fill at most 1/16 of it."""
    return (32 * chunk - 1).bit_length()


def _chunk_index(eu, ev, ew):
    """One sort of a chunk's 2c incidences, and the maxima flush reads off it.

    Incidence slot 2i + p is endpoint p of edge i. Returns, per slot, its
    vertex and `after`, the maximum weight at that vertex strictly after
    position i (0 if none), and the chunk's distinct vertices, ascending,
    with each one's maximum over the whole chunk. A stable sort by vertex
    keeps each vertex's rows in position order; with no self-loop a vertex
    has one row per position, so the rows after slot 2i + p in its run are
    exactly the edges after i. Each row holds the maximum over its run from
    there on: a reverse running maximum of weight ranks, each run lifted
    above every later run by an integer offset so that no run leaks into
    the one before it.
    """
    verts = np.stack([eu, ev], axis=1).ravel()
    order = np.argsort(verts, kind="stable")
    sv = verts[order]
    first = np.concatenate([[True], sv[1:] != sv[:-1]])
    run = np.cumsum(first) - 1
    levels, rank = np.unique(ew, return_inverse=True)
    lift = (run[-1] - run) * len(levels)
    running = np.maximum.accumulate((np.repeat(rank, 2)[order] + lift)[::-1])[::-1] - lift
    after_sorted = np.zeros(len(sv))
    same = ~first[1:]
    after_sorted[:-1][same] = levels[running[1:][same]]
    after = np.empty(len(sv))
    after[order] = after_sorted
    return verts, after, sv[first], levels[running[first]]


# ---------------------------------------------------------------------------
# End-to-end estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QmcEstimate:
    value: float
    m: float
    w_hat: float
    epsilon: float
    delta: float
    mode: str  # "unweighted" | "weighted"
    guaranteed_ratio: float  # 2 + eps or 5/2 + eps
    words_used: int
    m_exact: int | Fraction
    edges_seen: int


class QmcEstimateAlgorithm:
    """The one-pass Quantum Max-Cut estimator.

    Keeps the exact total weight m and a bank estimating W within eps'm,
    eps' = eps/4, and reports m/2 + (W_hat + eps'm)/4; W_hat is clamped to
    [0, 2m], so the value lies in [m/2, m + eps'm/4]. The upward shift makes
    the estimate one-sided: whenever W_hat is within eps'm of W the value is
    at least the true optimum, while staying under 2 + eps (unit weights) or
    5/2 + eps (weighted) times the optimum. The mode follows from the weights
    seen. ``update``/``result``/``word_count`` let the protocol harness drive
    it as a player's state.
    """

    def __init__(self, epsilon: float, delta: float, seed: int = 0):
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        self.epsilon = float(epsilon)
        self.bank = EstimatorBank(epsilon / 4.0, delta, seed)

    def update(self, e: WeightedEdge) -> None:
        self.bank.process_edge(e)

    def word_count(self) -> int:
        return self.bank.words_used()

    def result(self) -> float:
        return self.report().value

    def report(self) -> QmcEstimate:
        bank = self.bank
        m = float(bank.m_exact)
        w_hat = bank.w_estimate()
        mode = "unweighted" if bank.unit_weights else "weighted"
        return QmcEstimate(
            value=m / 2.0 + (w_hat + bank.epsilon * m) / 4.0,
            m=m,
            w_hat=w_hat,
            epsilon=self.epsilon,
            delta=bank.delta,
            mode=mode,
            guaranteed_ratio=(2.0 if mode == "unweighted" else 2.5) + self.epsilon,
            words_used=bank.words_used(),
            m_exact=bank.m_exact,
            edges_seen=bank.edges_seen,
        )
