"""Hidden-partition hard instances and their reduction to edge streams.

An instance hands each of T players an alpha_n-edge matching with one bit
per edge; in the YES case the bits are the edge parities of a hidden vertex
partition, in the NO case they are fair coins. The reduction feeds every
bit-1 edge not seen in an earlier player's matching to a streaming
algorithm, and the protocol harness thresholds the reported value.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .estimator import QmcEstimateAlgorithm  # noqa: F401 (a protocol player)
from .graph import WeightedEdge, WeightedGraph, dfs_forest, is_bipartite
from .oracles import max_cut_bruteforce, qmc_exact
from .relaxation import solve_vector_program
from .rng import substream

YES = "yes"
NO = "no"


@dataclass(frozen=True)
class DihpInstance:
    n: int
    alpha_n: int
    t_players: int
    matchings: tuple[tuple[tuple[int, int], ...], ...]
    labels: tuple[tuple[int, ...], ...]
    truth: str
    hidden_partition: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.truth not in (YES, NO):
            raise ValueError(f"truth must be {YES!r} or {NO!r}, not {self.truth!r}")
        if self.t_players < 1:
            raise ValueError("need at least one player")
        if self.alpha_n < 1 or 2 * self.alpha_n > self.n:
            raise ValueError(f"infeasible parameters: alpha_n={self.alpha_n}, n={self.n}")
        if len(self.matchings) != self.t_players or len(self.labels) != self.t_players:
            raise ValueError(f"need {self.t_players} matchings and {self.t_players} label rows")
        for matching, bits in zip(self.matchings, self.labels):
            if len(matching) != self.alpha_n or len(bits) != self.alpha_n:
                raise ValueError(f"each player needs {self.alpha_n} edges and {self.alpha_n} label bits")
            if any(b not in (0, 1) for b in bits):
                raise ValueError("label bits must be 0 or 1")
            used = set()
            for u, v in matching:
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError(f"matching edge {u}:{v} outside vertices 0..{self.n - 1}")
                if u == v or u in used or v in used:
                    raise ValueError("matching edges must be pairwise non-incident")
                used.update((u, v))
        if self.truth == YES:
            x = self.hidden_partition
            if x is None:
                # Not part of the wire format: recover it from the labels,
                # which checks every label.
                partition = _recover_partition(self.n, self.matchings, self.labels)
                object.__setattr__(self, "hidden_partition", partition)
            elif any(
                b != x[u] ^ x[v]
                for matching, bits in zip(self.matchings, self.labels)
                for (u, v), b in zip(matching, bits)
            ):
                raise ValueError("labels inconsistent with hidden partition")


def sample_partial_matching(rng: np.random.Generator, n: int, k: int) -> tuple[tuple[int, int], ...]:
    """k pairwise non-incident edges, drawn edge by edge uniformly over the
    pairs not incident to the edges already drawn."""
    if 2 * k > n:
        raise ValueError(f"no {k}-edge matching on {n} vertices")
    available = list(range(n))
    edges = []
    for _ in range(k):
        i, j = rng.choice(len(available), size=2, replace=False)
        u, v = available[int(i)], available[int(j)]
        edges.append((u, v) if u < v else (v, u))
        for w in sorted((int(i), int(j)), reverse=True):
            del available[w]
    return tuple(edges)


def sample_instance(
    n: int, alpha_n: int, t_players: int, truth: str, seed: int = 0
) -> DihpInstance:
    rng = substream(seed, 0xD1)
    matchings = tuple(sample_partial_matching(rng, n, alpha_n) for _ in range(t_players))
    if truth == YES:
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        labels = tuple(
            tuple(x[u] ^ x[v] for u, v in matching) for matching in matchings
        )
        return DihpInstance(n, alpha_n, t_players, matchings, labels, YES, x)
    labels = tuple(
        tuple(int(b) for b in rng.integers(0, 2, size=alpha_n)) for _ in matchings
    )
    return DihpInstance(n, alpha_n, t_players, matchings, labels, NO, None)


def serialize_instance(inst: DihpInstance) -> str:
    lines = [f"dihp {inst.n} {inst.alpha_n} {inst.t_players} {inst.truth}"]
    for matching, bits in zip(inst.matchings, inst.labels):
        lines.append(" ".join(f"{u}:{v}" for u, v in matching))
        lines.append("".join(str(b) for b in bits))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> DihpInstance:
    """Read `serialize_instance` output; DihpInstance validates what it holds."""
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[0] != "dihp":
        raise ValueError("expected header 'dihp n alpha_n T truth'")
    n, alpha_n, t_players = int(header[1]), int(header[2]), int(header[3])
    matchings = tuple(
        tuple(tuple(int(x) for x in token.split(":")) for token in line.split())
        for line in lines[1::2]
    )
    labels = tuple(tuple(int(ch) for ch in line) for line in lines[2::2])
    return DihpInstance(n, alpha_n, t_players, matchings, labels, header[4])


def _recover_partition(n, matchings, labels) -> tuple[int, ...]:
    """2-color the bit-0/bit-1 constraint graph of a YES instance.

    Colours follow the tree edges of its DFS forest, each child taking its
    parent's colour XOR the edge's bit; then every label is checked.
    """
    constraints = [
        (u, v, b) for matching, bits in zip(matchings, labels) for (u, v), b in zip(matching, bits)
    ]
    neighbors: list[list[int]] = [[] for _ in range(n)]
    bit = {}
    for u, v, b in constraints:
        neighbors[u].append(v)
        neighbors[v].append(u)
        bit[u, v] = bit[v, u] = b
    color = [0] * n
    for v, p in dfs_forest(neighbors):
        if p is not None:
            color[v] = color[p] ^ bit[p, v]
    if any(color[u] ^ color[v] != b for u, v, b in constraints):
        raise ValueError("labels are not consistent with any partition")
    return tuple(color)


def _player_edges(inst: DihpInstance) -> list[list[WeightedEdge]]:
    """Each player's part of the reduced stream: its bit-1 edges, in
    matching order, whose vertex pair no earlier player's matching holds
    in either orientation; unit weights."""
    seen: set[tuple[int, int]] = set()
    parts = []
    for matching, bits in zip(inst.matchings, inst.labels):
        edges = [WeightedEdge(u, v) for (u, v), b in zip(matching, bits) if b == 1]
        parts.append([e for e in edges if e.pair not in seen])
        seen.update((min(p), max(p)) for p in matching)
    return parts


def reduce_to_stream(inst: DihpInstance) -> WeightedGraph:
    """The reduced graph: the players' parts of the stream (see
    _player_edges) as its edges, in player order."""
    return WeightedGraph(inst.n, [e for part in _player_edges(inst) for e in part])


# ---------------------------------------------------------------------------
# Streaming-algorithm-as-protocol harness
# ---------------------------------------------------------------------------


class StreamAlgorithm(Protocol):
    def update(self, e: WeightedEdge) -> None: ...
    def result(self) -> float: ...
    def word_count(self) -> int: ...


class ExactOracleAlgorithm:
    """Buffers the whole stream and runs an exact oracle at the end.

    Not a low-space algorithm; used to separate the harness mechanics from
    estimation error in experiments.
    """

    def __init__(self, n: int, mode: str):
        self.n = n
        self.mode = mode
        self._edges: list[WeightedEdge] = []

    def update(self, e: WeightedEdge) -> None:
        self._edges.append(e)

    def result(self) -> float:
        g = WeightedGraph(self.n, self._edges)
        if self.mode == "mc":
            return float(max_cut_bruteforce(g).value)
        return qmc_exact(g).value

    def word_count(self) -> int:
        return 3 * len(self._edges)


@dataclass(frozen=True)
class ProtocolTranscript:
    decision: str
    m: int
    reported_value: float
    threshold: float
    # Words of carried state at each player handoff: algorithm state plus
    # one word for the shared edge counter (2 log n bits).
    handoff_words: tuple[int, ...]


def run_protocol(
    inst: DihpInstance,
    algorithm: StreamAlgorithm,
    mode: str,
    epsilon: float,
) -> ProtocolTranscript:
    """Feed the reduced stream player by player and threshold the output.

    Decision is YES iff the reported value reaches m/(2-eps) in MC mode or
    m/(4-eps) in QMC mode; an empty stream decides YES by the degenerate
    threshold 0 >= 0.
    """
    if mode not in ("mc", "qmc"):
        raise ValueError("mode must be 'mc' or 'qmc'")
    handoffs = []
    m = 0
    for part in _player_edges(inst):
        for e in part:
            algorithm.update(e)
        m += len(part)
        handoffs.append(algorithm.word_count() + 1)
    reported = algorithm.result()
    denom = (2.0 - epsilon) if mode == "mc" else (4.0 - epsilon)
    threshold = m / denom
    decision = YES if reported >= threshold else NO
    return ProtocolTranscript(decision, m, reported, threshold, tuple(handoffs))


# ---------------------------------------------------------------------------
# Separation experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseStats:
    trials: int
    bipartite_rate: float
    maxcut_ratio_mean: Optional[float] = None
    maxcut_ratio_min: Optional[float] = None
    maxcut_ratio_max: Optional[float] = None
    maxcut_ratio_stderr: Optional[float] = None
    sdp_over_m_mean: Optional[float] = None
    qmc_ratio_mean: Optional[float] = None


@dataclass(frozen=True)
class SeparationReport:
    n: int
    alpha_n: int
    t_players: int
    trials: int
    yes_stats: CaseStats
    no_stats: CaseStats
    m_values: dict[str, list[int]]


def separation_experiment(
    n: int,
    alpha_n: int,
    t_players: int,
    trials: int,
    seed: int = 0,
    compute_maxcut: bool = True,
    compute_sdp: bool = False,
    compute_qmc: bool = False,
) -> SeparationReport:
    """Per-trial statistics of the reduced graphs in both truth cases.

    Every YES trial must reduce to a bipartite graph with max-cut m; the
    experiment raises if one does not.
    """
    m_values: dict[str, list[int]] = {YES: [], NO: []}
    stats: dict[str, CaseStats] = {}
    for case in (YES, NO):
        ratios: list[float] = []
        sdp_vals: list[float] = []
        qmc_ratios: list[float] = []
        bipartite_hits = 0
        for trial in range(trials):
            trial_seed = int(substream(seed, 0x5EA, 0 if case == YES else 1, trial).integers(2**62))
            inst = sample_instance(n, alpha_n, t_players, case, trial_seed)
            g = reduce_to_stream(inst)
            m = g.m_edges
            m_values[case].append(m)
            wit = is_bipartite(g)
            bipartite_hits += int(wit.bipartite)
            if case == YES and not wit.bipartite:
                raise AssertionError("YES instance reduced to a non-bipartite graph")
            if m == 0:
                continue
            if compute_maxcut:
                mc = float(max_cut_bruteforce(g).value)
                ratios.append(mc / m)
                if case == YES and mc != m:
                    raise AssertionError("YES instance with max-cut below m")
            if compute_sdp:
                r = solve_vector_program(g, rank=min(g.n, 16), restarts=4, seed=trial_seed)
                sdp_vals.append(r.best_value / m)
            if compute_qmc:
                qmc_ratios.append(qmc_exact(g, seed=trial_seed).value / m)
        stats[case] = CaseStats(
            trials=trials,
            bipartite_rate=bipartite_hits / max(trials, 1),
            maxcut_ratio_mean=_mean(ratios),
            maxcut_ratio_min=min(ratios) if ratios else None,
            maxcut_ratio_max=max(ratios) if ratios else None,
            maxcut_ratio_stderr=_stderr(ratios),
            sdp_over_m_mean=_mean(sdp_vals),
            qmc_ratio_mean=_mean(qmc_ratios),
        )
    return SeparationReport(n, alpha_n, t_players, trials, stats[YES], stats[NO], m_values)


def _mean(xs: Sequence[float]) -> Optional[float]:
    return float(statistics.fmean(xs)) if xs else None


def _stderr(xs: Sequence[float]) -> Optional[float]:
    if len(xs) < 2:
        return None
    return float(statistics.stdev(xs) / len(xs) ** 0.5)
