"""Desk-scale ground truth for Max-Cut and Quantum Max-Cut.

Brute-force Max-Cut and matrix-free Lanczos diagonalization both work per
connected component (both quantities are additive over components). Max-Cut
enumerates only each component's 2-core, so its size limit is on the largest
2-core; Lanczos's is on the largest component.
Lanczos runs once per component, in the half-filling spin sector where the
top eigenvalue lives (the operator acts on that sector only), and its value
is certified by the true residual or the call fails. Closed-form bounds and
the constructive assignments are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional

import numpy as np

from .graph import (
    InfeasibleSizeError,
    WeightedGraph,
    dfs_decomposition,
    heaviest_edge_decomposition,
    max_incident_sum,
    total_weight,
)
from .rng import substream

MAXCUT_COMPONENT_CAP = 24
MAXCUT_BLOCK = 1 << 15  # masks per block: temporaries stay in cache
QMC_COMPONENT_CAP = 14
LANCZOS_KRYLOV_CAP = 200
QMC_RESIDUAL_TOL = 1e-9  # certified residual, relative to max(total weight, 1)


@dataclass(frozen=True)
class CutAssignment:
    sides: tuple[int, ...]
    value: Fraction


def _weights_as_ints(weights: list[Fraction]) -> tuple[list[int], int]:
    """Scale rational weights to integers by the lcm of denominators."""
    lcm = 1
    for w in weights:
        lcm = lcm * w.denominator // gcd(lcm, w.denominator)
    return [int(w * lcm) for w in weights], lcm


def max_cut_bruteforce(g: WeightedGraph) -> CutAssignment:
    """Optimal cut, with ties broken to the lexicographically smallest sides.

    Degree-one vertices are stripped until each component is its 2-core (one
    vertex for a tree). Weights are positive, so every optimal cut cuts every
    stripped edge: a stripped vertex sits opposite the vertex it was stripped
    from, and so has a fixed parity relative to the kept vertex it hangs from
    (its anchor). Only the kept vertices are enumerated, at most 24 per
    component (the 2-core cap). A kept vertex's mask bit is the side of the
    smallest vertex anchored to it, ranked by that vertex, so mask order is
    the lexicographic order of the full side string. With the top bit 0 (the
    component's lowest vertex on side 0), the first maximal mask is the
    lexicographically smallest optimal cut, at every component size. Cut
    values are exact in int64: a 2-core whose weights, scaled to integers,
    total 2^63 or more raises InfeasibleSizeError.
    """
    n = g.n
    degree = [len(adj) for adj in g.adjacency]
    anchor, parity = list(range(n)), [0] * n
    stripped: list[tuple[int, int]] = []  # (vertex, the vertex it hung from)
    value = Fraction(0)
    leaves = [u for u in range(n) if degree[u] == 1]
    while leaves:
        u = leaves.pop()
        if degree[u] != 1:
            continue
        v, w = next((v, w) for v, w in g.adjacency[u] if degree[v] > 0)
        degree[u], degree[v] = 0, degree[v] - 1
        stripped.append((u, v))
        value += w
        if degree[v] == 1:
            leaves.append(v)
    for u, v in reversed(stripped):
        anchor[u], parity[u] = anchor[v], parity[v] ^ 1

    sides = [0] * n
    for comp in g.components():
        flip: dict[int, int] = {}  # kept vertex -> parity of its smallest member
        for u in comp:
            flip.setdefault(anchor[u], parity[u])
        if len(flip) > MAXCUT_COMPONENT_CAP:
            raise InfeasibleSizeError(
                f"2-core with {len(flip)} vertices exceeds brute-force cap "
                f"{MAXCUT_COMPONENT_CAP}"
            )
        bit = {c: len(flip) - 1 - i for i, c in enumerate(flip)}
        flips = sum(f << bit[c] for c, f in flip.items())
        core = [(c, d, w) for c in flip for d, w in g.adjacency[c] if c < d and d in bit]
        int_w, lcm = _weights_as_ints([w for _, _, w in core])
        if sum(int_w) >= 1 << 63:
            raise InfeasibleSizeError(
                f"2-core weights scaled by {lcm} to integers total {sum(int_w)}, "
                "which overflows 64-bit cut values"
            )
        values = np.zeros(1 << (len(flip) - 1), dtype=np.int64)
        # Entry b of a block holds the kept vertices' sides for mask b, i.e.
        # b ^ flips; int64 temporaries never exceed a block.
        for lo in range(0, len(values), MAXCUT_BLOCK):
            kept_sides = np.arange(lo, min(lo + MAXCUT_BLOCK, len(values)), dtype=np.uint32) ^ flips
            block = values[lo:lo + MAXCUT_BLOCK]
            for (c, d, _), w in zip(core, int_w):
                block += np.int64(w) * (((kept_sides >> bit[c]) ^ (kept_sides >> bit[d])) & 1)
        best = int(np.argmax(values))  # the first maximum is the lex-min
        for u in comp:
            sides[u] = (((best ^ flips) >> bit[anchor[u]]) & 1) ^ parity[u]
        value += Fraction(int(values[best]), lcm)
    return CutAssignment(tuple(sides), value)


# ---------------------------------------------------------------------------
# The Quantum Max-Cut operator, matrix-free
# ---------------------------------------------------------------------------


class QmcOperator:
    """Matrix-free action of sum_e w_e (I - XX - YY - ZZ)/4 on edge qubits,
    restricted to the states with floor(q/2) ones.

    Qubits are the non-isolated vertices of the graph in ascending order;
    qubit i is bit i of a state. `states` is the ascending int64 array of
    the sector's states and `dim` its length, C(q, floor(q/2)); entry k of a
    vector is the amplitude of states[k]. For each edge and each sector
    state whose endpoint bits differ, the image gains w/2 times (amplitude
    minus the amplitude of the state with those bits swapped), which is in
    the sector too, so the sector is closed under the operator.
    """

    def __init__(self, g: WeightedGraph):
        self.vertices = g.non_isolated()
        self.qubits = len(self.vertices)
        if self.qubits > QMC_COMPONENT_CAP:
            raise InfeasibleSizeError(
                f"{self.qubits} qubits exceed the exact-diagonalization cap "
                f"{QMC_COMPONENT_CAP}"
            )
        bits = [1 << i for i in range(self.qubits)]
        states = np.sort(np.array([sum(c) for c in combinations(bits, self.qubits // 2)], dtype=np.int64))
        self.states, self.dim = states, len(states)
        qubit_of = {u: i for i, u in enumerate(self.vertices)}
        self._terms = []
        for e in g.edges:
            pu, pv = qubit_of[e.u], qubit_of[e.v]
            differ = np.nonzero(((states >> pu) ^ (states >> pv)) & 1)[0]
            swapped = np.searchsorted(states, states[differ] ^ ((1 << pu) | (1 << pv)))
            self._terms.append((float(e.w), differ, swapped))
        self.total_weight = float(sum(w for w, _, _ in self._terms))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        for w, differ, swapped in self._terms:
            out[differ] += (w / 2) * (psi[differ] - psi[swapped])
        return out


class QmcConvergenceError(RuntimeError):
    """A Lanczos run ended with its true residual above the target."""


def _lanczos_top(op: QmcOperator, v0: np.ndarray, target: float):
    """Largest Ritz pair from a fully reorthogonalized Lanczos run.

    Stops once the top Ritz pair's residual beta_k |s_k| (s_k: last entry of
    its tridiagonal eigenvector) is at most target, or after
    LANCZOS_KRYLOV_CAP steps.
    """
    steps = min(LANCZOS_KRYLOV_CAP, op.dim)
    basis = np.zeros((steps, op.dim))
    tri = np.zeros((steps, steps))
    basis[0] = v0 / np.linalg.norm(v0)
    for k in range(steps):
        w = op.apply(basis[k])
        tri[k, k] = np.dot(basis[k], w)
        # Full reorthogonalization, twice for numerical safety; it also
        # removes the alpha_k and beta_{k-1} components of the recurrence.
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        b = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        if k + 1 == steps or b * abs(vecs[-1, -1]) <= target:
            break
        tri[k, k + 1] = tri[k + 1, k] = b
        basis[k + 1] = w / b
    ritz = basis[: k + 1].T @ vecs[:, -1]
    return float(vals[-1]), ritz / np.linalg.norm(ritz)


@dataclass(frozen=True)
class QmcResult:
    value: float
    residual: float


def qmc_exact(g: WeightedGraph, seed: int = 0) -> QmcResult:
    """Maximum eigenvalue of the QMC operator, certified per component.

    Each connected component gets one fully reorthogonalized Lanczos run on
    the operator's sector of states with floor(q/2) ones: the operator
    commutes with total spin, so every multiplet has a member there and the
    top eigenvalue is the sector's. A component's value is certified by
    ||Qv - lambda v|| <= QMC_RESIDUAL_TOL * max(m, 1), m its total weight,
    or QmcConvergenceError is raised. The value is the sum over components
    and the residual the largest.
    """
    total = 0.0
    worst_residual = 0.0
    for ci, comp in enumerate(g.components()):
        op = QmcOperator(g.induced_subgraph(comp))
        target = QMC_RESIDUAL_TOL * max(op.total_weight, 1.0)
        start = substream(seed, 0x71C, ci).normal(size=op.dim)
        lam, vec = _lanczos_top(op, start, target)
        res = float(np.linalg.norm(op.apply(vec) - lam * vec))
        if res > target:
            raise QmcConvergenceError(
                f"Lanczos failed to converge: value {lam:.12g} with residual "
                f"{res:.3e} above {target:.3e}"
            )
        total += lam
        worst_residual = max(worst_residual, res)
    return QmcResult(total, worst_residual)


# ---------------------------------------------------------------------------
# Closed-form bounds and constructive assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QmcBounds:
    upper: Fraction  # m/2 + W/4
    lower_weighted: Fraction  # m/5 + W/10
    lower_unweighted: Optional[Fraction]  # m/4 + W/8, unit weights only


def qmc_bounds(g: WeightedGraph) -> QmcBounds:
    m = total_weight(g)
    w = max_incident_sum(g)
    return QmcBounds(
        upper=m / 2 + w / 4,
        lower_weighted=m / 5 + w / 10,
        lower_unweighted=(m / 4 + w / 8) if g.is_unit_weighted() else None,
    )


@dataclass(frozen=True)
class ConstructiveEnergies:
    """Guaranteed QMC energies of the three explicit assignments.

    matching_value: singlets on the heaviest-edge matching, a quarter of the
    weight on every other edge. forest_cut_value: half of a perfect classical
    cut of the matching-plus-forest. dfs_level_value: optimal stars on the
    DFS levels of one depth parity per component, the parity whose stars
    are worth more, plus a quarter elsewhere (unit weights only). floor:
    the best certified lower bound, the largest of these and m/4.
    """

    matching_value: Fraction
    forest_cut_value: Fraction
    dfs_level_value: Optional[Fraction]
    floor: Fraction


def constructive_energies(g: WeightedGraph) -> ConstructiveEnergies:
    m = total_weight(g)
    hed = heaviest_edge_decomposition(g)
    matching_value = hed.matching_weight + (m - hed.matching_weight) / 4
    forest_cut_value = (hed.matching_weight + hed.forest_weight) / 2
    dfs_value = _dfs_level_value(g, m) if g.is_unit_weighted() else None
    floor = max(matching_value, forest_cut_value, m / 4, dfs_value or 0)
    return ConstructiveEnergies(matching_value, forest_cut_value, dfs_value, floor)


def _dfs_level_value(g: WeightedGraph, m: Fraction) -> Fraction:
    # A star with d leaves is worth (d+1)/2 where its d edges would earn 1/4
    # each, so it adds (d + 2)/4 to m/4. Per component, take the depth
    # parity whose stars add more.
    dec = dfs_decomposition(g)
    gain: dict[tuple[int, int], int] = {}  # (component, depth parity) -> 4 * added value
    for k, level_stars in enumerate(dec.stars):
        for center, leaves in level_stars:
            key = (dec.component[center], k % 2)
            gain[key] = gain.get(key, 0) + len(leaves) + 2
    best = sum(max(gain[ci, 0], gain.get((ci, 1), 0)) for ci in range(len(dec.roots)))
    return (m + best) / 4

