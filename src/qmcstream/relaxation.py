"""Shifted Goemans-Williamson vector program by the mixing method.

maximize sum_{uv in E} w_uv * (-<f(u), f(v)>) over unit vectors f(u) in R^r.
Each start sweeps the rows, f(u) <- normalize(-sum_v w_uv f(v)) (Wang, Chang
& Kolter, arXiv:1706.00476), and stops once a dual bound certifies its value
to within GAP_TOL * max(m, 1) of the SDP optimum, which is >= 2*MaxCut - m.
The best start's rows round to a cut whose exact value 2*cut - m is a floor,
so the best value is never below it, at every graph size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, total_weight
from .rng import substream

# A run is certified once upper - value <= GAP_TOL * max(m, 1); it gives up
# after MAX_SWEEPS sweeps and computes the bound every CHECK_EVERY sweeps.
GAP_TOL = 1e-6
MAX_SWEEPS = 5000
CHECK_EVERY = 10


@dataclass(frozen=True)
class RelaxationResult:
    best_value: float
    upper: float  # smallest dual bound computed; the SDP optimum is at most this
    assignment: np.ndarray  # (n, rank), unit rows
    restarts_used: int
    converged: bool  # upper - best_value <= GAP_TOL * max(m, 1)


def _certificate(w: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(value, upper) of unit rows x under weight matrix w.

    With C = -w/2 and y_u = (C X)_uu, Diag(y) - C + t*I is dual feasible for
    t = max(0, -lambda_min(Diag(y) - C)), so sum(y) + n*t bounds the SDP.
    """
    y = -0.5 * np.sum((w @ x) * x, axis=1)
    value = float(np.sum(y))
    lam = float(np.linalg.eigvalsh(np.diag(y) + w / 2)[0])
    return value, value + len(y) * max(0.0, -lam)


def _mix(w: np.ndarray, x: np.ndarray, tol: float) -> tuple[float, float]:
    """Sweep x in place until certified or MAX_SWEEPS; return (value, upper)."""
    adjacency = [(cols, w[u, cols]) for u, cols in enumerate(map(np.flatnonzero, w))]
    for sweep in range(1, MAX_SWEEPS + 1):
        for u, (cols, wts) in enumerate(adjacency):
            s = -(wts @ x[cols])
            norm = np.linalg.norm(s)
            if norm > 0:
                x[u] = s / norm
        if sweep % CHECK_EVERY == 0 or sweep == MAX_SWEEPS:
            value, upper = _certificate(w, x)
            if upper - value <= tol:
                break
    return value, upper


def solve_vector_program(
    g: WeightedGraph,
    rank: int,
    restarts: int = 8,
    seed: int = 0,
) -> RelaxationResult:
    """Mixing-method starts, at most `restarts`, until one certifies.

    Start k draws random unit rows from substream(seed, 0x5D9, k). A new
    start runs only while the best value is not yet within the tolerance of
    the smallest bound. Row v rounds to sign <x_v, x_r>, r the lowest vertex of
    v's component (+1 if isolated); a cut whose 2*cut - m beats all starts wins.
    """
    if rank < 2:
        raise ValueError("rank must be at least 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not g.edges:
        a = np.zeros((g.n, rank))
        a[:, 0] = 1.0
        return RelaxationResult(0.0, 0.0, a, 0, True)
    m = total_weight(g)
    tol = GAP_TOL * max(float(m), 1.0)
    w = np.zeros((g.n, g.n))
    for e in g.edges:
        w[e.u, e.v] = w[e.v, e.u] = float(e.w)
    best_value, best, upper, used = -np.inf, None, np.inf, 0
    while used < restarts and not upper - best_value <= tol:
        x = substream(seed, 0x5D9, used).normal(size=(g.n, rank))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        value, bound = _mix(w, x, tol)
        used += 1
        upper = min(upper, bound)
        if value > best_value:
            best_value, best = value, x
    signs = np.ones(g.n)
    for comp in g.components():
        signs[comp] = np.where(best[comp] @ best[comp[0]] < 0, -1.0, 1.0)
    floor = float(2 * sum(e.w for e in g.edges if signs[e.u] != signs[e.v]) - m)
    if floor > best_value:
        best_value = floor
        best = np.zeros((g.n, rank))
        best[:, 0] = signs
    # best_value is attained by a feasible point (the rounded cut exactly), so a
    # bound below it is roundoff in the eigenvalue, not a weaker relaxation.
    upper = max(upper, best_value)
    return RelaxationResult(best_value, upper, best, used, upper - best_value <= tol)
