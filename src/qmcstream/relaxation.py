"""Shifted Goemans-Williamson vector program by low-rank Riemannian ascent.

maximize sum_{uv in E} w_uv * (-<f(u), f(v)>) over unit vectors f(u) in R^r.
At full rank (r = n) the sphere-product parametrization covers the SDP
feasible set exactly, and one restart is always seeded from the optimal cut
so the best value found is a certified lower bound on 2*MaxCut - m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import InfeasibleSizeError, WeightedGraph
from .oracles import max_cut_bruteforce
from .rng import substream

# Each ascent stops at this Riemannian gradient norm or after this many steps.
ASCENT_TOL = 1e-7
ASCENT_MAX_ITERS = 5000


@dataclass(frozen=True)
class RelaxationResult:
    best_value: float
    assignment: np.ndarray  # (n, rank), unit rows
    restarts_used: int
    converged: bool


def _weight_matrix(g: WeightedGraph) -> np.ndarray:
    w = np.zeros((g.n, g.n))
    for e in g.edges:
        w[e.u, e.v] = w[e.v, e.u] = float(e.w)
    return w


def sdp_objective(g: WeightedGraph, assignment: np.ndarray) -> float:
    """sum_e w_e * (-<f(u), f(v)>); equals 2*cut - m on a rank-one cut assignment."""
    a = np.asarray(assignment, dtype=float)
    if a.shape[0] != g.n:
        raise ValueError(f"assignment has {a.shape[0]} rows, graph has {g.n} vertices")
    norms = np.linalg.norm(a, axis=1)
    if a.shape[0] and np.max(np.abs(norms - 1)) > 1e-10:
        raise ValueError("assignment rows must be unit vectors")
    return float(sum(-float(e.w) * np.dot(a[e.u], a[e.v]) for e in g.edges))


def _objective_fast(w: np.ndarray, x: np.ndarray) -> float:
    return float(-0.5 * np.sum((w @ x) * x))


def solve_vector_program(
    g: WeightedGraph,
    rank: int,
    restarts: int = 8,
    seed: int = 0,
) -> RelaxationResult:
    """Multi-restart projected gradient ascent on the product of unit spheres.

    Restart 0 starts from the brute-force optimal cut whenever that is
    feasible, guaranteeing best_value >= 2*MaxCut - m up to roundoff. The
    step size starts at 1/(2 max_u sum_v w_uv) and halves on non-improving
    steps; convergence means the Riemannian gradient norm dropped below
    ASCENT_TOL.
    """
    if rank < 2:
        raise ValueError("rank must be at least 2")
    w = _weight_matrix(g)
    if not g.edges:
        a = np.zeros((g.n, rank))
        a[:, 0] = 1.0
        return RelaxationResult(0.0, a, restarts, True)

    cut_seed: Optional[np.ndarray] = None
    try:
        cut = max_cut_bruteforce(g)
        cut_seed = np.zeros((g.n, rank))
        cut_seed[:, 0] = [1.0 if s == 0 else -1.0 for s in cut.sides]
    except InfeasibleSizeError:
        pass

    best_value = -np.inf
    best_assignment = None
    any_converged = False
    for ridx in range(restarts):
        if ridx == 0 and cut_seed is not None:
            x0 = cut_seed
        else:
            rng = substream(seed, 0x5D9, ridx)
            x0 = rng.normal(size=(g.n, rank))
            x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
        value, x, converged = _ascend(w, x0.copy())
        any_converged = any_converged or converged
        if value > best_value:
            best_value, best_assignment = value, x
    return RelaxationResult(best_value, best_assignment, restarts, any_converged)


def _ascend(w: np.ndarray, x: np.ndarray):
    strength = np.max(np.sum(np.abs(w), axis=1))
    step = 1.0 / (2.0 * strength)
    value = _objective_fast(w, x)
    converged = False
    for _ in range(ASCENT_MAX_ITERS):
        grad = -(w @ x)
        radial = np.sum(grad * x, axis=1, keepdims=True)
        riemannian = grad - radial * x
        if np.linalg.norm(riemannian) <= ASCENT_TOL:
            converged = True
            break
        y = x + step * riemannian
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        new_value = _objective_fast(w, y)
        if new_value > value:
            x, value = y, new_value
        else:
            step /= 2
            if step < 1e-18:
                break
    return value, x, converged
