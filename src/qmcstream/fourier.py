"""Boolean Fourier transforms of scalar-, matrix-, and channel-valued tables.

A table is an array whose axis 0 holds the 2^n values f(x), index bit i =
x_i. The entry shape tells the kinds apart: () for scalars, (a, b) for
matrices, (d^2, d^2) for superoperator matrices. The transform hat f(S) =
2^{-n} sum_x f(x) (-1)^{x.S} acts entrywise, so it treats all three alike
and returns coefficients of the same shape.

This module also hosts the linear-constraint and channel-family tables, the
toy sequential protocols whose message tables the distinguishability bound
is checked on, and the hypercontractivity sums. The randomized verification
suite that replays these facts lives in ``fourier_suite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import DensityMatrix, Superoperator, schatten_norm, trace_norm

TABLE_CAP = 12


def _cube_bits(values: np.ndarray) -> int:
    """n for a table holding the 2^n values f(x) along axis 0."""
    size = len(values)
    if size < 1 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    n = size.bit_length() - 1
    if n > TABLE_CAP:
        raise ValueError(f"tables capped at n={TABLE_CAP}")
    return n


def _wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0."""
    n = _cube_bits(values)
    w = values.astype(complex).reshape((2,) * n + values.shape[1:])
    for axis in range(n):
        a = np.take(w, 0, axis=axis)
        b = np.take(w, 1, axis=axis)
        w = np.stack([a + b, a - b], axis=axis)
    return w.reshape(values.shape)


def transform(values: np.ndarray) -> np.ndarray:
    """hat f(S) = 2^{-n} sum_x f(x) (-1)^{x.S}, entrywise; same shape as values."""
    return _wht(values) / len(values)


def convolve(f_hat: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
    """(hat f * hat g)(S) = sum_T hat f(T) hat g(T xor S), order preserving.

    A one-axis side is scalar-valued; otherwise entries are matrices.
    """
    size = len(f_hat)
    xor = np.arange(size)[:, None] ^ np.arange(size)[None, :]  # [T, S]
    if f_hat.ndim == 1 and g_hat.ndim == 1:
        return np.einsum("t,ts->s", f_hat, g_hat[xor])
    if f_hat.ndim == 1:
        return np.einsum("t,tsbc->sbc", f_hat, g_hat[xor])
    if g_hat.ndim == 1:
        return np.einsum("tab,ts->sab", f_hat, g_hat[xor])
    return np.einsum("tab,tsbc->sac", f_hat, g_hat[xor])


def operator_convolve(a_hat: np.ndarray, f_hat: np.ndarray) -> np.ndarray:
    """sum_T hat A_T applied to hat f(S xor T), for superoperator coefficients."""
    size = len(a_hat)
    d = f_hat.shape[1]
    out = np.zeros((size, d, d), dtype=complex)
    vecs = f_hat.reshape(size, d * d)
    for t in range(size):
        moved = vecs[np.arange(size) ^ t] @ a_hat[t].T
        out += moved.reshape(size, d, d)
    return out


def _bit_counts(vals: np.ndarray) -> np.ndarray:
    """Number of set bits of each nonnegative integer entry."""
    out = np.zeros_like(vals)
    v = vals.copy()
    while v.any():
        out += v & 1
        v >>= 1
    return out


def popcounts(n: int) -> np.ndarray:
    return _bit_counts(np.arange(1 << n))


# ---------------------------------------------------------------------------
# Linear-constraint indicators and factoring support
# ---------------------------------------------------------------------------


def constraint_indicator_table(m_rows: Sequence[int], y: int, n: int) -> np.ndarray:
    """Indicator of Mx = y over Z_2, rows of M given as n-bit masks."""
    if len(m_rows) > TABLE_CAP or n > TABLE_CAP:
        raise ValueError(f"constraint systems capped at {TABLE_CAP}")
    return (z2_apply(m_rows, np.arange(1 << n)) == y).astype(complex)


def predicted_constraint_coeffs(m_rows: Sequence[int], y: int, n: int) -> np.ndarray:
    """Closed form: (|solutions|/2^n) (-1)^{s.y} at M^T s, zero elsewhere."""
    count = int(np.sum(constraint_indicator_table(m_rows, y, n).real))
    out = np.zeros(1 << n, dtype=complex)
    masks = row_space(m_rows)
    # All s with one mask share a sign when the system is consistent; when
    # it is not, the count is zero.
    out[masks] = count / (1 << n) * (1 - 2 * z2_apply([y], np.arange(len(masks))))
    return out


def z2_apply(m_rows: Sequence[int], xs: np.ndarray) -> np.ndarray:
    """M x over Z_2 for every x in xs: bit i is the parity of x & row i."""
    out = np.zeros_like(xs)
    for i, row in enumerate(m_rows):
        out |= (_bit_counts(xs & row) & 1) << i
    return out


def row_space(m_rows: Sequence[int]) -> np.ndarray:
    """M^T s for s = 0..2^k-1 in order: the xor of the rows that s selects."""
    s = np.arange(1 << len(m_rows))
    out = np.zeros_like(s)
    for i, row in enumerate(m_rows):
        out ^= ((s >> i) & 1) * row
    return out


# ---------------------------------------------------------------------------
# Channel families
# ---------------------------------------------------------------------------


def channel_family_table(n: int, channels: Callable[[int], Superoperator]) -> np.ndarray:
    return np.array([channels(x).matrix for x in range(1 << n)])


def support_defect(coeffs: np.ndarray, allowed_masks: np.ndarray) -> float:
    """Largest coefficient magnitude outside the allowed index set."""
    outside = np.ones(len(coeffs), dtype=bool)
    outside[allowed_masks] = False
    return float(np.max(np.abs(coeffs[outside]), initial=0.0))


# ---------------------------------------------------------------------------
# Toy sequential protocols
# ---------------------------------------------------------------------------

PROTOCOL_N_CAP = 6
PROTOCOL_BETA_CAP = 2
PROTOCOL_T_CAP = 3


@dataclass(frozen=True)
class ToyProtocol:
    """T players with matchings and per-label channels on beta qubits.

    channels[t][y] is the map player t+1 applies when its label vector is y;
    the first player receives the fixed all-zero basis state.
    """

    n: int
    beta: int
    alpha_n: int
    matchings: tuple[tuple[tuple[int, int], ...], ...]
    channels: tuple[tuple[Superoperator, ...], ...]

    def __post_init__(self):
        if self.n > PROTOCOL_N_CAP or self.beta > PROTOCOL_BETA_CAP:
            raise ValueError("protocol size caps: n <= 6, beta <= 2")
        if len(self.matchings) > PROTOCOL_T_CAP:
            raise ValueError("protocol capped at T <= 3 players")
        for t, (matching, row) in enumerate(zip(self.matchings, self.channels, strict=True)):
            if len(matching) != self.alpha_n or len(row) != 1 << self.alpha_n:
                raise ValueError(f"player {t}: need alpha_n edges and 2^alpha_n channels")

    @property
    def t_players(self) -> int:
        return len(self.matchings)

    @property
    def dim(self) -> int:
        return 1 << self.beta

    def initial_state(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each player's label map M_t over Z_2, one row mask per matched edge:
        label bit i of x is x_u xor x_v for the i-th edge (u, v)."""
        return tuple(tuple((1 << u) | (1 << v) for u, v in m) for m in self.matchings)


def protocol_states(p: ToyProtocol) -> np.ndarray:
    """Message tables f_0..f_T stacked as (T+1, 2^n, d, d); f_t(x) drives
    player t's channel at M_t x."""
    states = np.empty((p.t_players + 1, 1 << p.n, p.dim, p.dim), dtype=complex)
    states[0] = p.initial_state()
    for t, (channels, rows) in enumerate(zip(p.channels, p.rows)):
        for x, y in enumerate(z2_apply(rows, np.arange(1 << p.n))):
            states[t + 1, x] = channels[y].apply_matrix(states[t, x])
            DensityMatrix(states[t + 1, x])  # every message must remain a valid state
    return states


@dataclass(frozen=True)
class PhiBoundResult:
    lhs: float  # || phi_T - phi_0 ||_1
    rhs: float  # sum over players and nonempty label subsets of matched coefficient norms


def phibound_experiment(p: ToyProtocol) -> PhiBoundResult:
    """Distinguishability of real vs uniform labels against the coefficient sum.

    phi_t is the average final message when the first t labels are real and
    the rest are uniform coins: the mean of f_t over x, then each later
    player's channel averaged over its labels. The labels are independent and
    the channels linear, so this equals the average over every label draw.
    """
    states = protocol_states(p)
    phi_0 = p.initial_state()
    for row in p.channels:
        averaged = np.mean([ch.matrix for ch in row], axis=0)
        phi_0 = (averaged @ phi_0.reshape(-1)).reshape(p.dim, p.dim)
    lhs = trace_norm(states[-1].mean(axis=0) - phi_0)
    rhs = sum(
        float(np.sum(trace_norm(transform(states[t])[row_space(p.rows[t])[1:]])))
        for t in range(1, p.t_players)
    )
    return PhiBoundResult(float(lhs), float(rhs))


def parity_forwarding_protocol() -> ToyProtocol:
    """Two players on one matched edge: write the label, then flip by label.

    The final state is |y1 xor y2>, which distinguishes perfectly, and the
    single matched coefficient has trace norm 1, so the bound is tight.
    """
    write = []
    for y in (0, 1):
        kraus = [np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)]
        kraus[0][y, 0] = 1.0
        kraus[1][y, 1] = 1.0
        write.append(Superoperator.from_kraus(kraus))
    flip = [
        Superoperator.identity(2),
        Superoperator.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex)),
    ]
    return ToyProtocol(
        n=2,
        beta=1,
        alpha_n=1,
        matchings=(((0, 1),), ((0, 1),)),
        channels=(tuple(write), tuple(flip)),
    )


# ---------------------------------------------------------------------------
# Hypercontractivity sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypercontractivityRecord:
    delta: float
    lhs: float  # sum_S delta^{|S|} ||hat f(S)||_1^2
    bound: float  # 2^{2 delta beta}


def hypercontractivity_sums(f: np.ndarray, deltas: Sequence[float]) -> list[HypercontractivityRecord]:
    """Weighted coefficient mass of a trace-norm-bounded matrix table, one
    record per delta; the transform and its norms are computed once."""
    if not all(0 <= delta <= 1 for delta in deltas):
        raise ValueError("delta must lie in [0, 1]")
    if f.ndim != 3:
        raise ValueError("expected a matrix-valued table")
    if np.max(trace_norm(f)) > 1 + 1e-9:
        raise ValueError("table entries must have trace norm at most 1")
    n = _cube_bits(f)
    beta = int(round(math.log2(f.shape[1])))
    weights = popcounts(n)
    coeff_norms = trace_norm(transform(f))
    return [
        HypercontractivityRecord(
            delta,
            float(np.sum(np.power(float(delta), weights.astype(float)) * coeff_norms**2)),
            2.0 ** (2 * delta * beta),
        )
        for delta in deltas
    ]


def schatten_weighted_sum(f: np.ndarray, p: float) -> tuple[float, float]:
    """lhs = sum_S (p-1)^{|S|} ||hat f(S)||_p^2 and the p-average base.

    The hypercontractive bound is base**(2/p) for arbitrary tables; when
    every entry has trace norm at most 1 the base is at most 1, so the
    weaker base**(1/p) form holds as well.
    """
    weights = popcounts(_cube_bits(f)).astype(float)
    coeff = schatten_norm(transform(f), p)
    lhs = float(np.sum((p - 1.0) ** weights * coeff**2))
    base = float(np.mean(schatten_norm(f, p) ** p))
    return lhs, base
