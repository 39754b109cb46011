"""Boolean Fourier transforms of scalar-, matrix-, and channel-valued tables.

The transform is hat f(S) = 2^{-n} sum_x f(x) (-1)^{x.S} applied entrywise,
so it extends verbatim from scalars to matrices to superoperator matrices.
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

SCALAR_CAP = 12
MATRIX_CAP = 8
SUPEROP_CAP = 6


@dataclass(frozen=True)
class BooleanTable:
    """All 2^n values of a function on the Boolean cube, index bit i = x_i."""

    n: int
    kind: str  # "scalar" | "matrix" | "superoperator"
    values: np.ndarray

    def __post_init__(self):
        caps = {"scalar": SCALAR_CAP, "matrix": MATRIX_CAP, "superoperator": SUPEROP_CAP}
        if self.kind not in caps:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.n > caps[self.kind]:
            raise ValueError(f"{self.kind} tables capped at n={caps[self.kind]}")
        if self.values.shape[0] != 1 << self.n:
            raise ValueError("table must have 2^n entries")
        if self.kind == "scalar" and self.values.ndim != 1:
            raise ValueError("scalar table entries must be scalars")
        if self.kind == "matrix" and self.values.ndim != 3:
            raise ValueError("matrix table entries must be matrices")
        if self.kind == "superoperator" and (
            self.values.ndim != 3 or self.values.shape[1] != self.values.shape[2]
        ):
            raise ValueError("superoperator entries must be square matrices")


@dataclass(frozen=True)
class FourierTable:
    n: int
    kind: str
    coeffs: np.ndarray  # same shape as the source table


def _wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0."""
    size = values.shape[0]
    n = size.bit_length() - 1
    w = values.astype(complex).reshape((2,) * n + values.shape[1:])
    for axis in range(n):
        a = np.take(w, 0, axis=axis)
        b = np.take(w, 1, axis=axis)
        w = np.stack([a + b, a - b], axis=axis)
    return w.reshape(values.shape)


def transform(table: BooleanTable) -> FourierTable:
    """hat f(S) = 2^{-n} sum_x f(x) (-1)^{x.S}, entrywise."""
    return FourierTable(table.n, table.kind, _wht(table.values) / (1 << table.n))


def convolve(f: FourierTable, g: FourierTable) -> np.ndarray:
    """(hat f * hat g)(S) = sum_T hat f(T) hat g(T xor S), order preserving."""
    size = 1 << f.n
    xor = np.arange(size)[:, None] ^ np.arange(size)[None, :]  # [T, S]
    if f.kind == "scalar" and g.kind == "scalar":
        return np.einsum("t,ts->s", f.coeffs, g.coeffs[xor])
    if f.kind == "scalar":
        return np.einsum("t,tsbc->sbc", f.coeffs, g.coeffs[xor])
    if g.kind == "scalar":
        return np.einsum("tab,ts->sab", f.coeffs, g.coeffs[xor])
    return np.einsum("tab,tsbc->sac", f.coeffs, g.coeffs[xor])


def operator_convolve(a_hat: FourierTable, f_hat: FourierTable) -> np.ndarray:
    """sum_T hat A_T applied to hat f(S xor T), for superoperator tables."""
    size = 1 << a_hat.n
    d = f_hat.coeffs.shape[1]
    out = np.zeros((size, d, d), dtype=complex)
    vecs = f_hat.coeffs.reshape(size, d * d)
    for t in range(size):
        moved = vecs[np.arange(size) ^ t] @ a_hat.coeffs[t].T
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


def constraint_indicator_table(m_rows: Sequence[int], y: int, n: int) -> BooleanTable:
    """Indicator of Mx = y over Z_2, rows of M given as n-bit masks."""
    if len(m_rows) > SCALAR_CAP or n > SCALAR_CAP:
        raise ValueError(f"constraint systems capped at {SCALAR_CAP}")
    vals = z2_apply(m_rows, np.arange(1 << n)) == y
    return BooleanTable(n, "scalar", vals.astype(complex))


def constraint_indicator_coeffs(m_rows: Sequence[int], y: int, n: int) -> FourierTable:
    """Fourier coefficients of the indicator, by direct transform."""
    return transform(constraint_indicator_table(m_rows, y, n))


def predicted_constraint_coeffs(m_rows: Sequence[int], y: int, n: int) -> np.ndarray:
    """Closed form: (|solutions|/2^n) (-1)^{s.y} at M^T s, zero elsewhere."""
    count = int(np.sum(constraint_indicator_table(m_rows, y, n).values.real))
    out = np.zeros(1 << n, dtype=complex)
    masks = [row_combination(m_rows, s) for s in range(1 << len(m_rows))]
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


def row_combination(m_rows: Sequence[int], s: int) -> int:
    """M^T s as an n-bit mask: xor of the rows selected by s."""
    mask = 0
    for i, row in enumerate(m_rows):
        if (s >> i) & 1:
            mask ^= row
    return mask


def row_space_masks(m_rows: Sequence[int]) -> set[int]:
    return {row_combination(m_rows, s) for s in range(1 << len(m_rows))}


# ---------------------------------------------------------------------------
# Channel families
# ---------------------------------------------------------------------------


def channel_family_table(n: int, channels: Callable[[int], Superoperator]) -> BooleanTable:
    values = np.array([channels(x).matrix for x in range(1 << n)])
    return BooleanTable(n, "superoperator", values)


def support_defect(ft: FourierTable, allowed_masks: set[int]) -> float:
    """Largest coefficient magnitude outside the allowed index set."""
    outside = np.ones(1 << ft.n, dtype=bool)
    outside[list(allowed_masks)] = False
    return float(np.max(np.abs(ft.coeffs[outside]), initial=0.0))


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
        for t, (matching, row) in enumerate(zip(self.matchings, self.channels)):
            if len(matching) != self.alpha_n or len(row) != 1 << self.alpha_n:
                raise ValueError(f"player {t}: need alpha_n edges and 2^alpha_n channels")
            for ch in row:
                if not ch.is_channel:
                    raise ValueError(f"player {t}: non-channel map in family")

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


def protocol_states(p: ToyProtocol) -> list[BooleanTable]:
    """Message tables f_0..f_T; f_t(x) drives player t's channel at M_t x."""
    tables = []
    current = np.array([p.initial_state() for _ in range(1 << p.n)])
    tables.append(BooleanTable(p.n, "matrix", current.copy()))
    for channels, rows in zip(p.channels, p.rows):
        nxt = np.empty_like(current)
        for x, y in enumerate(z2_apply(rows, np.arange(1 << p.n))):
            nxt[x] = channels[y].apply_matrix(current[x])
            DensityMatrix(nxt[x])  # every message must remain a valid state
        current = nxt
        tables.append(BooleanTable(p.n, "matrix", current.copy()))
    return tables


def phi_state(p: ToyProtocol, t: int) -> np.ndarray:
    """Average final message when the first t labels are real and the rest
    are uniform coins."""
    big_t = p.t_players
    suffix_players = big_t - t
    suffix_size = 1 << (p.alpha_n * suffix_players)
    acc = np.zeros((p.dim, p.dim), dtype=complex)
    labels = [z2_apply(rows, np.arange(1 << p.n)) for rows in p.rows[:t]]
    for x in range(1 << p.n):
        rho = p.initial_state()
        for s in range(t):
            rho = p.channels[s][labels[s][x]].apply_matrix(rho)
        for ybits in range(suffix_size):
            r = rho
            for s in range(t, big_t):
                y = (ybits >> ((s - t) * p.alpha_n)) & ((1 << p.alpha_n) - 1)
                r = p.channels[s][y].apply_matrix(r)
            acc += r
    return acc / ((1 << p.n) * suffix_size)


@dataclass(frozen=True)
class PhiBoundResult:
    lhs: float  # || phi_T - phi_0 ||_1
    rhs: float  # sum over players and nonempty label subsets of matched coefficient norms
    per_player: tuple[float, ...]


def phibound_experiment(p: ToyProtocol) -> PhiBoundResult:
    """Distinguishability of real vs uniform labels against the coefficient sum."""
    lhs = trace_norm(phi_state(p, p.t_players) - phi_state(p, 0))
    tables = protocol_states(p)
    per_player = []
    for t in range(1, p.t_players):
        masks = [row_combination(p.rows[t], s) for s in range(1, 1 << p.alpha_n)]
        per_player.append(float(np.sum(trace_norm(transform(tables[t]).coeffs[masks]))))
    rhs = float(sum(per_player))
    if lhs > rhs + 1e-9:
        raise AssertionError(f"distinguishability bound violated: {lhs} > {rhs}")
    return PhiBoundResult(float(lhs), rhs, tuple(per_player))


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
    level_norm_sums: tuple[float, ...]  # sum of ||.||_1 per |S|
    level_square_sums: tuple[float, ...]  # sum of ||.||_1^2 per |S|


def hypercontractivity_sums(
    f: BooleanTable, deltas: Sequence[float]
) -> list[HypercontractivityRecord]:
    """Weighted coefficient mass of a trace-norm-bounded matrix table, one
    record per delta; the transform and its norms are computed once."""
    if not all(0 <= delta <= 1 for delta in deltas):
        raise ValueError("delta must lie in [0, 1]")
    if f.kind != "matrix":
        raise ValueError("expected a matrix-valued table")
    if np.max(trace_norm(f.values)) > 1 + 1e-9:
        raise ValueError("table entries must have trace norm at most 1")
    beta = int(round(math.log2(f.values.shape[1])))
    weights = popcounts(f.n)
    coeff_norms = trace_norm(transform(f).coeffs)
    levels = int(weights.max()) + 1 if len(weights) else 1
    level_norm = tuple(float(np.sum(coeff_norms[weights == k])) for k in range(levels))
    level_sq = tuple(float(np.sum(coeff_norms[weights == k] ** 2)) for k in range(levels))
    records = []
    for delta in deltas:
        lhs = float(np.sum(np.power(float(delta), weights.astype(float)) * coeff_norms**2))
        bound = 2.0 ** (2 * delta * beta)
        if lhs > bound + 1e-9:
            raise AssertionError(f"hypercontractive bound violated: {lhs} > {bound}")
        records.append(HypercontractivityRecord(delta, lhs, bound, level_norm, level_sq))
    return records


def schatten_weighted_sum(f: BooleanTable, p: float) -> tuple[float, float]:
    """lhs = sum_S (p-1)^{|S|} ||hat f(S)||_p^2 and the p-average base.

    The hypercontractive bound is base**(2/p) for arbitrary tables; when
    every entry has trace norm at most 1 the base is at most 1, so the
    weaker base**(1/p) form holds as well.
    """
    ft = transform(f)
    weights = popcounts(f.n).astype(float)
    coeff = schatten_norm(ft.coeffs, p)
    lhs = float(np.sum((p - 1.0) ** weights * coeff**2))
    base = float(np.mean(schatten_norm(f.values, p) ** p))
    return lhs, base
