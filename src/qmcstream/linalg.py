"""Dense complex linear algebra for few-qubit states, observables, and channels.

Conventions: qubit 0 is the leftmost tensor factor (most significant bit of a
basis index), matching ``np.kron`` order; density matrices are vectorized
row-major, so a channel with Kraus operators ``K_i`` has superoperator matrix
``sum_i K_i (x) conj(K_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
EIGH_DIM_CAP = 1024

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
PAULI_LABELS = "IXYZ"


def hermitian_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitian_eigendecomposition(a: np.ndarray, tol: float = 1e-10):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > EIGH_DIM_CAP:
        raise ValueError(f"dense eigendecomposition capped at dim {EIGH_DIM_CAP}")
    if hermitian_defect(a) > tol * max(1.0, float(np.max(np.abs(a))) if a.size else 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def trace_norm(a: np.ndarray):
    """Schatten 1-norm: the sum of singular values, via the spectrum of A†A.

    One square matrix gives a float; a stack of them (the last two axes)
    gives an array of norms.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    return schatten_norm(a, 1)


def schatten_norm(a: np.ndarray, p: float):
    """Schatten p-norm for p >= 1, of one matrix (a float) or of each matrix
    in a stack over the last two axes (an array)."""
    a = np.asarray(a, dtype=complex)
    gram_eigs = np.linalg.eigvalsh(np.swapaxes(a.conj(), -1, -2) @ a)
    sigma = np.sqrt(np.clip(gram_eigs, 0.0, None))
    norms = np.sum(sigma, axis=-1) if p == 1 else np.sum(sigma**p, axis=-1) ** (1.0 / p)
    return float(norms) if a.ndim == 2 else norms


# ---------------------------------------------------------------------------
# Pauli decomposition
# ---------------------------------------------------------------------------

PAULI_QUBIT_CAP = 7

# PT[p, y, x] = sigma_p[x, y]; used by the tensor-network style transforms.
_PT = PAULIS.transpose(0, 2, 1).copy()


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def pauli_label(index: int, n: int) -> str:
    digits = []
    for _ in range(n):
        digits.append(PAULI_LABELS[index % 4])
        index //= 4
    return "".join(reversed(digits))


def pauli_index(label: str) -> int:
    index = 0
    for ch in label:
        index = index * 4 + PAULI_LABELS.index(ch)
    return index


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of an operator in the Pauli term basis.

    Index order: base-4 digits of the term index are the per-qubit Paulis,
    qubit 0 most significant, so ``coeffs[pauli_index("XZ")]`` is the XZ
    coefficient on two qubits.
    """

    n: int
    coeffs: np.ndarray  # (4**n,) complex

    def coefficient(self, label: str) -> complex:
        if len(label) != self.n:
            raise ValueError(f"label {label!r} has wrong length for n={self.n}")
        return complex(self.coeffs[pauli_index(label)])

    def locality(self) -> np.ndarray:
        """Number of non-identity factors per term index."""
        idx = np.arange(4**self.n)
        out = np.zeros(4**self.n, dtype=np.int64)
        for _ in range(self.n):
            out += (idx % 4) != 0
            idx //= 4
        return out

    def max_real_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag))) if self.coeffs.size else 0.0

    def items(self, tol: float = 1e-12):
        for i in np.nonzero(np.abs(self.coeffs) > tol)[0]:
            yield pauli_label(int(i), self.n), complex(self.coeffs[i])


def pauli_decompose(a: np.ndarray) -> PauliDecomposition:
    """coeff(P) = tr(P A) / 2^n for every n-qubit Pauli term P."""
    a = np.asarray(a, dtype=complex)
    n = _qubit_count(a.shape[0])
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if n > PAULI_QUBIT_CAP:
        raise ValueError(f"pauli_decompose capped at {PAULI_QUBIT_CAP} qubits")
    # Interleave row/column axes as (y_0, x_0, y_1, x_1, ...) then contract
    # one qubit at a time against PT[p, y, x] = sigma_p[x, y].
    t = a.reshape((2,) * (2 * n))
    perm = [ax for k in range(n) for ax in (k, n + k)]
    t = t.transpose(perm)
    for j in range(n):
        t = np.tensordot(_PT, t, axes=([1, 2], [j, j + 1]))
    # Axes are now (p_{n-1}, ..., p_0); flatten with qubit 0 most significant.
    t = t.transpose(tuple(reversed(range(n))))
    return PauliDecomposition(n, t.reshape(4**n) / (2**n))


def pauli_reconstruct(dec: PauliDecomposition) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`."""
    n = dec.n
    c = dec.coeffs.reshape((4,) * n) if n else dec.coeffs.reshape(())
    if n == 0:
        return np.array([[complex(dec.coeffs[0])]])
    t = c
    for j in range(n):
        t = np.tensordot(PAULIS, t, axes=([0], [2 * j]))
    # Axes are (y_{n-1}, x_{n-1}, ..., y_0, x_0); sort to rows then columns.
    perm = [2 * (n - 1 - k) for k in range(n)] + [2 * (n - 1 - k) + 1 for k in range(n)]
    t = t.transpose(perm)
    return t.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# States and channels
# ---------------------------------------------------------------------------


class DensityMatrix:
    """Validated quantum state: Hermitian, PSD, unit trace."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _qubit_count(m.shape[0])
        if hermitian_defect(m) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) < -PSD_TOL:
            raise ValueError("density matrix has eigenvalue below -1e-10")
        if abs(complex(np.trace(m)) - 1) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 by more than 1e-12")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        return _qubit_count(self.dim)

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        v = np.asarray(state, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(np.kron(self.matrix, other.matrix))


def singlet_density() -> DensityMatrix:
    """The maximally entangled two-qubit state (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return DensityMatrix.pure(v)


class Superoperator:
    """Linear map on density matrices of beta qubits, stored as a 4^beta matrix.

    ``is_channel`` marks maps validated as completely positive and trace
    preserving. Fourier coefficients of channel families are generally not
    channels themselves, so unflagged instances are ordinary linear maps.
    """

    def __init__(self, matrix: np.ndarray, is_channel: bool = False):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("superoperator matrix must be square")
        d2 = m.shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2:
            raise ValueError("superoperator dimension must be a perfect square")
        _qubit_count(d)
        self.matrix = m
        self.dim = d
        self.is_channel = bool(is_channel)
        if self.is_channel:
            cp = self.min_choi_eigenvalue()
            if cp < -PSD_TOL:
                raise ValueError(f"not completely positive: Choi eigenvalue {cp:.3e}")
            tp = self.trace_preserving_defect()
            if tp > TRACE_TOL:
                raise ValueError(f"not trace preserving: defect {tp:.3e}")

    @property
    def qubits(self) -> int:
        return _qubit_count(self.dim)

    @classmethod
    def from_kraus(cls, kraus: Iterable[np.ndarray], is_channel: bool = True) -> "Superoperator":
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        d = ops[0].shape[0]
        m = np.zeros((d * d, d * d), dtype=complex)
        for k in ops:
            m += np.kron(k, k.conj())
        return cls(m, is_channel=is_channel)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls.from_kraus([np.eye(dim)])

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "Superoperator":
        return cls.from_kraus([u])

    @classmethod
    def depolarizing(cls, dim: int) -> "Superoperator":
        """The channel sending every state to the maximally mixed state."""
        units = [np.zeros((dim, dim), dtype=complex) for _ in range(dim * dim)]
        for i in range(dim):
            for j in range(dim):
                units[i * dim + j][i, j] = 1 / np.sqrt(dim)
        return cls.from_kraus(units)

    @classmethod
    def measure_z(cls) -> "Superoperator":
        """Single-qubit computational-basis measurement (dephasing)."""
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        return cls.from_kraus([p0, p1])

    def apply_matrix(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise ValueError("dimension mismatch")
        return (self.matrix @ a.reshape(-1)).reshape(self.dim, self.dim)

    def choi(self) -> np.ndarray:
        d = self.dim
        s4 = self.matrix.reshape(d, d, d, d)
        return s4.transpose(2, 0, 3, 1).reshape(d * d, d * d)

    def min_choi_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh((lambda j: (j + j.conj().T) / 2)(self.choi()))))

    def trace_preserving_defect(self) -> float:
        d = self.dim
        s4 = self.matrix.reshape(d, d, d, d)
        partial = np.einsum("aakl->kl", s4)
        return float(np.max(np.abs(partial - np.eye(d))))


def apply_superoperator(s: Superoperator, rho: DensityMatrix) -> DensityMatrix:
    """vec(rho') = S vec(rho); output is re-validated when s is a channel."""
    out = s.apply_matrix(rho.matrix)
    if s.is_channel:
        return DensityMatrix(out)
    d = DensityMatrix.__new__(DensityMatrix)
    d.matrix = out
    return d


# ---------------------------------------------------------------------------
# Random instances (tests and verification suites)
# ---------------------------------------------------------------------------


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: Optional[int] = None) -> DensityMatrix:
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho))

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int = 2) -> Superoperator:
    """Random CPTP map from normalized Gaussian Kraus operators."""
    gs = [random_matrix(rng, dim, dim) for _ in range(n_kraus)]
    s = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(1 / np.sqrt(vals)) @ vecs.conj().T
    return Superoperator.from_kraus([g @ inv_sqrt for g in gs])
