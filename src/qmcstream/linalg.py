"""Dense complex linear algebra for few-qubit states and channels.

Density matrices are vectorized row-major, so a channel with Kraus operators
``K_i`` has superoperator matrix ``sum_i K_i (x) conj(K_i)``. Every
``Superoperator`` is validated as a channel; linear maps that are not
channels, such as Fourier coefficients of channel families, stay plain
arrays. Schatten norms take singular values from an SVD, which stays
accurate for rank-deficient matrices.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12


def hermitian_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def trace_norm(a: np.ndarray):
    """Schatten 1-norm: the sum of singular values.

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
    sigma = np.linalg.svd(a, compute_uv=False)
    norms = np.sum(sigma, axis=-1) if p == 1 else np.sum(sigma**p, axis=-1) ** (1.0 / p)
    return float(norms) if a.ndim == 2 else norms


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


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


class Superoperator:
    """Quantum channel on beta qubits, stored as a 4^beta matrix and validated
    as completely positive and trace preserving."""

    def __init__(self, matrix: np.ndarray):
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
        cp = self.min_choi_eigenvalue()
        if cp < -PSD_TOL:
            raise ValueError(f"not completely positive: Choi eigenvalue {cp:.3e}")
        tp = self.trace_preserving_defect()
        if tp > TRACE_TOL:
            raise ValueError(f"not trace preserving: defect {tp:.3e}")

    @classmethod
    def from_kraus(cls, kraus: Iterable[np.ndarray]) -> "Superoperator":
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        d = ops[0].shape[0]
        m = np.zeros((d * d, d * d), dtype=complex)
        for k in ops:
            m += np.kron(k, k.conj())
        return cls(m)

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


# ---------------------------------------------------------------------------
# Random instances (tests and verification suites)
# ---------------------------------------------------------------------------


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho))


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
