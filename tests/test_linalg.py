import numpy as np
import pytest

from conftest import PAULI, fresh_rng, random_hermitian
from qmcstream import linalg as la


class TestTraceNorm:
    @pytest.mark.parametrize(
        "m,expect",
        [(np.eye(2), 2.0), (PAULI["X"], 2.0), (np.zeros((3, 3)), 0.0)],
    )
    def test_known_values(self, m, expect):
        assert la.trace_norm(m) == pytest.approx(expect, abs=1e-12)

    def test_density_matrices_have_unit_norm(self):
        for i in range(20):
            rho = la.random_density(fresh_rng(31, i), 8)
            assert la.trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_norm_axioms(self):
        for i in range(1000):
            rng = fresh_rng(32, i)
            dim = int(rng.integers(1, 17))
            a = la.random_matrix(rng, dim, dim)
            b = la.random_matrix(rng, dim, dim)
            c = complex(rng.normal(), rng.normal())
            assert la.trace_norm(a + b) <= la.trace_norm(a) + la.trace_norm(b) + 1e-9
            assert la.trace_norm(c * a) == pytest.approx(abs(c) * la.trace_norm(a), abs=1e-9)
        assert la.trace_norm(np.eye(4)) >= abs(np.trace(np.eye(4))) - 1e-12

    def test_at_least_absolute_trace(self):
        for i in range(50):
            a = la.random_matrix(fresh_rng(33, i), 5, 5)
            assert la.trace_norm(a) >= abs(np.trace(a)) - 1e-9


    def test_rank_deficient_norm_is_accurate(self):
        # Singular values taken as sqrt(eig(A^dagger A)) lose half the digits
        # near zero: on this spectrum they were off by up to 2e-8.
        spectrum = np.diag([1.0, 0.5, 1e-10, 0.0])
        worst = 0.0
        for i in range(200):
            q = la.random_unitary(fresh_rng(34, i), 4)
            worst = max(worst, abs(la.trace_norm(q @ spectrum @ q.conj().T) - (1.5 + 1e-10)))
        assert worst <= 1e-14


class TestStackedNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_stack_equals_per_matrix(self, dim):
        for i in range(20):
            rng = fresh_rng(172, dim, i)
            stack = np.array([la.random_matrix(rng, dim, dim) for _ in range(int(rng.integers(1, 9)))])
            assert la.trace_norm(stack).tolist() == [la.trace_norm(a) for a in stack]
            for p in (1, 1.25, 1.5, 2.0, 3.0):
                per_matrix = [la.schatten_norm(a, p) for a in stack]
                assert np.allclose(la.schatten_norm(stack, p), per_matrix, rtol=1e-14, atol=0)

    def test_leading_axes_are_kept(self):
        stack = la.random_matrix(fresh_rng(173), 12, 3).reshape(2, 2, 3, 3)
        norms = la.trace_norm(stack)
        assert norms.shape == (2, 2)
        assert norms[1, 0] == la.trace_norm(stack[1, 0])
        assert isinstance(la.trace_norm(stack[0, 0]), float)
        with pytest.raises(ValueError, match="square"):
            la.trace_norm(np.zeros((4, 2, 3)))


class TestSuperoperators:
    def test_identity_channel(self):
        rho = la.random_density(fresh_rng(35), 4)
        out = la.Superoperator.identity(4).apply_matrix(rho.matrix)
        assert np.allclose(out, rho.matrix)

    def test_depolarizing_sends_to_mixed(self):
        rho = la.random_density(fresh_rng(36), 2)
        out = la.Superoperator.depolarizing(2).apply_matrix(rho.matrix)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            la.Superoperator.identity(2).apply_matrix(np.eye(4))

    def test_superoperator_must_be_cptp(self):
        # A transpose map is positive but not completely positive.
        d = 2
        m = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        m[i * d + j, k * d + l] = 1.0 if (i, j) == (l, k) else 0.0
        with pytest.raises(ValueError, match="completely positive"):
            la.Superoperator(m)

    def test_random_channels_are_cptp(self):
        for i in range(25):
            ch = la.random_channel(fresh_rng(37, i), 4, 3)
            assert ch.min_choi_eigenvalue() >= -1e-10
            assert ch.trace_preserving_defect() <= 1e-12

    def test_channels_contract_trace_norm(self):
        for i in range(500):
            rng = fresh_rng(38, i)
            dim = 2 if i % 2 else 4
            ch = la.random_channel(rng, dim, int(rng.integers(1, 4)))
            a = random_hermitian(rng, dim)
            assert la.trace_norm(ch.apply_matrix(a)) <= la.trace_norm(a) + 1e-9


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="trace"):
            la.DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            la.DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="Hermitian"):
            la.DensityMatrix(np.array([[0.5, 1], [0, 0.5]], dtype=complex))
