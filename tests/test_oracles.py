import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    PAULI,
    connected_graphs_iso_free,
    cut_value,
    dense_qmc_hamiltonian,
    fresh_rng,
    max_cut_enumerated,
    random_connected_graph,
    random_graph,
)
from qmcstream import oracles as oc
from qmcstream.graph import (
    InfeasibleSizeError,
    WeightedEdge,
    WeightedGraph,
    dfs_decomposition,
    heaviest_edge_decomposition,
    max_incident_sum,
    total_weight,
)

E = WeightedEdge


def unit_graph(n, *pairs):
    return WeightedGraph(n, [E(u, v) for u, v in pairs])


TRIANGLE = unit_graph(3, (0, 1), (1, 2), (0, 2))
C4 = unit_graph(4, (0, 1), (1, 2), (2, 3), (0, 3))
C5 = unit_graph(5, (0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
FIGURE_GRAPH = unit_graph(
    8,
    (0, 1), (0, 6), (1, 2), (1, 5), (2, 3), (3, 4), (3, 7),
    (0, 5), (1, 3), (1, 7), (0, 2),
)


GRAPH_KINDS = ("random", "tree", "pendants", "forest")


def product_density(q, factors):
    """Density matrix on q qubits (qubit i is bit i of the index, as in
    dense_qmc_hamiltonian): each (qubits, matrix) factor acts on its listed
    qubits, the j-th of them being bit j of the factor's index, and every
    qubit no factor lists is maximally mixed."""
    idx = np.arange(1 << q)
    rho = np.ones((1 << q, 1 << q), dtype=complex)
    free = set(range(q))
    for qubits, m in factors:
        local = sum(((idx >> g) & 1) << j for j, g in enumerate(qubits))
        rho *= m[np.ix_(local, local)]
        free -= set(qubits)
    for g in free:
        bit = (idx >> g) & 1
        rho *= (bit[:, None] == bit[None, :]) / 2
    return rho


SINGLET = np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]]) / 2


def stripped_star(d):
    """The optimal state of a d-leaf star (centre first), its coefficients the
    top star-Laplacian eigenvector (d, -1, ..., -1) on single excitations,
    averaged with its odd-local negation Y^(x)k rho^T Y^(x)k so that every
    one-qubit Bloch vector is zero."""
    psi = np.zeros(1 << (d + 1))
    psi[[1 << j for j in range(d + 1)]] = [d] + [-1] * d
    rho = np.outer(psi, psi) / np.dot(psi, psi)
    y = np.eye(1)
    for _ in range(d + 1):
        y = np.kron(y, PAULI["Y"])
    return (rho + y @ rho.T @ y) / 2


class TestMaxCut:
    def test_triangle(self):
        cut = oc.max_cut_bruteforce(TRIANGLE)
        assert cut.value == 2
        assert cut_value(TRIANGLE, cut.sides) == cut.value

    def test_odd_cycle_misses_one_edge(self):
        assert oc.max_cut_bruteforce(C5).value == 4

    def test_bipartite_cuts_everything(self):
        for i in range(20):
            rng = fresh_rng(40, i)
            left = int(rng.integers(1, 5))
            right = int(rng.integers(1, 5))
            edges = [
                E(u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.7
            ]
            g = WeightedGraph(left + right, edges)
            assert oc.max_cut_bruteforce(g).value == total_weight(g)

    def test_lexicographic_tiebreak(self):
        cut = oc.max_cut_bruteforce(unit_graph(2, (0, 1)))
        assert cut.sides == (0, 1)

    def test_component_decomposition_allows_large_sparse_graphs(self):
        # 40 vertices but components of size 2: far past a flat cap.
        g = unit_graph(40, *[(2 * i, 2 * i + 1) for i in range(20)])
        assert oc.max_cut_bruteforce(g).value == 20

    def test_large_tree_solved_by_leaf_stripping(self):
        # 30-vertex paths, past the cap: the 2-core is one vertex, and the
        # lexicographic tie-break puts vertex 0 on side 0 whatever the labels.
        in_order, shuffled = list(range(30)), list(range(30))
        random.Random(3).shuffle(shuffled)
        for labels in (in_order, shuffled):
            g = unit_graph(30, *zip(labels, labels[1:]))
            cut = oc.max_cut_bruteforce(g)
            assert cut.value == 29
            assert cut_value(g, cut.sides) == 29
            assert cut.sides[0] == 0

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_matches_full_enumeration(self, kind):
        weights = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)]
        for i in range(100):
            rng = fresh_rng(43, GRAPH_KINDS.index(kind), i)
            n = int(rng.integers(2, 17))
            pairs = set()
            if kind == "random":
                p = rng.choice([0.15, 0.3, 0.5])
                pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
            else:
                # Random forest: each vertex after the first in its block joins an
                # earlier one; "tree" is one block, "forest" several.
                blocks = [n] if kind != "forest" else rng.multinomial(n, [1 / 3] * 3)
                start = 0
                for size in blocks:
                    for j in range(start + 1, start + size):
                        pairs.add((int(rng.integers(start, j)), j))
                    start += size
                if kind == "pendants":
                    for _ in range(int(rng.integers(1, 4))):
                        u, v = sorted(rng.choice(n, size=2, replace=False))
                        pairs.add((int(u), int(v)))
            relabel = rng.permutation(n)
            g = WeightedGraph(n, [
                E(int(relabel[u]), int(relabel[v]), weights[int(rng.integers(0, 4))])
                for u, v in sorted(pairs)
            ])
            cut = oc.max_cut_bruteforce(g)
            assert (cut.value, cut.sides) == max_cut_enumerated(g), (kind, i)

    def test_large_unicyclic_solved_exactly(self):
        # 40-vertex component: a 5-cycle with long tails; core fits the cap.
        pairs = [(i, (i + 1) % 5) for i in range(5)]
        pairs += [(4 + i, 5 + i) for i in range(1, 35)]
        g = unit_graph(40, *pairs)
        cut = oc.max_cut_bruteforce(g)
        assert cut.value == len(pairs) - 1  # odd cycle loses exactly one edge
        assert cut_value(g, cut.sides) == cut.value

    def test_block_boundaries_do_not_change_the_cut(self, monkeypatch):
        monkeypatch.setattr(oc, "MAXCUT_BLOCK", 8)
        for i in range(40):
            rng = fresh_rng(171, i)
            g = random_graph(rng, int(rng.integers(2, 11)), p=0.5, weights=(1, 2, 3))
            cut = oc.max_cut_bruteforce(g)
            assert (cut.value, cut.sides) == max_cut_enumerated(g), i

    def test_scaled_weights_past_32_bits(self):
        # The lcm 65537 * 65539 scales the weight-1 edge past 2^32.
        g = WeightedGraph(3, [E(0, 1, Fraction(1, 65537)), E(1, 2, Fraction(1, 65539)), E(0, 2)])
        cut = oc.max_cut_bruteforce(g)
        assert (cut.value, cut.sides) == (Fraction(65538, 65537), (0, 1, 1))

    def test_scaled_total_past_64_bits_rejected(self):
        g = WeightedGraph(3, [E(0, 1, 2**62), E(1, 2, 2**62), E(0, 2)])
        with pytest.raises(InfeasibleSizeError, match="overflows 64-bit"):
            oc.max_cut_bruteforce(g)

    def test_oversized_core_rejected(self):
        g = unit_graph(26, *[(i, (i + 1) % 26) for i in range(26)])
        with pytest.raises(InfeasibleSizeError):
            oc.max_cut_bruteforce(g)


class TestQmcApply:
    def test_singlet_is_fixed(self):
        op = oc.QmcOperator(unit_graph(2, (0, 1)))
        assert op.states.tolist() == [1, 2]
        singlet = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(op.apply(singlet), singlet)

    def test_aligned_states_annihilated(self):
        # |00> and |000> lie outside the sector; their multiplets' members
        # in it, the triplet and the triangle's uniform spin-3/2 state, are.
        op = oc.QmcOperator(unit_graph(2, (0, 1)))
        assert np.allclose(op.apply(np.array([1.0, 1.0]) / np.sqrt(2)), 0)
        op = oc.QmcOperator(TRIANGLE)
        assert op.states.tolist() == [1, 2, 4]
        assert np.allclose(op.apply(np.ones(3) / np.sqrt(3)), 0)

    def test_matches_dense_hamiltonian(self):
        for i in range(10):
            rng = fresh_rng(41, i)
            g = random_graph(rng, 5, 0.5, weights=(1, 2, 3))
            if not g.edges:
                continue
            h = dense_qmc_hamiltonian(g)
            op = oc.QmcOperator(g)
            psi = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            psi /= np.linalg.norm(psi)
            full = np.zeros(h.shape[0], dtype=complex)
            full[op.states] = psi
            image = h @ full
            off_sector = np.ones(h.shape[0], dtype=bool)
            off_sector[op.states] = False
            assert np.max(np.abs(image[off_sector])) < 1e-12
            assert np.max(np.abs(op.apply(psi) - image[op.states])) < 1e-12


class TestQmcExact:
    def test_single_edge(self):
        assert oc.qmc_exact(unit_graph(2, (0, 1))).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_stars(self, d):
        g = unit_graph(d + 1, *[(0, i + 1) for i in range(d)])
        assert oc.qmc_exact(g).value == pytest.approx((d + 1) / 2, abs=1e-8)

    def test_triangle_and_c4(self):
        assert oc.qmc_exact(TRIANGLE).value == pytest.approx(1.5, abs=1e-8)
        assert oc.qmc_exact(C4).value == pytest.approx(3.0, abs=1e-8)

    def test_agrees_with_dense_diagonalization(self):
        for i in range(25):
            rng = fresh_rng(42, i)
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, 0.5, weights=(1, 2, 3))
            if not g.edges:
                continue
            lam = np.linalg.eigvalsh(dense_qmc_hamiltonian(g))[-1]
            assert oc.qmc_exact(g).value == pytest.approx(lam, abs=1e-8)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_agrees_with_eigsh(self, n):
        sparse = pytest.importorskip("scipy.sparse")
        eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
        rng = fresh_rng(44, n)
        g = random_connected_graph(rng, n, 0.3, weights=(1, 2, 3))
        # Sum of w/4 (I - XX - YY - ZZ) over edges; qubit 0 is the last factor.
        h = sparse.csr_matrix((1 << n, 1 << n), dtype=complex)
        for e in g.edges:
            for term, sign in (("I", 1), ("X", -1), ("Y", -1), ("Z", -1)):
                acc = sparse.identity(1, dtype=complex, format="csr")
                for q in reversed(range(n)):
                    factor = PAULI[term] if q in (e.u, e.v) else PAULI["I"]
                    acc = sparse.kron(acc, factor, format="csr")
                h = h + sign * float(e.w) / 4 * acc
        lam = eigsh(h, k=1, which="LA", v0=rng.normal(size=1 << n), tol=1e-12)[0][0]
        m = float(total_weight(g))
        assert oc.qmc_exact(g).value == pytest.approx(lam, abs=1e-9 * m)

    def test_unconverged_run_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(oc, "LANCZOS_KRYLOV_CAP", 3)
        g = random_connected_graph(fresh_rng(45), 10, 0.3)
        with pytest.raises(oc.QmcConvergenceError, match="Lanczos failed to converge"):
            oc.qmc_exact(g)

    def test_additive_over_components(self):
        g = unit_graph(5, (0, 1), (2, 3), (3, 4))
        assert oc.qmc_exact(g).value == pytest.approx(1.0 + 1.5, abs=1e-8)

    def test_empty_graph(self):
        res = oc.qmc_exact(WeightedGraph(3, []))
        assert res.value == 0.0

    def test_too_many_qubits_in_one_component(self):
        g = unit_graph(16, *[(i, i + 1) for i in range(15)])
        with pytest.raises(InfeasibleSizeError):
            oc.qmc_exact(g)


class TestStarState:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_energy(self, d):
        # The stripped star witness used for the DFS level value is a
        # trace-one state earning (d+1)/2, the star's exact optimum.
        g = unit_graph(d + 1, *[(0, i + 1) for i in range(d)])
        rho = stripped_star(d)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        energy = np.trace(dense_qmc_hamiltonian(g) @ rho).real
        assert energy == pytest.approx((d + 1) / 2, abs=1e-9)
        assert energy == pytest.approx(oc.qmc_exact(g).value, abs=1e-8)


class TestBounds:
    def test_triangle_bounds(self):
        b = oc.qmc_bounds(TRIANGLE)
        assert b.upper == Fraction(9, 4)
        assert b.lower_unweighted == Fraction(9, 8)
        assert b.lower_weighted == Fraction(9, 10)

    def test_single_edge_upper_is_tight(self):
        b = oc.qmc_bounds(unit_graph(2, (0, 1)))
        assert b.upper == 1

    def test_empty_graph(self):
        b = oc.qmc_bounds(WeightedGraph(2, []))
        assert (b.upper, b.lower_weighted, b.lower_unweighted) == (0, 0, 0)

    def test_weighted_graph_has_no_unweighted_bound(self):
        g = WeightedGraph(2, [E(0, 1, Fraction(2))])
        assert oc.qmc_bounds(g).lower_unweighted is None

    def test_algebraic_relations(self):
        for i in range(50):
            rng = fresh_rng(43, i)
            g = random_graph(rng, int(rng.integers(2, 10)), 0.5)
            b = oc.qmc_bounds(g)
            assert b.lower_unweighted == b.upper / 2
            assert b.lower_weighted == b.upper * Fraction(2, 5)


class TestConstructiveEnergies:
    def test_figure_graph_value(self):
        ce = oc.constructive_energies(FIGURE_GRAPH)
        assert ce.dfs_level_value == Fraction(19, 4)  # 3/2 + 3/2 + 7/4

    def test_single_edge(self):
        ce = oc.constructive_energies(unit_graph(2, (0, 1)))
        assert ce.matching_value == 1

    def test_path_rooted_at_end(self):
        ce = oc.constructive_energies(unit_graph(3, (0, 1), (1, 2)))
        assert ce.dfs_level_value == Fraction(5, 4)
        assert oc.qmc_exact(unit_graph(3, (0, 1), (1, 2))).value >= float(ce.dfs_level_value) - 1e-9

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless_graph_is_worth_nothing(self, n):
        ce = oc.constructive_energies(WeightedGraph(n, []))
        values = (ce.matching_value, ce.forest_cut_value, ce.dfs_level_value)
        assert values == (0, 0, 0) and all(isinstance(v, Fraction) for v in values)

    def test_weighted_graph_has_no_dfs_value(self):
        g = WeightedGraph(2, [E(0, 1, Fraction(2))])
        assert oc.constructive_energies(g).dfs_level_value is None

    def test_matching_value_is_achieved(self):
        # Singlets on the heaviest-edge matching and I/2 on every other
        # qubit: a matched edge earns its weight, and every other edge sees
        # two maximally mixed qubits and earns a quarter of its weight.
        for i in range(60):
            rng = fresh_rng(176, i)
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, Fraction(1, 3), Fraction(5, 2)))
            qubit = {u: k for k, u in enumerate(g.non_isolated())}
            matching = heaviest_edge_decomposition(g).matching
            rho = product_density(len(qubit), [((qubit[e.u], qubit[e.v]), SINGLET) for e in matching])
            energy = np.trace(dense_qmc_hamiltonian(g) @ rho).real
            assert energy == pytest.approx(float(oc.constructive_energies(g).matching_value), abs=1e-9)

    def test_dfs_level_value_is_achieved(self):
        # Stripped optimal stars on the DFS levels of one depth parity and
        # I/2 elsewhere: a d-leaf star earns (d+1)/2, and every other edge
        # joins two different factors with zero Bloch vectors and earns 1/4.
        # The value is the energy of the better parity's state. On the path
        # 1-4-0-3-2, rooted at 0, both parities have two leaves: the even
        # one a single star centred at 0 (energy 2), the odd one two stars
        # centred at 4 and 3 (energy 5/2).
        path = unit_graph(5, (1, 4), (4, 0), (0, 3), (3, 2))
        graphs = [path] + [random_connected_graph(rng, int(rng.integers(2, 9)))
                           for rng in (fresh_rng(177, i) for i in range(40))]
        for i, g in enumerate(graphs):
            dec, h = dfs_decomposition(g), dense_qmc_hamiltonian(g)
            energies = []
            for parity in (0, 1):
                stars = [s for k, level in enumerate(dec.stars) if k % 2 == parity for s in level]
                rho = product_density(g.n, [((c,) + leaves, stripped_star(len(leaves))) for c, leaves in stars])
                energies.append(np.trace(h @ rho).real)
            value = float(oc.constructive_energies(g).dfs_level_value)
            assert value == pytest.approx(max(energies), abs=1e-9), (i, energies, value)
        assert oc.constructive_energies(path).dfs_level_value == Fraction(5, 2)

    def test_soundness_and_dfs_strength(self):
        for i in range(60):
            rng = fresh_rng(47, i)
            n = int(rng.integers(2, 8))
            g = random_connected_graph(rng, n)
            q = oc.qmc_exact(g).value
            ce = oc.constructive_energies(g)
            m = total_weight(g)
            w = max_incident_sum(g)
            assert float(ce.matching_value) <= q + 1e-7
            assert float(ce.forest_cut_value) <= q + 1e-7
            assert float(ce.dfs_level_value) <= q + 1e-7
            assert ce.dfs_level_value > m / 4 + w / 8 - Fraction(1, 10**7)

    def test_guaranteed_lower_bound_floor(self):
        assert oc.constructive_energies(TRIANGLE).floor >= Fraction(3, 4)
        for i in range(20):
            rng = fresh_rng(48, i)
            g = random_graph(rng, 7, 0.5, weights=(1, 3))
            if not g.edges:
                continue
            assert oc.constructive_energies(g).floor <= Fraction(
                int(oc.qmc_exact(g).value * 10**9 + 1), 10**9
            ) + 1


class TestSandwichSamples:
    def test_small_connected_classes(self):
        for n in range(2, 6):
            for g in connected_graphs_iso_free(n):
                q = oc.qmc_exact(g).value
                b = oc.qmc_bounds(g)
                assert float(b.lower_unweighted) - 1e-7 <= q <= float(b.upper) + 1e-7

    def test_half_the_cut(self):
        for i in range(40):
            rng = fresh_rng(49, i)
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 4, 8))
            if not g.edges:
                continue
            mc = float(oc.max_cut_bruteforce(g).value)
            assert oc.qmc_exact(g).value >= mc / 2 - 1e-7
