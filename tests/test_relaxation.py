import numpy as np
import pytest

from conftest import fresh_rng, random_graph, sdp_objective
from qmcstream import relaxation as rx
from qmcstream.graph import InfeasibleSizeError, WeightedEdge, WeightedGraph, is_bipartite, total_weight
from qmcstream.oracles import MAXCUT_COMPONENT_CAP, max_cut_bruteforce, qmc_exact

E = WeightedEdge


def unit_graph(n, *pairs):
    return WeightedGraph(n, [E(u, v) for u, v in pairs])


TRIANGLE = unit_graph(3, (0, 1), (1, 2), (0, 2))


def cycle(n):
    return unit_graph(n, *[(i, (i + 1) % n) for i in range(n)])


def grid(rows, cols, weights=(1,)):
    """The rows x cols grid, with edge k weighted weights[k % len(weights)]."""
    pairs = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    pairs += [(v, v + cols) for v in range((rows - 1) * cols)]
    return WeightedGraph(rows * cols, [E(u, v, weights[k % len(weights)]) for k, (u, v) in enumerate(pairs)])


class TestObjective:
    def test_antipodal_edge(self):
        g = unit_graph(2, (0, 1))
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert sdp_objective(g, a) == pytest.approx(1.0)

    def test_triangle_at_120_degrees(self):
        a = np.array(
            [[1, 0, 0], [-0.5, np.sqrt(3) / 2, 0], [-0.5, -np.sqrt(3) / 2, 0]]
        )
        assert sdp_objective(TRIANGLE, a) == pytest.approx(1.5)

    def test_bipartite_c4_by_sides(self):
        g = unit_graph(4, (0, 1), (1, 2), (2, 3), (0, 3))
        a = np.array([[1.0, 0], [-1.0, 0], [1.0, 0], [-1.0, 0]])
        assert sdp_objective(g, a) == pytest.approx(4.0)

    def test_cut_assignment_identity(self):
        for i in range(20):
            rng = fresh_rng(50, i)
            g = random_graph(rng, 7, 0.5, weights=(1, 2, 5))
            if not g.edges:
                continue
            sides = [int(b) for b in rng.integers(0, 2, size=g.n)]
            a = np.zeros((g.n, 3))
            a[:, 0] = [1.0 if s == 0 else -1.0 for s in sides]
            cut = sum(float(e.w) for e in g.edges if sides[e.u] != sides[e.v])
            m = float(total_weight(g))
            assert sdp_objective(g, a) == pytest.approx(2 * cut - m, abs=1e-9)

    def test_rejects_non_unit_rows(self):
        g = unit_graph(2, (0, 1))
        with pytest.raises(ValueError, match="unit"):
            sdp_objective(g, np.array([[2.0, 0.0], [1.0, 0.0]]))


class TestSolve:
    def test_single_edge(self):
        r = rx.solve_vector_program(unit_graph(2, (0, 1)), rank=2)
        assert r.best_value == pytest.approx(1.0, abs=1e-7)
        assert r.converged

    def test_triangle(self):
        r = rx.solve_vector_program(TRIANGLE, rank=3)
        assert r.best_value == pytest.approx(1.5, abs=1e-6)

    def test_bipartite_reaches_m(self):
        g = unit_graph(5, (0, 2), (0, 3), (1, 3), (1, 4))
        r = rx.solve_vector_program(g, rank=5)
        assert r.best_value == pytest.approx(4.0, abs=1e-6)

    def test_value_matches_returned_assignment(self):
        for i in range(10):
            rng = fresh_rng(51, i)
            g = random_graph(rng, 6, 0.6, weights=(1, 2))
            if not g.edges:
                continue
            r = rx.solve_vector_program(g, rank=g.n, seed=i)
            assert sdp_objective(g, r.assignment) == pytest.approx(r.best_value, abs=1e-9)

    def test_empty_graph(self):
        r = rx.solve_vector_program(WeightedGraph(3, []), rank=2)
        assert r.best_value == 0.0
        assert r.upper == 0.0 and r.converged
        assert r.restarts_used == 0

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="rank"):
            rx.solve_vector_program(TRIANGLE, rank=1)
        with pytest.raises(ValueError, match="restarts"):
            rx.solve_vector_program(TRIANGLE, rank=2, restarts=0)

    def test_cut_seeded_floor(self):
        # The rounded-cut floor: on these graphs, wherever the starts fall short
        # of 2*MaxCut - m, the best rows round to a cut that reaches it.
        for i in range(30):
            rng = fresh_rng(52, i)
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 4, 8))
            if not g.edges:
                continue
            m = float(total_weight(g))
            mc = float(max_cut_bruteforce(g).value)
            r = rx.solve_vector_program(g, rank=g.n, seed=i)
            assert r.best_value >= 2 * mc - m - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "g",
        [cycle(30), grid(5, 6), grid(6, 6, weights=(1, 2, 3))],
        ids=["C30", "grid5x6", "grid6x6-weighted"],
    )
    def test_bipartite_past_the_cut_cap_reaches_m(self, g, seed):
        # Too large for brute-force Max-Cut, but the rows still round to the
        # bipartition, so the value is m up to roundoff, not the gap below it.
        assert is_bipartite(g).bipartite
        with pytest.raises(InfeasibleSizeError, match=f"cap {MAXCUT_COMPONENT_CAP}"):
            max_cut_bruteforce(g)
        r = rx.solve_vector_program(g, rank=g.n, seed=seed)
        assert r.best_value >= float(total_weight(g)) - 1e-9
        assert r.converged

    def test_restart_monotonicity(self):
        g = random_graph(fresh_rng(53), 7, 0.6, weights=(1, 3))
        values = [
            rx.solve_vector_program(g, rank=3, restarts=k, seed=11).best_value
            for k in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def weight_matrix(g):
    w = np.zeros((g.n, g.n))
    for e in g.edges:
        w[e.u, e.v] = w[e.v, e.u] = float(e.w)
    return w


class TestCertificate:
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_cycle_closed_form(self, n):
        r = rx.solve_vector_program(cycle(n), rank=n, seed=n)
        optimum = n * np.cos(np.pi / n)
        assert r.converged
        assert r.best_value == pytest.approx(optimum, abs=rx.GAP_TOL * n)
        assert r.upper == pytest.approx(optimum, abs=rx.GAP_TOL * n)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_bound_of_any_assignment_covers_optimum(self, n):
        w = weight_matrix(cycle(n))
        optimum = n * np.cos(np.pi / n)
        for i in range(20):
            x = fresh_rng(55, n, i).normal(size=(n, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            value, upper = rx._certificate(w, x)
            assert value <= optimum + 1e-12
            assert upper >= optimum - 1e-12

    def test_upper_never_below_best_value(self):
        # The graphs of acceptance criterion 7. On some of them the rounded-cut
        # floor is the SDP optimum, and the float bound lands ulps below it.
        for i in range(300):
            rng = fresh_rng(97, i)
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 3))
            if g.edges:
                r = rx.solve_vector_program(g, rank=g.n, seed=i)
                assert r.upper >= r.best_value, i

    def test_uncertified_run_is_reported(self, monkeypatch):
        monkeypatch.setattr(rx, "MAX_SWEEPS", 1)
        r = rx.solve_vector_program(cycle(7), rank=3, restarts=3, seed=1)
        assert not r.converged
        assert r.restarts_used == 3
        assert r.upper >= r.best_value


class TestBoundChain:
    def test_relaxation_bounds_qmc_and_mc(self):
        for i in range(40):
            rng = fresh_rng(54, i)
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n, 0.5, weights=(1, 2, 3))
            if not g.edges:
                continue
            m = float(total_weight(g))
            r = rx.solve_vector_program(g, rank=g.n, seed=i)
            k_hat = r.best_value
            assert qmc_exact(g).value <= (m + 3 * k_hat) / 4 + 1e-6 * max(m, 1)
            mc = float(max_cut_bruteforce(g).value)
            assert mc <= (m + k_hat) / 2 + 1e-6 * m
