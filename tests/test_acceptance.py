"""Acceptance gate: every top-level guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Seeds are fixed so every number here is reproducible.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (
    bank_w_hat,
    connected_graphs_iso_free,
    fresh_rng,
    qmc_report,
    random_connected_graph,
    random_graph,
    random_stream,
)
from qmcstream.dihp import separation_experiment
from qmcstream.estimator import (
    DEFAULT_CHUNK,
    EstimatorBank,
    amplification_plan,
    expectation_oracle,
)
from qmcstream.fourier import parity_forwarding_protocol, phibound_experiment
from qmcstream.fourier_suite import random_toy_protocol, verify_fourier_lemmas
from qmcstream.graph import (
    WeightedEdge,
    WeightedGraph,
    max_incident_sum,
    total_weight,
)
from qmcstream.oracles import (
    constructive_energies,
    max_cut_bruteforce,
    qmc_bounds,
    qmc_exact,
)
from qmcstream.relaxation import solve_vector_program

E = WeightedEdge


def _report(num, message):
    print(f"\n[criterion {num:2d}] PASS  {message}")


def test_criterion_01_unbiasedness_exact():
    pairs = list(itertools.combinations(range(6), 2))
    checked = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations(pairs, k):
            for order in itertools.permutations(combo):
                g = WeightedGraph(6, [E(u, v) for u, v in order])
                assert expectation_oracle(g.edges) == max_incident_sum(g) / (2 * total_weight(g))
                checked += 1
    for i in range(50):
        rng = fresh_rng(90, i)
        g = random_stream(rng, int(rng.integers(2, 11)), 8, weights=(1, 2, 3, 5, 8))
        assert expectation_oracle(g.edges) == max_incident_sum(g) / (2 * total_weight(g))
    _report(1, f"E[X] = W/2m as exact rationals on {checked} exhaustive + 50 random streams")


def test_criterion_02_additive_w_estimation():
    rng = fresh_rng(91)
    edges = [E(u, v) for u in range(100) for v in range(u + 1, 100) if rng.random() < 0.1]
    g = WeightedGraph(100, edges)
    w_true = float(max_incident_sum(g))
    m = float(total_weight(g))
    hits = sum(
        abs(bank_w_hat(g.edges, 0.1, 0.1, seed=t) - w_true) <= 0.1 * m
        for t in range(100)
    )
    assert hits >= 90
    _report(2, f"|W_hat - W| <= 0.1m in {hits}/100 trials (n=100, m={len(edges)})")


def test_criterion_03_approximation_guarantee():
    results = {}
    for mode, weights, ratio in (("unweighted", (1,), 2.25), ("weighted", (1, 2, 3, 4, 5, 6, 7, 8), 2.75)):
        hits = 0
        for i in range(50):
            rng = fresh_rng(92, i, 0 if mode == "unweighted" else 1)
            n = int(rng.integers(3, 11))
            g = random_connected_graph(rng, n, extra_p=0.3, weights=weights)
            opt = qmc_exact(g, seed=i).value
            est = qmc_report(g.edges, 0.25, 0.05, seed=i)
            if opt - 1e-9 <= est.value <= ratio * opt + 1e-9:
                hits += 1
        assert hits >= 45
        results[mode] = hits
    _report(3, f"value in [OPT, ratio*OPT]: unweighted {results['unweighted']}/50 at 2.25, "
               f"weighted {results['weighted']}/50 at 2.75")


def test_criterion_04_bound_sandwiches():
    slack = 1e-7
    exhaustive = 0
    for n in range(2, 7):
        for g in connected_graphs_iso_free(n):
            q = qmc_exact(g).value
            b = qmc_bounds(g)
            assert float(b.lower_unweighted) - slack <= q <= float(b.upper) + slack
            exhaustive += 1
    for i in range(500):
        rng = fresh_rng(93, i)
        g = random_connected_graph(rng, int(rng.integers(7, 9)), extra_p=0.3)
        q = qmc_exact(g, seed=i).value
        b = qmc_bounds(g)
        assert float(b.lower_unweighted) - slack <= q <= float(b.upper) + slack
    for i in range(500):
        rng = fresh_rng(94, i)
        g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 3, 4, 5, 6, 7, 8))
        if not g.edges:
            continue
        q = qmc_exact(g, seed=i).value
        b = qmc_bounds(g)
        assert float(b.lower_weighted) - slack <= q <= float(b.upper) + slack
    _report(4, f"m/4+W/8 <= QMC <= m/2+W/4 on {exhaustive} exhaustive classes + 500 random; "
               "m/5+W/10 lower bound on 500 weighted; zero violations")


def test_criterion_05_exact_anchors():
    assert qmc_exact(WeightedGraph(2, [E(0, 1)])).value == pytest.approx(1.0, abs=1e-9)
    for d in range(1, 6):
        star = WeightedGraph(d + 1, [E(0, i + 1) for i in range(d)])
        assert qmc_exact(star).value == pytest.approx((d + 1) / 2, abs=1e-8)
    checked = 0
    for i in range(120):
        rng = fresh_rng(95, i)
        g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 4))
        if not g.edges:
            continue
        mc = float(max_cut_bruteforce(g).value)
        assert qmc_exact(g, seed=i).value >= mc / 2 - 1e-7
        checked += 1
    _report(5, f"single edge = 1, stars = (d+1)/2 for d=1..5, QMC >= MC/2 on {checked} graphs")


def test_criterion_06_constructive_energies():
    figure = WeightedGraph(
        8,
        [E(0, 1), E(0, 6), E(1, 2), E(1, 5), E(2, 3), E(3, 4), E(3, 7),
         E(0, 5), E(1, 3), E(1, 7), E(0, 2)],
    )
    assert constructive_energies(figure).dfs_level_value == Fraction(19, 4)
    graphs = [g for n in range(2, 7) for g in connected_graphs_iso_free(n)]
    for i in range(100):
        rng = fresh_rng(96, i)
        graphs.append(random_connected_graph(rng, int(rng.integers(2, 9))))
    for g in graphs:
        q = qmc_exact(g).value
        ce = constructive_energies(g)
        m = total_weight(g)
        w = max_incident_sum(g)
        assert float(ce.matching_value) <= q + 1e-7
        assert float(ce.forest_cut_value) <= q + 1e-7
        assert float(ce.dfs_level_value) <= q + 1e-7
        assert ce.dfs_level_value > m / 4 + w / 8 - Fraction(1, 10**7)
    _report(6, f"figure value = 19/4 exactly; construction <= QMC and DFS value beats "
               f"m/4+W/8 on {len(graphs)} connected graphs")


def test_criterion_07_relaxation_chain():
    checked = 0
    for i in range(300):
        rng = fresh_rng(97, i)
        g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weights=(1, 2, 3))
        if not g.edges:
            continue
        m = float(total_weight(g))
        mc = float(max_cut_bruteforce(g).value)
        r = solve_vector_program(g, rank=g.n, seed=i)
        assert r.best_value >= 2 * mc - m - 1e-9
        assert qmc_exact(g, seed=i).value <= (m + 3 * r.best_value) / 4 + 1e-6 * max(m, 1)
        assert mc <= (m + r.best_value) / 2 + 1e-6 * m
        assert r.converged
        assert qmc_exact(g, seed=i).value <= (m + 3 * r.upper) / 4 + 1e-6 * max(m, 1)
        checked += 1
    _report(7, f"K_hat >= 2MC-m, QMC <= (m+3K)/4 and <= (m+3 upper)/4, MC <= (m+K)/2, every K "
               f"certified, on {checked} graphs; zero violations")


def test_criterion_08_dihp_separation():
    big = separation_experiment(32, 4, 8, 400, seed=0, compute_maxcut=True)
    assert big.yes_stats.bipartite_rate == 1.0
    assert big.yes_stats.maxcut_ratio_mean == 1.0  # max-cut = m on every trial
    two_hundred = separation_experiment(32, 4, 8, 200, seed=0, compute_maxcut=True)
    diff = two_hundred.yes_stats.maxcut_ratio_mean - two_hundred.no_stats.maxcut_ratio_mean
    se = two_hundred.no_stats.maxcut_ratio_stderr  # YES stderr is exactly 0
    assert se is not None and diff >= 5 * se
    _report(8, f"400/400 YES trials bipartite with full cut; NO mean below YES mean by "
               f"{diff / se:.2f} standard errors (200 trials/case)")


def test_criterion_09_fourier_lemma_suite():
    report = verify_fourier_lemmas(seed=2025, quick=False)
    assert report["all_passed"]
    worst = max(v["max_deviation"] for v in report["checks"].values())
    total = sum(v["count"] for v in report["checks"].values())
    assert all(v["violations"] == 0 for v in report["checks"].values())
    _report(9, f"{total} lemma checks, zero violations, worst deviation {worst:.2e}")


def test_criterion_10_phi_bound():
    res = phibound_experiment(parity_forwarding_protocol())
    assert res.lhs <= res.rhs + 1e-9
    worst_margin = res.rhs - res.lhs
    for i in range(50):
        res = phibound_experiment(random_toy_protocol(fresh_rng(98, i)))
        assert res.lhs <= res.rhs + 1e-9
        worst_margin = min(worst_margin, res.rhs - res.lhs)
    _report(10, f"lhs <= rhs on parity protocol + 50 random protocols "
                f"(smallest margin {worst_margin:.2e})")


def test_criterion_11_space_discipline(tmp_path):
    short_bank = EstimatorBank(0.5, 0.2, seed=1)
    for i in range(10):
        short_bank.process_edge(E(i, i + 20))
    long_bank = EstimatorBank(0.5, 0.2, seed=1)
    side = 400
    for i in range(100_000):
        long_bank.process_edge(E(i % side, side + (i // side) % side))
    words = 3 * short_bank.size + 8 + 3 * short_bank.chunk_size
    assert short_bank.words_used() == long_bank.words_used() == words

    # A million-edge stream through the CLI stays within the documented
    # 3*K*B + 8 + 3*chunk words of estimator state.
    n_side = 1000
    path = tmp_path / "million.edges"
    with open(path, "w") as fh:
        fh.write(f"n {2 * n_side}\n")
        for i in range(1_000_000):
            fh.write(f"{i % n_side} {n_side + i // n_side}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qmcstream.cli", "estimate", "--input", str(path),
         "--eps", "0.5", "--delta", "0.2", "--seed", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout)
    k, b = amplification_plan(0.5 / 4.0, 0.2)
    assert report["edges_seen"] == 1_000_000
    assert report["words_used"] == 3 * k * b + 8 + 3 * DEFAULT_CHUNK
    assert report["m"] == 1_000_000.0
    _report(11, f"bank words constant at 3KB+8+3C = {3 * k * b + 8 + 3 * DEFAULT_CHUNK} across 10 and 1e5 edge "
                f"streams; 1e6-edge CLI run used {report['words_used']} words")
