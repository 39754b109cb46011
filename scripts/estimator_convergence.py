#!/usr/bin/env python3
"""Empirical accuracy of the one-pass W estimator across epsilon.

For a fixed random graph, runs many seeded trials per epsilon and reports
the worst and root-mean-square error of W_hat against the exact W, next to
the eps*m budget and the words of state the bank needed.
"""

import argparse
import math

from qmcstream.estimator import EstimatorBank
from qmcstream.graph import WeightedEdge, WeightedGraph, max_incident_sum, total_weight
from qmcstream.rng import substream


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--edge-prob", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=60)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = substream(args.seed, 1)
    g = WeightedGraph(
        args.n,
        [
            WeightedEdge(u, v)
            for u in range(args.n)
            for v in range(u + 1, args.n)
            if rng.random() < args.edge_prob
        ],
    )
    w_true = float(max_incident_sum(g))
    m = float(total_weight(g))
    print(f"graph: n={args.n} m={int(m)} W={int(w_true)}")
    print(f"{'eps':>6} {'budget':>8} {'worst |err|':>12} {'rms err':>10} {'words':>9} {'hits':>7}")
    for eps in (0.5, 0.3, 0.2, 0.1):
        errs = []
        words = 0
        for t in range(args.trials):
            bank = EstimatorBank(eps, args.delta, seed=t)
            bank.process_stream(g.edges)
            errs.append(bank.w_estimate() - w_true)
            words = bank.words_used()
        worst = max(abs(e) for e in errs)
        rms = math.sqrt(sum(e * e for e in errs) / len(errs))
        hits = sum(abs(e) <= eps * m for e in errs)
        print(
            f"{eps:>6.2f} {eps * m:>8.1f} {worst:>12.2f} {rms:>10.2f} {words:>9} "
            f"{hits:>4}/{args.trials}"
        )


if __name__ == "__main__":
    main()
