"""The benchmark's child process: one fresh interpreter per timed round.

    worker.py certify    --data DIR --seed S [--setup-only] [--trace FILE] [--alloc]
    worker.py lowerbound --data DIR --seed S [--setup-only] [--trace FILE] [--alloc]
    worker.py cli --trace FILE [--alloc] -- <qmcstream arguments>

`certify` and `lowerbound` call qmcstream's public functions and print their
raw results as JSON; the benchmark checks them in another process. `--setup-only`
stops once the first unit of work could start. `cli` runs the qmcstream
command line under the tracer. Calls go through module attributes
(`oracles.qmc_exact`, not a local name) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# lowerbound settings: the separation experiment at (n 32, alpha n 4, T 8),
# and the one-pass estimator as the players' state at eps 0.5, delta 0.2.
DIHP_N, DIHP_ALPHA_N, DIHP_T = 32, 4, 8
# A max-cut trial costs 2^(largest component - 1), so trials drawn from --seed
# would make a round's work vary with the seed; the separation experiments
# run at a fixed seed instead. Max-cut and SDP on a few trials; max-cut alone
# on 150, because a NO reduction here is bipartite (cut ratio 1) with
# probability about 0.87, and 150 NO trials all bipartite has odds near 1e-9.
SEPARATION_SEED = 0
SDP_TRIALS = 8
CUT_TRIALS = 150
PROTOCOL_INSTANCES = 6  # per truth value, drawn from --seed
PROTOCOL_EPS, PROTOCOL_DELTA = 0.5, 0.2
# The full Fourier suite takes about 6.5 s, longer than a round may last; a
# round runs the suite's quick configuration at this many seeds drawn from --seed.
FOURIER_SEEDS = 3


def _fraction_str(x) -> str | None:
    return None if x is None else str(x)


def certify(args) -> dict:
    from qmcstream import graph, oracles, relaxation

    manifest = json.loads((Path(args.data) / "manifest.json").read_text())
    graphs = {}
    for entry in manifest:
        text = (Path(args.data) / f"{entry['name']}.edges").read_text()
        graphs[entry["name"]] = graph.WeightedGraph.from_stream(graph.parse_edge_list(text))
    if args.setup_only:
        return {}
    results = {}
    for entry in manifest:
        g, out = graphs[entry["name"]], {}
        for op in entry["ops"]:
            if op == "qmc":
                r = oracles.qmc_exact(g, seed=args.seed)
                out["qmc"] = {"value": r.value, "residual": r.residual}
            elif op == "maxcut":
                cut = oracles.max_cut_bruteforce(g)
                out["maxcut"] = {"value": str(cut.value), "sides": list(cut.sides)}
            elif op == "bounds":
                b = oracles.qmc_bounds(g)
                out["bounds"] = {
                    "upper": str(b.upper),
                    "lower_weighted": str(b.lower_weighted),
                    "lower_unweighted": _fraction_str(b.lower_unweighted),
                }
            elif op == "constructive":
                ce = oracles.constructive_energies(g)
                out["constructive"] = [
                    _fraction_str(v)
                    for v in (ce.matching_value, ce.forest_cut_value, ce.dfs_level_value)
                ]
            elif op == "relax":
                # The `qmcstream relax` defaults: full rank, 8 restarts.
                r = relaxation.solve_vector_program(g, rank=max(g.n, 2), restarts=8, seed=args.seed)
                out["relax"] = {"best_value": r.best_value, "assignment": r.assignment.tolist()}
            else:
                raise ValueError(f"unknown certify op {op!r}")
        results[entry["name"]] = out
    return results


def lowerbound(args) -> dict:
    from qmcstream import dihp, fourier_suite

    if args.setup_only:
        return {}
    with_sdp = dihp.separation_experiment(
        DIHP_N, DIHP_ALPHA_N, DIHP_T, SDP_TRIALS, seed=SEPARATION_SEED,
        compute_maxcut=True, compute_sdp=True,
    )
    cut_only = dihp.separation_experiment(
        DIHP_N, DIHP_ALPHA_N, DIHP_T, CUT_TRIALS, seed=SEPARATION_SEED, compute_maxcut=True,
    )
    runs = []
    for i in range(PROTOCOL_INSTANCES):
        for truth in (dihp.YES, dihp.NO):
            inst_seed = args.seed * 1000 + 2 * i + (truth == dihp.NO)
            inst = dihp.sample_instance(DIHP_N, DIHP_ALPHA_N, DIHP_T, truth, inst_seed)
            run = {"truth": truth}
            if truth == dihp.YES:
                run["edges"] = [[e.u, e.v] for e in dihp.reduce_to_stream(inst).edges]
            algorithm = dihp.QmcEstimateAlgorithm(PROTOCOL_EPS, PROTOCOL_DELTA, seed=inst_seed)
            t = dihp.run_protocol(inst, algorithm, "qmc", PROTOCOL_EPS)
            run.update(decision=t.decision, m=t.m, handoff_words=list(t.handoff_words))
            runs.append(run)
    reports = [fourier_suite.verify_fourier_lemmas(seed=args.seed * FOURIER_SEEDS + k, quick=True)
               for k in range(FOURIER_SEEDS)]
    return {
        "separation": [
            {
                "trials": sep.trials,
                "yes_bipartite_rate": sep.yes_stats.bipartite_rate,
                "yes_maxcut_ratio_mean": sep.yes_stats.maxcut_ratio_mean,
                "no_maxcut_ratio_mean": sep.no_stats.maxcut_ratio_mean,
                "yes_sdp_over_m_mean": sep.yes_stats.sdp_over_m_mean,
            }
            for sep in (with_sdp, cut_only)
        ],
        "protocol_runs": runs,
        "fourier": reports,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("workload", choices=["certify", "lowerbound", "cli"])
    parser.add_argument("--data", default=".")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="write the trace to this file")
    parser.add_argument("--alloc", action="store_true",
                        help="with --trace: record tracemalloc peaks of estimator ingest and finalise")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(alloc=args.alloc)
        tracer.install()
    try:
        if args.workload == "cli":
            from qmcstream import cli

            return cli.main(argv[split + 1:])
        result = certify(args) if args.workload == "certify" else lowerbound(args)
        print(json.dumps(result))
        return 0
    finally:
        if tracer is not None:
            tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
